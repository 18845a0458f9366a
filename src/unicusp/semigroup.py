"""Two-generator numerical semigroups and their gap-counting functions.

For coprime 1 <= a < b the semigroup <a, b> = {ua + vb : u, v >= 0} misses
exactly delta = (a-1)(b-1)/2 non-negative integers (its gaps), the largest
being 2*delta - 1.  Two counting functions drive everything downstream:

    elements_below(m)  -- how many semigroup elements are < m,
    gaps_at_least(m)   -- how many integers outside the semigroup are >= m,

where "outside" includes every negative integer, so gaps_at_least(m) equals
delta - m for m <= 0.  The two are linked by

    elements_below(m) = m - delta + gaps_at_least(m)   for every integer m.

The gap-counting function of a semigroup is a non-increasing step function
that drops by exactly 1 just past each gap.  `GapFunction` holds that shape
as its run starts (0, then each gap + 1), the one representation of a gap
function in the package.  `convolve` combines two of them by infimum
convolution h(s) = min_m f(m) + g(s - m), the operation used when a curve
carries several cusps, and `convolve_at` evaluates h one argument at a
time without tabulating it.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate, chain
from math import gcd
from operator import add, lt


def _floor_sum(n: int, m: int, a: int, b: int) -> int:
    """Sum of floor((a*i + b) / m) over 0 <= i < n, for n, a, b >= 0, m >= 1.

    Euclid-like reduction (as in the AtCoder Library): O(log(m + a)) steps.
    """
    total = 0
    while True:
        if a >= m:
            total += n * (n - 1) // 2 * (a // m)
            a %= m
        if b >= m:
            total += n * (b // m)
            b %= m
        y_max = a * n + b
        if y_max < m:
            return total
        n, b = divmod(y_max, m)
        m, a = a, m


def check_generators(a: int, b: int) -> None:
    """Raise ValueError unless 1 <= a < b and gcd(a, b) = 1."""
    if a < 1:
        raise ValueError(f"generator a must be >= 1, got {a}")
    if a >= b:
        raise ValueError(f"generators must satisfy a < b, got a={a}, b={b}")
    if gcd(a, b) != 1:
        raise ValueError(f"generators must be coprime, got gcd({a}, {b}) = {gcd(a, b)}")


class Semigroup:
    """The numerical semigroup <a, b>, counted in closed form.

    Every element has a unique form u*b + v*a with 0 <= u < a and v >= 0,
    and m is an element exactly when its u = m * b^-1 mod a has u*b <= m.
    Construction is O(1); no element or gap list is stored.
    """

    __slots__ = ("_a", "_b", "_delta", "_binv")

    def __init__(self, a: int, b: int):
        check_generators(a, b)
        self._a = a
        self._b = b
        self._delta = (a - 1) * (b - 1) // 2
        self._binv = pow(b, -1, a)

    @property
    def a(self) -> int:
        return self._a

    @property
    def b(self) -> int:
        return self._b

    @property
    def delta(self) -> int:
        """Number of gaps; also the local delta invariant of the cusp."""
        return self._delta

    @property
    def gaps(self) -> tuple[int, ...]:
        """All gaps in increasing order; O(delta), built on every access.

        m > 0 is a gap exactly when its u = m * b^-1 mod a has u*b > m, that
        is m = u*b - v*a with 1 <= u < a and v >= 1.  Each u gives one
        ascending range of step a, from u*b mod a up to u*b - a; sorting
        the a - 1 concatenated runs merges them.
        """
        a, b = self._a, self._b
        return tuple(sorted(chain.from_iterable(
            range(u * b % a, u * b, a) for u in range(1, a))))

    @property
    def frobenius(self) -> int:
        """Largest gap, ab - a - b; -1 when there is none (a = 1)."""
        return self._a * self._b - self._a - self._b

    @property
    def first_pair(self) -> int:
        """Smallest x with x and x + 1 both elements.

        That is x* = min(b^-1*b - 1, (a - b^-1)*b), with b^-1 taken mod a;
        `obstruction._scan` proves it and uses it.  At a = 1, where every
        m >= 0 is an element, the formula would give -1 (b^-1 = 0); this
        returns the true value 0 there instead.
        """
        a, b, binv = self._a, self._b, self._binv
        if a == 1:
            return 0
        return min(binv * b - 1, (a - binv) * b)

    def pair_classes(self, m: int) -> int:
        """How many residue classes mod a hold a pair start x <= m, a pair
        start being an x with x and x + 1 both elements.

        With u = x * b^-1 mod a, x + 1 has u' = u + b^-1 mod a, so x is a
        pair start exactly when x >= max(u*b, u'*b - 1), and both terms lie
        in the class of x.  The count is #{u < a : u*b <= m and
        u'*b <= m + 1}: the overlap of [0, t1) with the cyclic interval
        [-b^-1, -b^-1 + t2) mod a, where t1 and t2 count the u with
        u*b <= m and with u*b <= m + 1.  `obstruction._scan` uses it.
        """
        if m < 0:
            return 0
        a, b = self._a, self._b
        t1 = m // b + 1
        t2 = (m + 1) // b + 1
        if t1 > a:
            t1 = a
        start = -self._binv % a
        end = start + (t2 if t2 < a else a)
        # [start, end) below a, then its wrap [0, end - a); min and max
        # without the calls
        count = (t1 if t1 < end else end) - start
        if count < 0:
            count = 0
        if end > a:
            count += t1 if t1 < end - a else end - a
        return count

    def contains(self, m: int) -> bool:
        return (m * self._binv % self._a) * self._b <= m

    def nth_element(self, n: int) -> int:
        """The n-th smallest element, 1-indexed: nth_element(1) = 0."""
        if n < 1:
            raise ValueError(f"index must be >= 1, got {n}")
        if n > self._delta:
            # beyond the conductor the elements are consecutive integers
            return self._delta + n - 1
        # the smallest m with n elements in [0, m]; plain integers, since a
        # range longer than sys.maxsize has no len() for bisect
        lo, hi = 0, 2 * self._delta
        while lo < hi:
            mid = (lo + hi) // 2
            if self.elements_below(mid + 1) < n:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def elements_below(self, m: int) -> int:
        """Count of semigroup elements strictly below m."""
        return m - self._delta + self.gaps_at_least(m)

    def gaps_at_least(self, m: int) -> int:
        """Count of integers >= m outside the semigroup (negatives included).

        This is delta - m plus the number of elements below m.  Summing
        over u, the elements u*b + v*a < m number (m - 1 - u*b) // a + 1
        for each u < min(a, (m - 1) // b + 1), a floor sum.  For 0 < m <= b
        only u = 0 counts, and for b < m <= 2b with a >= 2 only u = 0 and
        u = 1, so both ranges take their terms in closed form.
        """
        if m <= 0:
            return self._delta - m
        a, b = self._a, self._b
        if m <= b:
            return self._delta - m + (m - 1) // a + 1
        if m <= 2 * b and a > 1:
            return self._delta - m + (m - 1) // a + (m - 1 - b) // a + 2
        terms = (m - 1) // b + 1
        if terms > a:  # min(a, ...), without the call
            terms = a
        # reversed order i = terms - 1 - u makes the slope b non-negative
        return (self._delta - m + terms
                + _floor_sum(terms, a, b, m - 1 - (terms - 1) * b))

    def gap_function(self) -> GapFunction:
        """The gap function, whose run starts are 0 and each gap + 1: the
        ranges of `gaps` moved up by 1, merged."""
        a, b = self._a, self._b
        return GapFunction((0, *sorted(chain.from_iterable(
            range(u * b % a + 1, u * b + 1, a) for u in range(1, a)))))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Semigroup):
            return NotImplemented
        return (self._a, self._b) == (other._a, other._b)

    def __hash__(self) -> int:
        return hash((self._a, self._b))

    def __repr__(self) -> str:
        return f"Semigroup({self._a}, {self._b})"


@dataclass(frozen=True)
class GapFunction:
    """Non-increasing step function given by its run starts.

    starts = (c_0, ..., c_delta) with 0 = c_0 < c_1 < ... < c_delta <=
    2*delta.  The function is delta - m for m <= 0 and drops by exactly 1
    at each c_n with n >= 1, so f(m) = delta - #{n >= 1 : c_n <= m} for
    m >= 0 and f vanishes from c_delta on.  For a semigroup the run starts
    are 0 and each gap + 1.  Semigroup gap counting functions have this
    shape and the shape is closed under infimum convolution, so the run
    starts are all the state any convolution result needs.
    """

    starts: tuple[int, ...]

    def __post_init__(self):
        # any sequence is stored as a tuple: hashable, equal to the tuple
        # form, and unchanged when the caller's list changes
        s = tuple(self.starts)
        object.__setattr__(self, "starts", s)
        if not s or s[0] != 0:
            raise ValueError("starts must begin with 0")
        if not all(map(lt, s, s[1:])):
            raise ValueError("starts must be strictly increasing")
        if s[-1] > 2 * (len(s) - 1):
            raise ValueError("last start must be <= 2*delta")

    @property
    def delta(self) -> int:
        return len(self.starts) - 1

    @classmethod
    def zero(cls) -> GapFunction:
        """The gap function of the full semigroup N: identically max(0, -m)."""
        return cls((0,))

    def __call__(self, m: int) -> int:
        if m <= 0:
            return self.delta - m
        return len(self.starts) - bisect_right(self.starts, m)


def convolve(f: GapFunction, g: GapFunction) -> GapFunction:
    """Infimum convolution h(s) = min over m of f(m) + g(s - m).

    With run starts a_i of f and b_j of g, f(m) = f.delta - #{i >= 1 :
    a_i <= m} for m >= 0, likewise for g, and Delta = f.delta + g.delta.
    Fewer than x gaps lie below x, so f(x) >= f.delta - x, with equality
    for x <= 0; hence h(s) = Delta - s for s <= 0.  For s >= 0 only m in
    [0, s] matter: stepping m above s puts g on its slope g.delta - x,
    which rises by 1 per step while f falls by at most 1, and m below 0
    is the same with the roles swapped.  On [0, s], f(m) + g(s - m) =
    Delta - i - j with a_i the last run start <= m and b_j the last
    <= s - m, so

        h(s) = Delta - max{i + j : a_i + b_j <= s}
             = Delta - #{n >= 1 : c_n <= s},   c_n = min over i + j = n of a_i + b_j,

    because the min-plus convolution c strictly increases: an optimal
    split of n + 1 has i >= 1 or j >= 1, and lowering that index gives a
    smaller sum for n.  So h is the gap function with run starts c: c_0 =
    0, and c_Delta = a_last + b_last <= 2*Delta.  Each c_n reads at most
    min(f.delta, g.delta) + 1 sums, (f.delta + 1)(g.delta + 1) in all.
    """
    if f.delta > g.delta:
        f, g = g, f
    small, large = f.delta, g.delta
    # rev[large - j] = b_j, so each map sums a_i + b_{n-i} over i
    a, rev = f.starts, g.starts[::-1]
    starts = [min(map(add, a, rev[large - n:large - n + small + 1])) for n in range(large + 1)]
    starts += [min(map(add, a[n - large:], rev)) for n in range(large + 1, small + large + 1)]
    return GapFunction(tuple(starts))


def convolve_at(f: GapFunction, g: GapFunction):
    """The infimum convolution of f and g as a function of s, each value
    computed on its own, with no run starts of the result tabulated.

    By the proof in `convolve`, with run starts a_i of f, b_j of g and
    Delta = f.delta + g.delta,

        IC(s) = Delta - max over a_i <= s of (i + max{j : b_j <= s - a_i})

    for s >= 0, and IC(s) = Delta - s below 0.

    Only the ends of runs of consecutive starts need enumerating.  Write
    J(x) = max{j : b_j <= x} for x >= 0.  The b_j are distinct integers,
    so b_{J(x)-1} <= x - 1 and J(x - 1) >= J(x) - 1 whenever x >= 1.
    Within a run a_{i+1} = a_i + 1, stepping i up by 1 lowers s - a_i by
    1, so i + J(s - a_i) never decreases along the run's starts <= s.
    The maximum is therefore at the last start <= s of some run: the
    run's end when that is <= s, and otherwise the last start <= s of
    all, since only the run holding it can be cut off by s.  The run ends
    are found once per call of `convolve_at`.

    J(x) + 1 = #{j : b_j <= x} is read from a count table of g, counts[x]
    for 0 <= x < b_last, its last start; from b_last on it is the number
    of starts of g, since no b_j lies above b_last.  So every run end
    e <= s - b_last gives J(s - e) its largest value, and as the indices
    of the run ends ascend with them, the last of these gives the largest
    term among them: one bisection finds it.  Only the run ends in
    (s - b_last, s] read the table, all at arguments below b_last, and so
    does the last start a_i <= s when s - a_i < b_last.  IC is symmetric
    in its operands, so each value reads whichever operand has fewer run
    ends in that window against the other's table.  A table is a list
    that grows in place, to the argument asked or to twice its length,
    whichever is larger, but never to b_last: it holds only what the
    arguments asked so far reach, and a check rejected in its first rows
    builds little of it.
    """
    total_delta = f.delta + g.delta
    starts_f, starts_g = f.starts, g.starts
    ends_f, index_f = _run_ends(starts_f)
    ends_g, index_g = _run_ends(starts_g)
    last_f, last_g = starts_f[-1], starts_g[-1]
    counts_f, counts_g = [], []
    # per side: the operand whose run ends are read, then the other's
    # count table, starts, last start and number of starts
    side_f = (starts_f, ends_f, index_f, counts_g, starts_g, last_g, len(starts_g))
    side_g = (starts_g, ends_g, index_g, counts_f, starts_f, last_f, len(starts_f))

    def gap_at(s: int) -> int:
        if s < 0:
            return total_delta - s
        # run ends k..n-1 of f lie in (s - last_g, s], likewise for g
        n = bisect_right(ends_f, s)
        k = bisect_right(ends_f, s - last_g, 0, n)
        n_g = bisect_right(ends_g, s)
        k_g = bisect_right(ends_g, s - last_f, 0, n_g)
        if n - k <= n_g - k_g:
            starts, ends, index, counts, other, last, full = side_f
        else:
            n, k = n_g, k_g
            starts, ends, index, counts, other, last, full = side_g
        i = bisect_right(starts, s) - 1
        x = s - starts[i]
        deepest = s - ends[k] if k < n else x
        if len(counts) <= deepest < last:
            _grow_counts(counts, other, deepest)
        top = i + (counts[x] if x < last else full)
        if k and index[k - 1] + full > top:
            top = index[k - 1] + full
        for r in range(k, n):
            term = index[r] + counts[s - ends[r]]
            if term > top:
                top = term
        return total_delta + 1 - top

    return gap_at


def _grow_counts(counts: list[int], starts: tuple[int, ...], x: int) -> None:
    """Extend counts, the table of #{j : starts[j] <= y} for 0 <= y <
    starts[m], m = counts[-1] (0 while empty), to cover x < starts[-1].

    It grows by whole runs between starts, to the first start above
    max(x, 2 * len(counts)) or to the last start, which it never covers.
    The new values are m + 1 at starts[m], plus a running sum of marks
    at the starts above it.
    """
    m = counts[-1] if counts else 0
    end = bisect_right(starts, max(x, 2 * len(counts)), m)
    if end >= len(starts):
        end = len(starts) - 1
    low = starts[m] + 1
    marks = bytearray(starts[end] - low)
    for c in starts[m + 1:end]:
        marks[c - low] = 1
    counts += accumulate(marks, initial=m + 1)


def _run_ends(starts: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The last start of each run of consecutive starts, as (values,
    indices), both ascending: the only starts `convolve_at` reads besides
    the last start <= s.  The indices are each end's i in i + J(s - a_i)."""
    last = len(starts) - 1
    index = (*(i for i in range(last) if starts[i + 1] != starts[i] + 1), last)
    return tuple(starts[i] for i in index), index


def combined_gap_value(parts: list[GapFunction], m: int) -> int:
    """Convolve all parts and evaluate at m + (sum of deltas).

    The shift recentres the convolution so that m = 0 lands on the total
    delta; values vanish for m at or beyond the sum of the deltas.
    """
    if m < 0:
        raise ValueError(f"offset must be >= 0, got {m}")
    h = reduce(convolve, parts, GapFunction.zero())
    return h(m + h.delta)
