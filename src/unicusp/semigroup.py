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
from itertools import accumulate, chain
from math import gcd
from operator import add, lt

from . import _Value


# Past 2b a gap count by `_floor_sum` took 1.4-4.6 us against 0.4-0.7 us
# from the residue-sum table, whose build took 170-280 ns per unit of a,
# for a from 55 to 10^5 (2-vCPU x86-64, Python 3.11.7): the table pays for
# itself after a/17 to a/6 counts.  A `Semigroup` builds it after
# a // TABLE_A_PER_READ of them.
TABLE_A_PER_READ = 8


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


def _require_degree_genus(degree: int, genus: int, delta: int, label: str, *fields) -> None:
    """Raise ValueError unless the degree and genus fit the total delta by
    the degree-genus identity (d-1)(d-2) = 2(g + delta); the mismatch text
    names the cusps by label.format(*fields), which is built only then."""
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    if genus < 0:
        raise ValueError(f"genus must be >= 0, got {genus}")
    if (degree - 1) * (degree - 2) != 2 * (genus + delta):
        raise ValueError(
            f"degree-genus mismatch for {label.format(*fields)}: (d-1)(d-2) = "
            f"{(degree - 1) * (degree - 2)} but 2*(g + delta) = {2 * (genus + delta)}"
        )


class Semigroup:
    """The numerical semigroup <a, b>, counted in closed form.

    Every element has a unique form u*b + v*a with 0 <= u < a and v >= 0,
    and m is an element exactly when its u = m * b^-1 mod a has u*b <= m.
    Construction is O(1); no element or gap list is stored.  A semigroup
    read often enough (see `gaps_at_least`) builds one table of 2a + 1
    residue sums, and keeps it.
    """

    __slots__ = ("_a", "_b", "_delta", "_binv", "_sums", "_reads_left")

    def __init__(self, a: int, b: int):
        check_generators(a, b)
        self._a = a
        self._b = b
        self._delta = (a - 1) * (b - 1) // 2
        self._binv = pow(b, -1, a)
        self._sums = None
        self._reads_left = a // TABLE_A_PER_READ

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
        return tuple(sorted(self._gap_runs(0)))

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

        This is delta - m plus R(m), the number of elements below m.  With
        x = m - 1 and t = min(a, x // b + 1), the elements u*b + v*a <= x
        number (x - u*b) // a + 1 for each u < t, so R(m) = t + F with
        F = sum over u < t of floor((x - u*b) / a).  For 0 < m <= b only
        u = 0 counts, and for b < m <= 2b with a >= 2 only u = 0 and
        u = 1, so both ranges take their terms in closed form.

        Past 2b, F = (t*x - b*t*(t-1)/2 - Z) / a, where
        Z = sum over u < t of (x - u*b) mod a, since each floor is the
        quotient of its residue's division.  Let z_i = (-i*b) mod a: as
        gcd(a, b) = 1, z is periodic with period a.  With
        p = (-x * b^-1) mod a, x = -p*b mod a, so (x - u*b) mod a = z_{p+u}
        and Z = S[p + t] - S[p], where S[n] = z_0 + ... + z_{n-1}.  As
        p < a and t <= a, n never exceeds 2a - 1, so a table of S over
        two periods, 2a + 1 ints, answers every such read in O(1).

        The table costs O(a) time and memory, so it is built only after
        a // TABLE_A_PER_READ reads past 2b have each taken the
        Euclid-like `_floor_sum`, O(log a) steps, on F: a ski-rental
        rule, which stops paying per read once the reads have cost
        about what the table does.  A one-off query at a huge a, or a
        check rejected before its reads pass 2b, never builds it.
        """
        if m <= 0:
            return self._delta - m
        a, b = self._a, self._b
        if m <= b:
            return self._delta - m + (m - 1) // a + 1
        if m <= 2 * b and a > 1:
            return self._delta - m + (m - 1) // a + (m - 1 - b) // a + 2
        x = m - 1
        terms = x // b + 1
        if terms > a:  # min(a, ...), without the call
            terms = a
        sums = self._sums
        if sums is None:
            if self._reads_left:
                self._reads_left -= 1
                # reversed order i = terms - 1 - u makes the slope b
                # non-negative
                return (self._delta - m + terms
                        + _floor_sum(terms, a, b, x - (terms - 1) * b))
            # S[n] for 0 <= n <= 2a, over z_i = (-i*b) mod a
            sums = self._sums = list(accumulate(
                map(a.__rmod__, range(0, -2 * a * b, -b)), initial=0))
        p = -x * self._binv % a
        return (self._delta - m + terms
                + (terms * x - b * terms * (terms - 1) // 2 - sums[p + terms] + sums[p]) // a)

    def gap_function(self) -> GapFunction:
        """The gap function, whose run starts are 0 and each gap + 1: the
        ranges of `gaps` moved up by 1, merged."""
        return GapFunction((0, *sorted(self._gap_runs(1))))

    def _gap_runs(self, shift: int):
        """The a - 1 ascending runs of `gaps`, each moved up by shift."""
        a, b = self._a, self._b
        return chain.from_iterable(range(u * b % a + shift, u * b + shift, a)
                                   for u in range(1, a))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Semigroup):
            return NotImplemented
        return (self._a, self._b) == (other._a, other._b)

    def __hash__(self) -> int:
        return hash((self._a, self._b))

    def __repr__(self) -> str:
        return f"Semigroup({self._a}, {self._b})"


class GapFunction(_Value):
    """Non-increasing step function given by its run starts.

    starts = (c_0, ..., c_delta) with 0 = c_0 < c_1 < ... < c_delta <=
    2*delta.  The function is delta - m for m <= 0 and drops by exactly 1
    at each c_n with n >= 1, so f(m) = delta - #{n >= 1 : c_n <= m} for
    m >= 0 and f vanishes from c_delta on.  For a semigroup the run starts
    are 0 and each gap + 1.  Semigroup gap counting functions have this
    shape and the shape is closed under infimum convolution, so the run
    starts are all the state any convolution result needs.
    """

    __slots__ = ("starts",)
    starts: tuple[int, ...]

    def __init__(self, starts):
        # any sequence is stored as a tuple: hashable, equal to the tuple
        # form, and unchanged when the caller's list changes
        s = tuple(starts)
        if not s or s[0] != 0:
            raise ValueError("starts must begin with 0")
        if not all(map(lt, s, s[1:])):
            raise ValueError("starts must be strictly increasing")
        if s[-1] > 2 * (len(s) - 1):
            raise ValueError("last start must be <= 2*delta")
        object.__setattr__(self, "starts", s)

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

    IC is symmetric in its operands, so they are first ordered, as in
    `convolve`, with g of the larger delta.  By the proof in `convolve`,
    with run starts a_i of f, b_j of g and Delta = f.delta + g.delta,

        IC(s) = Delta - max over b_j <= s of (j + max{i : a_i <= s - b_j})

    for s >= 0, and IC(s) = Delta - s below 0.

    Only the ends of runs of consecutive starts of g need enumerating.
    Write I(x) = max{i : a_i <= x} for x >= 0.  The a_i are distinct
    integers, so a_{I(x)-1} <= x - 1 and I(x - 1) >= I(x) - 1 whenever
    x >= 1.  Within a run b_{j+1} = b_j + 1, stepping j up by 1 lowers
    s - b_j by 1, so j + I(s - b_j) never decreases along the run's
    starts <= s.  The maximum is therefore at the last start <= s of
    some run: the run's end when that is <= s, and otherwise the last
    start <= s of all, since only the run holding it can be cut off by
    s.  The run ends are found once per call of `convolve_at`.

    I(x) + 1 = #{i : a_i <= x} is read from a count table of f, counts[x]
    for 0 <= x < a_last, its last start; from a_last on it is the number
    of starts of f, since no a_i lies above a_last.  So every run end
    e <= s - a_last gives I(s - e) its largest value, and as the indices
    of the run ends ascend with them, the last of these gives the largest
    term among them: one bisection finds it.  Only the run ends in
    (s - a_last, s] read the table, and so does the last start b_j <= s
    when s - b_j < a_last.

    The table is built whole, once per call: a mark at each start of f
    below a_last, summed by `accumulate`.  Every gap function has
    a_last <= 2 * f.delta (a `GapFunction` invariant), so the table holds
    at most 2 * min(f.delta, g.delta) entries, whatever the larger
    operand's size.
    """
    if f.delta > g.delta:
        f, g = g, f
    total_delta = f.delta + g.delta
    starts = g.starts
    ends, index = _run_ends(starts)
    last, full = f.starts[-1], len(f.starts)
    marks = bytearray(last)
    for c in f.starts[:-1]:
        marks[c] = 1
    counts = list(accumulate(marks))

    def gap_at(s: int) -> int:
        if s < 0:
            return total_delta - s
        # run ends k..n-1 lie in (s - last, s]
        n = bisect_right(ends, s)
        k = bisect_right(ends, s - last, 0, n)
        j = bisect_right(starts, s) - 1
        x = s - starts[j]
        top = j + (counts[x] if x < last else full)
        if k and index[k - 1] + full > top:
            top = index[k - 1] + full
        for j, e in zip(index[k:n], ends[k:n]):
            term = j + counts[s - e]
            if term > top:
                top = term
        return total_delta + 1 - top

    return gap_at


def _run_ends(starts: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The last start of each run of consecutive starts, as (values,
    indices), both ascending: the only starts `convolve_at` reads besides
    the last start <= s.  The indices are each end's j in j + I(s - b_j)."""
    last = len(starts) - 1
    index = (*(i for i in range(last) if starts[i + 1] != starts[i] + 1), last)
    return tuple(starts[i] for i in index), index

