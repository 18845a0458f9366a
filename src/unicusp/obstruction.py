"""Degree-genus admissibility checks for cuspidal candidates.

A candidate consists of a degree d, a genus g and one or more local
semigroups <a_i, b_i>.  Writing delta for the sum of the local deltas, the
data must satisfy (d-1)(d-2) = 2*(g + delta); on top of that identity the
candidate has to pass a grid of counting inequalities, one per pair (j, k)
with -1 <= j <= d-2 and 0 <= k <= g.

Single cusp, in terms of R(m) = elements_below(m):

    0  <=  R(j*d + 1 - 2k) + k - (j+1)(j+2)/2  <=  g.

Several cusps, in terms of the infimum convolution IC of the local
gap-counting functions:

    k - g  <=  IC(j*d + 1 - 2k) - (d-j-2)(d-j-1)/2  <=  k.

For one cusp the two normalised test values agree cell by cell, so both
checkers report the same witness on the same input.  With G the
gap-counting function (`gaps_at_least` for one cusp, IC for several)
both read

    0  <=  G(j*d + 1 - 2k) - k + c(j)  <=  g,   c(j) = g - (d-j-2)(d-j-1)/2,

which is the form the scan evaluates.

Witnesses are deterministic: the witness is the first violated cell with
j ascending from -1, then k ascending.  Rows -1 and 0 never fail (their
values are k, and 0 then k - 1), so the scan starts at row 1.

The grid is centrally symmetric: cell (j, k) and cell (d-3-j, g-k) hold
the same value, for one cusp and for several.  The scan therefore stops
after row (d-3)//2, and the multi-cusp check evaluates the convolution
of its two operands only at the arguments the scan reads.  With three or
more cusps, one operand is a `convolve` fold of all cusps but the
largest, computed whole.  None of this changes a verdict, a witness or
`checks_performed`, which still counts cells by their position in the
full d(g+1)-cell grid.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import partial, reduce
from itertools import repeat
from operator import add, attrgetter, sub
from typing import NamedTuple

from .semigroup import Semigroup, convolve


class ObstructionWitness(NamedTuple):
    """First violated grid cell: lexicographically smallest (j, k).

    A named tuple, so it compares equal to the plain tuple of its fields.
    """

    j: int
    k: int
    triangular: int  # (j+1)(j+2)/2
    lhs_value: int   # normalised so admissible means 0 <= lhs_value <= g
    side: str        # "lower" or "upper"


class Verdict(NamedTuple):
    """Outcome of a check; a named tuple, like `ObstructionWitness`."""

    admissible: bool
    witness: ObstructionWitness | None
    checks_performed: int


def check_single(a: int, b: int, genus: int, degree: int) -> Verdict:
    """Run the full (j, k) grid for a single cusp of type <a, b>."""
    s = Semigroup(a, b)
    _require_degree_genus(degree, genus, s.delta, "<{},{}>", a, b)
    return _scan(genus, degree, s.gaps_at_least, s.first_pair)


def check_multi(pairs: list[tuple[int, int]], genus: int, degree: int) -> Verdict:
    """Run the grid for a curve carrying one cusp per (a, b) in pairs.

    The witness value is normalised by adding g - k to the convolution
    form, which makes it coincide with the single-cusp value whenever
    len(pairs) == 1.

    The infimum convolution IC of two operands is never tabulated: `_scan`
    reads it at a few dozen arguments per check (22 on average over the
    stored two-cusp benchmark rows), and each is evaluated on its own from
    the operands' run starts.  With three or more cusps, all but the one
    of largest delta are first folded by `convolve`; the fold and the
    remaining cusp are the two operands.  One cusp is scanned on its own
    `Semigroup.gaps_at_least`, as `check_single` does, with no gap list.

    By the proof in `convolve`, with run starts a_0 = 0 < a_1 < ... of
    one operand and b_0 = 0 < b_1 < ... of the other,

        IC(s) = Delta - max over a_i <= s of (i + max{j : b_j <= s - a_i})

    for s >= 0, Delta the total delta, and IC(s) = Delta - s below 0.  IC
    is symmetric in its operands, so each call enumerates whichever has
    fewer run starts <= s.
    """
    if not pairs:
        raise ValueError("at least one cusp is required")
    semis = sorted((Semigroup(a, b) for a, b in pairs), key=attrgetter("delta"))
    total_delta = sum(s.delta for s in semis)
    _require_degree_genus(degree, genus, total_delta, "{}", pairs)
    *rest, last = semis
    if not rest:
        return _scan(genus, degree, last.gaps_at_least, last.first_pair)
    if len(rest) > 1:
        first = reduce(convolve, [s.gap_function() for s in rest]).gap_list
    else:
        first = rest[0].gaps
    starts_f, starts_h = ([0, *(x + 1 for x in gaps)] for gaps in (first, last.gaps))
    return _scan(genus, degree, _lazy_convolution(total_delta, starts_f, starts_h),
                 sum(s.first_pair for s in semis))


def _lazy_convolution(total_delta: int, starts_f: list[int], starts_h: list[int]):
    """IC(s) of the two gap functions with these run starts, as a function
    of s; `check_multi` gives the formula."""
    # bisect_right(starts, x) is 1 + max{j : starts[j] <= x}, for x >= 0
    reach_f = partial(bisect_right, starts_f)
    reach_h = partial(bisect_right, starts_h)

    def gap_at(s: int) -> int:
        if s < 0:
            return total_delta - s
        n = reach_f(s)
        n_h = reach_h(s)
        if n <= n_h:
            starts, reach = starts_f, reach_h
        else:
            n, starts, reach = n_h, starts_h, reach_f
        return total_delta + 1 - max(map(add, range(n),
                                         map(reach, map(sub, repeat(s, n), starts))))

    return gap_at


def _last_row(degree: int) -> int:
    """The last grid row the scan visits: (d-3)//2, half of -1..d-2."""
    return (degree - 3) // 2


def _scan(genus: int, degree: int, gap_at, pair_sum: int) -> Verdict:
    """First cell (j, k) whose value leaves [0, genus], in scan order.

    The value of cell (j, k) is G(j*d + 1 - 2k) - k + c(j) with
    G = gap_at and c(j) = g - (d-j-2)(d-j-1)/2.  For one cusp this is
    R(j*d + 1 - 2k) + k - (j+1)(j+2)/2, by R(m) = m - delta + G(m) and
    2*delta = (d-1)(d-2) - 2g; for several it is the convolution form
    plus g - k.

    Half the grid suffices.  The argument m = j*d + 1 - 2k of cell (j, k)
    and m' of its mirror (d-3-j, g-k) add up to 2*delta, because
    (d-1)(d-2) = 2(g + delta).  A semigroup <a, b> is symmetric, so
    R(m) = m - delta + R(2*delta - m), and the infimum convolution of such
    gap functions keeps the identity IC(s) = delta - s + IC(2*delta - s).
    With the triangular terms, either one gives
    value(j, k) = value(d-3-j, g-k).  So if (j, k) fails with
    j > (d-3)/2, its mirror fails too and lies in the earlier row
    d-3-j: the first violated cell in scan order is never beyond row
    (d-3)//2, and the scan stops there with the same verdict, witness
    and count as a scan of all d rows.

    Rows -1 and 0 always hold, so the scan starts at row 1.  Every
    negative integer is a gap of a semigroup and 0 is not, so its
    gap count has I(m) = delta - m for m <= 0, I(m) >= delta - m + 1 for
    m >= 1, and I(1) = delta.  The infimum convolution keeps all three,
    with delta_total: a split of s into m + (s - m) gives at least
    delta_total - s, and at least delta_total - s + 1 when s >= 1, since
    one part is then >= 1; the split 0 + s attains delta_total - s for
    s <= 0, and 0 + 1 attains delta_total at s = 1.  So G(m) = delta - m
    for m <= 0 and G(1) = delta, for one cusp and for several.  By
    2(g + delta) = (d-1)(d-2), c(-1) = g - d(d-1)/2 = -delta - (d-1) and
    c(0) = -delta.  Row -1 reads m = 1 - d - 2k <= 0, so
    value(-1, k) = k.  Row 0 reads m = 1 at k = 0, so value(0, 0) = 0,
    and m = 1 - 2k < 0 at k >= 1, so value(0, k) = k - 1.  All of these
    lie in [0, genus].

    A step k -> k + 1 moves the counting argument from m to m - 2.  For
    one cusp G(m - 2) - G(m) counts the gaps among m - 2 and m - 1 (IC
    has the same step shape), so the value changes by -1, 0 or 1, and
    falls only when m - 2 and m - 1 are both elements.  After a value v
    in [0, genus] the next min(v, genus - v) cells of the row therefore
    hold and are skipped.

    Each row also ends in a monotone tail.  Let x* be the smallest x
    with x and x + 1 both elements of <a, b> (`Semigroup.first_pair`).
    Write m >= 0 as u*b + v*a with u = m * b^-1 mod a, so m is an
    element exactly when u*b <= m; going from x to x + 1 turns u into
    u' = u + b^-1 mod a.  If u' = u + b^-1, then x + 1 needs
    (u + b^-1)*b <= x + 1, so x >= b^-1*b - 1, and x = b^-1*b - 1 itself
    works: it is a multiple of a (u = 0) since b^-1*b = 1 mod a.  If
    u' = u - (a - b^-1), then x needs x >= u*b >= (a - b^-1)*b, and
    x = (a - b^-1)*b works: its u is a - b^-1 and u' = 0.  Hence
    x* = min(b^-1*b - 1, (a - b^-1)*b).  Once m - 2 < x*, no step
    lowers the value any more.

    For several cusps pair_sum is X = sum of the x*_i, and again no
    step with s - 2 < X lowers the value, which moves by
    IC(s - 2) - IC(s) - 1 from cell k to k + 1 (s = m there): take a
    split s - 2 = sum of m_i attaining IC(s - 2).  Since the m_i add up
    to less than X, some m_i < x*_i, so m_i and m_i + 1 are not both
    elements of the i-th semigroup (negatives are gaps) and
    G_i(m_i + 2) <= G_i(m_i) - 1.  Raising that part by 2 splits s, so
    IC(s) <= IC(s - 2) - 1.  For one cusp X = x*.  Any smaller X only
    starts the tail later, which is safe.

    So every step from k0 = (j*d + 1 - X)//2 on reads m - 2 < X.  From
    the first cell the scan evaluates at or after k0, holding value v,
    the rest of the row is non-decreasing and rises by at most 1 per
    step: no cell falls below 0, the next genus - v cells stay within
    genus, and a later cell exceeds genus only if the last cell,
    k = genus, does.  Then a bisection between the last cell known to
    hold and k = genus finds the first cell above genus, since the
    cells between are non-decreasing.  Every earlier cell of the row was
    checked or skipped by the steps above, so that cell is the first
    violated one in scan order, the one a cell-by-cell scan reports.

    `checks_performed` counts every cell up to the witness by its
    position in the full grid, and all d(g+1) cells when none fails.
    """
    for j in range(1, _last_row(degree) + 1):
        base = j * degree + 1
        c = genus - (degree - j - 2) * (degree - j - 1) // 2
        tail = (base - pair_sum) // 2
        k = 0
        while k <= genus:
            value = gap_at(base - 2 * k) - k + c
            if not 0 <= value <= genus:
                return _rejected(j, k, value, genus)
            if k >= tail:
                # cells up to k + genus - value hold; bisect (lo, hi]
                lo, hi = k + genus - value, genus
                if lo >= hi:
                    break
                last = gap_at(base - 2 * hi) - hi + c
                if last <= genus:
                    break
                while hi - lo > 1:
                    mid = (lo + hi) // 2
                    value = gap_at(base - 2 * mid) - mid + c
                    if value > genus:
                        hi, last = mid, value
                    else:
                        lo = mid
                return _rejected(j, hi, last, genus)
            # min(value, genus - value) + 1, without the call
            k += (value if 2 * value < genus else genus - value) + 1
    return Verdict(True, None, degree * (genus + 1))


def _rejected(j: int, k: int, value: int, genus: int) -> Verdict:
    side = "lower" if value < 0 else "upper"
    witness = ObstructionWitness(j, k, (j + 1) * (j + 2) // 2, value, side)
    return Verdict(False, witness, (j + 1) * (genus + 1) + k + 1)


def triangle_lower(s: Semigroup, degree: int, j: int) -> bool:
    """k = 0 specialisation: the (j+1)(j+2)/2-th element must be <= j*d.

    Vacuous (True) for j <= 0 since the first element is 0.
    """
    if not 0 <= j <= degree - 2:
        raise ValueError(f"j must lie in [0, degree-2], got j={j}, degree={degree}")
    tri = (j + 1) * (j + 2) // 2
    return s.nth_element(tri) <= j * degree


def triangle_upper(s: Semigroup, degree: int, genus: int, j: int) -> bool:
    """k = g specialisation: the next element must exceed j*d - 2g."""
    if not 0 <= j <= degree - 2:
        raise ValueError(f"j must lie in [0, degree-2], got j={j}, degree={degree}")
    if genus < 0:
        raise ValueError(f"genus must be >= 0, got {genus}")
    tri = (j + 1) * (j + 2) // 2
    return s.nth_element(tri + 1) > j * degree - 2 * genus


def _require_degree_genus(degree: int, genus: int, delta: int, label: str, *fields) -> None:
    """Raise ValueError unless the degree and genus fit the total delta;
    the mismatch text names the cusps by label.format(*fields), which is
    built only then."""
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    if genus < 0:
        raise ValueError(f"genus must be >= 0, got {genus}")
    if (degree - 1) * (degree - 2) != 2 * (genus + delta):
        raise ValueError(
            f"degree-genus mismatch for {label.format(*fields)}: (d-1)(d-2) = "
            f"{(degree - 1) * (degree - 2)} but 2*(g + delta) = {2 * (genus + delta)}"
        )

