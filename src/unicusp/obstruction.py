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
of its two operands only at the arguments the scan reads, through
`semigroup.convolve_at`.  With three or more cusps, one operand is a
`convolve` fold of all cusps but the largest, computed whole.  A lone
cusp takes `check_single`, through either checker.

Along a row a cell moves by at most 1 from the one before, so after a
cell holding v the next min(v, g - v) cells hold and are skipped, and
each row ends in a non-decreasing tail.  For one cusp, the pair-class
rule lengthens the lower side: the value falls only at a pair start
(an x with x and x + 1 both elements), the row's pair starts lie in
P = `Semigroup.pair_classes` residue classes mod a, and the row meets
one class only once every per = a / gcd(a, 2) cells.  So the next
(v // P) * per cells fall at most P * (v // P) <= v times and stay
>= 0.  `_scan` proves all three rules.

Three certificates let the check read no row of a single cusp.  With
b <= d a curve of degree d and genus g with that cusp exists, and the
paper's theorem, which is this grid, holds on it, so every cell lies in
[0, g].  Two families with b > d are proved whole as well, <a, 4a-1> at
degree 2a (genus 0) and <3n, 21n+1> at degree 8n (genus
(n-1)(n-2)/2): counting the elements below each cell's argument in
closed form puts every cell of the half grid in [0, g].

For one cusp with b > d >= 5 the first-row rule decides many
rejections without reading a cell: every element up to d is then a
multiple of a, so cell (1, 0) holds d // a - 2, and when that value lies
outside [0, g] the cell is the witness.  `check_single` proves the three
certificates and the rule, and applies them before it builds a
`Semigroup`; `_scan` only scans.
None of this changes a verdict, a witness or `checks_performed`, which
still counts cells by their position in the full d(g+1)-cell grid.
"""

from __future__ import annotations

from functools import reduce
from math import gcd, isqrt
from operator import attrgetter
from typing import NamedTuple

from .semigroup import Semigroup, _require_degree_genus, check_generators, convolve, convolve_at


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
    """Decide the (j, k) grid for a single cusp of type <a, b>.

    Three certificates return the full-grid verdict, and the first-row
    rule decides some rejections at cell (1, 0), before any `Semigroup`
    is built; every other input gets `_scan`.  All four rest on the
    degree-genus identity (d-1)(d-2) = 2(g + delta), which is checked
    first.  Then R(x) counts the elements of <a, b> below x, every
    element is u*b + v*a for exactly one pair with 0 <= u < a and v >= 0
    (the `Semigroup` docstring), and cell (j, k) holds
    R(j*d + 1 - 2k) + k - T_j with T_j = (j+1)(j+2)/2.

    b <= d: the curve exists.  Every cell of a single cusp <a, b> with
    b <= d lies in [0, g], because a curve of degree d and genus g with
    that cusp exists.

    1. For coprime 1 < a < b <= d, let F = y^a z^(d-a) - x^b z^(d-b)
       plus a general combination of the monomials x^i y^l z^(d-i-l),
       i + l <= d, with a*i + b*l > a*b.  As b <= d, both fixed terms are
       monomials of degree d.  In the chart z = 1, F is
       semi-quasi-homogeneous for the weights (a, b) of (x, y), with
       principal part y^a - x^b, an isolated singularity; so F's germ at
       [0:0:1] is topologically that of y^a - x^b, which has one branch
       as gcd(a, b) = 1.  So [0:0:1] is a cusp with semigroup <a, b>
       and local delta (a-1)(b-1)/2.
    2. The system's only base point is [0:0:1].  As b*d > a*b, y^d lies
       in it, so a base point has y = 0.  There the fixed part is
       -x^b z^(d-b), and when d > b, x^d also lies in the system; so a
       base point has x = 0 as well.
    3. By Bertini's theorem the general F is smooth everywhere else.  A
       multiple component would make F singular along a curve, and two
       components would meet (Bezout) at a singular point of F, which
       can only be [0:0:1]; a point with one branch lies on one
       component only.  So F is irreducible, with genus
       (d-1)(d-2)/2 - delta = g by the identity.
    4. The paper's theorem, which is the grid `_scan` evaluates, holds
       on every cuspidal curve, so every cell of F's grid lies in [0, g].
       For a = 1 (a smooth point) R(x) = max(x, 0) and 2g = (d-1)(d-2)
       bound each cell directly.  A row of the half grid has
       1 <= j <= (d-3)/2 <= d - j - 3, so j*d + 2 - 2*T_j = j(d-j-3) >= 1
       and j*d + 1 - T_j = g - (d-j-1)(d-j-2)/2.  If 2k <= j*d + 1 the
       cell holds j*d + 1 - k - T_j, between (j(d-j-3) - 1)/2 >= 0 and
       j*d + 1 - T_j <= g; otherwise it holds k - T_j, between
       j(d-j-3)/2 >= 0 and g - T_j.

    The tests hold this certificate to `_scan` on every valid input
    with b < 50 and b <= d < b + 30
    (`test_measured_pattern_cusps_with_b_at_most_d_are_admissible`), to
    the oracle's element table on every cell of every valid b <= d
    input with d < 30 (`test_family_certificates_hold_on_every_cell`),
    and to the oracle's full grid at production scale
    (`_production_sample`).

    <a, 4a-1> at d = 2a, g = 0 (the identity then gives a = d/2).  Rows
    -1 and 0 hold, as the `_scan` docstring shows.  Row j,
    1 <= j <= a - 2, is the one cell k = 0, value R(2aj + 1) - T_j.  For
    u < a, u*(4a-1) <= 2aj reads 2a*(2u - j) <= u, which holds iff
    2u <= j; so the elements below 2aj + 1 have u <= U = floor(j/2), and
    U < a.  The u-th term counts floor((2aj - u*(4a-1))/a) + 1 =
    2j - 4u + 1 of them (u < a), so
    R(2aj + 1) = sum_{u=0..U} (2j + 1 - 4u) = (U+1)(2j + 1 - 2U), which
    is T_j for j = 2U and for j = 2U + 1.  Every cell holds 0.

    <3n, 21n+1> at d = 8n, g = (n-1)(n-2)/2.  b = 7a + 1 and 3d = 8a
    give a = 3n and d = 8n with n >= 1, and the identity then gives
    2g = (8n-1)(8n-2) - 7a(a-1) = (n-1)(n-2).  Rows -1 and 0 hold and
    the mirror covers the rest, so take 1 <= j <= (d-3)//2 = 4n - 2.
    As u*b + v*a = (7u + v)*a + u, x = q*a + r (0 <= r < a) is an
    element iff q >= 7r: block q holds the run q*a, ..., q*a + q//7 and
    then gaps, while q < 7a.  So for m >= 1, with m - 1 = Q*a + rho
    (0 <= rho < a), s = Q // 7 and t = Q % 7,
    R(m) = F(Q) + min(s, rho) + 1 when Q < 7a, where
    F(Q) = sum_{q<Q} (q//7 + 1) counts the blocks below Q and
    14F(Q) = Q^2 + 7Q + t(7-t).  On the half grid
    m - 1 <= 8n(4n-2) < 11n*a, so Q < 11n < 7a; and R(m) = 0 for m <= 0.

    Cell (j, k) holds phi(m) - L_j, with m = M - 2k, M = 8nj + 1,
    phi(m) = R(m) - m/2 and L_j = T_j - M/2.  Across block Q, phi rises
    by 1/2 per step from mu(Q) + 1/2 at rho = 0, where
    mu(Q) = F(Q) - Q*a/2 = phi(Q*a), to nu(Q) = mu(Q) + (s+1)/2 at
    rho = s, then falls by 1/2 per step to mu(Q + 1) at rho = a - 1.
    For m <= 0, phi(m) = -m/2 >= 0 = mu(0).  Cell values are integers.

    Lower side.  A falling stretch of phi ends at M or at some Q*a, so
    phi(m) >= min(phi(M), mu(Q) for 0 <= Q <= Q_M) for every m <= M,
    with Q_M = 8j // 3 the block of M.  So row j holds if cell (j, 0)
    does and every mu(Q) - L_j > -1, that is (2F(Q) is an integer)
    2F(Q) + n(8j - 3Q) >= j^2 + 3j for 3Q <= 8j.  For fixed Q the
    difference is concave in j, so it is least at j = 4n - 2 or at
    j = ceil(3Q/8).
    (a) j = 4n - 2: the difference is 2F(Q) - 3nQ + (4n-2)(4n-1),
        14F(Q) >= Q^2 + 7Q gives 2F(Q) - 3nQ >= -7(3n-1)^2/4, and
        4(4n-2)(4n-1) - 7(3n-1)^2 = n^2 - 6n + 1 > 0 for n >= 6.
    (b) j = ceil(3Q/8), e = 8j - 3Q in [0, 7]: 63 times the difference
        is D = (j - 8e)^2 + 63e(n - e) - 21(j + e) + 9t(7-t).  At e = 0,
        j = 3i and t = i % 7, and with i = 7u + t,
        D = 63u(7u + 2t - 7) >= 0.  At e >= 1,
        (j - 8e)^2 - 21j >= -168e - 441/4, so
        D >= 63e(n - e - 3) - 441/4 > 0 for n >= 11.
    (c) Cell (j, 0): M - 1 = Q_M*a + rho with rho = n*(8j % 3).  If
        rho <= s, it holds mu(Q_M) - L_j + (rho + 1)/2 > -1/2, so >= 0.
        Otherwise it holds F(Q_M + 1) - T_j, Q_M + 1 >= (8j + 1)/3, and
        14(F(Q_M + 1) - T_j) >= (j^2 - 5j - 104)/9 >= 0 for j >= 13;
        at j = 1, 2, 4, 5, 7, 8, 10, 11 it reads 0, 0, 0, 0, 0, 1, 0, 2.

    Upper side.  Cells with m <= 0 hold k - T_j <= g - 3.  A cell with
    m >= 1 in block Q holds at most nu(Q) - L_j, which is below g + 1
    when U(Q): 2F(Q) + s + n(8j - 3Q) - j^2 - 3j <= 2g + 1.  nu is
    convex in Q: 2nu(Q) = 2F(Q) + s + 1 - 3nQ has the non-decreasing
    steps 2s + 2 + [7 divides Q + 1] - 3n.  So over the blocks
    Q_lo..Q_M that a row meets, nu is greatest at an end, and it
    suffices to bound blocks Q_M, Q_lo and Q_lo + 1.
    (d) Block Q_M, e = 8j - 3Q_M in {0, 1, 2}: 63 times U's left side is
        D + 63s, with D <= j^2 - 21j + 126n + 112 and 63s <= 9Q_M <= 24j.
        As j <= 4n - 2 this is at most 16n^2 + 122n + 110, which is
        <= 63(2g + 1) = 63(n^2 - 3n + 3) for n >= 7.
    (e) m_lo = M - 2g <= 0: the lowest block is 0, and U(0) reads
        8nj - j^2 - 3j <= 2g + 1, true as 8nj < 2g.
    (f) m_lo >= 1, m_lo - 1 = Q_lo*a + rho_lo, so
        n(8j - 3Q_lo) = 2g + rho_lo; let Q' = Q_lo + 1 and s' = Q' // 7.
        U(Q') reads 2F(Q') + s' + rho_lo - a <= j^2 + 3j + 1.  Block
        Q_lo meets the row at rho >= rho_lo: when rho_lo <= s_lo, U(Q_lo)
        reads 2F(Q_lo) + s_lo + rho_lo <= j^2 + 3j + 1, and
        2F(Q_lo) + 2s_lo = 2F(Q') - 2; otherwise phi falls from m_lo on,
        and cell (j, g) holds F(Q') + g - T_j.  All three follow from
        2F(Q') + s' <= 2T_j.  As 2g >= n^2 - 3n,
        Q' <= (8j - n + 6)/3, and 14F(Q') + 7s' <= (Q' + 2)(Q' + 6), so
        it suffices that (8j - n + 12)(8j - n + 24) <= 63(j+1)(j+2).  The
        left side falls as n grows (Q' >= 1 keeps 8j - n + 12 > 0), and
        n >= 12 and n >= (j+2)/4.  At n = 12 the right side exceeds it by
        -j^2 + 93j + 126 > 0, for j <= 46; at n = (j+2)/4, 16 times the
        excess is 47j^2 - 1316j - 2308 > 0, for j >= 46.

    So every cell of every member with n >= 12 lies in [0, g].  The
    members with n <= 11 (d <= 88) rest on
    `test_family_certificates_hold_on_every_cell`, which reads every
    cell of every member with d < 160 off the oracle's element table.

    The first-row rule decides a cusp with b > d at cell (1, 0), when
    that cell fails, with no gap count.  Row 1 lies in the half grid
    exactly when (d-3)//2 >= 1, that is d >= 5, and its first cell reads
    R(d + 1), the number of elements u*b + v*a <= d.  As b > d, only
    u = 0 contributes: the elements are the multiples 0, a, ...,
    (d // a)*a, so R(d + 1) = d // a + 1 and
    value(1, 0) = d // a + 1 - T_1 = d // a - 2.  Rows -1 and 0 always
    hold, so when this value lies outside [0, g], cell (1, 0) is the
    first violated cell in scan order and `_rejected(1, 0, value, g)`
    gives the witness and count of a scan.  Otherwise `_scan` reads row
    1.  The tests hold the rule to `_scan` on every single cusp with
    g < 60 and d < 90 (`test_first_row_rule_matches_the_scan`), and to
    the oracle's full grid on ten rejections at g = 1000 or with d in
    1000-2000 (`test_first_row_rejections_match_the_table_oracle`).

    The two family certificates are checked on every cell of every
    member with d < 160 against the oracle's element table (the same
    test), against `_scan` for every member up to d = 2000
    (`test_family_certificates_match_the_scan`), and at production
    scale by `_production_sample`'s members: two of <a, 4a-1> and
    <375, 2626> at d = 1000.  Their neighbours are still scanned
    (`test_family_neighbours_are_scanned`): <a, 4a-1> at d = 2a + 1 and
    2a + 2, <3n, 21n+1> at d = 8n - 1, 8n + 1 and 8n + 2, and
    <a, 7a+1> with 3 not dividing a at every valid d < 4a.

    No certificate or rule hides a violated cell, so the witness and
    `checks_performed` stay those of a scan of every row.
    """
    check_generators(a, b)
    _require_degree_genus(degree, genus, (a - 1) * (b - 1) // 2, "<{},{}>", a, b)
    if (b <= degree or (genus == 0 and b == 2 * degree - 1)
            or (b == 7 * a + 1 and 3 * degree == 8 * a)):
        return Verdict(True, None, degree * (genus + 1))
    if degree >= 5:  # and b > degree
        value = degree // a - 2
        if not 0 <= value <= genus:
            return _rejected(1, 0, value, genus)
    s = Semigroup(a, b)
    return _scan(genus, degree, s.gaps_at_least, s.first_pair, s)


def check_multi(pairs: list[tuple[int, int]], genus: int, degree: int) -> Verdict:
    """Run the grid for a curve carrying one cusp per (a, b) in pairs.

    The witness value is normalised by adding g - k to the convolution
    form, which makes it coincide with the single-cusp value whenever
    len(pairs) == 1.

    The infimum convolution IC of two operands is never tabulated: `_scan`
    reads it at a few dozen arguments per check (22 on average over the
    stored two-cusp benchmark rows), and `convolve_at` evaluates each on
    its own, reading the run ends of the operand of larger delta against
    a count table of the other, built whole and at most twice its delta
    in length.  With three or more cusps, all but the one of largest
    delta are first folded by `convolve`; the fold and the remaining cusp
    are the two operands.  A lone cusp takes `check_single`, certificates
    and all.
    """
    if not pairs:
        raise ValueError("at least one cusp is required")
    for a, b in pairs:
        check_generators(a, b)
    delta = sum((a - 1) * (b - 1) // 2 for a, b in pairs)
    _require_degree_genus(degree, genus, delta, "{}", pairs)
    if len(pairs) == 1:
        return check_single(*pairs[0], genus, degree)
    *rest, last = sorted((Semigroup(a, b) for a, b in pairs), key=attrgetter("delta"))
    first = reduce(convolve, [s.gap_function() for s in rest])
    return _scan(genus, degree, convolve_at(first, last.gap_function()),
                 last.first_pair + sum(s.first_pair for s in rest))


def _scan(genus: int, degree: int, gap_at, pair_sum: int,
          cusp: Semigroup | None = None) -> Verdict:
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

    For one cusp, passed as `cusp` (with pair_sum = its first_pair), the
    lower side goes further, by counting the residue classes in which
    the value can fall.  Call x a pair start when x and x + 1 are both
    elements of <a, b>.  With u = x * b^-1 mod a, x is an element iff
    u*b <= x, and x + 1 has class u' = u + b^-1 mod a, so x is a pair
    start iff x >= h(u) = max(u*b, u'*b - 1); both terms are congruent
    to u*b mod a.  The classes holding a pair start <= M therefore
    number P(M) = #{u < a : u*b <= M and u'*b <= M + 1}, which is
    `Semigroup.pair_classes(M)`: the overlap of [0, t1) with the cyclic
    interval [-b^-1, -b^-1 + t2) mod a, t1 = min(a, M//b + 1) and
    t2 = min(a, (M+1)//b + 1), and 0 for M < 0.  The next s steps from
    argument m fall only at the pair starts among m - 2, m - 4, ...,
    m - 2s.  Two of these share a class mod a only when their steps
    differ by a multiple of per = a / gcd(a, 2), so each of the at most
    P(m - 2) classes is met at most ceil(s / per) times, and the value
    falls at most P(m - 2) * ceil(s / per) times.  P is monotone in M
    and m only decreases along a row, so P(j*d - 1), read at the row's
    first cell, bounds every later one.  After a value v the lower
    side thus holds for the next max(v, (v // P) * per) cells when
    P >= 1; the upper side keeps genus - v.  P = 0 means the whole row
    lies in the monotone tail set out next.  The rule gains only
    when P <= v and P < per, so the row's P is computed at most once,
    when the lower side binds, min(v, genus - v) would not end the row,
    and the P of an earlier row, a lower bound, leaves both possible.

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
    # per = a / gcd(a, 2), and 0 (no rule) for several cusps.  `classes`
    # is the row's P once `exact`, and until then the P of an earlier row,
    # a lower bound; P >= 1 in every cell before the tail.
    per = 0 if cusp is None else cusp.a // gcd(cusp.a, 2)
    classes = 1
    for j in range(1, (degree - 3) // 2 + 1):
        base = j * degree + 1
        c = genus - (degree - j - 2) * (degree - j - 1) // 2
        tail = (base - pair_sum) // 2
        exact = False
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
            skip = genus - value
            if value < skip:
                # (v // P) * per > v needs P <= v and P < per
                if classes <= value and classes < per and k + value < genus:
                    if not exact:
                        classes, exact = cusp.pair_classes(base - 2), True
                    fall = value // classes * per
                    if fall < skip:
                        skip = fall if fall > value else value
                else:
                    skip = value
            k += skip + 1
    return Verdict(True, None, degree * (genus + 1))


def _rejected(j: int, k: int, value: int, genus: int) -> Verdict:
    side = "lower" if value < 0 else "upper"
    witness = ObstructionWitness(j, k, (j + 1) * (j + 2) // 2, value, side)
    return Verdict(False, witness, (j + 1) * (genus + 1) + k + 1)


def degree_for_products(product_sum: int, genus: int) -> int | None:
    """Degree d with (d - 1)(d - 2) = product_sum + 2*genus, or None: the
    degree-genus identity `_require_degree_genus` checks, solved for d.

    product_sum is the sum of (a - 1)(b - 1) over the cusps.  The
    discriminant 4*product_sum + 8*genus + 1 is odd, so when it is a
    perfect square its root is odd and d = (root + 3) / 2 solves the
    equation exactly.
    """
    disc = 4 * product_sum + 8 * genus + 1
    root = isqrt(disc)
    if root * root != disc:
        return None
    return (root + 3) // 2

