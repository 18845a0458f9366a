"""Classification sweep: enumerate candidate pairs by degree, decide
admissibility, and locate candidates among the Fibonacci sector walls.

For a fixed genus g, a degree d carries the pairs (a, b) with a < b
coprime and (a - 1)(b - 1) = (d - 1)(d - 2) - 2g.  `enumerate_candidates`
walks every degree up to a bound, attaches the admissibility verdict to
each pair, and splits the outcome into pairs on the line a + b = 3d
versus exceptions, tagging exceptions that belong to one of the known
syntactic families.  Each degree's verdicts and tags are made once, in
`_candidates_at_degree`, and kept in its memo.

The families live in one table, `_FAMILIES`: each row is a tag and the
member (g, a, b, d) at parameter t, for `(l,9l+1)`, `(p,p+3)`, `(p,2p-1)`
and `(3n,21n+1)`, in the order tags print.  `_tags_for` and
`exceptional_family` both read it, with one difference of range: a tag
is a formula match at whatever parameter a determines, so (3, 22, 8) and
(6, 43, 16) carry `(3n,21n+1)` at n = 1, 2, while `exceptional_family`
keeps the paper's ranges and refuses kind 3 at n <= 2.

The slope plane b/a > 1 is cut by the sector walls (F_{2l+1}/F_{2l-1})^2,
l = 2, 3, ..., which climb from 25/4 toward phi^4.  `walk_sectors` is the
one place the walls and the puncture pairs (F_{2l-1}, F_{2l+3}) are
computed: a single walk over the odd-index Fibonacci numbers, stepped by
F_{k+2} = 3 F_k - F_{k-2}.  `sector_of` places a pair exactly along that
walk (integer arithmetic only), `sector_bounds` gives the per-sector
search box for a genus, and `mediant_bound` / `asymptote_slopes` supply
the Farey and quadratic-growth data used to reason about where families
can live.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, compress
from math import gcd, isqrt
from operator import attrgetter, itemgetter

# pair_to_element is unused here, but the benchmark tracer rebinds this name
from .families import Candidate, fibonacci, pair_to_element  # noqa: F401
from .obstruction import check_single
from .quadring import factorize


@dataclass(frozen=True)
class Sector:
    """Open slope interval between consecutive sector walls, with puncture."""

    l: int
    low: Fraction
    high: Fraction
    puncture: tuple[int, int]  # the wall pair (F_{2l-1}, F_{2l+3}) beneath the sector


@dataclass(frozen=True)
class SlopePair:
    """Pair of asymptotic slopes r - c*sqrt(D) and r + c*sqrt(D).

    `vertical` marks the degenerate case of a single finite slope paired
    with a vertical direction (p = 0, where only q^2 survives).
    """

    rational_part: Fraction
    surd_coeff: Fraction
    radicand: int
    vertical: bool = False

    def approx(self) -> tuple[float, float]:
        if self.vertical:
            return (float(self.rational_part), float("inf"))
        root = self.radicand ** 0.5
        lo = float(self.rational_part) - float(self.surd_coeff) * root
        hi = float(self.rational_part) + float(self.surd_coeff) * root
        return (lo, hi)


# The named exception families, one row each: the tag, its step, and the
# member (g, a, b, d) at parameter t.  Every row has a = step * t, the step
# being the member's a at t = 1, so a determines t = a // step; when the
# step does not divide a, the member at that t has another a.  Row k is
# `exceptional_family` kind k, and tags print in row order.
_FAMILIES = tuple((tag, member(1)[1], member) for tag, member in (
    ("(l,9l+1)", lambda t: (1, t, 9 * t + 1, 3 * t)),
    ("(p,p+3)", lambda t: (t + 2, t, t + 3, t + 3)),
    ("(p,2p-1)", lambda t: ((t - 1) * (t - 2), t, 2 * t - 1, 2 * t - 1)),
    ("(3n,21n+1)", lambda t: ((t - 1) * (t - 2) // 2, 3 * t, 21 * t + 1, 8 * t)),
))


def _tags_for(c: Candidate) -> tuple[str, ...]:
    """The tag of every family whose member at the parameter that a
    determines is c: a formula match, whatever the kind's range."""
    g, a, b, d, _ = c
    return tuple(tag for tag, step, member in _FAMILIES if member(a // step) == (g, a, b, d))


@dataclass(frozen=True)
class EnumerationReport:
    """Full outcome of an enumeration sweep at one genus."""

    g: int
    d_max: int
    allow_smooth: bool
    candidates: tuple[Candidate, ...]
    admissible: tuple[Candidate, ...]
    on_3d_line: tuple[Candidate, ...]
    exceptions: tuple[tuple[Candidate, tuple[str, ...]], ...]

    @property
    def untagged(self) -> tuple[Candidate, ...]:
        return tuple(c for c, tags in self.exceptions if not tags)

    @property
    def largest_exceptional_degree(self) -> int | None:
        degrees = [c.d for c, _ in self.exceptions]
        return max(degrees) if degrees else None


def degree_for(a: int, b: int, genus: int) -> int | None:
    """Degree pairing (a, b) with the genus, or None if none exists."""
    return degree_for_products((a - 1) * (b - 1), genus)


def degree_for_products(product_sum: int, genus: int) -> int | None:
    """Degree d with (d - 1)(d - 2) = product_sum + 2*genus, or None.

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


def _divisor_pairs(m: int) -> list[tuple[int, int]]:
    """Factorizations m = u * v with u <= v, ascending in u.

    Plain trial division up to sqrt(m), on purpose: a divisor list built
    from `quadring.factorize` (the products of its prime powers, sorted)
    was about 3x slower over the 34,350 searches of the seed-0 `sweep`
    pool (270-350 ms against 80-120 ms a pass, 14 passes each, 2-vCPU
    x86-64, Python 3.11.7).
    """
    return [(u, m // u) for u in range(1, isqrt(m) + 1) if m % u == 0]


# Entries `_candidates_at_degree` keeps, sized from measured traffic.
# Each (genus, d, allow_smooth) key holds one degree's candidates with
# their verdicts and its exceptions with their tags.  The 750 `enumerate`
# ops of the seed-0 `sweep` benchmark pool, run in one process, ask 1,920
# distinct keys (g 0..29, d <= 64) and made 151,138 `check_single` calls
# on 8,026 distinct candidates (94.7% repeats); one `enumerate` at the
# `--dmax` ceiling asks 2000 keys.  2048 entries hold either whole.
# Filled by the windows (0, 2000) and (1, 48) they keep 6.8 MB alive, and
# 5.3 MB by (1, 2000) and (2, 48) (tracemalloc).
CANDIDATE_MEMO_SIZE = 2048


@lru_cache(maxsize=CANDIDATE_MEMO_SIZE)
def _candidates_at_degree(
    genus: int, d: int, allow_smooth: bool
) -> tuple[tuple[Candidate, ...], tuple[tuple[Candidate, tuple[str, ...]], ...]]:
    """The slice of degree d: its candidates, each with its verdict, and
    its exceptions (admissible and off the 3d line), each paired with its
    tags, both in ascending a: `_divisor_pairs` ascends in u = a - 1, and
    b follows from a.

    Every pair kept has a < b and gcd(a, b) = 1, (a - 1)(b - 1) =
    (d - 1)(d - 2) - 2g holds by the choice of u and v, and d >= 1 and
    g >= 0: all that `Candidate` validates, so `Candidate._make` builds
    the candidates without a second check.

    Memoised: the answer depends on (genus, d, allow_smooth) alone, each
    `Candidate` is an immutable named tuple, its verdict comes from the
    pure `check_single` and its tags from the pure `_tags_for`, so a
    repeated key returns the same tuple.  A miss looks `check_single` up
    in this module's globals at call time, where the benchmark tracer
    rebinds it.
    """
    m = (d - 1) * (d - 2) - 2 * genus
    if m < 0:
        return ((), ())
    found = []
    if m == 0:
        if allow_smooth:
            found.append((1, 3 * d - 1))
    else:
        for u, v in _divisor_pairs(m):
            a, b = u + 1, v + 1
            if a < b and gcd(a, b) == 1:
                found.append((a, b))
    candidates = tuple([Candidate._make((genus, a, b, d, check_single(a, b, genus, d).admissible))
                        for a, b in found])
    return candidates, tuple([(c, _tags_for(c)) for c in candidates
                              if c.admissible and not c.on_3d_line])


def enumerate_candidates(
    genus: int, d_max: int, allow_smooth: bool = False, jobs: int = 1
) -> EnumerationReport:
    """Sweep every degree in [1, d_max] at the given genus.

    Smooth models (a, b) = (1, 3d - 1) occur exactly when
    (d - 1)(d - 2) = 2*genus and are included only when `allow_smooth` is
    set.  `jobs` must be >= 1 and changes neither the work nor the
    report: the sweep is pure Python and runs serially.

    Each degree's candidates and tagged exceptions come from
    `_candidates_at_degree`, an `lru_cache` memo keyed by (genus, d,
    allow_smooth) and bounded at `CANDIDATE_MEMO_SIZE` entries, so a later
    call that overlaps an earlier window repeats no divisor search, no
    `check_single` and no tagging.  The memo holds the slices it
    returned, 6.8 MB when full of genus-0 degrees, and
    `_candidates_at_degree.cache_clear()` frees them.  Within one call
    every degree is a new key, so a single call does the same work with
    or without the memo.
    """
    if genus < 0:
        raise ValueError(f"genus must be >= 0, got {genus}")
    if d_max < 1:
        raise ValueError(f"d_max must be >= 1, got {d_max}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    # degrees ascend and each degree's lists ascend in a: Candidate.key
    # order.  The C-level iterators read field 4, admissible, by index.
    slices = [_candidates_at_degree(genus, d, allow_smooth) for d in range(1, d_max + 1)]
    candidates = tuple(chain.from_iterable(map(itemgetter(0), slices)))
    admissible = tuple(compress(candidates, map(itemgetter(4), candidates)))
    on_line = tuple(filter(attrgetter("on_3d_line"), admissible))
    exceptions = tuple(chain.from_iterable(map(itemgetter(1), slices)))
    return EnumerationReport(
        g=genus,
        d_max=d_max,
        allow_smooth=allow_smooth,
        candidates=candidates,
        admissible=admissible,
        on_3d_line=on_line,
        exceptions=exceptions,
    )


def exceptional_family(kind: int, param: int) -> Candidate:
    """Member at `param` of one of the three infinite exception families,
    built from row `kind` of `_FAMILIES`, with its verdict.

    kind 1: `(p,p+3)`, for p >= 2 with 3 not | p
    kind 2: `(p,2p-1)`, for p >= 2
    kind 3: `(3n,21n+1)`, for n > 2
    """
    if kind == 1:
        if param < 2 or param % 3 == 0:
            raise ValueError(f"kind 1 needs p >= 2 with p not divisible by 3, got {param}")
    elif kind == 2:
        if param < 2:
            raise ValueError(f"kind 2 needs p >= 2, got {param}")
    elif kind == 3:
        if param <= 2:
            raise ValueError(f"kind 3 needs n > 2, got {param}")
    else:
        raise ValueError(f"kind must be 1, 2 or 3, got {kind}")
    g, a, b, d = _FAMILIES[kind][2](param)
    return Candidate(g, a, b, d, admissible=check_single(a, b, g, d).admissible)


def walk_sectors() -> Iterator[Sector]:
    """Sectors l = 2, 3, ... in order, without end.

    Sector l lies between the walls (F_{2l+1} / F_{2l-1})^2 and
    (F_{2l+3} / F_{2l+1})^2, with puncture (F_{2l-1}, F_{2l+3}).  The walk
    starts from F_3, F_5, F_7 = 2, 5, 13 and steps the odd-index Fibonacci
    numbers by F_{k+2} = 3 F_k - F_{k-2}, so each wall is built once and
    serves as the high wall of one sector and the low wall of the next.

    Each puncture slope lies strictly inside its own walls.  With
    p, q, r = F_{2l-1}, F_{2l+1}, F_{2l+3}, the identity
    F_k^2 - F_{k-2} F_{k+2} = (-1)^k at k = 2l + 1 gives q^2 = pr - 1, so
    q^2/p^2 < r/p < r^2/q^2 (both inequalities read q^2 < pr).
    """
    f_lo, f_mid, f_hi = 2, 5, 13
    low = Fraction(f_mid * f_mid, f_lo * f_lo)
    l = 2
    while True:
        high = Fraction(f_hi * f_hi, f_mid * f_mid)
        yield Sector(l=l, low=low, high=high, puncture=(f_lo, f_hi))
        f_lo, f_mid, f_hi = f_mid, f_hi, 3 * f_hi - f_mid
        low = high
        l += 1


def sector_of(a: int, b: int) -> Sector | None:
    """Locate the slope b/a strictly between two consecutive walls.

    The walls (F_{2l+1} / F_{2l-1})^2 climb toward phi^4 from below, so a
    slope at or above phi^4 lives in no sector (the test is exact: b/a is
    below phi^4 iff 2b - 7a < 0 or (2b - 7a)^2 < 45 a^2), nor does one at
    or below the first wall 25/4, nor one sitting exactly on any wall.
    Any other slope lies below some wall, so the walk stops.
    """
    if a < 1 or b <= a:
        raise ValueError(f"need 1 <= a < b, got ({a}, {b})")
    t = 2 * b - 7 * a
    below_phi4 = t < 0 or t * t < 45 * a * a
    if not below_phi4:
        return None
    if 4 * b <= 25 * a:
        return None
    slope = Fraction(b, a)
    # slope > 25/4, the first low wall, and every later low wall is the
    # high wall the slope has just passed, so only the high wall can equal it
    for sector in walk_sectors():
        if slope == sector.high:
            return None
        if slope < sector.high:
            return sector


def sector_bounds(genus: int, l: int) -> tuple[int, int]:
    """Search box (a_max, b_max) for genus-g candidates inside sector l."""
    if genus < 1:
        raise ValueError(f"genus must be >= 1, got {genus}")
    if l < 2:
        raise ValueError(f"l must be >= 2, got {l}")
    f_lo, f_mid = fibonacci(2 * l - 1), fibonacci(2 * l + 1)
    a_max = 2 * (2 * genus - 1) * f_mid + 2
    b_num = 2 * (2 * genus - 1) * f_mid * f_mid
    b_max = -(-b_num // f_lo) + 2  # ceiling division
    return (a_max, b_max)


def mediant_bound(m1: int, n1: int, m2: int, n2: int) -> tuple[Fraction, Fraction]:
    """Smallest (b, a) reachable strictly between slopes m1/n1 < m2/n2.

    Both fractions must be in lowest terms with 0 < m1/n1 < m2/n2.  Any
    pair (a, b) with m1/n1 < b/a < m2/n2 satisfies b >= (m1 + m2)/P and
    a >= (n1 + n2)/P where P = m2*n1 - m1*n2; the mediant attains both
    when P = 1.
    """
    if n1 < 1 or n2 < 1 or m1 < 1 or m2 < 1:
        raise ValueError("all of m1, n1, m2, n2 must be positive")
    if gcd(m1, n1) != 1 or gcd(m2, n2) != 1:
        raise ValueError("slope fractions must be in lowest terms")
    p = m2 * n1 - m1 * n2
    if p <= 0:
        raise ValueError(f"need m1/n1 < m2/n2, got {m1}/{n1} and {m2}/{n2}")
    return (Fraction(m1 + m2, p), Fraction(n1 + n2, p))


def _square_free_split(n: int) -> tuple[int, int]:
    """n = s^2 * r with r squarefree, for n >= 1; returns (s, r)."""
    s = r = 1
    for p, e in factorize(n).items():
        s *= p ** (e // 2)
        r *= p ** (e % 2)
    return (s, r)


def asymptote_slopes(p, q) -> SlopePair:
    """Limiting slopes (1 - 2pq +- sqrt(1 - 4pq)) / (2 p^2), exactly.

    p and q are rationals with 1 - 4pq > 0.  The slopes come back as
    r +- c*sqrt(D) with rational r, c and squarefree D; when p = 0 the
    quadratic degenerates and the single finite slope is q^2, flagged
    vertical.
    """
    p, q = Fraction(p), Fraction(q)
    if p == 0:
        return SlopePair(
            rational_part=q * q, surd_coeff=Fraction(0), radicand=0, vertical=True
        )
    disc = 1 - 4 * p * q
    if disc <= 0:
        raise ValueError(f"need 1 - 4pq > 0, got {disc} for (p, q) = ({p}, {q})")
    # sqrt(num/den) = (sqrt(num*den)) / den; pull the square part out
    s, r = _square_free_split(disc.numerator * disc.denominator)
    half_inv = 1 / (2 * p * p)
    return SlopePair(
        rational_part=(1 - 2 * p * q) * half_inv,
        surd_coeff=Fraction(s, disc.denominator) * half_inv,
        radicand=r,
    )
