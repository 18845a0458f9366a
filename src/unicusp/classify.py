"""Classification sweep: enumerate candidate pairs by degree, decide
admissibility, and locate candidates among the Fibonacci sector walls.

For a fixed genus g, a degree d carries the pairs (a, b) with a < b
coprime and (a - 1)(b - 1) = (d - 1)(d - 2) - 2g.  `enumerate_candidates`
walks every degree up to a bound, attaches the admissibility verdict to
each pair, and splits the outcome into pairs on the line a + b = 3d
versus exceptions, tagging exceptions that belong to one of the known
syntactic families.

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
from math import gcd, isqrt

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


def _tags_for(c: Candidate) -> tuple[str, ...]:
    tags = []
    if c.g == 1 and c.b == 9 * c.a + 1 and c.d == 3 * c.a:
        tags.append("(l,9l+1)")
    if c.b == c.a + 3 and c.d == c.a + 3 and c.g == c.a + 2:
        tags.append("(p,p+3)")
    if c.b == 2 * c.a - 1 and c.d == 2 * c.a - 1 and c.g == (c.a - 1) * (c.a - 2):
        tags.append("(p,2p-1)")
    if c.a % 3 == 0:
        n = c.a // 3
        if c.b == 7 * c.a + 1 and 3 * c.d == 8 * c.a and c.g == (n - 1) * (n - 2) // 2:
            tags.append("(3n,21n+1)")
    return tuple(tags)


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
    was 2.0-2.5x slower over the 34,350 searches of the seed-0 `sweep`
    pool (370-470 ms against 165-190 ms, 2-vCPU x86-64, Python 3.11.7).
    """
    out = []
    u = 1
    while u * u <= m:
        if m % u == 0:
            out.append((u, m // u))
        u += 1
    return out


def _candidates_at_degree(genus: int, d: int, allow_smooth: bool) -> list[Candidate]:
    m = (d - 1) * (d - 2) - 2 * genus
    if m < 0:
        return []
    found = []
    if m == 0:
        if allow_smooth:
            found.append((1, 3 * d - 1))
    else:
        for u, v in _divisor_pairs(m):
            a, b = u + 1, v + 1
            if a < b and gcd(a, b) == 1:
                found.append((a, b))
    return [Candidate(genus, a, b, d, admissible=check_single(a, b, genus, d).admissible)
            for a, b in found]


def enumerate_candidates(
    genus: int, d_max: int, allow_smooth: bool = False, jobs: int = 1
) -> EnumerationReport:
    """Sweep every degree in [1, d_max] at the given genus.

    Smooth models (a, b) = (1, 3d - 1) occur exactly when
    (d - 1)(d - 2) = 2*genus and are included only when `allow_smooth` is
    set.  `jobs` must be >= 1 and changes neither the work nor the
    report: the sweep is pure Python and runs serially.
    """
    if genus < 0:
        raise ValueError(f"genus must be >= 0, got {genus}")
    if d_max < 1:
        raise ValueError(f"d_max must be >= 1, got {d_max}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    candidates = sorted((c for d in range(1, d_max + 1)
                         for c in _candidates_at_degree(genus, d, allow_smooth)),
                        key=Candidate.key)
    admissible = tuple(c for c in candidates if c.admissible)
    on_line = tuple(c for c in admissible if c.on_3d_line)
    exceptions = tuple((c, _tags_for(c)) for c in admissible if not c.on_3d_line)
    return EnumerationReport(
        g=genus,
        d_max=d_max,
        allow_smooth=allow_smooth,
        candidates=tuple(candidates),
        admissible=admissible,
        on_3d_line=on_line,
        exceptions=exceptions,
    )


def exceptional_family(kind: int, param: int) -> Candidate:
    """Closed-form member of one of the three infinite exception families.

    kind 1: (p, p+3), degree p+3, genus p+2, for p >= 2 with 3 not | p
    kind 2: (p, 2p-1), degree 2p-1, genus (p-1)(p-2), for p >= 2
    kind 3: (3n, 21n+1), degree 8n, genus (n-1)(n-2)/2, for n > 2
    """
    if kind == 1:
        p = param
        if p < 2 or p % 3 == 0:
            raise ValueError(f"kind 1 needs p >= 2 with p not divisible by 3, got {p}")
        a, b, d, g = p, p + 3, p + 3, p + 2
    elif kind == 2:
        p = param
        if p < 2:
            raise ValueError(f"kind 2 needs p >= 2, got {p}")
        a, b, d, g = p, 2 * p - 1, 2 * p - 1, (p - 1) * (p - 2)
    elif kind == 3:
        n = param
        if n <= 2:
            raise ValueError(f"kind 3 needs n > 2, got {n}")
        a, b, d, g = 3 * n, 21 * n + 1, 8 * n, (n - 1) * (n - 2) // 2
    else:
        raise ValueError(f"kind must be 1, 2 or 3, got {kind}")
    return Candidate(g, a, b, d, admissible=check_single(a, b, g, d).admissible)


def walk_sectors() -> Iterator[Sector]:
    """Sectors l = 2, 3, ... in order, without end.

    Sector l lies between the walls (F_{2l+1} / F_{2l-1})^2 and
    (F_{2l+3} / F_{2l+1})^2, with puncture (F_{2l-1}, F_{2l+3}).  The walk
    starts from F_3, F_5, F_7 = 2, 5, 13 and steps the odd-index Fibonacci
    numbers by F_{k+2} = 3 F_k - F_{k-2}, so each wall is built once and
    serves as the high wall of one sector and the low wall of the next.
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
