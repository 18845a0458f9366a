"""Candidate families: the Pell correspondence, Lucas-indexed series and
Cremona moves between neighbouring candidates.

A coprime pair (a, b) with a + b = 3d corresponds to the ring element
zeta = x + y*sqrt5 with x = (7b - 2a)/3 and y = b; the degree-genus
identity (d-1)(d-2) = (a-1)(b-1) + 2g then reads norm(zeta) = 4(2g - 1).
`pair_to_element` and `element_to_pair` translate back and forth, and
`orbit_candidates` sweeps the unit orbit of a fixed-norm element to list
every candidate pair it carries.

Whether any orbit element yields a pair depends on g mod 3: for
g == 0 (mod 3) both parities of the phi^2 exponent can contribute, for
g == 1 exactly one parity survives the 3 | y test, and for g == 2 nothing
does (3 divides 2g - 1, forcing 3 | y throughout).

For each k >= 2 the bidirectional Lucas sequence L_0 = k-1, L_1 = 1,
L_{n+1} = L_n + L_{n-1} indexes two candidate ladders of genus k(k-1)/2:
(L_{4i-3}, L_{4i+1}) with degree L_{4i-1} going up, and the negated
negative-index mirror going down.  Consecutive rungs differ by the
`cremona_step` moves, which act on zeta by phi^4, phi^-4, or conjugated
phi^-12.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import NamedTuple

from .quadring import QuadInt, phi_power
from .semigroup import check_generators


def fibonacci(n: int) -> int:
    if n < 0:
        raise ValueError(f"index must be >= 0, got {n}")
    return _fib_pair(n)[0]


def _fib_pair(n: int) -> tuple[int, int]:
    """(F_n, F_{n+1}) for n >= 0 by fast doubling:
    F_2m = F_m (2 F_{m+1} - F_m) and F_{2m+1} = F_m^2 + F_{m+1}^2."""
    if n == 0:
        return (0, 1)
    f, g = _fib_pair(n >> 1)
    even, odd = f * (2 * g - f), f * f + g * g
    return (odd, even + odd) if n & 1 else (even, odd)


def _fib_signed(n: int) -> int:
    """F_n for every integer n, with F_{-n} = (-1)^(n+1) F_n."""
    f = _fib_pair(abs(n))[0]
    return -f if n < 0 and n % 2 == 0 else f


class LucasSeq:
    """L_0 = k-1, L_1 = 1, L_{n+1} = L_n + L_{n-1}, indexed by all of Z.

    Both sides of L_n = (k-1) F_{n-1} + F_n follow the Fibonacci
    recurrence and agree at n = 0 and n = 1, so each value comes from two
    Fibonacci numbers in O(log |n|) steps.
    """

    def __init__(self, k: int):
        if k < 2:
            raise ValueError(f"k must be >= 2, got {k}")
        self.k = k

    def __call__(self, n: int) -> int:
        return (self.k - 1) * _fib_signed(n - 1) + _fib_signed(n)


def lucas(k: int, n: int) -> int:
    return LucasSeq(k)(n)


class _CandidateFields(NamedTuple):
    """The fields of a `Candidate`, in order."""

    g: int
    a: int
    b: int
    d: int
    admissible: bool | None = None


class Candidate(_CandidateFields):
    """A (genus, a, b, degree) tuple satisfying the degree-genus identity.

    A named tuple, so it compares equal to the plain tuple of its fields.
    `Candidate(...)` and `_replace` validate; `Candidate._make` does not,
    and serves callers that have already proved what validation checks.
    """

    __slots__ = ()

    def __new__(cls, g: int, a: int, b: int, d: int, admissible: bool | None = None):
        check_generators(a, b)
        if g < 0 or d < 1:
            raise ValueError(f"bad genus/degree ({g}, {d})")
        lhs = (d - 1) * (d - 2)
        rhs = (a - 1) * (b - 1) + 2 * g
        if lhs != rhs:
            raise ValueError(f"degree-genus violated for {(a, b, d, g)}: {lhs} != {rhs}")
        return super().__new__(cls, g, a, b, d, admissible)

    def _replace(self, **changes) -> Candidate:
        """A copy with the given fields changed, validated as when built."""
        return Candidate(*super()._replace(**changes))

    @property
    def on_3d_line(self) -> bool:
        return self.a + self.b == 3 * self.d

    @property
    def element(self) -> QuadInt | None:
        """The ring element zeta of an on-line pair, None off the line.

        On the line no norm check is needed: with a + b = 3d,
            (d-1)(d-2) = (a-1)(b-1) + 2g  reads  d^2 - ab = 2g - 1, and
            norm(zeta) = ((7b - 2a)^2 - 45 b^2)/9 = 4(a + b)^2/9 - 4ab
                       = 4(d^2 - ab) = 4(2g - 1).
        """
        return pair_to_element(self.a, self.b) if self.on_3d_line else None

    def key(self) -> tuple[int, int, int]:
        return (self.d, self.a, self.b)


def pair_to_element(a: int, b: int) -> QuadInt | None:
    """zeta = (7b - 2a)/3 + b*sqrt5, or None when 3 does not divide a + b."""
    if (a + b) % 3 != 0:
        return None
    return QuadInt.from_sqrt5((7 * b - 2 * a) // 3, b)


def element_to_pair(z: QuadInt, genus: int) -> Candidate | None:
    """Invert the correspondence over z, -z and both conjugates.

    Requires norm(z) = 4(2*genus - 1).  That norm is even, while u and v
    both odd give u^2 - 5v^2 = 4 (mod 8) and so an odd norm; hence z is
    x + y*sqrt5 with integers x, y.  The four variants are the four sign
    patterns of (x, y), and a variant yields a pair only when x, y > 0
    (see `_pair_from_coords`), so (|x|, |y|) is the only one to try.
    A negative genus is refused, since no candidate has one.
    """
    if genus < 0:
        raise ValueError(f"genus must be >= 0, got {genus}")
    target = 4 * (2 * genus - 1)
    if z.norm() != target:
        raise ValueError(f"norm {z.norm()} does not match 4*(2g-1) = {target}")
    x, y = z.as_sqrt5()
    return _pair_from_coords(abs(x), abs(y), genus)


def _pair_from_coords(x: int, y: int, genus: int) -> Candidate | None:
    """The pair carried by w = x + y*sqrt5 of norm 4(2*genus - 1), if any.

    Whether x and y are coprime (then both odd, since the norm is even)
    or share the factor 2, a = (7y - 3x)/2 and b = y are integers, and
    a + b = 3d with d = (3y - x)/2.  Then zeta(a, b) = x + y*sqrt5 = w, so
    by the norm identity in `Candidate.element` the degree-genus identity
    holds, and 1 <= a < b gives d >= 1.  Only the order and coprimality
    of (a, b) are left to test; `element_to_pair` refuses a negative
    genus, so `Candidate._make` builds the pair without a second check.
    """
    if x <= 0 or y <= 0 or y % 3 == 0 or gcd(x, y) > 2:
        return None
    a, b = (7 * y - 3 * x) // 2, y
    if a < 1 or a >= b or gcd(a, b) != 1:
        return None
    return Candidate._make((genus, a, b, (a + b) // 3, None))


def orbit_candidates(z: QuadInt, genus: int, h_min: int, h_max: int) -> list[Candidate]:
    """All candidate pairs among +-phi^(2h) * z and conjugates, h_min <= h <= h_max."""
    if h_min > h_max:
        raise ValueError(f"empty exponent window [{h_min}, {h_max}]")
    seen: dict[tuple[int, int], Candidate] = {}
    # one multiply by phi^2 per exponent, from phi^(2 h_min) * z
    step = phi_power(2)
    w = z * phi_power(2 * h_min)
    for _ in range(h_min, h_max + 1):
        cand = element_to_pair(w, genus)
        if cand is not None:
            seen.setdefault((cand.a, cand.b), cand)
        w = w * step
    return sorted(seen.values(), key=Candidate.key)


def lucas_family(k: int, i: int) -> Candidate:
    """Ladder rung (L_{4i-3}, L_{4i+1}) of degree L_{4i-1}, genus k(k-1)/2."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if i < 2:
        raise ValueError(f"i must be >= 2, got {i}")
    return _lucas_candidate(k, 4 * i - 3, 4 * i + 1, 4 * i - 1, negate=False)


def lucas_family_neg(k: int, j: int) -> Candidate:
    """Mirror rung (-L_{-4j+1}, -L_{-4j-3}) of degree -L_{-4j-1}."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if j < 1:
        raise ValueError(f"j must be >= 1, got {j}")
    return _lucas_candidate(k, -4 * j + 1, -4 * j - 3, -4 * j - 1, negate=True)


def _lucas_candidate(k: int, ia: int, ib: int, id_: int, negate: bool) -> Candidate:
    """The rung (L_ia, L_ib) of degree L_id_, all negated if asked.

    Both callers pass ia, ib = id_ -+ 2.  Every sequence with the Fibonacci
    recurrence has L_{n+2} = 2 L_n + L_{n-1} and L_{n-2} = L_n - L_{n-1},
    so L_{n-2} + L_{n+2} = 3 L_n, and a + b = 3d; negation keeps it.
    """
    sign = -1 if negate else 1
    a, b, d = sign * lucas(k, ia), sign * lucas(k, ib), sign * lucas(k, id_)
    return Candidate(k * (k - 1) // 2, a, b, d)


_CREMONA_VARIANTS = ("1", "2a", "2b")


def cremona_step(a: int, b: int, variant: str) -> tuple[int, int]:
    """One quadratic sweep move on a pair with 3 | a + b.

    variant "1":  (a, b) -> (b, 7b - a)        zeta -> zeta * phi^4
    variant "2a": (a, b) -> (7a - b, a), b < 7a  zeta -> zeta * phi^-4
    variant "2b": (a, b) -> (b - 7a, 7b - 48a), b > 7a
                                                zeta -> conj(zeta * phi^-12)

    Each ring action is an identity between two linear maps of (a, b), so
    it holds for every step and is not re-checked per call.
    """
    if variant not in _CREMONA_VARIANTS:
        raise ValueError(f"variant must be one of {_CREMONA_VARIANTS}, got {variant!r}")
    if (a + b) % 3 != 0:
        raise ValueError(f"pair ({a}, {b}) is off the 3d line; a + b must be divisible by 3")
    if variant == "1":
        out = (b, 7 * b - a)
    elif variant == "2a":
        if b >= 7 * a:
            raise ValueError(f"variant 2a needs b < 7a, got ({a}, {b})")
        out = (7 * a - b, a)
    else:
        if b <= 7 * a:
            raise ValueError(f"variant 2b needs b > 7a, got ({a}, {b})")
        out = (b - 7 * a, 7 * b - 48 * a)
    a2, b2 = out
    if a2 < 1 or a2 >= b2:
        raise ValueError(f"step {variant} leaves the ordered range: ({a}, {b}) -> ({a2}, {b2})")
    return out


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of the exact Fibonacci identity sweep plus two limit probes."""

    l_max: int
    checks: int
    failures: tuple[str, ...]
    lim_gap_lower: float  # | F_{2l-1}^2 * phi^4 - F_{2l+1}^2  -  (2/5)(phi^4 - 1) |
    lim_gap_upper: float  # | F_{2l-1}^2 - F_{2l+1}^2 * phi^-4 -  (2/5)(1 - phi^-4) |

    @property
    def all_hold(self) -> bool:
        return not self.failures


def _sqrt5_rational(digits: int) -> Fraction:
    scale = 10 ** digits
    return Fraction(isqrt(5 * scale * scale), scale)


def verify_fibonacci_identities(l_max: int) -> IdentityReport:
    """Exact checks of the five Fibonacci identities behind the sector walls.

    For l in [1, l_max] (and k in [2, 2*l_max + 3] for the two running-index
    identities):

        gcd(F_{2l-1}, F_{2l+1}) = gcd(F_{2l-1}, F_{2l+3}) = 1
        F_k^2 - F_{k-2} F_{k+2} = (-1)^k
        F_{k-2} + F_{k+2} = 3 F_k
        F_{2l+3}^2 F_{2l-1}^2 - F_{2l+1}^2 (F_{2l+1}^2 + 2) = 1
        F_{2l+3}^2 + F_{2l+1}^2 - 3 F_{2l+1} F_{2l+3} = -1

    The two limit gaps are evaluated at l = l_max in exact rational
    arithmetic against a rational sqrt5 whose precision grows with l_max,
    then reported as floats; a failed identity lands in `failures`, never
    raises.
    """
    if l_max < 2:
        raise ValueError(f"l_max must be >= 2, got {l_max}")
    fails: list[str] = []
    checks = 0
    fib = [0, 1]
    for _ in range(2 * l_max + 4):
        fib.append(fib[-1] + fib[-2])
    for l in range(1, l_max + 1):
        f1, f2, f3 = fib[2 * l - 1], fib[2 * l + 1], fib[2 * l + 3]
        checks += 4
        if gcd(f1, f2) != 1 or gcd(f1, f3) != 1:
            fails.append(f"gcd failure at l={l}")
        if f3 * f3 * f1 * f1 - f2 * f2 * (f2 * f2 + 2) != 1:
            fails.append(f"quartic identity failure at l={l}")
        if f3 * f3 + f2 * f2 - 3 * f2 * f3 != -1:
            fails.append(f"near-unit identity failure at l={l}")
    for k in range(2, 2 * l_max + 4):
        checks += 2
        if fib[k] ** 2 - fib[k - 2] * fib[k + 2] != (-1) ** k:
            fails.append(f"determinant identity failure at k={k}")
        if fib[k - 2] + fib[k + 2] != 3 * fib[k]:
            fails.append(f"triple identity failure at k={k}")
    # The gaps shrink like phi^(-4 l) while the sqrt5 error is multiplied by
    # F^2 ~ phi^(4 l), so sqrt5 needs 8 log10(phi) l ~ 1.672 l digits before
    # any digit of a gap is right; 20 more leave the gap's relative error
    # near 1e-20, below the float's own rounding.
    s5 = _sqrt5_rational(1672 * l_max // 1000 + 20)
    f1, f2 = fib[2 * l_max - 1], fib[2 * l_max + 1]
    # F^2 * phi^4 - F'^2 -> (2/5)(phi^4 - 1) = 1 + (3/5) sqrt5
    gap_lower = abs(
        (Fraction(7, 2) * f1 * f1 - f2 * f2 - 1) + (Fraction(3, 2) * f1 * f1 - Fraction(3, 5)) * s5
    )
    # F^2 - F'^2 * phi^-4 -> (2/5)(1 - phi^-4) = -1 + (3/5) sqrt5
    gap_upper = abs(
        (f1 * f1 - Fraction(7, 2) * f2 * f2 + 1) + (Fraction(3, 2) * f2 * f2 - Fraction(3, 5)) * s5
    )
    return IdentityReport(
        l_max=l_max,
        checks=checks,
        failures=tuple(fails),
        lim_gap_lower=float(gap_lower),
        lim_gap_upper=float(gap_upper),
    )
