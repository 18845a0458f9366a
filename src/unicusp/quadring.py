"""Arithmetic in Z[phi], the ring of integers of Q(sqrt5), and the Pell
equation x^2 - 5y^2 = n.

Elements are stored as (u + v*sqrt5)/2 with u and v of equal parity.  The
golden ratio phi = (1 + sqrt5)/2 is a fundamental unit of norm -1, so the
units of norm +1 are exactly +-phi^(2h); orbits under that action and
conjugation are what `canonical` collapses.  phi^2 is not in Z[sqrt5], so
an orbit of coprime solutions also holds half-integral elements, and
integral ones with gcd 2 when n = 4 (mod 8); `canonical` may pick one of
those, so `generating_set` names each orbit by its coprime solution
x + y*sqrt5 with x, y >= 0 of least y instead.

Solvability of x^2 - 5y^2 = n is a local condition: it holds iff every
prime factor of n congruent to +-2 mod 5 occurs to an even power.  Coprime
solutions (gcd(x, y) = 1) are rarer: they exist iff n = a * n' with
a in {1, 4, 5, 20} and n' a product of primes congruent to +-1 mod 5; the
solutions then fall into exactly 2^(omega(n') - 1) orbits (one when n' = 1),
generated by fixing one fundamental solution per a-part and per prime and
flipping independent conjugation choices.  A negative n has n' < 0: phi
has norm -1, so multiplying by phi maps the orbits of -n one to one onto
those of n.

Factorisation is plain trial division; fine up to roughly 10^12, far above
anything the candidate searches need.
"""

from __future__ import annotations

from math import gcd, isqrt
from typing import NamedTuple

from . import _Value


class QuadInt(_Value):
    """(u + v*sqrt5)/2 with u == v (mod 2).

    Not a tuple, so that `+`, `*` and comparisons are the ring's.
    """

    __slots__ = ("u", "v")
    u: int
    v: int

    def __init__(self, u: int, v: int):
        if (u - v) % 2 != 0:
            raise ValueError(f"u and v must share parity, got ({u}, {v})")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    @classmethod
    def from_int(cls, n: int) -> QuadInt:
        return cls(2 * n, 0)

    @classmethod
    def from_sqrt5(cls, x: int, y: int) -> QuadInt:
        """The element x + y*sqrt5."""
        return cls(2 * x, 2 * y)

    def __add__(self, other: QuadInt) -> QuadInt:
        return QuadInt(self.u + other.u, self.v + other.v)

    def __sub__(self, other: QuadInt) -> QuadInt:
        return QuadInt(self.u - other.u, self.v - other.v)

    def __neg__(self) -> QuadInt:
        return QuadInt(-self.u, -self.v)

    def __mul__(self, other):
        if isinstance(other, QuadInt):
            return QuadInt(
                (self.u * other.u + 5 * self.v * other.v) // 2,
                (self.u * other.v + self.v * other.u) // 2,
            )
        if isinstance(other, int):
            return QuadInt(self.u * other, self.v * other)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, k: int) -> QuadInt:
        if k < 0:
            n = self.norm()
            if n not in (1, -1):
                raise ValueError(f"negative powers need a unit, norm is {n}")
            inv = self.conjugate() if n == 1 else -self.conjugate()
            return inv ** (-k)
        out = QuadInt.from_int(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conjugate(self) -> QuadInt:
        return QuadInt(self.u, -self.v)

    def norm(self) -> int:
        return (self.u * self.u - 5 * self.v * self.v) // 4

    def as_sqrt5(self) -> tuple[int, int] | None:
        """Coordinates (x, y) with self = x + y*sqrt5, or None if half-integral."""
        if self.u % 2 or self.v % 2:
            return None
        return self.u // 2, self.v // 2

    def __str__(self) -> str:
        if self.u % 2 == 0 and self.v % 2 == 0:
            return f"{self.u // 2}{self.v // 2:+}*sqrt5"
        return f"({self.u}{self.v:+}*sqrt5)/2"


PHI = QuadInt(1, 1)
_PHI2 = QuadInt(3, 1)
_PHI2_INV = QuadInt(3, -1)  # norm(phi^2) = 1, so the inverse is the conjugate


def phi_power(k: int) -> QuadInt:
    """phi^k for any integer k (phi has norm -1, so phi^-1 = -conj(phi))."""
    return PHI ** k


def factorize(n: int) -> dict[int, int]:
    """Prime factorisation of |n| by trial division (intended for |n| <= ~1e12)."""
    n = abs(n)
    if n < 1:
        raise ValueError("cannot factor 0")
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 7
    while f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def has_solution(n: int) -> bool:
    """Whether x^2 - 5y^2 = n has any integer solution."""
    if n == 0:
        raise ValueError("n must be nonzero")
    return all(e % 2 == 0 for p, e in factorize(n).items() if p % 5 in (2, 3))


def _least_solution(p: int) -> QuadInt:
    """The smallest-y solution of x^2 - 5y^2 = p, for a p known to be a
    prime with a solution: 5, or a prime congruent to +-1 mod 5."""
    for y in range(p + 1):
        x2 = p + 5 * y * y
        x = isqrt(x2)
        if x * x == x2:
            return QuadInt.from_sqrt5(x, y)
    raise RuntimeError(f"no fundamental solution found for p={p} with y <= {p}")


class PellDecomposition(NamedTuple):
    """Shape certificate n = a_part * n_prime for coprime solvability."""

    n: int
    a_part: int          # 1, 4, 5 or 20
    n_prime: int         # product of primes congruent to +-1 mod 5
    distinct_primes: int  # omega(n_prime)
    class_count: int     # number of solution orbits: 2^(omega - 1), or 1


def coprime_decompose(n: int) -> PellDecomposition | None:
    """Certificate that x^2 - 5y^2 = n admits coprime solutions, else None.

    Absent exactly when 8 | n, 25 | n, or some prime +-2 mod 5 divides n.
    A negative n has the certificate of -n with n and n_prime negated, so
    n = a_part * n_prime still holds: -n and n have coprime solutions
    together, in as many orbits (see `generating_set`).
    """
    return _decompose(n)[0]


def _decompose(n: int) -> tuple[PellDecomposition | None, dict[int, int]]:
    """`coprime_decompose(n)`, and the factorisation of |n| less its powers
    of 2 and 5, which is n_prime's when n has coprime solutions."""
    if n == 0:
        raise ValueError("n must be nonzero")
    fac = factorize(n)
    e2, e5 = fac.get(2, 0), fac.get(5, 0)
    rest = {p: e for p, e in fac.items() if p not in (2, 5)}
    if e2 not in (0, 2) or e5 > 1 or any(p % 5 in (2, 3) for p in rest):
        return None, rest
    a_part = (4 if e2 else 1) * (5 if e5 else 1)
    omega = len(rest)
    return PellDecomposition(
        n=n,
        a_part=a_part,
        n_prime=n // a_part,
        distinct_primes=omega,
        class_count=1 if omega == 0 else 2 ** (omega - 1),
    ), rest


_A_PART_ELEMENT = {
    1: QuadInt.from_int(1),
    4: QuadInt.from_sqrt5(3, 1),
    5: QuadInt.from_sqrt5(5, 2),
    20: QuadInt.from_sqrt5(5, 1),
}


def generating_set(n: int) -> list[QuadInt]:
    """One coprime solution x + y*sqrt5 of x^2 - 5y^2 = n per orbit, the
    one with x, y >= 0 of least y in its orbit, sorted by (x, y).

    The orbits are told apart by `canonical`, which `_orbits` dedupes by;
    `_least_coprime` then picks each orbit's generator.
    """
    return sorted(map(_least_coprime, _orbits(n)), key=lambda z: (z.u, z.v))


def _orbits(n: int) -> set[QuadInt]:
    """The `canonical` form of each orbit of coprime solutions of
    x^2 - 5y^2 = n.

    Built as a_part element times alpha_p^e for each prime power of n_prime,
    with a free conjugation choice on every prime after the first; the first
    prime's choice is fixed to kill the global conjugation symmetry.  Every
    element has norm n: the norm is multiplicative, and `canonical` moves
    only by units of norm 1, negation and conjugation, which all keep it.

    A negative n takes phi times each orbit of -n.  phi^3 = 2 + sqrt5
    has norm -1 and sends x + y*sqrt5 to (2x + 5y) + (x + 2y)*sqrt5, a
    change of coordinates of determinant -1, so it maps the coprime
    solutions of -n one to one onto those of n.  It maps orbits to orbits,
    as phi^3 * conj(z) = -phi^6 * conj(phi^3 * z), and phi * z lies in the
    orbit of phi^3 * z.  So the images are one per orbit of n.
    """
    if n < 0:
        return {canonical(PHI * z) for z in _orbits(-n)}
    dec, fac = _decompose(n)
    if dec is None:
        raise ValueError(f"n={n} admits no coprime solutions")
    acc = [_A_PART_ELEMENT[dec.a_part]]
    for idx, p in enumerate(sorted(fac)):
        alpha = _least_solution(p) ** fac[p]
        if idx == 0:
            acc = [z * alpha for z in acc]
        else:
            acc = [z * alpha for z in acc] + [z * alpha.conjugate() for z in acc]
    out = {canonical(z) for z in acc}
    if len(out) != dec.class_count:
        raise RuntimeError(
            f"built {len(out)} distinct orbits for n={n}, expected {dec.class_count}"
        )
    return out


def _least_coprime(z: QuadInt) -> QuadInt:
    """The coprime solution x + y*sqrt5 with x, y >= 0 of least y in the
    orbit whose `canonical` representative is z; the orbit must hold a
    coprime solution.

    Every orbit element is +-w_h or its conjugate, w_h = z * phi^(2h), and
    negation and conjugation keep |y| and gcd(x, y), so only the w_h need
    searching.  phi^6 = 9 + 4*sqrt5
    and its inverse have integer matrices of determinant 1 on (x, y), so
    whether w_h is an integer coprime solution depends on h mod 3 only.
    |v| along the orbit is unimodal with its minimum at h = 0 (`canonical`),
    so within each class mod 3 the least |v| is at the member nearest 0 on
    one side or the other: h in [-2, 2] holds them all.
    """
    window = (z * phi_power(2 * h) for h in range(-2, 3))
    w = min((w for w in window if (xy := w.as_sqrt5()) is not None and gcd(*xy) == 1),
            key=lambda w: abs(w.v))
    return QuadInt(abs(w.u), abs(w.v))


def canonical(z: QuadInt) -> QuadInt:
    """Distinguished representative of the orbit {+-phi^(2h) * z, conjugates}:
    (|u| + |v|*sqrt5)/2 at an orbit element of least |v|.

    |v| along the phi^2-orbit is unimodal (a difference of two real
    exponentials has one turning point), so a greedy slide finds its
    minimum.  Negation and conjugation flip the signs of u and v, so
    (|u|, |v|) lies in the orbit, and it is the one element of least |v|
    with u, v >= 0.  Once |v| is fixed, u^2 = 4 norm + 5 v^2 fixes |u|, so
    the result does not depend on which element of least |v| the slide
    stops at.
    """
    if z.norm() == 0:
        raise ValueError("zero has no canonical representative")
    w = z
    for step in (_PHI2, _PHI2_INV):
        while True:
            nxt = w * step
            if abs(nxt.v) < abs(w.v):
                w = nxt
            else:
                break
    return QuadInt(abs(w.u), abs(w.v))
