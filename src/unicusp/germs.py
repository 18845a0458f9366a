"""Local germ computations on two plane-curve models, done in exact
truncated power series.  Coefficients are Python ints, and Python's
number tower turns them into `Fraction`s only where a division leaves a
denominator, so every result stays exact.

Neither model below multiplies two series: both run on plain int lists
or sparse maps, where multiplying by a monomial is a shift.  `PowerSeries`
is a placeholder with no fields and no product (see its docstring).

The node model is the parametrization x(t) = t/(1 + t^3),
y(t) = t^2/(1 + t^3), which satisfies x^3 + y^3 - x*y = 0 identically.
`germ_sequence` runs the polynomial recursion

    f_1 = y,  f_2 = y - x^2,
    f_n = c_{n-2} f_{n-1} - c_{n-1} x y f_{n-2},

where c_n is the leading coefficient of f_n along the parametrization.
The terms of f_1 and f_2 all have the form x^k y^(k+1) or x^(k+2) y^k, and
multiplying by x y maps each form to itself with k + 1 for k, so every
f_n is held as one int list that interleaves the two forms: position 2k
on x^k y^(k+1) and position 2k + 1 on x^(k+2) y^k.  Position p then has
total degree p + 1, x y moves position p to p + 2, and a step is one
scaled subtraction on one list; the total degree of f_n is the list's
length, and the records' term order is one fixed permutation of the
positions, computed once per call.
Evaluation along the parametrization is a ring homomorphism, so the same
recursion runs on series without re-evaluating any polynomial.  It runs on
the unit-scaled U_n = (1 + t^3)^n f_n(x(t), y(t)): since
x y (1 + t^3)^2 = t^3, it reads U_n = c_{n-2} (U_{n-1} + t^3 U_{n-1})
- c_{n-1} t^3 U_{n-2} from U_1 = t^2 and U_2 = t^5, on sparse
{exponent: coefficient} maps, with no series product.  U_n has the
valuation and leading coefficient of f_n(x(t), y(t)), because
(1 + t^3)^n is a unit with constant term 1.  By induction U_n = t^{3n - 1}
and c_n = 1 at every n, so each map holds one term; the code still
computes every U_n and c_n and reads them off the maps.  Each f_n must
vanish to order exactly 3n - 1 at the node, carry a nonzero y
coefficient, have total degree n, and be supported on monomials x^i y^j
with i + 2j == 2 (mod 3); any breach raises instead of passing silently.
Each step comes back as a `GermRecord`, which `unicusp germ --node` prints
from one JSON template, with one f-string per polynomial term.

The flex model is x(t) = t, y(t) = t^3/(1 - t^2), where
x^3 + x^2 y - y = 0 identically, so `flex_check` confirms that
y^d + x^3 + x^2 y - y collapses to y^d on the nose, with valuation
exactly 3d.  y^d = t^{3d} (1 - t^2)^{-d}, and the negative binomial series
(1 - u)^{-d} = sum over i of C(d - 1 + i, i) u^i puts C(d - 1 + i, i) on
the slot t^{3d + 2i} and nothing on any other, so y and y^d are filled
from binomials with no series division.  The tail x^3 + x^2 y - y is t^3
plus y shifted by 2, minus y.  The collapse and the valuation are read
off these computed lists, not assumed.
"""

from __future__ import annotations

from itertools import takewhile, zip_longest
from math import comb
from operator import add, not_, sub
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from fractions import Fraction

    Coeff = int | Fraction


class PowerSeries:
    """A placeholder kept only for the benchmark's tracer, which rebinds
    `__mul__` and `__rmul__` from this class's own `__dict__` to count
    series products per op (`perfbench/spans.py`); no model multiplies two
    series, so every op counts none.  It goes when the tracer stops looking
    it up (ROADMAP item 12)."""

    def __mul__(self, other):
        return NotImplemented

    __rmul__ = __mul__


def _leading_zeros(coeffs: list[Coeff]) -> int:
    """The number of zero coefficients that open coeffs."""
    return len(list(takewhile(not_, coeffs)))


class GermRecord(NamedTuple):
    """One step of the node recursion: the polynomial and its local data."""

    n: int
    polynomial: tuple[tuple[tuple[int, int], Coeff], ...]
    c: Coeff
    valuation: int


def _position_monomial(p: int) -> tuple[int, int]:
    """The exponents (i, j) of the monomial x^i y^j that position p of a
    node coefficient list holds: x^k y^(k+1) at p = 2k and x^(k+2) y^k at
    p = 2k + 1."""
    k = p >> 1
    return (k + 2, k) if p & 1 else (k, k + 1)


def _node_step(prev: list[Coeff], prev2: list[Coeff], c2: Coeff, c1: Coeff) -> list[Coeff]:
    """c2 * prev[p] - c1 * prev2[p - 2] at every position p, trailing zeros
    trimmed: c2 f_{n-1} - c1 x y f_{n-2} on the interleaved layout, where
    x y moves position p to p + 2."""
    out = [c2 * u - c1 * v for u, v in zip_longest(prev, [0, 0, *prev2], fillvalue=0)]
    while out and not out[-1]:
        out.pop()
    return out


def _unit_step(u1: dict[int, Coeff], u2: dict[int, Coeff], c2: Coeff, c1: Coeff,
               order: int) -> dict[int, Coeff]:
    """U_n = c2 (U_{n-1} + t^3 U_{n-1}) - c1 t^3 U_{n-2} below t^order, for
    sparse series held as {exponent: coefficient} with no zero values."""
    out: dict[int, Coeff] = {}
    for shift, series, scale in ((0, u1, c2), (3, u1, c2), (3, u2, -c1)):
        for e, v in series.items():
            e += shift
            if e < order:
                out[e] = out.get(e, 0) + scale * v
    return {e: v for e, v in out.items() if v}


def germ_sequence(n_max: int, order: int | None = None) -> list[GermRecord]:
    """Run the node recursion up to f_{n_max} and certify each step.

    The truncation order defaults to 3*n_max + 3, enough to see past every
    expected valuation 3n - 1.  Raises RuntimeError the moment a step
    vanishes to the wrong order or breaks a structural invariant.

    The polynomials.  f_1 = y and f_2 = y - x^2 have terms only of the
    forms x^k y^(k+1), where i - j = -1, and x^(k+2) y^k, where i - j = 2.
    Multiplying by x y adds 1 to i and to j, so it maps each form to itself
    with k + 1 for k, and every f_n has terms of these two forms only.
    f_n is one int list coef that interleaves them (`_position_monomial`):

        coef[2k] on x^k y^(k+1),  coef[2k + 1] on x^(k+2) y^k.

    Each monomial of either form has exactly one position, and x y moves
    position p to p + 2 (2k to 2k + 2, and 2k + 1 to 2k + 3).  So the
    recursion is one scaled subtraction on one list (`_node_step`):

        coef_n[p] = c_{n-2} coef_{n-1}[p] - c_{n-1} coef_{n-2}[p - 2],

    with trailing zeros trimmed, from coef_1 = [1] and coef_2 = [1, -1].
    Position p has total degree p + 1 (2k + 1 at p = 2k, 2k + 2 at
    p = 2k + 1), so after the trim the total degree of f_n is len(coef),
    and the y coefficient is coef[0].  On both forms i + 2j is 3k + 2, so
    the residue check below cannot fail on this layout; it still runs on
    the emitted terms, so that a fault in the layout shows.

    The term order.  The records list their terms sorted by (i, j), and
    that order depends on the positions alone.  Position 2k has i = k and
    position 2k + 1 has i = k + 2, so for each i the low term sits at 2i
    (j = i + 1) and, for i >= 2, the high term at 2i - 3 (j = i - 2 <
    i + 1, so it comes first).  The sorted positions are therefore
    0, 2, 1, 4, 3, 6, 5, ..., a fixed permutation whose restriction to the
    positions below any length is still sorted.  It is computed once per
    call, by sorting the positions below n_max on their monomials, and
    each step emits its nonzero terms in that order.

    The series.  The valuations and leading coefficients are read off
    U_n = (1 + t^3)^n S_n, where S_n = f_n(x(t), y(t)).  Multiplying
    f_n = c_{n-2} f_{n-1} - c_{n-1} x y f_{n-2} by (1 + t^3)^n and using
    x y (1 + t^3)^2 = t^3 gives

        U_n = c_{n-2} (U_{n-1} + t^3 U_{n-1}) - c_{n-1} t^3 U_{n-2},
        U_1 = (1 + t^3) y = t^2,  U_2 = (1 + t^3)^2 (y - x^2) = t^5.

    This is exact at every truncation.  The first `order` coefficients of
    a product depend only on the first `order` of each factor, so the
    recursion run on maps truncated at t^order gives U_n mod t^order, and
    U_n = P S_n mod t^order with P = (1 + t^3)^n.  P has constant term 1,
    so it is a unit mod t^order: U_n vanishes mod t^order exactly when
    S_n does, and if S_n = a t^v + (higher terms) with a != 0 and v < order,
    then U_n = a t^v + (higher terms) too.  The checks below therefore
    see the valuation and the leading coefficient of S_n.

    Why the maps stay small.  U_1 = t^2 and U_2 = t^5, so c_1 = c_2 = 1.
    If c_{n-2} = c_{n-1} = 1, U_{n-1} = t^{3n-4} and U_{n-2} = t^{3n-7},
    then U_n = t^{3n-4} + t^{3n-1} - t^{3n-4} = t^{3n-1}, so c_n = 1.
    Every step therefore reads at most three terms, and 3n - 1 <=
    order - 4 keeps the one term inside the truncation.  The code does not
    assume any of this: it runs the recursion for any c, reads the
    valuation (the smallest exponent in the map) and c_n off the computed
    map, and checks the valuation, the total degree, the y coefficient
    and the residue class i + 2j == 2 (mod 3) of every emitted term at
    every step, so a fault in the recursion raises rather than being
    covered by the proof.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if order is None:
        order = 3 * n_max + 3
    if order < 3 * n_max + 3:
        raise ValueError(f"order {order} too small; need at least {3 * n_max + 3}")
    monomials = [_position_monomial(p) for p in range(n_max)]
    term_order = sorted(range(n_max), key=monomials.__getitem__)
    coefs: list[list[Coeff]] = [[1], [1, -1]]
    # U_n = (1 + t^3)^n f_n(x(t), y(t)) mod t^order: U_1 = t^2, U_2 = t^5
    units: list[dict[int, Coeff]] = [{2: 1}, {5: 1}]
    cs: list[Coeff] = []
    records: list[GermRecord] = []
    for n in range(1, n_max + 1):
        if n > 2:
            c2, c1 = cs[-2], cs[-1]
            coefs.append(_node_step(coefs[-1], coefs[-2], c2, c1))
            units.append(_unit_step(units[-1], units[-2], c2, c1, order))
        coef = coefs[n - 1]
        if len(coef) != n:
            raise RuntimeError(f"step {n}: total degree {len(coef)} != {n}")
        if not coef[0]:
            raise RuntimeError(f"step {n}: vanishing y coefficient")
        terms = tuple([(monomials[p], v) for p in term_order if p < n and (v := coef[p])])
        bad = [(i, j) for (i, j), _ in terms if (i + 2 * j) % 3 != 2]
        if bad:
            raise RuntimeError(f"step {n}: support off the residue class: {bad}")
        unit = units[n - 1]
        val = min(unit) if unit else order
        if val != 3 * n - 1:
            shown = None if val == order else val
            raise RuntimeError(f"step {n}: valuation {shown}, expected {3 * n - 1}")
        c = unit[val]
        cs.append(c)
        records.append(GermRecord(n=n, polynomial=terms, c=c, valuation=val))
    return records


class FlexReport(NamedTuple):
    """Outcome of the flex-model collapse check for one exponent d."""

    d: int
    valuation: int
    collapse_exact: bool  # x^3 + x^2 y - y vanished identically


def _flex_y_power(d: int, order: int) -> list[int]:
    """y^d = t^{3d} / (1 - t^2)^d below t^order, for y = t^3 / (1 - t^2).

    The negative binomial series (1 - u)^{-d} = sum over i >= 0 of
    C(d - 1 + i, i) u^i, at u = t^2, puts C(d - 1 + i, i) on the slot
    t^{3d + 2i} and nothing on any other slot.  The slots t^{3d + 2i}
    below t^order number (order - 3d + 1) // 2, none when 3d >= order."""
    h = [0] * order
    h[3 * d::2] = [comb(d - 1 + i, i) for i in range((order - 3 * d + 1) // 2)]
    return h


def flex_check(d: int, order: int | None = None) -> FlexReport:
    """Certify that y^d + x^3 + x^2 y - y has valuation exactly 3d.

    Along x = t, y = t^3/(1 - t^2) the tail x^3 + x^2 y - y cancels to
    zero, so the whole germ is y^d with valuation 3d on the nose.  Both
    facts are read off int lists truncated at t^order: y^d from
    `_flex_y_power`, and the tail as t^3 plus y shifted by 2, minus y.
    """
    if d <= 2:
        raise ValueError(f"d must be > 2, got {d}")
    if order is None:
        order = 3 * d + 3
    if order < 3 * d + 3:
        raise ValueError(f"order {order} too small; need at least {3 * d + 3}")
    y = _flex_y_power(1, order)
    x3 = [0] * order
    x3[3] = 1
    x2y = [0, 0] + y[:-2]
    tail = list(map(sub, map(add, x3, x2y), y))
    collapse = not any(tail)
    germ = list(map(add, _flex_y_power(d, order), tail))
    val = _leading_zeros(germ)
    if val != 3 * d:
        shown = None if val == order else val
        raise RuntimeError(f"flex germ at d={d}: valuation {shown}, expected {3 * d}")
    return FlexReport(d=d, valuation=val, collapse_exact=collapse)
