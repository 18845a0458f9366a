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
multiplying by x y moves a term one place along its own diagonal, so every
f_n lives on these two diagonals and is held as two int lists, one per
diagonal; a step is one scaled subtraction on each list.
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
exactly 3d.  Dividing a series by 1 - t^2 is h[k] += h[k - 2] for rising
k, that is, one running sum over the even slots and one over the odd
slots.  So y is t^3 after one such division and y^d = t^{3d} / (1 - t^2)^d
is t^{3d} after d of them, each a single running sum over the slots
t^{3d + 2i}, the only ones that fill.  The tail x^3 + x^2 y - y is t^3
plus y shifted by 2, minus y.  The collapse and the valuation are read
off these computed lists, not assumed.
"""

from __future__ import annotations

from itertools import accumulate, takewhile
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
    it up (ROADMAP item 3)."""

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


def _diagonal_step(prev: list[Coeff], prev2: list[Coeff], c2: Coeff, c1: Coeff) -> list[Coeff]:
    """c2 * prev[k] - c1 * prev2[k - 1] for every k, trailing zeros trimmed:
    one diagonal of c2 f_{n-1} - c1 x y f_{n-2}, where x y moves each term
    of f_{n-2} one place along its diagonal."""
    out = [c2 * v for v in prev]
    out += [0] * (len(prev2) + 1 - len(out))
    for k, v in enumerate(prev2, 1):
        out[k] -= c1 * v
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
    forms x^k y^(k+1) (the low diagonal) and x^(k+2) y^k (the high one),
    and x y maps each form to itself with k + 1 for k.  So f_n is two int
    lists, low[k] on x^k y^(k+1) and high[k] on x^(k+2) y^k, and the
    recursion runs on each list alone:

        L_n[k] = c_{n-2} L_{n-1}[k] - c_{n-1} L_{n-2}[k - 1],

    with trailing zeros trimmed.  A low term has total degree 2k + 1 and a
    high term 2k + 2, so the total degree is max(2 len(low) - 1,
    2 len(high)), and the y coefficient is low[0].  On both diagonals
    i + 2j is 3k + 2, so the residue check below cannot fail on lists the
    recursion built; it still runs on the emitted terms, so that a fault
    in the term layout shows.

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
    # f_n = sum of low[k] x^k y^(k+1) + high[k] x^(k+2) y^k
    lows: list[list[Coeff]] = [[1], [1]]
    highs: list[list[Coeff]] = [[], [-1]]
    # U_n = (1 + t^3)^n f_n(x(t), y(t)) mod t^order: U_1 = t^2, U_2 = t^5
    units: list[dict[int, Coeff]] = [{2: 1}, {5: 1}]
    cs: list[Coeff] = []
    records: list[GermRecord] = []
    for n in range(1, n_max + 1):
        if n > 2:
            c2, c1 = cs[-2], cs[-1]
            lows.append(_diagonal_step(lows[-1], lows[-2], c2, c1))
            highs.append(_diagonal_step(highs[-1], highs[-2], c2, c1))
            units.append(_unit_step(units[-1], units[-2], c2, c1, order))
        low, high = lows[n - 1], highs[n - 1]
        degree = max(2 * len(low) - 1, 2 * len(high))
        if degree != n:
            raise RuntimeError(f"step {n}: total degree {degree} != {n}")
        if not low or low[0] == 0:
            raise RuntimeError(f"step {n}: vanishing y coefficient")
        # the records list their terms sorted by (i, j)
        terms = sorted([((k, k + 1), v) for k, v in enumerate(low) if v]
                       + [((k + 2, k), v) for k, v in enumerate(high) if v])
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
        records.append(GermRecord(n=n, polynomial=tuple(terms), c=c, valuation=val))
    return records


class FlexReport(NamedTuple):
    """Outcome of the flex-model collapse check for one exponent d."""

    d: int
    valuation: int
    collapse_exact: bool  # x^3 + x^2 y - y vanished identically


def _flex_y_power(d: int, order: int) -> list[int]:
    """y^d = t^{3d} / (1 - t^2)^d below t^order, for y = t^3 / (1 - t^2).

    Dividing h by 1 - t^2 is g[k] = h[k] + g[k - 2]: a running sum over the
    even slots and one over the odd slots.  Starting from t^{3d}, only the
    slots t^{3d + 2i} are ever nonzero, so each of the d divisions is one
    running sum over those."""
    h = [0] * order
    if 3 * d < order:
        steps = [1] + [0] * ((order - 3 * d - 1) // 2)
        for _ in range(d):
            steps = list(accumulate(steps))
        h[3 * d::2] = steps
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
