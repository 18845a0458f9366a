import random
import time
from fractions import Fraction
from math import comb

import pytest

from unicusp import (
    GermRecord,
    PowerSeries,
    flex_check,
    germ_sequence,
    node_parametrization,
)
from unicusp.germs import _flex_y_power

import oracles


def series(*coeffs):
    return PowerSeries(tuple(Fraction(c) for c in coeffs))


class TestPowerSeries:
    def test_constructors(self):
        z = PowerSeries.zero(4)
        assert z.order == 4
        assert z.valuation() is None
        m = PowerSeries.monomial(2, 5, coeff=3)
        assert m.coeffs == (0, 0, 3, 0, 0)
        assert m.valuation() == 2
        with pytest.raises(ValueError):
            PowerSeries.monomial(5, 5)
        with pytest.raises(ValueError):
            PowerSeries.monomial(-1, 5)

    def test_add_sub_truncate_to_shorter(self):
        a = series(1, 2, 3, 4)
        b = series(1, 1)
        assert (a + b).coeffs == (2, 3)
        assert (a - b).coeffs == (0, 1)
        assert (-a).coeffs == (-1, -2, -3, -4)

    def test_multiplication(self):
        one_plus = series(1, 1, 0, 0, 0)
        one_minus = series(1, -1, 0, 0, 0)
        assert (one_plus * one_minus).coeffs == (1, 0, -1, 0, 0)
        assert (2 * one_plus).coeffs == (2, 2, 0, 0, 0)
        assert (one_plus * Fraction(1, 2)).coeffs == (
            Fraction(1, 2), Fraction(1, 2), 0, 0, 0)

    def test_product_matches_oracle(self):
        # random operands of mixed orders, including the empty and the
        # length-1 series, int, huge int and Fraction coefficients, and
        # squares of one operand
        rng = random.Random(59)
        kinds = {
            "small": lambda: rng.randint(-5, 5),
            "sparse": lambda: rng.choice((0, 0, 0, rng.randint(-3, 3))),
            "huge": lambda: rng.choice((-1, 1)) * rng.getrandbits(rng.randint(300, 340)),
            "rational": lambda: Fraction(rng.randint(-50, 50), rng.randint(1, 30)),
            "huge rational": lambda: Fraction(rng.getrandbits(320) - 2 ** 319,
                                              rng.getrandbits(200) + 1),
        }
        names = sorted(kinds)

        def operand():
            make = kinds[rng.choice(names)]
            return [make() for _ in range(rng.randint(0, 24))]

        for _ in range(600):
            a, b = operand(), operand()
            sa, sb = PowerSeries(tuple(a)), PowerSeries(tuple(b))
            assert (sa * sb).coeffs == tuple(oracles.series_product(a, b)), (a, b)
            assert (sa * sa).coeffs == tuple(oracles.series_product(a, a)), a
            if all(type(c) is int for c in a + b):
                assert all(type(c) is int for c in (sa * sb).coeffs)

    def test_product_edge_operands(self):
        big = 2 ** 300
        cases = [
            ((), ()), ((), (1, 2)), ((0, 0, 0), (4, 5, 6)), ((5,), (-7, 3)),
            ((1, 2, 3, 4, 5), (1, -1)),  # truncates to the shorter operand
            ((-big, big + 1, 0, -3), (big - 1, -big, 7, 2)),
            ((Fraction(1, 3), Fraction(-2, 5)), (Fraction(7, 4), Fraction(3, 10))),
            ((2, -3, 5), (Fraction(1, 6), 0, Fraction(-5, 9))),
            ((Fraction(4, 2), Fraction(-6, 3)), (3, 1)),  # denominators of 1
        ]
        for a, b in cases:
            expect = tuple(oracles.series_product(a, b))
            assert (PowerSeries(a) * PowerSeries(b)).coeffs == expect, (a, b)
            assert (PowerSeries(b) * PowerSeries(a)).coeffs == expect, (a, b)

    def test_product_at_the_width_bound(self):
        # n copies of A times n copies of B: the t^(n-1) coefficient is
        # n*A*B, the bound the slot width must exceed.  At n*A*B = 2^(8m-1)
        # a slot one bit narrower overflows.
        for m in (1, 2, 3, 5):
            for log_n in (0, 1, 3):
                n = 2 ** log_n
                for A, B in ((2 ** (8 * m - 1 - log_n), 1),
                             (2 ** 3, 2 ** (8 * m - 4 - log_n)),
                             (2 ** (8 * m - 1) - 1, 1)):
                    for sign in (1, -1):
                        a, b = (sign * A,) * n, (B,) * n
                        product = (PowerSeries(a) * PowerSeries(b)).coeffs
                        assert product == tuple(oracles.series_product(a, b))
                        assert product[-1] == sign * n * A * B

    def test_product_at_the_word_bounds(self):
        # n copies of A times n copies of B put n*A*B = T in the last
        # coefficient, the bound the slot must exceed.  T just below 2^(w-1)
        # fits a w-bit word slot, and T = 2^(w-1) or 2^(w-1) + 1 needs the
        # next size: the 1, 2, 4 and 8 byte words and the first wide slot.
        for w in (8, 16, 32, 64):
            for T in (2 ** (w - 1) - 2, 2 ** (w - 1) - 1, 2 ** (w - 1), 2 ** (w - 1) + 1):
                splits = [(1, T, 1), (1, 1, T)]
                for n in (2, 3, 7):
                    if T % n == 0:
                        rest = T // n
                        B = next(f for f in (3, 5, 7, 43, 127, rest) if rest % f == 0)
                        splits.append((n, rest // B, B))
                for n, A, B in splits:
                    for sa, sb in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                        a, b = (sa * A,) * n, (sb * B,) * n
                        product = (PowerSeries(a) * PowerSeries(b)).coeffs
                        assert product == tuple(oracles.series_product(a, b)), (n, A, B)
                        assert product[-1] == sa * sb * T
                        assert all(type(c) is int for c in product)
                        square = (PowerSeries(a) ** 2).coeffs
                        assert square == tuple(oracles.series_product(a, a)), (n, A)

    def test_product_trims_leading_zeros(self):
        # valuations va and vb with va + vb at n - 1, n and n + 1, a zero
        # operand, truncation to the shorter operand, squares and rationals
        rng = random.Random(17)
        n = 9

        def with_valuation(v, order, make):
            return (0,) * v + tuple(make() for _ in range(order - v))

        makers = (lambda: rng.choice((-1, 1)) * rng.randint(1, 9),
                  lambda: rng.choice((-1, 1)) * rng.getrandbits(90),
                  lambda: Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 12)))
        for make in makers:
            for va in range(n + 1):
                for vb in range(n + 1):
                    if va + vb not in (n - 1, n, n + 1) and (va + vb) % 4:
                        continue
                    for order_b in (n, n + 3):
                        a = with_valuation(va, n, make)
                        b = with_valuation(vb, order_b, make)
                        expect = tuple(oracles.series_product(a, b))
                        assert (PowerSeries(a) * PowerSeries(b)).coeffs == expect, (a, b)
                        assert (PowerSeries(b) * PowerSeries(a)).coeffs == expect, (a, b)
                s = PowerSeries(with_valuation(va, n, make))
                assert (s * s).coeffs == tuple(oracles.series_product(s.coeffs, s.coeffs))
        zero = PowerSeries.zero(n)
        s = PowerSeries(with_valuation(2, n + 4, makers[0]))
        for product in (zero * s, s * zero, zero * zero):
            assert product.coeffs == (0,) * n
        # neither operand is zero, but va + vb reaches the shorter order
        late = PowerSeries((0,) * n + (5, 6))
        assert (late * s).coeffs == (s * late).coeffs == (0,) * (n + 2)

    def test_scalar_products(self):
        s = PowerSeries((0, 3, -2, 0, 7))
        for product in (s * 1, 1 * s):
            assert product.coeffs == s.coeffs
            assert all(type(c) is int for c in product.coeffs)
        for product in (s * Fraction(1), Fraction(1) * s):
            assert product.coeffs == s.coeffs
            assert all(type(c) is Fraction for c in product.coeffs)
        assert (s * -1).coeffs == (-s).coeffs
        q = series(1, Fraction(1, 2))
        assert (q * 1).coeffs == (1 * q).coeffs == q.coeffs

    def test_powers(self):
        one_plus = series(1, 1, 0, 0, 0)
        assert (one_plus ** 3).coeffs == (1, 3, 3, 1, 0)
        assert (one_plus ** 0).coeffs == (1, 0, 0, 0, 0)
        with pytest.raises(ValueError):
            one_plus ** -1
        binomial = PowerSeries((1, 1) + (0,) * 48)
        for k in range(1, 70):
            assert (binomial ** k).coeffs == tuple(comb(k, i) for i in range(50))

    def test_power_wastes_no_product(self, monkeypatch):
        # bit_length(k) - 1 squarings and popcount(k) - 1 products
        products = []
        mul = PowerSeries.__mul__

        def counted(a, b):
            products.append(b is a)
            return mul(a, b)

        monkeypatch.setattr(PowerSeries, "__mul__", counted)
        base = PowerSeries((1, 2, -1, 0, 3, 0))
        for k in (1, 2, 3, 8, 13, 64, 255):
            products.clear()
            base ** k
            assert products.count(True) == k.bit_length() - 1
            assert products.count(False) == bin(k).count("1") - 1

    def test_reciprocal_roundtrip(self):
        s = series(1, 0, -1, 0, 0, 0, 0, 0)  # 1 - t^2
        prod = s * s.reciprocal()
        assert prod.coeffs == PowerSeries.monomial(0, 8).coeffs
        # geometric series shows up in the inverse
        assert s.reciprocal().coeffs == (1, 0, 1, 0, 1, 0, 1, 0)
        with pytest.raises(ValueError):
            series(0, 1, 2).reciprocal()

    def test_reciprocal_matches_oracle(self):
        # s times its reciprocal is 1 under the oracle's schoolbook product,
        # for sparse, dense and rational series with unit and non-unit
        # constant terms
        rng = random.Random(41)
        order = 16
        kinds = {
            "sparse": lambda: rng.choice((0, 0, 0, 0, rng.randint(-9, 9))),
            "dense": lambda: rng.choice((-1, 1)) * rng.randint(1, 40),
            "rational": lambda: Fraction(rng.randint(-20, 20), rng.randint(1, 9)),
        }
        one = (1,) + (0,) * (order - 1)
        for name, make in sorted(kinds.items()):
            for c0 in (1, -1, 2, -3, Fraction(2, 5)):
                for _ in range(12):
                    s = PowerSeries((c0,) + tuple(make() for _ in range(order - 1)))
                    inverse = s.reciprocal()
                    expect = tuple(oracles.series_product(s.coeffs, inverse.coeffs))
                    assert expect == one, (name, s)
                    assert (s * inverse).coeffs == expect, (name, s)
                    if name != "rational" and c0 in (1, -1):
                        assert all(type(c) is int for c in inverse.coeffs)
        # a single nonzero coefficient past the constant, at a large order
        inverse = PowerSeries((1, 0, -1) + (0,) * 997).reciprocal()
        assert inverse.coeffs == (1, 0) * 500

    def test_integer_series_stay_integer(self):
        s = PowerSeries((1, 2, -1, 0, 3, 0, -2, 1))
        negated = PowerSeries((-1, 0, 0, 4, 0, 0, 0, 0))
        for result in (s * s, s ** 5, s.reciprocal(), negated.reciprocal(), 3 * s,
                       s * negated.reciprocal()):
            assert all(type(c) is int for c in result.coeffs)
        assert (s * s.reciprocal()).coeffs == PowerSeries.monomial(0, 8).coeffs

    def test_rational_fallback(self):
        inverse = PowerSeries((2, -1, 0, 0, 0, 0, 0)).reciprocal()
        assert inverse.coeffs == tuple(Fraction(1, 2 ** (k + 1)) for k in range(7))
        assert all(type(c) is Fraction for c in inverse.coeffs)
        ints = PowerSeries((1, 2, 3, 4))
        q = series(Fraction(1, 3), Fraction(-1, 2), 0, Fraction(5, 7))
        expected = (Fraction(1, 3), Fraction(1, 6), 0, Fraction(23, 42))
        assert (ints * q).coeffs == expected
        assert (q * ints).coeffs == expected
        assert (ints * q * q.reciprocal()).coeffs == ints.coeffs

    def test_valuation(self):
        assert series(0, 0, 0, 5, 7).valuation() == 3
        assert series(1).valuation() == 0
        assert PowerSeries.zero(6).valuation() is None


def test_node_parametrization_shape():
    x, y = node_parametrization(10)
    assert x.coeffs == (0, 1, 0, 0, -1, 0, 0, 1, 0, 0)
    assert y.coeffs == (0, 0, 1, 0, 0, -1, 0, 0, 1, 0)
    with pytest.raises(ValueError):
        node_parametrization(2)


def test_node_parametrization_kills_the_cubic():
    x, y = node_parametrization(40)
    assert (x ** 3 + y ** 3 - x * y).valuation() is None


def test_germ_sequence_valuations_and_leading_coefficients():
    records = germ_sequence(12, 40)
    assert [r.n for r in records] == list(range(1, 13))
    for r in records:
        assert r.valuation == 3 * r.n - 1
        assert r.c == 1
        coeffs = dict(r.polynomial)
        assert coeffs[(0, 1)] == 1
        assert max(i + j for i, j in coeffs) == r.n
        assert all((i + 2 * j) % 3 == 2 for i, j in coeffs)


def test_germ_sequence_matches_oracle_expansion():
    # each f_n, expanded monomial by monomial, vanishes to order 3n - 1
    # with leading coefficient c_n, at the default order and beyond it
    for n_max in range(1, 21):
        default = 3 * n_max + 3
        for order in (default, default + 17):
            records = germ_sequence(n_max, None if order == default else order)
            assert len(records) == n_max
            for r in records:
                expansion = oracles.node_germ_series(dict(r.polynomial), order)
                val = 3 * r.n - 1
                assert not any(expansion[:val])
                assert expansion[val] == r.c


def test_germ_sequence_at_scale():
    for n_max, budget in ((60, 2.0), (150, 10.0)):
        start = time.perf_counter()
        records = germ_sequence(n_max)
        assert time.perf_counter() - start < budget
        assert [(r.n, r.valuation) for r in records] == [
            (n, 3 * n - 1) for n in range(1, n_max + 1)]
        assert all(r.c == 1 for r in records)
        assert all(type(c) is int for r in records for _, c in r.polynomial)
        order = 3 * n_max + 3
        expansion = oracles.node_germ_series(dict(records[-1].polynomial), order)
        assert not any(expansion[:order - 4])
        assert expansion[order - 4] == 1


def _series_space_sequence(n_max, order):
    """The node recursion run on S_n = f_n(x(t), y(t)) itself, with series
    products by x*y, giving the records germ_sequence should give."""
    x, y = node_parametrization(order)
    xy = x * y
    polys = [{(0, 1): 1}, {(0, 1): 1, (2, 0): -1}]
    evals = [y, y - x * x]
    records = []
    for n in range(1, n_max + 1):
        if n > 2:
            c2, c1 = records[-2].c, records[-1].c
            poly = {key: c2 * v for key, v in polys[-1].items()}
            for (i, j), v in polys[-2].items():
                poly[(i + 1, j + 1)] = poly.get((i + 1, j + 1), 0) - c1 * v
            polys.append({key: v for key, v in poly.items() if v})
            evals.append(c2 * evals[-1] - c1 * (xy * evals[-2]))
        series = evals[n - 1]
        val = series.valuation()
        records.append(GermRecord(n=n, polynomial=tuple(sorted(polys[n - 1].items())),
                                  c=series.coeffs[val], valuation=val))
    return records


def test_germ_sequence_matches_series_space_recursion():
    for n_max in range(1, 21):
        for order in (3 * n_max + 3, 3 * n_max + 40):
            records = germ_sequence(n_max, order)
            assert records == _series_space_sequence(n_max, order), (n_max, order)
            assert all(type(r.c) is int for r in records)


def test_germ_sequence_at_the_ceiling():
    start = time.perf_counter()
    records = germ_sequence(200, 1000)
    assert time.perf_counter() - start < 1.0
    assert [(r.n, r.valuation, r.c) for r in records] == [
        (n, 3 * n - 1, 1) for n in range(1, 201)]
    expansion = oracles.node_germ_series(dict(records[-1].polynomial), 1000)
    assert not any(expansion[:599])
    assert expansion[599] == 1


def test_germ_sequence_closed_form_coefficients():
    # with c = 1 the recursion on each diagonal is Pascal's rule, so f_n has
    # (-1)^k C(n-1-k, k) on x^k y^(k+1) and -(-1)^k C(n-2-k, k) on
    # x^(k+2) y^k, and no other term
    start = time.perf_counter()
    records = germ_sequence(200)
    assert time.perf_counter() - start < 1.0
    assert len(records) == 200
    for r in records:
        n = r.n
        expected = {(k, k + 1): (-1) ** k * comb(n - 1 - k, k)
                    for k in range(n) if 2 * k <= n - 1}
        expected.update({(k + 2, k): -(-1) ** k * comb(n - 2 - k, k)
                         for k in range(n) if 2 * k <= n - 2})
        assert dict(r.polynomial) == expected, n
        assert [key for key, _ in r.polynomial] == sorted(expected), n
        assert (r.c, r.valuation) == (1, 3 * n - 1)


def _dense_sequence(n_max, order):
    """The node recursion on dense data: each f_n a dict of monomials and
    each U_n = (1 + t^3)^n f_n(x(t), y(t)) a full coefficient list below
    t^order, with the valuation found by scanning for leading zeros."""
    polys = [{(0, 1): 1}, {(0, 1): 1, (2, 0): -1}]
    units = [[0] * order, [0] * order]
    units[0][2] = units[1][5] = 1
    records = []
    for n in range(1, n_max + 1):
        if n > 2:
            c2, c1 = records[-2].c, records[-1].c
            poly = {key: c2 * v for key, v in polys[-1].items()}
            for (i, j), v in polys[-2].items():
                poly[(i + 1, j + 1)] = poly.get((i + 1, j + 1), 0) - c1 * v
            polys.append({key: v for key, v in poly.items() if v})
            u1 = [c2 * v for v in units[-1]]
            u2 = [c1 * v for v in units[-2]]
            units.append(u1[:3] + [u1[k] + u1[k - 3] - u2[k - 3] for k in range(3, order)])
        unit = units[n - 1]
        val = next(k for k, v in enumerate(unit) if v)
        records.append(GermRecord(n=n, polynomial=tuple(sorted(polys[n - 1].items())),
                                  c=unit[val], valuation=val))
    return records


def test_germ_sequence_matches_dense_recursion():
    start = time.perf_counter()
    for n_max in range(1, 61):
        for order in (3 * n_max + 3, 3 * n_max + 17):
            assert germ_sequence(n_max, order) == _dense_sequence(n_max, order), (n_max, order)
    for n_max, order in ((200, 603), (200, 1000)):
        assert germ_sequence(n_max, order) == _dense_sequence(n_max, order), (n_max, order)
    assert time.perf_counter() - start < 10.0


def test_germ_sequence_first_three_polynomials():
    records = germ_sequence(3)
    assert records[0].polynomial == (((0, 1), Fraction(1)),)
    assert records[1].polynomial == (((0, 1), Fraction(1)), ((2, 0), Fraction(-1)))
    assert records[2].polynomial == (
        ((0, 1), Fraction(1)), ((1, 2), Fraction(-1)), ((2, 0), Fraction(-1)))


def test_germ_third_step_recomputed_directly():
    # y - x^2 - x y^2 along the node parametrization, assembled by hand
    x, y = node_parametrization(12)
    f3 = y - x * x - x * y * y
    assert f3.valuation() == 8


def test_germ_sequence_validation():
    with pytest.raises(ValueError):
        germ_sequence(0)
    with pytest.raises(ValueError):
        germ_sequence(5, order=17)
    assert len(germ_sequence(5, order=18)) == 5


def test_flex_check_range():
    for d in range(3, 11):
        report = flex_check(d, 3 * d + 5)
        assert report.d == d
        assert report.valuation == 3 * d
        assert report.collapse_exact


def test_flex_check_at_scale():
    start = time.perf_counter()
    report = flex_check(400)
    assert time.perf_counter() - start < 10.0
    assert (report.d, report.valuation, report.collapse_exact) == (400, 1200, True)


def test_flex_check_default_order_and_validation():
    assert flex_check(7).valuation == 21
    with pytest.raises(ValueError):
        flex_check(2)
    with pytest.raises(ValueError):
        flex_check(5, order=10)


def test_flex_y_power_matches_oracle_products():
    # y^d from d running-sum passes equals y multiplied by itself d times
    # under the oracle's schoolbook product, at the default order, past it,
    # and where t^{3d} is at or beyond the truncation
    for d, order in ((1, 8), (3, 12), (3, 40), (4, 12), (5, 15), (5, 18), (5, 45),
                     (8, 27), (8, 60), (12, 39), (12, 70), (17, 80)):
        y = [1 if k >= 3 and k % 2 else 0 for k in range(order)]
        expect = y
        for _ in range(d - 1):
            expect = oracles.series_product(expect, y)
        power = _flex_y_power(d, order)
        assert power == expect, (d, order)
        assert all(type(c) is int for c in power)
        assert power == list((PowerSeries(tuple(y)) ** d).coeffs), (d, order)


def test_flex_check_makes_no_series_product(monkeypatch):
    def refuse(*args):
        raise AssertionError("flex_check used PowerSeries arithmetic")

    for name in ("__mul__", "__rmul__", "__pow__", "reciprocal"):
        monkeypatch.setattr(PowerSeries, name, refuse)
    for d, order in ((3, 12), (37, 120), (300, 1000)):
        report = flex_check(d, order)
        assert (report.valuation, report.collapse_exact) == (3 * d, True)
