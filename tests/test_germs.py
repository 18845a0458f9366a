import time
from fractions import Fraction
from math import comb

import pytest

from unicusp import GermRecord, flex_check, germ_sequence, germs
from unicusp.germs import _flex_y_power, _leading_zeros

import oracles


def test_leading_zeros():
    assert _leading_zeros([0, 0, 0, 5, 7]) == 3
    assert _leading_zeros([Fraction(0), Fraction(0), Fraction(1, 2)]) == 2
    assert _leading_zeros([1]) == 0
    assert _leading_zeros([0] * 6) == 6
    assert _leading_zeros([]) == 0


def _valuation(coeffs):
    """The index of the first nonzero coefficient, None for a zero list."""
    return next((k for k, v in enumerate(coeffs) if v), None)


def test_node_parametrization_kills_the_cubic():
    # x^3 + y^3 - x y along x = t/(1 + t^3), y = t^2/(1 + t^3)
    cubic = oracles.node_germ_series({(3, 0): 1, (0, 3): 1, (1, 1): -1}, 40)
    assert len(cubic) == 40
    assert _valuation(cubic) is None


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
    """The node recursion run on S_n = f_n(x(t), y(t)) itself, as oracle
    coefficient lists, with products by x*y, giving the records
    germ_sequence should give."""
    x = oracles.node_germ_series({(1, 0): 1}, order)
    y = oracles.node_germ_series({(0, 1): 1}, order)
    xy = oracles.series_product(x, y)
    polys = [{(0, 1): 1}, {(0, 1): 1, (2, 0): -1}]
    evals = [y, [u - v for u, v in zip(y, oracles.series_product(x, x))]]
    records = []
    for n in range(1, n_max + 1):
        if n > 2:
            c2, c1 = records[-2].c, records[-1].c
            poly = {key: c2 * v for key, v in polys[-1].items()}
            for (i, j), v in polys[-2].items():
                poly[(i + 1, j + 1)] = poly.get((i + 1, j + 1), 0) - c1 * v
            polys.append({key: v for key, v in poly.items() if v})
            shifted = oracles.series_product(xy, evals[-2])
            evals.append([c2 * u - c1 * v for u, v in zip(evals[-1], shifted)])
        series = evals[n - 1]
        val = _valuation(series)
        records.append(GermRecord(n=n, polynomial=tuple(sorted(polys[n - 1].items())),
                                  c=series[val], valuation=val))
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
    # y - x^2 - x y^2 along the node parametrization, expanded by the oracle
    f3 = oracles.node_germ_series({(0, 1): 1, (2, 0): -1, (1, 2): -1}, 12)
    assert _valuation(f3) == 8


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
    # y^d from its binomial coefficients equals y multiplied by itself d times
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


def test_flex_y_power_matches_running_sum_oracle():
    # the binomial coefficients against d divisions by 1 - t^2, for every d
    # up to the --flex ceiling, at the default order, one past it and at the
    # order ceiling
    for d in range(1, 301):
        for order in (3 * d + 3, 3 * d + 4, 1000):
            assert _flex_y_power(d, order) == oracles.flex_y_power(d, order), (d, order)


@pytest.mark.parametrize("name, fault, message", [
    # a stray top-degree term
    ("_node_step", lambda step: lambda *args: step(*args) + [1],
     "step 3: total degree 4 != 3"),
    # the y coefficient lost
    ("_node_step", lambda step: lambda *args: [0] + step(*args)[1:],
     "step 3: vanishing y coefficient"),
    # a layout that puts x^3 where x^2 belongs
    ("_position_monomial", lambda layout: lambda p: (3, 0) if p == 1 else layout(p),
     "step 2: support off the residue class: [(3, 0)]"),
    # a unit series one degree too high, and one that vanishes
    ("_unit_step", lambda unit: lambda *args: {e + 1: v for e, v in unit(*args).items()},
     "step 3: valuation 9, expected 8"),
    ("_unit_step", lambda unit: lambda *args: {},
     "step 3: valuation None, expected 8"),
])
def test_germ_sequence_guards(monkeypatch, name, fault, message):
    # each fault wraps the original helper
    monkeypatch.setattr(germs, name, fault(getattr(germs, name)))
    with pytest.raises(RuntimeError) as excinfo:
        germ_sequence(6)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("fault, message", [
    # y^d two slots too high, and y^d lost; y itself is left alone
    (lambda power: lambda d, order: [0, 0] + power(d, order)[:-2] if d > 1 else power(d, order),
     "flex germ at d=5: valuation 17, expected 15"),
    (lambda power: lambda d, order: [0] * order if d > 1 else power(d, order),
     "flex germ at d=5: valuation None, expected 15"),
])
def test_flex_check_guard(monkeypatch, fault, message):
    monkeypatch.setattr(germs, "_flex_y_power", fault(germs._flex_y_power))
    with pytest.raises(RuntimeError) as excinfo:
        flex_check(5)
    assert str(excinfo.value) == message
