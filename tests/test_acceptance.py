"""Acceptance suite: one test per shipped criterion, each timed against
its stated budget.  Every test recomputes its expected values from an
independent brute-force path (tests/oracles.py) or from frozen constants
established the same way.
"""

import random
import time
from bisect import bisect_left
from decimal import Decimal, localcontext
from fractions import Fraction
from math import gcd

from unicusp import (
    GapFunction,
    QuadInt,
    Semigroup,
    asymptote_slopes,
    check_multi,
    check_single,
    convolve,
    coprime_decompose,
    cremona_step,
    degree_for,
    enumerate_candidates,
    fibonacci,
    flex_check,
    generating_set,
    germ_sequence,
    has_solution,
    lucas,
    lucas_family,
    lucas_family_neg,
    pair_to_element,
    phi_power,
    verify_fibonacci_identities,
)

import oracles


def test_criterion_01_counting_matches_sieve():
    start = time.monotonic()
    for a in range(1, 13):
        for b in range(13, 51):
            if gcd(a, b) != 1:
                continue
            s = Semigroup(a, b)
            delta = s.delta
            elems = oracles.sieve_elements(a, b, 2 * delta + 21)
            gaps = oracles.gap_list(a, b)
            for m in range(-20, 2 * delta + 21):
                r = s.elements_below(m)
                i = s.gaps_at_least(m)
                assert r == (bisect_left(elems, m) if m > 0 else 0)
                if m <= 0:
                    assert i == len(gaps) - m
                else:
                    assert i == len(gaps) - bisect_left(gaps, m)
                assert r == m - delta + i
    assert time.monotonic() - start < 5.0


def test_criterion_02_shifted_pairs():
    start = time.monotonic()
    for p in (2, 4, 5, 7, 8, 10):
        accept = check_single(p, p + 3, p + 2, p + 3)
        assert accept.admissible, (p, "expected acceptance at degree p+3")
        assert oracles.brute_admissible(p, p + 3, p + 2, p + 3) == (True, None), p
        reject = check_single(p, p + 3, 1, p + 2)
        witness = reject.witness and (reject.witness.j, reject.witness.k)
        assert oracles.brute_admissible(p, p + 3, 1, p + 2) == (
            reject.admissible,
            witness,
        ), p
        if 2 * p > p + 3:
            assert not reject.admissible and witness == (1, 0), p
        else:
            # The family argument needs 2p > p+3, so p = 2 is no rejection:
            # F = x^4 + x^3 y - 2x^2 yz + y^3 z + y^2 z^2 is an irreducible
            # quartic whose only singular point is [0:0:1].  With z = 1 and
            # u = y - x^2, F = u^2 + x^5 + x^3 u + (u + x^2)^3, principal
            # part u^2 + x^5 for weights (2, 5): one <2,5> cusp, delta 2,
            # genus 3 - 2 = 1.  Such a curve exists, so the whole d(g+1)
            # grid must stay in range.
            assert reject.admissible and reject.witness is None, p
            assert reject.checks_performed == 8, p
    assert time.monotonic() - start < 1.0


def test_criterion_03_doubled_pairs():
    start = time.monotonic()
    expected_lower = {
        3: [],
        4: [(6, 1)],
        5: [(8, 5)],
        6: [(9, 3), (10, 11)],
        7: [(10, 0), (11, 9), (12, 19)],
        8: [(12, 6), (13, 17), (14, 29)],
    }
    for p in range(3, 9):
        base = 2 * (p - 1) * (p - 1)
        lowers = []
        for d in range(1, 2 * p - 1):
            twice_g = (d - 1) * (d - 2) - base
            if twice_g < 0:
                continue
            g = twice_g // 2
            lowers.append((d, g))
            assert not check_single(p, 2 * p - 1, g, d).admissible, (p, d, g)
        assert lowers == expected_lower[p]
        accept = check_single(p, 2 * p - 1, (p - 1) * (p - 2), 2 * p - 1)
        assert accept.admissible, p
    assert time.monotonic() - start < 1.0


def test_criterion_04_genus_one_sweep():
    start = time.monotonic()
    report = enumerate_candidates(1, 60, allow_smooth=True, jobs=4)
    triples = oracles.brute_enumerate(1, 60, allow_smooth=True)
    assert [(c.a, c.b, c.d) for c in report.candidates] == triples
    oracle_admissible = [
        (a, b, d) for a, b, d in triples if oracles.brute_admissible(a, b, 1, d)[0]
    ]
    assert [(c.a, c.b, c.d) for c in report.admissible] == oracle_admissible
    for c in report.admissible:
        if c.d > 33:
            on_family = c.b == 9 * c.a + 1 and c.d == 3 * c.a
            assert c.on_3d_line or on_family, (c.a, c.b, c.d)
    assert time.monotonic() - start < 60.0


def test_criterion_05_insolvable_genera():
    start = time.monotonic()
    for g in (2, 4, 7, 9, 12, 14):
        n = 4 * (2 * g - 1)
        assert not has_solution(n), n
        assert coprime_decompose(n) is None, n
        assert oracles.pell_solutions(n, 10_000) == [], n
    assert time.monotonic() - start < 5.0


def test_criterion_06_coprime_classes():
    start = time.monotonic()
    for n in range(1, 2001):
        structural = coprime_decompose(n) is not None
        scanned = oracles.has_coprime_solution(n, 500)
        assert structural == scanned, n
    dec = coprime_decompose(209)
    assert dec.class_count == 2
    assert len(generating_set(209)) == 2
    assert time.monotonic() - start < 10.0


def test_criterion_07_lucas_ladders():
    start = time.monotonic()
    for k in range(2, 7):
        g = k * (k - 1) // 2
        rungs = {}
        for i in range(2, 7):
            c = lucas_family(k, i)
            assert (c.a, c.b, c.d, c.g) == (
                lucas(k, 4 * i - 3), lucas(k, 4 * i + 1), lucas(k, 4 * i - 1), g)
            assert c.on_3d_line and c.element is not None
            rungs[i] = c
        for j in range(1, 6):
            c = lucas_family_neg(k, j)
            assert (c.a, c.b, c.d, c.g) == (
                -lucas(k, -4 * j + 1), -lucas(k, -4 * j - 3), -lucas(k, -4 * j - 1), g)
            assert c.on_3d_line and c.element is not None
        for i in range(2, 6):
            cur, nxt = rungs[i], rungs[i + 1]
            assert cremona_step(cur.a, cur.b, "1") == (nxt.a, nxt.b)
    assert time.monotonic() - start < 1.0


def test_criterion_08_correspondence_elements():
    start = time.monotonic()
    assert pair_to_element(1, 8) == QuadInt.from_sqrt5(18, 8)
    assert pair_to_element(1, 11) == QuadInt.from_sqrt5(25, 11)
    zeta = pair_to_element(1, 11)
    coincidence = zeta * phi_power(2)
    assert coincidence == (zeta * phi_power(-12)).conjugate()
    assert coincidence == QuadInt(130, 58)
    assert QuadInt.from_sqrt5(57, 25).norm() == 4 * 31
    assert time.monotonic() - start < 1.0


def test_criterion_09_fibonacci_identities():
    start = time.monotonic()
    report = verify_fibonacci_identities(40)
    assert report.all_hold and report.failures == ()
    assert report.lim_gap_lower < 1e-30 and report.lim_gap_upper < 1e-30
    # recompute both limit gaps from their definitions,
    # |F_79^2 phi^4 - F_81^2 - (2/5)(phi^4 - 1)| and
    # |F_79^2 - F_81^2 phi^-4 - (2/5)(1 - phi^-4)|, to 2000 digits; the
    # reported floats must agree to a relative 1e-14 (about 45 float ulps)
    with localcontext() as ctx:
        ctx.prec = 2000
        phi4 = ((1 + Decimal(5).sqrt()) / 2) ** 4
        f1, f2 = Decimal(fibonacci(79)), Decimal(fibonacci(81))
        lower = abs(f1 * f1 * phi4 - f2 * f2 - Decimal(2) / 5 * (phi4 - 1))
        upper = abs(f1 * f1 - f2 * f2 / phi4 - Decimal(2) / 5 * (1 - 1 / phi4))
    assert abs(report.lim_gap_lower - float(lower)) <= 1e-14 * float(lower)
    assert abs(report.lim_gap_upper - float(upper)) <= 1e-14 * float(upper)

    sp = asymptote_slopes(Fraction(1, 3), Fraction(1, 3))
    assert (sp.rational_part, sp.surd_coeff, sp.radicand) == (
        Fraction(7, 2), Fraction(3, 2), 5)
    assert time.monotonic() - start < 1.0


def test_criterion_10_germ_valuations():
    start = time.monotonic()
    records = germ_sequence(12, 40)
    assert len(records) == 12
    for r in records:
        assert r.valuation == 3 * r.n - 1
        assert r.c != 0
    for d in range(3, 11):
        report = flex_check(d, 3 * d + 5)
        assert report.valuation == 3 * d
        assert report.collapse_exact
    assert time.monotonic() - start < 5.0


def test_criterion_11_multi_single_and_convolution():
    start = time.monotonic()
    for c in enumerate_candidates(1, 60, allow_smooth=True).candidates:
        single = check_single(c.a, c.b, c.g, c.d)
        multi = check_multi([(c.a, c.b)], c.g, c.d)
        assert multi == single, (c.a, c.b, c.d)

    rng = random.Random(7)
    pool = [Semigroup(a, b).gap_function()
            for a in range(2, 6) for b in range(a + 1, 17) if gcd(a, b) == 1]
    zero = GapFunction.zero()
    for trial in range(200):
        f, g = rng.choice(pool), rng.choice(pool)
        assert convolve(f, zero) == f
        assert convolve(f, g) == convolve(g, f)
        if trial % 3 == 0:
            h = rng.choice(pool)
            assert convolve(convolve(f, g), h) == convolve(f, convolve(g, h))
    assert time.monotonic() - start < 10.0


def test_criterion_12_genus_zero_families():
    start = time.monotonic()
    report = enumerate_candidates(0, 15, allow_smooth=True)
    admissible = [(c.a, c.b, c.d) for c in report.admissible]

    expected = [(1, 2, 1), (1, 5, 2), (3, 22, 8)]  # smooth slots + sporadic
    expected += [(l, l + 1, l + 1) for l in range(2, 15)]
    expected += [(l, 4 * l - 1, 2 * l) for l in range(2, 8)]
    for l in range(2, 5):
        a, b = fibonacci(2 * l - 1), fibonacci(2 * l + 3)
        d = fibonacci(2 * l + 1)
        if d <= 15:
            expected.append((a, b, d))
        sq = fibonacci(2 * l - 1) * fibonacci(2 * l + 1)
        if sq <= 15:
            expected.append((fibonacci(2 * l - 1) ** 2, fibonacci(2 * l + 1) ** 2, sq))
    expected.sort(key=lambda t: (t[2], t[0]))
    assert admissible == expected

    # without the smooth slots the same families remain, minus the a=1 reps
    no_smooth = enumerate_candidates(0, 15, allow_smooth=False)
    assert [(c.a, c.b, c.d) for c in no_smooth.admissible] == [
        t for t in expected if t[0] != 1]

    # the Fibonacci degree identities are exact well past the sweep bound
    for l in range(2, 13):
        assert degree_for(fibonacci(2 * l - 1), fibonacci(2 * l + 3), 0) == \
            fibonacci(2 * l + 1)
        assert degree_for(fibonacci(2 * l - 1) ** 2, fibonacci(2 * l + 1) ** 2, 0) == \
            fibonacci(2 * l - 1) * fibonacci(2 * l + 1)
    assert time.monotonic() - start < 30.0


def test_measured_pattern_cusps_with_b_at_most_d_are_admissible():
    # A measured pattern, not a theorem: every valid single cusp <a, b> at
    # a degree d >= b passes the whole grid.  It held on all 261,180 valid
    # inputs with 1 <= a < b < 120 and b <= d < b + 60 (254,100 of them
    # with a >= 2), each through `check_single`; here it is held on
    # b < 50 and b <= d < b + 30 through `check_single` (about 2 s), and on
    # b < 16 and b <= d < b + 6 through the oracle's full grid.  The level
    # certificate proves only the rows up to x* // d (and every row at
    # g = 0); `check_single` still scans the rest, so it does not rely on
    # the pattern.
    start = time.monotonic()
    checked = 0
    for b in range(2, 50):
        for a in range(1, b):
            if gcd(a, b) != 1:
                continue
            for d in range(b, b + 30):
                genus = ((d - 1) * (d - 2) - (a - 1) * (b - 1)) // 2
                assert check_single(a, b, genus, d).admissible, (a, b, genus, d)
                checked += 1
                if b < 16 and d < b + 6:
                    assert oracles.brute_admissible(a, b, genus, d) == (True, None)
    assert checked == 22590, checked
    assert time.monotonic() - start < 20.0
