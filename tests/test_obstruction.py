import itertools
import random
import time

import pytest

from unicusp import (
    Semigroup,
    check_multi,
    check_single,
    convolve,
    lucas_family,
    triangle_lower,
    triangle_upper,
)
from unicusp import obstruction

import oracles


def test_degree_genus_precondition():
    # <4,7> has delta 9: degree 6 pairs with genus 1, nothing else
    with pytest.raises(ValueError):
        check_single(4, 7, 6, 6)
    with pytest.raises(ValueError):
        check_single(4, 7, 1, 7)
    check_single(4, 7, 1, 6)


def test_rejection_with_witness():
    v = check_single(4, 7, 1, 6)
    assert not v.admissible
    assert (v.witness.j, v.witness.k) == (1, 0)
    assert v.witness.side == "lower"
    assert v.witness.triangular == 3
    # lex-minimal witness: no earlier (j, k) cell fails
    assert v.checks_performed == 5  # j=-1: k=0,1; j=0: k=0,1; j=1: k=0


def test_acceptance_counts_all_cells():
    g, d = 1, 6
    v = check_single(3, 10, g, d)
    assert v.admissible and v.witness is None
    assert v.checks_performed == (d - 2 + 2) * (g + 1)


def test_shifted_pair_family():
    # (p, p+3) at its own degree p+3 passes; at degree p+2 (forcing genus 1)
    # it fails with the same witness cell for every p > 3
    for p in (4, 5, 7, 8, 10):
        ok = check_single(p, p + 3, p + 2, p + 3)
        assert ok.admissible, p
        bad = check_single(p, p + 3, 1, p + 2)
        assert not bad.admissible and (bad.witness.j, bad.witness.k) == (1, 0), p
    # p=2 collapses to (2,5) at degree 4, which genuinely passes every cell
    assert check_single(2, 5, 1, 4).admissible


def test_doubled_pair_family():
    lower = {3: [], 4: [(6, 1)], 5: [(8, 5)], 6: [(9, 3), (10, 11)],
             7: [(10, 0), (11, 9), (12, 19)], 8: [(12, 6), (13, 17), (14, 29)]}
    for p, cases in lower.items():
        for d, g in cases:
            assert not check_single(p, 2 * p - 1, g, d).admissible, (p, d)
        assert check_single(p, 2 * p - 1, (p - 1) * (p - 2), 2 * p - 1).admissible, p


def test_matches_brute_force():
    rng = random.Random(17)
    pairs = []
    for a in range(1, 9):
        for b in range(a + 1, 40):
            if oracles.gcd(a, b) == 1:
                pairs.append((a, b))
    rng.shuffle(pairs)
    checked = 0
    for a, b in pairs:
        delta = (a - 1) * (b - 1) // 2
        for g in range(0, 6):
            disc = 8 * delta + 8 * g + 1
            root = oracles.isqrt(disc)
            if root * root != disc:
                continue
            d = (root + 3) // 2
            if d < 1 or (d - 1) * (d - 2) != 2 * (g + delta):
                continue
            verdict = check_single(a, b, g, d)
            expect_ok, expect_cell = oracles.brute_admissible(a, b, g, d)
            assert verdict.admissible == expect_ok, (a, b, g, d)
            if not expect_ok:
                assert (verdict.witness.j, verdict.witness.k) == expect_cell
            checked += 1
        if checked > 120:
            break
    assert checked > 60


def test_triangle_specializations():
    # k=0 row and k=g row of the full grid, as standalone predicates
    s = Semigroup(4, 7)
    g, d = 1, 6
    v = check_single(4, 7, g, d)
    lower_all = all(triangle_lower(s, d, j) for j in range(0, d - 1))
    upper_all = all(triangle_upper(s, d, g, j) for j in range(0, d - 1))
    assert not (lower_all and upper_all) or v.admissible is True
    # the known failure at j=1: Gamma(3) = 7 > 6 = j*d
    assert not triangle_lower(s, d, 1)
    with pytest.raises(ValueError):
        triangle_lower(s, d, -1)
    with pytest.raises(ValueError):
        triangle_lower(s, d, d - 1)


def test_triangle_consistency_with_grid():
    rng = random.Random(23)
    for _ in range(40):
        a = rng.randrange(2, 7)
        b = rng.randrange(a + 1, 25)
        if oracles.gcd(a, b) != 1:
            continue
        delta = (a - 1) * (b - 1) // 2
        for g in range(0, 4):
            disc = 8 * delta + 8 * g + 1
            root = oracles.isqrt(disc)
            if root * root != disc or (root + 3) % 2:
                continue
            d = (root + 3) // 2
            if (d - 1) * (d - 2) != 2 * (g + delta):
                continue
            s = Semigroup(a, b)
            ok = check_single(a, b, g, d).admissible
            rows = all(
                triangle_lower(s, d, j) and triangle_upper(s, d, g, j)
                for j in range(0, d - 1)
            )
            if ok:
                assert rows, (a, b, g, d)


def test_multi_single_pair_agreement():
    for a, b, g, d in [(4, 7, 1, 6), (3, 10, 1, 6), (2, 5, 1, 4), (3, 28, 1, 9),
                       (5, 8, 7, 8), (4, 7, 6, 7)]:
        v1 = check_single(a, b, g, d)
        vm = check_multi([(a, b)], g, d)
        assert v1.admissible == vm.admissible
        if v1.witness is not None:
            assert (v1.witness.j, v1.witness.k, v1.witness.side) == (
                vm.witness.j, vm.witness.k, vm.witness.side)


def test_multi_cusp_examples():
    # two cusps (2,3) and (2,5): total delta 3 pairs with (g=3, d=5)
    v = check_multi([(2, 3), (2, 5)], 3, 5)
    assert v.admissible
    # two-cusp quartic of genus 1, and the single cuspidal cubic
    v = check_multi([(2, 3), (2, 3)], 1, 4)
    assert v.admissible and v.checks_performed == 8
    v = check_multi([(2, 3)], 0, 3)
    assert v.admissible and v.checks_performed == 3
    # degree off the degree-genus identity is rejected up front
    with pytest.raises(ValueError):
        check_multi([(2, 3), (2, 5)], 0, 5)
    with pytest.raises(ValueError):
        check_multi([], 1, 3)


def test_multi_rejects_like_single_on_product():
    # convolving a gap function with zero parts changes nothing, so a
    # rejected single-cusp candidate stays rejected through the multi path
    v = check_multi([(4, 7)], 1, 6)
    assert not v.admissible and (v.witness.j, v.witness.k) == (1, 0)


def test_verdict_is_deterministic():
    a = check_single(5, 8, 7, 8)
    b = check_single(5, 8, 7, 8)
    assert a == b


def _position(verdict, genus, degree):
    """checks_performed implied by the witness cell, or the full grid."""
    if verdict.witness is None:
        return degree * (genus + 1)
    return (verdict.witness.j + 1) * (genus + 1) + verdict.witness.k + 1


def test_grid_matches_oracle_on_enumerated_candidates():
    # every candidate with g <= 6 and d <= 40, single and one-pair multi path
    checked = rejected = 0
    for g in range(0, 7):
        for a, b, d in oracles.brute_enumerate(g, 40):
            expect_ok, expect_cell = oracles.brute_admissible(a, b, g, d)
            for v in (check_single(a, b, g, d), check_multi([(a, b)], g, d)):
                assert v.admissible == expect_ok, (a, b, g, d)
                if not expect_ok:
                    assert (v.witness.j, v.witness.k) == expect_cell, (a, b, g, d)
                assert v.checks_performed == _position(v, g, d), (a, b, g, d)
            checked += 1
            rejected += not expect_ok
    assert checked > 1000 and 0 < rejected < checked


def test_lucas_rung_beyond_sieve_scale():
    # lucas_family(2, 6): local delta about 6.3e8, full grid of 2 * 46368 cells
    c = lucas_family(2, 6)
    assert (c.d, c.g) == (46368, 1)
    start = time.perf_counter()
    v = check_single(c.a, c.b, c.g, c.d)
    elapsed = time.perf_counter() - start
    assert v.admissible and v.witness is None
    assert v.checks_performed == 2 * 46368
    assert elapsed < 5.0, elapsed


def _random_configs(rng, count, a_max, b_max):
    """(pairs, genus, degree) with one to three cusps, at the smallest
    degree the degree-genus identity allows or (one time in three) the
    next one, so the genus stays small and many inputs are rejected."""
    cusps = [(a, b) for a in range(2, a_max + 1) for b in range(a + 1, b_max)
             if oracles.gcd(a, b) == 1]
    out = []
    for _ in range(count):
        pairs = [rng.choice(cusps) for _ in range(rng.choice((1, 1, 1, 2, 2, 3)))]
        delta = sum((a - 1) * (b - 1) // 2 for a, b in pairs)
        d = next(d for d in range(1, 100) if (d - 1) * (d - 2) >= 2 * delta)
        d += rng.randrange(3) == 0
        out.append((pairs, (d - 1) * (d - 2) // 2 - delta, d))
    return out


def _verdict_tuple(v):
    w = v.witness
    return (v.admissible, None if w is None else (w.j, w.k, w.side, w.lhs_value),
            v.checks_performed)


def test_grid_is_centrally_symmetric():
    # value(j, k) = value(d-3-j, g-k) over the whole oracle grid
    sizes = {1: 0, 2: 0, 3: 0}
    for pairs, g, d in _random_configs(random.Random(31), 150, 5, 14):
        cells = {(j, k): value for j, k, value in oracles.brute_multi_cells(pairs, g, d)}
        assert len(cells) == d * (g + 1)
        for (j, k), value in cells.items():
            assert cells[(d - 3 - j, g - k)] == value, (pairs, g, d, j, k)
        sizes[len(pairs)] += 1
    assert min(sizes.values()) > 20


def test_first_two_rows_have_closed_forms():
    # the scan starts at row 1 because rows -1 and 0 hold by these forms;
    # their arguments are at most 1, and the oracle window reaches 4 past
    # [0, s], which holds every split that attains the minimum there
    sizes = {1: 0, 2: 0, 3: 0}
    for pairs, g, d in _random_configs(random.Random(41), 300, 7, 20):
        cells = itertools.islice(oracles.brute_multi_cells(pairs, g, d, window=4),
                                 2 * (g + 1))
        for j, k, value in cells:
            expect = k if j == -1 else max(k - 1, 0)
            assert value == expect, (pairs, g, d, j, k)
        sizes[len(pairs)] += 1
    assert min(sizes.values()) > 40


def test_half_scan_matches_full_grid_oracle():
    # the half scan and the truncated convolution against a scan of every
    # cell; the oracle window reaches 4 past [0, s] on both sides
    configs = _random_configs(random.Random(37), 2000, 7, 20)
    rejected = rejected_triples = 0
    for pairs, g, d in configs:
        expect = oracles.brute_multi_verdict(pairs, g, d, window=4)
        assert _verdict_tuple(check_multi(pairs, g, d)) == expect, (pairs, g, d)
        if len(pairs) == 1:
            assert _verdict_tuple(check_single(*pairs[0], g, d)) == expect, (pairs, g, d)
        rejected += not expect[0]
        rejected_triples += not expect[0] and len(pairs) == 3
    assert rejected >= 500 and rejected_triples > 0


def test_two_cusp_check_at_scale():
    # total delta 4500: the half scan reads the convolution only at
    # arguments in [0, 47*97 + 1], never on the rest of [0, 9000]
    pairs, g, d = [(2, 3001), (3, 3001)], 60, 97
    start = time.perf_counter()
    v = check_multi(pairs, g, d)
    elapsed = time.perf_counter() - start
    assert (v.witness.j, v.witness.k) == (2, 4) and v.checks_performed == 188
    assert _verdict_tuple(v) == oracles.brute_multi_verdict(pairs, g, d, window=64)
    assert elapsed < 10.0, elapsed


def _tail_start(pairs, j, d):
    """k0 of row j: from here on the row is non-decreasing."""
    return (j * d + 1 - sum(Semigroup(a, b).first_pair for a, b in pairs)) // 2


def test_row_tails_match_single_oracle():
    # a seeded 500 of the 24,192 single-cusp candidates with g < 60 and
    # d < 90 (about 2 s, nearly all of it the oracle); many end on an
    # upper-side witness inside the row's monotone tail, found there by
    # bisection rather than cell by cell
    candidates = [(a, b, g, d) for g in range(60)
                  for a, b, d in oracles.brute_enumerate(g, 89)]
    assert len(candidates) == 24192
    in_tail = 0
    for a, b, g, d in random.Random(53).sample(candidates, 500):
        v = check_single(a, b, g, d)
        expect_ok, expect_cell = oracles.brute_admissible(a, b, g, d)
        assert v.admissible == expect_ok, (a, b, g, d)
        assert v.checks_performed == _position(v, g, d), (a, b, g, d)
        if expect_ok:
            continue
        w = v.witness
        assert (w.j, w.k) == expect_cell, (a, b, g, d)
        assert (w.side == "lower") == (w.lhs_value < 0), (a, b, g, d)
        in_tail += w.side == "upper" and w.k > _tail_start([(a, b)], w.j, d)
    assert in_tail > 150, in_tail


def test_row_tails_match_multi_oracle():
    # two and three cusps at their smallest degree, against a scan of every
    # cell (about 2 s); the three-cusp tails start from the sum of the
    # cusps' first pairs
    cusps = [(a, b) for a in range(2, 8) for b in range(a + 1, 20)
             if oracles.gcd(a, b) == 1]
    rng = random.Random(61)
    in_tail = {2: 0, 3: 0}
    for _ in range(300):
        pairs = [rng.choice(cusps) for _ in range(rng.choice((2, 3)))]
        delta = sum((a - 1) * (b - 1) // 2 for a, b in pairs)
        d = next(d for d in range(1, 100) if (d - 1) * (d - 2) >= 2 * delta)
        g = (d - 1) * (d - 2) // 2 - delta
        v = check_multi(pairs, g, d)
        assert _verdict_tuple(v) == oracles.brute_multi_verdict(pairs, g, d, window=4), (
            pairs, g, d)
        w = v.witness
        if w is not None and w.side == "upper" and w.k > _tail_start(pairs, w.j, d):
            in_tail[len(pairs)] += 1
    assert in_tail[2] > 0 and in_tail[3] > 5, in_tail


def test_convolution_falls_below_the_first_pair_sum():
    # IC(s) <= IC(s - 2) - 1 whenever s - 2 < sum of the cusps' first pairs
    rng = random.Random(67)
    cusps = [(a, b) for a in range(2, 7) for b in range(a + 1, 18)
             if oracles.gcd(a, b) == 1]
    for _ in range(40):
        pairs = [rng.choice(cusps) for _ in range(rng.choice((2, 3)))]
        pair_sum = sum(Semigroup(a, b).first_pair for a, b in pairs)
        delta = sum((a - 1) * (b - 1) // 2 for a, b in pairs)
        ic = oracles.multi_gap_counter(pairs, 2 * delta + 2)
        for s in range(-3, pair_sum + 2):
            assert ic(s) <= ic(s - 2) - 1, (pairs, s)


def test_scan_evaluates_only_row_ends_in_the_tail():
    # <349, 352> at g = 351, d = 352: a cell-by-cell scan with the
    # min(v, g - v) skip makes 2,529 gap counts; the tails cut that
    # below 1,000
    s = Semigroup(349, 352)
    calls = 0

    def gap_at(m):
        nonlocal calls
        calls += 1
        return s.gaps_at_least(m)

    v = obstruction._scan(351, 352, gap_at, s.first_pair)
    assert v == check_single(349, 352, 351, 352)
    assert v.admissible and v.checks_performed == 352 * 352
    assert calls <= 1000, calls
