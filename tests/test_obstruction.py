import inspect
import itertools
import json
import random
import sys
import time
from pathlib import Path

import pytest

from unicusp import (
    Candidate,
    Semigroup,
    check_multi,
    check_single,
    lucas_family,
)
from unicusp import obstruction
from unicusp.cli import run
from unicusp.obstruction import ObstructionWitness, Verdict

import oracles

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402


def test_degree_genus_precondition():
    # <4,7> has delta 9: degree 6 pairs with genus 1, nothing else
    with pytest.raises(ValueError):
        check_single(4, 7, 6, 6)
    with pytest.raises(ValueError):
        check_single(4, 7, 1, 7)
    check_single(4, 7, 1, 6)


def test_verdict_records_keep_their_surface(capsys):
    assert list(inspect.signature(Verdict).parameters) == [
        "admissible", "witness", "checks_performed"]
    assert list(inspect.signature(ObstructionWitness).parameters) == [
        "j", "k", "triangular", "lhs_value", "side"]
    v = check_single(4, 7, 1, 6)
    assert repr(v) == ("Verdict(admissible=False, witness=ObstructionWitness(j=1, k=0, "
                       "triangular=3, lhs_value=-1, side='lower'), checks_performed=5)")
    assert repr(check_single(2, 3, 0, 3)) == (
        "Verdict(admissible=True, witness=None, checks_performed=3)")
    # named tuples: equal to the plain tuple of their fields
    assert v == (False, (1, 0, 3, -1, "lower"), 5)
    for record, field in ((v, "admissible"), (v, "checks_performed"), (v.witness, "j"),
                          (v.witness, "side")):
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    witness = {"j": 1, "k": 0, "lhs_value": -1, "side": "lower", "triangular": 3}
    for argv, pairs, genus, degree, performed in (
            (["-a", "4", "-b", "7", "-d", "6"], [[4, 7]], 1, 6, 5),
            (["--pairs", "2,3;4,9"], [[2, 3], [4, 9]], 2, 7, 7)):
        assert run(["check", "--genus", str(genus), *argv]) == 1
        record = {"command": "check", "schema_version": "1", "payload": {
            "admissible": False, "checks_performed": performed, "degree": degree,
            "genus": genus, "pairs": pairs, "witness": witness}}
        assert capsys.readouterr().out == json.dumps(record, sort_keys=True, indent=2) + "\n"
    mismatch = "degree-genus mismatch for {}: (d-1)(d-2) = 20 but 2*(g + delta) = 30"
    for call, label in ((lambda g, d: check_single(4, 7, g, d), "<4,7>"),
                        (lambda g, d: Candidate(g, 4, 7, d), "<4,7>"),
                        (lambda g, d: check_multi([(4, 7)], g, d), "[(4, 7)]"),
                        (lambda g, d: check_multi([(2, 3), (2, 17)], g, d),
                         "[(2, 3), (2, 17)]")):
        for genus, degree, text in ((1, 0, "degree must be >= 1, got 0"),
                                    (-1, 6, "genus must be >= 0, got -1"),
                                    (6, 6, mismatch.format(label))):
            with pytest.raises(ValueError) as raised:
                call(genus, degree)
            assert str(raised.value) == text, (label, genus, degree)


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


def _coprime_cusps(a_max, b_max):
    """Every coprime a < b with a <= a_max and b < b_max, a = 1 included."""
    return [(a, b) for a in range(1, a_max + 1) for b in range(a + 1, b_max)
            if oracles.gcd(a, b) == 1]


def test_pair_classes_count_the_sieved_pair_start_classes():
    # P(M) against the distinct classes mod a of the sieve's pair starts
    # x <= M, for M from -3 up to 2ab (about 1 s)
    for a, b in _coprime_cusps(12, 40):
        s = Semigroup(a, b)
        starts = iter(oracles.pair_starts(a, b, 2 * a * b))
        x = next(starts, None)
        classes = set()
        for m in range(-3, 2 * a * b + 1):
            while x is not None and x <= m:
                classes.add(x % a)
                x = next(starts, None)
            assert s.pair_classes(m) == len(classes), (a, b, m)


def test_pair_start_falls_stay_within_the_class_bound():
    # steps from argument M + 2 test the pair starts M, M - 2, ..., and
    # within one class they are per = a / gcd(a, 2) steps apart, so s
    # steps fall at most P(M) * ceil(s / per) times; per = a for even a
    # breaks this bound thousands of times here
    for a, b in _coprime_cusps(12, 40):
        s = Semigroup(a, b)
        per = a // oracles.gcd(a, 2)
        is_start = set(oracles.pair_starts(a, b, 2 * a * b))
        for m in range(-3, 2 * a * b + 1):
            bound = s.pair_classes(m)
            falls = 0
            for steps in range(1, 3 * a + 3):
                falls += m - 2 * (steps - 1) in is_start
                assert falls <= bound * -(-steps // per), (a, b, m, steps)


def _steepest_count(a, b):
    """A count H whose row steps fall at every pair start of <a, b> and
    stay level elsewhere: H(m - 2) - H(m) is 0 where m - 2 is a pair
    start and 1 otherwise.  Of all counts that fall only at pair starts
    and rise by at most 1 per step, as the skip rules assume, it falls
    the most, so an over-long skip passes a negative cell sooner."""
    top = (a - 1) * (b - 1) + 2  # every x from the conductor on is a pair start
    starts = set(oracles.pair_starts(a, b, top))
    table, count = {}, [0, 0]
    for x in range(top, -1, -1):
        count[x % 2] += x not in starts
        table[x] = count[x % 2]
    return lambda m: table.get(m, 0) if m >= 0 else table[m % 2] + (m % 2 - m) // 2


def _rows_oracle(count, genus, degree):
    """First cell of rows 1..(d-3)//2 outside [0, genus], cell by cell on
    count, as (j, k, value), or None."""
    for j in range(1, (degree - 3) // 2 + 1):
        c = genus - (degree - j - 2) * (degree - j - 1) // 2
        for k in range(genus + 1):
            value = count(j * degree + 1 - 2 * k) - k + c
            if not 0 <= value <= genus:
                return j, k, value
    return None


def _scan_witnesses(count, genus, degree, s):
    """(j, k, value) of `_scan`'s witness on count, or None, with the
    pair-class rule of s and without it."""
    out = []
    for cusp in (s, None):
        w = obstruction._scan(genus, degree, count, s.first_pair, cusp).witness
        out.append(None if w is None else (w.j, w.k, w.lhs_value))
    return out


# `_scan` with and without the pair-class rule against a cell-by-cell scan
# of the same rows.  The genus is taken apart from the degree-genus
# identity, which neither skip rule needs, so values wander through
# [0, genus] and violations land all over the rows; a skip that jumps over
# a violated cell shows up as a later witness or none.

def test_pair_class_skips_keep_the_first_violated_cell_on_steepest_rows():
    # every cusp with a <= 8 and b < 24 at every degree 5..29 and genus
    # 0..39 (100,000 grids, about 2 s).  An over-long lower-side skip is
    # wrong on only a few of them: per = a for even a misses a violated
    # cell in 9, and so does a ceiling in place of v // P
    lower = 0
    for a, b in _coprime_cusps(8, 24):
        s = Semigroup(a, b)
        count = _steepest_count(a, b)
        for degree in range(5, 30):
            for genus in range(40):
                expect = _rows_oracle(count, genus, degree)
                assert _scan_witnesses(count, genus, degree, s) == [expect] * 2, (
                    a, b, genus, degree)
                lower += expect is not None and expect[2] < 0
    assert lower > 50000, lower


def test_pair_class_skips_keep_the_first_violated_cell_on_gap_counts():
    rng = random.Random(71)
    cusps = _coprime_cusps(12, 40)
    lower = 0
    for _ in range(1500):
        a, b = rng.choice(cusps)
        s = Semigroup(a, b)
        genus, degree = rng.randrange(0, 80), rng.randrange(5, 60)
        expect = _rows_oracle(oracles.gap_counter(a, b), genus, degree)
        assert _scan_witnesses(s.gaps_at_least, genus, degree, s) == [expect] * 2, (
            a, b, genus, degree)
        lower += expect is not None and expect[2] < 0
    assert lower > 300, lower


def _count_gap_calls(monkeypatch):
    """Route `Semigroup.gaps_at_least` through a counter; returns the
    one-item list that holds the count."""
    calls = [0]
    count = Semigroup.gaps_at_least

    def counted(self, m):
        calls[0] += 1
        return count(self, m)

    monkeypatch.setattr(Semigroup, "gaps_at_least", counted)
    return calls


def test_check_single_counts_few_gaps_with_the_pair_class_rule(monkeypatch):
    # <349, 352> at g = 351, d = 352 through a counting wrapper; `_scan`
    # holds no certificate, so the
    # min(v, g - v) skip and the row tails make 727 gap counts; the
    # pair-class rule lifts the lower-side skips and leaves 240.
    # `check_single` reads no row at all, as b <= d
    s = Semigroup(349, 352)
    calls = 0

    def counted(m):
        nonlocal calls
        calls += 1
        return s.gaps_at_least(m)

    v = obstruction._scan(351, 352, counted, s.first_pair, s)
    assert v.admissible and v.checks_performed == 352 * 352
    assert 0 < calls <= 300, calls
    gap_calls = _count_gap_calls(monkeypatch)
    assert check_single(349, 352, 351, 352) == v and gap_calls[0] == 0


# The b <= d certificate: `check_single` returns the verdict of every
# single cusp <a, b> at a degree d >= b before it builds a `Semigroup`;
# `_scan` reads the rows whatever count it is given.

def test_certificate_reads_no_row_of_a_cusp_with_b_at_most_d(monkeypatch):
    # at g = 0 a cusp with b <= d is <d-1, d>; <98, 99> at degree 100 has
    # b < d and g = 98.  `check_single` answers all with no gap count
    calls = _count_gap_calls(monkeypatch)
    for d in range(3, 400):
        assert check_single(d - 1, d, 0, d) == Verdict(True, None, d), d
    assert check_single(1999, 2000, 0, 2000) == (True, None, 2000)
    assert check_single(98, 99, 98, 100) == (True, None, 100 * 99)
    assert calls[0] == 0


def test_certificates_need_the_cusps_own_count():
    # `_scan` scans a count other than the cusp's, or a genus off the
    # degree-genus identity, as it scans the cusp's own count on its own
    # grid: the pair-class tests above probe the skip rules that way, on
    # grids the certificates say nothing about.  <7, 9> at d = 9 has
    # g = 4, which `check_single` answers by certificate
    s = Semigroup(7, 9)
    steep = _steepest_count(7, 9)
    for genus, degree, count in ((4, 9, steep), (0, 9, s.gaps_at_least),
                                 (3, 9, s.gaps_at_least), (4, 9, s.gaps_at_least)):
        expect = _rows_oracle(count, genus, degree)
        assert _scan_witnesses(count, genus, degree, s) == [expect] * 2, (genus, degree)


def test_shortcuts_build_no_semigroup_and_scan_only_scans(monkeypatch):
    # the three certificates and the first-row rule decide a lone cusp
    # before any `Semigroup` is built, through either checker, and a
    # scanned cusp builds one.  `_scan` holds no certificate: on a
    # certified cusp's own count it reads rows wherever the half grid has
    # one past row 0, that is from d = 5 on
    built = []

    def counted(a, b):
        built.append((a, b))
        return Semigroup(a, b)

    monkeypatch.setattr(obstruction, "Semigroup", counted)
    certified = [(d - 1, d, 0, d) for d in range(3, 60)]
    certified += [(a, 4 * a - 1, 0, 2 * a) for a in range(2, 30)]
    certified += [(3 * n, 21 * n + 1, (n - 1) * (n - 2) // 2, 8 * n) for n in range(1, 30)]
    first_row = [(4, 7, 1, 6, "lower"), (2, 31, 0, 7, "upper")]
    for a, b, g, d in certified:
        expect = Verdict(True, None, d * (g + 1))
        assert check_single(a, b, g, d) == check_multi([(a, b)], g, d) == expect, (a, b, d)
    for a, b, g, d, side in first_row:
        expect = Verdict(False, ObstructionWitness(1, 0, 3, d // a - 2, side), 2 * g + 3)
        assert check_single(a, b, g, d) == check_multi([(a, b)], g, d) == expect, (a, b, d)
    assert built == []
    # <2, 7> at d = 5 (g = 3): cell (1, 0) holds 0, so the scan runs
    assert check_single(2, 7, 3, 5).admissible and built == [(2, 7)]
    assert check_multi([(2, 7)], 3, 5).admissible and built == [(2, 7)] * 2
    gap_calls = _count_gap_calls(monkeypatch)
    for a, b, g, d in certified:
        s = Semigroup(a, b)
        gap_calls[0] = 0
        v = obstruction._scan(g, d, s.gaps_at_least, s.first_pair, s)
        assert v == (True, None, d * (g + 1)) and (gap_calls[0] > 0) == (d >= 5), (a, b, d)


# The family certificates: `check_single` returns the verdict of <p, p+3>
# at degree p + 3 (b = d, so the b <= d certificate), of <a, 4a-1> at
# degree 2a (g = 0) and of <3n, 21n+1> at degree 8n (g = (n-1)(n-2)/2)
# before reading a row.  A verdict cannot show a
# certificate that covers too much when the extra inputs are admissible
# too, so the neighbours are held to a gap count as well as to their
# verdict.

def _family_members(d_max):
    """Every member (a, b, g, d) with d <= d_max of the (p,p+3) family at
    degree p + 3, of the (d/2, 2d-1) family and of the (3n,21n+1) family
    at degree 8n."""
    members = [(p, p + 3, p + 2, p + 3) for p in range(1, d_max - 2) if p % 3]
    members += [(a, 4 * a - 1, 0, 2 * a) for a in range(1, d_max // 2 + 1)]
    members += [(3 * n, 21 * n + 1, (n - 1) * (n - 2) // 2, 8 * n)
                for n in range(1, d_max // 8 + 1)]
    return members


def _valid_inputs(b_max, d_above):
    """Every valid (a, b, g, d) with b < b_max and d < b + d_above."""
    for a, b in _coprime_cusps(b_max - 2, b_max):
        for d in range(1, b + d_above):
            twice_genus = (d - 1) * (d - 2) - (a - 1) * (b - 1)
            if twice_genus >= 0:
                yield a, b, twice_genus // 2, d


def test_family_certificates_hold_on_every_cell():
    # every cell of the full grid lies in [0, g], read off the sieve's
    # element table, for every family member with d < 160 (<3n, 21n+1>
    # with n <= 19 among them, 117,800 cells, which covers the n <= 11
    # that `check_single`'s proof leaves to this test) and for every valid
    # b <= d input with d < 30 (2,710 inputs, 11 million cells).
    # Budget 15 s (about 2.5 s)
    start = time.perf_counter()
    inputs = [(a, b, g, d) for a, b, g, d in _valid_inputs(30, 30) if b <= d < 30]
    assert len(inputs) == 2710, len(inputs)
    cells = 0
    for a, b, g, d in _family_members(159) + inputs:
        below = oracles.count_below_table(a, b, max(1, (d - 2) * d + 1))
        for j in range(-1, d - 1):
            base, tri = j * d + 1, (j + 1) * (j + 2) // 2
            values = [(below[x] if x > 0 else 0) + k - tri
                      for k, x in enumerate(range(base, base - 2 * g - 1, -2))]
            assert 0 <= min(values) and max(values) <= g, (a, b, g, d, j)
            cells += len(values)
    assert cells > 11000000, cells
    assert time.perf_counter() - start < 15.0


def test_family_certificates_match_the_scan(monkeypatch):
    # every member up to d = 2000, the 250 <3n, 21n+1> with n <= 250
    # among them: `check_single` and one-pair `check_multi` make no gap
    # count and give the verdict of `_scan`, which reads the rows.
    # Budget 15 s (about 2 s)
    start = time.perf_counter()
    calls = _count_gap_calls(monkeypatch)
    for a, b, g, d in _family_members(2000):
        s = Semigroup(a, b)
        calls[0] = 0
        single = check_single(a, b, g, d)
        assert check_multi([(a, b)], g, d) == single and calls[0] == 0, (a, b, g, d)
        scanned = obstruction._scan(g, d, s.gaps_at_least, s.first_pair, s)
        assert scanned == single == Verdict(True, None, d * (g + 1)), (a, b, g, d)
    elapsed = time.perf_counter() - start
    assert elapsed < 15.0, elapsed


def test_family_neighbours_are_scanned(monkeypatch):
    # inputs next to a family member get `_scan`'s verdict:
    # <p, p+3> at d = p + 2 (g = 1; rejected at (1, 0) from p = 4 on,
    # criterion 02) and at d = p + 4 (g = 2p + 4); <a, a+4> and <a, a+5>
    # at d = a + 3, where a + 3 = d but b != d; <a, 4a-1> at
    # d = 2a + 1 and 2a + 2, off g = 0; and <3n, 21n+1> at d = 8n - 1,
    # wherever the identity leaves g >= 0 (all 101 with n < 120 are
    # rejected, <60, 421> at d = 159 at (3, 0) on the lower side), and at
    # d = 8n + 1 and 8n + 2 (all admissible).  They read rows, except
    # <p, p+3> at d = p + 4, which has b <= d, and the b > d rejections at
    # (1, 0), which the first-row rule decides with no gap count.
    # Budget 10 s (about 1.5 s)
    start = time.perf_counter()
    calls = _count_gap_calls(monkeypatch)
    neighbours = []
    for p in range(2, 2000):
        if p % 3 and p > 2:
            neighbours.append((p, p + 3, 1, p + 2))
        if p % 3 and p < 400:
            neighbours.append((p, p + 3, 2 * p + 4, p + 4))
        if p % 2:
            neighbours.append((p, p + 4, (p + 5) // 2, p + 3))
        if p % 5:
            neighbours.append((p, p + 5, 3, p + 3))
        if p < 200:
            neighbours += [(p, 4 * p - 1, 2 * p - 1, 2 * p + 1),
                           (p, 4 * p - 1, 4 * p - 1, 2 * p + 2)]
    for n in range(1, 120):
        for d in (8 * n - 1, 8 * n + 1, 8 * n + 2):
            twice_genus = (d - 1) * (d - 2) - (3 * n - 1) * 21 * n
            if twice_genus >= 0:
                neighbours.append((3 * n, 21 * n + 1, twice_genus // 2, d))
    rejected = scanned = family = 0
    for a, b, g, d in neighbours:
        s = Semigroup(a, b)
        calls[0] = 0
        v = check_single(a, b, g, d)
        counted = calls[0]
        assert v == obstruction._scan(g, d, s.gaps_at_least, s.first_pair, s)
        certified = b <= d or v.witness is not None and v.witness[:2] == (1, 0)
        assert (counted == 0) == certified, (a, b, g, d)
        scanned += not certified
        if b == a + 3 and d == a + 2 and a >= 4:
            assert v.witness[:2] == (1, 0), (a, b, g, d)
        if b == 7 * a + 1:
            assert v.admissible == (3 * d > 8 * a), (a, b, g, d)
            family += 1
        rejected += not v.admissible
    assert family == 339, family
    assert check_single(60, 421, 13, 159).witness == (3, 0, 10, -1, "lower")
    assert rejected > 3900 and scanned > 700, (rejected, scanned)
    assert time.perf_counter() - start < 10.0


def _cusps_7a_plus_1(a_max):
    """<a, 7a+1> with 3 not dividing a < a_max, at every valid degree
    below 4a, as (a, g, d): all off the <3n, 21n+1> guard's 3d = 8a."""
    for a in range(2, a_max):
        if a % 3:
            for d in range(1, 4 * a):
                twice_genus = (d - 1) * (d - 2) - (a - 1) * 7 * a
                if twice_genus >= 0:
                    yield a, twice_genus // 2, d


class _Scanned(Exception):
    """The first gap count of a check, which `_scan` alone makes."""


def test_cusps_7a_plus_1_off_the_family_are_scanned(monkeypatch):
    # each of the 17,878 inputs with a < 200 starts a scan (none fails
    # the first-row rule, as d // a - 2 is 0 or 1 and g >= 1 where it
    # is 1); a gap count that raises stops each scan at its first read.
    # With a < 100 (4,380 inputs, 58 rejected) each check runs to its end
    # and gives `_scan`'s verdict, witness and count; the 256 rejections
    # up to a < 200 take about 10 s of scanning.  Budget 15 s (about 3 s)
    start = time.perf_counter()
    rejected = 0
    for a, g, d in _cusps_7a_plus_1(100):
        s = Semigroup(a, 7 * a + 1)
        v = check_single(a, 7 * a + 1, g, d)
        assert v == obstruction._scan(g, d, s.gaps_at_least, s.first_pair, s), (a, g, d)
        rejected += not v.admissible
    assert rejected == 58, rejected

    def scanned(self, m):
        raise _Scanned

    monkeypatch.setattr(Semigroup, "gaps_at_least", scanned)
    checked = 0
    for a, g, d in _cusps_7a_plus_1(200):
        with pytest.raises(_Scanned):
            check_single(a, 7 * a + 1, g, d)
        checked += 1
    assert checked == 17878, checked
    assert time.perf_counter() - start < 15.0


def test_certify_pool_reads_rows_only_for_lucas_rungs(monkeypatch):
    # the benchmark's single-cusp certify inputs: each (p,p+3),
    # (p,2p-1) and (3n,21n+1) op is decided by a certificate, with no gap
    # count and no `Semigroup` built, and each Lucas rung builds one
    # `Semigroup` and scans
    built = []

    def counted(a, b):
        built.append((a, b))
        return Semigroup(a, b)

    calls = _count_gap_calls(monkeypatch)
    monkeypatch.setattr(obstruction, "Semigroup", counted)
    families = {}
    for family, a, b, d, g in workloads.single_cusps():
        built.clear()
        calls[0] = 0
        v = check_single(a, b, g, d)
        assert v.admissible, (family, a, b, d)
        if family == "lucas":
            assert built == [(a, b)] and calls[0] > 0, (a, b, d)
        else:
            assert built == [] and calls[0] == 0, (family, a, b, d)
        families[family] = families.get(family, 0) + 1
    assert families == {"p,p+3": 267, "p,2p-1": 38, "3n,21n+1": 33, "lucas": 8}, families


# The first-row rule: for b > d >= 5 every element up to d is a multiple
# of a, so cell (1, 0) holds d // a - 2, and `check_single` rejects
# there, with no gap count, when that value leaves [0, g].

def test_first_row_rule_matches_the_scan(monkeypatch):
    # every single cusp with g < 60 and d < 90: `check_single` and
    # one-pair `check_multi` give `_scan`'s verdict, witness
    # and checks_performed, and the b > d rejections at (1, 0) make no
    # gap count and hold d // a - 2.  Budget 20 s (about 4 s)
    start = time.perf_counter()
    calls = _count_gap_calls(monkeypatch)
    checked = equal_b_d = 0
    sides = {"lower": 0, "upper": 0}
    for g in range(60):
        for d in range(1, 90):
            for a, b in oracles.pairs_at_degree(g, d):
                s = Semigroup(a, b)
                calls[0] = 0
                single = check_single(a, b, g, d)
                multi = check_multi([(a, b)], g, d)
                counted = calls[0]
                scanned = obstruction._scan(g, d, s.gaps_at_least, s.first_pair, s)
                assert single == multi == scanned, (a, b, g, d)
                w = single.witness
                if b > d and w is not None and w[:2] == (1, 0):
                    assert counted == 0 and w.lhs_value == d // a - 2, (a, b, g, d)
                    sides[w.side] += 1
                checked += 1
                equal_b_d += b == d
    assert checked > 20000 and equal_b_d > 200, (checked, equal_b_d)
    assert sides["lower"] > 3000 and sides["upper"] > 3000, sides
    elapsed = time.perf_counter() - start
    assert elapsed < 20.0, elapsed


def _first_row_sample():
    """b > d rejections at cell (1, 0) at production scale, on both sides:
    seeded ones at g = 1000 (d 400-800) and at g = 0, 1 (d 1000-2000),
    <p, p+3> at d = p + 2 (g = 1), and <2, b> at g = 0 and at g = 1000,
    where d // 2 - 2 exceeds g."""
    rng = random.Random(31)
    sample = [(2, 2009 * 2008 - 1999, 1000, 2010)]
    p = 3 * rng.randrange(333, 666) + 1
    sample.append((p, p + 3, 1, p + 2))
    d = rng.randrange(1000, 2001)
    sample.append((2, (d - 1) * (d - 2) + 1, 0, d))
    for genus, low, high, count in ((1000, 400, 801, 3), (0, 1000, 2001, 2), (1, 1000, 2001, 2)):
        while count:
            d = rng.randrange(low, high)
            pairs = [(a, b) for a, b in oracles.pairs_at_degree(genus, d)
                     if b > d and not 0 <= d // a - 2 <= genus]
            if pairs:
                sample.append((*rng.choice(pairs), genus, d))
                count -= 1
    return sample


def test_first_row_rejections_match_the_table_oracle(monkeypatch):
    # the oracle's full-grid reading agrees on verdict, witness cell and
    # checks_performed, and the checks make no gap count.  Budget 10 s
    # (under 1 s)
    start = time.perf_counter()
    calls = _count_gap_calls(monkeypatch)
    sample = _first_row_sample()
    sides = set()
    for a, b, g, d in sample:
        expect = oracles.table_check(a, b, g, d)
        assert expect[:2] == (False, (1, 0)), (a, b, g, d)
        calls[0] = 0
        for v in (check_single(a, b, g, d), check_multi([(a, b)], g, d)):
            assert (v.admissible, v.witness[:2], v.checks_performed) == expect, (a, b, g, d)
            sides.add(v.witness.side)
        assert calls[0] == 0, (a, b, g, d)
    assert len(sample) == 10 and sides == {"lower", "upper"}
    assert sum(g == 1000 for _, _, g, _ in sample) == 4
    assert sum(1000 <= d <= 2000 for _, _, _, d in sample) == 6
    assert time.perf_counter() - start < 10.0


# One scan for a lone cusp: `check_multi([(a, b)])` hands its cusp to
# `check_single`'s scan, with the pair-class rule and the certificates.

def _lone_cusp_sample():
    """<1999, 2000> at g = 0 (no gap count), <349, 352> at g = 351, two
    Lucas rungs, six small exceptions and rejections at g = 1, 6, 7, and
    seeded candidates, most of them rejected."""
    sample = [(1999, 2000, 0, 2000), (349, 352, 351, 352)]
    sample += [(c.a, c.b, c.g, c.d) for c in (lucas_family(2, 4), lucas_family(3, 3))]
    sample += [(4, 7, 1, 6), (3, 10, 1, 6), (2, 5, 1, 4), (3, 28, 1, 9),
               (5, 8, 7, 8), (4, 7, 6, 7)]
    rng = random.Random(2027)
    while len(sample) < 46:
        genus, degree = rng.choice((0, 1, 2, 7, 40, 351)), rng.randrange(5, 400)
        pairs = oracles.pairs_at_degree(genus, degree)
        if pairs:
            sample.append((*rng.choice(pairs), genus, degree))
    return sample


def test_lone_cusp_check_multi_is_check_single(monkeypatch):
    # same verdict, witness and checks_performed, and the same number of
    # gap counts: <1999, 2000> at g = 0 made 998 through a second,
    # uncertified one-cusp scan, against 0 here.  Budget 5 s (about 0.01 s)
    start = time.perf_counter()
    calls = 0
    count = Semigroup.gaps_at_least

    def counted(self, m):
        nonlocal calls
        calls += 1
        return count(self, m)

    monkeypatch.setattr(Semigroup, "gaps_at_least", counted)
    rejected = 0
    for a, b, g, d in _lone_cusp_sample():
        calls = 0
        single = check_single(a, b, g, d)
        single_calls, calls = calls, 0
        assert check_multi([(a, b)], g, d) == single, (a, b, g, d)
        assert calls == single_calls, (a, b, g, d, calls, single_calls)
        rejected += not single.admissible
    assert 11 < rejected < 38, rejected
    assert time.perf_counter() - start < 5.0


def test_lone_cusp_check_prints_the_same_from_pairs(capsys):
    # `check -a A -b B` and `check --pairs A,B` print the same bytes,
    # "pairs": [[A, B]] included, and exit alike.  Budget 5 s (about 0.02 s)
    start = time.perf_counter()
    for a, b, g, d in _lone_cusp_sample():
        common = ["check", "--genus", str(g), "-d", str(d)]
        single = run([*common, "-a", str(a), "-b", str(b)]), capsys.readouterr()
        paired = run([*common, "--pairs", f"{a},{b}"]), capsys.readouterr()
        assert paired == single, (a, b, g, d)
        assert f'"pairs": [\n      [\n        {a},' in single[1].out
    assert time.perf_counter() - start < 5.0


def test_table_oracle_matches_brute_force():
    # every candidate with g <= 6 and d <= 40: verdict and witness cell
    # against the sieve oracle, and checks at the witness's grid position.
    # Budget 5 s (about 0.7 s)
    start = time.perf_counter()
    for g in range(0, 7):
        for a, b, d in oracles.brute_enumerate(g, 40):
            admissible, cell, checks = oracles.table_check(a, b, g, d)
            assert (admissible, cell) == oracles.brute_admissible(a, b, g, d), (a, b, g, d)
            if cell is None:
                assert checks == d * (g + 1), (a, b, g, d)
            else:
                assert checks == (cell[0] + 1) * (g + 1) + cell[1] + 1, (a, b, g, d)
    assert time.perf_counter() - start < 5.0


def _production_sample():
    """47 candidates: seeded ones at g = 0, 1 (d 1000-2000) and g = 1000
    (d 400-800), two g = 1 rejections at cell (4, 1), and members of each
    admissible family: <d-1, d>, (d/2, 2d-1), the Fibonacci pairs, every
    `_FAMILIES` row (at its own genus where it has no member at g = 0, 1
    or 1000; for (3n,21n+1) also <375, 2626> at d = 1000, g = 7,626) and
    a Lucas rung.  The (p,p+3) family has a second member,
    at g = 1000, and two of its neighbours, <p, p+3> at d = p + 2
    (g = 1), rejected at cell (1, 0).  The b <= d certificate has four
    more inputs with b != a + 1 or g > 0: <496, 501> at d = 501 and
    <1000, 1001> at d = 1002, both at g = 1000, and seeded <d-2, d-1>
    (g = d - 2) and <d-2, d> (odd d, g = (d-1)/2) with d in 1000-2000.
    Most seeded candidates fail at cell (1, 0); at most half of each
    genus's draws may, so the rest fail deeper in the grid, where the
    scan's skips and bisections decide the witness."""
    rng = random.Random(3)
    sample = [(1999, 2000, 0, 2000), (2, 3, 0, 3), (3, 22, 0, 8), (6, 43, 0, 16),
              (233, 1597, 0, 610), (169, 1156, 0, 442), (9, 64, 1, 24), (2, 5, 1, 4),
              (523, 4183, 1, 1479), (595, 4761, 1, 1683), (998, 1001, 1000, 1001),
              (1000, 1003, 1, 1002), (1699, 1702, 1, 1701)]
    c = lucas_family(2, 4)
    sample.append((c.a, c.b, c.g, c.d))
    for _ in range(2):
        d = rng.randrange(1000, 2001)
        sample.append((d - 1, d, 0, d))
        d = 2 * rng.randrange(500, 1001)
        sample.append((d // 2, 2 * d - 1, 0, d))
        l = rng.randrange(300, 667)
        sample.append((l, 9 * l + 1, 1, 3 * l))
    t = rng.randrange(200, 798)
    sample.append((t, t + 3, t + 2, t + 3))
    t = rng.randrange(20, 29)
    sample.append((t, 2 * t - 1, (t - 1) * (t - 2), 2 * t - 1))
    for genus, low, high, count in ((0, 1000, 2001, 6), (1, 1000, 2001, 6),
                                    (1000, 400, 801, 8)):
        shallow = count // 2
        while count:
            degree = rng.randrange(low, high)
            pairs = oracles.pairs_at_degree(genus, degree)
            if not pairs:
                continue
            drawn = (*rng.choice(pairs), genus, degree)
            if oracles.table_check(*drawn)[1] == (1, 0):
                if not shallow:
                    continue
                shallow -= 1
            sample.append(drawn)
            count -= 1
    sample += [(496, 501, 1000, 501), (1000, 1001, 1000, 1002)]
    d = rng.randrange(1000, 2001)
    sample.append((d - 2, d - 1, d - 2, d))
    d = 2 * rng.randrange(500, 1000) + 1
    sample.append((d - 2, d, (d - 1) // 2, d))
    sample.append((375, 2626, 7626, 1000))
    return sample


def test_checks_match_the_table_oracle_at_production_scale():
    # check_single and one-pair check_multi against the table oracle's
    # full grid: verdict, witness cell and checks_performed.  The oracle
    # reads all d(g+1) cells of an admissible candidate, with no shortcut
    # the scan takes.  g = 10^5 is left out (about 6 s per candidate).
    # Budget 10 s (about 1.5 s here, half of it <375, 2626>)
    start = time.perf_counter()
    sample = _production_sample()
    assert len(sample) == 47
    admissible = 0
    for a, b, g, d in sample:
        expect = oracles.table_check(a, b, g, d)
        for v in (check_single(a, b, g, d), check_multi([(a, b)], g, d)):
            cell = None if v.witness is None else (v.witness.j, v.witness.k)
            assert (v.admissible, cell, v.checks_performed) == expect, (a, b, g, d)
        admissible += expect[0]
    assert 25 < admissible < 43, admissible
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, elapsed
