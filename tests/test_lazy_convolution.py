"""The multi-cusp check evaluates the infimum convolution lazily.

`check_multi` reads IC(s) only at the arguments the scan asks for, through
`semigroup.convolve_at` on the two operands' run starts.  These tests hold
it to the whole convolution (the `convolve` fold of all cusps, computed
before the scan, the earlier implementation), to the brute-force oracle,
and to the stored two-cusp reference table.
"""

import json
import random
import sys
import time
import tracemalloc
from functools import reduce
from math import gcd
from pathlib import Path

from unicusp import Semigroup, check_multi, convolve, obstruction
from unicusp.semigroup import convolve_at

import oracles

PAIRS_TABLE = Path(__file__).resolve().parent.parent / "perfbench" / "pairs_reference.json"


def _table_check(pairs, genus, degree):
    """The check with the whole convolution, the `convolve` fold of all
    cusps, computed first."""
    semis = [Semigroup(a, b) for a, b in pairs]
    h = reduce(convolve, [s.gap_function() for s in semis])
    return obstruction._scan(genus, degree, h, sum(s.first_pair for s in semis))


def _verdict_tuple(v):
    w = v.witness
    return (v.admissible, None if w is None else (w.j, w.k, w.side, w.lhs_value),
            v.checks_performed)


def _configs(rng, count, cusps, sizes):
    """(pairs, genus, degree) at the smallest degree that fits the cusps or
    up to three above it, so both verdicts occur."""
    out = []
    for _ in range(count):
        pairs = [rng.choice(cusps) for _ in range(rng.choice(sizes))]
        delta = sum((a - 1) * (b - 1) // 2 for a, b in pairs)
        d = next(d for d in range(1, 1000) if (d - 1) * (d - 2) >= 2 * delta)
        d += rng.choice((0, 0, 1, 2, 3))
        out.append((pairs, (d - 1) * (d - 2) // 2 - delta, d))
    return out


def test_lazy_matches_table_and_oracle():
    # 2-, 3- and 4-cusp inputs against the table and a scan of every cell
    # (about 3 s, nearly all of it the oracle)
    start = time.perf_counter()
    cusps = [(a, b) for a in range(1, 6) for b in range(a + 1, 13) if gcd(a, b) == 1]
    seen = {}
    for pairs, g, d in _configs(random.Random(71), 600, cusps, (2, 3, 4)):
        got = _verdict_tuple(check_multi(pairs, g, d))
        assert got == _verdict_tuple(_table_check(pairs, g, d)), (pairs, g, d)
        assert got == oracles.brute_multi_verdict(pairs, g, d, window=4), (pairs, g, d)
        seen.setdefault(len(pairs), set()).add(got[0])
    assert all(verdicts == {True, False} for verdicts in seen.values()), seen
    assert seen.keys() == {2, 3, 4}
    assert time.perf_counter() - start < 20.0


def test_lazy_matches_table_on_larger_cusps():
    # cusps up to delta 190, two to four of them, against the table only
    # (about 1 s, nearly all of it the table)
    start = time.perf_counter()
    cusps = [(a, b) for a in range(2, 12) for b in range(a + 1, 40) if gcd(a, b) == 1]
    rejected = 0
    for pairs, g, d in _configs(random.Random(73), 300, cusps, (2, 2, 3, 4)):
        v = check_multi(pairs, g, d)
        assert v == _table_check(pairs, g, d), (pairs, g, d)
        rejected += not v.admissible
    assert 40 < rejected < 260, rejected
    assert time.perf_counter() - start < 20.0


def test_convolve_at_matches_the_table_everywhere():
    # the run-end evaluator against the `convolve` run starts at every s in
    # [-5, 2 Delta + 5], on 300 seeded pairs of operands; an operand is a
    # cusp's gap function or, one time in three, the fold of two, whose
    # runs of consecutive starts differ from a semigroup's (about 1 s)
    rng = random.Random(79)
    cusps = [(a, b) for a in range(1, 10) for b in range(a + 1, 30) if gcd(a, b) == 1]

    def operand():
        parts = [Semigroup(*rng.choice(cusps)).gap_function()
                 for _ in range(rng.choice((1, 1, 2)))]
        return reduce(convolve, parts)

    for _ in range(300):
        f, g = operand(), operand()
        table, lazy = convolve(f, g), convolve_at(f, g)
        for s in range(-5, 2 * table.delta + 6):
            assert lazy(s) == table(s), (f.starts, g.starts, s)


def test_convolve_at_in_shuffled_order():
    # an evaluator keeps its run ends and count table between calls, so a
    # value must not depend on the order of the calls: every s in
    # [-5, 2 Delta + 5] in a seeded shuffled order, on a fresh evaluator
    # per pair of operands, against the `convolve` run starts.  Operands
    # are cusps and folds of two, and lopsided pairs (delta below 3 against
    # one of at least 5,000, either way round), whose s run past the
    # small operand's last start (about 1 s)
    rng = random.Random(83)
    cusps = [(a, b) for a in range(1, 10) for b in range(a + 1, 30) if gcd(a, b) == 1]

    def operand(choices, sizes):
        return reduce(convolve, [Semigroup(*rng.choice(choices)).gap_function()
                                 for _ in range(rng.choice(sizes))])

    pairs = [(operand(cusps, (1, 2)), operand(cusps, (1, 2))) for _ in range(120)]
    tiny = [(1, 2), (2, 3), (2, 5)]
    for large in [(2, 10001), (3, 5002), (101, 103), (71, 149)]:
        f, g = operand(tiny, (1, 1, 2)), Semigroup(*large).gap_function()
        assert f.delta < 3 and g.delta >= 5000
        pairs += [(f, g), (g, f)]
    for f, g in pairs:
        table, lazy = convolve(f, g), convolve_at(f, g)
        arguments = list(range(-5, 2 * table.delta + 6))
        rng.shuffle(arguments)
        for s in arguments:
            assert lazy(s) == table(s), (f.starts[:8], g.starts[:8], s)


def test_count_table_is_bounded_by_the_smaller_operand():
    # an admitted lopsided pair: <2, 100001> (delta 50,000, every start a
    # run end) and <3, 1000> (delta 999, last start 1998), where the scan
    # reads IC up to s = 72,010.  `convolve_at` holds the larger operand's
    # run ends (a tuple sharing its starts' ints, and a tuple of new index
    # ints) and the smaller one's count table: about 6.2 times
    # sys.getsizeof of the larger operand's starts tuple, traced at the
    # three deepest arguments the scan reads, in either operand order.
    # Tabulating the larger operand instead, 2 * 50,000 list slots and
    # ints, reads about 10 times (well under 1 s)
    start = time.perf_counter()
    small, large = Semigroup(3, 1000), Semigroup(2, 100001)
    genus, degree = 21011, 381
    f, g = small.gap_function(), large.gap_function()
    asked = []
    gap_at = convolve_at(f, g)
    v = obstruction._scan(genus, degree, lambda s: asked.append(s) or gap_at(s),
                          small.first_pair + large.first_pair)
    assert v == check_multi([(2, 100001), (3, 1000)], genus, degree)
    assert (v.admissible, v.checks_performed) == (True, 8005572)
    deepest = sorted(asked)[-3:]
    assert deepest[0] > f.starts[-1]
    # IC(s) = min over 0 <= m <= s of f(m) + g(s - m), by the proof in
    # `convolve`
    expected = [min(f(m) + g(s - m) for m in range(s + 1)) for s in deepest]
    for operands in ((f, g), (g, f)):
        tracemalloc.start()
        try:
            gap_at = convolve_at(*operands)
            values = [gap_at(s) for s in deepest]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert values == expected
        assert peak < 8 * sys.getsizeof(g.starts), peak
    assert time.perf_counter() - start < 5.0


def test_every_pairs_reference_row():
    # the 160 stored two-cusp rows, each in both cusp orders (well under 1 s)
    start = time.perf_counter()
    with open(PAIRS_TABLE) as fh:
        rows = json.load(fh)
    assert len(rows) == 160
    for row in rows:
        pairs = [tuple(p) for p in row["pairs"]]
        for order in (pairs, pairs[::-1]):
            v = check_multi(order, row["genus"], row["degree"])
            assert (v.admissible, v.witness, v.checks_performed) == (
                row["admissible"], row["witness"], row["checks_performed"]), row
    assert time.perf_counter() - start < 5.0


def test_large_two_cusp_rejection_is_fast():
    # tabulating the convolution on [0, 116 * 233 + 1] took about 26 s; the
    # lazy check evaluates it only where the scan reads it
    start = time.perf_counter()
    v = check_multi([(50, 601), (41, 600)], 116, 233)
    elapsed = time.perf_counter() - start
    w = v.witness
    assert not v.admissible
    assert (w.j, w.k, w.side, w.lhs_value, v.checks_performed) == (15, 116, "upper", 117, 1989)
    assert elapsed < 1.0, elapsed


def test_three_cusp_fold_is_fast():
    # the fold of two <120, 121> cusps (delta 7140 each) took 20-24 s as a
    # (2 * 14280) x (2 * 7140) table; by min-plus on run starts it takes
    # about 4 s
    pairs, g, d = [(120, 121)] * 3, 108, 209
    start = time.perf_counter()
    v = check_multi(pairs, g, d)
    elapsed = time.perf_counter() - start
    assert _verdict_tuple(v) == (False, (1, 0, "lower", -1), 219)
    assert _verdict_tuple(v) == oracles.brute_multi_verdict(pairs, g, d, window=4)
    assert elapsed < 15.0, elapsed


def test_gap_lists_match_oracle():
    # every coprime 1 <= a < b <= 60 (about 0.3 s, nearly all of it the sieve)
    start = time.perf_counter()
    checked = 0
    for b in range(2, 61):
        for a in range(1, b):
            if gcd(a, b) == 1:
                assert list(Semigroup(a, b).gaps) == oracles.gap_list(a, b), (a, b)
                checked += 1
    assert checked == 1101
    assert time.perf_counter() - start < 10.0
