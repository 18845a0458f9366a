"""The multi-cusp check evaluates the infimum convolution lazily.

`check_multi` reads IC(s) only at the arguments the scan asks for, through
`semigroup.convolve_at` on the two operands' run starts.  These tests hold
it to the whole convolution (the `convolve` fold of all cusps, computed
before the scan, the earlier implementation), to the brute-force oracle,
and to the stored two-cusp reference table.
"""

import json
import random
import time
from functools import reduce
from math import gcd
from pathlib import Path

from unicusp import Semigroup, check_multi, convolve, obstruction

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
