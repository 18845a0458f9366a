from fractions import Fraction
from itertools import islice
from math import gcd, isqrt
from random import Random

import pytest

from unicusp import (
    Candidate,
    asymptote_slopes,
    check_single,
    degree_for,
    enumerate_candidates,
    exceptional_family,
    fibonacci,
    mediant_bound,
    sector_bounds,
    sector_of,
    walk_sectors,
)
from unicusp.classify import (
    CANDIDATE_MEMO_SIZE,
    _FAMILIES,
    _candidates_at_degree,
    _square_free_split,
    _tags_for,
)

import oracles


def test_degree_for():
    assert degree_for(1, 8, 1) == 3
    assert degree_for(4, 7, 0) is None
    assert degree_for(5, 8, 7) == 8
    assert degree_for(8, 55, 1) == 21
    assert degree_for(4, 7, 6) == 7
    assert degree_for(3, 5, 1) is None


def test_enumerate_matches_brute_force():
    for g in (0, 1, 2, 3):
        for smooth in (False, True):
            report = enumerate_candidates(g, 25, allow_smooth=smooth)
            got = [(c.a, c.b, c.d) for c in report.candidates]
            assert got == oracles.brute_enumerate(g, 25, allow_smooth=smooth), (g, smooth)


def test_enumerate_is_in_key_order_without_a_sort():
    # enumerate_candidates keeps the order _candidates_at_degree gives; a
    # report at dmax 150 holds every report below it as a prefix
    for g in range(41):
        for smooth in (False, True):
            keys = [c.key() for c in enumerate_candidates(g, 150, allow_smooth=smooth).candidates]
            assert all(k < k_next for k, k_next in zip(keys, keys[1:])), (g, smooth)


def test_degree_memo_starts_empty():
    # tests/conftest.py empties the memo before every test, so no test
    # runs on degrees that an earlier test answered
    info = _candidates_at_degree.cache_info()
    assert (info.currsize, info.hits, info.misses) == (0, 0, 0)


def test_degree_memo_changes_no_report():
    # overlapping windows in shuffled order, both allow_smooth values at
    # every (g, d), each against the report of a cold memo
    windows = [(g, d_max, smooth) for g in range(7) for d_max in range(20, 81, 12)
               for smooth in (False, True)]
    Random(0).shuffle(windows)
    warm = [enumerate_candidates(g, d_max, allow_smooth=smooth) for g, d_max, smooth in windows]
    assert _candidates_at_degree.cache_info().hits > 0
    for (g, d_max, smooth), report in zip(windows, warm):
        _candidates_at_degree.cache_clear()
        assert report == enumerate_candidates(g, d_max, allow_smooth=smooth), (g, d_max, smooth)
    # an entry is the slice it was, handed out again on a hit: the degree's
    # candidates, and its exceptions each paired with its tags
    for d in range(1, 81):
        entry = _candidates_at_degree(3, d, True)
        candidates, exceptions = entry
        assert type(entry) is tuple and all(type(c) is Candidate for c in candidates)
        assert exceptions == tuple((c, _tags_for(c)) for c in candidates
                                   if c.admissible and not c.on_3d_line)
        assert _candidates_at_degree(3, d, True) is entry


def test_memo_tags_each_exception_once(monkeypatch):
    # a cold window tags each of its exceptions once; the same window read
    # again, or a window inside it, tags nothing
    calls = 0

    def counted(c):
        nonlocal calls
        calls += 1
        return _tags_for(c)

    monkeypatch.setattr("unicusp.classify._tags_for", counted)
    for g, d_max, smooth in ((0, 120, False), (1, 80, True), (7, 60, False)):
        calls = 0
        report = enumerate_candidates(g, d_max, allow_smooth=smooth)
        assert calls == len(report.exceptions) > 0, (g, d_max, smooth)
        calls = 0
        assert enumerate_candidates(g, d_max, allow_smooth=smooth) == report
        enumerate_candidates(g, d_max // 2, allow_smooth=smooth)
        assert calls == 0, (g, d_max, smooth)


def test_window_read_from_a_warm_memo_matches_brute_force():
    for g in range(7):
        for smooth in (False, True):
            enumerate_candidates(g, 80, allow_smooth=smooth)
            hits = _candidates_at_degree.cache_info().hits
            small = enumerate_candidates(g, 20, allow_smooth=smooth)
            assert _candidates_at_degree.cache_info().hits == hits + 20
            got = [(c.a, c.b, c.d) for c in small.candidates]
            assert got == oracles.brute_enumerate(g, 20, allow_smooth=smooth), (g, smooth)
            for c in small.candidates:
                assert c.admissible == oracles.brute_admissible(c.a, c.b, c.g, c.d)[0], c


def test_degree_memo_is_bounded():
    info = _candidates_at_degree.cache_info()
    assert info.maxsize == CANDIDATE_MEMO_SIZE and info.maxsize is not None
    # genus g > 0 at d_max 2 touches two keys, and both degrees hold nothing
    for g in range(1, CANDIDATE_MEMO_SIZE // 2 + 2):
        enumerate_candidates(g, 2)
    info = _candidates_at_degree.cache_info()
    assert info.misses > info.maxsize
    assert info.currsize == info.maxsize


def test_admissibility_matches_brute_force():
    report = enumerate_candidates(1, 20, allow_smooth=True)
    for c in report.candidates:
        ok, _ = oracles.brute_admissible(c.a, c.b, c.g, c.d)
        assert c.admissible == ok, c


def test_report_partition():
    for g in (0, 1, 2):
        rep = enumerate_candidates(g, 20, allow_smooth=True)
        adm = {(c.a, c.b) for c in rep.admissible}
        line = {(c.a, c.b) for c in rep.on_3d_line}
        exc = {(c.a, c.b) for c, _ in rep.exceptions}
        assert line | exc == adm
        assert not (line & exc)
        for c in rep.on_3d_line:
            assert c.element is not None
            assert c.element.norm() == 4 * (2 * g - 1)


def test_frozen_genus_one_sweep():
    rep = enumerate_candidates(1, 25, allow_smooth=True)
    adm = [(c.a, c.b, c.d) for c in rep.admissible]
    assert adm == [
        (1, 8, 3), (2, 5, 4), (2, 11, 5), (2, 19, 6), (3, 10, 6), (3, 28, 9),
        (4, 37, 12), (5, 46, 15), (6, 37, 15), (6, 55, 18), (7, 64, 21),
        (8, 55, 21), (8, 73, 24), (9, 64, 24),
    ]
    # every untagged exception sits at low degree except the lone (6,37)
    assert [(c.a, c.b, c.d) for c in rep.untagged] == [
        (2, 5, 4), (2, 11, 5), (3, 10, 6), (6, 37, 15)]
    assert rep.largest_exceptional_degree == 24
    assert max(c.d for c in rep.untagged) == 15
    assert [(c.a, c.b) for c in rep.on_3d_line] == [(1, 8), (8, 55)]


def test_exception_tags():
    assert _tags_for(Candidate(1, 2, 19, 6)) == ("(l,9l+1)",)
    assert _tags_for(Candidate(1, 3, 28, 9)) == ("(l,9l+1)",)
    assert _tags_for(Candidate(7, 5, 8, 8)) == ("(p,p+3)",)
    assert _tags_for(Candidate(6, 4, 7, 7)) == ("(p,p+3)", "(p,2p-1)")
    assert _tags_for(Candidate(12, 5, 9, 9)) == ("(p,2p-1)",)
    assert _tags_for(Candidate(1, 9, 64, 24)) == ("(3n,21n+1)",)
    # a tag is a formula match at any parameter: n = 1, 2 are tagged, though
    # exceptional_family keeps kind 3 to n > 2
    assert _tags_for(Candidate(0, 3, 22, 8)) == ("(3n,21n+1)",)
    assert _tags_for(Candidate(0, 6, 43, 16)) == ("(3n,21n+1)",)
    assert _tags_for(Candidate(1, 6, 37, 15)) == ()


# small parameters of every row of the family table, kept in range: a >= 2
# and gcd(a, b) = 1 (3 divides both p and p + 3 when it divides p)
FAMILY_PARAMS = {
    "(l,9l+1)": range(2, 14),
    "(p,p+3)": [p for p in range(2, 20) if p % 3],
    "(p,2p-1)": range(2, 14),
    "(3n,21n+1)": range(1, 7),
}


def test_family_members_are_tagged_admissible_exceptions():
    assert [tag for tag, _, _ in _FAMILIES] == list(FAMILY_PARAMS)
    for tag, _, member in _FAMILIES:
        for t in FAMILY_PARAMS[tag]:
            c = Candidate(*member(t))
            assert not c.on_3d_line, (tag, t)
            assert tag in _tags_for(c), (tag, t)
            assert oracles.brute_admissible(c.a, c.b, c.g, c.d) == (True, None), (tag, t)


def test_exceptional_family_is_tagged_by_its_kind():
    tags = {1: "(p,p+3)", 2: "(p,2p-1)", 3: "(3n,21n+1)"}
    for kind, tag in tags.items():
        made = 0
        for param in range(3, 60):
            if kind == 1 and param % 3 == 0:
                continue
            c = exceptional_family(kind, param)
            assert tag in _tags_for(c) and c.admissible, (kind, param)
            made += 1
        assert made > 35, kind


def test_enumerate_validation():
    with pytest.raises(ValueError):
        enumerate_candidates(-1, 10)
    with pytest.raises(ValueError):
        enumerate_candidates(1, 0)


def test_exceptional_family_generators():
    assert_tuple = lambda c, t: (c.a, c.b, c.d, c.g) == t
    c = exceptional_family(1, 5)
    assert assert_tuple(c, (5, 8, 8, 7)) and c.admissible
    c = exceptional_family(2, 4)
    assert assert_tuple(c, (4, 7, 7, 6)) and c.admissible
    assert c.a + c.b != 3 * c.d
    c = exceptional_family(3, 3)
    assert assert_tuple(c, (9, 64, 24, 1)) and c.admissible
    assert c.a + c.b != 3 * c.d
    for kind, bad in ((1, 1), (1, 6), (2, 1), (3, 2), (4, 2)):
        with pytest.raises(ValueError):
            exceptional_family(kind, bad)


def test_sector_of_examples():
    s = sector_of(2, 13)
    assert s.l == 2
    assert s.low == Fraction(25, 4) and s.high == Fraction(169, 25)
    assert s.puncture == (2, 13)
    assert sector_of(3, 19).l == 2
    assert sector_of(5, 34).l == 3
    assert sector_of(1, 8) is None       # slope above phi^4
    assert sector_of(1, 7) is None       # phi^4 < 7.0 as well
    assert sector_of(2, 5) is None       # below the first wall
    assert sector_of(4, 25) is None      # exactly on the first wall
    assert sector_of(25, 169) is None    # exactly on the l=2/3 wall
    with pytest.raises(ValueError):
        sector_of(3, 2)


def test_sector_walls_climb_to_phi4():
    prev = Fraction(0)
    for l in range(2, 12):
        s = sector_of(fibonacci(2 * l - 1), fibonacci(2 * l + 3))
        assert s is not None and s.l == l
        assert prev < s.low < s.high
        assert s.puncture == (fibonacci(2 * l - 1), fibonacci(2 * l + 3))
        prev = s.low
    # the puncture slope sits strictly inside its own sector, for every
    # sector that `sectors --lmax 400` prints (l = 2..400)
    for s in islice(walk_sectors(), 399):
        a, b = s.puncture
        assert s.low < Fraction(b, a) < s.high, s.l
    # every wall stays below phi^4: w < (7+3*sqrt5)/2 iff (2w-7)^2 < 45
    for l in range(2, 12):
        w = Fraction(fibonacci(2 * l + 1) ** 2, fibonacci(2 * l - 1) ** 2)
        t = 2 * w - 7
        assert t < 0 or t * t < 45


def test_walk_sectors_matches_closed_forms():
    # the first 300 sectors, l = 2..301, against fast-doubling Fibonacci
    walked = list(islice(walk_sectors(), 300))
    assert [s.l for s in walked] == list(range(2, 302))
    for s in walked:
        l = s.l
        f_lo, f_mid, f_hi = (fibonacci(2 * l - 1), fibonacci(2 * l + 1),
                             fibonacci(2 * l + 3))
        assert s.low == Fraction(f_mid ** 2, f_lo ** 2)
        assert s.high == Fraction(f_hi ** 2, f_mid ** 2)
        assert s.puncture == (f_lo, f_hi)


def test_sector_of_returns_the_walked_sector():
    for s in islice(walk_sectors(), 59):  # l = 2..60
        assert sector_of(*s.puncture) == s


def test_sector_bounds_formulas():
    assert sector_bounds(1, 2) == (12, 27)
    assert sector_bounds(1, 3) == (28, 70)
    assert sector_bounds(2, 2) == (32, 77)
    with pytest.raises(ValueError):
        sector_bounds(0, 2)
    with pytest.raises(ValueError):
        sector_bounds(1, 1)


def test_sectors_belong_to_genus_zero():
    # the open band between the first wall and phi^4 hosts the genus-0
    # puncture family; positive-genus admissible pairs avoid it entirely
    # at small degree, and when one does land there it must respect the
    # per-genus search box
    for g in (1, 2, 3):
        rep = enumerate_candidates(g, 25, allow_smooth=True)
        for c in rep.admissible:
            s = sector_of(c.a, c.b)
            if s is not None:
                a_max, b_max = sector_bounds(g, s.l)
                assert c.a <= a_max and c.b <= b_max, (g, c)
    inside = [c for c in enumerate_candidates(0, 15, allow_smooth=True).admissible
              if sector_of(c.a, c.b) is not None]
    assert [(c.a, c.b) for c in inside] == [(2, 13), (5, 34)]
    assert [sector_of(c.a, c.b).l for c in inside] == [2, 3]


def test_mediant_bound_examples():
    assert mediant_bound(25, 4, 13, 2) == (Fraction(19), Fraction(3))
    assert mediant_bound(1, 2, 2, 3) == (Fraction(3), Fraction(5))
    assert mediant_bound(13, 2, 169, 25) == (Fraction(14), Fraction(27, 13))
    with pytest.raises(ValueError):
        mediant_bound(2, 4, 13, 2)       # not reduced
    with pytest.raises(ValueError):
        mediant_bound(13, 2, 25, 4)      # wrong order
    with pytest.raises(ValueError):
        mediant_bound(0, 1, 1, 2)


def test_mediant_bound_is_sharp():
    # any rational strictly between the fractions has numerator and
    # denominator at least the stated bounds
    cases = [(25, 4, 13, 2), (1, 2, 2, 3), (13, 2, 169, 25), (3, 7, 5, 11)]
    for m1, n1, m2, n2 in cases:
        if gcd(m1, n1) != 1 or gcd(m2, n2) != 1:
            continue
        if Fraction(m1, n1) >= Fraction(m2, n2):
            m1, n1, m2, n2 = m2, n2, m1, n1
        b_min, a_min = mediant_bound(m1, n1, m2, n2)
        for den in range(1, 40):
            for num in range(1, 260):
                if Fraction(m1, n1) < Fraction(num, den) < Fraction(m2, n2):
                    assert num >= b_min and den >= a_min, (m1, n1, m2, n2, num, den)


def test_asymptote_slopes():
    sp = asymptote_slopes(Fraction(1, 3), Fraction(1, 3))
    assert (sp.rational_part, sp.surd_coeff, sp.radicand) == (
        Fraction(7, 2), Fraction(3, 2), 5)
    assert not sp.vertical
    lo, hi = sp.approx()
    assert abs(hi - 6.854101966) < 1e-8
    assert abs(lo * hi - 1.0) < 1e-12    # phi^4 * phi^-4

    assert asymptote_slopes(0, 2).rational_part == 4
    assert asymptote_slopes(0, 2).vertical
    assert asymptote_slopes(0, Fraction(5, 2)).rational_part == Fraction(25, 4)
    with pytest.raises(ValueError):
        asymptote_slopes(Fraction(1, 2), Fraction(1, 2))


def test_square_free_split_matches_naive():
    # the largest square divisor, found by trying every root
    for n in range(1, 10 ** 4 + 1):
        s = max(t for t in range(1, isqrt(n) + 1) if n % (t * t) == 0)
        assert _square_free_split(n) == (s, n // (s * s)), n


def test_asymptote_perfect_square_disc():
    # 1 - 4pq = 9/25 is a rational square: radicand collapses to 1
    sp = asymptote_slopes(Fraction(2, 5), Fraction(2, 5))
    assert sp.radicand == 1
    lo, hi = sp.approx()
    assert lo < hi
