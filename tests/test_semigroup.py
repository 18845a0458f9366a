import random
from bisect import bisect_left
from functools import reduce

import pytest

from unicusp import GapFunction, Semigroup, combined_gap_value, convolve

import oracles


def test_constructor_validation():
    with pytest.raises(ValueError):
        Semigroup(0, 5)
    with pytest.raises(ValueError):
        Semigroup(5, 5)
    with pytest.raises(ValueError):
        Semigroup(7, 3)
    with pytest.raises(ValueError):
        Semigroup(4, 6)  # not coprime
    Semigroup(1, 2)  # smooth pair is legal


def test_small_semigroup_tables():
    s = Semigroup(4, 7)
    assert s.delta == 9
    assert s.frobenius == 17
    assert list(s.gaps) == [1, 2, 3, 5, 6, 9, 10, 13, 17]
    assert s.gaps_at_least(9) == 4
    assert s.nth_element(4) == 8  # elements: 0, 4, 7, 8, ...
    assert s.elements_below(5) == 2

    t = Semigroup(2, 3)
    assert t.delta == 1
    assert list(t.gaps) == [1]
    assert t.frobenius == 1

    smooth = Semigroup(1, 9)
    assert smooth.delta == 0
    assert smooth.frobenius == -1
    assert smooth.gaps == ()
    assert smooth.elements_below(5) == 5
    assert smooth.nth_element(3) == 2


def test_counting_functions_match_sieve():
    rng = random.Random(41)
    for _ in range(60):
        a = rng.randrange(2, 11)
        b = rng.randrange(a + 1, 40)
        while oracles.gcd(a, b) != 1:
            b += 1
        s = Semigroup(a, b)
        elems = oracles.sieve_elements(a, b, 2 * s.delta + 40)
        gaps = oracles.gap_list(a, b)
        assert list(s.gaps) == gaps
        for m in range(-15, 2 * s.delta + 15):
            r = s.elements_below(m)
            if m <= 0:
                assert r == 0
            else:
                assert r == bisect_left(elems, m)
            i = s.gaps_at_least(m)
            if m <= 0:
                assert i == s.delta - m
            else:
                assert i == sum(1 for g in gaps if g >= m)
            assert r == m - s.delta + i


def test_first_pair_matches_sieve():
    # smallest x with x and x + 1 both elements, by search over a sieve;
    # x = (a - 1) * (b - 1), the conductor, always qualifies
    for b in range(3, 61):
        for a in range(2, b):
            if oracles.gcd(a, b) != 1:
                continue
            conductor = (a - 1) * (b - 1)
            elems = set(oracles.sieve_elements(a, b, conductor + 2))
            expect = next(x for x in range(conductor + 1)
                          if x in elems and x + 1 in elems)
            assert Semigroup(a, b).first_pair == expect, (a, b)
    # at a = 1 every m >= 0 is an element: the true value 0, not the
    # closed form's -1
    for b in (2, 3, 10, 59):
        assert Semigroup(1, b).first_pair == 0


def test_nth_element_indexing():
    s = Semigroup(3, 7)
    elems = oracles.sieve_elements(3, 7, 3 * s.delta + 30)
    for n in range(1, len(elems) + 1):
        assert s.nth_element(n) == elems[n - 1]
    with pytest.raises(ValueError):
        s.nth_element(0)
    # beyond the gaps everything is consecutive
    assert s.nth_element(s.delta + 5) == 2 * s.delta + 4
    # 2 * delta above sys.maxsize, where a range cannot be bisected
    a = 10 ** 11
    s = Semigroup(a, a + 1)
    assert [s.nth_element(n) for n in range(1, 7)] == [0, a, a + 1, 2 * a, 2 * a + 1, 2 * a + 2]
    s = Semigroup(10000000000000008, 10000000000000000000000000000009)
    n = 1000000000000000000000000000008
    v = s.nth_element(n)
    assert s.elements_below(v) < n <= s.elements_below(v + 1)


def test_gap_function_shape():
    # f(m) is gaps_at_least(m) everywhere, and the run starts are 0, then
    # each gap + 1
    for a, b in ((1, 2), (2, 3), (4, 7), (5, 51)):
        s = Semigroup(a, b)
        f = s.gap_function()
        assert f.delta == s.delta
        assert f.starts == (0, *(x + 1 for x in oracles.gap_list(a, b))), (a, b)
        for m in range(-3, 2 * s.delta + 4):
            assert f(m) == s.gaps_at_least(m), (a, b, m)
    f = Semigroup(4, 7).gap_function()
    assert (f(-4), f(0), f(17), f(18)) == (13, 9, 1, 0)  # largest gap 17

    z = GapFunction.zero()
    assert z.starts == (0,)
    assert z.delta == 0 and z(0) == 0 and z(-3) == 3


def test_gap_function_validation():
    with pytest.raises(ValueError):
        GapFunction((1, 2))            # does not start at 0
    with pytest.raises(ValueError):
        GapFunction((0, 3, 2))         # not increasing
    with pytest.raises(ValueError):
        GapFunction((0, 3))            # last start beyond 2*delta
    GapFunction((0, 2))                # the gap function of <2, 3>
    starts = [0, 2]                    # a list is stored as a tuple
    f = GapFunction(starts)
    assert f == GapFunction((0, 2)) and hash(f) == hash(GapFunction((0, 2)))
    starts.append(5)
    assert f.starts == (0, 2) and f.delta == 1


def test_convolve_identity_and_symmetry():
    f = Semigroup(3, 7).gap_function()
    g = Semigroup(2, 9).gap_function()
    h = Semigroup(4, 5).gap_function()
    z = GapFunction.zero()
    assert convolve(f, z) == f
    assert convolve(z, f) == f
    assert convolve(f, g) == convolve(g, f)
    assert convolve(convolve(f, g), h) == convolve(f, convolve(g, h))


def test_convolve_matches_wide_window():
    # the production window m in [0, 2*delta_f] must lose nothing
    rng = random.Random(99)
    pairs = [(2, 3), (2, 5), (3, 4), (3, 5), (4, 7), (5, 6), (2, 11), (3, 10)]
    for _ in range(25):
        a1, b1 = rng.choice(pairs)
        a2, b2 = rng.choice(pairs)
        f = Semigroup(a1, b1).gap_function()
        g = Semigroup(a2, b2).gap_function()
        h = convolve(f, g)
        window = 2 * (f.delta + g.delta) + 12
        for s in range(0, 2 * h.delta + 6):
            expect = oracles.wide_convolve_value(f, g, s, window)
            assert h(s) == expect, (a1, b1, a2, b2, s)
    # three- and four-part folds in three shapes (a left fold and two
    # folds of folds), parts up to delta 100, against the oracle's left
    # fold with its window 6 past [0, s] on both sides (about 1 s)
    larger = pairs + [(5, 51), (7, 34), (11, 21), (13, 17), (9, 26), (2, 201)]
    biggest = 0
    for case in range(12):
        parts = [rng.choice(larger) for _ in range(3 + case % 2)]
        fs = [Semigroup(a, b).gap_function() for a, b in parts]
        folds = (reduce(convolve, fs),
                 convolve(fs[0], reduce(convolve, fs[1:])),
                 convolve(convolve(fs[0], fs[1]), reduce(convolve, fs[2:])))
        total = sum(f.delta for f in fs)
        assert all(h.delta == total for h in folds)
        ic = oracles.multi_gap_counter(parts, 6)
        for s in range(-3, 2 * total + 3):
            expect = ic(s)
            assert [h(s) for h in folds] == [expect] * 3, (parts, s)
        biggest = max(biggest, *(f.delta for f in fs))
    assert biggest >= 99


def test_convolve_drop_structure():
    f = Semigroup(3, 7).gap_function()
    g = Semigroup(4, 5).gap_function()
    h = convolve(f, g)
    assert h.delta == f.delta + g.delta
    assert h(0) == h.delta
    # one run start per unit of delta, the last at 2*delta
    assert h.starts[-1] == 2 * h.delta
    assert len(h.starts) == h.delta + 1


def test_combined_gap_value():
    f47 = Semigroup(4, 7).gap_function()
    # single part: value at m is I(m + delta)
    assert combined_gap_value([f47], 0) == 4   # I(9), gaps {9,10,13,17}
    assert combined_gap_value([f47], 9) == 0   # I(18) = 0
    g23 = Semigroup(2, 3).gap_function()
    v = combined_gap_value([f47, g23], 0)
    h = convolve(f47, g23)
    assert v == h(h.delta)
    assert combined_gap_value([], 0) == 0
    with pytest.raises(ValueError):
        combined_gap_value([f47], -1)


def test_equality_and_hash():
    assert Semigroup(3, 7) == Semigroup(3, 7)
    assert Semigroup(3, 7) != Semigroup(3, 8)
    assert len({Semigroup(3, 7), Semigroup(3, 7), Semigroup(2, 5)}) == 2


def _large_generator_pairs():
    """29 coprime pairs with generators up to 10^5, seeded."""
    rng = random.Random(5)
    pairs = [(1, 2), (2, 3), (4, 7), (1, 100000), (99989, 99991)]
    for lo, hi in ((2, 50), (50, 1000), (1000, 99990)):
        for _ in range(8):
            a = rng.randrange(lo, hi)
            b = rng.randrange(a + 1, 100001)
            while oracles.gcd(a, b) != 1:
                b -= 1  # stops at a + 1 at the latest
            pairs.append((a, b))
    return pairs


def test_counting_matches_oracle_up_to_large_generators():
    # generators up to 10^5, every m <= 2000 against the double-loop oracle
    pairs = _large_generator_pairs()
    top = 2000
    for a, b in pairs:
        s = Semigroup(a, b)
        delta = (a - 1) * (b - 1) // 2
        elems = oracles.sieve_elements(a, b, top + 1)
        members = set(elems)
        small = (a - 1) * (b - 1) <= 20000
        for m in range(-5, top + 1):
            r = bisect_left(elems, m) if m > 0 else 0
            assert s.elements_below(m) == r, (a, b, m)
            if small:
                expect_i = oracles.count_gaps_at_least(a, b, m)
            else:
                expect_i = delta - m + r  # gaps below m are m - r for m >= 0
            assert s.gaps_at_least(m) == expect_i, (a, b, m)
            assert s.contains(m) == (m in members), (a, b, m)
        for n, e in enumerate(elems, start=1):
            assert s.nth_element(n) == e, (a, b, n)
        # beyond 2*delta: every integer is an element
        assert s.frobenius == (2 * delta - 1 if delta else -1)
        assert not s.contains(s.frobenius)
        for m in (2 * delta, 2 * delta + 1, 2 * delta + 997, 7 * delta + 3):
            assert s.elements_below(m) == m - delta, (a, b, m)
            assert s.gaps_at_least(m) == 0, (a, b, m)
            assert s.contains(m), (a, b, m)
        for n in (delta + 1, delta + 2, 5 * delta + 11):
            assert s.nth_element(n) == delta + n - 1, (a, b, n)


def test_counting_around_b_matches_oracle():
    # gaps_at_least counts 0 < m <= b from the multiples of a alone, then
    # b < m <= 2b from two residue classes, and switches to the floor sum
    # past 2b; both sides of both switches against the oracles
    pairs = _large_generator_pairs()
    assert len(pairs) == 29
    for a, b in pairs:
        delta = (a - 1) * (b - 1) // 2
        s = Semigroup(a, b)
        for m in (b - 1, b, b + 1, 2 * b - 1, 2 * b, 2 * b + 1):
            r = oracles.count_below(a, b, m)
            assert s.elements_below(m) == r, (a, b, m)
            if (a - 1) * (b - 1) <= 20000:
                expect_i = oracles.count_gaps_at_least(a, b, m)
            else:
                expect_i = delta - m + r  # gaps below m are m - r for m >= 0
            assert s.gaps_at_least(m) == expect_i, (a, b, m)
