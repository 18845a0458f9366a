import random

import pytest

from unicusp import (
    QuadInt,
    canonical,
    coprime_decompose,
    generating_set,
    has_solution,
    phi_power,
    quadring,
)

import oracles


PHI = QuadInt(1, 1)


def test_parity_validation():
    with pytest.raises(ValueError):
        QuadInt(1, 2)
    with pytest.raises(ValueError):
        QuadInt(0, 3)
    QuadInt(1, 3)
    QuadInt(2, 0)


def test_construction_and_coordinates():
    z = QuadInt.from_sqrt5(4, 1)
    assert (z.u, z.v) == (8, 2)
    assert z.as_sqrt5() == (4, 1)
    assert QuadInt(1, 1).as_sqrt5() is None
    assert QuadInt.from_int(3) == QuadInt(6, 0)
    assert str(QuadInt.from_sqrt5(18, 8)) == "18+8*sqrt5"
    assert str(QuadInt(29, 1)) == "(29+1*sqrt5)/2"
    assert str(QuadInt.from_sqrt5(4, -1)) == "4-1*sqrt5"


def test_ring_arithmetic():
    rng = random.Random(7)
    for _ in range(300):
        z = QuadInt(*_random_coords(rng))
        w = QuadInt(*_random_coords(rng))
        assert (z + w) - w == z
        assert z * w == w * z
        assert (z * w).conjugate() == z.conjugate() * w.conjugate()
        assert (-z) + z == QuadInt(0, 0)
        assert 3 * z == z * 3 == z + z + z


def _random_coords(rng):
    u = rng.randrange(-40, 41)
    v = rng.randrange(-40, 41)
    if (u - v) % 2:
        v += 1
    return u, v


def test_norm_multiplicative():
    rng = random.Random(13)
    for _ in range(10000):
        z = QuadInt(*_random_coords(rng))
        w = QuadInt(*_random_coords(rng))
        assert (z * w).norm() == z.norm() * w.norm()


def test_phi_powers():
    assert PHI.norm() == -1
    assert phi_power(2) == QuadInt(3, 1)
    assert phi_power(-2) == QuadInt(3, -1)
    assert phi_power(4) == QuadInt(7, 3)
    assert phi_power(-4) == QuadInt(7, -3)
    assert phi_power(0) == QuadInt(2, 0)
    assert phi_power(3) * phi_power(-3) == QuadInt(2, 0)
    for k in range(-8, 9):
        assert phi_power(k).norm() == (-1) ** k


def test_negative_power_requires_unit():
    z = QuadInt.from_sqrt5(3, 1)  # norm 4
    with pytest.raises(ValueError):
        z ** -1
    assert (PHI ** -1) * PHI == QuadInt(2, 0)


def test_divisibility_by_inert_primes():
    # primes q = +-2 mod 5 stay prime in the ring: q | norm forces q | both
    # coordinates, which is how the solvability test works
    for q in (3, 7, 13, 17, 23, 37, 43):
        hits = 0
        for u in range(-2 * q, 2 * q + 1):
            for v in range(-2 * q, 2 * q + 1):
                if (u - v) % 2:
                    continue
                z = QuadInt(u, v)
                n = z.norm()
                if n != 0 and n % q == 0:
                    hits += 1
                    assert u % q == 0 and v % q == 0, (q, u, v)
        assert hits > 0, q


def test_has_solution_against_scan():
    for n in range(1, 400):
        expect = len(oracles.pell_solutions(n, 300)) > 0
        got = has_solution(n)
        # the scan can only prove existence; absence is certified by the
        # congruence criterion, so disagreement is one-sided
        if expect:
            assert got, n
    # spot negatives: 4(2g-1) for the congruence-obstructed genera
    for g in (2, 4, 7, 9, 12, 14):
        assert not has_solution(4 * (2 * g - 1)), g
    with pytest.raises(ValueError):
        has_solution(0)


def test_solution_scan_converse():
    # for moderate n the fundamental-domain bound keeps minimal solutions
    # small, so a wide scan is an actual equivalence check
    for n in range(1, 200):
        if has_solution(n):
            assert len(oracles.pell_solutions(n, 500)) > 0, n


def test_coprime_decompose_matches_scan():
    for n in range(1, 400):
        dec = coprime_decompose(n)
        expect = oracles.has_coprime_solution(n, 500)
        assert (dec is not None) == expect, n
        if dec is not None:
            assert dec.a_part in (1, 4, 5, 20)
            assert dec.a_part * dec.n_prime == n
            assert dec.class_count >= 1


def test_coprime_decompose_structure():
    dec = coprime_decompose(209)  # 11 * 19, both +-1 mod 5
    assert dec.a_part == 1 and dec.n_prime == 209
    assert dec.distinct_primes == 2 and dec.class_count == 2
    assert coprime_decompose(8) is None          # 2^3 kills coprimality
    assert coprime_decompose(25) is None         # 5^2 kills coprimality
    assert coprime_decompose(9) is None          # inert prime
    assert coprime_decompose(20).a_part == 20
    with pytest.raises(ValueError):
        coprime_decompose(0)


def test_fundamental_primes():
    # the least solution of each split or ramified prime, which seeds
    # `generating_set`'s orbits
    for p, uv in ((5, (10, 4)), (11, (8, 2)), (19, (16, 6))):
        least = quadring._least_solution(p)
        assert (least.u, least.v) == uv
    for p in (11, 19, 29, 31, 41):
        assert quadring._least_solution(p).norm() == p


def test_generating_sets():
    gens = generating_set(209)
    assert [(z.u, z.v) for z in gens] == [(34, 8), (46, 16)]
    for z in gens:
        assert z.norm() == 209
    gens44 = generating_set(44)
    assert [(z.u, z.v) for z in gens44] == [(14, 2)]
    assert generating_set(44)[0].norm() == 44
    gens4 = generating_set(4)
    assert [(z.u, z.v) for z in gens4] == [(6, 2)]
    with pytest.raises(ValueError):
        generating_set(12)


def test_negative_n_mirrors_its_negation():
    # phi has norm -1, so -n has coprime solutions exactly when n has: its
    # certificate is n's with n and n_prime negated, and its generators,
    # one per orbit, cover every coprime solution the scan finds
    for n in range(1, 400):
        dec, positive = coprime_decompose(-n), coprime_decompose(n)
        assert (dec is not None) == oracles.has_coprime_solution(-n, 500), n
        if dec is None:
            assert positive is None, n
            continue
        assert dec == positive._replace(n=-n, n_prime=-positive.n_prime), n
        gens = generating_set(-n)
        assert len(set(gens)) == dec.class_count and all(z.norm() == -n for z in gens), n
        for x, y in oracles.pell_solutions(-n, 400):
            if oracles.gcd(x, y) == 1:
                assert canonical(QuadInt.from_sqrt5(x, y)) in map(canonical, gens), (n, x, y)


def test_generating_set_covers_scan():
    # every coprime scan solution must be equivalent to a generator under
    # units and conjugation
    for n in (4, 11, 19, 20, 44, 55, 76, 209, 176):
        dec = coprime_decompose(n)
        if dec is None:
            continue
        gens = {canonical(z) for z in generating_set(n)}
        assert len(gens) == dec.class_count
        assert all(z.norm() == n for z in generating_set(n)), n
        for x, y in oracles.pell_solutions(n, 400):
            if oracles.gcd(x, y) != 1 and not (x == 2 and y == 0):
                continue
            z = QuadInt.from_sqrt5(x, y)
            if z.norm() != n:
                continue
            assert canonical(z) in gens, (n, x, y)


def test_generators_are_least_coprime_solutions():
    # each generator is a coprime solution with x, y >= 0, one per orbit,
    # and the least y among them is the least y of any coprime solution
    ns = [*range(-2000, 0), *range(1, 2001), *(4 * (2 * g - 1) for g in range(301))]
    for n in ns:
        dec = coprime_decompose(n)
        if dec is None:
            continue
        gens = [z.as_sqrt5() for z in generating_set(n)]
        y_limit = max(y for _, y in gens)
        scanned = oracles.pell_solutions(n, y_limit)
        for x, y in gens:
            assert (x, y) in scanned and oracles.gcd(x, y) == 1, (n, x, y)
        orbits = {canonical(QuadInt.from_sqrt5(x, y)) for x, y in gens}
        assert len(orbits) == len(gens) == dec.class_count, n
        least = min(y for x, y in scanned if oracles.gcd(x, y) == 1)
        assert min(y for _, y in gens) == least, n


def test_canonical_properties():
    rng = random.Random(3)
    for _ in range(250):
        z = QuadInt(*_random_coords(rng))
        if z.norm() == 0:
            continue
        c = canonical(z)
        assert canonical(c) == c
        assert canonical(-z) == c
        assert canonical(z.conjugate()) == c
        assert canonical(z * phi_power(4)) == c
        assert canonical(z * phi_power(-8)) == c
        assert c.norm() == z.norm()  # slides, negation, conjugation all fix it
        assert c.v >= 0
    with pytest.raises(ValueError):
        canonical(QuadInt(0, 0))


def test_canonical_known_values():
    z = QuadInt.from_sqrt5(18, 8)
    assert (canonical(z).u, canonical(z).v) == (4, 0)
    w = QuadInt.from_sqrt5(123, 55)  # same orbit, two steps up
    assert canonical(w) == canonical(z)


def _canonical_by_search(z, window):
    # reference: the least of +-phi^(2h) z and their conjugates over h in
    # the window, by the key (|v|, v < 0, u <= 0, u, v)
    orbit = []
    for h in range(-window, window + 1):
        w = z * phi_power(2 * h)
        orbit += [w, -w, w.conjugate(), -w.conjugate()]
    return min(orbit, key=lambda t: (abs(t.v), t.v < 0, t.u <= 0, t.u, t.v))


def test_canonical_matches_the_searched_rule():
    rng = random.Random(17)
    cases = []
    for _ in range(400):
        u, v = rng.randrange(-10 ** 4, 10 ** 4), rng.randrange(-10 ** 4, 10 ** 4)
        cases.append(QuadInt(u, v + (u - v) % 2))
    # plateaus, where phi^2 keeps |v| (u = -v, as in QuadInt(-2, 2) = -1 + sqrt5
    # of norm -4, and u = -5v), and the axes u = 0 and v = 0
    for t in range(1, 40):
        cases += [QuadInt(-t, t), QuadInt(t, t), QuadInt(-5 * t, t), QuadInt(5 * t, t),
                  QuadInt(0, 2 * t), QuadInt(2 * t, 0)]
    for z in cases:
        if z.norm() == 0:
            continue
        for start in (z, -z.conjugate() * phi_power(6), z * phi_power(-10)):
            assert canonical(start) == _canonical_by_search(start, 16), start
