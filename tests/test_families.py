import random
from math import gcd

import pytest

from unicusp import (
    Candidate,
    QuadInt,
    coprime_decompose,
    cremona_step,
    element_to_pair,
    enumerate_candidates,
    fibonacci,
    generating_set,
    lucas,
    lucas_family,
    lucas_family_neg,
    orbit_candidates,
    pair_to_element,
    phi_power,
    verify_fibonacci_identities,
)
from unicusp.families import LucasSeq, _pair_from_coords

import oracles


def test_fibonacci_values():
    assert [fibonacci(n) for n in range(10)] == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34]
    assert fibonacci(40) == 102334155
    with pytest.raises(ValueError):
        fibonacci(-1)


def test_lucas_bidirectional():
    # k=2 gives the Fibonacci numbers shifted: L_0=1, L_1=1
    assert [lucas(2, n) for n in range(8)] == [1, 1, 2, 3, 5, 8, 13, 21]
    assert lucas(2, -3) == -1
    assert lucas(2, -7) == -8
    assert [lucas(5, n) for n in range(5)] == [4, 1, 5, 6, 11]
    # recurrence holds across zero
    for k in (2, 3, 4, 7):
        for n in range(-10, 10):
            assert lucas(k, n + 1) == lucas(k, n) + lucas(k, n - 1), (k, n)
    with pytest.raises(ValueError):
        LucasSeq(1)


def test_lucas_seq_caching():
    seq = LucasSeq(3)
    assert seq(10) == seq(10)
    assert seq(-5) + seq(-4) == seq(-3)


def test_candidate_validation():
    Candidate(1, 1, 8, 3)
    with pytest.raises(ValueError):
        Candidate(1, 8, 1, 3)            # unordered
    with pytest.raises(ValueError):
        Candidate(1, 2, 4, 3)            # not coprime
    with pytest.raises(ValueError):
        Candidate(1, 1, 8, 4)            # degree-genus broken
    with pytest.raises(ValueError):
        Candidate(1, 1, 8, 3)._replace(d=4)   # _replace validates too
    assert Candidate(1, 1, 8, 3)._replace(admissible=True) == (1, 1, 8, 3, True)


def test_candidate_element_is_derived():
    assert Candidate(1, 1, 8, 3).element == QuadInt.from_sqrt5(18, 8)
    assert Candidate(1, 2, 5, 4).element is None     # off the 3d line
    with pytest.raises(TypeError):
        Candidate(1, 1, 8, 3, element=QuadInt.from_sqrt5(18, 8))
    # the norm holds on the line with no check at construction
    for g in range(41):
        for c in enumerate_candidates(g, 300, allow_smooth=True).candidates:
            # the sweep builds candidates unchecked; each must pass the check
            assert Candidate(*c) == c, c
            if not c.on_3d_line:
                assert c.element is None, c
                continue
            assert c.element.norm() == 4 * (2 * g - 1), c
            back = element_to_pair(c.element, g)
            assert (back.g, back.a, back.b, back.d) == (c.g, c.a, c.b, c.d), c


def test_pair_to_element_basics():
    assert pair_to_element(2, 5) is None          # 7 not divisible by 3
    z = pair_to_element(1, 8)
    assert z == QuadInt.from_sqrt5(18, 8) and z.norm() == 4
    z = pair_to_element(1, 11)
    assert z == QuadInt.from_sqrt5(25, 11) and z.norm() == 20
    z = pair_to_element(8, 55)
    assert z == QuadInt.from_sqrt5(123, 55)


def test_element_pair_round_trip():
    rng = random.Random(11)
    done = 0
    while done < 80:
        a = rng.randrange(1, 40)
        b = rng.randrange(a + 1, 120)
        if gcd(a, b) != 1 or (a + b) % 3:
            continue
        e = (a + b) // 3
        norm4 = e * e - a * b
        if norm4 % 2 == 0 or norm4 < -1:
            continue
        g = (norm4 + 1) // 2
        z = pair_to_element(a, b)
        assert z is not None and z.norm() == 4 * norm4
        cand = element_to_pair(z, g)
        assert cand is not None and (cand.a, cand.b, cand.d) == (a, b, e), (a, b)
        # all unit translates and conjugates recover the same pair
        assert element_to_pair(-z, g).a == a
        assert element_to_pair(z.conjugate(), g).a == a
        done += 1


def test_element_to_pair_matches_the_four_variant_rule():
    # reference: the first of z, -z and both conjugates with x, y > 0 that
    # _pair_from_coords accepts
    def by_variants(z, genus):
        for w in (z, -z, z.conjugate(), -z.conjugate()):
            x, y = w.as_sqrt5()
            if x > 0 and y > 0:
                cand = _pair_from_coords(x, y, genus)
                if cand is not None:
                    return cand
        return None

    orbits = [(pair_to_element(1, 2), 0)]
    for g in range(1, 400):
        if coprime_decompose(4 * (2 * g - 1)) is not None:
            orbits += [(z, g) for z in generating_set(4 * (2 * g - 1))]
    pairs = 0
    for gen, g in orbits:
        for h in range(-40, 41):
            z = gen * phi_power(2 * h)
            for w in (z, -z, z.conjugate(), -z.conjugate()):
                cand = element_to_pair(w, g)
                assert cand == by_variants(w, g), (w, g)
                pairs += cand is not None
    assert pairs > 1000, pairs


def test_element_to_pair_norm_guard():
    z = pair_to_element(1, 8)
    with pytest.raises(ValueError):
        element_to_pair(z, 2)
    # norm(15 + 7 sqrt5) = -20 = 4(2g - 1) at g = -2, and the pair it
    # carries, (2, 7) of degree 3, holds the degree-genus identity there
    z = QuadInt.from_sqrt5(15, 7)
    assert z.norm() == -20
    with pytest.raises(ValueError, match=r"genus must be >= 0, got -2"):
        element_to_pair(z, -2)


def test_orbit_candidates_pass_validation():
    # _pair_from_coords builds its candidates unchecked; each must pass
    orbits = [(pair_to_element(1, 2), 0)]
    for g in range(1, 41):
        if coprime_decompose(4 * (2 * g - 1)) is not None:
            orbits += [(z, g) for z in generating_set(4 * (2 * g - 1))]
    found = 0
    for z, g in orbits:
        for c in orbit_candidates(z, g, -100, 100):
            assert type(c) is Candidate and Candidate(*c) == c, (z, g, c)
            found += 1
    assert found > 1000, found


def test_orbit_candidates_frozen():
    z = pair_to_element(1, 11)
    got = [(c.a, c.b, c.d) for c in orbit_candidates(z, 3, -2, 2)]
    assert got == [(1, 11, 4), (4, 29, 11), (11, 76, 29)]
    z = pair_to_element(1, 8)
    got = [(c.a, c.b, c.d) for c in orbit_candidates(z, 1, 0, 4)]
    assert got == [(1, 8, 3), (8, 55, 21), (55, 377, 144)]
    with pytest.raises(ValueError):
        orbit_candidates(z, 1, 3, 2)


def test_orbit_candidates_step_matches_powers():
    # stepping by phi^2 gives the candidates of one phi_power per exponent,
    # on windows that cross h = 0
    def by_powers(z, genus, h_min, h_max):
        seen = {}
        for h in range(h_min, h_max + 1):
            cand = element_to_pair(z * phi_power(2 * h), genus)
            if cand is not None:
                seen.setdefault((cand.a, cand.b), cand)
        return sorted(seen.values(), key=Candidate.key)

    for (a, b), genus in (((1, 11), 3), ((1, 8), 1), ((4, 29), 3), ((2, 13), 0),
                          ((1, 5), 0)):
        z = pair_to_element(a, b)
        for h_min, h_max in ((-40, 40), (-7, 0), (0, 9), (-1, 1), (-25, 3), (0, 0)):
            assert orbit_candidates(z, genus, h_min, h_max) == by_powers(
                z, genus, h_min, h_max), (a, b, h_min, h_max)


def test_genus_mod_three_trichotomy():
    # 2g-1 = 0 mod 3 (i.e. g = 2 mod 3) makes 3 divide every solution pair,
    # so no coprime solutions and no candidate pairs at all
    for g in range(1, 31):
        n = 4 * (2 * g - 1)
        if g % 3 == 2:
            assert not oracles.has_coprime_solution(n, 300), g
            continue
        # otherwise, when an orbit carries pairs, their phi^2-exponent
        # parities follow the residue: g=1 mod 3 pins a single parity
        if coprime_decompose(n) is None:
            continue
        for gen in generating_set(n):
            parities = set()
            for h in range(-6, 7):
                cand = element_to_pair(gen * phi_power(2 * h), g)
                if cand is not None:
                    parities.add(h % 2)
            if g % 3 == 1:
                assert len(parities) <= 1, (g, parities)


def test_trichotomy_both_parities_at_genus_three():
    gen = generating_set(20)[0]
    parities = set()
    for h in range(-6, 7):
        cand = element_to_pair(gen * phi_power(2 * h), 3)
        if cand is not None:
            parities.add(h % 2)
    assert parities == {0, 1}


def test_lucas_family_members():
    c = lucas_family(2, 2)
    assert (c.g, c.a, c.b, c.d) == (1, 8, 55, 21)
    c = lucas_family(2, 3)
    assert (c.a, c.b, c.d) == (55, 377, 144)
    c = lucas_family(3, 2)
    assert c.g == 3
    neg = lucas_family_neg(2, 1)
    assert (neg.g, neg.a, neg.b, neg.d) == (1, 1, 8, 3)
    for k in range(2, 7):
        for i in range(2, 7):
            c = lucas_family(k, i)
            assert c.g == k * (k - 1) // 2
            assert c.a + c.b == 3 * c.d
            assert c.element is not None
            assert c.element.norm() == 4 * (2 * c.g - 1)
        for j in range(1, 6):
            c = lucas_family_neg(k, j)
            assert c.g == k * (k - 1) // 2
            assert c.a + c.b == 3 * c.d
            assert c.element.norm() == 4 * (2 * c.g - 1)
    # both ladders stay on the line a + b = 3d
    for k in range(2, 31):
        rungs = [lucas_family(k, i) for i in range(2, 61)]
        rungs += [lucas_family_neg(k, j) for j in range(1, 61)]
        assert all(c.a + c.b == 3 * c.d for c in rungs), k
    with pytest.raises(ValueError):
        lucas_family(2, 1)
    with pytest.raises(ValueError):
        lucas_family_neg(2, 0)
    with pytest.raises(ValueError):
        lucas_family(1, 2)


def test_lucas_recurrence_links_ladder():
    # L_{n+8} = 7 L_{n+4} - L_n drives the variant-1 step up the ladder
    for k in range(2, 7):
        for n in range(-12, 12):
            assert lucas(k, n + 8) == 7 * lucas(k, n + 4) - lucas(k, n)
        for i in range(2, 6):
            c, c_next = lucas_family(k, i), lucas_family(k, i + 1)
            assert cremona_step(c.a, c.b, "1") == (c_next.a, c_next.b)


def test_cremona_steps():
    assert cremona_step(1, 8, "1") == (8, 55)
    assert cremona_step(8, 55, "2a") == (1, 8)
    assert cremona_step(1, 8, "2b") == (1, 8)    # fixed point of the mirror
    with pytest.raises(ValueError):
        cremona_step(1, 8, "3")
    with pytest.raises(ValueError):
        cremona_step(1, 7, "1")                  # off the 3d line
    with pytest.raises(ValueError):
        cremona_step(1, 8, "2a")                 # needs b < 7a
    with pytest.raises(ValueError):
        cremona_step(8, 55, "2b")                # needs b > 7a
    with pytest.raises(ValueError):
        cremona_step(4, 11, "2a")                # output would be unordered


def test_cremona_steps_act_on_the_ring_element():
    # variant "1" multiplies zeta by phi^4, "2a" by phi^-4, and "2b" maps it
    # to conj(zeta * phi^-12), on every pair the step accepts
    actions = {"1": lambda z: z * phi_power(4), "2a": lambda z: z * phi_power(-4),
               "2b": lambda z: (z * phi_power(-12)).conjugate()}
    steps = dict.fromkeys(actions, 0)
    for a in range(1, 200):
        for b in range(a + 1, 200):
            if (a + b) % 3 or gcd(a, b) != 1:
                continue
            for variant, action in actions.items():
                try:
                    out = cremona_step(a, b, variant)
                except ValueError:
                    continue
                assert pair_to_element(*out) == action(pair_to_element(a, b)), (a, b, variant)
                steps[variant] += 1
    assert min(steps.values()) > 50, steps


def test_identity_sweep():
    rep = verify_fibonacci_identities(40)
    assert rep.all_hold and rep.failures == ()
    assert rep.l_max == 40
    assert rep.checks == 40 * 4 + (2 * 40 + 2) * 2
    assert rep.lim_gap_lower < 1e-6
    assert rep.lim_gap_upper < 1e-6
    small = verify_fibonacci_identities(5)
    assert small.all_hold
    assert small.lim_gap_lower > rep.lim_gap_lower  # gaps shrink with l
    with pytest.raises(ValueError):
        verify_fibonacci_identities(1)
