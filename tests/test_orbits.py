import random
from fractions import Fraction

import pytest

from petersym.dims import gamma0_invariants
from petersym.eisenstein import EisSymbol, TorsionFunction
from petersym.farey import gamma0_symbol
from petersym.modgroup import ID, act, cusp, madj, mmul
from petersym.orbits import (
    all_orbits,
    basis_v,
    cusp_to_basis,
    descent_weight,
    member_basis,
    orbit_card,
    orbit_indicator,
    orbit_indicators,
    orbit_of,
    orbit_points,
    reduce_orbit,
)
from .test_modgroup import random_sl2
from .test_spaces import random_group_elt


@pytest.mark.parametrize("n", [0, -1, -6])
def test_basis_v_refuses_nonpositive_level(n):
    with pytest.raises(ValueError):
        basis_v(n, 4)


def test_orbit_of_examples():
    assert orbit_of(0, 0, 7) == (7, 7, 0)
    assert orbit_of(8, 6, 12) == (4, 2, 0)  # unit modulus gcd(3, 2) = 1


def test_orbit_of_constant_on_orbits_and_separating():
    for n in (4, 6, 9, 12):
        labels = {}
        for x in range(n):
            for y in range(n):
                labels.setdefault(orbit_of(x, y, n), set()).add((x, y))
        sym = gamma0_symbol(n)
        for t, pts in labels.items():
            seen = {next(iter(pts))}
            frontier = list(seen)
            while frontier:
                px, py = frontier.pop()
                for g in sym.glue:
                    for m in (g, madj(g)):
                        a, b, c, d = m
                        q = ((px * a + py * c) % n, (px * b + py * d) % n)
                        if q not in seen:
                            seen.add(q)
                            frontier.append(q)
            assert seen == pts
            assert orbit_card(t, n) == len(pts)


def test_cardinalities_sum_to_square():
    for n in range(1, 101):
        assert sum(orbit_card(t, n) for t in all_orbits(n)) == n * n


def test_zero_orbit_is_a_point():
    for n in (5, 12):
        assert orbit_card((n, n, 0), n) == 1


def test_basis_matches_cusp_count_and_local_criterion():
    for n in range(1, 61):
        bv = basis_v(n, 4)
        assert len(bv) == gamma0_invariants(n)["n_cusps"]
        others = [t for t in all_orbits(n) if member_basis(t, n)]
        assert sorted(bv) == sorted(others)
    assert len(basis_v(12, 2)) == len(basis_v(12, 4)) - 1


def test_squarefree_basis_shape():
    for n in (6, 30):
        assert basis_v(n, 4) == sorted((n, d, 0) for d in range(1, n + 1) if n % d == 0)


def test_prime_power_basis_shape():
    # level p^5: rows [p^s, p^(2s-n), u] and [p^s, 1, u] for s >= n/2
    p, n = 2, 32
    bv = set(basis_v(n, 4))
    expected = set()
    for s in range(3, 6):
        g = 2 ** (5 - s)
        for u in range(g):
            if u % 2 == 1 or g == 1:
                expected.add((2 ** s, 2 ** (2 * s - 5), u if g > 1 else 0))
                expected.add((2 ** s, 1, u if g > 1 else 0))
    assert bv == expected


def test_radical_divides_basis_q1():
    for n in (12, 18, 60):
        rad = 1
        m = n
        for p in (2, 3, 5, 7):
            if m % p == 0:
                rad *= p
        for (q1, q2, u) in basis_v(n, 4):
            assert q1 % rad == 0


def test_reduce_idempotent_on_basis():
    for n in (8, 12):
        for t in basis_v(n, 4):
            assert reduce_orbit(t, n, 2) == {t: Fraction(1)}


def test_reduce_supported_on_basis_with_descent():
    for n in (12, 16, 18, 45):
        for w in (0, 1, 2):
            for t in all_orbits(n):
                red = reduce_orbit(t, n, w)
                assert all(member_basis(s, n) for s in red)


def test_reduce_consistent_with_symbols():
    rng = random.Random(73)
    probes = [random_sl2(rng, 5) for _ in range(6)]
    for n in (4, 6, 8):
        for k in (2, 3, 4):
            for t in all_orbits(n):
                red = reduce_orbit(t, n, k - 2)
                if red == {t: Fraction(1)}:
                    continue
                comb = orbit_indicator(t, n).scale(-1)
                for s, c in red.items():
                    comb = comb + orbit_indicator(s, n).scale(c)
                if k == 2 and comb(0, 0) != 0:
                    continue
                assert EisSymbol(comb, k).is_zero_symbol(probes), (n, k, t)


def test_cusp_to_basis_values_and_invariance():
    rng = random.Random(79)
    for n in (6, 11, 12):
        sym = gamma0_symbol(n)
        assert cusp_to_basis((1, 0), n) == (n, 1, 0)
        assert cusp_to_basis((0, 1), n) == (n, n, 0)
        for _ in range(40):
            g = random_group_elt(sym, rng)
            c = cusp(rng.randrange(-9, 10), rng.randrange(0, 10) or 1)
            assert cusp_to_basis(act(g, c), n) == cusp_to_basis(c, n)
        image = {cusp_to_basis(cls.vertex, n) for cls in sym.cusp_classes()}
        assert image == set(basis_v(n, 4))


def test_descent_weight_strictly_decreases_along_reduction():
    # exercised internally by reduce_orbit's guard; a non-basis triple
    # at a level with deep prime powers goes through several steps
    n = 16
    t = (4, 4, 0)
    assert not member_basis(t, n)
    red = reduce_orbit(t, n, 2)
    assert red and all(member_basis(s, n) for s in red)
    assert all(descent_weight(s, n) < descent_weight(t, n) for s in red)


def test_orbit_indicator_returns_a_fresh_function():
    t = basis_v(12, 4)[0]
    first = orbit_indicator(t, 12)
    expected = [row[:] for row in first.values]
    first.values[0][0] += 5
    assert orbit_indicator(t, 12).values == expected
    # each row is a list of its own: writing one cell changes no other row
    second = orbit_indicator(t, 12)
    second.values[0][1] += 7
    assert second.values[1:] == expected[1:]
    assert second.values[0][1] == expected[0][1] + 7


@pytest.mark.parametrize("n", [1, 2, 12, 30, 36, 49, 60])
def test_orbit_points_enumerate_the_classified_orbit(n):
    # the points listed from the triple are the orbit's cells, each once
    classes = {}
    for x in range(n):
        for y in range(n):
            classes.setdefault(orbit_of(x, y, n), []).append((x, y))
    assert sorted(classes) == all_orbits(n)
    for t, cells in classes.items():
        points = orbit_points(t, n)
        assert len(points) == len(set(points)) == orbit_card(t, n)
        assert sorted(points) == cells


def _classified_indicators(triples, n):
    """The indicators of the orbits by classifying each of the N^2 points."""
    fns = {t: TorsionFunction.zero(n) for t in triples}
    for x in range(n):
        for y in range(n):
            f = fns.get(orbit_of(x, y, n))
            if f is not None:
                f.values[x][y] = Fraction(1)
    return list(fns.values())


@pytest.mark.parametrize("n", [1, 2, 12, 30, 36, 49, 60])
def test_orbit_indicators_match_the_classification(n):
    triples = all_orbits(n)
    assert orbit_indicators(triples, n) == _classified_indicators(triples, n)


@pytest.mark.parametrize("t", [(5, 1, 0), (4, 2, 1), (12, 0, 0), (0, 1, 0), (12, 5, 0),
                               (6, 1, 3), (-12, -12, 0), (24, 24, 0)])
def test_orbit_indicators_refuse_a_triple_that_labels_no_orbit(t):
    with pytest.raises(ValueError, match="labels no orbit"):
        orbit_indicators([basis_v(12, 4)[0], t], 12)


def test_orbit_indicators_check_each_triple_once(monkeypatch):
    import petersym.orbits as orbits

    calls = []

    def counted(x, y, n):
        calls.append((x, y))
        return orbit_of(x, y, n)

    monkeypatch.setattr(orbits, "orbit_of", counted)
    triples = basis_v(60, 2)
    orbit_indicators(triples, 60)
    assert len(calls) == len(triples)
