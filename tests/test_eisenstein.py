import math
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from petersym.eisenstein import (
    EisSymbol,
    TorsionFunction,
    beta_moment,
    beta_row,
    beta_value,
    distribution_check,
    fourier2,
)
from petersym.exact import bernoulli_number, bernoulli_poly, integer_row
from petersym.farey import gamma0_group
from petersym.modgroup import (
    EPS,
    ID,
    SIGMA,
    T_MAT,
    TAU,
    matrix_to_cusp,
    minv,
    mmul,
    translation,
)
from petersym.orbits import basis_v, orbit_indicator, orbit_points
from petersym.polyspace import Vk
from .oracles import eis_cocycle_walk, hecke_fn
from .test_modgroup import random_sl2


def random_fn(rng, n, denom=3):
    return TorsionFunction(n, [
        [Fraction(rng.randrange(-4, 5), rng.randrange(1, denom)) for _ in range(n)]
        for _ in range(n)
    ])


def test_beta_rows_are_the_integer_rows_of_the_distribution():
    for n in range(1, 13):
        for h in range(9):
            if h == 0:
                row = [Fraction(1, n)] * n
            elif h == 1:
                row = [Fraction(1, 2) - Fraction(r, n) if r else Fraction(0) for r in range(n)]
            else:
                row = [-Fraction(n) ** (h - 1) / h * bernoulli_poly(h, Fraction(r, n))
                       for r in range(n)]
            nums, den = integer_row(row)
            assert beta_row(h, n) == (tuple(nums), den)
            assert [beta_value(h, r, n) for r in range(n)] == row


def test_beta_values():
    assert beta_value(1, 0, 1) == 0
    assert beta_value(2, 0, 1) == Fraction(-1, 12)
    for n in (1, 3, 7):
        for r in range(n):
            assert beta_value(0, r, n) == Fraction(1, n)


def test_beta_parity_and_level_compatibility():
    rng = random.Random(41)
    for n in (2, 3, 6):
        f = random_fn(rng, n)
        for a in range(4):
            for b in range(4):
                lhs = beta_moment(f, a, b, minus=True)
                assert lhs == (-1) ** (a + b) * beta_moment(f, a, b)
        g = f.pullback(3 * n)
        for a in range(4):
            for b in range(3):
                assert beta_moment(f, a, b) == beta_moment(g, a, b)


def test_constant_moment_level1():
    one = TorsionFunction.constant(1)
    for k in (4, 6, 12):
        assert beta_moment(one, k, 0) == -bernoulli_number(k) / k


def test_fourier_indicator_of_zero():
    f = TorsionFunction.indicator(4, (0, 0))
    fh = fourier2(f)
    for x in range(4):
        for y in range(4):
            assert fh(x, y).as_rational() == Fraction(1, 4)


def test_fourier_involution_and_equivariance():
    rng = random.Random(43)
    for n in (2, 3, 5, 8, 12):
        f = random_fn(rng, n)
        fh = fourier2(f)
        fhh = fourier2(fh)
        for x in range(n):
            for y in range(n):
                assert fhh(x, y).as_rational() == f(x, y)
        g = random_sl2(rng, 6)
        assert fourier2(f.act(g)) == fh.act(g)


def test_group_ring_table_arithmetic_is_cellwise():
    f = fourier2(TorsionFunction.indicator(3, (1, 0)))
    g = fourier2(random_fn(random.Random(7), 3))
    c = Fraction(-3, 7)
    cells = [(x, y) for x in range(3) for y in range(3)]
    for x, y in cells:
        assert (f + g)(x, y).coeffs == (f(x, y) + g(x, y)).coeffs
        assert (f - g)(x, y).coeffs == (f(x, y) - g(x, y)).coeffs
        assert f.scale(c)(x, y).coeffs == f(x, y).scale(c).coeffs == (c * f(x, y)).coeffs
    up = f.pullback(6)
    assert all(up(x, y).coeffs == f(x, y).coeffs for x in range(6) for y in range(6))


def test_hecke_fn_level_one_and_coprime_simplification():
    for ell, k in ((2, 5), (3, 4)):
        t = hecke_fn(TorsionFunction.constant(1), ell, k)
        assert t.values[0][0] == 1 + ell ** (k - 1)
    rng = random.Random(47)
    f = random_fn(rng, 5)
    t = hecke_fn(f, 2, 4)
    inv2 = pow(2, -1, 5)
    for x in range(5):
        for y in range(5):
            assert t.values[x][y] == f.values[x][(inv2 * y) % 5] + 8 * f.values[(2 * x) % 5][y]
    # linearity
    g = random_fn(rng, 5)
    lhs = hecke_fn(f + g.scale(Fraction(3, 2)), 2, 4)
    rhs = hecke_fn(f, 2, 4) + hecke_fn(g, 2, 4).scale(Fraction(3, 2))
    assert lhs == rhs


def test_level_one_weight_12_values():
    e = EisSymbol(TorsionFunction.constant(1), 12)
    b12 = bernoulli_number(12)
    assert e.c_inf == -b12 / 12
    assert e.c_inf / 11 == Fraction(691, 360360)
    for j in range(11):
        expected = Fraction(0)
        if j % 2 == 1:
            expected = -comb(10, j) * (bernoulli_number(11 - j) / (11 - j)) \
                * (bernoulli_number(j + 1) / (j + 1))
        assert e.p_mod.coeffs[j] == expected


def test_weight2_guard():
    with pytest.raises(ValueError):
        EisSymbol(TorsionFunction.constant(1), 2)
    f = TorsionFunction.indicator(4, (1, 0))
    EisSymbol(f, 2)  # fine: vanishes at the origin


def test_eval_inf_edge_cases():
    e = EisSymbol(TorsionFunction.constant(1), 12)
    assert not e.eval_inf(0)
    e2 = EisSymbol(TorsionFunction.indicator(4, (1, 0)), 2)
    assert e2.eval_inf(Fraction(5, 7)).coeffs[0] == e2.c_inf * Fraction(5, 7)


def test_cocycle_base_cases():
    e = EisSymbol(TorsionFunction.constant(1), 12)
    assert not e.cocycle(ID)
    assert e.cocycle(SIGMA) == e.p_mod
    assert e.cocycle(translation(7)) == e.eval_inf(-7)


def test_cocycle_rejects_determinant_other_than_one():
    e = EisSymbol(TorsionFunction.indicator(5, (1, 2)), 4)
    for g in [(-1, 0, 0, 1), (2, 0, 0, 1), (1, 3, 0, 2), (0, 1, 1, 0), (1, 1, 1, 3)]:
        with pytest.raises(ValueError):
            e.cocycle(g)


def test_cocycle_sign_blindness():
    rng = random.Random(53)
    e = EisSymbol(random_fn(rng, 4), 3)
    for _ in range(10):
        g = random_sl2(rng, 6)
        assert e.cocycle(g) == e.cocycle(tuple(-x for x in g))


def test_cocycle_law():
    rng = random.Random(59)
    f = random_fn(rng, 4)
    for k in (3, 4):
        e = EisSymbol(f, k)
        for _ in range(10):
            g1, g2 = random_sl2(rng, 6), random_sl2(rng, 6)
            lhs = e.cocycle(mmul(g1, g2))
            rhs = EisSymbol(f.act(minv(g2)), k).cocycle(g1).act(g2) + e.cocycle(g2)
            assert lhs == rhs


def test_level_independence_of_symbols():
    rng = random.Random(61)
    f = random_fn(rng, 4)
    e1 = EisSymbol(f, 4)
    e2 = EisSymbol(f.pullback(12), 4)
    assert e1.p_mod == e2.p_mod and e1.c_inf == e2.c_inf
    for _ in range(6):
        g = random_sl2(rng, 6)
        assert e1.cocycle(g) == e2.cocycle(g)


def test_epsilon_twist_even_weight():
    rng = random.Random(67)
    f = random_fn(rng, 4)
    for k in (4, 6):
        e = EisSymbol(f, k)
        e_eps = EisSymbol(f.act(EPS), k)
        for _ in range(8):
            g = random_sl2(rng, 5)
            rhs = e.cocycle(mmul(EPS, g, EPS)).act(EPS).scale((-1) ** (k - 1))
            assert e_eps.cocycle(g) == rhs


def test_distribution_relations():
    rng = random.Random(71)
    probes = [random_sl2(rng, 5) for _ in range(8)]
    assert distribution_check(4, 2, (0, 0), 4, probes)
    assert distribution_check(6, 3, (3, 0), 3, probes)
    assert distribution_check(6, 1, (2, 5), 4, probes)
    assert distribution_check(6, 2, (4, 2), 2, probes)


def _tensor(f1, f2, n):
    return TorsionFunction(n, [[f1[a] * f2[b] for b in range(n)] for a in range(n)])


def test_partial_transforms_commute_with_minus():
    from petersym.eisenstein import fourier_partial1, fourier_partial2

    rng = random.Random(89)
    for n in (3, 4, 6):
        f = random_fn(rng, n)
        for a in range(n):
            for b in range(n):
                assert fourier_partial1(f.minus())(a, b) \
                    == fourier_partial1(f).minus()(a, b)
                assert fourier_partial2(f.minus())(a, b) \
                    == fourier_partial2(f).minus()(a, b)


def test_tensor_factor_identities():
    from petersym.eisenstein import fourier1, fourier_partial1, fourier_partial2

    rng = random.Random(97)
    for n in (3, 4, 6):
        f1 = [Fraction(rng.randrange(-3, 4)) for _ in range(n)]
        f2 = [Fraction(rng.randrange(-3, 4)) for _ in range(n)]
        f = _tensor(f1, f2, n)
        h1, h2 = fourier1(f1), fourier1(f2)
        p1, p2 = fourier_partial1(f), fourier_partial2(f)
        fh = fourier2(f)
        p1h, p2h = fourier_partial1(fh), fourier_partial2(fh)
        for a in range(n):
            for b in range(n):
                assert p1(a, b) == h1[a].scale(f2[b])
                assert p2(a, b) == h2[b].scale(f1[a])
                assert p1h(a, b) == h1[(-b) % n].scale(f2[(-a) % n])
                assert p2h(a, b) == h2[a].scale(f1[b])


def test_eval_inf_difference_via_translation():
    # values at two shifts differ by the translated symbol between them
    rng = random.Random(109)
    from petersym.modgroup import minv as _minv

    f = random_fn(rng, 4)
    for k in (3, 4):
        e = EisSymbol(f, k)
        for _ in range(6):
            m = rng.randrange(-4, 5)
            r = Fraction(rng.randrange(-8, 9), rng.randrange(1, 5))
            t = translation(m)
            lhs = e.eval_inf(r) - e.eval_inf(m)
            rhs = EisSymbol(f.act(t), k).eval_inf(r - m).act(_minv(t))
            assert lhs == rhs


small_fracs = st.fractions(min_value=-4, max_value=4, max_denominator=5)


@st.composite
def torsion_fns(draw):
    """Sparse or dense rational functions on (Z/NZ)^2, N <= 12."""
    n = draw(st.integers(1, 12))
    if draw(st.booleans()):
        values = [[draw(small_fracs) for _ in range(n)] for _ in range(n)]
    else:
        values = [[0] * n for _ in range(n)]
        cells = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        for x, y in draw(st.lists(cells, max_size=6)):
            values[x][y] = draw(small_fracs)
    return TorsionFunction(n, values)


# words in generators of GL2(Z), so every product has determinant +-1
unimodular = st.lists(
    st.sampled_from([SIGMA, T_MAT, minv(T_MAT), EPS, translation(5)]), max_size=12
).map(lambda word: mmul(ID, *word))


@settings(deadline=None)
@given(f=torsion_fns(), g=unimodular, k=st.integers(2, 6))
def test_twist_data_matches_dense_moments(f, g, k):
    if k == 2:
        f.values[0][0] = Fraction(0)
    fg = f.act(g)
    coeffs = [(-1) ** j * comb(k - 2, j) * beta_moment(fg, k - 1 - j, j + 1, minus=True)
              for j in range(k - 1)]
    dense = (Vk(k, coeffs), beta_moment(fg, k, 0, minus=True))
    eis = EisSymbol(f, k)
    assert eis._twist_data(g) == dense
    assert eis._twist_data(g) == dense  # memoized entry


def test_twist_data_rejects_non_unimodular():
    eis = EisSymbol(TorsionFunction.indicator(5, (1, 2)), 4)
    for g in [(2, 0, 0, 1), (1, 0, 0, 6), (1, 1, 1, 3)]:
        with pytest.raises(ValueError):
            eis._twist_data(g)
    assert not eis._twists


@st.composite
def level_fns(draw):
    """A level N <= 30, a weight 2..8 and a rational f on (Z/NZ)^2.

    Dense tables up to N = 6, a sparse support beyond; f(0, 0) = 0 at
    weight 2.
    """
    n = draw(st.integers(1, 30))
    k = draw(st.integers(2, 8))
    if n <= 6 and draw(st.booleans()):
        values = [[draw(small_fracs) for _ in range(n)] for _ in range(n)]
    else:
        values = [[0] * n for _ in range(n)]
        cells = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        for x, y in draw(st.lists(cells, max_size=8)):
            values[x][y] = draw(small_fracs)
    if k == 2:
        values[0][0] = 0
    return n, k, TorsionFunction(n, values)


sl2_words = st.lists(
    st.sampled_from([SIGMA, TAU, minv(TAU), T_MAT, minv(T_MAT), translation(7)]), max_size=14
).map(lambda word: mmul(ID, *word))


def _principal(n: int, word, conj) -> tuple:
    """A product of SL2(Z)-conjugates of T^N and its transpose, in Gamma(N)."""
    g = ID
    for j, c in zip(word, conj):
        gen = (1, n, 0, 1) if j else (1, 0, n, 1)
        g = mmul(g, c, gen, minv(c))
    return g


@settings(deadline=None)
@given(data=level_fns(), g=sl2_words, h=sl2_words)
def test_cocycle_matches_the_fraction_walk(data, g, h):
    _, k, f = data
    eis = EisSymbol(f, k)
    for m in (g, h, mmul(g, h)):
        assert eis.cocycle(m) == eis_cocycle_walk(eis, m)


@settings(deadline=None)
@given(data=level_fns(), word_g=st.lists(st.booleans(), min_size=1, max_size=3),
       word_h=st.lists(st.booleans(), min_size=1, max_size=3),
       conj=st.lists(sl2_words, min_size=6, max_size=6))
def test_cocycle_law_on_the_principal_congruence_subgroup(data, word_g, word_h, conj):
    n, k, f = data
    eis = EisSymbol(f, k)
    g = _principal(n, word_g, conj[:3])
    h = _principal(n, word_h, conj[3:])
    # f|g = f for g in Gamma(N), so c(g h) = c(h) + c(g)|h
    assert eis.cocycle(mmul(g, h)) == eis.cocycle(h) + eis.cocycle(g).act(h)


@st.composite
def same_coset_words(draw):
    """A level 2 <= N <= 60, a weight, a basis orbit and two SL2(Z) words
    g and gamma g, gamma in Gamma0(N), so their coset keys agree."""
    n = draw(st.integers(2, 60))
    k = draw(st.integers(2, 6))
    t = draw(st.sampled_from(basis_v(n, k)))
    g = draw(sl2_words)
    d, c = draw(st.integers(-40, 40)), draw(st.integers(0, 4))
    assume(math.gcd(d, n * c) == 1)
    gamma = matrix_to_cusp((d, n * c))  # first column (d, N c)
    return n, k, t, g, mmul(gamma, g)


@settings(deadline=None, max_examples=60)
@given(data=same_coset_words())
def test_orbit_twist_sums_follow_the_coset(data):
    # an orbit symbol keys its twist sums by the Gamma0(N) coset; the
    # table symbol of the same orbit keys them by g mod N, so it checks
    # that words in one coset give the same sums, and that the integer
    # cocycle rows are those of the Fraction walk
    n, k, t, g, h = data
    key = gamma0_group(n).key
    assert key(g) == key(h)
    [orbit] = EisSymbol.of_orbits(n, k, [orbit_points(t, n)])
    table = EisSymbol(orbit_indicator(t, n), k)
    assert table._twist_data(g) == table._twist_data(h)
    # eps g has g's bottom row and determinant -1
    for m in (g, h, mmul(EPS, g)):
        assert orbit._twist_data(m) == table._twist_data(m)
    walk = [c for m in (g, h) for c in eis_cocycle_walk(table, m).coeffs]
    assert orbit.cocycle_values([g, h]) == tuple(integer_row(walk))
