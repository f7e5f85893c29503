import random
from fractions import Fraction
from functools import lru_cache
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from petersym.dims import dim_cusp_forms_gamma0
from petersym.eisenstein import EisSymbol, TorsionFunction
from petersym.farey import (
    base_symbol_sl2z,
    gamma0_group,
    gamma0_symbol,
    gamma1_symbol,
    subgroup_farey,
)
from petersym.modgroup import EPS, ID, act, cf_decompose, madj, minv, mmul
from petersym.orbits import basis_v, orbit_indicator, orbit_indicators
from petersym.pairing import (
    cuspidal_subspace,
    eisenstein_pairing_matrix,
    haberland_pair,
    hecke_matrix,
    heilbronn_merel,
    hom_cocycle,
    lambda_coeffs,
    pair,
    pairing_matrix,
)
from petersym.polyspace import Vk
from petersym.spaces import boundary_space, build_space
from .oracles import (
    charpoly,
    dense,
    double_coset_hecke_matrix,
    epsilon_conjugate_cocycle,
    epsilon_conjugate_hom,
    fraction_vector,
    from_path_evaluator,
    hecke_context,
    hecke_cocycle,
    hecke_path_map,
    noncusp_pair,
    pair_alt,
    pair_eis_via_cusps,
    pairing_matrix_by_pairs,
    rank,
    solve_in_span,
)
from .test_spaces import _group_space, cusps, random_cusp, symbol_for


GRID = [(1, 12), (2, 2), (3, 4), (5, 2), (6, 4), (11, 2)]


@pytest.mark.parametrize("n,k", GRID)
def test_antisymmetry_and_alt_agreement(n, k):
    sym = symbol_for(n)
    sp = build_space(sym, k)
    mat = pairing_matrix(sym, sp.basis, sp.basis)
    for i, b1 in enumerate(sp.basis):
        assert mat[i][i] == 0
        for j, b2 in enumerate(sp.basis):
            assert mat[i][j] == -mat[j][i] == pair_alt(sym, b1, b2)


@pytest.mark.parametrize("n,k", [(1, 12), (5, 4), (11, 2)])
def test_boundary_images_in_radical(n, k):
    sym = symbol_for(n)
    sp = build_space(sym, k)
    for b0 in boundary_space(sym, k):
        emb = b0
        emb_elem = from_path_evaluator(sp, emb.eval_path)
        for b in sp.basis:
            assert pair(sym, hom_cocycle(emb), b) == 0
            assert pair(sym, b, emb_elem) == 0
        eis = EisSymbol(orbit_indicator(basis_v(n, k)[0], n), k)
        assert pair(sym, eis.cocycle, emb_elem) == pair_eis_via_cusps(sym, eis, b0)


def test_base_point_independence():
    sym = gamma0_symbol(5)
    sp = build_space(sym, 4)
    for base in [(1, 0), (0, 1), (1, 2), (-3, 5)]:
        assert pair(sym, hom_cocycle(sp.basis[0], base), sp.basis[1]) \
            == pair(sym, sp.basis[0], sp.basis[1])
        assert pair_alt(sym, sp.basis[0], sp.basis[1], base) \
            == pair_alt(sym, sp.basis[0], sp.basis[1])


def test_coboundary_invariance():
    rng = random.Random(83)
    for (n, k) in [(1, 12), (11, 2), (5, 4)]:
        sym = symbol_for(n)
        sp = build_space(sym, k)
        c_vec = Vk(k, [Fraction(rng.randrange(-3, 4)) for _ in range(k - 1)])
        for b1 in sp.basis[:2]:
            coc = hom_cocycle(b1)

            def shifted(g, coc=coc):
                return coc(g) + c_vec.act(g) - c_vec

            for b2 in sp.basis[:3]:
                assert pair(sym, shifted, b2) == pair(sym, coc, b2)


def test_farey_symbol_independence_towers():
    base = base_symbol_sl2z()
    g2, _ = subgroup_farey(base, gamma0_group(2))
    g6a, _ = subgroup_farey(g2, gamma0_group(6))
    g3, _ = subgroup_farey(base, gamma0_group(3))
    g6b, _ = subgroup_farey(g3, gamma0_group(6))
    direct = gamma0_symbol(6)
    for k in (2, 4):
        sp = build_space(direct, k)
        eis = EisSymbol(orbit_indicator(basis_v(6, k)[0], 6), k)
        for route in (g6a, g6b):
            for b1 in sp.basis[:3]:
                for b2 in sp.basis[:3]:
                    assert pair(direct, b1, b2) == pair(route, b1, b2)
                assert pair(direct, eis.cocycle, b1) == pair(route, eis.cocycle, b1)


@pytest.mark.parametrize("n,k", [(3, 2), (5, 4)])
def test_epsilon_pairing_identity(n, k):
    # Gamma0(N) is stable under the reflection, so both sides live on
    # (independently built) symbols of the same group
    sym = gamma0_symbol(n)
    sp = build_space(sym, k)
    sign = (-1) ** (k - 1)
    for b1 in sp.basis[:3]:
        coc = hom_cocycle(b1)
        for b2 in sp.basis[:3]:
            lhs = pair(sym, epsilon_conjugate_cocycle(coc), b2)
            rhs = sign * pair(sym, b1,
                              from_path_evaluator(sp, epsilon_conjugate_hom(b2).eval_path))
            assert lhs == rhs
    # double conjugation is the identity
    twice = epsilon_conjugate_hom(epsilon_conjugate_hom(sp.basis[0]))
    rng = random.Random(5)
    for _ in range(6):
        r, s = random_cusp(rng), random_cusp(rng)
        assert twice.eval_path(r, s) == sp.basis[0].eval_path(r, s)


def test_epsilon_pairing_identity_eisenstein():
    n, k = 5, 4
    sym = gamma0_symbol(n)
    sp = build_space(sym, k)
    f = orbit_indicator(basis_v(n, k)[1], n)
    e = EisSymbol(f, k)
    e_eps = EisSymbol(f.act(EPS), k)
    for b in sp.basis:
        lhs = pair(sym, e_eps.cocycle, b)
        rhs = pair(sym, e.cocycle, from_path_evaluator(sp, epsilon_conjugate_hom(b).eval_path))
        assert lhs == rhs


@pytest.mark.parametrize("n,k,expect", [
    (11, 2, 2), (37, 2, 4), (1, 12, 2), (1, 10, 0), (1, 16, 2), (2, 8, 2),
])
def test_cuspidal_dimensions(n, k, expect):
    _, basis = cuspidal_subspace(n, k)
    assert len(basis) == expect == 2 * dim_cusp_forms_gamma0(n, k)


@pytest.mark.parametrize("n,k", [
    (0, 4), (-3, 4), (0, 12), (-1, 12), (11, 0), (11, -2), (11, 3), (1, 13),
])
def test_cuspidal_subspace_refuses_bad_arguments(n, k):
    # levels below 1 used to fall through to the SL2(Z) symbol with no
    # Eisenstein rows: S_4 came out 1-dimensional and S_12 3-dimensional
    with pytest.raises(ValueError):
        cuspidal_subspace(n, k)


def test_cuspidal_hecke_stability_and_boundary_intersection():
    space, cusp_basis = cuspidal_subspace(11, 2)
    sym = space.symbol
    ncols = len(sym.require_direct_table().reps)
    vecs = [dense(fraction_vector(b), ncols) for b in cusp_basis]
    for ell in (2, 3):
        hctx = hecke_context(sym, (1, 0, 0, ell), gamma0_group(11))
        for b in cusp_basis:
            img = from_path_evaluator(space, hecke_path_map(b, hctx).eval_path)
            assert solve_in_span(vecs, dense(fraction_vector(img), ncols)) is not None
    boundary_vecs = [
        dense(fraction_vector(from_path_evaluator(space, b0.eval_path)), ncols)
        for b0 in boundary_space(sym, 2)
    ]
    joint = vecs + boundary_vecs
    assert rank(joint) == len(vecs) + rank(boundary_vecs)


def test_t2_charpoly_on_11_2():
    space, cusp_basis = cuspidal_subspace(11, 2)
    hctx = hecke_context(space.symbol, (1, 0, 0, 2), gamma0_group(11))
    ncols = len(space.symbol.require_direct_table().reps)
    vecs = [dense(fraction_vector(b), ncols) for b in cusp_basis]
    cols = []
    for b in cusp_basis:
        img = from_path_evaluator(space, hecke_path_map(b, hctx).eval_path)
        cols.append(solve_in_span(vecs, dense(fraction_vector(img), ncols)))
    mat = [[cols[j][i] for j in range(2)] for i in range(2)]
    # (x + 2)^2, with -2 the q^2 coefficient of the weight-2 eta product
    assert charpoly(mat) == [Fraction(1), Fraction(4), Fraction(4)]
    from petersym.qexp import eta_product_qexp

    coeffs = eta_product_qexp([(1, 2), (11, 2)], 4)
    assert coeffs[1] == -2


@pytest.mark.parametrize("ell", [1, 2, 3, 5])
@pytest.mark.parametrize("n,k", [(1, 12), (5, 4), (11, 2)])
def test_hecke_adjointness(n, k, ell):
    sym = symbol_for(n)
    sp = build_space(sym, k)
    alpha = (1, 0, 0, ell)
    h_fwd = hecke_context(sym, alpha, gamma0_group(n))
    h_bwd = hecke_context(sym, madj(alpha), gamma0_group(n))
    expected_degree = ell + 1 if n % ell else ell
    assert h_fwd.degree() == expected_degree
    for b1 in sp.basis[:2]:
        for b2 in sp.basis[:2]:
            lhs = pair(sym, hecke_cocycle(hom_cocycle(b1), h_fwd), b2)
            rhs = pair(sym, hom_cocycle(b1),
                       from_path_evaluator(sp, hecke_path_map(b2, h_bwd).eval_path))
            assert lhs == rhs
            if ell == 1:  # the trivial double coset leaves the pairing alone
                assert lhs == pair(sym, b1, b2)
    eis = EisSymbol(orbit_indicator(basis_v(n, k)[0], n), k)
    for b2 in sp.basis[:2]:
        lhs = pair(sym, hecke_cocycle(eis.cocycle, h_fwd), b2)
        rhs = pair(sym, eis.cocycle,
                   from_path_evaluator(sp, hecke_path_map(b2, h_bwd).eval_path))
        assert lhs == rhs


def test_hecke_identity_matrix_is_identity():
    sym = gamma0_symbol(5)
    sp = build_space(sym, 4)
    hctx = hecke_context(sym, ID, gamma0_group(5))
    assert hctx.degree() == 1
    for b in sp.basis:
        img = space_img = from_path_evaluator(sp, hecke_path_map(b, hctx).eval_path)
        assert fraction_vector(img) == fraction_vector(b)


def test_hecke_commutation():
    sp = build_space(gamma0_symbol(5), 4)
    m2 = hecke_matrix(sp, 5, 2)
    m3 = hecke_matrix(sp, 5, 3)

    def matmul(a, b):
        size = len(a)
        return [[sum(a[i][t] * b[t][j] for t in range(size)) for j in range(size)]
                for i in range(size)]

    assert matmul(m2, m3) == matmul(m3, m2)


@settings(deadline=None, max_examples=15)
@given(n=st.integers(1, 40), k=st.sampled_from([2, 4, 6, 8]),
       ell=st.sampled_from([2, 3, 5, 7, 11, 13]), data=st.data())
def test_heilbronn_hecke_matches_double_coset(n, k, ell, data):
    # the double coset costs a path-map sampling per basis element, so
    # only a few drawn columns of the Heilbronn matrix are compared
    sp = build_space(symbol_for(n), k)
    mat = hecke_matrix(sp, n, ell)
    assert len(mat) == sp.dimension() and all(len(row) == len(mat) for row in mat)
    if not mat:
        return
    cols = data.draw(st.lists(st.integers(0, len(mat) - 1), min_size=1, max_size=3,
                              unique=True))
    expected = double_coset_hecke_matrix(sp, n, ell, cols)
    assert [[row[c] for c in cols] for row in mat] == expected


@pytest.mark.parametrize("n,k,ell", [(7, 4, 5), (22, 2, 11), (12, 4, 2), (30, 2, 7)])
def test_heilbronn_hecke_fixed_cases(n, k, ell):
    # ell | N, and Gamma0(7), whose double-coset unfolding used to fail
    sp = build_space(gamma0_symbol(n), k)
    assert hecke_matrix(sp, n, ell) == double_coset_hecke_matrix(sp, n, ell)


def test_heilbronn_set():
    for ell in (1, 2, 3, 5, 7, 13):
        brute = [(a, b, c, d) for a in range(ell + 1) for b in range(a)
                 for d in range(ell + 1) for c in range(d) if a * d - b * c == ell]
        assert sorted(heilbronn_merel(ell)) == sorted(brute)


def test_hecke_matrix_does_not_unfold(monkeypatch):
    sp = build_space(gamma0_symbol(11), 4)
    expected = double_coset_hecke_matrix(sp, 11, 3)

    def unfold(*args, **kwargs):
        raise AssertionError("the Hecke matrix unfolded a Farey symbol")

    monkeypatch.setattr("petersym.farey.subgroup_farey", unfold)
    monkeypatch.setattr("petersym.pairing.subgroup_farey", unfold, raising=False)
    assert hecke_matrix(sp, 11, 3) == expected


@pytest.mark.parametrize("symbol,level", [
    (lambda: gamma1_symbol(5), 5),
    (lambda: gamma0_symbol(11), 7),
    (lambda: gamma0_symbol(11), 22),
    (lambda: gamma0_symbol(11), 0),
])
def test_hecke_matrix_refuses_other_groups(symbol, level):
    sp = build_space(symbol(), 2)
    with pytest.raises(ValueError):
        hecke_matrix(sp, level, 2)


def test_level_one_eisenstein_eigenvalue():
    sym = base_symbol_sl2z()
    for k in (4, 12):
        sp = build_space(sym, k)
        e = EisSymbol(TorsionFunction.constant(1), k)
        for ell in (2, 3):
            h = hecke_context(sym, (1, 0, 0, ell), gamma0_group(1))
            tc = hecke_cocycle(e.cocycle, h)
            for b in sp.basis:
                assert pair(sym, tc, b) == (1 + ell ** (k - 1)) * pair(sym, e.cocycle, b)


def test_haberland_closed_form():
    sym = base_symbol_sl2z()
    for k in (12, 16):
        sp = build_space(sym, k)
        for b1 in sp.basis:
            m1 = b1.eval_path((1, 0), (0, 1))
            for b2 in sp.basis:
                m2 = b2.eval_path((1, 0), (0, 1))
                assert pair(sym, b1, b2) == haberland_pair(m1, Vk.zero(k), m2)
        e = EisSymbol(TorsionFunction.constant(1), k)
        for b2 in sp.basis:
            m2 = b2.eval_path((1, 0), (0, 1))
            expected = haberland_pair(e.p_mod, e.eval_inf(1), m2)
            assert pair(sym, e.cocycle, b2) == expected


def test_lambda_coefficients_identity():
    sym = base_symbol_sl2z()
    for k in (12, 16):
        sp = build_space(sym, k)
        e = EisSymbol(TorsionFunction.constant(1), k)
        lam = lambda_coeffs(k)
        for b in sp.basis:
            mod = b.eval_path((1, 0), (0, 1))
            r = [mod.coeffs[j] / comb(k - 2, j) for j in range(k - 1)]
            rhs = sum(l * r[m] for l, m in zip(lam, range(0, k - 1, 2))) / 3
            assert pair(sym, e.cocycle, b) == rhs


def test_odd_coefficient_relation_on_cuspidal():
    _, cusp_basis = cuspidal_subspace(1, 12)
    for b in cusp_basis:
        mod = b.eval_path((1, 0), (0, 1))
        assert sum(mod.coeffs[m] for m in range(1, 11, 2)) == 0


@pytest.mark.parametrize("n", list(range(1, 31)))
def test_eisenstein_boundary_nondegenerate(n):
    for k in (2, 4):
        sym = symbol_for(n)
        bnds = boundary_space(sym, k)
        rows = []
        for t in basis_v(n, k):
            eis = EisSymbol(orbit_indicator(t, n), k)
            rows.append([pair_eis_via_cusps(sym, eis, b0) for b0 in bnds])
        assert rank(rows) == len(basis_v(n, k))


@pytest.mark.parametrize("n,k", [(11, 2), (12, 4), (6, 6)])
def test_batched_eisenstein_matrix_matches_entrywise_pairing(n, k):
    sym = gamma0_symbol(n)
    sp = build_space(sym, k)
    entrywise = []
    for t in basis_v(n, k):
        eis = EisSymbol(orbit_indicator(t, n), k)
        entrywise.append([pair(sym, eis.cocycle, b) for b in sp.basis])
    assert eisenstein_pairing_matrix(sym, n, k, sp) == entrywise


def test_noncusp_route_matches_direct_pairing():
    for (n, k) in [(11, 2), (5, 4), (3, 4)]:
        sym = gamma0_symbol(n)
        sp = build_space(sym, k)
        for b0 in boundary_space(sym, k):
            emb_elem = from_path_evaluator(sp, b0.eval_path)
            for b in sp.basis[:3]:
                coc = hom_cocycle(b)
                assert pair(sym, coc, emb_elem) == noncusp_pair(sym, coc, b0)
            eis = EisSymbol(orbit_indicator(basis_v(n, k)[0], n), k)
            assert pair(sym, eis.cocycle, emb_elem) \
                == noncusp_pair(sym, eis.cocycle, b0)



# Gamma0(13) and Gamma0(37) have half arcs of order 2 and 3, Gamma1(3)
# one of order 3
@pytest.mark.parametrize("n,k", [(40, 2), (37, 2), (24, 2), (1, 4), (30, 4), (17, 4),
                                 (16, 6), (11, 6), (2, 6), (13, 2), (13, 4), (13, 6)])
def test_pairing_matrix_matches_the_sum_of_pairs(n, k):
    sym = gamma0_symbol(n)
    sp = build_space(sym, k)
    lefts = [EisSymbol(f, k).cocycle for f in orbit_indicators(basis_v(n, k), n)]
    lefts += sp.basis[:4]
    assert pairing_matrix(sym, lefts, sp.basis) == pairing_matrix_by_pairs(sym, lefts, sp.basis)


@pytest.mark.parametrize("n,k", [(5, 3), (7, 5), (3, 3), (3, 5)])
def test_pairing_matrix_matches_the_sum_of_pairs_at_odd_weight(n, k):
    # an antisymmetric form: the Gram weights are not a palindrome
    sym = gamma1_symbol(n)
    sp = build_space(sym, k)
    f = TorsionFunction(n, [[Fraction((3 * x + y * y) % 5 - 2, 1 + x % 3) for y in range(n)]
                            for x in range(n)])
    lefts = [EisSymbol(f, k).cocycle] + sp.basis[:4]
    assert pairing_matrix(sym, lefts, sp.basis) == pairing_matrix_by_pairs(sym, lefts, sp.basis)


@pytest.mark.parametrize("n,parent,k", [(26, 13, 2), (26, 13, 4), (21, 7, 2), (21, 7, 4)])
def test_pairing_matrix_matches_the_sum_of_pairs_on_a_tower_route(n, parent, k):
    # the rights' space sits on the direct symbol, the pairing runs over
    # the arcs of a tower route: order-2 half arcs at 26, order 3 at 21
    route, _ = subgroup_farey(subgroup_farey(base_symbol_sl2z(), gamma0_group(parent))[0],
                              gamma0_group(n))
    sp = build_space(gamma0_symbol(n), k)
    assert route.arcs != sp.symbol.arcs and set(route.mu) == {1, 2 if n == 26 else 3}
    lefts = [EisSymbol(f, k).cocycle for f in orbit_indicators(basis_v(n, k), n)]
    lefts += sp.basis[:4]
    mat = pairing_matrix(route, lefts, sp.basis)
    assert mat == pairing_matrix_by_pairs(route, lefts, sp.basis)
    assert mat == pairing_matrix(sp.symbol, lefts, sp.basis)


@lru_cache(maxsize=1)
def _gamma0_26_via_13():
    return subgroup_farey(subgroup_farey(base_symbol_sl2z(), gamma0_group(13))[0],
                          gamma0_group(26))[0]


@settings(deadline=None, max_examples=60)
@given(group=st.one_of(st.tuples(st.just("gamma0"), st.integers(1, 40)),
                       st.tuples(st.just("gamma1"), st.integers(1, 12)),
                       st.tuples(st.just("gamma"), st.integers(1, 5)),
                       st.tuples(st.just("tower"), st.just(26))),
       k=st.integers(2, 6), base=cusps, data=st.data())
def test_space_element_lefts_pair_as_their_based_cocycles(group, k, base, data):
    # a space element as a left is read on its based paths from infinity;
    # its cocycle at any base point gives the same matrix, on the direct
    # symbol and on the tower route Gamma0(26) through Gamma0(13)
    family, n = group
    tower = family == "tower"
    sp = _group_space("gamma0" if tower else family, n, k)
    assume(sp.dimension() > 0)
    symbol = _gamma0_26_via_13() if tower else sp.symbol
    rights = data.draw(st.lists(st.sampled_from(sp.basis), min_size=1, max_size=4))
    assert pairing_matrix(symbol, sp.basis, rights) \
        == pairing_matrix(symbol, [hom_cocycle(b, base) for b in sp.basis], rights)


@pytest.mark.parametrize("n,k", [(21, 2), (12, 4)])
def test_eisenstein_rows_walk_each_glue_once(monkeypatch, n, k):
    calls = []

    def counted(p, q):
        calls.append((p, q))
        return cf_decompose(p, q)

    sym = gamma0_symbol(n)
    sp = build_space(sym, k)
    glues = {minv(ta.glue) for ta in sym.tilde()}
    assert len(basis_v(n, k)) > 1
    monkeypatch.setattr("petersym.eisenstein.cf_decompose", counted)
    eisenstein_pairing_matrix(sym, n, k, sp)
    assert 0 < len(calls) <= len(glues)


def test_pairing_matrix_refuses_mixed_weights():
    sym = gamma0_symbol(11)
    eis = EisSymbol(orbit_indicator(basis_v(11, 2)[0], 11), 2)
    with pytest.raises(ValueError):
        pairing_matrix(sym, [eis.cocycle], build_space(sym, 4).basis)
