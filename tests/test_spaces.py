import random
from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from math import lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from petersym import exact
from petersym.dims import dim_modular_symbols_gamma0
from petersym.exact import kernel_basis
from petersym.farey import (
    CosetTable,
    base_symbol_sl2z,
    gamma0_symbol,
    gamma1_symbol,
    gamma_full_group,
    subgroup_farey,
)
from petersym.modgroup import ID, SIGMA, TAU, act, cusp, madj, minv, mmul, mneg
from petersym.polyspace import Vk
from petersym.spaces import (
    ModularSymbolSpace,
    SymbolElement,
    boundary_space,
    build_space,
    coset_rows,
)
from .oracles import (
    coordinates,
    dense,
    eval_path_by_cosets,
    eval_tilde_arc,
    fraction_vector,
    from_fraction_vector,
    manin_relation_rows,
    sparse,
)


def symbol_for(n):
    return gamma0_symbol(n) if n > 1 else base_symbol_sl2z()


def random_group_elt(sym, rng, length=7):
    g = ID
    for _ in range(length):
        h = rng.choice(sym.glue)
        g = mmul(g, h if rng.random() < 0.5 else madj(h))
    return g


def random_cusp(rng):
    return cusp(rng.randrange(-15, 16), rng.randrange(0, 16) or 1)


@pytest.mark.parametrize("n,k", [
    (1, 12), (1, 10), (11, 2), (2, 8), (5, 4), (6, 2), (37, 2),
])
def test_dimension_matches_classical(n, k):
    sp = build_space(symbol_for(n), k)
    assert sp.dimension() == dim_modular_symbols_gamma0(n, k)


def test_dimension_grid():
    for n in range(1, 16):
        for k in (2, 4, 6):
            sp = build_space(symbol_for(n), k)
            assert sp.dimension() == dim_modular_symbols_gamma0(n, k), (n, k)


def test_odd_weight_with_minus_id_gives_zero():
    assert build_space(base_symbol_sl2z(), 3).dimension() == 0
    assert build_space(gamma0_symbol(5), 5).dimension() == 0


def test_eval_path_basic_identities():
    rng = random.Random(31)
    for (n, k) in [(1, 12), (11, 2), (5, 4)]:
        sym = symbol_for(n)
        sp = build_space(sym, k)
        for phi in sp.basis:
            r, s, t = (random_cusp(rng) for _ in range(3))
            assert not phi.eval_path(r, r)
            assert phi.eval_path(r, s) + phi.eval_path(s, t) == phi.eval_path(r, t)
            g = random_group_elt(sym, rng)
            lhs = phi.eval_path(act(g, r), act(g, s))
            assert lhs == phi.eval_path(r, s).act(madj(g))


def test_basis_vectors_reproduce_their_coset_values():
    sp = build_space(gamma0_symbol(6), 2)
    table = sp.symbol.require_direct_table()
    n = sp.k - 1
    for phi in sp.basis:
        vector = fraction_vector(phi)
        for i, rep in enumerate(table.reps):
            assert phi.eval_path(act(rep, (0, 1)), act(rep, (1, 0))) \
                == Vk(sp.k, [vector.get(i * n + s, 0) for s in range(n)])


def test_coordinates_roundtrip():
    sp = build_space(gamma0_symbol(11), 2)
    ncols = len(sp.symbol.require_direct_table().reps)
    v0, v2 = (dense(fraction_vector(sp.basis[i]), ncols) for i in (0, 2))
    combo = from_fraction_vector(sp, sparse([Fraction(2, 3) * a - 5 * b
                                             for a, b in zip(v0, v2)]))
    coords = coordinates(sp, combo)
    assert coords == [Fraction(2, 3), Fraction(0), Fraction(-5)]
    # a unit vector at a pivot column is zero at every free column
    pivot = min(set(range(ncols)) - set(sp.free_cols))
    with pytest.raises(ValueError):
        coordinates(sp, SymbolElement(sp, {pivot: 1}, 1))


def test_boundary_space_dimensions():
    assert len(boundary_space(gamma0_symbol(11), 2)) == 2
    assert len(boundary_space(base_symbol_sl2z(), 12)) == 1
    assert len(boundary_space(base_symbol_sl2z(), 5)) == 0
    assert len(boundary_space(gamma0_symbol(4), 4)) == 3


def test_boundary_values_and_embedding():
    sym = gamma0_symbol(11)
    k = 4
    b_inf, b_zero = boundary_space(sym, k)
    # the class reference values are (p x + q y)^(k-2) at the vertex p/q
    assert b_inf.value_at((1, 0)) == Vk.monomial(k, k - 2)
    assert not b_inf.value_at((0, 1))
    emb = b_inf
    rng = random.Random(7)
    for _ in range(10):
        r, s, t = (random_cusp(rng) for _ in range(3))
        assert emb.eval_path(r, s) + emb.eval_path(s, t) == emb.eval_path(r, t)
        g = random_group_elt(sym, rng)
        assert emb.eval_path(act(g, r), act(g, s)) == emb.eval_path(r, s).act(madj(g))


def test_boundary_embed_weight2_constants_die():
    sym = gamma0_symbol(11)
    b1, b2 = boundary_space(sym, 2)
    const = b1.__class__(sym, 2, {
        v: Fraction(1) for v in list(b1.coeffs) + list(b2.coeffs)
    })
    emb = const
    rng = random.Random(11)
    for _ in range(10):
        assert not emb.eval_path(random_cusp(rng), random_cusp(rng))


def test_space_elements_satisfy_two_and_three_term_relations():
    sp = build_space(gamma0_symbol(5), 4)
    table = sp.symbol.require_direct_table()
    for phi in sp.basis:
        def coset_path(g):
            # the value on g{0, infinity}
            return phi.eval_path(act(g, (0, 1)), act(g, (1, 0)))

        for rep in table.reps:
            a = coset_path(rep)
            b = coset_path(mmul(rep, SIGMA))
            assert not (a + b)
            c = coset_path(mmul(rep, TAU))
            d = coset_path(mmul(rep, TAU, TAU))
            assert not (a + c + d)


def test_elliptic_half_arcs_sum_to_whole_arc():
    # Gamma0(7) has two order-3 arcs; the base symbol has one of each order
    for sym, k in [(gamma0_symbol(7), 4), (base_symbol_sl2z(), 12)]:
        sp = build_space(sym, k)
        tilde = sym.tilde()
        for phi in sp.basis:
            for ta in tilde:
                if ta.half != "u":
                    continue
                partner = tilde[ta.star]
                whole = phi.eval_path(*sym.arcs[ta.base])
                u = eval_tilde_arc(phi, sym, ta)
                v = eval_tilde_arc(phi, sym, partner)
                assert u + v == whole
                if sym.mu[ta.base] == 2:
                    assert u == v


def test_eval_path_invariance_hundred_samples():
    rng = random.Random(37)
    samples = 0
    while samples < 100:
        n, k = rng.choice([(1, 12), (11, 2), (5, 4), (6, 2)])
        sym = symbol_for(n)
        sp = build_space(sym, k)
        if not sp.basis:
            continue
        phi = rng.choice(sp.basis)
        r, s = random_cusp(rng), random_cusp(rng)
        g = random_group_elt(sym, rng)
        assert phi.eval_path(act(g, r), act(g, s)) == phi.eval_path(r, s).act(madj(g))
        samples += 1


@lru_cache(maxsize=8)
def _space(family, n, k):
    symbol = gamma0_symbol(n) if family == "gamma0" else gamma1_symbol(n)
    return build_space(symbol, k)


cusps = st.tuples(st.integers(-500, 500), st.integers(0, 500)) \
    .filter(lambda pq: pq != (0, 0)).map(lambda pq: cusp(*pq))


@settings(deadline=None, max_examples=40)
@given(group=st.one_of(st.tuples(st.just("gamma0"), st.integers(2, 60)),
                       st.tuples(st.just("gamma1"), st.integers(2, 15))),
       k=st.sampled_from([2, 4, 6]), r=cusps, s=cusps, data=st.data())
def test_eval_path_is_the_difference_of_paths_from_infinity(group, k, r, s, data):
    sp = _space(*group, k)
    phi = sp.basis[data.draw(st.integers(0, sp.dimension() - 1))]
    inf = (1, 0)
    value = phi.eval_path(r, s)
    assert value == phi.eval_path(inf, s) - phi.eval_path(inf, r) == -phi.eval_path(s, r)


@pytest.mark.parametrize("n,k", [(60, 2), (13, 4)])
def test_tilde_arc_value_is_one_coset_lookup_per_piece(monkeypatch, n, k):
    # a Farey arc is unimodular: its value, and that of an order-2 half,
    # is one coset path; an order-3 half is two such arcs
    sp = build_space(gamma0_symbol(n), k)
    sym = sp.symbol
    calls = []
    locate = CosetTable.locate

    def counted(self, g):
        calls.append(g)
        return locate(self, g)

    monkeypatch.setattr(CosetTable, "locate", counted)
    for ta in sym.tilde():
        # a fresh space per arc: the paths walked for one arc are kept
        fresh = ModularSymbolSpace(sym, k, [(b.nums, b.den) for b in sp.basis])
        phi, other = fresh.basis[-1], fresh.basis[0]
        calls.clear()
        value = eval_tilde_arc(phi, sym, ta)
        expected = 2 if ta.half != "whole" and sym.mu[ta.base] == 3 else 1
        assert len(calls) == expected, (ta, calls)
        # every element of the space reads the same walk again
        assert eval_tilde_arc(phi, sym, ta) == value
        eval_tilde_arc(other, sym, ta)
        assert len(calls) == expected, (ta, calls)


_SYMBOLS = {
    "gamma0": gamma0_symbol,
    "gamma1": gamma1_symbol,
    "gamma": lambda n: subgroup_farey(base_symbol_sl2z(), gamma_full_group(n))[0],
}


@lru_cache(maxsize=16)
def _group_space(family, n, k):
    return build_space(_SYMBOLS[family](n), k)


@settings(deadline=None, max_examples=100)
@given(group=st.one_of(st.tuples(st.just("gamma0"), st.integers(1, 40)),
                       st.tuples(st.just("gamma1"), st.integers(3, 15)),
                       st.tuples(st.just("gamma"), st.integers(3, 6))),
       k=st.sampled_from([2, 3, 4, 6, 8]), r=cusps, s=cusps, data=st.data())
def test_eval_path_matches_the_per_coset_walk(group, k, r, s, data):
    sp = _group_space(*group, k)
    assume(sp.dimension() > 0)
    phi = sp.basis[data.draw(st.integers(0, sp.dimension() - 1))]
    for a, b in ((r, s), (s, r), (r, r)):
        value = phi.eval_path(a, b)
        assert value == eval_path_by_cosets(phi, a, b)
        assert all(type(c) is Fraction for c in value.coeffs)


@settings(deadline=None, max_examples=40)
@given(n=st.integers(1, 60), k=st.sampled_from([2, 4, 6, 8]), r=cusps, s=cusps, t=cusps,
       data=st.data())
def test_integer_combinations_keep_the_relations_and_the_cocycle_law(n, k, r, s, t, data):
    sp = _group_space("gamma0", n, k)
    coeffs = data.draw(st.lists(st.integers(-9, 9), min_size=sp.dimension(),
                                max_size=sp.dimension()))
    # the combination of the basis pairs, over the lcm of their denominators
    den = lcm(*(b.den for b in sp.basis))
    nums = defaultdict(int)
    for c, b in zip(coeffs, sp.basis):
        for col, x in b.nums.items():
            nums[col] += c * (den // b.den) * x
    combo = SymbolElement(sp, {col: x for col, x in sorted(nums.items()) if x}, den)
    # every sigma and tau relation, written at every coset, annihilates it
    table = sp.symbol.require_direct_table()

    def transport(g):
        i, gamma = table.locate(g)
        return i, minv(gamma)

    for i, rep in enumerate(table.reps):
        for parts in ([(i, ID), transport(mmul(rep, SIGMA))],
                      [(i, ID), transport(mmul(rep, TAU)), transport(mmul(rep, TAU, TAU))]):
            for row in coset_rows(k, parts):
                assert sum(x * combo.nums.get(c, 0) for c, x in row.items()) == 0
    # {r, s} + {s, t} = {r, t}
    values, vden = combo.path_values([(r, s), (s, t), (r, t)])
    assert vden == den
    m = k - 1
    assert [a + b for a, b in zip(values[:m], values[m:2 * m])] == values[2 * m:]


@settings(deadline=None, max_examples=40)
@given(st.one_of(
    st.tuples(st.just("gamma0"), st.integers(1, 60), st.sampled_from([2, 4, 6])),
    st.tuples(st.just("gamma1"), st.integers(1, 20), st.integers(2, 5)),
    st.tuples(st.just("gamma"), st.integers(1, 7), st.integers(2, 4)),
))
def test_one_relation_per_orbit_keeps_the_kernel(group):
    family, n, k = group
    sym = _SYMBOLS[family](n)
    table = sym.require_direct_table()
    handed = []

    def kernel(rows, ncols):
        handed.append(rows)
        return kernel_basis(rows, ncols)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("petersym.spaces.kernel_basis", kernel)
        space = build_space(sym, k)
    if k % 2 and sym.member(mneg(ID)):
        assert handed == [] and space.dimension() == 0
        return
    if k == 2:
        # the weight-2 basis is read off a spanning forest, with no rows
        assert handed == []
    else:
        # each row is a dict of the nonzero entries of at most three blocks
        assert all(type(row) is dict and len(row) <= 3 * (k - 1) and all(row.values())
                   for row in handed[0])
        handed = [len(rows) for rows in handed]
        sigma_orbits = {frozenset({i, table.locate(mmul(rep, SIGMA))[0]})
                        for i, rep in enumerate(table.reps)}
        tau_orbits = {frozenset({i, table.locate(mmul(rep, TAU))[0],
                                 table.locate(mmul(rep, TAU, TAU))[0]})
                      for i, rep in enumerate(table.reps)}
        assert handed == [(k - 1) * (len(sigma_orbits) + len(tau_orbits))]
    ncols = len(table.reps) * (k - 1)
    assert [(b.nums, b.den) for b in space.basis] \
        == kernel_basis(manin_relation_rows(sym, k), ncols)


@settings(deadline=None, max_examples=40)
@given(st.one_of(
    st.tuples(st.just("gamma0"), st.integers(1, 300)),
    st.tuples(st.just("gamma1"), st.integers(1, 40)),
    st.tuples(st.just("gamma"), st.integers(1, 10)),
))
def test_forest_basis_is_the_kernel_of_the_relations(group):
    # the weight-2 basis read off a spanning forest is the kernel, in
    # echelon order, of the relations written at every coset
    family, n = group
    sym = _SYMBOLS[family](n)
    ncols = len(sym.require_direct_table().reps)
    expected = kernel_basis(manin_relation_rows(sym, 2), ncols)
    basis = [(b.nums, b.den) for b in build_space(sym, 2).basis]
    assert basis == expected
    assert [list(nums) for nums, _ in basis] == [sorted(nums) for nums, _ in expected]


def _coset_graph_features(sym):
    """(sigma-fixed cosets, tau-fixed cosets, loops) of the coset graph."""
    table = sym.require_direct_table()
    sigma = [table.class_index(mmul(rep, SIGMA)) for rep in table.reps]
    tau = [table.class_index(mmul(rep, TAU)) for rep in table.reps]
    loops = sum(1 for i, j in enumerate(sigma)
                if i < j and tau[i] != i and j in (tau[i], tau[tau[i]]))
    return (sum(i == j for i, j in enumerate(sigma)),
            sum(i == j for i, j in enumerate(tau)), loops)


@pytest.mark.parametrize("n,features", [
    (1, (1, 1, 0)),   # level 1: one coset, fixed by sigma and by tau
    (2, (1, 0, 1)),
    (3, (0, 1, 1)),
    (13, (2, 2, 1)),
])
def test_forest_basis_at_fixed_cosets_and_loops(n, features):
    # fixed cosets are 0 and drop their edge; a loop is a free edge
    # whose cycle is itself
    sym = symbol_for(n)
    assert _coset_graph_features(sym) == features
    ncols = len(sym.require_direct_table().reps)
    basis = [(b.nums, b.den) for b in build_space(sym, 2).basis]
    assert basis == kernel_basis(manin_relation_rows(sym, 2), ncols)
    assert len(basis) == dim_modular_symbols_gamma0(n, 2)


def _relation_rows(sym, k):
    """The rows `build_space` hands to `kernel_basis`, and the space."""
    handed = []

    def kernel(rows, ncols):
        handed.append(rows)
        return kernel_basis(rows, ncols)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("petersym.spaces.kernel_basis", kernel)
        space = build_space(sym, k)
    return handed[0], space


@settings(deadline=None, max_examples=30)
@given(st.one_of(
    st.tuples(st.just("gamma0"), st.integers(1, 60), st.sampled_from([2, 4, 6])),
    st.tuples(st.just("gamma1"), st.integers(3, 13), st.integers(2, 6)),
), st.randoms(use_true_random=False))
def test_kernel_does_not_depend_on_row_order(group, rng):
    # the reduced row echelon form is unique, so any order of the
    # relation rows gives the basis of build_space, in echelon order
    family, n, k = group
    sym = _SYMBOLS[family](n)
    if k == 2:
        # no rows reach the kernel at weight 2: shuffle the relations
        # written at every coset instead
        rows, space = manin_relation_rows(sym, k), build_space(sym, k)
    else:
        rows, space = _relation_rows(sym, k)
    rows = list(rows)
    rng.shuffle(rows)
    ncols = len(sym.require_direct_table().reps) * (k - 1)
    assert kernel_basis(rows, ncols) == [(b.nums, b.den) for b in space.basis]


def test_sigma_rows_first_take_fewer_eliminations():
    # Gamma0(60), k = 4: with the sigma and tau relations interleaved
    # coset by coset, the kernel runs 513 eliminations; with every sigma
    # row first it runs 433 (at Gamma0(180), k = 2, before the weight-2
    # basis was read off a spanning forest, 9548 against 4064)
    calls = []
    eliminate = exact._eliminate

    def counted(row, prow, col):
        calls.append(col)
        return eliminate(row, prow, col)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exact, "_eliminate", counted)
        space = build_space(gamma0_symbol(60), 4)
    assert space.dimension() == dim_modular_symbols_gamma0(60, 4)
    assert len(calls) < 470
