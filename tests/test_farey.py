import random
from functools import lru_cache
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from petersym.dims import (
    gamma0_index,
    gamma0_invariants,
    gamma1_index,
    gamma1_invariants,
    gamma_full_invariants,
)
from petersym.farey import (
    FareyError,
    GroupSpec,
    base_symbol_sl2z,
    gamma0_group,
    gamma0_symbol,
    gamma1_group,
    gamma1_symbol,
    gamma_full_group,
    subgroup_farey,
)
from petersym.modgroup import ID, SIGMA, T_MAT, TAU, act, cusp, minv, mmul, mneg, mpow, psl2_order
from petersym.orbits import cusp_to_basis
from .oracles import (
    conjugated_group,
    coset_decompose,
    gamma0_key,
    hecke_context,
    intersection_group,
)
from .test_modgroup import random_sl2


def test_base_symbol():
    base = base_symbol_sl2z()
    base.validate()
    assert base.glue == [SIGMA, TAU]
    assert mmul(SIGMA, SIGMA) == mneg(ID)
    assert psl2_order(TAU) == 3
    assert mmul(minv(TAU), SIGMA) == T_MAT
    assert base.invariants() == {
        "index": 1, "n_cusps": 1, "nu2": 1, "nu3": 1, "genus": 0,
    }


def test_base_tilde_arcs():
    base = base_symbol_sl2z()
    tilde = base.tilde()
    assert len(tilde) == 4
    stars = [t.star for t in tilde]
    for i, t in enumerate(tilde):
        assert stars[t.star] == i and t.star != i


def test_trivial_subgroup_returns_parent():
    base = base_symbol_sl2z()
    sym, table = subgroup_farey(base, GroupSpec(lambda g: True, None, "all"))
    assert len(table) == 1
    assert sym.invariants() == base.invariants()
    assert sym.arcs == base.arcs


@pytest.mark.parametrize("n,expected", [
    (2, {"index": 3, "n_cusps": 2, "nu2": 1, "nu3": 0, "genus": 0}),
    (11, {"index": 12, "n_cusps": 2, "nu2": 0, "nu3": 0, "genus": 1}),
])
def test_gamma0_known_invariants(n, expected):
    assert gamma0_symbol(n).invariants() == expected


def test_gamma0_4_has_three_cusps():
    inv = gamma0_symbol(4).invariants()
    assert inv["n_cusps"] == 3 and inv["nu2"] == 0 and inv["nu3"] == 0
    assert inv["index"] == 6


@pytest.mark.parametrize("n", list(range(1, 31)))
def test_gamma0_vs_classical(n):
    sym = gamma0_symbol(n)
    sym.validate()
    assert sym.invariants() == gamma0_invariants(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 11, 12, 13, 25])
def test_gamma1_vs_classical(n):
    sym, _ = subgroup_farey(base_symbol_sl2z(), gamma1_group(n))
    sym.validate()
    assert sym.invariants() == gamma1_invariants(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 8])
def test_gamma_full_vs_classical(n):
    sym, _ = subgroup_farey(base_symbol_sl2z(), gamma_full_group(n))
    sym.validate()
    assert sym.invariants() == gamma_full_invariants(n)


def test_glue_matrices_satisfy_membership():
    for n in [5, 6, 10]:
        sym = gamma0_symbol(n)
        assert all(sym.member(g) for g in sym.glue)


def test_gamma0_key_is_a_perfect_coset_key():
    # brute force: the points of P^1(Z/N) with one coset are an orbit
    # under scaling by all units; the key must be constant on each orbit
    # and differ between orbits; highly composite levels have the most
    # divisors h, so the most tables of residual units
    for n in [*range(1, 121), 144, 180, 210, 240]:
        key = gamma0_group(n).key
        units = [u for u in range(1, n + 1) if gcd(u, n) == 1]
        seen, keys = set(), set()
        for c in range(n):
            for d in range(n):
                if gcd(c, d, n) != 1 or (c, d) in seen:
                    continue
                orbit = {(u * c % n, u * d % n) for u in units}
                seen |= orbit
                k = key((0, 0, c, d))
                assert k not in keys
                assert {key((0, 0) + point) for point in orbit} == {k}
                keys.add(k)
        assert len(keys) == gamma0_index(n)


@settings(deadline=None, max_examples=150)
@given(st.integers(1, 2000), st.lists(st.integers(0, 2 ** 32), min_size=1, max_size=25))
def test_tabled_gamma0_key_matches_the_closed_form(n, seeds):
    # one key for all the matrices, read twice: the first reads fill the
    # tables, the second pass reads only what they hold
    key = gamma0_group(n).key
    mats = [random_sl2(random.Random(seed), length=12) for seed in seeds]
    mats += [mmul(g, mpow(T_MAT, n)) for g in mats] + [mneg(g) for g in mats]
    for g in mats + mats:
        assert key(g) == gamma0_key(n, g)


def test_intersection_group_of_gamma0_and_gamma1():
    g0, g1 = gamma0_group(4), gamma1_group(3)
    sym, table = subgroup_farey(base_symbol_sl2z(), intersection_group(g0, g1))
    sym.validate()
    assert len(table) == sym.index == gamma0_index(4) * gamma1_index(3)
    assert all(g0.member(g) and g1.member(g) for g in sym.glue)


def test_tower_construction_agrees_with_direct():
    base = base_symbol_sl2z()
    g2, _ = subgroup_farey(base, gamma0_group(2))
    g6a, t6a = subgroup_farey(g2, gamma0_group(6))
    g3, _ = subgroup_farey(base, gamma0_group(3))
    g6b, _ = subgroup_farey(g3, gamma0_group(6))
    direct = gamma0_symbol(6)
    assert g6a.invariants() == g6b.invariants() == direct.invariants()
    assert len(t6a) == 4  # relative index [Gamma0(2):Gamma0(6)]


def test_rectification_of_order3_orbits():
    # Gamma0(7) has two order-3 arcs; passing to Gamma0(14) forces the
    # four-arc rewrite of an order-3 orbit of the induced pairing
    base = base_symbol_sl2z()
    g7, _ = subgroup_farey(base, gamma0_group(7))
    assert g7.invariants()["nu3"] == 2
    g14, _ = subgroup_farey(g7, gamma0_group(14))
    g14.validate()
    assert g14.invariants() == gamma0_invariants(14)
    assert all(m == 1 for m in g14.mu)


@pytest.mark.parametrize("spec,invariants", [
    (gamma0_group(28), gamma0_invariants(28)),
    (gamma1_group(28), gamma1_invariants(28)),
    # Gamma0(7) cap Gamma^0(5), the double coset of diag(1, 5); conjugate
    # to Gamma0(35) by diag(5, 1)
    (conjugated_group((1, 0, 0, 5), gamma0_group(7)), gamma0_invariants(35)),
], ids=["gamma0(28)", "gamma1(28)", "double coset of diag(1, 5)"])
def test_tower_over_gamma0_7(spec, invariants):
    # triangles around the two order-3 arcs of Gamma0(7) are left with one
    # coset missing once the rest is unfolded
    g7 = gamma0_symbol(7)
    sym, table = subgroup_farey(g7, spec)
    sym.validate()
    assert sym.invariants() == invariants
    assert sym.index == g7.index * len(table)
    rng = random.Random(28)
    for _ in range(20):
        assert_decomposes(sym, spec, [rng.choice(g7.glue) for _ in range(rng.randrange(1, 8))])


def assert_decomposes(sym, spec, word):
    """coset_decompose rebuilds the product of a word in the parent's glue."""
    g = ID
    for letter in word:
        g = mmul(g, letter)
    factors, xi = coset_decompose(sym, g)
    prod = ID
    for f in factors:
        prod = mmul(prod, f)
    assert mmul(prod, xi) == g
    assert all(spec.member(f) for f in factors)


@settings(deadline=None, max_examples=20)
@given(n=st.integers(2, 20), m=st.integers(2, 4), family=st.sampled_from(["gamma0", "gamma1"]),
       data=st.data())
def test_towers_over_gamma0(n, m, family, data):
    group, invariants = {"gamma0": (gamma0_group, gamma0_invariants),
                         "gamma1": (gamma1_group, gamma1_invariants)}[family]
    parent = gamma0_symbol(n)
    spec = group(n * m)
    sym, table = subgroup_farey(parent, spec)
    sym.validate()
    assert sym.invariants() == invariants(n * m)
    assert_step_is_the_coset_graph(parent, table)
    assert_decomposes(sym, spec, data.draw(st.lists(st.sampled_from(parent.glue),
                                                    min_size=1, max_size=8)))


def parent_and_group_id(x):
    return x.name if isinstance(x, GroupSpec) else f"over-gamma0({x})"


def assert_step_is_the_coset_graph(parent, table):
    """step[a][i] is the coset of reps[i] * glue[a], for every coset and parent arc."""
    assert [len(row) for row in table.step] == [len(table)] * parent.n_arcs()
    for a, g in enumerate(parent.glue):
        for i, rep in enumerate(table.reps):
            assert table.step[a][i] == table.class_index(mmul(rep, g))


# subgroups of the base symbol, then towers: the three over Gamma0(7)
# reach both rectification branches of a partial triangle
@pytest.mark.parametrize("parent_level,spec", [
    *[(1, gamma0_group(n)) for n in range(1, 201)],
    *[(1, gamma1_group(n)) for n in range(1, 31)],
    *[(1, gamma_full_group(n)) for n in range(1, 9)],
    (1, intersection_group(gamma0_group(4), gamma1_group(3))),
    (7, conjugated_group((1, 0, 0, 5), gamma0_group(7))),
    (7, gamma1_group(28)),
    (7, gamma0_group(28)),
    (2, gamma0_group(6)),
    (3, gamma0_group(6)),
    (10, gamma0_group(1000)),
], ids=parent_and_group_id)
def test_the_table_keeps_the_coset_graph(parent_level, spec):
    parent = gamma0_symbol(parent_level) if parent_level > 1 else base_symbol_sl2z()
    _, table = subgroup_farey(parent, spec)
    assert_step_is_the_coset_graph(parent, table)


def test_the_trivial_table_keeps_the_coset_graph():
    base = base_symbol_sl2z()
    assert_step_is_the_coset_graph(base, base.require_direct_table())


@pytest.mark.parametrize("parent_level,spec", [
    (1, gamma0_group(894)), (1, gamma1_group(23)), (1, gamma_full_group(8)),
    (10, gamma0_group(1000)),
], ids=parent_and_group_id)
def test_one_key_per_step(parent_level, spec):
    # each step of the unfolding keys one matrix (a new triangle two), and
    # no new coset's arc back to the coset it was attached to is stepped
    calls = []
    key = spec.key
    counted = spec._replace(key=lambda g: calls.append(g) or key(g))
    parent = gamma0_symbol(parent_level) if parent_level > 1 else base_symbol_sl2z()
    sym, table = subgroup_farey(parent, counted)
    assert len(calls) <= len(table) + sym.n_arcs() + 1
    assert table.reps == subgroup_farey(parent, spec)[1].reps


def test_hecke_context_over_gamma0_7():
    assert hecke_context(gamma0_symbol(7), (1, 0, 0, 5), gamma0_group(7)).degree() == 6


def test_infinite_index_guard():
    base = base_symbol_sl2z()
    # the trivial group {+-Id} has infinite index
    spec = GroupSpec(lambda g: g in (ID, mneg(ID)), None, "pm1")
    with pytest.raises(FareyError):
        subgroup_farey(base, spec, max_index=64)


def test_widths_sum_to_index_and_match_classical():
    # widths of Gamma0(4): cusps infinity (1), 0 (4), 1/2 (1)
    sym = gamma0_symbol(4)
    widths = {c.vertex: c.width for c in sym.cusp_classes()}
    assert sum(widths.values()) == 6
    assert widths[(1, 0)] == 1
    assert widths[(0, 1)] == 4


def test_cusp_classification_and_transport():
    sym = gamma0_symbol(11)
    classes = sym.cusp_classes()
    assert len(classes) == 2
    rng = random.Random(4)
    for _ in range(25):
        g = random_sl2(rng, 9)
        while not sym.member2(g):
            g = mmul(g, rng.choice([SIGMA, TAU]))
            continue
        for cls in classes:
            c = act(g, cls.vertex)
            found, gamma = sym.cusp_transporter(c)
            assert found is sym.cusp_transporter(c)[0]
            assert found.vertex == cls.vertex
            assert sym.member(gamma)
            assert act(gamma, found.vertex) == c


@lru_cache(maxsize=None)
def _symbol(family, n):
    return (gamma0_symbol if family == "gamma0" else gamma1_symbol)(n)


cusps = st.tuples(st.integers(-300, 300), st.integers(0, 300)) \
    .filter(lambda pq: pq != (0, 0)).map(lambda pq: cusp(*pq))


@settings(deadline=None, max_examples=60)
@given(n=st.integers(1, 60), c1=cusps, c2=cusps,
       word=st.lists(st.integers(0, 10**6), max_size=6), translate=st.booleans())
def test_cusp_classes_match_the_gamma0_cusp_invariant(n, c1, c2, word, translate):
    # cusp_to_basis separates the cusp classes of Gamma0(N) for N <= 60;
    # half the draws move c1 by a word in the gluing matrices, so that
    # equal classes come up as often as distinct ones
    sym = _symbol("gamma0", n)
    if translate:
        g = ID
        for i in word:
            g = mmul(g, sym.glue[i % sym.n_arcs()])
        c2 = act(g, c1)
    same = sym.cusp_transporter(c1)[0] is sym.cusp_transporter(c2)[0]
    assert same == (cusp_to_basis(c1, n) == cusp_to_basis(c2, n))


@settings(deadline=None, max_examples=40)
@given(family=st.sampled_from(["gamma0", "gamma1"]), n=st.integers(1, 12), c=cusps)
def test_cusp_transporter_returns_a_group_element(family, n, c):
    sym = _symbol(family, n)
    cls, gamma = sym.cusp_transporter(c)
    assert cls in sym.cusp_classes()
    assert sym.member(gamma)
    assert act(gamma, cls.vertex) == c


def test_stabilizer_generators():
    for n in [1, 4, 6, 11]:
        sym = gamma0_symbol(n)
        for cls in sym.cusp_classes():
            assert sym.member2(cls.tau)
            conj = mmul(minv(cls.g0), cls.tau, cls.g0)
            assert conj == (1, cls.width, 0, 1)


def test_coset_decompose_roundtrip():
    sym = gamma0_symbol(11)
    rng = random.Random(17)
    for _ in range(50):
        g = random_sl2(rng, rng.randrange(1, 12))
        factors, xi = coset_decompose(sym, g)
        prod = ID
        for f in factors:
            prod = mmul(prod, f)
        assert mmul(prod, xi) == g
        assert all(sym.member(f) for f in factors)
        assert (xi in (ID, mneg(ID))) == sym.member2(g)


def test_coset_decompose_member_gets_identity_rep():
    sym = gamma0_symbol(5)
    gamma = (1, 0, 5, 1)
    factors, xi = coset_decompose(sym, gamma)
    assert xi in (ID, mneg(ID))
    gamma = (2, 1, 5, 3)
    assert sym.member(gamma)
    factors, xi = coset_decompose(sym, gamma)
    assert xi in (ID, mneg(ID))


def test_coset_decompose_representative_of_itself():
    sym = gamma0_symbol(7)
    for rep in sym.table.reps:
        factors, xi = coset_decompose(sym, rep)
        assert factors == []
        assert xi == rep


def test_order3_product_identity_checked():
    # directly exercised inside subgroup_farey; rebuilding a rectified
    # case exercises the gamma_A gamma_B gamma_C = Id verification
    base = base_symbol_sl2z()
    g7, _ = subgroup_farey(base, gamma0_group(7))
    g21, _ = subgroup_farey(g7, gamma0_group(21))
    assert g21.invariants() == gamma0_invariants(21)


def test_json_shape():
    data = gamma0_symbol(2).to_json()
    assert set(data) == {"vertices", "star", "mu", "glue"}
    assert len(data["vertices"]) == len(data["mu"]) + 1
    assert all(len(g) == 4 for g in data["glue"])


def test_tilde_unchanged_without_elliptic_arcs():
    sym = gamma0_symbol(11)
    assert all(m == 1 for m in sym.mu)
    tilde = sym.tilde()
    assert len(tilde) == sym.n_arcs()
    assert [(t.start[1], t.end[1]) for t in tilde] == sym.arcs
    assert [t.star for t in tilde] == sym.star
