"""Acceptance suite: one test per criterion, printed pass/fail lines.

Exact criteria compare Fractions for equality; the numeric criteria
state their tolerance and mode (relative/absolute) inline.  Everything
is desk scale; criterion 1 additionally asserts its sub-minute budget.
"""

import random
import time
from fractions import Fraction
from math import comb

import pytest

from petersym.dims import (
    dim_cusp_forms_gamma0,
    euler_phi,
    gamma0_invariants,
    gamma1_invariants,
    gamma_full_invariants,
)
from petersym.eisenstein import EisSymbol, TorsionFunction, distribution_check
from petersym.exact import solve_in_span
from petersym.farey import (
    base_symbol_sl2z,
    gamma0_group,
    gamma0_symbol,
    gamma1_group,
    gamma_full_group,
    subgroup_farey,
)
from petersym.modgroup import madj
from petersym.orbits import all_orbits, basis_v, member_basis, orbit_card, orbit_indicator, reduce_orbit
from petersym.pairing import (
    cuspidal_subspace,
    hecke_matrix,
    hom_cocycle,
    lambda_coeffs,
    pair,
)
from petersym.polyspace import Vk
from petersym.qexp import (
    delta_periods,
    eta_product_qexp,
    l_special,
    l_special_numeric,
    mellin_numeric,
    mellin_rational,
    period_haberland,
    petersson_norm_delta,
)
from petersym.spaces import boundary_space, build_space
from .oracles import (
    charpoly,
    dense,
    fraction_vector,
    from_path_evaluator,
    hecke_context,
    hecke_cocycle,
    hecke_path_map,
    pair_alt,
    pair_eis_via_cusps,
    rank,
)
from .test_modgroup import random_sl2
from .test_spaces import symbol_for


def report(num, desc):
    print(f"ACCEPTANCE {num} PASS: {desc}")


def test_acceptance_1_farey_subgroup_correctness():
    start = time.time()
    base = base_symbol_sl2z()
    for n in range(1, 61):
        sym, _ = subgroup_farey(base, gamma0_group(n))
        sym.validate()
        assert sym.invariants() == gamma0_invariants(n), ("gamma0", n)
        sym, _ = subgroup_farey(base, gamma1_group(n))
        sym.validate()
        assert sym.invariants() == gamma1_invariants(n), ("gamma1", n)
    for n in range(1, 13):
        sym, _ = subgroup_farey(base, gamma_full_group(n))
        sym.validate()
        assert sym.invariants() == gamma_full_invariants(n), ("gamma", n)
    elapsed = time.time() - start
    assert elapsed < 60, f"budget exceeded: {elapsed:.1f}s"
    report(1, f"symbols for gamma0/gamma1 (N<=60) and gamma(N) (N<=12) validate "
              f"and match classical invariants exactly ({elapsed:.1f}s)")


def test_acceptance_2_orbit_identities():
    from math import gcd

    for n in range(1, 101):
        assert sum(orbit_card(t, n) for t in all_orbits(n)) == n * n
    for n in range(1, 61):
        expected = sum(euler_phi(gcd(d, n // d)) for d in range(1, n + 1) if n % d == 0)
        assert len(basis_v(n, 4)) == expected
    for n in range(1, 61):
        for t in all_orbits(n):
            red = reduce_orbit(t, n, 2)  # strict descent asserted inside
            assert all(member_basis(s, n) for s in red)
    report(2, "orbit cardinality identity (N<=100), basis size = cusp count "
              "(N<=60), reduction terminates with strict descent (N<=60)")


def _grid3():
    for n in (1, 2, 3, 5, 6, 11):
        for k in (2, 4):
            yield n, k
    yield 1, 12


def test_acceptance_3_pairing_structure():
    rng = random.Random(101)
    for n, k in _grid3():
        sym = symbol_for(n)
        sp = build_space(sym, k)
        # (a) boundary images in the radical, both slots
        for b0 in boundary_space(sym, k):
            emb = b0
            emb_elem = from_path_evaluator(sp, emb.eval_path)
            for b in sp.basis:
                assert pair(sym, hom_cocycle(emb), b) == 0
                assert pair(sym, b, emb_elem) == 0
        # (b) antisymmetry for even weight, (c) endpoint-form agreement
        for b1 in sp.basis:
            assert pair(sym, b1, b1) == 0
            for b2 in sp.basis:
                v = pair(sym, b1, b2)
                assert v == -pair(sym, b2, b1)
                assert v == pair_alt(sym, b1, b2)
        # (e) cocycle-coboundary invariance
        cvec = Vk(k, [Fraction(rng.randrange(-3, 4)) for _ in range(k - 1)])
        for b1 in sp.basis[:2]:
            coc = hom_cocycle(b1)

            def shifted(g, coc=coc):
                return coc(g) + cvec.act(g) - cvec

            for b2 in sp.basis[:3]:
                assert pair(sym, shifted, b2) == pair(sym, coc, b2)
    # (d) independence of the Farey symbol: two tower routes to level 6
    base = base_symbol_sl2z()
    g2, _ = subgroup_farey(base, gamma0_group(2))
    route_a, _ = subgroup_farey(g2, gamma0_group(6))
    g3, _ = subgroup_farey(base, gamma0_group(3))
    route_b, _ = subgroup_farey(g3, gamma0_group(6))
    direct = gamma0_symbol(6)
    for k in (2, 4):
        sp = build_space(direct, k)
        eis = EisSymbol(orbit_indicator(basis_v(6, k)[0], 6), k)
        for b1 in sp.basis:
            vals = [pair(s, eis.cocycle, b1) for s in (direct, route_a, route_b)]
            assert vals[0] == vals[1] == vals[2]
            for b2 in sp.basis:
                vals = [pair(s, b1, b2) for s in (direct, route_a, route_b)]
                assert vals[0] == vals[1] == vals[2]
    report(3, "radical/antisymmetry/endpoint-form/coboundary checks exact on "
              "the N in {1,2,3,5,6,11}, k in {2,4,12} grid; symbol-independent "
              "across tower routes")


def test_acceptance_4_hecke_adjointness_and_stability():
    for n in (1, 5, 11):
        sym = symbol_for(n)
        for k in (2, 4, 12):
            sp = build_space(sym, k)
            if sp.dimension() == 0:
                continue
            eis = EisSymbol(orbit_indicator(basis_v(n, k)[0], n), k)
            for ell in (2, 3, 5):
                alpha = (1, 0, 0, ell)
                h_fwd = hecke_context(sym, alpha, gamma0_group(n))
                h_bwd = hecke_context(sym, madj(alpha), gamma0_group(n))
                probes = sp.basis[:2]
                for b1 in probes:
                    for b2 in probes:
                        lhs = pair(sym, hecke_cocycle(hom_cocycle(b1), h_fwd), b2)
                        rhs = pair(sym, hom_cocycle(b1), from_path_evaluator(sp,
                            hecke_path_map(b2, h_bwd).eval_path))
                        assert lhs == rhs, (n, k, ell)
                for b2 in probes:
                    lhs = pair(sym, hecke_cocycle(eis.cocycle, h_fwd), b2)
                    rhs = pair(sym, eis.cocycle, from_path_evaluator(sp,
                        hecke_path_map(b2, h_bwd).eval_path))
                    assert lhs == rhs, ("eis", n, k, ell)
    # cuspidal subspace stability and commutation
    space, cusp_basis = cuspidal_subspace(11, 2)
    ncols = len(space.symbol.require_direct_table().reps)
    vecs = [dense(fraction_vector(b), ncols) for b in cusp_basis]
    for ell in (2, 3, 5):
        hctx = hecke_context(space.symbol, (1, 0, 0, ell), gamma0_group(11))
        for b in cusp_basis:
            img = from_path_evaluator(space, hecke_path_map(b, hctx).eval_path)
            assert solve_in_span(vecs, dense(fraction_vector(img), ncols)) is not None
    sp5 = build_space(gamma0_symbol(5), 4)
    m2, m3 = hecke_matrix(sp5, 5, 2), hecke_matrix(sp5, 5, 3)
    size = len(m2)
    prod_a = [[sum(m2[i][t] * m3[t][j] for t in range(size)) for j in range(size)]
              for i in range(size)]
    prod_b = [[sum(m3[i][t] * m2[t][j] for t in range(size)) for j in range(size)]
              for i in range(size)]
    assert prod_a == prod_b
    report(4, "double-coset adjointness exact for ell in {2,3,5}, N in {1,5,11}, "
              "k in {2,4,12}; cuspidal subspace Hecke-stable; T2 T3 = T3 T2 at (5,4)")


def test_acceptance_5_eisenstein_duality():
    # exact agreement of the cusp-width shortcut with the general pairing
    for n in (3, 5, 11):
        sym = gamma0_symbol(n)
        for k in (2, 4):
            sp = build_space(sym, k)
            for t in basis_v(n, k):
                eis = EisSymbol(orbit_indicator(t, n), k)
                for b0 in boundary_space(sym, k):
                    assert pair_eis_via_cusps(sym, eis, b0) \
                        == pair(sym, eis.cocycle, from_path_evaluator(sp, b0.eval_path))
    # nondegeneracy of the Eisenstein-versus-boundary matrix
    for n in range(1, 31):
        sym = symbol_for(n)
        for k in (2, 4):
            bnds = boundary_space(sym, k)
            rows = [
                [pair_eis_via_cusps(sym, EisSymbol(orbit_indicator(t, n), k), b0)
                 for b0 in bnds]
                for t in basis_v(n, k)
            ]
            assert rank(rows) == len(basis_v(n, k)), (n, k)
    # distribution relations at the symbol level
    rng = random.Random(103)
    probes = [random_sl2(rng, 5) for _ in range(10)]
    assert distribution_check(4, 2, (0, 0), 4, probes)
    assert distribution_check(6, 3, (3, 0), 3, probes)
    report(5, "cusp-width pairing equals the general pairing exactly; the "
              "Eisenstein/boundary matrix has full rank for N<=30, k in {2,4}; "
              "distribution relations hold at N=4/M=2 and N=6/M=3")


def test_acceptance_6_cuspidal_dimensions():
    grid = [(11, 2), (37, 2), (1, 12), (1, 10), (1, 16), (2, 8)]
    for n, k in grid:
        _, basis = cuspidal_subspace(n, k)
        assert len(basis) == 2 * dim_cusp_forms_gamma0(n, k), (n, k)
    report(6, "cuspidal dimension = twice the classical cusp-form dimension "
              "on {(11,2),(37,2),(1,12),(1,10),(1,16),(2,8)}")


def test_acceptance_7_eigenvalue_check():
    space, cusp_basis = cuspidal_subspace(11, 2)
    hctx = hecke_context(space.symbol, (1, 0, 0, 2), gamma0_group(11))
    ncols = len(space.symbol.require_direct_table().reps)
    vecs = [dense(fraction_vector(b), ncols) for b in cusp_basis]
    cols = [
        solve_in_span(vecs, dense(fraction_vector(from_path_evaluator(space,
            hecke_path_map(b, hctx).eval_path)), ncols))
        for b in cusp_basis
    ]
    mat = [[cols[j][i] for j in range(len(cols))] for i in range(len(cols))]
    assert charpoly(mat) == [Fraction(1), Fraction(4), Fraction(4)]
    # independent eigenvalue: q^2 coefficient of the weight-2 eta product
    eta = eta_product_qexp([(1, 2), (11, 2)], 4)
    a2 = eta[1]
    assert a2 == -2
    assert charpoly(mat) == [Fraction(1), Fraction(-2 * a2), Fraction(a2 * a2)]
    report(7, "char poly of T_2 on the (11,2) cuspidal subspace is (x+2)^2, "
              "with -2 from the eta-product expansion")


def test_acceptance_8_level_one_numeric_suite():
    start = time.time()
    r = delta_periods()
    scale = max(abs(x) for x in r)
    odd = abs(sum(comb(10, m) * r[m] for m in range(1, 11, 2))) / scale
    assert odd < 1e-8, f"odd binomial relation (relative): {odd}"
    lam = [float(x) for x in lambda_coeffs(12)]
    even = abs(sum(l * r[m] for l, m in zip(lam, range(0, 11, 2)))) / scale
    assert even < 1e-8, f"lambda relation (relative): {even}"
    norm = petersson_norm_delta()
    hab = period_haberland(r, [x.conjugate() for x in r])
    target = -(2j) ** 11 * norm
    cross = abs(hab - target) / abs(target)
    assert cross < 1e-6, f"cross identity (relative): {cross}"
    self_pair = abs(period_haberland(r, r)) / scale ** 2
    assert self_pair < 1e-8, f"self pairing (absolute, normalized): {self_pair}"
    elapsed = time.time() - start
    assert elapsed < 60
    report(8, f"discriminant-form periods: lambda residual {even:.1e} (<1e-8 rel), "
              f"odd residual {odd:.1e} (<1e-8 rel), pairing-vs-norm {cross:.1e} "
              f"(<1e-6 rel), self pairing {self_pair:.1e} (<1e-8 abs) "
              f"[{elapsed:.1f}s]")


def test_acceptance_9_appendix_suite():
    worst_mellin = 0.0
    for n in (3, 4, 5):
        for k in (4, 6):
            f = TorsionFunction.indicator(n, (1, 0)) \
                + TorsionFunction.indicator(n, (1, 2)).scale(Fraction(1, 2))
            js = range(1, k - 2)
            for j, numeric in zip(js, mellin_numeric(f, k, js)):
                exact = complex(float(mellin_rational(f, k, j)))
                err = abs(numeric - exact) / max(1.0, abs(exact))
                worst_mellin = max(worst_mellin, err)
                assert err < 1e-8, (n, k, j, err)
    rng = random.Random(107)
    worst_l = 0.0
    for n in range(1, 7):
        for h in (2, 3, 4):
            g = [Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)) for _ in range(n)]
            exact = float(l_special(g, h))
            numeric = l_special_numeric([float(x) for x in g], h)
            worst_l = max(worst_l, abs(numeric - exact))
            assert abs(numeric - exact) < 1e-10
    report(9, f"numeric Mellin agrees within 1e-8 relative (worst {worst_mellin:.1e}) "
              f"for N in {{3,4,5}}, k in {{4,6}}, all middle indices; "
              f"L-values match Euler-Maclaurin within 1e-10 absolute "
              f"(worst {worst_l:.1e})")
