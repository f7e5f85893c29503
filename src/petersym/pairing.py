"""The algebraic intersection pairing, Hecke operators, cuspidal subspace.

The pairing consumes its left argument as a cocycle, a callable sending
group matrices to coefficient polynomials.  Both period symbols of
Eisenstein data (via their exact cocycle) and plain symbol-space
elements (via the based-path cocycle) fit this interface, so the one
sum over the tilde arcs of a Farey symbol

    1/2 sum_a < cocycle(glue_a^-1), value of the right argument on a >

covers every combination the theory produces.  `pairing_matrix`
evaluates it for lists of left and right arguments at once, and `pair`
is its 1x1 case.  All values are exact rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .eisenstein import EisSymbol
from .exact import bernoulli_number, kernel_basis
from .farey import (
    CosetTable,
    ExtendedFareySymbol,
    GroupSpec,
    conjugated_group,
    gamma0_symbol,
    subgroup_farey,
)
from .modgroup import EPS, T_MAT, CuspT, Mat, act, madj, mdet, minv, mmul
from .orbits import basis_v, orbit_indicators
from .polyspace import Vk
from .spaces import (
    BoundarySymbol,
    ModularSymbolSpace,
    SymbolElement,
    build_space,
    eval_tilde_arc,
)

__all__ = [
    "hom_cocycle",
    "pairing_matrix",
    "pair",
    "pair_alt",
    "pair_eis_via_cusps",
    "HeckeContext",
    "hecke_context",
    "hecke_cocycle",
    "hecke_path_map",
    "hecke_matrix",
    "noncusp_pair",
    "epsilon_conjugate_hom",
    "epsilon_conjugate_cocycle",
    "eisenstein_pairing_matrix",
    "cuspidal_subspace",
    "haberland_pair",
    "lambda_coeffs",
]


def hom_cocycle(phi, base: CuspT = (1, 0)):
    """The cocycle g -> phi((base, g^-1 base)) of a path map."""

    def cocycle(g: Mat) -> Vk:
        return phi.eval_path(base, act(minv(g), base))

    return cocycle


def pairing_matrix(symbol: ExtendedFareySymbol, lefts, rights) -> list:
    """Matrix of the pairing of each left against each right argument.

    A left is a cocycle (a callable on group matrices) or anything with
    an eval_path method, in which case its based cocycle at infinity is
    used (the value does not depend on the base point); a right is a
    path map.  Entry (i, j) is

        1/2 sum_a < left_i(glue_a^-1), value of right_j on tilde arc a >.

    Each left value at each inverse glue is computed once, and the value
    of each right on a tilde arc once, only on arcs where some left
    value is nonzero.  With no rights the result has no rows.
    """
    tilde = symbol.tilde()
    glues = [minv(ta.glue) for ta in tilde]
    rows = []
    for left in lefts:
        cocycle = left if callable(left) else hom_cocycle(left)
        rows.append([(a, value) for a, value in enumerate(map(cocycle, glues)) if value])
    used = sorted({a for row in rows for a, _ in row})
    cols = []
    for right in rights:
        values = {a: eval_tilde_arc(right, symbol, tilde[a]) for a in used}
        cols.append([sum((value.pair(values[a]) for a, value in row), Fraction(0)) / 2
                     for row in rows])
    return [list(row) for row in zip(*cols)]


def pair(symbol: ExtendedFareySymbol, left, right) -> Fraction:
    """Pairing of a cocycle (or path map) against a path map."""
    return pairing_matrix(symbol, [left], [right])[0][0]


def _hat_value(symbol: ExtendedFareySymbol, phi, endpoint, base: CuspT,
               half_cache: dict) -> Vk:
    """phi((base, t)) for a tilde endpoint t, cusp or elliptic point."""
    kind, data = endpoint
    if kind == "c":
        return phi.eval_path(base, data)
    # elliptic fixed point of the symbol arc `data`: go to the arc start
    # and add the value on the half arc into the fixed point
    key = data
    if key not in half_cache:
        for ta in symbol.tilde():
            if ta.base == data and ta.half == "u":
                half_cache[key] = eval_tilde_arc(phi, symbol, ta)
                break
    start = symbol.arcs[data][0]
    return phi.eval_path(base, start) + half_cache[key]


def pair_alt(symbol: ExtendedFareySymbol, phi1, phi2, base: CuspT = (1, 0)) -> Fraction:
    """Endpoint form of the pairing on two symbol-space elements."""
    tilde = symbol.tilde()
    cache1: dict = {}
    cache2: dict = {}
    total = Fraction(0)
    for ta in tilde:
        star = tilde[ta.star]
        a1 = _hat_value(symbol, phi1, star.start, base, cache1)
        b1 = _hat_value(symbol, phi2, star.end, base, cache2)
        a2 = _hat_value(symbol, phi1, ta.end, base, cache1)
        b2 = _hat_value(symbol, phi2, ta.start, base, cache2)
        total += a1.pair(b1) - a2.pair(b2)
    return total / 2


def pair_eis_via_cusps(symbol: ExtendedFareySymbol, eis: EisSymbol,
                       boundary: BoundarySymbol) -> Fraction:
    """Cusp-width shortcut for the pairing against an embedded boundary symbol.

    Sums width(s) * (moment of the twist of f at s) * coefficient(s)
    over a system of cusp classes; agrees with the general pairing of
    the period cocycle against the embedded boundary element.
    """
    total = Fraction(0)
    for cls in symbol.cusp_classes():
        c = boundary.coeffs.get(cls.vertex, Fraction(0))
        if not c:
            continue
        _, moment = eis._twist_data(cls.g0)
        total += cls.width * moment * c
    return total


# -- Hecke operators ---------------------------------------------------


@dataclass
class HeckeContext:
    """Double-coset data for an integral matrix between two groups.

    `table` holds representatives of (target cap alpha^-1 source alpha)
    backslash target, obtained from the subgroup algorithm over the
    target symbol, so the double coset is the disjoint union of the
    source-translates of alpha times the representatives.
    """

    alpha: Mat
    source_member: callable
    target_symbol: ExtendedFareySymbol
    table: CosetTable

    def degree(self) -> int:
        return len(self.table)


def hecke_context(target_symbol: ExtendedFareySymbol, alpha: Mat,
                  source: GroupSpec) -> HeckeContext:
    if mdet(alpha) <= 0:
        raise ValueError("the double-coset matrix must have positive determinant")
    spec = conjugated_group(alpha, source)
    _, table = subgroup_farey(target_symbol, spec)
    return HeckeContext(alpha, source.member, target_symbol, table)


def _conjugate_down(alpha: Mat, m: Mat) -> Mat:
    """alpha m alpha^-1, which must be integral of determinant 1."""
    det = mdet(alpha)
    raw = mmul(alpha, m, madj(alpha))
    if any(x % det for x in raw):
        raise ArithmeticError("conjugation left the integer matrices")
    return tuple(x // det for x in raw)


def hecke_cocycle(base_cocycle, hctx: HeckeContext):
    """Transport of a source-group cocycle through the double coset."""

    def transported(g: Mat) -> Vk:
        total = None
        for xi in hctx.table.reps:
            prod = mmul(xi, g)
            j, m = hctx.table.locate(prod)
            gamma = _conjugate_down(hctx.alpha, m)
            term = base_cocycle(gamma).act(mmul(hctx.alpha, hctx.table.reps[j]))
            total = term if total is None else total + term
        return total

    return transported


class hecke_path_map:
    """The image of a path map under the double-coset operator."""

    def __init__(self, phi, hctx: HeckeContext):
        self.phi = phi
        self.hctx = hctx

    def eval_path(self, r: CuspT, s: CuspT) -> Vk:
        total = None
        for xi in self.hctx.table.reps:
            m = mmul(self.hctx.alpha, xi)
            term = self.phi.eval_path(act(m, r), act(m, s)).act(m)
            total = term if total is None else total + term
        return total


def hecke_matrix(space: ModularSymbolSpace, ell: int,
                 source: GroupSpec | None = None) -> list:
    """Matrix of the prime Hecke operator on the space basis (columns act)."""
    symbol = space.symbol
    if source is None:
        from .farey import gamma0_group

        name = symbol.name
        if name == "sl2z":
            source = gamma0_group(1)
        elif name.startswith("gamma0("):
            source = gamma0_group(int(name[7:-1]))
        else:
            raise ValueError("pass the source group explicitly for this symbol")
    alpha = (1, 0, 0, ell)
    hctx = hecke_context(symbol, alpha, source)
    cols = []
    for b in space.basis:
        image = space.from_path_evaluator(hecke_path_map(b, hctx).eval_path)
        cols.append(space.coordinates(image))
    return [[cols[j][i] for j in range(len(cols))] for i in range(len(cols[0]))] \
        if cols else []


# -- reflection conjugation -------------------------------------------


def noncusp_pair(symbol: ExtendedFareySymbol, cocycle, boundary: BoundarySymbol) -> Fraction:
    """Pairing against an embedded boundary symbol via stabilizer generators.

    Equals minus the sum over a system of cusp classes of the cocycle
    at the positive stabilizer generator paired with the boundary value
    at the class.
    """
    total = Fraction(0)
    for cls in symbol.cusp_classes():
        val = boundary.value_at(cls.vertex)
        if not val:
            continue
        total -= cocycle(cls.tau).pair(val)
    return total


class epsilon_conjugate_hom:
    """Path map over the reflected group: values phi(eps r, eps s)|eps."""

    def __init__(self, phi):
        self.phi = phi

    def eval_path(self, r: CuspT, s: CuspT) -> Vk:
        return self.phi.eval_path(act(EPS, r), act(EPS, s)).act(EPS)


def epsilon_conjugate_cocycle(cocycle):
    def conj(g: Mat) -> Vk:
        return cocycle(mmul(EPS, g, EPS)).act(EPS)

    return conj


# -- cuspidal subspace -------------------------------------------------


def eisenstein_pairing_matrix(symbol: ExtendedFareySymbol, n: int, k: int,
                              space: ModularSymbolSpace):
    """Rows: basis orbits; columns: pairings against the space basis."""
    lefts = [EisSymbol(f, k).cocycle for f in orbit_indicators(basis_v(n, k), n)]
    return pairing_matrix(symbol, lefts, space.basis)


def cuspidal_subspace(n: int, k: int) -> tuple[ModularSymbolSpace, list[SymbolElement]]:
    """Exact kernel of the pairing against all basis Eisenstein symbols."""
    if k % 2:
        raise ValueError("the construction needs even weight over these groups")
    from .farey import base_symbol_sl2z

    symbol = gamma0_symbol(n) if n > 1 else base_symbol_sl2z()
    space = build_space(symbol, k)
    rows = eisenstein_pairing_matrix(symbol, n, k, space)
    dim = space.dimension()
    cut = kernel_basis(rows, dim)
    basis = []
    for coeffs in cut:
        elem = None
        for c, b in zip(coeffs, space.basis):
            if c:
                part = b.scale(c)
                elem = part if elem is None else elem + part
        basis.append(elem)
    return space, basis


# -- level-one closed forms --------------------------------------------


def haberland_pair(value_mod: Vk, value_shift1: Vk, phi2_mod: Vk) -> Fraction:
    """Closed form of the level-one pairing from the two base values.

    value_mod is the cocycle value on the infinity-to-0 path,
    value_shift1 its value on the infinitesimal shift by 1 at infinity
    (zero for plain symbol-space elements), phi2_mod the right
    argument's value on the same base path.
    """
    t_inv = minv(T_MAT)
    left = value_mod.act(T_MAT) - value_mod.act(t_inv) \
        - (value_shift1 + value_shift1.act(T_MAT)).scale(2)
    return left.pair(phi2_mod) / 6


def lambda_coeffs(k: int) -> list[Fraction]:
    """The even-index coefficients of the level-one Eisenstein relation.

    Index m runs over even integers 0, 2, ..., k-2; entry m is
    2 C(k-1, m) B_k / (k (k-1)) plus the odd-n sum of trinomial
    Bernoulli products.
    """
    if k < 4 or k % 2:
        raise ValueError("weight must be even and at least 4")
    out = []
    for m in range(0, k - 1, 2):
        val = 2 * comb(k - 1, m) * bernoulli_number(k) / (k * (k - 1))
        for nn in range(1, k - 1 - m, 2):
            tri = factorial(k - 2) // (
                factorial(nn) * factorial(m) * factorial(k - 2 - m - nn)
            )
            val += tri * (bernoulli_number(k - 1 - nn) / (k - 1 - nn)) \
                * (bernoulli_number(nn + 1) / (nn + 1))
        out.append(val)
    return out
