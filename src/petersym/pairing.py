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

Hecke operators on Gamma0(N) act on the coset values directly, through
Merel's set of Heilbronn matrices of determinant ell; no second Farey
symbol is unfolded.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from math import comb, factorial, gcd, lcm

from .dims import gamma0_index
from .eisenstein import EisSymbol
from .exact import bernoulli_number, kernel_basis
from .farey import ExtendedFareySymbol, base_symbol_sl2z, gamma0_symbol
from .modgroup import EPS, T_MAT, CuspT, Mat, act, madj, minv, mmul
from .orbits import basis_v, orbit_indicators
from .polyspace import Vk, action_matrix
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
    "heilbronn_merel",
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


def heilbronn_merel(ell: int) -> list[Mat]:
    """Merel's set X_ell of (a b; c d) with ad - bc = ell, a > b >= 0, d > c >= 0.

    From b c <= (a-1)(d-1) it follows that a + d <= ell + 1; for b c = m
    > 0, c = m / b < d means b > m / d.
    """
    out = []
    for a in range(1, ell + 1):
        for d in range(1, ell + 2 - a):
            m = a * d - ell  # = b c
            if m == 0:
                out.extend((a, 0, c, d) for c in range(d))
                out.extend((a, b, 0, d) for b in range(1, a))
            elif m > 0:
                out.extend((a, b, m // b, d) for b in range(m // d + 1, a) if m % b == 0)
    return out


def hecke_matrix(space: ModularSymbolSpace, level: int, ell: int) -> list:
    """Matrix of T_ell on the basis of a Gamma0(level) space (columns act).

    By Merel's theorem the image of phi has, on the coset path of rep_i,
    the value

        sum over h in X_ell of  phi(coset path of rep_j) | rep_j adj(h) rep_i^-1,

    where j is the coset of the bottom row of rep_i h, and h is skipped
    when that row is not a point of P^1(Z/level).  Coordinates are the
    values at the free columns, so only the cosets holding one are
    evaluated.
    """
    symbol = space.symbol
    if level < 1 or symbol.index != gamma0_index(level) \
            or any(g[2] % level for g in symbol.glue):
        raise ValueError(f"the space is not over the symbol of Gamma0({level})")
    table = symbol.require_direct_table()
    k = space.k
    n = k - 1
    heil = heilbronn_merel(ell)
    terms = {}  # coset i -> [(coset j, action matrix of rep_j adj(h) rep_i^-1)]
    weights = defaultdict(list)  # coset-vector column -> [(coordinate, integer weight)]
    free_cols = space.free_cols
    for r, col in enumerate(free_cols):
        i, s = divmod(col, n)
        if i not in terms:
            rep = table.reps[i]
            terms[i] = []
            for h in heil:
                g = mmul(rep, h)
                if gcd(g[2], g[3], level) == 1:
                    j = table.class_index(g)
                    terms[i].append((j, action_matrix(k, mmul(table.reps[j], madj(h), minv(rep)))))
        for j, mat in terms[i]:
            for t, x in enumerate(mat[s]):
                if x:
                    weights[j * n + t].append((r, x))
    cols = []
    for support in space.supports:
        # integer numerators over one denominator, as in Vk.act
        den = lcm(*(x.denominator for _, x in support))
        acc = [0] * len(free_cols)
        for c, x in support:
            num = x.numerator * (den // x.denominator)
            for r, w in weights.get(c, ()):
                acc[r] += w * num
        cols.append([Fraction(v, den) for v in acc])
    return [list(row) for row in zip(*cols)]


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
    if n < 1:
        raise ValueError("level must be positive")
    if k < 2 or k % 2:
        raise ValueError("cuspidal extraction needs an even weight of at least 2")
    symbol = gamma0_symbol(n) if n > 1 else base_symbol_sl2z()
    space = build_space(symbol, k)
    rows = eisenstein_pairing_matrix(symbol, n, k, space)
    basis = []
    for coeffs in kernel_basis(rows, space.dimension()):
        # the coset vector sum_j c_j * (basis vector j), over its support
        vec = [Fraction(0)] * len(space.basis[0].vector)
        for c, support in zip(coeffs, space.supports):
            if c:
                for j, x in support:
                    vec[j] += c * x
        basis.append(SymbolElement(space, vec))
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
