"""The algebraic intersection pairing, Hecke operators, cuspidal subspace.

A left argument of the pairing is a symbol-space element, an
Eisenstein period symbol, or a cocycle, a callable sending group
matrices to coefficient polynomials (such as `hom_cocycle` of a path
map); a right argument is a symbol-space element.  The one sum over the
tilde arcs of a Farey symbol

    1/2 sum_a < cocycle(glue_a^-1), value of the right argument on a >

reads the right on whole paths only: a half arc's value is 1/2 or 1/3
of values on whole unimodular paths, and those weights join the terms
of the sum.  `pairing_matrix` evaluates it for lists of left and right
arguments at once, and `pair` is its 1x1 case.  The form < , > is read
from its integer Gram weights (`polyspace.gram`); a space element on
either side is read by `SymbolElement.path_values`, and an Eisenstein
symbol by `EisSymbol.cocycle_values`, as integer numerators over one
denominator, as is a cocycle's row of values: an entry is one integer sum.

Hecke operators on Gamma0(N) act on the coset values directly, through
Merel's set of Heilbronn matrices of determinant ell; no second Farey
symbol is unfolded, and space elements are read in integers here too.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from itertools import groupby
from math import comb, factorial, gcd, lcm
from operator import mul

from .dims import gamma0_index
from .eisenstein import EisSymbol
from .exact import bernoulli_number, integer_row, kernel_basis
from .farey import ExtendedFareySymbol, gamma0_symbol
from .modgroup import T_MAT, CuspT, Mat, act, madj, minv, mmul
from .orbits import basis_v, orbit_points
from .polyspace import Vk, gram
from .spaces import ModularSymbolSpace, SymbolElement, build_space, coset_rows

__all__ = [
    "hom_cocycle",
    "pairing_matrix",
    "pair",
    "heilbronn_merel",
    "hecke_matrix",
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


def _arc_terms(symbol: ExtendedFareySymbol, ta) -> list:
    """A tilde arc's value as [(weight in sixths, whole path)].

    An elliptic half goes through the triangle at its fixed point, with
    third vertex t = glue r (Manin's trick, Stein, ch. 8).
    """
    r, s = symbol.arcs[ta.base]
    if ta.half == "whole":
        return [(6, (r, s))]
    if symbol.mu[ta.base] == 2:
        return [(3, (r, s))]
    t = act(symbol.glue[ta.base], r)
    return [(2, (r, t)), (2, (r, s))] if ta.half == "u" else [(2, (r, s)), (2, (t, s))]


def pairing_matrix(symbol: ExtendedFareySymbol, lefts, rights) -> list:
    """Matrix of the pairing of each left against each right argument.

    A left is a `SymbolElement`, read as its based cocycle at infinity
    (the value does not depend on the base point), an `EisSymbol` or a
    cocycle, a callable on group matrices; a right is a `SymbolElement`,
    whose space may sit on another symbol of the group.  Entry (i, j) is

        1/2 sum_a < left_i(glue_a^-1), value of right_j on tilde arc a >,

    that is 1/12 of a sum over the (arc, weight, whole path) terms
    of `_arc_terms`.  A space element is read by `path_values`: a left
    on the based paths {infinity, glue_a infinity}, a right on the
    whole paths; an `EisSymbol` by `cocycle_values`, and a cocycle
    once, on every inverse glue.  A left's nonzero values, reversed and
    weighted by `gram` and by the terms, are summed per path as integer
    numerators over one denominator, so an entry is one integer dot
    product over the right's nonzero path values, and one Fraction.
    With no rights the result has no rows.
    """
    tilde = symbol.tilde()
    based = [((1, 0), act(ta.glue, (1, 0))) for ta in tilde]
    glues = [minv(ta.glue) for ta in tilde]
    rows = []  # per left: ({arc: integer numerators of its value}, denominator, k - 1)
    for left in lefts:
        nums, den = left.path_values(based) if isinstance(left, SymbolElement) \
            else left.cocycle_values(glues) if isinstance(left, EisSymbol) \
            else integer_row([c for g in glues for c in left(g).coeffs])
        width = len(nums) // len(tilde)
        chunks = (nums[i:i + width] for i in range(0, len(nums), width))
        rows.append(({a: chunk for a, chunk in enumerate(chunks) if any(chunk)}, den, width))
    paths = {}  # whole path -> its position
    terms = [(a, w, paths.setdefault(path, len(paths)))
             for a in sorted({a for at, _, _ in rows for a in at})
             for w, path in _arc_terms(symbol, tilde[a])]
    int_rows = []
    for at, den, width in rows:
        weights, gram_den = gram(width + 1)
        flat = [0] * (len(paths) * width)
        for a, w, p in terms:
            if a in at:
                for i, x in enumerate(map(mul, weights[::-1], reversed(at[a])), p * width):
                    flat[i] += w * x
        int_rows.append((flat, 12 * gram_den * den))
    cols = []
    for right in rights:
        values, den = right.path_values(paths)
        if any(len(flat) != len(values) for flat, _ in int_rows):
            raise ValueError("weight mismatch between a left and a right argument")
        nonzero = [(i, v) for i, v in enumerate(values) if v]
        cols.append([Fraction(sum(flat[i] * v for i, v in nonzero), row_den * den)
                     for flat, row_den in int_rows])
    return [list(row) for row in zip(*cols)]


def pair(symbol: ExtendedFareySymbol, left, right) -> Fraction:
    """Pairing of a space element or cocycle against a space element."""
    return pairing_matrix(symbol, [left], [right])[0][0]


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
    weights = defaultdict(list)  # coset-vector column -> [(coordinate, integer weight)]
    # free columns in one coset are consecutive: one coset_rows per coset
    for i, cols in groupby(enumerate(space.free_cols), key=lambda rc: rc[1] // n):
        rep = table.reps[i]
        parts = []
        for h in heil:
            g = mmul(rep, h)
            if gcd(g[2], g[3], level) == 1:
                j = table.class_index(g)
                parts.append((j, mmul(table.reps[j], madj(h), minv(rep))))
        rows = coset_rows(k, parts)
        for r, col in cols:
            for c, x in rows[col % n].items():
                weights[c].append((r, x))
    cols = []
    for b in space.basis:
        acc = [0] * space.dimension()
        for c, num in b.nums.items():
            for r, w in weights.get(c, ()):
                acc[r] += w * num
        cols.append([Fraction(v, b.den) for v in acc])
    return [list(row) for row in zip(*cols)]


# -- cuspidal subspace -------------------------------------------------


def eisenstein_pairing_matrix(symbol: ExtendedFareySymbol, n: int, k: int,
                              space: ModularSymbolSpace):
    """Rows: basis orbits, each a symbol of its points; columns: the space basis."""
    lefts = EisSymbol.of_orbits(n, k, [orbit_points(t, n) for t in basis_v(n, k)])
    return pairing_matrix(symbol, lefts, space.basis)


def cuspidal_subspace(n: int, k: int) -> tuple[ModularSymbolSpace, list[SymbolElement]]:
    """Exact kernel of the pairing against all basis Eisenstein symbols."""
    if n < 1:
        raise ValueError("level must be positive")
    if k < 2 or k % 2:
        raise ValueError("cuspidal extraction needs an even weight of at least 2")
    symbol = gamma0_symbol(n)
    space = build_space(symbol, k)
    rows = eisenstein_pairing_matrix(symbol, n, k, space)
    basis = []
    for cnums, cden in kernel_basis([{j: x for j, x in enumerate(row) if x} for row in rows],
                                    space.dimension()):
        # sum_j (cnums_j / cden) * (basis vector j), without its zeros, in
        # integer numerators over one denominator reduced by their gcd
        den = lcm(*(space.basis[j].den for j in cnums))
        vec = defaultdict(int)
        for j, c in cnums.items():
            b = space.basis[j]
            c *= den // b.den
            for col, x in b.nums.items():
                vec[col] += c * x
        g = gcd(den * cden, *vec.values())
        basis.append(SymbolElement(space, {col: vec[col] // g for col in sorted(vec) if vec[col]},
                                   den * cden // g))
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
