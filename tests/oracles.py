"""Test-side reference implementations and cross-checks.

The package computes T_ell on Gamma0(N) by Merel's Heilbronn formula.
The helpers here compute the same operators from their definition, a
double coset Gamma alpha Gamma: the intersection Gamma cap alpha^-1
Gamma alpha is unfolded as a conjugated subgroup of the target symbol,
and the image of a path map is sampled on every coset path.  They are
the reference for the formula and for the adjointness tests.  A path
map becomes a space element by `from_path_evaluator`, and `coordinates`
reads it back in the basis.  `sparse` and `dense` turn a row or coset
vector into the package's {col: value} dict of nonzero entries and
back.  A space element holds integer numerators over one denominator;
`fraction_vector` reads it as a {col: Fraction} dict, and
`from_fraction_vector` makes one from such a dict.

The pairing has second forms here that no command uses: the endpoint
form `pair_alt`, the cusp-width shortcut `pair_eis_via_cusps` and the
stabilizer form `noncusp_pair` against boundary symbols, and the
conjugation by the reflection eps of path maps and cocycles.
`charpoly` reads Hecke eigenvalues off small exact matrices, and
`rank` counts the pivots of the package's elimination.
`manin_relation_rows` writes the Manin relations at every coset, the
reference for the one-per-orbit rows of `build_space`, and
`eval_path_by_cosets` walks a path with one `Vk` per coset moved by
`Vk.act` at each convergent, the reference for the integer path rows
that `SymbolElement.eval_path` reads.

`manin_path_infty` decomposes a path into `PathTerm`s, translates of
the two base symbols: MOD_SYM, the path from infinity to 0, and
INF_SHIFT m, the infinitesimal symbol at infinity from direction 0 to
direction m.  `eis_cocycle_walk` evaluates the Eisenstein cocycle on
those terms over Fractions, the reference for the integer walk of
`EisSymbol.cocycle_values`,
and `pairing_matrix_by_pairs` sums `Vk.pair` over the tilde arcs, the
reference for the integer Gram sums of `pairing_matrix`; it reads a
right argument on each tilde arc by `eval_tilde_arc`, the Fraction
values of the half arcs, where `pairing_matrix` folds their 1/2 and
1/3 weights into its term list and reads whole paths only.  `p2` is the
partial transform in the second variable as a sum of `CycVec`s of
Fractions, the reference for the integer brackets of `qexp.eis_qexp`;
`fourier1` is the one-variable transform and `fourier_partial1` the
partial transform in the first variable.  `bernoulli_poly` sums
C(h, j) B_j x^(h-j) over Fractions from `bernoulli_number`, the
reference for the integer values of `bernoulli_values` and the rows of
`beta_row`; `beta_moment` integrates a table, or its reflection
`minus`, against two Bernoulli distributions cell by cell, the
reference for the twist sums of `EisSymbol`.  `solve_in_span` finds
coordinates in a span by the package's elimination.
`hecke_fn` is the Hecke operator on torsion functions.
`intersection_group` intersects group predicates, and
`coset_decompose` factors a matrix through a symbol's coset system
into gluing letters.  `gamma0_key` is the closed-form coset key of
Gamma0(N), recomputed on every call: the reference for the tabled key
of `gamma0_group`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd
from typing import NamedTuple

from petersym.cyclo import CycVec
from petersym.eisenstein import EisSymbol, TorsionFunction, beta_value
from petersym.exact import _echelonize, bernoulli_number, integer_row
from petersym.farey import (
    CosetTable,
    ExtendedFareySymbol,
    FareyError,
    GroupSpec,
    _is_projective_identity,
    _sign_into,
    gamma0_group,
    subgroup_farey,
)
from petersym.modgroup import (
    EPS,
    ID,
    SIGMA,
    TAU,
    CuspT,
    Mat,
    act,
    cf_decompose,
    cusp_is_infinity,
    madj,
    matrix_to_cusp,
    mdet,
    minv,
    mmul,
    mneg,
)
from petersym.pairing import hom_cocycle
from petersym.polyspace import Vk, action_matrix
from petersym.spaces import BoundarySymbol, ModularSymbolSpace, SymbolElement

__all__ = [
    "sparse",
    "dense",
    "fraction_vector",
    "from_fraction_vector",
    "from_path_evaluator",
    "coordinates",
    "conjugated_group",
    "HeckeContext",
    "hecke_context",
    "hecke_cocycle",
    "hecke_path_map",
    "double_coset_hecke_matrix",
    "pair_alt",
    "pair_eis_via_cusps",
    "noncusp_pair",
    "epsilon_conjugate_hom",
    "epsilon_conjugate_cocycle",
    "charpoly",
    "rank",
    "solve_in_span",
    "manin_relation_rows",
    "eval_path_by_cosets",
    "MOD_SYM",
    "INF_SHIFT",
    "PathTerm",
    "manin_path_infty",
    "eis_cocycle_walk",
    "eval_tilde_arc",
    "pairing_matrix_by_pairs",
    "bernoulli_poly",
    "minus",
    "beta_moment",
    "fourier1",
    "fourier_partial1",
    "p2",
    "hecke_fn",
    "intersection_group",
    "coset_decompose",
    "gamma0_key",
]


def sparse(row) -> dict:
    """The nonzero entries of a dense row, as {col: value}."""
    return {j: x for j, x in enumerate(row) if x}


def dense(vec: dict, ncols: int) -> list[Fraction]:
    """A {col: value} row or vector written out with ncols Fractions."""
    return [Fraction(vec.get(j, 0)) for j in range(ncols)]


def fraction_vector(elem: SymbolElement) -> dict[int, Fraction]:
    """The coset vector of a space element as {col: Fraction} of its nonzero entries."""
    return {j: Fraction(x, elem.den) for j, x in elem.nums.items()}


def from_fraction_vector(space: ModularSymbolSpace, vector: dict) -> SymbolElement:
    """The space element of a {col: value} coset vector, keys ascending."""
    nums, den = integer_row(vector.values())
    return SymbolElement(space, dict(zip(vector, nums)), den)


def from_path_evaluator(space: ModularSymbolSpace, eval_path) -> SymbolElement:
    """Sample an abstract path map on all coset paths."""
    vector = []
    for rep in space.symbol.require_direct_table().reps:
        vector.extend(eval_path(act(rep, (0, 1)), act(rep, (1, 0))).coeffs)
    return from_fraction_vector(space, sparse(vector))


def coordinates(space: ModularSymbolSpace, elem: SymbolElement) -> list:
    """Coordinates of `elem` in the basis: its values at the free columns.

    Raises ValueError unless the basis combination equals `elem`.
    """
    residual = fraction_vector(elem)
    coords = [Fraction(residual.get(j, 0)) for j in space.free_cols]
    for c, b in zip(coords, space.basis):
        if c:
            for j, x in fraction_vector(b).items():
                residual[j] = residual.get(j, 0) - c * x
    if any(residual.values()):
        raise ValueError("element is not in the space")
    return coords


def conjugated_group(alpha: Mat, inner: GroupSpec, name: str | None = None) -> GroupSpec:
    """Matrices g with alpha g alpha^-1 integral and inside `inner`."""
    det = alpha[0] * alpha[3] - alpha[1] * alpha[2]
    if det <= 0:
        raise ValueError("conjugating matrix must have positive determinant")
    aadj = madj(alpha)

    def member(g):
        m = mmul(alpha, g, aadj)
        if any(x % det for x in m):
            return False
        return inner.member(tuple(x // det for x in m))

    return GroupSpec(member, None, name or f"conj({inner.name})")


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


def double_coset_hecke_matrix(space, level: int, ell: int, columns=None) -> list:
    """Matrix of T_ell on the space basis through the double coset (columns act).

    With `columns`, only the images of those basis elements are computed
    and the result has one column for each, in that order.
    """
    hctx = hecke_context(space.symbol, (1, 0, 0, ell), gamma0_group(level))
    basis = space.basis if columns is None else [space.basis[c] for c in columns]
    cols = [coordinates(space, from_path_evaluator(space, hecke_path_map(b, hctx).eval_path))
            for b in basis]
    return [list(row) for row in zip(*cols)]


# -- cross-checks of the pairing ---------------------------------------


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


# -- exact linear algebra ----------------------------------------------


def solve_in_span(basis, target):
    """Coordinates of `target` in the span of `basis` vectors, or None.

    `basis` is a list of equal-length dense lists of rationals; solves
    the overdetermined system exactly, by the package's elimination.
    """
    if not basis:
        return [] if not any(target) else None
    n = len(basis[0])
    m = len(basis)
    # augmented columns: basis vectors as columns, then the target
    rows = [{j: x for j, x in enumerate([*(b[r] for b in basis), target[r]]) if x}
            for r in range(n)]
    pivots = _echelonize(rows)
    if m in pivots:
        return None  # inconsistent
    coords = [Fraction(0)] * m
    for lead, prow in pivots.items():
        coords[lead] = Fraction(prow.get(m, 0), prow[lead])
    # verify (guards against rank-deficient basis input)
    for r in range(n):
        if sum(basis[i][r] * coords[i] for i in range(m)) != target[r]:
            return None
    return coords


def rank(rows) -> int:
    """Rank of a matrix of dense rows."""
    return len(_echelonize(map(sparse, rows)))


def charpoly(mat):
    """Monic characteristic polynomial, coefficients highest degree first.

    Faddeev-LeVerrier over Fractions; fine for the small matrices that
    arise from Hecke operators on cuspidal subspaces.
    """
    n = len(mat)
    a = [[Fraction(x) for x in row] for row in mat]
    coeffs = [Fraction(1)]
    m = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    for j in range(1, n + 1):
        if j > 1:
            for i in range(n):
                m[i][i] += coeffs[-1]
            m = [[sum(a[i][t] * m[t][s] for t in range(n)) for s in range(n)] for i in range(n)]
        else:
            m = [row[:] for row in a]
        tr = sum(m[i][i] for i in range(n))
        coeffs.append(-tr / j)
    return coeffs


def manin_relation_rows(symbol: ExtendedFareySymbol, k: int) -> list[dict]:
    """The two-term and three-term relations written at every coset.

    Each sigma-orbit's relation appears once per coset of the orbit, and
    each tau-orbit's once per rotation: 2 * index blocks of k - 1 rows,
    written dense and handed on as {col: value} dicts, with the row
    space `build_space` solves.
    """
    table = symbol.require_direct_table()
    n = k - 1
    ncols = len(table.reps) * n

    def transport(g: Mat):
        i, gamma = table.locate(g)
        return i, minv(gamma)

    rows = []
    for i, rep in enumerate(table.reps):
        for parts in (
            [(i, ID), transport(mmul(rep, SIGMA))],
            [(i, ID), transport(mmul(rep, TAU)), transport(mmul(rep, TAU, TAU))],
        ):
            block = [[0] * ncols for _ in range(n)]
            for idx, h in parts:
                for row, mrow in zip(block, action_matrix(k, h)):
                    for s, v in enumerate(mrow):
                        row[idx * n + s] += v
            rows.extend(map(sparse, block))
    return rows


def eval_path_by_cosets(phi: SymbolElement, r: CuspT, s: CuspT) -> Vk:
    """The value of phi on {r, s}, one coset value moved per convergent.

    With g sending infinity to r, the path is g{infinity, t} for
    t = g^-1 s; the convergent matrix tau of t gives the coset path of
    g tau = gamma rep_i, whose value is the coset value of i, a `Vk`
    read off the vector, acted on by gamma^-1.
    """
    space = phi.space
    k, n = space.k, space.k - 1
    table = space.symbol.require_direct_table()
    g = matrix_to_cusp(r)
    t = act(minv(g), s)
    out = Vk.zero(k)
    if cusp_is_infinity(t):
        return out
    taus, _ = cf_decompose(*t)
    vector = fraction_vector(phi)
    for tau in taus[1:]:
        i, gamma = table.locate(mmul(g, tau))
        value = Vk(k, [vector.get(i * n + j, Fraction(0)) for j in range(n)])
        out = out + value.act(minv(gamma))
    return out


# -- the Eisenstein cocycle as a Fraction walk -------------------------


MOD_SYM = "mod"      # the path {infinity, 0}
INF_SHIFT = "inf"    # the infinitesimal symbol [0, m] based at infinity


class PathTerm(NamedTuple):
    """One term coeff * gamma . (base symbol) of a path decomposition."""

    coeff: int
    gamma: Mat
    kind: str           # MOD_SYM or INF_SHIFT
    shift: Fraction = Fraction(0)


def manin_path_infty(r) -> list[PathTerm]:
    """Decompose the path from pi_inf(0) to pi_r(infinity), r rational.

    The result is a formal sum of translated base symbols whose
    evaluation under any SL2(Z)-equivariant homomorphism reproduces the
    path.  Terms with zero shift on the infinitesimal symbol are
    dropped.
    """
    r = Fraction(r)
    taus, quotients = cf_decompose(r.numerator, r.denominator)
    tail = Fraction(-taus[-1][3], abs(taus[-1][2]))  # a_(n+1) = -q_(n-1)/q_n
    n = len(quotients) - 1
    terms = []
    if quotients[0]:
        terms.append(PathTerm(1, ID, INF_SHIFT, quotients[0]))
    for j in range(0, n + 1):
        tau = taus[j + 1]
        m = tail if j == n else quotients[j + 1]
        m = m if (j + 1) % 2 == 0 else -m
        # [pi_0(inf), pi_inf(m)] = -{inf,0} + [0,m]_inf, transported by tau
        terms.append(PathTerm(-1, tau, MOD_SYM))
        if m:
            terms.append(PathTerm(1, tau, INF_SHIFT, m))
    return terms


def _inf_poly(k: int, scalar: Fraction, r: Fraction) -> Vk:
    """scalar/(k-1) times ((r x + y)^(k-1) - y^(k-1)) / x, a polynomial."""
    coeffs = [Fraction(0)] * (k - 1)
    if scalar and r:
        c = scalar / (k - 1)
        rp = Fraction(1)
        for i in range(1, k):
            rp *= r
            coeffs[i - 1] = c * comb(k - 1, i) * rp
    return Vk(k, coeffs)


def _eval_terms(eis: EisSymbol, terms) -> Vk:
    """Value on a formal sum of translated base symbols."""
    total = Vk.zero(eis.k)
    for term in terms:
        p_mod, c_inf = eis._twist_data(term.gamma)
        if term.kind == MOD_SYM:
            val = p_mod
        else:
            val = _inf_poly(eis.k, c_inf, term.shift)
        if term.gamma != ID:
            val = val.act(minv(term.gamma))
        if term.coeff == -1:
            val = -val
        total = total + val
    return total


def eis_cocycle_walk(eis: EisSymbol, g: Mat) -> Vk:
    """Value on the path from pi_inf(0) to g^-1 pi_inf(0).

    For g = (a b; c d) with c = 0 the path is the infinitesimal
    symbol [0, -b/a] at infinity.  Otherwise it is the path to
    pi_(-d/c)(infinity) minus the g^-1-translate of [0, a/c].
    """
    if mdet(g) != 1:
        raise ValueError("expected a matrix of determinant 1")
    a, b, c, d = g
    if c == 0:
        terms = [PathTerm(1, ID, INF_SHIFT, Fraction(-b, a))]
    else:
        terms = manin_path_infty(Fraction(-d, c))
        terms.append(PathTerm(-1, minv(g), INF_SHIFT, Fraction(a, c)))
    return _eval_terms(eis, terms)


def eval_tilde_arc(phi, symbol: ExtendedFareySymbol, tilde_arc) -> Vk:
    """Value of a path map on a (possibly half) arc of the tilde list.

    phi only needs an eval_path(r, s) method; elliptic halves take the
    exact 1/2 and 1/3 combinations through the triangle at the fixed
    point.
    """
    base = tilde_arc.base
    r, s = symbol.arcs[base]
    if tilde_arc.half == "whole":
        return phi.eval_path(r, s)
    if symbol.mu[base] == 2:
        return phi.eval_path(r, s).scale(Fraction(1, 2))
    t = act(symbol.glue[base], r)
    third = Fraction(1, 3)
    if tilde_arc.half == "u":
        return (phi.eval_path(r, t) + phi.eval_path(r, s)).scale(third)
    return (phi.eval_path(r, s) + phi.eval_path(t, s)).scale(third)


def pairing_matrix_by_pairs(symbol: ExtendedFareySymbol, lefts, rights) -> list:
    """The pairing matrix as plain sums of `Vk.pair` over the tilde arcs.

    A right is any path map, read on each tilde arc by `eval_tilde_arc`.
    """
    tilde = symbol.tilde()
    glues = [minv(ta.glue) for ta in tilde]
    rows = []
    for left in lefts:
        cocycle = left if callable(left) else hom_cocycle(left)
        rows.append([cocycle(g) for g in glues])
    return [[sum((value.pair(eval_tilde_arc(right, symbol, ta))
                  for value, ta in zip(row, tilde)), Fraction(0)) / 2
             for right in rights] for row in rows]


# -- Bernoulli values and moments, reflection, partial transforms ------


def bernoulli_poly(h: int, x) -> Fraction:
    """B_h(x) = sum_j C(h, j) B_j x^(h-j) at a rational point, over Fractions."""
    x = Fraction(x)
    return sum((comb(h, j) * bernoulli_number(j) * x ** (h - j) for j in range(h + 1)),
               Fraction(0))


def minus(f: TorsionFunction) -> TorsionFunction:
    """The reflection f-(x, y) = f(-x, -y)."""
    n = f.n
    return TorsionFunction._of(n, [[f(-x, -y) for y in range(n)] for x in range(n)])


def beta_moment(f: TorsionFunction, a: int, b: int, minus: bool = False) -> Fraction:
    """Integral of f (or of f-) against beta_a x beta_b on (Z/NZ)^2, cell by
    cell over the whole table in Fractions: the reference for the integer
    twist sums of `EisSymbol`."""
    n, s = f.n, -1 if minus else 1
    return sum((beta_value(a, x, n) * beta_value(b, y, n) * f(s * x, s * y)
                for x in range(n) for y in range(n)), Fraction(0))


def fourier1(values) -> list[CycVec]:
    """One-variable transform: ghat(m) = sum_a g(a) z^(-a m), exactly."""
    n = len(values)
    out = [CycVec(n) for _ in range(n)]
    for a, v in enumerate(values):
        if isinstance(v, CycVec):
            for m in range(n):
                out[m] = out[m] + v.rotate((-a * m) % n)
        elif v:
            for m in range(n):
                out[m].add_root_multiple((-a * m) % n, v)
    return out


def fourier_partial1(f: TorsionFunction) -> TorsionFunction:
    """Transform in the first variable: (x, m) -> sum_a f(a, m) z^(-a x)."""
    n = f.n
    cols = [fourier1([f(a, m) for a in range(n)]) for m in range(n)]
    return TorsionFunction._of(n, [[cols[m][x] for m in range(n)] for x in range(n)])


def p2(f: TorsionFunction, a: int, b: int) -> CycVec:
    """Partial transform in the second variable, an exact group-ring value:
    sum over y of f(a, y) z^(-y b)."""
    n = f.n
    out = CycVec(n)
    for y in range(n):
        v = f(a, y)
        if isinstance(v, CycVec):
            out = out + v.rotate((-y * b) % n)
        elif v:
            out.add_root_multiple((-y * b) % n, v)
    return out


# -- the Hecke operator on torsion functions ---------------------------


def hecke_fn(f: TorsionFunction, ell: int, k: int) -> TorsionFunction:
    """The weight-k Hecke operator at a prime on torsion functions."""
    n = f.n
    out = TorsionFunction.zero(n)
    lk1 = Fraction(ell) ** (k - 1)
    lk2 = Fraction(ell) ** (k - 2)
    divides = n % ell == 0
    for x in range(n):
        for y in range(n):
            acc = Fraction(0)
            for s in range(n):
                if (ell * s - y) % n == 0:
                    acc += f.values[x][s]
            acc += lk1 * f.values[(ell * x) % n][y]
            if divides:
                for t in range(n):
                    if (ell * t - ell * y) % n == 0:
                        acc -= lk2 * f.values[(ell * x) % n][t]
            out.values[x][y] = acc
    return out


# -- groups and words --------------------------------------------------


def gamma0_key(n: int, g: Mat):
    """The coset key of Gamma0(n) at g, from its closed form."""
    # Canonical form of the point (c : d) of P^1(Z/N) under scaling by
    # units: with h = gcd(c, N) and m = N/h, a unit u = (c/h)^-1 mod m
    # sends the point to (h : d'); what is left is scaling by the units
    # w = 1 mod m, which fix h, so the key costs O(h), not O(phi(N)).
    c, d = g[2] % n, g[3] % n
    h = gcd(c, n)
    m = n // h
    u = pow(c // h, -1, m)
    while gcd(u, n) != 1:
        u += m
    d = u * d % n
    return h, min(d * w % n for w in range(1, n + 1, m) if gcd(w, n) == 1)


def intersection_group(*specs: GroupSpec) -> GroupSpec:
    def member(g):
        return all(s.member(g) for s in specs)

    keys = [s.key for s in specs]
    key = None
    if all(keys):
        def key(g):  # noqa: F811 - deliberate rebinding
            return tuple(k(g) for k in keys)

    return GroupSpec(member, key, " & ".join(s.name for s in specs))


def _sl2_word(g: Mat) -> list[Mat]:
    """Factor g in SL2(Z) exactly into sigma/tau letters (with inverses)."""
    a, b, c, d = g
    tokens = []
    while c:
        q = a // c
        tokens.append(("T", q))
        tokens.append(("S",))
        a, b, c, d = c, d, -(a - q * c), -(b - q * d)
    tokens.append(("T", b * a))  # a = d = +/-1 here, so a*b is the shift of +g
    negate = a == -1

    word: list[Mat] = []
    tau_inv = minv(TAU)
    sigma_inv = minv(SIGMA)
    for tok in tokens:
        if tok[0] == "S":
            word.append(SIGMA)
        else:
            nn = tok[1]
            step = [tau_inv, SIGMA] if nn > 0 else [sigma_inv, TAU]
            for _ in range(abs(nn)):
                word.extend(step)
    if negate:
        word.extend([SIGMA, SIGMA])
    prod = ID
    for w in word:
        prod = mmul(prod, w)
    if prod != g:
        raise FareyError("internal word factorization failed")
    return word


def _glue_word(symbol: ExtendedFareySymbol | None, g: Mat) -> list[Mat]:
    """Exact factorization of g into gluing letters of the symbol's group."""
    if symbol is None or symbol.table is None:
        return _sl2_word(g)
    factors, xi = coset_decompose(symbol, g)
    if not _is_projective_identity(xi):
        raise FareyError("matrix is not in the symbol's group")
    if xi != ID:
        factors = factors + [xi]  # -Id is a valid letter, projectively trivial
    return factors


def coset_decompose(symbol: ExtendedFareySymbol, g: Mat) -> tuple[list[Mat], Mat]:
    """Factor g = f_1 ... f_n * xi through the symbol's coset system.

    Each f_i lies in the subgroup (projectively a gluing letter or the
    inverse of one); xi is the coset representative of g up to sign;
    the product reconstructs g exactly.  xi is projectively the
    identity iff g lies in the subgroup (up to sign).
    """
    table = symbol.table
    if table is None:
        raise FareyError("the base symbol has trivial coset structure")
    j = table.class_index(g)
    if j is not None and g in (table.reps[j], mneg(table.reps[j])):
        return [], g
    word = _glue_word(table.parent_symbol, g)
    factors = []
    delta = ID
    sign = 1
    for letter in word:
        nxt = mmul(delta, letter)
        j = table.class_index(nxt)
        if j is None:
            raise FareyError("input matrix leaves the discovered coset system")
        fac = mmul(nxt, madj(table.reps[j]))
        if fac == ID:
            pass
        elif fac == mneg(ID):
            sign = -sign
        else:
            norm = _sign_into(table.member, fac)
            if norm != fac:
                sign = -sign
            factors.append(norm)
        delta = table.reps[j]
    xi = delta if sign == 1 else mneg(delta)
    prod = ID
    for f in factors:
        prod = mmul(prod, f)
    if mmul(prod, xi) != g:
        raise FareyError("internal factorization failed to reconstruct the input")
    return factors, xi
