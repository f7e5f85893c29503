"""Modular-symbol spaces and boundary symbols over a coset system.

An element of the weight-k symbol space is stored as its coset vector,
the nonzero coefficients of one polynomial per coset of the group in
SL2(Z), the value on the coset translate of the path from 0 to
infinity, held only as `kernel_basis` returns it: integer numerators
{col: int} over one denominator.  The relations are rows {col: value}.
The two relations coming from the elliptic generators of SL2(Z),
transported through the coset action, cut out exactly the
group-equivariant homomorphisms.  Each is written once per orbit of
its generator on the cosets (two cosets or one for sigma, three or
one for tau): at the other cosets of the orbit it spans the same rows.
At weight 2 no row is written: the relations are those of the graph
whose vertices are the tau-orbits and whose edges are the
sigma-orbits, and the basis is one fundamental cycle per edge off a
spanning forest.
A path {r, s} is one continued-fraction walk from r, a sum of unimodular
steps that are one coset path each (a Farey arc is one step), walked once
per space into integer rows (`path_rows`); `SymbolElement.path_values`
alone applies them to an element's integer numerators, for `eval_path`
and both sides of the pairing.  A relation, a path and the Hecke
transport are each one `coset_rows`.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add

from .exact import kernel_basis
from .farey import CuspClass, ExtendedFareySymbol
from .modgroup import (
    ID,
    SIGMA,
    TAU,
    CuspT,
    act,
    cf_decompose,
    cusp_is_infinity,
    madj,
    matrix_to_cusp,
    minv,
    mmul,
    mneg,
)
from .polyspace import Vk, action_matrix

__all__ = [
    "ModularSymbolSpace",
    "SymbolElement",
    "BoundarySymbol",
    "build_space",
    "boundary_space",
    "coset_rows",
]


def coset_rows(k: int, parts) -> list[dict[int, int]]:
    """The k - 1 integer rows of the sum of m(i)|h over parts [(coset i, h)].

    Row r is {i (k-1) + s: sum of action_matrix(k, h)[r][s] over the
    parts at coset i}, without the entries that cancel (it may be {}).
    """
    n = k - 1
    blocks = {}  # coset -> sum of the action matrices at that coset
    for i, h in parts:
        mat = action_matrix(k, h)
        block = blocks.get(i)
        blocks[i] = mat if block is None else \
            [list(map(add, r1, r2)) for r1, r2 in zip(block, mat)]
    return [{i * n + s: x for i, block in blocks.items() for s, x in enumerate(block[r]) if x}
            for r in range(n)]


class SymbolElement:
    """One element of Hom_Gamma(Delta_0, V_k), given by its coset vector.

    The coset vector is `nums` / `den`, a pair as `kernel_basis` returns
    it: col i (k-1) + s is coefficient s of the value on the path of
    coset i.
    """

    def __init__(self, space: "ModularSymbolSpace", nums: dict[int, int], den: int):
        self.space = space
        self.nums = nums
        self.den = den

    def path_values(self, paths) -> tuple[list[int], int]:
        """(values, `den`): each path's `path_rows` applied to `nums`."""
        nums = self.nums
        return [sum(x * nums.get(c, 0) for c, x in row.items())
                for r, s in paths for row in self.space.path_rows(r, s)], self.den

    def eval_path(self, r: CuspT, s: CuspT) -> Vk:
        """Value on {r, s} = {s} - {r}, as a `Vk` of `path_values`."""
        values, den = self.path_values([(r, s)])
        return Vk(self.space.k, [Fraction(v, den) for v in values])


class ModularSymbolSpace:
    """A symbol space with a basis in echelon order.

    The basis elements hold the (nums, den) pairs `kernel_basis`
    returns (at weight 2 the spanning forest gives the same pairs):
    vector i is 1 at its free column, which is its last key, and 0 at
    the free columns of the others.  The rows of each path asked for
    are kept in a plain dict, read by every element.
    """

    def __init__(self, symbol: ExtendedFareySymbol, k: int, vectors):
        self.symbol = symbol
        self.k = k
        self.basis: list[SymbolElement] = [SymbolElement(self, *v) for v in vectors]
        self._paths: dict = {}

    @property
    def free_cols(self) -> list[int]:
        return [next(reversed(b.nums)) for b in self.basis]

    def dimension(self) -> int:
        return len(self.basis)

    def path_rows(self, r: CuspT, s: CuspT) -> list[dict[int, int]]:
        """The `coset_rows` of the path {r, s}, walked once per space.

        With g sending infinity to r, {r, s} = g{infinity, t} for
        t = g^-1 s: one coset path per convergent of t, and one in all
        when {r, s} is unimodular (t is then an integer).
        """
        rows = self._paths.get((r, s))
        if rows is None:
            g = matrix_to_cusp(r)
            t = act(minv(g), s)
            taus = [] if cusp_is_infinity(t) else cf_decompose(*t)[0][1:]
            locate = self.symbol.require_direct_table().locate
            rows = self._paths[(r, s)] = coset_rows(
                self.k, [(i, madj(gamma)) for i, gamma in (locate(mmul(g, tau)) for tau in taus)])
        return rows


def _cycle_basis(table) -> list[tuple[dict[int, int], int]]:
    """The weight-2 kernel read off a spanning forest of the coset graph.

    The graph is the table's `step`, sigma then tau on the cosets for a
    table built directly over SL2(Z), whose glue is [SIGMA, TAU].  At
    k = 2 every action matrix is 1, so the relations are
    x_i + x_sigma(i) = 0 and x_i + x_tau(i) + x_tau^2(i) = 0.  A
    tau-orbit of three cosets is a vertex; a sigma-orbit {i < j} is an
    edge from the vertex of i to that of j, its variable x_j = -x_i,
    and the tau relations say the edge variables are a circulation.  A
    sigma- or tau-fixed coset is 0, and so is its edge.  Scanned by
    ascending j, an edge that closes a cycle (a loop too) is free: the
    columns of a graph's incidence matrix are independent exactly on a
    forest, so its column j is a combination of earlier ones and every
    other column is a pivot.  The vector of a free edge is its
    fundamental cycle through tree edges scanned before it: 1 at j, its
    last key, and 0 at the other free columns, the ±1 entries over 1
    that `kernel_basis` returns for the free column j.
    """
    sigma, tau = table.step
    # vertex of a coset: the least coset of its tau-orbit, None if fixed
    vertex = [None] * len(tau)
    for i, t in enumerate(tau):
        if t != i and vertex[i] is None:
            vertex[i] = vertex[t] = vertex[tau[t]] = i
    root = {}  # union-find over vertices

    def find(v):
        while root.get(v, v) != v:
            root[v] = v = root.get(root[v], root[v])
        return v

    edges = {}  # tree edges by vertex: [(other vertex, i, j, sign)]
    free = []
    for j, i in enumerate(sigma):
        if i >= j or vertex[i] is None or vertex[j] is None:
            continue
        u, v = vertex[i], vertex[j]
        ru, rv = find(u), find(v)
        if ru == rv:
            free.append((i, j, u, v))
            continue
        root[ru] = rv
        # walking u -> v along the edge adds x_j = 1, x_i = -1
        edges.setdefault(u, []).append((v, i, j, 1))
        edges.setdefault(v, []).append((u, i, j, -1))
    # each tree rooted by a walk: parent edge and depth of every vertex
    up, depth = {}, {}
    for r in edges:
        if r in depth:
            continue
        depth[r] = 0
        stack = [r]
        while stack:
            a = stack.pop()
            for b, i, j, sign in edges[a]:
                if b not in depth:
                    depth[b] = depth[a] + 1
                    up[b] = (a, i, j, -sign)
                    stack.append(b)
    basis = []
    for i, j, u, v in free:
        # the free edge runs u -> v; the tree path v -> u closes the cycle
        vec = {i: -1, j: 1}
        a, b = v, u
        while a != b:
            # climb from the deeper end; a climb from b is walked
            # downwards, against the parent edge
            if depth[a] >= depth[b]:
                a, ti, tj, sign = up[a]
            else:
                b, ti, tj, sign = up[b]
                sign = -sign
            vec[ti], vec[tj] = (-1, 1) if sign > 0 else (1, -1)
        basis.append((dict(sorted(vec.items())), 1))
    return basis


def build_space(symbol: ExtendedFareySymbol, k: int) -> ModularSymbolSpace:
    """Solve the coset-transported two-term and three-term relations.

    At k = 2 the kernel is read off a spanning forest of the coset
    graph (`_cycle_basis`), with no elimination.  Above it the kernel
    is taken of (k - 1) * (number of sigma-orbits plus number of
    tau-orbits of cosets) rows of at most 3 (k - 1) entries, one block
    per relation: first every two-term sigma relation, then every
    three-term tau relation, each kind in coset order.  The sigma rows
    reduce to few nonzeros, so the tau rows meet a sparse echelon
    (Stein, Modular Forms: A Computational Approach, ch. 8); the kernel
    in echelon order does not depend on the row order, since the
    reduced row echelon form is unique.
    """
    if k < 2:
        raise ValueError("weight must be at least 2")
    table = symbol.require_direct_table()
    if k == 2:
        return ModularSymbolSpace(symbol, k, _cycle_basis(table))
    if k % 2 == 1 and symbol.member(mneg(ID)):
        return ModularSymbolSpace(symbol, k, [])

    # one relation per sigma-orbit and per tau-orbit of cosets, written
    # at the orbit's first coset: at another coset of the orbit it is
    # the same relation transported by a group element, so adding it
    # would not change the row space (`step` holds the cosets moved to)
    sigma, tau = table.step
    sigma_rows, tau_rows = [], []
    for i, rep in enumerate(table.reps):
        if sigma[i] >= i:
            sigma_rows += coset_rows(k, [(i, ID), table.transport(mmul(rep, SIGMA), sigma[i])])
        t = tau[i]
        if min(t, tau[t]) >= i:
            tau_rows += coset_rows(k, [(i, ID), table.transport(mmul(rep, TAU), t),
                                       table.transport(mmul(rep, TAU, TAU), tau[t])])
    ncols = len(table.reps) * (k - 1)
    return ModularSymbolSpace(symbol, k, kernel_basis(sigma_rows + tau_rows, ncols))


class BoundarySymbol:
    """Element of Hom_Gamma(Delta, V_k) supported on cusp classes.

    Stored as one rational coefficient per admissible cusp class; the
    value at a cusp in the class of the reference vertex P with chosen
    matrix g_P (sending infinity to P) is

        coeff * x^(k-2) | g_P^-1 gamma^-1      for the cusp gamma . P.

    `eval_path` is its restriction to Delta_0, the embedded boundary
    symbol the pairing takes: value_at(s) - value_at(r) on {r, s}.
    """

    def __init__(self, symbol: ExtendedFareySymbol, k: int, coeffs: dict):
        self.symbol = symbol
        self.k = k
        self.coeffs = dict(coeffs)  # CuspClass.vertex -> Fraction

    def value_at(self, s: CuspT) -> Vk:
        cls, gamma = self.symbol.cusp_transporter(s)
        c = self.coeffs.get(cls.vertex, Fraction(0))
        if not c:
            return Vk.zero(self.k)
        vinf = Vk.monomial(self.k, self.k - 2)
        return vinf.act(mmul(minv(cls.g0), minv(gamma))).scale(c)

    def eval_path(self, r: CuspT, s: CuspT) -> Vk:
        return self.value_at(s) - self.value_at(r)


def _class_admits_line(symbol: ExtendedFareySymbol, cls: CuspClass, k: int) -> bool:
    vinf = Vk.monomial(k, k - 2)
    # the honest in-group generator: cls.tau is sign-normalized to the
    # positive translation, which escapes the group at irregular cusps
    gen = cls.tau if cls.regular else mneg(cls.tau)
    stab = mmul(minv(cls.g0), gen, cls.g0)
    return vinf.act(stab) == vinf and not (k % 2 == 1 and symbol.member(mneg(ID)))


def boundary_space(symbol: ExtendedFareySymbol, k: int) -> list[BoundarySymbol]:
    """One basis boundary symbol per cusp class carrying an invariant line."""
    return [BoundarySymbol(symbol, k, {cls.vertex: Fraction(1)})
            for cls in symbol.cusp_classes() if _class_admits_line(symbol, cls, k)]
