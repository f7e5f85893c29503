"""Extended Farey symbols and the membership-driven subgroup algorithm.

A symbol is a circular list of oriented geodesic arcs between cusps
together with a side-pairing involution, elliptic markings mu in
{1, 2, 3} (1 = plain side) and gluing matrices.  The subgroup routine
unfolds a parent symbol across its arcs, discovering coset
representatives of the subgroup with a FIFO worklist; order-3 elliptic
arcs get queue priority, and leftover order-3 orbits of the induced
pairing are rectified into four plain arcs.  An order-3 triangle that
still lacks one coset when the worklists are empty gets it attached
across half of its arc, leaving one pair of plain sides.

Groups are treated projectively: a membership predicate on matrices is
symmetrized over +/-Id for all geometry, while stored gluing matrices
keep the sign that actually satisfies the raw predicate whenever one
does.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from itertools import accumulate
from math import gcd
from typing import NamedTuple

from .modgroup import (
    ID,
    SIGMA,
    T_MAT,
    TAU,
    CuspT,
    Mat,
    act,
    cusp_str,
    madj,
    matrix_to_cusp,
    minv,
    mmul,
    mneg,
    psl2_order,
)

__all__ = [
    "MAX_INDEX",
    "FareyError",
    "GroupSpec",
    "ExtendedFareySymbol",
    "CosetTable",
    "base_symbol_sl2z",
    "subgroup_farey",
    "gamma0_group",
    "gamma1_group",
    "gamma_full_group",
    "gamma0_symbol",
    "gamma1_symbol",
]


# Most cosets a subgroup unfolding may discover before it gives up.
MAX_INDEX = 100_000


class FareyError(Exception):
    """Raised on invalid symbols, bad predicates, or exceeded index bounds."""


def _symmetrize(member):
    return lambda g: member(g) or member(mneg(g))


def _sign_into(member, g: Mat) -> Mat:
    """Return +/-g satisfying the raw predicate, preferring +g."""
    if member(g):
        return g
    ng = mneg(g)
    if member(ng):
        return ng
    raise FareyError("matrix lies in neither sign class of the subgroup")


class GroupSpec(NamedTuple):
    """Membership predicate plus an optional perfect left-coset key.

    The key must satisfy key(g) == key(h) iff the projective cosets
    G(+/-)g and G(+/-)h agree; it turns coset detection into a dict
    lookup.  Without a key the engine falls back to a linear scan,
    which is fine for small indices.
    """

    member: callable
    key: callable | None = None
    name: str = "subgroup"


def gamma0_group(n: int) -> GroupSpec:
    if n < 1:
        raise ValueError("level must be positive")

    def member(g):
        return g[2] % n == 0

    # the table of the key, filled on first use: (h, u, the units w = 1
    # mod N/h, None if only 1) per residue c mod N, one units list per h
    entries: dict[int, tuple[int, int, list[int] | None]] = {}
    residual_units: dict[int, list[int] | None] = {}

    def entry(c):
        h = gcd(c, n)
        m = n // h
        u = pow(c // h, -1, m)
        while gcd(u, n) != 1:
            u += m
        if h not in residual_units:
            units = [w for w in range(1, n + 1, m) if gcd(w, n) == 1]
            residual_units[h] = None if units == [1] else units
        entries[c] = h, u, residual_units[h]
        return entries[c]

    def key(g):
        # Canonical form of the point (c : d) of P^1(Z/N) under scaling by
        # units (Cremona, Algorithms for Modular Elliptic Curves, 2.2):
        # with h = gcd(c, N) and m = N/h, a unit u = (c/h)^-1 mod m sends
        # the point to (h : d'); what is left is scaling by the units
        # w = 1 mod m, which fix h, so the key costs O(h), not O(phi(N)).
        # h, u and the w are read from the one entry of c.
        c = g[2] % n
        h, u, units = entries.get(c) or entry(c)
        d = u * g[3] % n
        return h, d if units is None else min([d * w % n for w in units])

    return GroupSpec(member, key, f"gamma0({n})")


def gamma1_group(n: int) -> GroupSpec:
    if n < 1:
        raise ValueError("level must be positive")

    one = 1 % n

    def member(g):
        return g[2] % n == 0 and g[0] % n == one and g[3] % n == one

    def key(g):
        pair = (g[2] % n, g[3] % n)
        return min(pair, ((-g[2]) % n, (-g[3]) % n))

    return GroupSpec(member, key, f"gamma1({n})")


def gamma_full_group(n: int) -> GroupSpec:
    if n < 1:
        raise ValueError("level must be positive")

    one = 1 % n

    def member(g):
        return (
            g[0] % n == one and g[3] % n == one and g[1] % n == 0 and g[2] % n == 0
        )

    def key(g):
        red = tuple(x % n for x in g)
        return min(red, tuple((-x) % n for x in g))

    return GroupSpec(member, key, f"gamma({n})")


class CosetTable:
    """Right-coset representatives of a subgroup inside its parent group.

    reps[0] is always the identity; each rep is a product of gluing
    matrices, so madj(rep) is its inverse.  The coset graph `step` has
    step[a][i] = the coset of reps[i] * parent glue[a] (over SL2(Z),
    sigma then tau).  key(g) is the spec's key, or g for find() to scan.
    locate() answers, for g in the parent group, which coset g lies in
    and with which subgroup element it differs from the representative.
    """

    def __init__(self, spec: GroupSpec, parent_symbol):
        self.spec = spec
        self.member = spec.member
        self.member2 = _symmetrize(spec.member)
        self.parent_symbol = parent_symbol  # None means parent is SL2(Z)
        self.reps: list[Mat] = [ID]
        self.step: list[list[int]] = [[None] for _ in parent_symbol.glue] \
            if parent_symbol else [[0], [0]]  # SL2(Z) in itself: one fixed coset
        self.key = spec.key or (lambda g: g)
        self._by_key = {spec.key(ID): 0} if spec.key else None

    def __len__(self):
        return len(self.reps)

    def find(self, key) -> int | None:
        """Index of the coset whose `key` is key, or None if undiscovered."""
        if self._by_key is not None:
            return self._by_key.get(key)
        for i, rep in enumerate(self.reps):
            if self.member2(mmul(key, madj(rep))):
                return i
        return None

    def class_index(self, g: Mat):
        """Index of the projective coset of g, or None if undiscovered."""
        return self.find(self.key(g))

    def add_rep(self, g: Mat, key) -> int:
        """Index of g, whose `key` is key, as a new coset with no moves yet."""
        if self.find(key) is not None:
            raise FareyError("attempted to add a duplicate coset representative")
        self.reps.append(g)
        if self._by_key is not None:
            self._by_key[key] = len(self.reps) - 1
        for row in self.step:
            row.append(None)
        return len(self.reps) - 1

    def factor(self, g: Mat, i: int) -> Mat:
        """gamma with g = +/-gamma * reps[i], g in coset i, signed into the subgroup."""
        return _sign_into(self.member, mmul(g, madj(self.reps[i])))

    def locate(self, g: Mat) -> tuple[int, Mat]:
        """(coset index, gamma) with g = gamma * rep up to the +/- ambiguity."""
        i = self.class_index(g)
        if i is None:
            raise FareyError("matrix is not in any discovered coset")
        return i, self.factor(g, i)


Endpoint = tuple  # ('c', cusp) or ('e', base arc index)


class TildeArc(NamedTuple):
    start: Endpoint
    end: Endpoint
    glue: Mat
    base: int          # index of the underlying symbol arc
    half: str          # 'whole', 'u' or 'v'
    star: int          # position of the paired tilde arc


class ExtendedFareySymbol:
    def __init__(self, arcs, star, mu, glue, index, member, table=None):
        self.arcs: list[tuple[CuspT, CuspT]] = list(arcs)
        self.star: list[int] = list(star)
        self.mu: list[int] = list(mu)
        self.glue: list[Mat] = list(glue)
        self.index: int = index          # absolute index in PSL2(Z)
        self.member = member             # raw matrix predicate of this group
        self.member2 = _symmetrize(member)
        self.table = table               # CosetTable inside the parent, None for SL2(Z)
        self._tilde = None
        self._cusp_classes = None
        self._trivial_table = None

    # -- structure ---------------------------------------------------

    def n_arcs(self) -> int:
        return len(self.arcs)

    def vertices(self) -> list[CuspT]:
        return [a[0] for a in self.arcs] + [self.arcs[-1][1]]

    def elliptic3(self) -> list[int]:
        return [i for i, m in enumerate(self.mu) if m == 3]

    def validate(self) -> None:
        n = self.n_arcs()
        if not (len(self.star) == len(self.mu) == len(self.glue) == n):
            raise FareyError("ragged symbol data")
        for i in range(n):
            if self.arcs[i][1] != self.arcs[(i + 1) % n][0]:
                raise FareyError(f"arcs {i} and {i + 1} are not contiguous")
            j = self.star[i]
            if self.star[j] != i:
                raise FareyError("side pairing is not an involution")
            if self.mu[j] != self.mu[i]:
                raise FareyError("side pairing does not preserve elliptic markings")
            g = self.glue[i]
            if not self.member2(g):
                raise FareyError("gluing matrix escapes the group")
            if self.mu[i] in (2, 3):
                if j != i:
                    raise FareyError("elliptic arc must be self-paired")
                if psl2_order(g) != self.mu[i]:
                    raise FareyError("elliptic gluing matrix has the wrong order")
                # gamma maps the far endpoint back to the near one
                if act(g, self.arcs[i][1]) != self.arcs[i][0]:
                    raise FareyError("elliptic gluing fails on endpoints")
            else:
                if j == i:
                    raise FareyError("self-paired arc must carry an elliptic marking")
                inv = minv(g)
                if self.glue[j] != inv and self.glue[j] != mneg(inv):
                    raise FareyError("paired gluing matrices are not inverse")
                ps, pe = self.arcs[j]
                if act(g, pe) != self.arcs[i][0] or act(g, ps) != self.arcs[i][1]:
                    raise FareyError("gluing fails on endpoints")
        self.cusp_classes()  # width extraction re-checks stabilizer shape

    # -- tilde arcs ---------------------------------------------------

    def tilde(self) -> list[TildeArc]:
        """Arc list with every elliptic arc split at its fixed point."""
        if self._tilde is not None:
            return self._tilde
        # an elliptic arc's two halves take two positions
        pos = list(accumulate((1 if m == 1 else 2 for m in self.mu), initial=0))
        out = []
        for i, (s, e) in enumerate(self.arcs):
            g = self.glue[i]
            if self.mu[i] == 1:
                out.append(TildeArc(("c", s), ("c", e), g, i, "whole", pos[self.star[i]]))
            else:
                out.append(TildeArc(("c", s), ("e", i), g, i, "u", pos[i] + 1))
                out.append(TildeArc(("e", i), ("c", e), minv(g), i, "v", pos[i]))
        for t, ta in enumerate(out):
            if out[ta.star].star != t:
                raise FareyError("tilde pairing is not a fixed-point-free involution")
            if ta.star == t:
                raise FareyError("tilde pairing has a fixed point")
        self._tilde = out
        return out

    # -- cusp orbits and widths ----------------------------------------

    def cusp_classes(self):
        """Vertex orbits of the polygon which are cusps, with widths.

        Walking origin -> glue^-1 . origin visits each cusp class once;
        the accumulated product is the stabilizer generator conjugate to
        [[1, w], [0, 1]] with w > 0 (anything else is a validation
        failure).  Elliptic fixed points give singleton orbits and are
        skipped.
        """
        if self._cusp_classes is not None:
            return self._cusp_classes
        tilde = self.tilde()
        m = len(tilde)
        seen = [False] * m
        classes = []
        minus_in_group = self.member2(mneg(ID))
        for start in range(m):
            if seen[start]:
                continue
            if tilde[start].start[0] == "e":
                seen[start] = True  # elliptic singleton orbit
                continue
            i = start
            tau = ID
            while True:
                seen[i] = True
                tau = mmul(minv(tilde[i].glue), tau)
                i = (tilde[i].star + 1) % m
                if i == start:
                    break
            vertex = tilde[start].start[1]
            g0 = matrix_to_cusp(vertex)
            stab = mmul(minv(g0), tau, g0)
            regular = True
            if stab[0] == -1:
                stab = mneg(stab)
                tau = mneg(tau)  # only valid in the group when -Id is
                regular = minus_in_group
            if stab[0] != 1 or stab[2] != 0 or stab[3] != 1 or stab[1] <= 0:
                raise FareyError(
                    f"cusp orbit at {cusp_str(vertex)} has stabilizer {stab}, "
                    "not a positive translation"
                )
            classes.append(CuspClass(vertex, g0, stab[1], tau, regular))
        if sum(c.width for c in classes) != self.index:
            raise FareyError("cusp widths do not sum to the group index")
        self._cusp_classes = classes
        return classes

    def invariants(self) -> dict:
        classes = self.cusp_classes()
        nu2 = sum(1 for m in self.mu if m == 2)
        nu3 = sum(1 for m in self.mu if m == 3)
        genus = Fraction(1) + Fraction(self.index, 12) - Fraction(nu2, 4) \
            - Fraction(nu3, 3) - Fraction(len(classes), 2)
        if genus.denominator != 1 or genus < 0:
            raise FareyError(f"inconsistent genus {genus}")
        return {
            "index": self.index,
            "n_cusps": len(classes),
            "nu2": nu2,
            "nu3": nu3,
            "genus": int(genus),
        }

    # -- cusp classification against this symbol's group --------------

    def require_direct_table(self) -> CosetTable:
        if self.table is None:
            # the base symbol: one coset, every matrix is a group element
            if self._trivial_table is None:
                self._trivial_table = CosetTable(
                    GroupSpec(lambda g: True, None, "sl2z"), None
                )
            return self._trivial_table
        parent = self.table.parent_symbol
        if parent is not None and parent.table is not None:
            raise FareyError("operation needs a symbol built directly over SL2(Z)")
        return self.table

    def cusp_class_of(self, c: CuspT) -> "CuspClass":
        """The CuspClass record whose orbit contains the cusp c."""
        return self.cusp_transporter(c)[0]

    def cusp_transporter(self, c: CuspT) -> tuple["CuspClass", Mat]:
        """(class, gamma) with gamma in the group and c = gamma . class vertex.

        One walk over h T^j, h sending infinity to c, finds both: the
        T-orbit of the coset of h is the set of cosets sending infinity
        into the class of c, so it holds the g0 coset of exactly one
        class, and gamma = h T^j g0^-1 at the first hit (j < index).
        """
        table = self.require_direct_table()
        by_coset = {table.class_index(cls.g0): cls for cls in self.cusp_classes()}
        h = matrix_to_cusp(c)
        for _ in range(self.index + 1):
            cls = by_coset.get(table.class_index(h))
            if cls is not None:
                gamma = mmul(h, minv(cls.g0))
                return cls, _sign_into(self.member, gamma)
            h = mmul(h, T_MAT)
        raise FareyError("translation walk failed to reach the class representative")

    # -- serialization -------------------------------------------------

    def to_json(self) -> dict:
        return {
            "vertices": [cusp_str(v) for v in self.vertices()],
            "star": list(self.star),
            "mu": list(self.mu),
            "glue": [list(g) for g in self.glue],
        }


class CuspClass(NamedTuple):
    vertex: CuspT
    g0: Mat              # sends infinity to the class vertex
    width: int
    tau: Mat             # stabilizer generator, conjugate of [[1, w], [0, 1]]
    regular: bool


def base_symbol_sl2z() -> ExtendedFareySymbol:
    """The two-arc symbol of SL2(Z) with gluing matrices sigma and tau."""
    inf, zero = (1, 0), (0, 1)
    return ExtendedFareySymbol(
        arcs=[(inf, zero), (zero, inf)],
        star=[0, 1],
        mu=[2, 3],
        glue=[SIGMA, TAU],
        index=1,
        member=lambda g: True,
        table=None,
    )


def subgroup_farey(
    parent: ExtendedFareySymbol,
    spec: GroupSpec,
    max_index: int = MAX_INDEX,
) -> tuple[ExtendedFareySymbol, CosetTable]:
    """Farey symbol and coset system of a finite-index subgroup.

    `spec.member` must cut out a subgroup of the parent symbol's group;
    the construction raises once more than `max_index` cosets appear,
    which signals infinite index or an inconsistent predicate.

    The layout, the arcs of the growing polygon in order, is a linked
    list of (coset, parent arc) labels: unfolding across an arc replaces
    its label by the arcs of the new cosets in time linear in their
    number, and the list is written out in order once at the end.
    Each step keys one matrix once, and the table keeps the coset graph
    `step` for the assembly; a new coset queues its parent arcs but the
    one it was attached across, whose move back is known.
    """
    table = CosetTable(spec, parent)
    reps, step, key, find = table.reps, table.step, table.key, table.find
    pg = parent.glue
    pstar = parent.star
    pmu = parent.mu
    n_parent = parent.n_arcs()
    ell3 = set(parent.elliptic3())

    work3 = deque((0, a) for a in range(n_parent) if a in ell3)
    work = deque((0, a) for a in range(n_parent) if a not in ell3)
    queue_of = [work3 if b in ell3 else work for b in range(n_parent)]
    # the layout is a linked list of arc labels: succ and pred hold the
    # neighbours of every label in it, with None before the first label
    # and after the last, so a splice costs the length of what it inserts
    first = [(0, a) for a in range(n_parent)]
    succ = dict(zip([None] + first, first + [None]))
    pred = {lab: p for p, lab in succ.items() if lab is not None}
    bent = {}  # label -> endpoints of the remaining side of a partial triangle

    def arcs_of(ci: int, attach: int):
        return [(ci, b % n_parent) for b in range(attach + 1, attach + n_parent)]

    def layout():
        out, lab = [], succ[None]
        while lab is not None:
            out.append(lab)
            lab = succ[lab]
        return out

    def splice(label, fresh, new_coset_indices, attach):
        before, after = pred.pop(label), succ.pop(label)
        for lab, nxt in zip([before] + fresh, fresh + [after]):
            succ[lab] = nxt
            pred[nxt] = lab
        # enqueue the new cosets' arcs in parent order, but the attach arc
        for ci in new_coset_indices:
            for b in range(n_parent):
                if b != attach:
                    queue_of[b].append((ci, b))

    def add_rep(g: Mat, kg) -> int:
        i = table.add_rep(g, kg)
        if len(table) > max_index:
            raise FareyError("coset bound exceeded; index too large or not a subgroup")
        return i

    while True:
        while work3 or work:
            ci, a = (work3 or work).popleft()
            g = mmul(reps[ci], pg[a])
            kg = key(g)
            j = step[a][ci] = find(kg)
            if j is not None:
                continue
            if a not in ell3:
                j = step[a][ci] = add_rep(g, kg)
                step[pstar[a]][j] = ci
                splice((ci, a), arcs_of(j, pstar[a]), [j], pstar[a])
                continue
            g2 = mmul(g, pg[a])
            kg2 = key(g2)
            if find(kg2) is not None:
                # partial triangle: leave the arc in place; a
                # partially present triangle mostly completes through
                # other arcs and is rectified as an order-3 pairing orbit
                continue
            i1 = add_rep(g, kg)
            i2 = add_rep(g2, kg2)
            step[a][ci], step[a][i1], step[a][i2] = i1, i2, ci
            splice((ci, a), arcs_of(i1, a) + arcs_of(i2, a), [i1, i2], a)
        # Only elliptic and partial triangles keep an order-3 arc in the
        # layout.  A partial one whose missing coset no other arc reached
        # gets that copy attached across one half of the arc; the other
        # half and the copy's far half leave a plain side, which pairs
        # with the known copy's arc.  Only a move not yet in `step` is keyed.
        for ci, a in [lab for lab in layout() if lab[1] in ell3]:
            xi = reps[ci]
            s, e = parent.arcs[a]
            g = mmul(xi, pg[a])
            g2 = mmul(g, pg[a])
            j = step[a][ci]
            if j is None:
                j = step[a][ci] = table.class_index(g)
            if j is None:
                i1 = step[a][ci] = add_rep(g, key(g))
                step[a][i1] = table.class_index(g2)
                bent[(ci, a)] = (act(g, s), act(xi, e))
                splice((ci, a), arcs_of(i1, a) + [(ci, a)], [i1], a)
            elif step[a][j] is None and table.class_index(g2) is None:
                i1 = step[a][j] = add_rep(g2, key(g2))
                step[a][i1] = ci
                bent[(ci, a)] = (act(xi, s), act(g, s))
                splice((ci, a), [(ci, a)] + arcs_of(i1, a), [i1], a)
        if not (work3 or work):
            break

    # assemble in three maps keyed by arc label: each arc's endpoints,
    # gluing matrix and partner under the induced pairing, read off `step`
    labels = layout()
    arc, glue, partner = {}, {}, {}
    for lab in labels:
        ci, a = lab
        xi = reps[ci]
        g = mmul(xi, pg[a])
        j = step[a][ci]
        other = (j, pstar[a])
        if other not in succ and a in ell3:
            # the known copy of a partial triangle pairs back with the bent side
            g = mmul(g, pg[a])
            j = step[a][j]
            other = (j, a)
        if other not in succ:
            raise FareyError("induced pairing leaves the polygon")
        s, e = parent.arcs[a]
        arc[lab] = bent.get(lab) or (act(xi, s), act(xi, e))
        glue[lab] = table.factor(g, j)
        partner[lab] = other

    # rectify each order-3 orbit A -> B -> C of the induced pairing into
    # four plain arcs: A gives way to the labels (A, 1) and (A, 2), which
    # pair with B and C; B and C are met later and pair back
    order = []
    for lab in labels:
        b = partner[lab]
        if b == lab or pmu[lab[1]] != 3 or partner[b] == lab:
            order.append(lab)
            continue
        c = partner[b]
        if partner[c] != lab:
            raise FareyError("induced pairing on order-3 arcs is not a 3-cycle")
        ga, gc = glue[lab], glue[c]
        if not _is_projective_identity(mmul(ga, glue[b], gc)):
            raise FareyError("order-3 orbit gluing product is not the identity")
        gci = minv(gc)
        (bs, be), (cs, ce) = arc[b], arc[c]
        arc[lab, 1], glue[lab, 1], partner[lab, 1] = (act(ga, be), act(ga, bs)), ga, b
        arc[lab, 2], glue[lab, 2], partner[lab, 2] = (act(gci, ce), act(gci, cs)), gci, c
        glue[b], partner[b], partner[c] = minv(ga), (lab, 1), (lab, 2)
        order += [(lab, 1), (lab, 2)]

    position = {lab: i for i, lab in enumerate(order)}
    arcs, star, mu, glues = [], [], [], []
    for lab in order:
        other = partner[lab]
        arcs.append(arc[lab])
        star.append(position[other])
        mu.append(pmu[lab[1]] if other == lab else 1)
        glues.append(_sign_into(spec.member, glue[lab]))

    sym = ExtendedFareySymbol(
        arcs, star, mu, glues,
        index=parent.index * len(table),
        member=spec.member,
        table=table,
    )
    sym.validate()
    return sym, table


def _is_projective_identity(g: Mat) -> bool:
    return g == ID or g == mneg(ID)


def gamma0_symbol(n: int) -> ExtendedFareySymbol:
    sym, _ = subgroup_farey(base_symbol_sl2z(), gamma0_group(n))
    return sym


def gamma1_symbol(n: int) -> ExtendedFareySymbol:
    sym, _ = subgroup_farey(base_symbol_sl2z(), gamma1_group(n))
    return sym
