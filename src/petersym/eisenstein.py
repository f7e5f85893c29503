"""Torsion functions on (Z/NZ)^2 and their rational period symbols.

The raw datum is a rational-valued function f on (Z/NZ)^2.  Its period
symbol is stored through two exact quantities: the value on the path
from infinity to 0 (a coefficient polynomial built from products of
Bernoulli-distribution moments) and the scalar driving values on
infinitesimal symbols at infinity.  Values on arbitrary cocycle paths
are assembled from these by the continued-fraction decomposition, with
all twists of f taken modulo the level and memoized.  Both halves are
integer data: a path is walked once per weight into its twisting
matrices, their signs and shift-polynomial numerators, which every
symbol shares (`_cocycle_walk`); the twist moments are integer sums
over one denominator per symbol; and a cocycle value adds integers and
makes one Fraction per coefficient.  The exact Fourier transforms
return the same table class with values in the group ring Q[Z/NZ], the
data of the q-expansions in `qexp`.

The moments of a twist f|g are never tabulated over (Z/NZ)^2: since
(f|g)-(x, y) = f(u, v) exactly when (x, y) = -(u, v) g mod N, all k of
them are summed in one pass over the nonzero cells of f, so their cost
follows the support of f (30 points for a basis orbit at N = 31, not
961) rather than N^2.  The Bernoulli rows they are summed against
depend only on (N, k) and are made once for all symbols.

The transcendental boundary part of the full period symbol (the
L'-coefficient multiples of x^(k-2) and y^(k-2)) is deliberately
dropped: it is a coboundary, lies in the radical of the pairing, and
removing it is what makes every stored value rational.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, lcm

from .cyclo import CycVec
from .exact import bernoulli_values, frac_str, integer_row
from .modgroup import ID, INF_SHIFT, MOD_SYM, Mat, PathTerm, madj, manin_path_infty, mdet, minv
from .polyspace import Vk, act_coords

__all__ = [
    "TorsionFunction",
    "beta_value",
    "beta_moment",
    "fourier1",
    "fourier_partial1",
    "fourier_partial2",
    "fourier2",
    "EisSymbol",
    "distribution_check",
]


class TorsionFunction:
    """Function on (Z/NZ)^2, values[x][y] = f(x, y).

    Values are rational, or in the group ring Q[Z/NZ] (`CycVec`) in the
    tables the Fourier transforms return; the arithmetic, twists and
    pullbacks serve both, `to_json` only rational tables.
    """

    def __init__(self, n: int, values):
        self.n = n
        self.values = [[Fraction(v) for v in row] for row in values]
        if len(self.values) != n or any(len(r) != n for r in self.values):
            raise ValueError("value table must be N x N")

    @classmethod
    def _of(cls, n: int, values: list) -> "TorsionFunction":
        """Wrap an N x N table already built, without converting it."""
        f = cls.__new__(cls)
        f.n = n
        f.values = values
        return f

    @classmethod
    def zero(cls, n: int) -> "TorsionFunction":
        return cls.constant(n, Fraction(0))

    @classmethod
    def constant(cls, n: int, c: Fraction = Fraction(1)) -> "TorsionFunction":
        # one shared Fraction, and a list of its own for every row
        return cls._of(n, [[c] * n for _ in range(n)])

    @classmethod
    def indicator(cls, n: int, point) -> "TorsionFunction":
        f = cls.zero(n)
        f.values[point[0] % n][point[1] % n] = Fraction(1)
        return f

    def __call__(self, x: int, y: int):
        return self.values[x % self.n][y % self.n]

    def __eq__(self, other):
        return isinstance(other, TorsionFunction) and self.n == other.n \
            and self.values == other.values

    def __add__(self, other):
        if self.n != other.n:
            raise ValueError("mixed levels")
        return TorsionFunction._of(self.n, [
            [a + b for a, b in zip(r1, r2)]
            for r1, r2 in zip(self.values, other.values)
        ])

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c) -> "TorsionFunction":
        """c times f for a rational c."""
        c = Fraction(c)
        return TorsionFunction._of(self.n, [[c * v for v in row] for row in self.values])

    def act(self, g: Mat) -> "TorsionFunction":
        """f|g (x, y) = f((x, y) g^-1); g integral of determinant +-1."""
        n = self.n
        d = mdet(g)
        if d not in (1, -1):
            raise ValueError("twisting matrix must have determinant +-1")
        inv = madj(g) if d == 1 else tuple(-x for x in madj(g))
        a, b, c, dd = inv
        return TorsionFunction._of(n, [
            [self.values[(x * a + y * c) % n][(x * b + y * dd) % n] for y in range(n)]
            for x in range(n)
        ])

    def minus(self) -> "TorsionFunction":
        n = self.n
        return TorsionFunction._of(n, [
            [self.values[(-x) % n][(-y) % n] for y in range(n)] for x in range(n)
        ])

    def pullback(self, m: int) -> "TorsionFunction":
        """The induced function at a multiple level m = N * P."""
        if m % self.n:
            raise ValueError("target level must be a multiple")
        return TorsionFunction._of(m, [
            [self.values[x % self.n][y % self.n] for y in range(m)] for x in range(m)
        ])

    def to_json(self):
        return {"N": self.n, "values": [[frac_str(v) for v in row] for row in self.values]}


def fourier1(values) -> list[CycVec]:
    """One-variable transform: ghat(n) = sum g(a) z^(-a n), exactly."""
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
    """Transform in the first variable: sum_a f(a, m) z^(-a n)."""
    n = f.n
    cols = [fourier1([f(a, m) for a in range(n)]) for m in range(n)]
    return TorsionFunction._of(n, [[cols[m][x] for m in range(n)] for x in range(n)])


def fourier_partial2(f: TorsionFunction) -> TorsionFunction:
    """Transform in the second variable: sum_b f(n, b) z^(-b m)."""
    n = f.n
    return TorsionFunction._of(n, [fourier1(f.values[x]) for x in range(n)])


def fourier2(f: TorsionFunction) -> TorsionFunction:
    """Two-variable Fourier transform with the determinant kernel.

    fhat(n, m) = (1/N) sum f(a, b) z^(a m - b n), z a primitive N-th
    root of unity, kept exactly as group-ring coefficient vectors.
    """
    n = f.n
    inv_n = Fraction(1, n)
    out = [[CycVec(n) for _ in range(n)] for _ in range(n)]
    for a in range(n):
        for b in range(n):
            v = f.values[a][b]
            rational = not isinstance(v, CycVec)
            if rational and not v:
                continue
            for nn in range(n):
                row = out[nn]
                base = (-b * nn) % n
                for m in range(n):
                    if rational:
                        row[m].add_root_multiple(base + a * m, inv_n * v)
                    else:
                        row[m] = row[m] + v.rotate(base + a * m).scale(inv_n)
    return TorsionFunction._of(n, out)


@lru_cache(maxsize=None)
def _beta_row(h: int, n: int) -> tuple:
    if h == 0:
        return (Fraction(1, n),) * n
    if h == 1:
        # -B_1(r/n), less 1/2 at r = 0
        return tuple(Fraction(1, 2) - Fraction(r, n) if r else Fraction(0) for r in range(n))
    scale = -Fraction(n) ** (h - 1) / h
    return tuple(scale * b for b in bernoulli_values(h, range(n), n))


def beta_value(h: int, r: int, n: int) -> Fraction:
    """The Bernoulli distribution of index h at the residue r mod n."""
    if h < 0:
        raise ValueError("index must be nonnegative")
    return _beta_row(h, n)[r % n]


def beta_moment(f: TorsionFunction, a: int, b: int, minus: bool = False) -> Fraction:
    """Integral of f (or of f-) against beta_a x beta_b on (Z/NZ)^2."""
    n = f.n
    rows_a = _beta_row(a, n)
    rows_b = _beta_row(b, n)
    g = f.minus() if minus else f
    acc = Fraction(0)
    for x in range(n):
        wa = rows_a[x]
        if not wa:
            continue
        row = g.values[x]
        acc += wa * sum(row[y] * rows_b[y] for y in range(n) if rows_b[y])
    return acc


@lru_cache(maxsize=None)
def _moment_rows(n: int, k: int):
    """The Bernoulli rows of the k twist moments at level n, as integers.

    Moment i < k-1 is (-1)^i C(k-2, i) times the integral against
    beta_(k-1-i) x beta_(i+1), and moment k-1 the integral against
    beta_k x beta_0.  Returns (cols_x, cols_y, den): cols_x[x][i] and
    cols_y[y][i] are integers whose product, over den, is the weight of
    the cell (x, y) in moment i; the sign, the binomial and the
    Bernoulli denominators are folded into cols_x.
    """
    pairs = [(k - 1 - i, i + 1) for i in range(k - 1)] + [(k, 0)]
    factors = [(-1) ** i * comb(k - 2, i) for i in range(k - 1)] + [1]
    rows = [(integer_row(_beta_row(hx, n)), integer_row(_beta_row(hy, n)))
            for hx, hy in pairs]
    den = lcm(*(dx * dy for (_, dx), (_, dy) in rows))
    rows_x = [[c * (den // (dx * dy)) * x for x in nums_x]
              for c, ((nums_x, dx), (_, dy)) in zip(factors, rows)]
    rows_y = [nums_y for _, (nums_y, _) in rows]
    return list(zip(*rows_x)), list(zip(*rows_y)), den


def _shift_numerators(k: int, r: Fraction, den: int) -> list[int]:
    """Numerators over den^(k-1) of ((r x + y)^(k-1) - y^(k-1)) / x.

    den is a multiple of the denominator of r; entry i-1 is the
    coefficient of x^(i-1) y^(k-1-i), C(k-1, i) r^i.
    """
    p = r.numerator * (den // r.denominator)
    return [comb(k - 1, i) * p ** i * den ** (k - 1 - i) for i in range(1, k)]


@lru_cache(maxsize=1024)
def _cocycle_walk(k: int, g: Mat):
    """The path of `EisSymbol.cocycle(g)` as integer data every symbol shares.

    For g = (a b; c d) with c = 0 the path is the infinitesimal symbol
    [0, -b/a] at infinity.  Otherwise it is the path to
    pi_(-d/c)(infinity), decomposed by `manin_path_infty`, minus the
    g^-1-translate of [0, a/c].  A term coeff * gamma . (base symbol)
    has the value coeff * (value of f|gamma on the base symbol) |
    gamma^-1.  On the infinity-to-0 path that value is p_mod of f|gamma;
    on [0, r] at infinity it is c_inf of f|gamma times
    ((r x + y)^(k-1) - y^(k-1)) / ((k-1) x).

    Returns (den, steps), one step (gamma, coeff, shift) for each
    twisting matrix gamma of the path: coeff is the coefficient of its
    infinity-to-0 term (0 if it has none), and shift the numerators,
    over den, of its infinitesimal terms' polynomials without the
    factor c_inf / (k-1), already moved by gamma^-1.  The walk keeps no
    action matrix; those stay in the bounded memo of `action_matrix`.
    """
    a, b, c, d = g
    if c == 0:
        terms = [PathTerm(1, ID, INF_SHIFT, Fraction(-b, a))]
    else:
        terms = manin_path_infty(Fraction(-d, c))
        terms.append(PathTerm(-1, minv(g), INF_SHIFT, Fraction(a, c)))
    den = lcm(*(t.shift.denominator for t in terms if t.kind == INF_SHIFT))
    steps = {}
    for t in terms:
        step = steps.setdefault(t.gamma, [0, [0] * (k - 1)])
        if t.kind == MOD_SYM:
            step[0] += t.coeff
        else:
            nums = _shift_numerators(k, t.shift, den)
            if t.gamma != ID:
                nums = act_coords(k, minv(t.gamma), nums)
            step[1] = [s + t.coeff * x for s, x in zip(step[1], nums)]
    return den ** (k - 1), [(gamma, coeff, tuple(shift))
                            for gamma, (coeff, shift) in steps.items()]


class EisSymbol:
    """Rational period symbol of the weight-k series attached to f.

    Exposes the value on the infinity-to-0 path (`p_mod`), values on
    infinitesimal shifts at infinity (`eval_inf`), and the full cocycle
    gamma -> value on the path from the based cusp at infinity to its
    gamma^-1-translate (`cocycle`).

    The symbol's one memo is the table of twist data, keyed by the
    twisting matrix modulo the level: the integer moment sums of f|g
    over one denominator of the symbol, a plain dict whose entries are
    deterministic functions of their keys, so concurrent readers can at
    worst duplicate a computation, never disagree.  The paths of the
    cocycle come from `_cocycle_walk`, a bounded memo keyed by (k, g)
    that holds no data of f, so every symbol of one weight, such as the
    basis orbits of one level, walks each matrix once.
    """

    def __init__(self, f: TorsionFunction, k: int):
        if k < 2:
            raise ValueError("weight must be at least 2")
        if k == 2 and f(0, 0) != 0:
            raise ValueError("weight 2 requires the value at (0, 0) to vanish")
        self.f = f
        self.k = k
        # nonzero cells of f as integer numerators over support_den
        cells = [(u, v, c) for u, row in enumerate(f.values) for v, c in enumerate(row) if c]
        nums, support_den = integer_row([c for _, _, c in cells])
        self._support = [(u, v, x) for (u, v, _), x in zip(cells, nums)]
        self._cols_x, self._cols_y, den = _moment_rows(f.n, k)
        self._den = den * support_den
        self._twists: dict = {}

    def _sums(self, g: Mat) -> tuple:
        """(p_mod, c_inf) of f|g as integer numerators over self._den.

        A cell (u, v) of the support of f lands at (x, y) = -(u, v) g
        mod N in (f|g)-, so one pass over the support adds its value
        times the integer weights of (x, y) in all k moments.
        """
        n = self.f.n
        key = (g[0] % n, g[1] % n, g[2] % n, g[3] % n)
        hit = self._twists.get(key)
        if hit is not None:
            return hit
        a, b, c, d = key
        cols_x, cols_y = self._cols_x, self._cols_y
        sums = [0] * self.k
        for u, v, val in self._support:
            sums = [s + val * p * q for s, p, q in
                    zip(sums, cols_x[(-u * a - v * c) % n], cols_y[(-u * b - v * d) % n])]
        data = self._twists[key] = (tuple(sums[:-1]), sums[-1])
        return data

    def _twist_data(self, g: Mat):
        """(p_mod, c_inf) of f|g, keyed by g modulo the level.

        Entry j of p_mod is (-1)^j C(k-2, j) times the moment of (f|g)-
        against beta_(k-1-j) x beta_(j+1), and c_inf is its moment
        against beta_k x beta_0.
        """
        if mdet(g) not in (1, -1):
            raise ValueError("twisting matrix must have determinant +-1")
        p, c = self._sums(g)
        return Vk(self.k, [Fraction(x, self._den) for x in p]), Fraction(c, self._den)

    @property
    def p_mod(self) -> Vk:
        return self._twist_data((1, 0, 0, 1))[0]

    @property
    def c_inf(self) -> Fraction:
        return self._twist_data((1, 0, 0, 1))[1]

    def twist(self, g: Mat) -> "EisSymbol":
        return EisSymbol(self.f.act(g), self.k)

    def eval_inf(self, r) -> Vk:
        """Value on the infinitesimal symbol at infinity from 0 to r."""
        r = Fraction(r)
        k = self.k
        c = self._sums(ID)[1]
        den = (k - 1) * r.denominator ** (k - 1) * self._den
        return Vk(k, [Fraction(c * x, den) for x in _shift_numerators(k, r, r.denominator)])

    def cocycle(self, g: Mat) -> Vk:
        """Value on the path from pi_inf(0) to g^-1 pi_inf(0).

        The terms of the path (see `_cocycle_walk`) are summed as integer
        numerators: the infinity-to-0 terms over the symbol's
        denominator, the infinitesimal ones over that times (k-1) and
        the walk's denominator; one Fraction per coefficient is made at
        the end.
        """
        if mdet(g) != 1:
            raise ValueError("expected a matrix of determinant 1")
        k = self.k
        walk_den, steps = _cocycle_walk(k, g)
        mods = [0] * (k - 1)
        infs = [0] * (k - 1)
        for gamma, coeff, shift in steps:
            p, c = self._sums(gamma)
            if coeff:
                if gamma != ID:
                    p = act_coords(k, minv(gamma), p)
                mods = [s + coeff * x for s, x in zip(mods, p)]
            if c:
                infs = [s + c * x for s, x in zip(infs, shift)]
        scale = (k - 1) * walk_den
        den = scale * self._den
        return Vk(k, [Fraction(scale * m + i, den) for m, i in zip(mods, infs)])

    def is_zero_symbol(self, probes=()) -> bool:
        """True when the stored data and all probe cocycles vanish."""
        if self.p_mod or self.c_inf:
            return False
        return all(not self.cocycle(g) for g in probes)


def distribution_check(n: int, m: int, point, k: int, probes=()) -> bool:
    """Verify the multiplication-by-m relation at the symbol level.

    For a point of m(Z/NZ)^2, m^(k-2) times the sum of the symbols of
    the indicators of its m-division points must equal the symbol of
    the indicator of the point; by linearity this is the vanishing of
    one combined symbol.
    """
    if n % m:
        raise ValueError("m must divide the level")
    a1, a2 = point[0] % n, point[1] % n
    combined = TorsionFunction.indicator(n, point).scale(-1)
    scale = Fraction(m) ** (k - 2)
    found = False
    for b1 in range(n):
        for b2 in range(n):
            if (m * b1 - a1) % n == 0 and (m * b2 - a2) % n == 0:
                combined = combined + TorsionFunction.indicator(n, (b1, b2)).scale(scale)
                found = True
    if not found:
        raise ValueError("point is not divisible by m at this level")
    return EisSymbol(combined, k).is_zero_symbol(probes)
