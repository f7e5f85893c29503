"""Torsion functions on (Z/NZ)^2 and their rational period symbols.

The raw datum is a rational-valued function f on (Z/NZ)^2.  Its period
symbol is stored through two exact quantities: the value on the path
from infinity to 0 (a coefficient polynomial built from products of
Bernoulli-distribution moments) and the scalar driving values on
infinitesimal symbols at infinity.  Values on arbitrary cocycle paths
are assembled from these by the continued-fraction decomposition, with
all twists of f memoized.  Everything is integer data: a path is
walked once, by integer divmod, into its twisting matrices, their
signs and shift-polynomial numerators, which the orbit symbols of one
level share (`_cocycle_walk`); the Bernoulli rows are integer
numerators; the twist moments are integer sums over one denominator
per symbol; and the cocycle on a list of matrices is integer
numerators over one denominator, which the pairing reads.  The exact
Fourier transforms return the same table class with values in the
group ring Q[Z/NZ], the data of the q-expansions in `qexp`.

The moments of a twist f|g are never tabulated over (Z/NZ)^2: since
(f|g)-(x, y) = f(u, v) exactly when (x, y) = -(u, v) g mod N, all k of
them are summed in one pass over the support of f, so their cost
follows the support (30 points for a basis orbit at N = 31, not 961)
rather than N^2.  The support of an orbit indicator is its list of
points, with no table, and its twists are keyed by the Gamma0(N) coset
of g (see `EisSymbol`).

The transcendental boundary part of the full period symbol (the
L'-coefficient multiples of x^(k-2) and y^(k-2)) is deliberately
dropped: it is a coboundary, lies in the radical of the pairing, and
removing it is what makes every stored value rational.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm

from .cyclo import CycVec
from .exact import bernoulli_values, frac_str, integer_row
from .farey import gamma0_group
from .modgroup import ID, Mat, cf_decompose, madj, mdet
from .polyspace import Vk, act_coords

__all__ = [
    "TorsionFunction",
    "beta_row",
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
def beta_row(h: int, n: int) -> tuple[tuple[int, ...], int]:
    """The Bernoulli distribution of index h at every residue r mod n, as
    integer numerators over their least common denominator: 1/n at
    h = 0, -B_1(r/n) less 1/2 at r = 0 at h = 1, -n^(h-1) B_h(r/n) / h beyond.
    """
    if h < 0:
        raise ValueError("index must be nonnegative")
    if h == 0:
        nums, den = [1] * n, n
    elif h == 1:
        nums, den = [n - 2 * r if r else 0 for r in range(n)], 2 * n
    else:
        nums, den = bernoulli_values(h, range(n), n)
        nums, den = [-x for x in nums], den * h // n ** (h - 1)
    g = gcd(den, *nums)
    return tuple(x // g for x in nums), den // g


def beta_value(h: int, r: int, n: int) -> Fraction:
    """The Bernoulli distribution of index h at the residue r mod n."""
    nums, den = beta_row(h, n)
    return Fraction(nums[r % n], den)


def beta_moment(f: TorsionFunction, a: int, b: int, minus: bool = False) -> Fraction:
    """Integral of f (or of f-) against beta_a x beta_b on (Z/NZ)^2."""
    n = f.n
    rows_a, den_a = beta_row(a, n)
    rows_b, den_b = beta_row(b, n)
    g = f.minus() if minus else f
    acc = 0
    for x in range(n):
        wa = rows_a[x]
        if not wa:
            continue
        row = g.values[x]
        acc += wa * sum(row[y] * rows_b[y] for y in range(n) if rows_b[y])
    return Fraction(acc, den_a * den_b)


@lru_cache(maxsize=None)
def _moment_rows(n: int, k: int):
    """The Bernoulli rows of the k twist moments at level n, as integers.

    Moment i < k-1 is (-1)^i C(k-2, i) times the integral against
    beta_(k-1-i) x beta_(i+1), and moment k-1 the integral against
    beta_k x beta_0.  Returns (rows_x, rows_y, den): rows_x[i][x] and
    rows_y[i][y] are integers whose product, over den, is the weight of
    the cell (x, y) in moment i; the sign, the binomial and the
    Bernoulli denominators are folded into rows_x.
    """
    pairs = [(k - 1 - i, i + 1) for i in range(k - 1)] + [(k, 0)]
    factors = [(-1) ** i * comb(k - 2, i) for i in range(k - 1)] + [1]
    rows = [(beta_row(hx, n), beta_row(hy, n)) for hx, hy in pairs]
    den = lcm(*(dx * dy for (_, dx), (_, dy) in rows))
    rows_x = [[c * (den // (dx * dy)) * x for x in nums_x]
              for c, ((nums_x, dx), (_, dy)) in zip(factors, rows)]
    rows_y = [nums_y for _, (nums_y, _) in rows]
    return rows_x, rows_y, den


def _shift_numerators(k: int, p: int, den: int) -> list[int]:
    """Numerators over den^(k-1) of ((r x + y)^(k-1) - y^(k-1)) / x, r = p/den.

    Entry i-1 is the coefficient of x^(i-1) y^(k-1-i), C(k-1, i) r^i.
    """
    return [comb(k - 1, i) * p ** i * den ** (k - 1 - i) for i in range(1, k)]


def _cocycle_walk(k: int, g: Mat, key):
    """The path of `EisSymbol.cocycle(g)` as integer data a family of symbols shares.

    For g = (a b; c d) with c = 0 the path is the infinitesimal symbol
    [0, -b/a] at infinity.  Otherwise it is the path to
    pi_(-d/c)(infinity) minus the g^-1-translate of [0, a/c]; by the
    continued fraction of -d/c (`cf_decompose`), the former is [0, a_0]
    plus the tau_j-translates of -{infinity, 0} + [0, -/+ a_(j+1)], with
    a_(n+1) = -q_(n-1)/q_n, all shifts over |c|.  A term
    coeff * gamma . (base symbol) has the value
    coeff * (value of f|gamma on the base symbol) | gamma^-1.
    On the infinity-to-0 path that value is p_mod of f|gamma;
    on [0, r] at infinity it is c_inf of f|gamma times
    ((r x + y)^(k-1) - y^(k-1)) / ((k-1) x).

    Returns (den, steps), one step (gamma, key(gamma), coeff, shift) for
    each twisting matrix gamma of the path, key(gamma) its memo key of
    the twist sums: coeff is the coefficient of its infinity-to-0 term
    (0 if it has none), and shift the numerators, over den, of its
    infinitesimal terms' polynomials without the factor c_inf / (k-1),
    already moved by gamma^-1.  The walk keeps no action matrix.
    """
    a, b, c, d = g
    # terms (gamma, coefficient on {infinity, 0}, on [0, m], m over den)
    if c == 0:
        den, terms = 1, [(ID, 0, 1, -b * a)]
    else:
        den = abs(c)
        taus, quotients = cf_decompose(-d if c > 0 else d, den)
        nexts = [x * den for x in quotients[1:]] + [-taus[-1][3]]
        terms = [(ID, 0, 1, quotients[0] * den)]
        terms += [(tau, -1, 1, m if j % 2 else -m)
                  for j, (tau, m) in enumerate(zip(taus[1:], nexts))]
        terms.append((madj(g), 0, -1, a if c > 0 else -a))
    steps = {}
    for gamma, mod, inf, m in terms:
        if not (mod or m):
            continue
        step = steps.setdefault(gamma, [0, [0] * (k - 1)])
        step[0] += mod
        if m:
            nums = _shift_numerators(k, m, den)
            if gamma != ID:
                nums = act_coords(k, madj(gamma), nums)
            step[1] = [s + inf * x for s, x in zip(step[1], nums)]
    return den ** (k - 1), [(gamma, key(gamma), coeff, tuple(shift))
                            for gamma, (coeff, shift) in steps.items()]


class EisSymbol:
    """Rational period symbol of the weight-k series attached to f.

    Exposes the value on the infinity-to-0 path (`p_mod`), values on
    infinitesimal shifts at infinity (`eval_inf`), and the cocycle
    gamma -> value on the path from the based cusp at infinity to its
    gamma^-1-translate, in integers on a list of matrices
    (`cocycle_values`) or as a `Vk` (`cocycle`).

    The symbol holds the support of f, its nonzero cells with integer
    numerators over one denominator: from a `TorsionFunction` table,
    or, for orbit indicators (`of_orbits`), the orbit's points.  Its one
    memo, a plain dict, holds the integer twist sums of f|g, so
    concurrent readers can at worst duplicate a computation.  A table's
    memo is keyed by g mod N.  An orbit is stable under right
    multiplication by the upper-triangular matrices of determinant 1
    mod N, so its twist sums depend only on det g and the point (c : d)
    of P^1(Z/N) of g's bottom row, the Gamma0(N) coset key, which key an
    orbit's memo.  The walks of `_cocycle_walk` hold no data of f: the
    symbols of `of_orbits` share one dict of them, keyed by the matrix,
    so they walk each matrix, and key each of its steps, once.
    """

    def __init__(self, f: TorsionFunction, k: int):
        cells = [(u, v, c) for u, row in enumerate(f.values) for v, c in enumerate(row) if c]
        nums, den = integer_row([c for _, _, c in cells])
        n = f.n
        self._setup(n, k, [(u, v, x) for (u, v, _), x in zip(cells, nums)], den,
                    lambda g: (g[0] % n, g[1] % n, g[2] % n, g[3] % n), {})

    @classmethod
    def of_orbits(cls, n: int, k: int, orbits) -> list["EisSymbol"]:
        """The symbols of the indicators of orbits at level n, given by their points."""
        coset, walks, syms = gamma0_group(n).key, {}, [cls.__new__(cls) for _ in orbits]
        for sym, points in zip(syms, orbits):
            sym._setup(n, k, [(x, y, 1) for x, y in points], 1,
                       lambda g: (mdet(g), coset(g)), walks)
        return syms

    def _setup(self, n: int, k: int, support: list, den: int, key, walks: dict) -> None:
        if k < 2:
            raise ValueError("weight must be at least 2")
        if k == 2 and any(not (u or v) for u, v, _ in support):
            raise ValueError("weight 2 requires the value at (0, 0) to vanish")
        self.n = n
        self.k = k
        self._support = support
        self._key = key
        self._walks = walks
        self._rows_x, self._rows_y, moment_den = _moment_rows(n, k)
        self._den = moment_den * den
        self._twists: dict = {}

    def _sums(self, g: Mat, key) -> tuple:
        """(p_mod, c_inf) of f|g, memoized by its key, as integer numerators over self._den.

        A cell (u, v) of the support of f lands at (x, y) = -(u, v) g
        mod N in (f|g)-, so each moment is one sum over the support of
        the cells' values times the integer weights of their images.
        """
        hit = self._twists.get(key)
        if hit is not None:
            return hit
        n, (a, b, c, d) = self.n, g
        cells = [(val, (-u * a - v * c) % n, (-u * b - v * d) % n) for u, v, val in self._support]
        sums = [sum(val * row_x[x] * row_y[y] for val, x, y in cells)
                for row_x, row_y in zip(self._rows_x, self._rows_y)]
        data = self._twists[key] = (tuple(sums[:-1]), sums[-1])
        return data

    def _twist_data(self, g: Mat):
        """(p_mod, c_inf) of f|g, read from the memo of the twist sums.

        Entry j of p_mod is (-1)^j C(k-2, j) times the moment of (f|g)-
        against beta_(k-1-j) x beta_(j+1), and c_inf is its moment
        against beta_k x beta_0.
        """
        if mdet(g) not in (1, -1):
            raise ValueError("twisting matrix must have determinant +-1")
        p, c = self._sums(g, self._key(g))
        return Vk(self.k, [Fraction(x, self._den) for x in p]), Fraction(c, self._den)

    @property
    def p_mod(self) -> Vk:
        return self._twist_data(ID)[0]

    @property
    def c_inf(self) -> Fraction:
        return self._twist_data(ID)[1]

    def eval_inf(self, r) -> Vk:
        """Value on the infinitesimal symbol at infinity from 0 to r."""
        r = Fraction(r)
        k = self.k
        c = self._sums(ID, self._key(ID))[1]
        den = (k - 1) * r.denominator ** (k - 1) * self._den
        return Vk(k, [Fraction(c * x, den)
                      for x in _shift_numerators(k, r.numerator, r.denominator)])

    def cocycle_values(self, glues) -> tuple[list[int], int]:
        """The k - 1 coefficients of the cocycle at each matrix of glues,
        as integer numerators over their least common denominator: each
        path's terms (`_cocycle_walk`) are summed as integers, then reduced.
        """
        k = self.k
        values = []
        for g in glues:
            if mdet(g) != 1:
                raise ValueError("expected a matrix of determinant 1")
            walk = self._walks.get(g)
            if walk is None:
                walk = self._walks[g] = _cocycle_walk(k, g, self._key)
            walk_den, steps = walk
            mods = [0] * (k - 1)
            infs = [0] * (k - 1)
            for gamma, key, coeff, shift in steps:
                p, c = self._sums(gamma, key)
                if coeff:
                    if gamma != ID and k > 2:  # every matrix fixes V_2
                        p = act_coords(k, madj(gamma), p)
                    mods = [s + coeff * x for s, x in zip(mods, p)]
                if c:
                    infs = [s + c * x for s, x in zip(infs, shift)]
            scale = (k - 1) * walk_den
            nums = [scale * m + i for m, i in zip(mods, infs)]
            den = scale * self._den
            common = gcd(den, *nums)
            values.append(([x // common for x in nums], den // common))
        den = lcm(*(d for _, d in values))
        return [x * (den // d) for nums, d in values for x in nums], den

    def cocycle(self, g: Mat) -> Vk:
        """Value on the path from pi_inf(0) to g^-1 pi_inf(0), as a `Vk`."""
        nums, den = self.cocycle_values([g])
        return Vk(self.k, [Fraction(x, den) for x in nums])

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
