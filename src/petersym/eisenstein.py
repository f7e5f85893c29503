"""Torsion functions on (Z/NZ)^2 and their rational period symbols.

The raw datum is a rational-valued function f on (Z/NZ)^2.  Its period
symbol is stored through two exact quantities: the value on the path
from infinity to 0 (a coefficient polynomial built from products of
Bernoulli-distribution moments) and the scalar driving values on
infinitesimal symbols at infinity.  Values on arbitrary cocycle paths
are assembled from these by the continued-fraction decomposition, with
all twists of f taken modulo the level and memoized.  The exact Fourier
transforms return the same table class with values in the group ring
Q[Z/NZ], the data of the q-expansions in `qexp`.

The moments of a twist f|g are never tabulated over (Z/NZ)^2: since
(f|g)-(x, y) = f(u, v) exactly when (x, y) = -(u, v) g mod N, all k of
them are summed in one pass over the nonzero cells of f, so their cost
follows the support of f (30 points for a basis orbit at N = 31, not
961) rather than N^2.

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
from .exact import bernoulli_poly, frac_str
from .modgroup import ID, INF_SHIFT, MOD_SYM, Mat, PathTerm, madj, manin_path_infty, mdet, minv
from .polyspace import Vk

__all__ = [
    "TorsionFunction",
    "beta_value",
    "beta_moment",
    "fourier1",
    "fourier_partial1",
    "fourier_partial2",
    "fourier2",
    "hecke_fn",
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
        return cls(n, [[0] * n for _ in range(n)])

    @classmethod
    def constant(cls, n: int, c=Fraction(1)) -> "TorsionFunction":
        return cls(n, [[c] * n for _ in range(n)])

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
    out = []
    for r in range(n):
        if h == 0:
            out.append(Fraction(1, n))
        elif h == 1:
            frac = Fraction(r % n, n)
            val = -bernoulli_poly(1, frac)
            if frac == 0:
                val -= Fraction(1, 2)
            out.append(val)
        else:
            out.append(-Fraction(n) ** (h - 1) * bernoulli_poly(h, Fraction(r % n, n)) / h)
    return tuple(out)


def _integer_row(row) -> tuple[list[int], int]:
    """Numerators of a row of Fractions over their least common denominator."""
    den = lcm(*(q.denominator for q in row))
    return [q.numerator * (den // q.denominator) for q in row], den


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


class EisSymbol:
    """Rational period symbol of the weight-k series attached to f.

    Exposes the value on the infinity-to-0 path (`p_mod`), values on
    infinitesimal shifts at infinity (`eval_inf`), and the full cocycle
    gamma -> value on the path from the based cusp at infinity to its
    gamma^-1-translate (`cocycle`).

    The one memo is the table of twist data, keyed by the twisting
    matrix modulo the level: a plain dict whose entries are
    deterministic functions of their keys, so concurrent readers can at
    worst duplicate a computation, never disagree.
    """

    def __init__(self, f: TorsionFunction, k: int):
        if k < 2:
            raise ValueError("weight must be at least 2")
        if k == 2 and f(0, 0) != 0:
            raise ValueError("weight 2 requires the value at (0, 0) to vanish")
        self.f = f
        self.k = k
        # nonzero cells of f, and the Bernoulli rows of the k moments, as
        # integer numerators; the third entry of a row pair is the common
        # denominator of its products with the support
        n = f.n
        support_den = lcm(*(c.denominator for row in f.values for c in row if c))
        self._support = [(u, v, c.numerator * (support_den // c.denominator))
                         for u, row in enumerate(f.values) for v, c in enumerate(row) if c]
        self._moment_rows = []
        for hx, hy in [(k - 1 - j, j + 1) for j in range(k - 1)] + [(k, 0)]:
            nums_x, den_x = _integer_row(_beta_row(hx, n))
            nums_y, den_y = _integer_row(_beta_row(hy, n))
            self._moment_rows.append((nums_x, nums_y, den_x * den_y * support_den))
        self._twists: dict = {}

    def _twist_data(self, g: Mat):
        """(p_mod, c_inf) of f|g, keyed by g modulo the level.

        Entry j of p_mod is (-1)^j C(k-2, j) times the moment of (f|g)-
        against beta_(k-1-j) x beta_(j+1), and c_inf is its moment
        against beta_k x beta_0.  A cell (u, v) of the support of f
        lands at (x, y) = -(u, v) g mod N in (f|g)-, so one pass over
        the support adds its value times every product of Bernoulli
        rows at (x, y); the sums run over integer numerators.
        """
        if mdet(g) not in (1, -1):
            raise ValueError("twisting matrix must have determinant +-1")
        n = self.f.n
        key = tuple(x % n for x in g)
        hit = self._twists.get(key)
        if hit is not None:
            return hit
        k = self.k
        a, b, c, d = key
        sums = [0] * k
        for u, v, val in self._support:
            x = (-u * a - v * c) % n
            y = (-u * b - v * d) % n
            for i, (nums_x, nums_y, _) in enumerate(self._moment_rows):
                sums[i] += val * nums_x[x] * nums_y[y]
        acc = [Fraction(s, den) for s, (_, _, den) in zip(sums, self._moment_rows)]
        coeffs = [(-1) ** j * comb(k - 2, j) * acc[j] for j in range(k - 1)]
        data = (Vk(k, coeffs), acc[k - 1])
        self._twists[key] = data
        return data

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
        return _inf_poly(self.k, self.c_inf, Fraction(r))

    def _eval_terms(self, terms) -> Vk:
        """Value on a formal sum of translated base symbols."""
        total = Vk.zero(self.k)
        for term in terms:
            p_mod, c_inf = self._twist_data(term.gamma)
            if term.kind == MOD_SYM:
                val = p_mod
            else:
                val = _inf_poly(self.k, c_inf, term.shift)
            if term.gamma != ID:
                val = val.act(minv(term.gamma))
            if term.coeff == -1:
                val = -val
            total = total + val
        return total

    def cocycle(self, g: Mat) -> Vk:
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
        return self._eval_terms(terms)

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
