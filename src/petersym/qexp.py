"""Exact q-expansions and special L-values, plus the numeric period oracle.

The exact half computes L(1-h, g) as a finite Bernoulli sum, the
q-expansion of the normalized weight-k series of a torsion function
with coefficients in the group ring of Z/NZ, and the rational middle
Mellin values.  The q-expansion is summed in integers over one
denominator, the lcm of the denominators of the function's table, and
made into Fractions once per output coefficient.  The numeric half
sums the same q-series against incomplete gamma factors
(exponentially convergent, no quadrature grids) for Mellin transforms
and level-one period integrals, and integrates over the standard
fundamental domain for the Petersson norm by Gauss-Legendre
quadrature with a two-order error check.  Only the standard library
is used: every incomplete gamma order is a positive integer, where the
function has a closed form.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from operator import add, sub
from typing import NamedTuple

from .cyclo import CycVec
from .eisenstein import EisSymbol, TorsionFunction, beta_row, beta_value, fourier2
from .exact import bernoulli_number
from .modgroup import SIGMA

__all__ = [
    "l_special",
    "l_special_numeric",
    "QExpansion",
    "eis_qexp",
    "normalized_transform",
    "mellin_rational",
    "mellin_numeric",
    "delta_qexp",
    "eta_product_qexp",
    "delta_periods",
    "petersson_norm_delta",
    "period_haberland",
]


def l_special(values, h: int):
    """L(1-h, g) for g given by its value list on Z/NZ, h >= 1.

    For h = 1 the value is L(0, g) + g(0)/2.  Values may be Fractions
    or group-ring elements; the result has the same type.
    """
    if h < 1:
        raise ValueError("the argument index must be at least 1")
    n = len(values)
    total = None
    for a in range(n):
        b = beta_value(h, a, n)
        if not b:
            continue
        term = b * values[a]
        total = term if total is None else total + term
    if total is None:
        total = Fraction(0) * values[0]
    return total


def l_special_numeric(values, h: int) -> float:
    """Euler-Maclaurin continuation of the Dirichlet series at 1-h.

    Independent numeric route: sums the Hurwitz zeta values at s = 1-h
    with the standard tail corrections.  At negative integer arguments
    the correction series terminates, so a short main sum of six terms
    keeps cancellation (and hence rounding) small.
    """
    n = len(values)
    s = 1.0 - h
    terms = 6

    def hurwitz(x: float) -> float:
        parts = [(m + x) ** (-s) for m in range(terms)]
        parts.append((terms + x) ** (1 - s) / (s - 1))
        parts.append(0.5 * (terms + x) ** (-s))
        poch = s
        fact = 1.0
        j = 1
        while True:
            b2j = float(bernoulli_number(2 * j))
            fact *= (2 * j - 1) * (2 * j)
            parts.append(b2j / fact * poch * (terms + x) ** (-s - 2 * j + 1))
            poch *= (s + 2 * j - 1) * (s + 2 * j)
            if poch == 0.0 or j > 24:
                break
            j += 1
        return math.fsum(parts)

    return math.fsum(
        float(values[a % n]) * n ** (-s) * hurwitz(a / n) for a in range(1, n + 1)
    )


def _integer_table(f) -> tuple[list, int]:
    """f's value table over one denominator: (rows, D).

    D is the lcm of the denominators in the table; a rational value v
    becomes the integer v D, a group-ring value the list of its
    coefficients times D.
    """
    dens = set()
    for row in f.values:
        for v in row:
            if isinstance(v, CycVec):
                dens.update(c.denominator for c in v.coeffs)
            else:
                dens.add(v.denominator)
    den = math.lcm(*dens)
    rows = [
        [[c.numerator * (den // c.denominator) for c in v.coeffs] if isinstance(v, CycVec)
         else v.numerator * (den // v.denominator) for v in row]
        for row in f.values
    ]
    return rows, den


def _p2_row(row: list, n: int, b: int) -> list[int]:
    """P2(f)(a, b) times D, for `row` the integer row of f at a.

    The value at (a, y) is multiplied by z^(-y b): a rational value
    lands on one cell, a group-ring value is rotated.
    """
    out = [0] * n
    for y, v in enumerate(row):
        s = (-y * b) % n
        if type(v) is list:
            out = list(map(add, out, v[-s:] + v[:-s]))
        elif v:
            out[s] += v
    return out


class QExpansion(NamedTuple):
    level: int
    weight: int
    terms: int
    constant: CycVec
    coeffs: list  # coeffs[t] for 1 <= t <= terms; CycVec values of Fractions

    def coefficient(self, t: int) -> CycVec:
        if t == 0:
            return self.constant
        return self.coeffs[t]

    def floats(self) -> list[complex]:
        return [self.constant.to_complex()] + [c.to_complex() for c in self.coeffs[1:]]


def eis_qexp(f, k: int, terms: int) -> QExpansion:
    """q-expansion of the normalized weight-k series of f, exactly.

    The constant term is L(1-k, .) of the reflected second partial
    transform at 0; the higher coefficients accumulate
    (P2(f)(n, -m) + (-1)^k P2(f-)(n, -m)) m^(k-1) on q_N^(n m).  The
    bracket depends only on (n mod N, -m mod N), so each residue pair's
    value is computed once per call; P2(f-)(a, b) is P2(f)(-a, -b).

    The work is done in integers over one denominator D, the lcm of the
    denominators of f's table: each bracket is an integer list made by
    rotations, and m^(k-1) times it is added into an integer coefficient
    list.  The constant is the integer row of beta_k applied to the
    partial transforms, over D times the row's denominator.  Fractions
    are made once per output coefficient.
    """
    if k < 2:
        raise ValueError("weight must be at least 2")
    n = f.n
    rows, den = _integer_table(f)

    def over(ints: list[int], d: int) -> CycVec:
        return CycVec._of(n, [Fraction(x, d) for x in ints])

    beta, beta_den = beta_row(k, n)
    constant = [0] * n
    for x, c in enumerate(beta):
        if c:
            constant = [t + c * v for t, v in zip(constant, _p2_row(rows[0], n, -x))]
    combine = add if k % 2 == 0 else sub
    acc = [[0] * n for _ in range(terms + 1)]
    brackets = {}
    for m in range(1, terms + 1):
        w = m ** (k - 1)
        b = (-m) % n
        for nn in range(1, terms // m + 1):
            a = nn % n
            bracket = brackets.get((a, b))
            if bracket is None:
                bracket = brackets[a, b] = list(map(
                    combine, _p2_row(rows[a], n, b), _p2_row(rows[-a], n, -b)))
            t = nn * m
            acc[t] = [c + w * x for c, x in zip(acc[t], bracket)]
    coeffs = [CycVec(n)] + [over(c, den) for c in acc[1:]]
    return QExpansion(n, k, terms, over(constant, den * beta_den), coeffs)


def normalized_transform(f: TorsionFunction) -> TorsionFunction:
    """(1/N) times the two-variable Fourier transform of f."""
    return fourier2(f).scale(Fraction(1, f.n))


def mellin_rational(f: TorsionFunction, k: int, j: int) -> Fraction:
    """Middle Mellin value of the normalized transform series, exact.

    Only 0 < j < k-2 is admitted: the boundary values carry
    transcendental derivative terms and are out of scope.  The value is
    (-1)^(j+1) times the moment of f- against beta_(k-1-j) x beta_(j+1),
    which is -p_mod[j] / C(k-2, j) of the period symbol of f.
    """
    if not 0 < j < k - 2:
        raise ValueError("only middle indices are rational")
    return -EisSymbol(f, k).p_mod.coeffs[j] / math.comb(k - 2, j)


def _upper_gamma_integral(s: int, x: float) -> float:
    """Integral over [1, inf) of exp(-x t) t^(s-1) dt = x^-s Gamma(s, x).

    For an integer s >= 1, Gamma(s, x) = (s-1)! e^-x sum_{m<s} x^m/m!
    (DLMF 8.4.8), so the integral is (e^-x / x) times
    sum_{m<s} prod_{m<j<s} j/x, summed here by Horner's rule.  Every
    term is positive, so nothing cancels.
    """
    if not isinstance(s, int) or s < 1:
        raise ValueError(f"incomplete gamma order must be a positive integer, got {s!r}")
    acc = 1.0
    for j in range(1, s):
        acc = 1.0 + acc * j / x
    return math.exp(-x) / x * acc


def _qseries_tail_sum(float_coeffs, s: int, rate: float) -> complex:
    """Sum over t >= 1 of c_t * integral_1^inf exp(-rate t u) u^(s-1) du."""
    acc = 0j
    for t in range(1, len(float_coeffs)):
        c = float_coeffs[t]
        if c:
            acc += c * _upper_gamma_integral(s, rate * t)
    return acc


def _terms_for_tail(n: int, k: int, tol: float) -> int:
    """Smallest truncation with coefficient-size tail below tol / 10."""
    m = 1
    while m ** (k - 1) * math.exp(-2 * math.pi * m / n) >= tol / 10:
        m += 1
    return m + n  # a full extra period of margin


def mellin_numeric(f: TorsionFunction, k: int, js) -> list[complex]:
    """Numeric Mellin values at j+1 for each j in `js`, splitting the line integral at i.

    The lower half is folded through the weight-k inversion, leaving
    two exponentially convergent sums plus the elementary continuation
    terms of the constants.  The two exact expansions are built once
    for all j.
    """
    n = f.n
    terms = _terms_for_tail(n, k, 1e-12)
    g = normalized_transform(f)
    h = g.act(SIGMA)
    qg = eis_qexp(g, k, terms)
    qh = eis_qexp(h, k, terms)
    a = qg.constant.to_complex()
    b = qh.constant.to_complex()
    fg = qg.floats()
    fh = qh.floats()
    rate = 2 * math.pi / n
    ik = 1j ** k
    out = []
    for j in js:
        s = j + 1
        big_a = _qseries_tail_sum(fg, s, rate)
        big_b = _qseries_tail_sum(fh, k - s, rate)
        out.append(1j ** s * (big_a + ik * big_b + ik * b / (s - k) - a / s))
    return out


# -- level-one oracle ---------------------------------------------------


def _euler_product(terms: int) -> list[int]:
    """Coefficients of prod (1 - q^m) by the pentagonal number theorem."""
    out = [0] * terms
    out[0] = 1
    g = 1
    while True:
        p1 = g * (3 * g - 1) // 2
        p2 = g * (3 * g + 1) // 2
        if p1 >= terms and p2 >= terms:
            break
        sign = -1 if g % 2 else 1
        if p1 < terms:
            out[p1] += sign
        if p2 < terms:
            out[p2] += sign
        g += 1
    return out


def _poly_mul(a, b, terms):
    out = [0] * terms
    for i, ai in enumerate(a):
        if ai:
            for j in range(min(len(b), terms - i)):
                if b[j]:
                    out[i + j] += ai * b[j]
    return out


def eta_product_qexp(factors, terms: int) -> list[int]:
    """q-expansion of a product of rescaled eta powers, without the q-shift.

    `factors` is a list of (d, e) meaning the eta factor at d z to the
    power e (e > 0); returns the coefficients of prod_n prod_d
    (1 - q^(d n))^e up to q^(terms-1).  The caller accounts for the
    leading q^(sum d e / 24).
    """
    out = [0] * terms
    out[0] = 1
    for d, e in factors:
        base = _euler_product((terms - 1) // d + 1)
        scaled = [0] * terms
        for i, c in enumerate(base):
            if d * i < terms:
                scaled[d * i] = c
        for _ in range(e):
            out = _poly_mul(out, scaled, terms)
    return out


def delta_qexp(terms: int) -> list[int]:
    """Coefficients of the discriminant form: tau(1), ..., tau(terms).

    Index t of the output is tau(t); index 0 is unused (zero).
    """
    prod = eta_product_qexp([(1, 24)], terms)
    out = [0] * (terms + 1)
    for t in range(1, terms + 1):
        if t - 1 < len(prod):
            out[t] = prod[t - 1]
    return out


def delta_periods() -> list[complex]:
    """Period integrals r_0..r_10 of the discriminant form.

    r_j = integral from i*infinity to 0 of Delta(t) t^j dt, folded at i
    by weight-12 modularity into incomplete-gamma sums over the first
    60 coefficients.
    """
    terms = 60
    tau = delta_qexp(terms)
    out = []
    for j in range(11):
        acc = 0.0
        for t in range(1, terms + 1):
            if tau[t]:
                acc += tau[t] * (
                    _upper_gamma_integral(j + 1, 2 * math.pi * t)
                    + _upper_gamma_integral(11 - j, 2 * math.pi * t)
                )
        out.append(-(1j ** (j + 1)) * acc)
    return out


def _delta_value(z: complex, tau) -> complex:
    q = cmath.exp(2j * cmath.pi * z)
    acc = 0j
    qp = 1.0 + 0j
    for t in range(1, len(tau)):
        qp *= q
        acc += tau[t] * qp
    return acc


def _gauss_legendre(n: int) -> list[tuple[float, float]]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Each root of P_n is found by Newton's method from the usual cosine
    guess, evaluating P_n and P_n' by the three-term recurrence; from
    that guess a few steps reach rounding level, and the step cap only
    bounds the loop.
    """
    rule = []
    for i in range(1, n + 1):
        x = math.cos(math.pi * (i - 0.25) / (n + 0.5))
        for _ in range(100):
            p0, p1 = 1.0, x
            for j in range(2, n + 1):
                p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
            dp = n * (x * p1 - p0) / (x * x - 1.0)
            step = p1 / dp
            x -= step
            if abs(step) < 1e-16:
                break
        rule.append((x, 2.0 / ((1.0 - x * x) * dp * dp)))
    return rule


def _domain_integral(integrand, order: int, y_max: float) -> float:
    """Tensor Gauss-Legendre rule over |x| <= 1/2, sqrt(1-x^2) <= y <= y_max.

    The integrand must be even in x: only x >= 0 is sampled, and the
    result is doubled.
    """
    rule = _gauss_legendre(order)
    total = 0.0
    for u, wu in rule:
        x = 0.25 * (u + 1.0)
        y_min = math.sqrt(1.0 - x * x)
        half = 0.5 * (y_max - y_min)
        inner = sum(wv * integrand(x, y_min + half * (v + 1.0)) for v, wv in rule)
        total += 0.25 * wu * half * inner
    return 2.0 * total


def petersson_norm_delta() -> float:
    """Petersson norm of the discriminant form by Gauss-Legendre quadrature.

    Integrates |Delta(x+iy)|^2 y^10 over the standard fundamental domain
    cut at y = 8 (the integrand decays like exp(-4 pi y)), with the
    q-series summed to 30 terms; the error estimate is the difference
    between the rules of order 40 and 30.
    """
    tau = delta_qexp(30)
    y_max = 8.0

    def integrand(x, y):
        return abs(_delta_value(complex(x, y), tau)) ** 2 * y ** 10

    val = _domain_integral(integrand, 40, y_max)
    err = abs(val - _domain_integral(integrand, 30, y_max))
    if err > 1e-10:
        raise ArithmeticError(f"quadrature error estimate too large: {err}")
    return val


def period_haberland(r1: list[complex], r2: list[complex]) -> complex:
    """Level-one pairing of two numeric period vectors (weight 12).

    Feeds the complex period polynomials through the same closed form
    as the exact pairing.
    """
    from math import comb

    from .pairing import haberland_pair
    from .polyspace import Vk

    p1 = Vk(12, [comb(10, j) * r1[j] for j in range(11)])
    p2 = Vk(12, [comb(10, j) * r2[j] for j in range(11)])
    return haberland_pair(p1, Vk.zero(12), p2)
