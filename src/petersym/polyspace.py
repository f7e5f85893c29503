"""Homogeneous coefficient polynomials of degree k-2 in (x, y).

The right action is (P|g)(x, y) = P(d x - c y, -b x + a y), which for
an integer matrix of determinant D equals D^(k-2) P((x, y) g^-1); the
bilinear form is the (anti)symmetric pairing normalized by

    <(t x + y)^(k-2), (t' x + y)^(k-2)> = (t - t')^(k-2),

given by one table of integer Gram weights per weight, `gram(k)`,
which `Vk.pair` and the pairing matrices of `pairing` both read.

Coefficients may be Fractions or complex floats (the numeric period
oracle reuses the same class with complex entries).  The action of g
is one integer matrix, `action_matrix(k, g)`, in a bounded memo,
applied by `act_coords`: rational coefficients as integer numerators
over a common denominator, complex ones by a plain sum.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, lcm
from operator import mul

from .exact import frac_str, integer_row
from .modgroup import Mat


class Vk:
    """Element of the weight-k coefficient module, k >= 2.

    coeffs[i] is the coefficient of x^i y^(k-2-i); len(coeffs) = k-1.
    """

    __slots__ = ("k", "coeffs")

    def __init__(self, k: int, coeffs):
        if k < 2:
            raise ValueError("weight must be at least 2")
        coeffs = tuple(coeffs)
        if len(coeffs) != k - 1:
            raise ValueError(f"expected {k - 1} coefficients, got {len(coeffs)}")
        self.k = k
        self.coeffs = coeffs

    @classmethod
    def zero(cls, k: int) -> "Vk":
        return cls(k, (Fraction(0),) * (k - 1))

    @classmethod
    def monomial(cls, k: int, i: int) -> "Vk":
        coeffs = [Fraction(0)] * (k - 1)
        coeffs[i] = Fraction(1)
        return cls(k, coeffs)

    @classmethod
    def linear_power(cls, k: int, t) -> "Vk":
        """(t x + y)^(k-2) for scalar t."""
        return cls(k, [comb(k - 2, i) * t**i for i in range(k - 1)])

    def __repr__(self):
        return f"Vk({self.k}, {list(self.coeffs)})"

    def __eq__(self, other):
        return isinstance(other, Vk) and self.k == other.k and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.k, self.coeffs))

    def __bool__(self):
        return any(self.coeffs)

    def _check(self, other: "Vk"):
        if self.k != other.k:
            raise ValueError(f"weight mismatch: {self.k} vs {other.k}")

    def __add__(self, other: "Vk") -> "Vk":
        self._check(other)
        return Vk(self.k, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "Vk") -> "Vk":
        self._check(other)
        return Vk(self.k, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "Vk":
        return Vk(self.k, tuple(-a for a in self.coeffs))

    def scale(self, c) -> "Vk":
        return Vk(self.k, tuple(c * a for a in self.coeffs))

    def act(self, g: Mat) -> "Vk":
        """Right action P|g; includes the det(g)^(k-2) normalization."""
        if all(isinstance(c, (int, Fraction)) for c in self.coeffs):
            # exact coefficients: integer numerators over one common denominator
            nums, den = integer_row(self.coeffs)
            return Vk(self.k, [Fraction(x, den) for x in act_coords(self.k, g, nums)])
        return Vk(self.k, act_coords(self.k, g, self.coeffs))

    def pair(self, other: "Vk"):
        """The weight-k bilinear form; symmetric iff k is even.

        <P, Q> = sum_i P_i Q_(k-2-i) / (den / w_i) with the Gram weights
        (w, den) = gram(k), where den / w_i = +-C(k-2, i).
        """
        self._check(other)
        weights, den = gram(self.k)
        acc = 0
        for w, a, b in zip(weights, self.coeffs, reversed(other.coeffs)):
            if a and b:
                acc = acc + a * b / (den // w)
        return acc if acc else Fraction(0)

    def to_json(self):
        return {"k": self.k, "coeffs": [frac_str(c) for c in self.coeffs]}


@lru_cache(maxsize=None)
def gram(k: int) -> tuple[tuple[int, ...], int]:
    """Integer Gram weights (w, den) of the weight-k pairing.

    <P, Q> = sum_i w_i P_i Q_(k-2-i) / den, where den = lcm_j C(k-2, j)
    and w_i = (-1)^(k-2-i) den / C(k-2, i), the normalization
    <(t x + y)^(k-2), (t' x + y)^(k-2)> = (t - t')^(k-2).
    """
    n = k - 2
    den = lcm(*(comb(n, j) for j in range(n + 1)))
    return tuple((-1) ** (n - i) * (den // comb(n, i)) for i in range(n + 1)), den


def act_coords(k: int, g: Mat, coords) -> list:
    """The monomial coordinates of P|g from those of P, integer or complex."""
    return [sum(map(mul, row, coords)) for row in action_matrix(k, g)]


@lru_cache(maxsize=512)
def action_matrix(k: int, g: Mat) -> tuple[tuple[int, ...], ...]:
    """Integer (k-1)x(k-1) matrix of P -> P|g on monomial coordinates.

    Entry [r][s] is the coefficient of x^r y^(k-2-r) in
    (d x - c y)^s (-b x + a y)^(k-2-s), the image of x^s y^(k-2-s), so
    the coordinates of P|g are this matrix times those of P.
    """
    n = k - 2
    a, b, c, d = g
    first = _linear_powers(d, -c, n)
    second = _linear_powers(-b, a, n)
    cols = []
    for s in range(n + 1):
        col = [0] * (n + 1)
        for i, u in enumerate(first[s]):
            for j, v in enumerate(second[n - s]):
                col[i + j] += u * v
        cols.append(col)
    return tuple(zip(*cols))


def _linear_powers(u: int, v: int, n: int) -> list[list[int]]:
    """Coefficients of (u x + v y)^m for m = 0..n, indexed by the power of x."""
    out = [[1]]
    for _ in range(n):
        prev = out[-1]
        out.append([v * hi + u * lo for hi, lo in zip(prev + [0], [0] + prev)])
    return out
