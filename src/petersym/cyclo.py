"""Exact vectors in the group ring Q[Z/NZ], used for Fourier transforms.

An element is stored as N rational coefficients on the basis
1, z, ..., z^(N-1) where z stands for a primitive N-th root of unity,
reduced modulo z^N - 1 only.  Equality and rationality tests reduce
modulo the N-th cyclotomic polynomial, so they see the actual value of
the element at a primitive root.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache

__all__ = ["CycVec", "cyclotomic_poly"]


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[Fraction, ...]:
    """Coefficients (constant first) of the n-th cyclotomic polynomial."""
    # divide x^n - 1 by the product of the proper-divisor cyclotomics
    num = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]
    for d in range(1, n):
        if n % d == 0:
            num = _polydiv_exact(num, list(cyclotomic_poly(d)))
    return tuple(num)


def _polydiv_exact(num, den):
    num = list(num)
    out_deg = len(num) - len(den)
    quot = [Fraction(0)] * (out_deg + 1)
    for i in range(out_deg, -1, -1):
        c = num[i + len(den) - 1] / den[-1]
        quot[i] = c
        if c:
            for j, dj in enumerate(den):
                num[i + j] -= c * dj
    if any(num):
        raise ArithmeticError("inexact polynomial division")
    return quot


def _polymod(coeffs, mod):
    rem = list(coeffs)
    dm = len(mod) - 1
    for i in range(len(rem) - 1, dm - 1, -1):
        c = rem[i] / mod[dm]
        if c:
            for j in range(dm + 1):
                rem[i - dm + j] -= c * mod[j]
    return rem[:dm]


class CycVec:
    """Rational combination of N-th roots of unity, basis-reduced lazily."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs=None):
        self.n = n
        if coeffs is None:
            self.coeffs = [Fraction(0)] * n
        else:
            coeffs = [Fraction(c) for c in coeffs]
            if len(coeffs) != n:
                raise ValueError("coefficient vector has wrong length")
            self.coeffs = coeffs

    @classmethod
    def _of(cls, n: int, coeffs: list) -> "CycVec":
        """Wrap a list of n Fractions already built, without converting it."""
        v = cls.__new__(cls)
        v.n = n
        v.coeffs = coeffs
        return v

    def add_root_multiple(self, j: int, c) -> None:
        """In-place self += c * z^j (the one mutating hot-path helper)."""
        self.coeffs[j % self.n] += c

    def __add__(self, other: "CycVec") -> "CycVec":
        if self.n != other.n:
            raise ValueError("mixed moduli")
        return CycVec._of(self.n, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "CycVec") -> "CycVec":
        if self.n != other.n:
            raise ValueError("mixed moduli")
        return CycVec._of(self.n, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "CycVec":
        return CycVec._of(self.n, [-a for a in self.coeffs])

    def scale(self, c) -> "CycVec":
        c = Fraction(c)
        return CycVec._of(self.n, [c * a for a in self.coeffs])

    def __rmul__(self, c) -> "CycVec":
        """c * self for a rational c."""
        return self.scale(c)

    def rotate(self, j: int) -> "CycVec":
        """Multiplication by z^j."""
        j %= self.n
        return CycVec._of(self.n, self.coeffs[-j:] + self.coeffs[:-j] if j else list(self.coeffs))

    def reduced(self) -> tuple[Fraction, ...]:
        """Canonical form: remainder modulo the N-th cyclotomic polynomial."""
        if self.n == 1:
            return tuple(self.coeffs)
        return tuple(_polymod(self.coeffs, list(cyclotomic_poly(self.n))))

    def __eq__(self, other) -> bool:
        if not isinstance(other, CycVec):
            return NotImplemented
        return self.n == other.n and self.reduced() == other.reduced()

    def __hash__(self):
        return hash((self.n, self.reduced()))

    def is_rational(self) -> bool:
        red = self.reduced()
        return not any(red[1:])

    def as_rational(self) -> Fraction:
        red = self.reduced()
        if any(red[1:]):
            raise ValueError("value is not rational")
        return red[0]

    def to_complex(self) -> complex:
        w = cmath.exp(2j * cmath.pi / self.n)
        acc = 0j
        zp = 1 + 0j
        for c in self.coeffs:
            if c:
                acc += float(c) * zp
            zp *= w
        return acc

    def __repr__(self):
        return f"CycVec({self.n}, {self.coeffs})"
