"""Exact rational arithmetic: Bernoulli numbers and dense linear algebra.

Rationals are `fractions.Fraction` throughout; the stdlib type already
maintains the lowest-terms, positive-denominator normal form.  Matrices
are plain lists of lists of Fractions, row major.  Everything here is
dense Gaussian elimination with full pivoting on nonzero entries, which
is plenty for the few-hundred-row systems this package produces.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

__all__ = [
    "bernoulli_number",
    "bernoulli_poly",
    "frac_str",
    "kernel_basis",
    "rank",
    "solve_in_span",
    "charpoly",
]


@lru_cache(maxsize=None)
def bernoulli_number(h: int) -> Fraction:
    """B_h with the convention B_1 = -1/2 (so B_h(0) = B_h)."""
    if h < 0:
        raise ValueError("index must be nonnegative")
    if h == 0:
        return Fraction(1)
    if h == 1:
        return Fraction(-1, 2)
    if h % 2 == 1:
        return Fraction(0)
    # sum_{j=0}^{h} C(h+1,j) B_j = 0
    s = Fraction(0)
    for j in range(h):
        bj = bernoulli_number(j)
        if bj:
            s += comb(h + 1, j) * bj
    return -s / (h + 1)


def bernoulli_poly(h: int, x: Fraction) -> Fraction:
    """Value of the h-th Bernoulli polynomial at a rational point."""
    if h < 0:
        raise ValueError("index must be nonnegative")
    x = Fraction(x)
    acc = Fraction(0)
    xp = Fraction(1)  # x^(h-j), built from the top down
    for j in range(h, -1, -1):
        bj = bernoulli_number(j)
        if bj:
            acc += comb(h, j) * bj * xp
        xp *= x
    return acc


def frac_str(q: Fraction) -> str:
    """Serialize as "num/den", or "num" when the denominator is 1."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _echelonize(rows):
    """Reduce a list of Fraction rows in place; return {pivot_col: row}."""
    pivots: dict[int, list[Fraction]] = {}
    for row in rows:
        row = list(row)
        while True:
            lead = next((j for j, v in enumerate(row) if v), None)
            if lead is None:
                break
            if lead in pivots:
                prow = pivots[lead]
                factor = row[lead] / prow[lead]
                for j in range(lead, len(row)):
                    if prow[j]:
                        row[j] -= factor * prow[j]
                continue
            inv = 1 / row[lead]
            for j in range(lead, len(row)):
                if row[j]:
                    row[j] *= inv
            pivots[lead] = row
            break
    # back-substitute so pivot columns are cleared above as well
    for lead in sorted(pivots, reverse=True):
        prow = pivots[lead]
        for other_lead, orow in pivots.items():
            if other_lead >= lead:
                continue
            factor = orow[lead]
            if factor:
                for j in range(lead, len(prow)):
                    if prow[j]:
                        orow[j] -= factor * prow[j]
    return pivots


def kernel_basis(rows, ncols: int):
    """Exact basis of the right null space of the matrix given by `rows`.

    Rows may be any iterable of length-`ncols` Fraction sequences.
    Returns a list of Fraction vectors; rank + len(result) == ncols.
    The basis is in echelon order: basis vector i has a 1 in the i-th
    free column and 0 in the other free columns.
    """
    pivots = _echelonize([list(r) for r in rows])
    free_cols = [j for j in range(ncols) if j not in pivots]
    basis = []
    for fc in free_cols:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for lead, prow in pivots.items():
            vec[lead] = -prow[fc]
        basis.append(vec)
    return basis


def rank(rows) -> int:
    return len(_echelonize([list(r) for r in rows]))


def solve_in_span(basis, target):
    """Coordinates of `target` in the span of `basis` vectors, or None.

    `basis` is a list of equal-length Fraction vectors; solves the
    overdetermined system exactly.
    """
    if not basis:
        return [] if not any(target) else None
    n = len(basis[0])
    m = len(basis)
    # augmented columns: basis vectors as columns, then the target
    rows = [[basis[i][r] for i in range(m)] + [Fraction(target[r])] for r in range(n)]
    pivots = _echelonize(rows)
    coords = [Fraction(0)] * m
    for lead, prow in pivots.items():
        if lead == m:
            return None  # inconsistent
        coords[lead] = prow[m]
    # verify (guards against rank-deficient basis input)
    for r in range(n):
        if sum(basis[i][r] * coords[i] for i in range(m)) != target[r]:
            return None
    return coords


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
