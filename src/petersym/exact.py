"""Exact rational arithmetic: Bernoulli numbers and linear algebra over Q.

Rationals are `fractions.Fraction`.  Kernel rows are dicts {col: value}
of their nonzero entries, so the Manin relations, which touch at most
three blocks of columns each, stay sparse.  The one elimination routine
is fraction-free over Z: each row is scaled to a primitive integer row.
A kernel vector is made with no Fraction, as the pair ({col: int}, den)
of its numerators over one denominator prime to them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm

__all__ = [
    "bernoulli_number",
    "bernoulli_poly",
    "bernoulli_values",
    "frac_str",
    "integer_row",
    "kernel_basis",
    "solve_in_span",
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
    x = Fraction(x)
    nums, den = bernoulli_values(h, [x.numerator], x.denominator)
    return Fraction(nums[0], den)


def bernoulli_values(h: int, ps, q: int) -> tuple[list[int], int]:
    """B_h(p/q) for each integer p of ps, as integer numerators over one
    denominator, B_h the h-th Bernoulli polynomial.

    B_h(p/q) = sum_j C(h, j) B_j p^(h-j) q^j / q^h, summed by Horner's
    rule on the integer numerators of C(h, j) B_j q^j, which are made
    once for all the points.
    """
    if h < 0:
        raise ValueError("index must be nonnegative")
    bs = [bernoulli_number(j) for j in range(h + 1)]
    nums, den = integer_row([comb(h, j) * b if b else b for j, b in enumerate(bs)])
    nums = [c * q ** j for j, c in enumerate(nums)]
    out = []
    for p in ps:
        acc = 0
        for c in nums:
            acc = acc * p + c
        out.append(acc)
    return out, den * q ** h


def frac_str(q: Fraction) -> str:
    """Serialize an int or Fraction as "num/den", or "num" when the denominator is 1."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """Divide an integer row by the gcd of its entries."""
    g = gcd(*row.values())
    if g > 1:
        return {j: v // g for j, v in row.items()}
    return row


def _eliminate(row: dict[int, int], prow: dict[int, int], col: int) -> dict[int, int]:
    """Primitive a*row - b*prow with the entry at `col` cancelled."""
    # g takes the sign of the pivot entry, so the multiplier a is
    # positive, and 1 whenever the pivot entry divides row[col]
    p, r = prow[col], row[col]
    g = gcd(p, r) if p > 0 else -gcd(p, r)
    a, b = p // g, r // g
    out = row.copy() if a == 1 else {j: a * v for j, v in row.items()}
    for j, v in prow.items():
        w = out.get(j, 0) - b * v
        if w:
            out[j] = w
        else:
            del out[j]
    return _primitive(out)


def _echelonize(rows) -> dict[int, dict[int, int]]:
    """Fraction-free reduction of rational rows {col: value} over Z.

    Returns {pivot col: row}, each row a primitive integer row
    {col: value} that is zero at every other pivot column; divided by
    its entry at the pivot column it is a row of the reduced row
    echelon form, which is unique.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        # the primitive integer multiple of the rational row
        row = _primitive(dict(zip(row, integer_row(row.values())[0])))
        while row:
            lead = min(row)
            prow = pivots.get(lead)
            if prow is None:
                pivots[lead] = row
                break
            row = _eliminate(row, prow, lead)
    # back-substitute from the last pivot up: the pivot rows used are
    # already reduced, so clearing one pivot column adds only free ones
    for lead in sorted(pivots, reverse=True):
        row = pivots[lead]
        for j in [j for j in row if j != lead and j in pivots]:
            row = _eliminate(row, pivots[j], j)
        pivots[lead] = row
    return pivots


def kernel_basis(rows, ncols: int) -> list[tuple[dict[int, int], int]]:
    """Exact basis of the right null space of the matrix given by `rows`.

    Rows may be any iterable of dicts {col: nonzero int or Fraction}
    with columns below `ncols`.  Returns one pair (nums, den) per basis
    vector nums / den: nums is {col: nonzero int}, keys ascending, and
    den > 0 is prime to its values; rank + len(result) == ncols.  The
    basis is in echelon order: basis vector i is 1 at the i-th free
    column, its last key, and 0 at the other free columns.
    """
    pivots = _echelonize(rows)
    # entry lead of vector fc is -v / p, v at fc and p at lead of the pivot
    # row at lead; dens[fc] is the lcm of their lowest-terms denominators
    dens = {fc: 1 for fc in range(ncols) if fc not in pivots}
    for lead, prow in pivots.items():
        p = prow[lead]
        if p != 1:
            for fc, v in prow.items():
                if fc != lead:
                    dens[fc] = lcm(dens[fc], p // gcd(v, p))
    by_free_col = {fc: {} for fc in dens}
    for lead, prow in sorted(pivots.items()):
        p = -prow[lead]
        for fc, v in prow.items():
            if fc != lead:
                by_free_col[fc][lead] = v * dens[fc] // p
    return [(vec, vec.setdefault(fc, dens[fc])) for fc, vec in by_free_col.items()]


def integer_row(row) -> tuple[list[int], int]:
    """Numerators of a row of rationals over their least common denominator."""
    den = lcm(*(q.denominator for q in row))
    return [q.numerator * (den // q.denominator) for q in row], den


def solve_in_span(basis, target):
    """Coordinates of `target` in the span of `basis` vectors, or None.

    `basis` is a list of equal-length dense lists of rationals; solves
    the overdetermined system exactly.
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
