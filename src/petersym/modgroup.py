"""Cusps, integer 2x2 matrices, continued fractions, path decompositions.

Matrices are 4-tuples (a, b, c, d) for [[a, b], [c, d]]; cusps are
coprime pairs (p, q) with q >= 0 and (1, 0) standing for infinity.
A path between cusps is walked by the continued fraction of its far
end (`cf_decompose`): each convergent matrix is a unimodular step,
one coset path of a symbol-space element, and the Eisenstein cocycle
reads the same matrices and quotients as translates of the path from
infinity to 0 and of infinitesimal shifts at infinity.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

Mat = tuple[int, int, int, int]
CuspT = tuple[int, int]

ID: Mat = (1, 0, 0, 1)
SIGMA: Mat = (0, -1, 1, 0)      # order 2 in PSL2, fixes i
TAU: Mat = (0, -1, 1, -1)       # order 3 in PSL2
T_MAT: Mat = (1, 1, 0, 1)       # translation z -> z + 1, equals tau^-1 sigma
EPS: Mat = (-1, 0, 0, 1)        # determinant -1 reflection


def mmul(*ms: Mat) -> Mat:
    a, b, c, d = ms[0]
    for m in ms[1:]:
        e, f, g, h = m
        a, b, c, d = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
    return (a, b, c, d)


def mdet(m: Mat) -> int:
    return m[0] * m[3] - m[1] * m[2]


def madj(m: Mat) -> Mat:
    """Adjugate; the inverse for determinant-1 matrices."""
    a, b, c, d = m
    return (d, -b, -c, a)


def minv(m: Mat) -> Mat:
    if mdet(m) != 1:
        raise ValueError("only determinant-1 matrices have an integer inverse")
    return madj(m)


def mneg(m: Mat) -> Mat:
    return (-m[0], -m[1], -m[2], -m[3])


def mpow(m: Mat, n: int) -> Mat:
    if n < 0:
        return mpow(minv(m), -n)
    out = ID
    for _ in range(n):
        out = mmul(out, m)
    return out


def translation(n: int) -> Mat:
    return (1, n, 0, 1)


def psl2_order(m: Mat) -> int:
    """Order of m in PSL2(Z), or 0 if infinite (m must lie in SL2)."""
    acc = m
    for n in range(1, 7):
        if acc in (ID, mneg(ID)):
            return n
        acc = mmul(acc, m)
    return 0


def cusp(p: int, q: int) -> CuspT:
    """Canonical form of the point p/q, with 1/0 = infinity."""
    if p == 0 and q == 0:
        raise ValueError("0/0 is not a point of P^1(Q)")
    if q == 0:
        return (1, 0)
    g = gcd(abs(p), abs(q))
    p, q = p // g, q // g
    if q < 0:
        p, q = -p, -q
    return (p, q)


def cusp_is_infinity(c: CuspT) -> bool:
    return c[1] == 0


def cusp_rational(c: CuspT) -> Fraction:
    if c[1] == 0:
        raise ValueError("infinity is not a rational number")
    return Fraction(c[0], c[1])


def cusp_str(c: CuspT) -> str:
    return f"{c[0]}/{c[1]}"


def act(m: Mat, c: CuspT) -> CuspT:
    """Moebius action of an integer matrix with nonzero determinant."""
    a, b, cc, d = m
    p, q = c
    return cusp(a * p + b * q, cc * p + d * q)


def matrix_to_cusp(c: CuspT) -> Mat:
    """Some matrix in SL2(Z) sending infinity to the given cusp."""
    p, q = c
    if q == 0:
        return ID
    # p x - q y = 1 has a solution since gcd(p, q) = 1
    x, y = _bezout(p, q)
    return (p, -y, q, x)


def _bezout(p: int, q: int) -> tuple[int, int]:
    """(x, y) with p*x + q*y = gcd(p, q) = 1 for coprime inputs."""
    old_r, r = p, q
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        qq = old_r // r
        old_r, r = r, old_r - qq * r
        old_x, x = x, old_x - qq * x
        old_y, y = y, old_y - qq * y
    if old_r == -1:
        old_x, old_y = -old_x, -old_y
    return old_x, old_y


def cf_decompose(p: int, q: int) -> tuple[list[Mat], list[int]]:
    """Convergent matrices and partial quotients of p/q, for q > 0.

    The floor continued fraction p/q = [a_0; a_1, ..., a_n] (positive
    tail) is made by integer divmod.  Returns (taus, quotients) where
    taus[j] is the matrix [[(-1)^(j-1) p_j, p_{j-1}], [(-1)^(j-1) q_j,
    q_{j-1}]] for j = -1, 0, ..., n (so taus[0] is the j = -1 matrix,
    the identity) and quotients = [a_0, ..., a_n].  Every tau has
    determinant 1 and sends infinity to the corresponding convergent;
    the extra quotient a_{n+1} = -q_{n-1}/q_n is read off the last one.
    """
    p_prev2, q_prev2 = 0, 1   # p_{-2}, q_{-2}
    p_prev, q_prev = 1, 0     # p_{-1}, q_{-1}
    taus = [ID]               # j = -1
    quotients = []
    sign = -1                 # (-1)^(j-1)
    while q:
        a, rest = divmod(p, q)
        pj, qj = a * p_prev + p_prev2, a * q_prev + q_prev2
        taus.append((sign * pj, p_prev, sign * qj, q_prev))
        quotients.append(a)
        p_prev2, q_prev2, p_prev, q_prev = p_prev, q_prev, pj, qj
        p, q, sign = q, rest, -sign
    return taus, quotients
