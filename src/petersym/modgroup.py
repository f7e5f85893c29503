"""Cusps, integer 2x2 matrices, continued fractions, path decompositions.

Matrices are 4-tuples (a, b, c, d) for [[a, b], [c, d]]; cusps are
coprime pairs (p, q) with q >= 0 and (1, 0) standing for infinity.
Paths between infinitesimal cusps are reduced to the two base symbols

    MOD_SYM      the modular symbol from infinity to 0,
    INF_SHIFT m  the infinitesimal symbol at infinity from direction 0
                 to direction m,

via the continued-fraction decomposition (`manin_path_infty`); the
Eisenstein cocycle consumes paths in this alphabet.  A symbol-space
element reads only the convergent matrices of `cf_decompose`: each is
a unimodular step, one coset path.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple

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


def cf_quotients(r: Fraction) -> list[Fraction]:
    """Floor continued fraction r = [a0; a1, ..., an], positive tail."""
    r = Fraction(r)
    out = []
    while True:
        a = r.numerator // r.denominator
        out.append(Fraction(a))
        r -= a
        if r == 0:
            return out
        r = 1 / r


def cf_decompose(r) -> tuple[list[Mat], list[Fraction], Fraction]:
    """Convergent matrices and partial quotients of a finite rational.

    Returns (taus, quotients, tail) where taus[j] is the matrix
    [[(-1)^(j-1) p_j, p_{j-1}], [(-1)^(j-1) q_j, q_{j-1}]] for
    j = -1, 0, ..., n (so taus[0] is the j = -1 matrix, the identity),
    quotients = [a_0, ..., a_n], and tail is the extra quotient
    a_{n+1} = -q_{n-1}/q_n.  Every tau has determinant 1 and sends
    infinity to the corresponding convergent.
    """
    r = Fraction(r)
    quotients = cf_quotients(r)
    p_prev2, q_prev2 = 0, 1   # p_{-2}, q_{-2}
    p_prev, q_prev = 1, 0     # p_{-1}, q_{-1}
    taus = [ID]               # j = -1
    ps, qs = [], []
    for j, a in enumerate(quotients):
        p = a.numerator * p_prev + p_prev2
        q = a.numerator * q_prev + q_prev2
        sign = -1 if j % 2 == 0 else 1  # (-1)^(j-1)
        taus.append((sign * p, p_prev, sign * q, q_prev))
        ps.append(p)
        qs.append(q)
        p_prev2, q_prev2 = p_prev, q_prev
        p_prev, q_prev = p, q
    n = len(quotients) - 1
    tail = Fraction(-qs[n - 1], qs[n]) if n >= 1 else Fraction(0, 1)
    return taus, quotients, tail


MOD_SYM = "mod"      # the path {infinity, 0}
INF_SHIFT = "inf"    # the infinitesimal symbol [0, m] based at infinity


class PathTerm(NamedTuple):
    """One term coeff * gamma . (base symbol) of a path decomposition."""

    coeff: int
    gamma: Mat
    kind: str           # MOD_SYM or INF_SHIFT
    shift: Fraction = Fraction(0)


def manin_path_infty(r) -> list[PathTerm]:
    """Decompose the path from pi_inf(0) to pi_r(infinity), r rational.

    The result is a formal sum of translated base symbols whose
    evaluation under any SL2(Z)-equivariant homomorphism reproduces the
    path.  Terms with zero shift on the infinitesimal symbol are
    dropped.
    """
    r = Fraction(r)
    taus, quotients, tail = cf_decompose(r)
    n = len(quotients) - 1
    terms = []
    if quotients[0]:
        terms.append(PathTerm(1, ID, INF_SHIFT, quotients[0]))
    for j in range(0, n + 1):
        tau = taus[j + 1]
        m = tail if j == n else quotients[j + 1]
        m = m if (j + 1) % 2 == 0 else -m
        # [pi_0(inf), pi_inf(m)] = -{inf,0} + [0,m]_inf, transported by tau
        terms.append(PathTerm(-1, tau, MOD_SYM))
        if m:
            terms.append(PathTerm(1, tau, INF_SHIFT, m))
    return terms
