"""Orbits of (Z/NZ)^2 under the lower-triangular-mod-N group.

An orbit is the triple [q1, q2, u] with q1 = gcd(x, N),
q2 = gcd(y, q1) and u the unit (x/q1)(y/q2) modulo
gcd(N/q1, q1/q2); the trivial unit (modulus 1) is stored as 0.
The distinguished sub-family indexed by divisors of N is a basis of
the space of orbit sums modulo the weight-W multiplication relations,
and `reduce_orbit` rewrites any orbit into that basis by the strictly
decreasing descent on q2 * ((N/q1)/gcd(N/q1, q1/q2))^2.

Only this group family gets a minimal generating family here.  For
other congruence groups (and for weights above 2) indicator functions
of single points of exact order N also generate, through the generic
symbol machinery, but no minimal basis is provided for them.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .dims import _prime_factors, divisors, euler_phi
from .eisenstein import TorsionFunction
from .modgroup import CuspT

__all__ = [
    "orbit_of",
    "orbit_card",
    "basis_v",
    "member_basis",
    "reduce_orbit",
    "cusp_to_basis",
    "orbit_indicator",
    "orbit_indicators",
    "orbit_points",
    "descent_weight",
    "all_orbits",
]

Triple = tuple[int, int, int]


def _unit_rep(u: int, g: int) -> int:
    if g == 1:
        return 0
    u %= g
    if gcd(u, g) != 1:
        raise ValueError(f"{u} is not a unit modulo {g}")
    return u


def orbit_of(x: int, y: int, n: int) -> Triple:
    x %= n
    y %= n
    q1 = gcd(x, n)
    q2 = gcd(y, q1)
    g = gcd(n // q1, q1 // q2)
    if g == 1:
        return (q1, q2, 0)
    v = (x // q1) if q1 else 1
    w = (y // q2) if q2 else 1
    return (q1, q2, _unit_rep(v * w, g))


def _modulus(t: Triple, n: int) -> int:
    return gcd(n // t[0], t[0] // t[1])


def orbit_card(t: Triple, n: int) -> int:
    q1, q2, _ = t
    g = _modulus(t, n)
    return (n // q1) * euler_phi(n // q1) * euler_phi(q1 // q2) // euler_phi(g)


def all_orbits(n: int) -> list[Triple]:
    out = []
    for q1 in divisors(n):
        for q2 in divisors(q1):
            g = gcd(n // q1, q1 // q2)
            if g == 1:
                out.append((q1, q2, 0))
            else:
                out.extend((q1, q2, u) for u in range(g) if gcd(u, g) == 1)
    return sorted(out)


def basis_v(n: int, k: int) -> list[Triple]:
    """The divisor-indexed orbit family; drops the zero orbit at weight 2."""
    if n < 1:
        raise ValueError("level must be positive")
    if k < 2:
        raise ValueError("weight must be at least 2")
    out = []
    for d in divisors(n):
        g = gcd(d, n // d)
        q1 = n // g
        q2 = (n // d) // g
        if g == 1:
            out.append((q1, q2, 0))
        else:
            out.extend((q1, q2, u) for u in range(g) if gcd(u, g) == 1)
    if k == 2:
        out.remove((n, n, 0))
    return sorted(out)


def member_basis(t: Triple, n: int) -> bool:
    """Local criterion: at each prime, ord(N/q1) = ord(q1/q2), or
    ord(N/q1) <= ord(q1/q2) with q2 coprime to the prime."""
    q1, q2, _ = t
    for p in _prime_factors(n):
        e = _ord(n // q1, p)
        f = _ord(q1 // q2, p)
        z = _ord(q2, p)
        if e == f:
            continue
        if e <= f and z == 0:
            continue
        return False
    return True


def _ord(m: int, p: int) -> int:
    e = 0
    while m % p == 0:
        m //= p
        e += 1
    return e


def descent_weight(t: Triple, n: int) -> int:
    q1, q2, _ = t
    return q2 * ((n // q1) // gcd(n // q1, q1 // q2)) ** 2


def _units_above(u: int, g_small: int, g_big: int):
    if g_big == 1:
        return [0]
    target = u % g_small if g_small > 1 else None
    return [
        v for v in range(g_big)
        if gcd(v, g_big) == 1 and (target is None or v % g_small == target)
    ]


def _descend_once(t: Triple, n: int, w: int):
    """One rewriting step, or None if t already satisfies the criterion."""
    q1, q2, u = t
    g = _modulus(t, n)
    for p in _prime_factors(n):
        e = _ord(n // q1, p)
        f = _ord(q1 // q2, p)
        z = _ord(q2, p)
        p_w = Fraction(p) ** w
        if e >= 1 and f == 0:
            if e >= 2:
                return {(p * q1, p * q2, u): 1 / p_w}
            # e == 1: three-term rewriting through the doubled orbit
            pinv = pow(p, -1, g) if g > 1 else 0
            out = {}
            _acc(out, (p * q1, p * q2, _unit_rep(u, g)), 1 / p_w)
            _acc(out, (p * q1, q2, _unit_rep(pinv * u, g) if g > 1 else 0), Fraction(-1))
            _acc(out, (p * q1, p * q2, _unit_rep(pinv * pinv * u, g) if g > 1 else 0),
                 Fraction(-1))
            return out
        if e >= 1 and f > e and z >= 1:
            g_big = gcd(p * (n // q1), q1 // q2)
            out = {}
            for v in _units_above(u, g, g_big):
                _acc(out, (q1 // p, q2 // p, v), p_w)
            return out
        if e >= 1 and 0 < f < e:
            return {(p * q1, p * q2, u): 1 / p_w}
        if e == 0 and f >= 1 and z >= 1:
            g_big = gcd(p * (n // q1), q1 // q2)
            out = {}
            for v in _units_above(u, g, g_big):
                _acc(out, (q1 // p, q2 // p, v), p_w)
            pinv = pow(p, -1, g) if g > 1 else 0
            _acc(out, (q1, q2 // p, _unit_rep(pinv * u, g) if g > 1 else 0), p_w)
            return out
    return None


def _acc(d: dict, key, val):
    d[key] = d.get(key, Fraction(0)) + val
    if not d[key]:
        del d[key]


def reduce_orbit(t: Triple, n: int, w: int) -> dict:
    """Rewrite the orbit as a combination of basis orbits at weight w.

    Raises if a rewriting step fails to strictly decrease the descent
    weight, which would indicate a broken case analysis.
    """
    todo = {t: Fraction(1)}
    out: dict = {}
    while todo:
        cur, coeff = todo.popitem()
        step = _descend_once(cur, n, w)
        if step is None:
            if not member_basis(cur, n):
                raise ArithmeticError(f"descent stalled at non-basis orbit {cur}")
            _acc(out, cur, coeff)
            continue
        m_cur = descent_weight(cur, n)
        for nxt, c in step.items():
            if descent_weight(nxt, n) >= m_cur:
                raise ArithmeticError(
                    f"descent weight did not decrease: {cur} -> {nxt}"
                )
            _acc(todo, nxt, coeff * c)
    return out


def cusp_to_basis(c: CuspT, n: int) -> Triple:
    """Basis orbit attached to a cusp class; constant on group orbits."""
    x, y = c
    d = gcd(abs(y), n) if y else n
    v = (abs(y) // d) * (1 if y >= 0 else -1) if y else 0
    g = gcd(d, n // d)
    u = _unit_rep(x * v, g) if g > 1 else 0
    return (n // g, (n // d) // g, u)


def orbit_points(t: Triple, n: int) -> list[tuple[int, int]]:
    """The points (q1 a, q2 b) of the orbit t at level n: a a unit mod N/q1,
    b mod N/q2 prime to q1/q2, and a b = u modulo gcd(N/q1, q1/q2)."""
    q1, q2, u = t
    g, m1, m2 = _modulus(t, n), n // q1, q1 // q2
    return [(q1 * a, q2 * b) for a in range(m1) if gcd(a, m1) == 1
            for b in range(n // q2) if gcd(b, m2) == 1 and (g == 1 or a * b % g == u)]


def orbit_indicators(triples, n: int) -> list[TorsionFunction]:
    """Indicator torsion functions of distinct orbits, one per triple.

    Each of the N^2 points is classified once for all the orbits.
    """
    fns = {t: TorsionFunction.zero(n) for t in triples}
    for x in range(n):
        for y in range(n):
            f = fns.get(orbit_of(x, y, n))
            if f is not None:
                f.values[x][y] = Fraction(1)
    for t, f in fns.items():
        if not any(map(any, f.values)):
            raise ValueError(f"{t} labels no orbit at level {n}")
    return list(fns.values())


def orbit_indicator(t: Triple, n: int) -> TorsionFunction:
    """Indicator torsion function of the orbit, by direct classification."""
    return orbit_indicators([t], n)[0]
