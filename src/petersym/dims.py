"""Classical invariant and dimension formulas, used as independent oracles.

Everything here is computed straight from the textbook formulas for
Gamma0(N), Gamma1(N) and Gamma(N) (projective index, elliptic counts,
cusp counts, genus, and dim S_k for Gamma0); none of it touches the
Farey machinery, so the two routes check each other.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt


def _prime_factors(n: int) -> list[int]:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def euler_phi(n: int) -> int:
    out = n
    for p in _prime_factors(n):
        out = out // p * (p - 1)
    return out


def divisors(n: int) -> list[int]:
    """The divisors of n in increasing order, found in O(sqrt n) steps."""
    low = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return low + [n // d for d in reversed(low) if d * d != n]


def gamma0_index(n: int) -> int:
    """Projective index of Gamma0(N) in PSL2(Z)."""
    mu = n
    for p in _prime_factors(n):
        mu = mu // p * (p + 1)
    return mu


def gamma1_index(n: int) -> int:
    """Projective index of Gamma1(N) in PSL2(Z)."""
    if n in (1, 2):
        return gamma0_index(n)
    mu = n * n
    for p in _prime_factors(n):
        mu = mu // (p * p) * (p * p - 1)
    return mu // 2


def gamma_full_index(n: int) -> int:
    """Projective index of Gamma(N) in PSL2(Z)."""
    if n == 1:
        return 1
    mu = n ** 3
    for p in _prime_factors(n):
        mu = mu // (p * p) * (p * p - 1)
    return mu // 2 if n > 2 else mu


def gamma0_invariants(n: int) -> dict:
    """Projective index, elliptic counts, cusps and genus of Gamma0(N)."""
    primes = _prime_factors(n)
    mu = gamma0_index(n)
    if n % 4 == 0:
        nu2 = 0
    else:
        nu2 = 1
        for p in primes:
            if p == 2:
                continue
            nu2 *= 1 + (1 if p % 4 == 1 else -1)
    if n % 9 == 0:
        nu3 = 0
    else:
        nu3 = 1
        for p in primes:
            if p == 3:
                continue
            nu3 *= 1 + (1 if p % 3 == 1 else -1)
    nuinf = sum(euler_phi(gcd(d, n // d)) for d in divisors(n))
    return _pack(mu, nu2, nu3, nuinf)


def gamma1_invariants(n: int) -> dict:
    if n in (1, 2):
        return gamma0_invariants(n)
    if n == 3:
        return _pack(4, 0, 1, 2)
    if n == 4:
        return _pack(6, 0, 0, 3)
    mu = gamma1_index(n)
    nuinf = sum(euler_phi(d) * euler_phi(n // d) for d in divisors(n)) // 2
    return _pack(mu, 0, 0, nuinf)


def gamma_full_invariants(n: int) -> dict:
    if n == 1:
        return gamma0_invariants(1)
    mu = gamma_full_index(n)
    return _pack(mu, 0, 0, mu // n)


def _pack(mu, nu2, nu3, nuinf) -> dict:
    genus = Fraction(1) + Fraction(mu, 12) - Fraction(nu2, 4) \
        - Fraction(nu3, 3) - Fraction(nuinf, 2)
    assert genus.denominator == 1
    return {
        "index": mu,
        "n_cusps": nuinf,
        "nu2": nu2,
        "nu3": nu3,
        "genus": int(genus),
    }


def dim_cusp_forms_gamma0(n: int, k: int) -> int:
    """dim S_k(Gamma0(N)) for even k >= 2 via the standard genus formula."""
    if k < 2 or k % 2:
        raise ValueError("weight must be even and at least 2")
    inv = gamma0_invariants(n)
    g, nu2, nu3, nuinf = inv["genus"], inv["nu2"], inv["nu3"], inv["n_cusps"]
    if k == 2:
        return g
    return (k - 1) * (g - 1) + (k // 2 - 1) * nuinf + (k // 4) * nu2 + (k // 3) * nu3


def dim_eisenstein_gamma0(n: int, k: int) -> int:
    """Number of independent Eisenstein series of even weight k for Gamma0(N)."""
    if k < 2 or k % 2:
        raise ValueError("weight must be even and at least 2")
    nuinf = gamma0_invariants(n)["n_cusps"]
    return nuinf - 1 if k == 2 else nuinf


def dim_modular_symbols_gamma0(n: int, k: int) -> int:
    """Expected dimension of the weight-k modular symbol space for Gamma0(N)."""
    return 2 * dim_cusp_forms_gamma0(n, k) + dim_eisenstein_gamma0(n, k)
