"""Independent checks of petersym CLI outputs.

Nothing here imports petersym.  Group invariants and dimensions come
from the classical formulas for Gamma0(N), Gamma1(N) and Gamma(N);
Hecke traces from a table of classical coefficients; bases and Hecke
matrices are compared through basis-invariant digests (the reduced row
echelon form of the span, the characteristic polynomial) that this
module computes itself and that were recorded from the seed program
(``reference.json``); q-expansions through their linearity in the
torsion function, against expansions of indicator functions recorded
from the seed program.

``check(job, text)`` returns None for a correct output and a one-line
reason otherwise.
"""

from __future__ import annotations

import functools
import hashlib
import json
from fractions import Fraction
from math import gcd
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Traces of T_ell on the full weight-k modular-symbol space of Gamma0(N):
# twice the trace on cusp forms plus the Eisenstein eigenvalues.
#   Gamma0(11), k=2: a_2 = -2, a_3 = -1, one Eisenstein series (1 + ell).
#   level 1, k=12: tau(2) = -24, tau(3) = 252, sigma_11(2), sigma_11(3).
#   level 1, k=24: trace of T_2 on S_24 is 1080, plus sigma_23(2).
#   Gamma0(37), k=2: a_5 = -2 (37a) and 0 (37b), plus 1 + 5.
HECKE_TRACES = {
    (11, 2, 2): -1,
    (11, 2, 3): 2,
    (1, 12, 2): 2001,
    (1, 12, 3): 177652,
    (1, 24, 2): 8390769,
    (37, 2, 5): 2,
}


# -- classical formulas -------------------------------------------------


def prime_factors(n: int) -> list[int]:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def phi(n: int) -> int:
    out = n
    for p in prime_factors(n):
        out = out // p * (p - 1)
    return out


def _with_genus(index: int, nu2: int, nu3: int, cusps: int) -> dict:
    genus = Fraction(1) + Fraction(index, 12) - Fraction(nu2, 4) \
        - Fraction(nu3, 3) - Fraction(cusps, 2)
    if genus.denominator != 1:
        raise ArithmeticError("non-integral genus")
    return {"index": index, "n_cusps": cusps, "nu2": nu2, "nu3": nu3,
            "genus": int(genus)}


def invariants(group: str, n: int) -> dict:
    """Projective index in PSL2(Z), elliptic points, cusps and genus."""
    primes = prime_factors(n)
    if group == "gamma0" or n == 1 or (group == "gamma1" and n == 2):
        index = n
        for p in primes:
            index = index // p * (p + 1)
        nu2 = 0 if n % 4 == 0 else _product(1 + _legendre_minus1(p) for p in primes)
        nu3 = 0 if n % 9 == 0 else _product(1 + _legendre_minus3(p) for p in primes)
        cusps = sum(phi(gcd(d, n // d)) for d in range(1, n + 1) if n % d == 0)
        return _with_genus(index, nu2, nu3, cusps)
    if group == "gamma1":
        index = n * n
        for p in primes:
            index = index // (p * p) * (p * p - 1)
        index //= 2
        if n == 4:
            return _with_genus(index, 0, 0, 3)
        nu3 = 1 if n == 3 else 0
        cusps = sum(phi(d) * phi(n // d) for d in range(1, n + 1) if n % d == 0) // 2
        return _with_genus(index, 0, nu3, cusps)
    if group == "gamma":
        index = n ** 3
        for p in primes:
            index = index // (p * p) * (p * p - 1)
        if n > 2:
            index //= 2
        return _with_genus(index, 0, 0, index // n)
    raise ValueError(f"unknown group {group!r}")


def _product(values) -> int:
    out = 1
    for v in values:
        out *= v
    return out


def _legendre_minus1(p: int) -> int:
    """(-1/p), with the value 0 at p = 2 (where 2 | N but 4 does not)."""
    return 0 if p == 2 else (1 if p % 4 == 1 else -1)


def _legendre_minus3(p: int) -> int:
    return 0 if p == 3 else (1 if p % 3 == 1 else -1)


def dim_cusp_forms_gamma0(n: int, k: int) -> int:
    inv = invariants("gamma0", n)
    g, nu2, nu3, c = inv["genus"], inv["nu2"], inv["nu3"], inv["n_cusps"]
    if k == 2:
        return g
    return (k - 1) * (g - 1) + (k // 2 - 1) * c + (k // 4) * nu2 + (k // 3) * nu3


def dim_modular_symbols_gamma0(n: int, k: int) -> int:
    """2 dim S_k + dim E_k, the full weight-k symbol space of Gamma0(N)."""
    c = invariants("gamma0", n)["n_cusps"]
    return 2 * dim_cusp_forms_gamma0(n, k) + (c - 1 if k == 2 else c)


def member(group: str, n: int, g) -> bool:
    """Projective membership of an integral matrix of determinant 1."""
    a, b, c, d = (x % n for x in g)
    units = {(1 % n, 1 % n), ((-1) % n, (-1) % n)}
    if group == "gamma0":
        return c == 0
    if group == "gamma1":
        return c == 0 and (a, d) in units
    if group == "gamma":
        return b == 0 and c == 0 and (a, d) in units
    raise ValueError(f"unknown group {group!r}")


# -- exact linear algebra ----------------------------------------------


def rref_digest(vectors, ncols: int) -> str:
    """Digest of the reduced row echelon form of the span of `vectors`."""
    pivots: dict[int, dict[int, Fraction]] = {}   # kept fully reduced
    for vec in vectors:
        row = {j: v for j, v in enumerate(vec) if v}
        for lead in [j for j in row if j in pivots]:
            if lead in row:
                _axpy(row, -row[lead], pivots[lead])
        if not row:
            continue
        lead = min(row)
        inv = 1 / row[lead]
        row = {j: v * inv for j, v in row.items()}
        for other in pivots.values():
            if lead in other:
                _axpy(other, -other[lead], row)
        pivots[lead] = row
    text = ";".join(
        ",".join(f"{j}:{frac_str(v)}" for j, v in sorted(pivots[lead].items()))
        for lead in sorted(pivots)
    )
    return _sha(f"{ncols}|{text}")


def _axpy(row: dict, scale: Fraction, other: dict) -> None:
    """row += scale * other, dropping entries that cancel."""
    for j, v in other.items():
        w = row.get(j, 0) + scale * v
        if w:
            row[j] = w
        else:
            row.pop(j, None)


def charpoly(mat) -> list[Fraction]:
    """det(xI - A), highest degree first, by Hessenberg reduction."""
    n = len(mat)
    h = [[Fraction(x) for x in row] for row in mat]
    for m in range(1, n - 1):
        piv = next((i for i in range(m, n) if h[i][m - 1]), None)
        if piv is None:
            continue
        if piv != m:
            h[piv], h[m] = h[m], h[piv]
            for row in h:
                row[piv], row[m] = row[m], row[piv]
        for i in range(m + 1, n):
            u = h[i][m - 1] / h[m][m - 1]
            if u:
                for j in range(n):
                    h[i][j] -= u * h[m][j]
                for row in h:
                    row[m] += u * row[i]
    # p[k]: characteristic polynomial of the leading k x k block, low degree first
    p = [[Fraction(1)]]
    for k in range(1, n + 1):
        nxt = [Fraction(0)] + p[k - 1]
        for i, c in enumerate(p[k - 1]):
            nxt[i] -= h[k - 1][k - 1] * c
        prod = Fraction(1)
        for i in range(1, k):
            prod *= h[k - i][k - i - 1]
            coef = h[k - i - 1][k - 1] * prod
            if coef:
                for j, c in enumerate(p[k - i - 1]):
                    nxt[j] -= coef * c
        p.append(nxt)
    return list(reversed(p[n]))


def charpoly_digest(mat) -> str:
    return _sha(",".join(frac_str(c) for c in charpoly(mat)))


def frac_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:32]


# -- cyclotomic reduction (q-expansion coefficients) ------------------


def cyclotomic(n: int) -> list[int]:
    """Coefficients of Phi_n, low degree first."""
    poly = [-1] + [0] * (n - 1) + [1]          # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly = _divide(poly, cyclotomic(d))
    return poly


def _divide(num: list[int], den: list[int]) -> list[int]:
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        q = num[i + len(den) - 1] // den[-1]
        out[i] = q
        for j, c in enumerate(den):
            num[i + j] -= q * c
    if any(num):
        raise ArithmeticError("inexact cyclotomic division")
    return out


def reduce_cyclotomic(coeffs, n: int) -> tuple[Fraction, ...]:
    """Sum c_j zeta_n^j as a vector on 1, zeta, ..., zeta^(phi(n)-1)."""
    mod = cyclotomic(n)
    deg = len(mod) - 1
    vec = [Fraction(c) for c in coeffs]
    for i in range(len(vec) - 1, deg - 1, -1):
        c = vec[i]
        if c:
            for j, m in enumerate(mod):
                vec[i - deg + j] -= c * m
    vec = (vec + [Fraction(0)] * deg)[:deg]
    return tuple(vec)


def qexp_series(data: dict, n: int) -> list[tuple]:
    """Constant term and coefficients of a qexp output, reduced mod Phi_n."""
    rows = [data["constant"]] + data["coefficients"]
    return [reduce_cyclotomic([Fraction(c) for c in row], n) for row in rows]


# -- per-command checks ------------------------------------------------


@functools.cache
def reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def check(job: dict, text: str) -> str | None:
    try:
        data = json.loads(text)
    except ValueError as exc:
        return f"output is not JSON: {exc}"
    try:
        return CHECKS[job["command"]](job, data)
    except (KeyError, IndexError, TypeError, ValueError, ArithmeticError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"


def _check_farey(job, data):
    expected = invariants(job["group"], job["level"])
    if data["invariants"] != expected:
        return f"invariants {data['invariants']} != classical {expected}"
    for g in data["glue"]:
        if g[0] * g[3] - g[1] * g[2] != 1:
            return f"glue matrix {g} does not have determinant 1"
        if not member(job["group"], job["level"], g):
            return f"glue matrix {g} is not in the group"
    if len(data["mu"]) != len(data["glue"]) or len(data["star"]) != len(data["glue"]):
        return "arc lists differ in length"
    return None


def _basis_vectors(data):
    return [[Fraction(c) for block in vec for c in block] for vec in data["basis"]]


def digest(job: dict, data: dict) -> str:
    """Basis-invariant digest of a modsym-space, cuspidal or hecke output."""
    if job["command"] == "hecke":
        return charpoly_digest([[Fraction(x) for x in row] for row in data["matrix"]])
    group = job.get("group", "gamma0")
    ncols = invariants(group, job["level"])["index"] * (job["weight"] - 1)
    return rref_digest(_basis_vectors(data), ncols)


def _check_digest(job, data):
    want = reference()["digests"].get(job["key"])
    if want is None:
        return f"no recorded digest for {job['key']}"
    got = digest(job, data)
    if got != want:
        return f"digest {got} != recorded {want}"
    return None


def _check_space(job, data):
    group, n, k = job["group"], job["level"], job["weight"]
    if k != 2:
        raise ValueError("space checks cover weight 2 only")
    inv = invariants(group, n)
    if data["cosets"] != inv["index"]:
        return f"{data['cosets']} cosets, classical index {inv['index']}"
    want = 2 * inv["genus"] + inv["n_cusps"] - 1
    if data["dimension"] != want or len(data["basis"]) != want:
        return f"dimension {data['dimension']} != 2g + c - 1 = {want}"
    if any(len(v) != inv["index"] * (k - 1) for v in _basis_vectors(data)):
        return "basis vector of the wrong length"
    return _check_digest(job, data)


def _check_cuspidal(job, data):
    n, k = job["level"], job["weight"]
    want = 2 * dim_cusp_forms_gamma0(n, k)
    if data["dimension"] != want or len(data["basis"]) != want:
        return f"cuspidal dimension {data['dimension']} != 2 dim S_k = {want}"
    ncols = invariants("gamma0", n)["index"] * (k - 1)
    if any(len(v) != ncols for v in _basis_vectors(data)):
        return "basis vector of the wrong length"
    return _check_digest(job, data)


def _check_hecke(job, data):
    n, k, ell = job["level"], job["weight"], job["ell"]
    mat = [[Fraction(x) for x in row] for row in data["matrix"]]
    size = dim_modular_symbols_gamma0(n, k)
    if len(mat) != size or any(len(row) != size for row in mat):
        return f"matrix is not {size} x {size}"
    trace = sum(mat[i][i] for i in range(size))
    want = HECKE_TRACES.get((n, k, ell))
    if want is not None and trace != want:
        return f"trace {trace} != classical {want}"
    return _check_digest(job, data)


def _check_qexp(job, data):
    n = job["level"]
    ref = reference()["qexp"].get(job["key"])
    if ref is None:
        return f"no recorded indicator expansions for {job['key']}"
    want = [[Fraction(0)] * len(row) for row in ref["0,0"]]
    for point, value in job["values"].items():
        value = Fraction(value)
        for row, ref_row in zip(want, ref[point]):
            for i, c in enumerate(ref_row):
                row[i] += value * Fraction(c)
    got = qexp_series(data, n)
    if len(got) != len(want):
        return f"{len(got) - 1} q-expansion coefficients, expected {len(want) - 1}"
    for t, (row, want_row) in enumerate(zip(got, want)):
        if list(row) != want_row:
            return f"q-expansion coefficient {t} differs from the recorded linear combination"
    return None


def _check_verify(job, data):
    if data.get("status") != "pass":
        return f"verify suite {job['suite']} reports {data.get('status')!r}"
    failing = [c["name"] for c in data["checks"] if c["status"] != "pass"]
    if failing or not data["checks"]:
        return f"verify suite {job['suite']} failing checks: {failing}"
    return None


CHECKS = {
    "farey": _check_farey,
    "modsym-space": _check_space,
    "cuspidal": _check_cuspidal,
    "hecke": _check_hecke,
    "qexp": _check_qexp,
    "verify": _check_verify,
}
