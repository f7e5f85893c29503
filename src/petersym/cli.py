"""Command-line front end; every subcommand prints a JSON document.

Exit codes: 2 for usage errors (including an input file that cannot
be read, is not JSON, or lacks a field or has one of the wrong type,
and an output file that cannot be written), 3 for violated
mathematical preconditions (a level below 1, a weight below 2, no
terms, odd weight with -Id, and a job whose predicted time or output
is above its budget, all refused by `_admit` before any unfolding,
file read or elimination; then a group whose index exceeds the coset
bound, a `--parent` group that does not contain the group, a Hecke
index that is not prime, weight-2 data not vanishing at the origin,
...),
4 for numeric verification failures, including a quadrature that
misses its error target.  A ValueError or FareyError raised by the
library on the given arguments is reported as a violated precondition.
Output is deterministic: cosets in discovery order, arcs in symbol
order, basis vectors in echelon order.  The document is written with
the bytes of json.dumps(result, indent=2, sort_keys=True), by a writer
that joins the lists of strings and ints in one step, and each basis
vector from its nonzero entries in one join.  A plain argv is read
straight from the command table; help and every usage error come from
the argparse parser of all the commands, built only for them.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from itertools import chain
from math import gcd, isqrt, log
from operator import index
from types import SimpleNamespace

from .dims import (dim_cusp_forms_gamma0, dim_modular_symbols_gamma0, gamma0_index,
                   gamma0_invariants, gamma1_index, gamma_full_index)
from .eisenstein import EisSymbol, TorsionFunction
from .exact import frac_str
from .farey import (
    MAX_INDEX,
    FareyError,
    base_symbol_sl2z,
    gamma0_group,
    gamma1_group,
    gamma_full_group,
    subgroup_farey,
)
from .orbits import basis_v, orbit_card, orbit_indicators
from .pairing import (
    cuspidal_subspace,
    eisenstein_pairing_matrix,
    hecke_matrix,
    pairing_matrix,
)
from .spaces import build_space

USAGE_ERROR = 2
MATH_ERROR = 3
PRECISION_ERROR = 4

# The budgets of one job, which `_admit` checks before any work: its
# predicted seconds end to end on a 2-CPU VM, and the predicted bytes of
# its JSON document.  The document is held about three times over until
# it is written, so the output budget bounds the peak RSS.
TIME_BUDGET = 10.0
OUTPUT_BUDGET = 4 * 10**7


class UsageError(Exception):
    pass


class MathPreconditionError(Exception):
    pass


def _read_input(path: str, build):
    """build(data) for the JSON document data of an input file.

    A file that cannot be read or parsed, lacks a field, or holds a
    value of the wrong type for `build` is a usage error.
    """
    try:
        with open(path) as fh:
            data = json.load(fh)
        return build(data)
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
        raise UsageError(f"input file {path}: {type(exc).__name__}: {exc}") from exc


_GROUPS = {
    "gamma0": (gamma0_group, gamma0_index),
    "gamma1": (gamma1_group, gamma1_index),
    "gamma": (gamma_full_group, gamma_full_index),
}


def _cost(command: str, n: int, k: int, index: int, dim: int, orbits: int,
          points: int, ell: int, terms: int) -> tuple[float, float]:
    """(seconds, bytes of JSON) of one job, predicted from its sizes.

    The sizes are the level n, the weight k, the group's index, the
    dimension of the space (of the printed basis for `cuspidal`, 0 where
    it is unknown), the number of basis orbits and of their points,
    ell >= 2 and the number of terms.  Every formula grows with each size.
    """
    cells = index * (k - 1)  # coefficients of one coset vector
    # the unfolding, and the kernel above weight 2
    space = 1.45e-5 * index + (
        3.2e-8 * index ** 1.3 * k ** 3.2 + 1e-12 * index * k ** 5 if k > 2 else 0)
    if command == "farey":
        seconds, size = 1.45e-5 * index, 35 * index
    elif command == "modsym-space":
        seconds, size = space, dim * index * ((k - 1) * (14 + k) + 16)
    elif command == "eisbasis":
        seconds, size = (1.5e-7 + 4.5e-7 * orbits) * n * n, 15 * orbits * n * n
    elif command == "eis-symbol":
        seconds = 5.6e-9 * k ** 3 + 3.8e-9 * n ** 1.5 * k ** 2.5 + (2e-7 * k + 3e-6) * n * n
        size = 4 * k * k
    elif command == "pairing-matrix":
        seconds = space + cells ** 2 * (1.5e-7 + 3e-8 * k) + 1e-7 * (cells * k) ** 1.5
        size = (cells / 6 + 1) ** 2 * (10 + 1.5 * k)
    elif command in ("pairing-matrix --eisenstein", "cuspidal"):
        # the k twist sums over each basis orbit's points at every coset
        # its walks reach, its cocycle on the glues, and its pairing with
        # the space
        seconds = space + 1.8e-7 * points * index * k + 6e-7 * orbits * index * k * k \
            + 8e-10 * orbits * cells * index * k * k + 4e-8 * k ** 3
        size = dim * index * ((k - 1) * (14 + 3 * k) + 16) if command == "cuspidal" \
            else orbits * (cells / 6 + 1) * (10 + 5 * k)
    elif command == "hecke":
        # X_ell is enumerated in ell^2 / 2 steps, and each free coset acts
        # by all of it; 3 ell log(ell) is within 10% of |X_ell| for
        # 200 < ell < 2000 (Merel)
        seconds = space + 5e-7 * ell * ell + 4.8e-7 * ell * log(ell) * (
            45 * min(index, dim) + (dim + k) * (k * k + 6 * k) / 6)
        size = dim * dim * (12 + k * log(ell))
    else:  # qexp: the Bernoulli number, then N-entry brackets for every n m <= terms
        seconds = 2e-9 * k ** 3 + 3e-6 * n * n \
            + terms * log(terms + 1) * (1.3e-6 + 3e-7 * n) * (1 + k / 100)
        size = n * (terms + 1) * (18 + (k - 1) * log(terms + 1, 10))
    # a cold process, and the writing of the document
    return 0.06 + seconds + 1e-8 * size, size


def _check_cost(command: str, *sizes: int) -> None:
    """Refuse a job whose predicted time or output is above its budget."""
    try:
        seconds, size = _cost(command, *sizes)
    except OverflowError:  # a size beyond any float
        seconds = size = float("inf")
    if seconds > TIME_BUDGET or size > OUTPUT_BUDGET:
        raise MathPreconditionError(
            f"{command} would take about {seconds:.2g} s and write about {size:.2g} bytes, "
            f"above the budget of {TIME_BUDGET:g} s or {OUTPUT_BUDGET:g} bytes"
        )


_SPACE_COMMANDS = ("modsym-space", "pairing-matrix", "hecke", "cuspidal")


# The formulas of `_cost` are fitted to cold CLI runs on a 2-CPU VM, in
# seconds measured / predicted, and the largest admitted job of each
# command took (seconds, peak RSS):
#   farey Gamma0(N), N = 10007, 30011, 99991: 0.18/0.21, 0.39/0.51, 1.36/1.54;
#     Gamma0(334578) through Gamma0(6): 7.5 s, 338 MB
#   modsym-space (1200, 2) 0.46/0.55 (no output budget), (30, 50) 3.50/3.69,
#     (1, 300) 4.32/5.24; (1, 350): 9.9 s, 62 MB; (1248, 2), 35 MB out: 0.36 s, 118 MB
#   eisbasis (100, 2) 0.31/0.16, (300, 2) 1.81/1.96, (500, 4) 4.63/4.60;
#     (288, 2), 39 MB written: 1.2 s, 328 MB
#   eis-symbol (7, 522) 1.35/1.31, (100, 150) 1.79/1.46, (1, 1000) 5.98/5.82;
#     (1, 1200): 8.9 s, 24 MB
#   pairing-matrix (1200, 2) 1.90/1.93, (60, 12) 1.79/1.68, (1, 150) 0.65/0.87;
#     (3400, 2): 9.0 s, 263 MB; (1, 310): 10.9 s, 60 MB
#   pairing-matrix --eisenstein (500, 2) 1.16/1.15, (997, 2) 0.43/0.44,
#     (1000, 2) 4.28/4.80, (30, 20) 0.51/0.58; (3462, 2): 9.6 s, 52 MB
#   hecke (11, 48, 101) 13.9/14.1, (37, 4, 1009) 3.11/4.12, (11, 2, 5987)
#     21.7/21.7; (11, 42, 101): 7.5 s, 114 MB; (11, 2, 3907): 8.0 s, 58 MB
#   cuspidal (500, 2) 1.22/1.19, (997, 2) 0.47/0.50, (1000, 2) 4.60/4.97,
#     (1, 300) 6.09/6.49; (882, 2): 9.4 s, 113 MB; (1, 334): 10.1 s, 70 MB
#   qexp (1, 2, 300000) 6.23/6.31, (7, 6, 30000) 1.19/1.26, (1, 1500, 5)
#     7.37/6.81; (1, 2, 461000): 9.3 s, 178 MB; (1, 1706, 5): 11.1 s, 17 MB
def _admit(args) -> None:
    """Refuse, before any unfolding, file read or elimination, a job whose
    arguments break a precondition or whose predicted cost is above a budget.
    """
    command = args.command
    if command == "verify":
        return
    n, k = args.level, getattr(args, "weight", 2)
    ell, terms = getattr(args, "ell", 2), getattr(args, "terms", 1)
    group = getattr(args, "group", "gamma0")
    if n < 1:
        raise MathPreconditionError("level must be positive")
    if k < 2:
        raise MathPreconditionError("weight must be at least 2")
    if terms < 1:
        raise MathPreconditionError(f"--terms must be at least 1 (got {terms})")
    # -Id is in every Gamma0(N), and in Gamma1(N) and Gamma(N) for N <= 2 only
    if k % 2 and command in _SPACE_COMMANDS and (group == "gamma0" or n <= 2):
        raise MathPreconditionError("odd weight with -Id in the group: the space is zero")
    if getattr(args, "eisenstein", False):
        command += " --eisenstein"
    ell = max(ell, 2)
    # every size below is at least the one given here (the index is at
    # least the level) and every prediction grows with each size, so a
    # huge level is refused before it is factored
    _check_cost(command, n, k, n, 0, 0, 0, ell, terms)
    index = _GROUPS[group][1](n)
    dim = orbits = points = 0
    if command in ("modsym-space", "hecke") and group == "gamma0":
        dim = dim_modular_symbols_gamma0(n, k)
    elif command == "cuspidal":
        dim = 2 * dim_cusp_forms_gamma0(n, k)
    if command in ("eisbasis", "cuspidal", "pairing-matrix --eisenstein"):
        # one basis orbit per cusp of Gamma0(N), less one at weight 2
        orbits = gamma0_invariants(n)["n_cusps"] - (k == 2)
    if command in ("cuspidal", "pairing-matrix --eisenstein"):
        points = sum(orbit_card(t, n) for t in basis_v(n, k))
    _check_cost(command, n, k, index, dim, orbits, points, ell, terms)


def _check_index(kind: str, level: int, parent_index: int = 1) -> int:
    """The group's index, refusing a group whose unfolding would discover
    too many cosets.

    Every index is at least the level, so a huge level is refused
    before it is factored.
    """
    if kind not in _GROUPS:
        raise MathPreconditionError(f"unknown group kind {kind!r}")
    group_index = _GROUPS[kind][1]
    if level > MAX_INDEX * parent_index or group_index(level) // parent_index > MAX_INDEX:
        raise MathPreconditionError(
            f"{kind}({level}) has more than {MAX_INDEX} cosets in its parent group"
        )
    return group_index(level)


def _symbol(kind: str, level: int, parent=None):
    """The symbol of the group, unfolded from the parent's symbol.

    The unfolding finds the intersection of the group with the parent,
    which is the group itself exactly when its index is the group's.
    An index that the parent's does not divide is refused beforehand.
    """
    if level < 1:
        raise MathPreconditionError("level must be positive")
    if parent is None:
        parent = base_symbol_sl2z()
    group_index = _check_index(kind, level, parent.index)
    refused = MathPreconditionError(f"{kind}({level}) is not a subgroup of the parent group")
    if group_index % parent.index:
        raise refused
    sym, _ = subgroup_farey(parent, _GROUPS[kind][0](level))
    if sym.index != group_index:
        raise refused
    return sym


def _space(group: str, level: int, weight: int):
    sym = _symbol(group, level)
    return sym, build_space(sym, weight)


def cmd_farey(args):
    parent = None
    if args.parent:
        group, level = _read_input(args.parent, lambda d: (str(d["group"]), index(d["level"])))
        parent = _symbol(group, level)
    sym = _symbol(args.group, args.level, parent)
    data = sym.to_json()
    data["invariants"] = sym.invariants()
    return data


class _BasisJSON:
    """Coset vectors that `_dumps` writes from their integer numerators.

    Each vector is written as the list of one (k-1)-tuple of coefficient
    strings per coset, in the bytes json.dumps would give at the
    vector's indentation: every cell is one zero-cell string but the
    cells of the cosets the vector touches, and the vector is one join.
    """

    def __init__(self, basis, cosets: int, k: int):
        self.basis = basis
        self.cosets = cosets
        self.n = k - 1

    def dumps(self, nl: str) -> str:
        if not self.basis:
            return "[]"
        n = self.n
        inner = nl + "  "
        # a vector sits on the `inner` line, its cells one level in, and
        # the cell's coefficients one more
        cell_nl = inner + "  "
        leaf_nl = cell_nl + "  "
        open_cell, close_cell = "[" + leaf_nl, cell_nl + "]"
        leaf_sep = "," + leaf_nl
        zero = _encode_str("0")
        zero_cell = open_cell + leaf_sep.join([zero] * n) + close_cell
        cell_sep = "," + cell_nl
        texts = []
        for b in self.basis:
            den = b.den
            cells = [zero_cell] * self.cosets
            touched = {}
            for j, x in b.nums.items():
                c, s = divmod(j, n)
                leaves = touched.get(c)
                if leaves is None:
                    leaves = touched[c] = [zero] * n
                g = gcd(x, den)
                leaves[s] = _encode_str(str(x // g) if g == den else f"{x // g}/{den // g}")
            for c, leaves in touched.items():
                cells[c] = open_cell + leaf_sep.join(leaves) + close_cell
            texts.append("[" + cell_nl + cell_sep.join(cells) + inner + "]")
        return "[" + inner + ("," + inner).join(texts) + nl + "]"


def cmd_modsym_space(args):
    sym, space = _space(args.group, args.level, args.weight)
    cosets = len(sym.require_direct_table().reps)
    # dims gives no dimension over Gamma1(N) or Gamma(N): the output is
    # checked again on the built space, before any JSON is made
    _check_cost("modsym-space", args.level, args.weight, cosets, space.dimension(), 0, 0, 2, 1)
    return {
        "level": args.level,
        "weight": args.weight,
        "dimension": space.dimension(),
        "cosets": cosets,
        "basis": _BasisJSON(space.basis, cosets, args.weight),
    }


def cmd_eisbasis(args):
    triples = basis_v(args.level, args.weight)
    return {
        "level": args.level,
        "weight": args.weight,
        "triples": [list(t) for t in triples],
        "indicators": [f.to_json() for f in orbit_indicators(triples, args.level)],
    }


def _load_fn(path: str) -> TorsionFunction:
    return _read_input(path, lambda d: TorsionFunction(index(d["N"]), d["values"]))


def cmd_eis_symbol(args):
    f = _load_fn(args.fn)
    if f.n != args.level:
        raise MathPreconditionError("function level does not match --level")
    sym = EisSymbol(f, args.weight)
    return {
        "level": args.level,
        "weight": args.weight,
        "base_value": sym.p_mod.to_json(),
        "infinity_moment": frac_str(sym.c_inf),
    }


def cmd_pairing_matrix(args):
    sym, space = _space(args.group, args.level, args.weight)
    if args.eisenstein:
        rows = eisenstein_pairing_matrix(sym, args.level, args.weight, space)
    else:
        rows = pairing_matrix(sym, space.basis, space.basis)
    return {
        "level": args.level,
        "weight": args.weight,
        "rows": len(rows),
        "cols": space.dimension(),
        "matrix": [[frac_str(v) for v in row] for row in rows],
    }


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % p for p in range(2, isqrt(n) + 1))


def cmd_hecke(args):
    if not _is_prime(args.ell):
        raise MathPreconditionError(
            f"--ell must be a prime (got {args.ell}); only the prime Hecke "
            "operators are built"
        )
    _, space = _space("gamma0", args.level, args.weight)
    mat = hecke_matrix(space, args.level, args.ell)
    return {
        "level": args.level,
        "weight": args.weight,
        "ell": args.ell,
        "matrix": [[frac_str(v) for v in row] for row in mat],
    }


def cmd_cuspidal(args):
    expected = 2 * dim_cusp_forms_gamma0(args.level, args.weight)
    _, basis = cuspidal_subspace(args.level, args.weight)
    return {
        "level": args.level,
        "weight": args.weight,
        "dimension": len(basis),
        "expected": expected,
        "basis": _BasisJSON(basis, gamma0_index(args.level), args.weight),
    }


def cmd_qexp(args):
    from .qexp import eis_qexp

    f = _load_fn(args.fn)
    if f.n != args.level:
        raise MathPreconditionError("function level does not match --level")
    q = eis_qexp(f, args.weight, args.terms)
    return {
        "level": args.level,
        "weight": args.weight,
        "terms": args.terms,
        "constant": [frac_str(c) for c in q.constant.coeffs],
        "coefficients": [
            [frac_str(c) for c in q.coefficient(t).coeffs]
            for t in range(1, args.terms + 1)
        ],
    }


def cmd_verify(args):
    from math import comb

    from .pairing import lambda_coeffs
    from .qexp import (
        delta_periods,
        l_special,
        l_special_numeric,
        mellin_numeric,
        mellin_rational,
        period_haberland,
        petersson_norm_delta,
    )

    report = {"suite": args.suite, "checks": []}
    ok = True

    def record(name, residual, tol, error=None):
        """Add one check; a check whose computation failed has no residual."""
        nonlocal ok
        passed = error is None and residual < tol
        ok = ok and passed
        check = {
            "name": name, "residual": residual, "tolerance": tol,
            "status": "pass" if passed else "fail",
        }
        if error is not None:
            check["error"] = error
        report["checks"].append(check)

    if args.suite == "mellin":
        for n in (3, 4, 5):
            for k in (4, 6):
                f = TorsionFunction.indicator(n, (1, 0)) \
                    + TorsionFunction.indicator(n, (1, 2)).scale(Fraction(1, 2))
                js = range(1, k - 2)
                for j, numeric in zip(js, mellin_numeric(f, k, js)):
                    exact = complex(float(mellin_rational(f, k, j)))
                    rel = abs(numeric - exact) / max(1.0, abs(exact))
                    record(f"mellin N={n} k={k} j={j} (relative)", rel, 1e-8)
        for n in range(1, 7):
            for h in (2, 3, 4):
                g = [Fraction((a * a + h) % n - n // 2, 1 + (a % 3)) for a in range(n)]
                exact = float(l_special(g, h))
                numeric = l_special_numeric([float(x) for x in g], h)
                record(f"l-value N={n} h={h} (absolute)", abs(numeric - exact), 1e-10)
    elif args.suite == "delta":
        r = delta_periods()
        scale = max(abs(x) for x in r)
        odd = abs(sum(comb(10, m) * r[m] for m in range(1, 11, 2))) / scale
        record("odd binomial relation (relative)", odd, 1e-8)
        lam = [float(x) for x in lambda_coeffs(12)]
        even = abs(sum(l * r[m] for l, m in zip(lam, range(0, 11, 2)))) / scale
        record("even coefficient relation (relative)", even, 1e-8)
    elif args.suite == "petersson":
        r = delta_periods()
        scale = max(abs(x) for x in r)
        name = "pairing vs quadrature norm (relative)"
        try:
            norm = petersson_norm_delta()
        except ArithmeticError as exc:
            record(name, None, 1e-6, error=str(exc))
        else:
            hab = period_haberland(r, [x.conjugate() for x in r])
            target = -(2j) ** 11 * norm
            record(name, abs(hab - target) / abs(target), 1e-6)
        record("self pairing (absolute, normalized)",
               abs(period_haberland(r, r)) / scale ** 2, 1e-8)
    else:
        raise MathPreconditionError(f"unknown suite {args.suite!r}")

    report["status"] = "pass" if ok else "fail"
    return report, (0 if ok else PRECISION_ERROR)


_encode_str = json.encoder.encode_basestring_ascii
_ARRAYS = (list, tuple)
_LEAVES = {str: _encode_str, int: int.__repr__}


def _leaf_encoder(kinds: set):
    """The encoder of a list whose items have the types `kinds`, if they are
    all strings or all ints; else None."""
    return _LEAVES.get(next(iter(kinds))) if len(kinds) == 1 else None


def _dumps(obj, nl: str = "\n") -> str:
    """The bytes of json.dumps(obj, indent=2, sort_keys=True), by string joins.

    `nl` is a newline and the indentation of obj's line.  Strings go
    through the C string encoder and ints through int.__repr__.  A list
    of strings or of ints is one join; so is a list of cells of one
    width that hold only strings or only ints (a Hecke or pairing
    matrix): all the leaves are joined at once with a repeated list of
    the separators inside a cell and between cells, with no
    Python-level step per cell.  A `_BasisJSON` writes itself at obj's
    indentation.  json.dumps with an indent runs the pure-Python
    encoder.  Any other
    value is handed to json.dumps and re-indented: its strings are
    ASCII-escaped, so each newline of its text is a line break.
    """
    kind = type(obj)
    if kind is str:
        return _encode_str(obj)
    if kind is int:
        return int.__repr__(obj)
    if kind in _ARRAYS:
        if not obj:
            return "[]"
        inner = nl + "  "
        sep = "," + inner
        kinds = set(map(type, obj))
        encode = _leaf_encoder(kinds)
        if encode is not None:
            return "[" + inner + sep.join(map(encode, obj)) + nl + "]"
        if kinds.issubset(_ARRAYS) and obj[0] and len(set(map(len, obj))) == 1:
            leaves = list(chain.from_iterable(obj))
            encode = _leaf_encoder(set(map(type, leaves)))
            if encode is not None:
                cell = inner + "  "
                seps = ["," + cell] * (len(obj[0]) - 1) + [inner + "]," + inner + "[" + cell]
                parts = [""] * (2 * len(leaves) - 1)
                parts[::2] = map(encode, leaves)
                parts[1::2] = (seps * len(obj))[:-1]
                return "[" + inner + "[" + cell + "".join(parts) + inner + "]" + nl + "]"
        return "[" + inner + sep.join([_dumps(x, inner) for x in obj]) + nl + "]"
    if kind is _BasisJSON:
        return obj.dumps(nl)
    if kind is dict and obj and all(type(key) is str for key in obj):
        inner = nl + "  "
        return "{" + inner + ("," + inner).join(
            _encode_str(key) + ": " + _dumps(obj[key], inner) for key in sorted(obj)
        ) + nl + "}"
    return json.dumps(obj, indent=2, sort_keys=True).replace("\n", nl)


_LEVEL = ("--level", {"type": int, "required": True})
_WEIGHT = ("--weight", {"type": int, "required": True})
_GROUP = ("--group", {"choices": ["gamma0", "gamma1", "gamma"], "default": "gamma0"})
_FN = ("--fn", {"required": True, "help": "TorsionFunction JSON file"})


def _commands() -> list:
    """(name, help, function, arguments) of every subcommand, in the order
    of the help text; an argument is (flag, keyword arguments of
    add_argument).

    The list is made on each call, so that it holds the module's cmd_*
    functions as they are when an argv is read: the benchmark's tracer
    replaces them with timed wrappers.
    """
    return [
        ("farey", "Farey symbol of a congruence subgroup", cmd_farey, [
            _LEVEL, _GROUP, ("--parent", {"help": "JSON file {group, level} to build through"})]),
        ("modsym-space", "basis of the symbol space", cmd_modsym_space,
         [_LEVEL, _WEIGHT, _GROUP]),
        ("eisbasis", "basis orbits and indicator functions", cmd_eisbasis, [_LEVEL, _WEIGHT]),
        ("eis-symbol", "period data of a torsion function", cmd_eis_symbol,
         [_LEVEL, _WEIGHT, _FN]),
        ("pairing-matrix", "pairing matrix on the basis", cmd_pairing_matrix, [
            _LEVEL, _WEIGHT, _GROUP,
            ("--eisenstein", {"action": "store_true",
                              "help": "rows over basis Eisenstein symbols instead"})]),
        ("hecke", "Hecke operator matrix over Gamma0(N)", cmd_hecke, [
            _LEVEL, _WEIGHT, ("--ell", {"type": int, "required": True})]),
        ("cuspidal", "cuspidal subspace basis", cmd_cuspidal, [_LEVEL, _WEIGHT]),
        ("qexp", "q-expansion of the weight-k series", cmd_qexp, [
            _LEVEL, _WEIGHT, ("--terms", {"type": int, "default": 10}), _FN]),
        ("verify", "numeric verification suites", cmd_verify, [
            ("--suite", {"choices": ["mellin", "delta", "petersson"], "required": True})]),
    ]


def build_parser():
    """The argparse parser of every subcommand.

    `parse_args` builds it only for an argv that `_read_plain` does not
    take, so that help and every usage error come from it.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="petersym",
        description="Exact modular symbols, Farey symbols and the algebraic pairing",
    )
    parser.add_argument("--output", help="write the JSON result to this file")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text, func, arguments in _commands():
        p = sub.add_parser(name, help=text)
        for flag, options in arguments:
            p.add_argument(flag, **options)
        p.set_defaults(func=func)
    return parser


def _read_plain(argv: list[str]) -> SimpleNamespace | None:
    """The namespace `build_parser().parse_args` gives for a plain argv, else None.

    A plain argv is an optional `--output VALUE`, a command, and each
    of the command's flags at most once, in any order, with every
    required one: `--flag VALUE`, or the flag alone for a store_true
    one.  A value does not start with "-", an int is ASCII digits that
    int() reads, and a value with choices is one of them.  Help,
    abbreviations, `=` forms, `--` and anything else give None.
    """
    output = None
    if argv[:1] == ["--output"] and argv[1:2] and not argv[1].startswith("-"):
        output, argv = argv[1], argv[2:]
    for name, _, func, arguments in _commands():
        if argv[:1] == [name]:
            break
    else:
        return None
    values = {"output": output, "command": name}
    unread = dict(arguments)
    tokens = iter(argv[1:])
    for flag in tokens:
        opts = unread.pop(flag, None)
        if opts is None:
            return None
        value = True  # a store_true flag
        if "action" not in opts:
            value = next(tokens, "-")  # a missing value reads as "-"
            is_int = opts.get("type") is int
            if value.startswith("-") or is_int and not (value.isascii() and value.isdigit()):
                return None
            try:
                value = int(value) if is_int else value
            except ValueError:  # more digits than int() reads
                return None
            if value not in opts.get("choices", [value]):
                return None
        values[flag[2:].replace("-", "_")] = value
    for flag, opts in unread.items():
        if opts.get("required"):
            return None
        values[flag[2:].replace("-", "_")] = opts.get("default", False if "action" in opts else None)
    return SimpleNamespace(**values, func=func)


def parse_args(argv=None):
    """The arguments of argv, as `build_parser().parse_args` reads them.

    A plain argv is read from the command table by `_read_plain`; for
    any other the full parser is built, and gives the help or the usage
    error.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_plain(argv)
    return build_parser().parse_args(argv) if args is None else args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        _admit(args)
        result = args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (MathPreconditionError, ValueError, FareyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return MATH_ERROR
    code = 0
    if isinstance(result, tuple):
        result, code = result
    text = _dumps(result)
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.writelines((text, "\n"))
        except OSError as exc:
            print(f"error: output file {args.output}: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            return USAGE_ERROR
    else:
        print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
