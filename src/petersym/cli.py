"""Command-line front end; every subcommand prints a JSON document.

Exit codes: 2 for usage errors (including an input file that cannot
be read, is not JSON, or lacks a field or has one of the wrong type,
and an output file that cannot be written), 3 for violated
mathematical preconditions (a level below 1 or a weight below 2, both
refused before an input file is read, odd weight with -Id, weight-2
data not vanishing at the origin, a Hecke index that is not prime or
is above its bound, a group whose index exceeds the coset bound, a
`--parent` group that does not contain the group, a weight above the
bound of its command, a `qexp` length outside its bound, a basis with
too many coefficients to print, ...),
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
from math import gcd, isqrt
from operator import index
from types import SimpleNamespace

from .dims import (dim_cusp_forms_gamma0, dim_modular_symbols_gamma0, gamma0_index,
                   gamma1_index, gamma_full_index)
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
from .orbits import basis_v, orbit_indicators
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

# Most indicator values (basis orbits times N^2) `eisbasis` may print,
# about 15 MB of JSON.
MAX_INDICATOR_CELLS = 10**6

# Most group-ring cell updates `qexp` may make.  Its divisor loop adds
# an N-entry bracket to the coefficient of q^(n m) for every n m <=
# terms, N * sum_(n <= terms) floor(terms / n) updates in all, each an
# integer addition over one denominator.  End to end at level 1, weight
# 2 with 54269 terms (599992 updates) takes 0.52 s and weight 40 with
# 54200 terms (599176 updates) 0.65 s; level 7 at weight 6 with 9231
# terms (599942 updates) takes 0.24 s, and level 1 at weight 2 with
# 99999 terms (1.17e6 updates, above the bound) 0.99 s (2-CPU VM).
MAX_QEXP_CELLS = 6 * 10**5

# Most weighted coefficients ((terms + 1) times N times the weight)
# `qexp` may write.  The coefficient of q^n has about (k - 1) log10(n)
# digits in each of its N entries, so the output grows with this
# product.  At level 1 and weight 1000, 2999 terms take 1.9 s and write
# 9.2 MB (most of the time is the Bernoulli number behind the constant
# term, see MAX_QEXP_WEIGHT), and 10000 terms (above the bound) 3.4 s,
# 36 MB and 176 MB peak RSS; at weight 100, 29999 terms take 0.45 s and
# write 12.7 MB (2-CPU VM).
MAX_QEXP_WEIGHTED_CELLS = 3 * 10**6

# Highest weight `qexp` accepts, and `eis-symbol` at level 1.  The
# Bernoulli numbers behind the constant term and the moments cost about
# k^2.5: at level 1 `qexp` with 5 terms takes 3.5 s at weight 1000 and
# 16 s at 1500, and `eis-symbol` 8.9 s at weight 1000.  The twist
# moments of `eis-symbol` also grow with the level N, so it accepts
# weight k when N k^3 <= MAX_QEXP_WEIGHT^3: with a dense function,
# level 7 at weight 522 takes 2.1 s and level 30 at 321 takes 2.3 s,
# at most 28 MB peak RSS (2-CPU VM).
MAX_QEXP_WEIGHT = 1000

# Highest weight the commands that build a symbol space accept
# (`modsym-space`, `pairing-matrix`, `hecke`, `cuspidal`).  The space
# has about k/6 basis vectors per coset, each of index * (k - 1)
# coefficients: at level 1 `pairing-matrix` takes 1.5 s at weight 100,
# 6.0 s at 150 and 26 s at 200; `modsym-space` takes 0.6 s at 100 and
# 9.3 s at 300.
MAX_SPACE_WEIGHT = 100

# Largest `hecke --ell` accepted.  Merel's set X_ell is enumerated in
# O(ell^2) and every free coset acts by all of it: at (N, k) = (11, 2)
# ell = 1009 takes 2.1 s end to end, 2003 takes 6.1 s, 3001 takes 13 s.
# The cost also grows with the weight: at ell = 1009, (11, 12) takes
# 13 s and (11, 24) 60 s.
MAX_HECKE_ELL = 1009

# Most basis coefficients (dimension times cosets times (k - 1))
# `modsym-space` and `cuspidal` may print, about 29 bytes of JSON each;
# peak RSS is about three times the output.  At k = 2, Gamma0(1200)
# (1.4e6 coefficients) takes 0.30 s end to end and writes 40 MB at
# 135 MB peak RSS, Gamma0(2400) (5.5e6) 1.1 s, 161 MB and 483 MB
# (2-CPU VM).  The count is checked before any work where `dims` gives
# the dimension, and after the space is built, before any JSON is made.
MAX_BASIS_CELLS = 6 * 10**6


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


def _check_bound(option: str, value: int, bound: int) -> None:
    if value > bound:
        raise MathPreconditionError(f"--{option} {value} is above the bound {bound}")


def _check_weight(weight: int) -> None:
    if weight < 2:
        raise MathPreconditionError("weight must be at least 2")


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
    _check_weight(weight)
    _check_bound("weight", weight, MAX_SPACE_WEIGHT)
    sym = _symbol(group, level)
    if weight % 2 and sym.member((-1, 0, 0, -1)):
        raise MathPreconditionError(
            "odd weight with -Id in the group: the space is zero"
        )
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


def _check_basis_cells(dimension: int, cosets: int, k: int) -> None:
    cells = dimension * cosets * (k - 1)
    if cells > MAX_BASIS_CELLS:
        raise MathPreconditionError(
            f"the basis has {cells} coefficients, above the bound {MAX_BASIS_CELLS}"
        )


def _basis_json(basis, cosets: int, k: int) -> _BasisJSON:
    """The coset vectors of `basis`, weight k over `cosets` cosets, for `_dumps`.

    A basis of more than MAX_BASIS_CELLS coefficients is refused here,
    before any of its text is made.
    """
    _check_basis_cells(len(basis), cosets, k)
    return _BasisJSON(basis, cosets, k)


def cmd_modsym_space(args):
    if args.group == "gamma0" and args.weight in range(2, MAX_SPACE_WEIGHT + 1, 2):
        _check_index("gamma0", args.level)
        _check_basis_cells(dim_modular_symbols_gamma0(args.level, args.weight),
                           gamma0_index(args.level), args.weight)
    sym, space = _space(args.group, args.level, args.weight)
    cosets = len(sym.require_direct_table().reps)
    return {
        "level": args.level,
        "weight": args.weight,
        "dimension": space.dimension(),
        "cosets": cosets,
        "basis": _basis_json(space.basis, cosets, args.weight),
    }


def cmd_eisbasis(args):
    _check_weight(args.weight)
    cells = args.level ** 2
    # one N x N table per basis orbit; a level whose single table is over
    # the bound is refused before basis_v lists its divisors
    triples = basis_v(args.level, args.weight) if cells <= MAX_INDICATOR_CELLS else None
    if triples is None or len(triples) * cells > MAX_INDICATOR_CELLS:
        raise MathPreconditionError(
            f"level {args.level} needs more than {MAX_INDICATOR_CELLS} indicator values"
        )
    return {
        "level": args.level,
        "weight": args.weight,
        "triples": [list(t) for t in triples],
        "indicators": [f.to_json() for f in orbit_indicators(triples, args.level)],
    }


def _load_fn(path: str) -> TorsionFunction:
    return _read_input(path, lambda d: TorsionFunction(index(d["N"]), d["values"]))


def _eis_symbol_weight_bound(level: int) -> int:
    """Largest weight k with level * k^3 <= MAX_QEXP_WEIGHT^3."""
    cap = MAX_QEXP_WEIGHT ** 3 // max(level, 1)
    k = round(cap ** (1 / 3))
    return k if k ** 3 <= cap else k - 1


def cmd_eis_symbol(args):
    _check_weight(args.weight)
    _check_bound("weight", args.weight, _eis_symbol_weight_bound(args.level))
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
    # bounded first: trial division of a huge --ell would not end
    _check_bound("ell", args.ell, MAX_HECKE_ELL)
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
    _check_bound("weight", args.weight, MAX_SPACE_WEIGHT)
    _check_index("gamma0", args.level)
    expected = 2 * dim_cusp_forms_gamma0(args.level, args.weight)
    _check_basis_cells(expected, gamma0_index(args.level), args.weight)
    _, basis = cuspidal_subspace(args.level, args.weight)
    return {
        "level": args.level,
        "weight": args.weight,
        "dimension": len(basis),
        "expected": expected,
        "basis": _basis_json(basis, gamma0_index(args.level), args.weight),
    }


def _divisor_sum(t: int) -> int:
    """sum_(n <= t) floor(t / n), by the hyperbola method in O(sqrt t) steps."""
    r = isqrt(t)
    return 2 * sum(t // n for n in range(1, r + 1)) - r * r


def cmd_qexp(args):
    from .qexp import eis_qexp

    _check_weight(args.weight)
    if args.terms < 1:
        raise MathPreconditionError(f"--terms must be at least 1 (got {args.terms})")
    if args.level * _divisor_sum(args.terms) > MAX_QEXP_CELLS:
        raise MathPreconditionError(
            f"--terms {args.terms} at level {args.level} needs more than "
            f"{MAX_QEXP_CELLS} group-ring updates"
        )
    if (args.terms + 1) * args.level * args.weight > MAX_QEXP_WEIGHTED_CELLS:
        raise MathPreconditionError(
            f"--terms {args.terms} at level {args.level} and weight {args.weight} "
            f"needs more than {MAX_QEXP_WEIGHTED_CELLS} weighted coefficients"
        )
    _check_bound("weight", args.weight, MAX_QEXP_WEIGHT)
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
    one.  A value does not start with "-", an int is ASCII digits, and
    a value with choices is one of them.  Help, abbreviations, `=`
    forms, `--` and anything else give None.
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
            value = int(value) if is_int else value
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
        # every command but verify takes a level; an input file is read later
        if getattr(args, "level", 1) < 1:
            raise MathPreconditionError("level must be positive")
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
                fh.write(text + "\n")
        except OSError as exc:
            print(f"error: output file {args.output}: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            return USAGE_ERROR
    else:
        print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
