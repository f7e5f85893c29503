import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import lcm
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import petersym
from petersym.cli import (
    OUTPUT_BUDGET,
    TIME_BUDGET,
    MathPreconditionError,
    _admit,
    _BasisJSON,
    _commands,
    _cost,
    _dumps,
    build_parser,
    main,
    parse_args,
)
from petersym.cyclo import CycVec
from petersym.dims import (
    dim_modular_symbols_gamma0,
    gamma0_index,
    gamma0_invariants,
    gamma1_index,
    gamma_full_index,
)
from petersym.eisenstein import TorsionFunction
from petersym.qexp import QExpansion
from petersym.farey import FareyError, gamma0_symbol, subgroup_farey
from petersym.polyspace import Vk
from petersym.spaces import ModularSymbolSpace, build_space


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_farey_command_validates(capsys):
    code, data = run(capsys, "farey", "--group", "gamma0", "--level", "11")
    assert code == 0
    assert data["invariants"] == gamma0_symbol(11).invariants()
    assert len(data["vertices"]) == len(data["mu"]) + 1


def test_farey_through_parent(tmp_path, capsys):
    parent = tmp_path / "parent.json"
    parent.write_text(json.dumps({"group": "gamma0", "level": 2}))
    code, data = run(capsys, "farey", "--group", "gamma0", "--level", "6",
                     "--parent", str(parent))
    assert code == 0
    assert data["invariants"] == gamma0_symbol(6).invariants()


@pytest.mark.parametrize("group,level,parent", [
    ("gamma0", 2, {"group": "gamma0", "level": 3}),
    # the index 12 is a multiple of 3; the unfolding finds Gamma0(18)
    ("gamma0", 9, {"group": "gamma0", "level": 2}),
    ("gamma0", 6, {"group": "gamma", "level": 2}),
    ("gamma1", 5, {"group": "gamma0", "level": 10}),
])
def test_farey_parent_that_is_not_a_supergroup(tmp_path, capsys, group, level, parent):
    path = tmp_path / "parent.json"
    path.write_text(json.dumps(parent))
    code = main(["farey", "--group", group, "--level", str(level), "--parent", str(path)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == "" and captured.err.startswith("error: ")


def test_farey_tower_over_gamma0_7(tmp_path, capsys):
    # the parent has two order-3 arcs whose triangles are left partial
    parent = tmp_path / "parent.json"
    parent.write_text(json.dumps({"group": "gamma0", "level": 7}))
    code, data = run(capsys, "farey", "--group", "gamma0", "--level", "28",
                     "--parent", str(parent))
    assert code == 0
    assert data["invariants"] == gamma0_invariants(28)


def test_cuspidal_dimension_field(capsys):
    code, data = run(capsys, "cuspidal", "--level", "11", "--weight", "2")
    assert code == 0
    assert data["dimension"] == 2 == data["expected"]


def test_modsym_space_and_determinism(capsys):
    code1, d1 = run(capsys, "modsym-space", "--level", "5", "--weight", "4")
    code2, d2 = run(capsys, "modsym-space", "--level", "5", "--weight", "4")
    assert code1 == code2 == 0
    assert d1 == d2
    assert d1["dimension"] == 4


def test_hecke_command(capsys):
    code, data = run(capsys, "hecke", "--level", "11", "--weight", "2",
                     "--ell", "2")
    assert code == 0
    assert len(data["matrix"]) == 3


def test_hecke_command_at_gamma0_7_ell_5(capsys):
    # the double-coset unfolding used to fail on this level
    code, data = run(capsys, "hecke", "--level", "7", "--weight", "2", "--ell", "5")
    assert code == 0
    assert data["matrix"] == [["6"]]


def test_eisbasis_and_qexp_roundtrip(tmp_path, capsys):
    code, data = run(capsys, "eisbasis", "--level", "4", "--weight", "4")
    assert code == 0
    assert len(data["triples"]) == 3
    fn_file = tmp_path / "fn.json"
    fn_file.write_text(json.dumps(data["indicators"][0]))
    code, qdata = run(capsys, "qexp", "--level", "4", "--weight", "4",
                      "--terms", "5", "--fn", str(fn_file))
    assert code == 0
    assert len(qdata["coefficients"]) == 5
    code, edata = run(capsys, "eis-symbol", "--level", "4", "--weight", "4",
                      "--fn", str(fn_file))
    assert code == 0
    assert edata["base_value"]["k"] == 4


def test_math_precondition_exit_code(capsys, tmp_path):
    code = main(["modsym-space", "--level", "5", "--weight", "3"])
    capsys.readouterr()
    assert code == 3
    # weight-2 with nonvanishing origin value
    fn_file = tmp_path / "bad.json"
    fn_file.write_text(json.dumps({"N": 2, "values": [["1", "0"], ["0", "0"]]}))
    code = main(["eis-symbol", "--level", "2", "--weight", "2",
                 "--fn", str(fn_file)])
    capsys.readouterr()
    assert code == 3
    # a value that is no rational number is a bad value, not a bad file
    fn_file.write_text(json.dumps({"N": 1, "values": [["x"]]}))
    for command in ("qexp", "eis-symbol"):
        code = main([command, "--level", "1", "--weight", "4", "--fn", str(fn_file)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == "" and captured.err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["hecke", "--level", "11", "--weight", "2", "--ell", "0"],
    ["hecke", "--level", "11", "--weight", "2", "--ell", "-3"],
    ["hecke", "--level", "11", "--weight", "2", "--ell", "4"],
    ["hecke", "--level", "11", "--weight", "2", "--ell", "1"],
    ["cuspidal", "--level", "11", "--weight", "0"],
    ["cuspidal", "--level", "0", "--weight", "2"],
    ["eisbasis", "--level", "0", "--weight", "2"],
    # refused before the (missing) --fn file is read
    ["qexp", "--level", "5", "--weight", "4", "--terms", "0", "--fn", "missing.json"],
    ["qexp", "--level", "5", "--weight", "4", "--terms", "-3", "--fn", "missing.json"],
    ["qexp", "--level", "0", "--weight", "4", "--fn", "missing.json"],
    ["eis-symbol", "--level", "0", "--weight", "4", "--fn", "missing.json"],
    ["qexp", "--level", "5", "--weight", "1", "--fn", "missing.json"],
    ["eis-symbol", "--level", "5", "--weight", "1", "--fn", "missing.json"],
])
def test_bad_arguments_exit_code(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("command,content", [
    ("qexp", None),
    ("eis-symbol", None),
    ("farey", None),
    ("qexp", json.dumps({"values": [["0"]]})),
    ("farey", json.dumps({"group": "gamma0"})),
    ("eis-symbol", json.dumps(["N", 1])),
    ("eis-symbol", "{not json"),
    ("qexp", json.dumps({"N": "1", "values": [["0"]]})),
    ("qexp", json.dumps({"N": 1, "values": [[["0"]]]})),
    ("farey", json.dumps({"group": "gamma0", "level": "2"})),
])
def test_bad_input_file_exit_code(capsys, tmp_path, command, content):
    path = tmp_path / "input.json"
    if content is not None:
        path.write_text(content)
    if command == "farey":
        argv = ["farey", "--level", "6", "--parent", str(path)]
    else:
        argv = [command, "--level", "1", "--weight", "4", "--fn", str(path)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["farey", "--group", "gamma", "--level", "100"],
    ["modsym-space", "--group", "gamma1", "--level", "1000", "--weight", "2"],
    ["cuspidal", "--level", "100003", "--weight", "2"],
    ["farey", "--level", "10000000000000000000000"],
])
def test_coset_bound_checked_before_unfolding(capsys, monkeypatch, argv):
    def unfold(*args, **kwargs):
        raise AssertionError("unfolding started")

    monkeypatch.setattr("petersym.cli.subgroup_farey", unfold)
    monkeypatch.setattr("petersym.farey.subgroup_farey", unfold)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith("error: ")


def test_coset_bound_counts_cosets_in_the_parent(capsys, tmp_path, monkeypatch):
    # Gamma0(99998) has 150000 cosets in SL2(Z) but 50000 in Gamma0(2);
    # Gamma0(200006) has 100004 in Gamma0(2)
    parent = tmp_path / "parent.json"
    parent.write_text(json.dumps({"group": "gamma0", "level": 2}))
    calls = []

    def unfold(parent, spec):
        calls.append(spec.name)
        if spec.name != "gamma0(2)":
            raise FareyError("unfolding stopped by the test")
        return subgroup_farey(parent, spec)

    monkeypatch.setattr("petersym.cli.subgroup_farey", unfold)
    for level, started in [(99998, True), (200006, False)]:
        calls.clear()
        assert main(["farey", "--level", str(level), "--parent", str(parent)]) == 3
        assert calls == ["gamma0(2)"] + [f"gamma0({level})"] * started
    capsys.readouterr()


def test_eisbasis_below_the_size_bound(capsys):
    # 23 basis orbits times 150^2 points: 517500 indicator values
    code, data = run(capsys, "eisbasis", "--level", "150", "--weight", "2")
    assert code == 0
    assert len(data["indicators"]) == len(data["triples"]) == 23


def _admitted(argv) -> bool:
    """Whether the admission step lets the job of argv start."""
    try:
        _admit(parse_args(argv))
    except MathPreconditionError:
        return False
    return True


def _first_refused(admits, lo: int, hi: int) -> int:
    """The least x in (lo, hi] that `admits` refuses, by bisection.

    The predictions grow along each family of jobs, so the jobs up to
    the returned x are admitted and those from it on refused.
    """
    assert admits(lo) and not admits(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if admits(mid) else (lo, mid)
    return hi


def _admits(argv_of):
    """Whether the job argv_of(x) is admitted, as a function of x."""
    return lambda x: _admitted(argv_of(x))


def _primes(lo: int, hi: int) -> list:
    """The primes p with lo <= p < hi."""
    sieve = bytearray([1]) * hi
    sieve[:2] = b"\x00\x00"
    for p in range(2, int(hi ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytearray(len(sieve[p * p::p]))
    return [p for p in range(lo, hi) if sieve[p]]


def _refused_for_budget(captured) -> bool:
    return captured.out == "" and "above the budget" in captured.err


@pytest.mark.parametrize("level", [300, 10**9])
def test_eisbasis_size_bound_checked_before_classifying(capsys, monkeypatch, level):
    # 35 basis orbits of 300^2 points would write 47 MB; nothing is
    # listed or classified for a refused level
    def classify(*args):
        raise AssertionError("classification started")

    monkeypatch.setattr("petersym.cli.orbit_indicators", classify)
    monkeypatch.setattr("petersym.orbits.orbit_of", classify)
    monkeypatch.setattr("petersym.cli.basis_v", classify)
    code = main(["eisbasis", "--level", str(level), "--weight", "2"])
    captured = capsys.readouterr()
    assert code == 3
    assert _refused_for_budget(captured)


def _zero_qexp(calls):
    def expansion(f, k, terms):
        # a zero expansion of the asked length, without the exact work
        calls.append((k, terms))
        return QExpansion(f.n, k, terms, CycVec(f.n), [CycVec(f.n)] * (terms + 1))
    return expansion


def _check_qexp_edge(capsys, tmp_path, monkeypatch, level, argv_of, x, accepted):
    """Run qexp at level on argv_of(x) with the expansion stubbed."""
    calls = []
    monkeypatch.setattr("petersym.qexp.eis_qexp", _zero_qexp(calls))
    fn_file = tmp_path / "fn.json"
    if accepted:
        fn_file.write_text(json.dumps(TorsionFunction.indicator(level, (1, 0)).to_json()))
    # a refused job exits before the (here missing) file is read
    argv = argv_of(x)[:-1] + [str(fn_file)]
    code = main(argv)
    captured = capsys.readouterr()
    if accepted:
        assert code == 0
        k, terms = int(argv[4]), int(argv[6])
        assert calls == [(k, terms)]
        data = json.loads(captured.out)
        assert data["weight"] == k and len(data["coefficients"]) == terms
    else:
        assert code == 3
        assert calls == []
        assert _refused_for_budget(captured)


@pytest.mark.parametrize("extra,accepted", [(-1, True), (0, False)])
def test_qexp_terms_bound(capsys, tmp_path, monkeypatch, extra, accepted):
    # at level 7 and weight 6 the terms are bounded by their output
    def argv_of(t):
        return ["qexp", "--level", "7", "--weight", "6", "--terms", str(t), "--fn", "fn.json"]

    terms = _first_refused(_admits(argv_of), 1, 10**7) + extra
    _check_qexp_edge(capsys, tmp_path, monkeypatch, 7, argv_of, terms, accepted)


@pytest.mark.parametrize("extra,accepted", [(0, True), (1, False)])
def test_qexp_weight_bound(capsys, tmp_path, monkeypatch, extra, accepted):
    # the Bernoulli number behind the constant term bounds the weight
    def argv_of(k):
        return ["qexp", "--level", "1", "--weight", str(k), "--terms", "3", "--fn", "fn.json"]

    weight = _first_refused(_admits(argv_of), 2, 10**4) - 1 + extra
    _check_qexp_edge(capsys, tmp_path, monkeypatch, 1, argv_of, weight, accepted)


@pytest.mark.parametrize("extra,accepted", [(0, True), (1, False)])
def test_qexp_weighted_cells_bound(capsys, tmp_path, monkeypatch, extra, accepted):
    # at weight 1000 the coefficients of (k - 1) log10(n) digits bound
    # the terms by the output budget, well within the time budget
    def argv_of(t):
        return ["qexp", "--level", "1", "--weight", "1000", "--terms", str(t), "--fn", "fn.json"]

    terms = _first_refused(_admits(argv_of), 1, 10**6) - 1 + extra
    seconds, size = _cost("qexp", 1, 1000, 1, 0, 0, 0, 2, terms)
    assert seconds < TIME_BUDGET / 2 and (size > OUTPUT_BUDGET) == (not accepted)
    _check_qexp_edge(capsys, tmp_path, monkeypatch, 1, argv_of, terms, accepted)


@pytest.mark.parametrize("extra,accepted", [(0, True), (1, False)])
@pytest.mark.parametrize("command", [
    ["modsym-space"], ["pairing-matrix"], ["hecke", "--ell", "2"], ["cuspidal"],
], ids=lambda c: c[0])
def test_space_weight_bound(capsys, monkeypatch, command, extra, accepted):
    built, unfolded = [], []

    def space(sym, k):
        # an empty space of the asked weight, without the exact work
        built.append(k)
        return ModularSymbolSpace(sym, k, [])

    def cuspidal(n, k):
        built.append(k)
        return None, []

    def unfold(parent, spec):
        unfolded.append(spec.name)
        return subgroup_farey(parent, spec)

    monkeypatch.setattr("petersym.cli.build_space", space)
    monkeypatch.setattr("petersym.cli.cuspidal_subspace", cuspidal)
    monkeypatch.setattr("petersym.cli.subgroup_farey", unfold)

    def argv_of(half):
        return command + ["--level", "11", "--weight", str(2 * half)]

    # the largest even weight admitted at level 11, or the next one
    weight = 2 * (_first_refused(_admits(argv_of), 1, 1000) - 1 + extra)
    code = main(argv_of(weight // 2))
    captured = capsys.readouterr()
    if accepted:
        assert code == 0
        assert built == [weight]
        assert json.loads(captured.out)["weight"] == weight
    else:
        # refused before the group is unfolded
        assert code == 3
        assert built == unfolded == []
        assert _refused_for_budget(captured)


def _eis_symbol_argv(level, k, fn_file):
    return ["eis-symbol", "--level", str(level), "--weight", str(k), "--fn", str(fn_file)]


def _check_eis_symbol_weight_bound(capsys, tmp_path, monkeypatch, level, lo, extra, accepted):
    """Run eis-symbol at level on the largest weight admitted, or the
    next, with the moments stubbed; the admitted weight lo is where the
    search starts.  Returns the first weight refused at level."""
    calls = []

    class Symbol:
        # the zero period data of the asked weight, without the moments
        def __init__(self, f, k):
            calls.append(k)
            self.p_mod = Vk.zero(k)
            self.c_inf = Fraction(0)

    monkeypatch.setattr("petersym.cli.EisSymbol", Symbol)
    fn_file = tmp_path / "fn.json"
    edge = _first_refused(_admits(lambda k: _eis_symbol_argv(level, k, fn_file)), lo, 10**4)
    weight = edge - 1 + extra
    if accepted:
        fn_file.write_text(json.dumps(TorsionFunction.constant(level).to_json()))
    # a refused weight exits before the (here missing) file is read
    code = main(_eis_symbol_argv(level, weight, fn_file))
    captured = capsys.readouterr()
    if accepted:
        assert code == 0
        assert calls == [weight]
        assert json.loads(captured.out)["weight"] == weight
    else:
        assert code == 3
        assert calls == []
        assert _refused_for_budget(captured)
    return edge


@pytest.mark.parametrize("extra,accepted", [(0, True), (1, False)])
def test_eis_symbol_weight_bound(capsys, tmp_path, monkeypatch, extra, accepted):
    _check_eis_symbol_weight_bound(capsys, tmp_path, monkeypatch, 1, 2, extra, accepted)


@pytest.mark.parametrize("level,bound", [(7, 522), (30, 321), (125, 200)])
@pytest.mark.parametrize("extra,accepted", [(0, True), (1, False)])
def test_eis_symbol_weight_bound_falls_with_the_level(
        capsys, tmp_path, monkeypatch, level, bound, extra, accepted):
    # bound is the largest weight k with level * k^3 <= 1000^3, the rule
    # before the time budget: the budget still admits it, and its largest
    # weight falls below the one at level 1
    edge = _check_eis_symbol_weight_bound(capsys, tmp_path, monkeypatch, level, bound,
                                          extra, accepted)
    assert edge < _first_refused(_admits(lambda k: _eis_symbol_argv(1, k, "f")), 2, 10**4)


# sha256 of the printed JSON, recorded before the symbol-space elements
# became coset vectors; they pin basis entries and echelon order
GOLDEN = [
    (["modsym-space", "--level", "11", "--weight", "2"],
     "79823c3ec549ea956d577ab49af2916c950f23eb1eaf6d5afa2d84c31a014544"),
    (["modsym-space", "--level", "24", "--weight", "4"],
     "b5097b386a3ea95f6690ebc716137b8c595f057ca8ffbde3dc8d47cecb9b4fb1"),
    (["modsym-space", "--group", "gamma1", "--level", "13", "--weight", "2"],
     "9bc9a94c424a3f29bd31e177fb0b8ec6f4e3b865a19579e54e90d2323b231fe9"),
    (["modsym-space", "--group", "gamma", "--level", "5", "--weight", "2"],
     "ca1dc129b7825b1e15f10a8c8570c7aa5c32e864458bd64c1d3d67dab79fb4e7"),
    (["cuspidal", "--level", "11", "--weight", "2"],
     "749116bbdb8e62cf9d555ae2a6d5f535fec88992eacabba37f734b526f0a3ef8"),
    (["cuspidal", "--level", "23", "--weight", "2"],
     "f1d4d40e0f8e1b7623966588fee625b4a187f8e9a1f4c0821617a2dc94e86d1e"),
    (["cuspidal", "--level", "8", "--weight", "6"],
     "ac7a8d40bfe54d1beceeb3a030da1c0aa215b906c14a08f006875104107a8d7b"),
    (["pairing-matrix", "--level", "11", "--weight", "2"],
     "d04c2b82468984871a1d6128033e50573905689715e42712696947da62025959"),
    (["pairing-matrix", "--level", "11", "--weight", "2", "--eisenstein"],
     "b198f9bf1b7fb7f912399361a9ed8e1a3e5294a9dfe9bade62706c4fd4484548"),
    (["pairing-matrix", "--level", "13", "--weight", "4"],
     "3eb221e5599a99399c4f822e8a42dc74a557f4582007d23355203453e6c5e381"),
    (["pairing-matrix", "--level", "13", "--weight", "4", "--eisenstein"],
     "2e1dc35b894d7596400265830116ae424d3063f91d05ca2362e2a9eceb8e4aad"),
    (["cuspidal", "--level", "24", "--weight", "4"],
     "c309f249b7921ff4387a3782b17211f326fc14af762bb4743853033579340083"),
    (["cuspidal", "--level", "1", "--weight", "24"],
     "4ba28d313419da612cea4be588fb82e251aefbb056f44fbde6683f9d06e0cefa"),
    (["hecke", "--level", "1", "--weight", "24", "--ell", "2"],
     "949b0a190b9b9074614b37ec48e267d95862caebe23fac3c9314d72a690318a1"),
    (["hecke", "--level", "37", "--weight", "4", "--ell", "101"],
     "39ec3894a6c6a12d5140500f1d5f85adaef0c5858cc17f674d810d3df88e8d72"),
    # recorded before the JSON was written by string joins
    (["farey", "--level", "100"],
     "ba8790fafa52ed316cb9e755e2689b1498fc795c726c32200488ce399f7494a2"),
    (["eisbasis", "--level", "6", "--weight", "4"],
     "7f569acc5e6e089c2b9b93f4adcc5581a350b3712b24fc7700b3ea52d6b2a56e"),
    # recorded before the Eisenstein cocycles and the pairing matrix were
    # summed as integers
    (["cuspidal", "--level", "12", "--weight", "4"],
     "3652fe3b81e7fa574b52d72f8fffd0cec93fb93ffc85cc8f531a8338a6a88831"),
    (["cuspidal", "--level", "21", "--weight", "2"],
     "f435e889d7cc0f169acbd1224512316fb5ccc1219ee3862d58f8c9ad01624cc1"),
    (["cuspidal", "--level", "9", "--weight", "4"],
     "89c9a1eb480df2da884d7a0559a41320ea32fbf2b06a8ab933ccda7d3e99d98d"),
    (["cuspidal", "--level", "60", "--weight", "2"],
     "d9e2d29610ad2be8c97308eb7f1cfdb3b9aa539feac8b4c9fe774bd4815d5444"),
    (["pairing-matrix", "--level", "12", "--weight", "4", "--eisenstein"],
     "5a376219a1f969bc718d2a60bb9a4b9840516432f87aca56833e0f76b0858388"),
    (["pairing-matrix", "--level", "21", "--weight", "2", "--eisenstein"],
     "e7abcd8679f55e223938cada80856ff76b9850e6831d6bd61f963d45f525cea8"),
    (["pairing-matrix", "--level", "8", "--weight", "6", "--eisenstein"],
     "23f95f065efd22926a74791cf61b58a1305a89902ae9ffc783fb9b5962aec04c"),
    # recorded before the sigma relations were put ahead of the tau
    # relations, the Gamma0 key was tabled, the unfolding layout became a
    # linked list and the basis cells were written by one join
    (["modsym-space", "--level", "180", "--weight", "2"],
     "363869f2eadfd8e7f4d9d46e1c553da2bc8dd344f622afbd9601245ce90b4c82"),
    (["modsym-space", "--group", "gamma1", "--level", "23", "--weight", "2"],
     "c9e94a46da2d72655460d24f60e8fd0d0c5a5d15250c1a12574194be40ed33bd"),
    (["modsym-space", "--group", "gamma", "--level", "8", "--weight", "2"],
     "3b2b9e35cab7dcccf5b779062b56a20ea2bcd7889e7532d89ea64e2588814428"),
    (["modsym-space", "--level", "37", "--weight", "6"],
     "ae48967638d5e982865b681bd1b07a32e2af14f21d0950702dc78883c664d614"),
    # odd weight: cells of width 2
    (["modsym-space", "--group", "gamma1", "--level", "13", "--weight", "3"],
     "46f3b66e6bf54e0de294a9fec3341c07454a86fe800664288c2f0672a41e629c"),
    (["farey", "--level", "894"],
     "702ea20453091881b701830992213fc11b71a387081c26db913886fc1e606d63"),
    # recorded before the relation rows and the basis coset vectors
    # became sparse {col: value} dicts
    (["modsym-space", "--level", "300", "--weight", "2"],
     "47613e15ff8cb2354048c0d4e0120a6d5ae7edec79be5e00446ad1ef37e965ad"),
    (["hecke", "--level", "100", "--weight", "2", "--ell", "13"],
     "ce66d3bbe3fcda7cb49c1703b90525f72f26330ffee72988d2ba030235a4ec78"),
    (["hecke", "--level", "11", "--weight", "12", "--ell", "3"],
     "d59d2bc5a16a50b839fb25ee7edad30b8f337b2f1163d73bd09f38047273cc03"),
    # recorded before the weight-2 basis was read off a spanning forest
    # and the basis vectors were rendered from their sparse dicts
    (["modsym-space", "--group", "gamma1", "--level", "29", "--weight", "2"],
     "4d8c331d9add1af3447c412cbf8629d97f699b046d0ea2784d601bb0fe45d5b7"),
    (["modsym-space", "--group", "gamma", "--level", "9", "--weight", "2"],
     "8af340e7214c2cb9554dc759c8fe0d84e712d7c58e8bcc34fb6a6d655e7efe19"),
    (["modsym-space", "--level", "600", "--weight", "2"],
     "cd7c5b5143e3ba272cc807211e63c4f5a4d8e5b39d6386f94d3049a8c540005b"),
    # recorded before a basis vector was held only as integer numerators
    # over one denominator (hecke 11 12 3, above, pins the same change)
    (["modsym-space", "--level", "60", "--weight", "4"],
     "d5bea7662a5e0c5dc54cf79b4c2f2a6ce9361991d53dbbd7222ad2ad43c09a43"),
    (["cuspidal", "--level", "24", "--weight", "8"],
     "4b617e1b9fb3511c5b8cfdb7eeb8b7b10b903c5ab2e2d2d891ba2d60130ba05a"),
    (["cuspidal", "--level", "37", "--weight", "2"],
     "4723b601ca8aa66d1cbadfa9d5f6b1a2f45916a241a64b1d02562b2d3d8c3cd7"),
    (["pairing-matrix", "--level", "37", "--weight", "2"],
     "329dfb24e35c6a8f18d6c44fcede0945055d70457df1939b5d6f41639947fe27"),
    (["pairing-matrix", "--level", "37", "--weight", "2", "--eisenstein"],
     "dd961fe20d0eb73e14d040082e066b4ade41f136999245f6a535ed498cfffe1a"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN,
                         ids=["-".join(a.lstrip("-") for a in argv) for argv, _ in GOLDEN])
def test_golden_output(capsys, argv, digest):
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


_FN7 = {"N": 7, "values": [
    ["0", "1", "0", "0", "0", "0", "-1"], ["0", "0", "2/3", "0", "0", "0", "0"],
    ["0"] * 7, ["1/2", "0", "0", "0", "0", "0", "0"], ["0"] * 7,
    ["0", "0", "0", "0", "0", "-5/7", "0"], ["0"] * 7,
]}

# the same for commands that read an input file, given as the last
# option, each under its test id; recorded before the JSON was written
# by string joins
GOLDEN_FROM_FILE = [
    ("farey", ["farey", "--level", "28", "--parent"], {"group": "gamma0", "level": 7},
     "992d96b60b50ee4addaf2a73998380db5ec265ef0324f751bfcb881c08558933"),
    ("eis-symbol", ["eis-symbol", "--level", "7", "--weight", "6", "--fn"], _FN7,
     "4581d89aeb800533ff287468a356e08b9b41b62aa0da598c008aea8b99d46c9d"),
    ("qexp", ["qexp", "--level", "7", "--weight", "4", "--terms", "6", "--fn"], _FN7,
     "314bf7a6938e77844919a7953c4b4d5bbafd9b5952791ad5e37c95f688a8ad29"),
    # recorded before the Gamma0 key was tabled and the unfolding layout
    # became a linked list
    ("farey-level-1200-parent-12", ["farey", "--level", "1200", "--parent"],
     {"group": "gamma0", "level": 12},
     "1cbe926370a5f1c8a8b6d7a5081aae101e0c50a7baa8cb92a47d714e4f2f4f15"),
    # the other towers over Gamma0(7) that rectify an order-3 3-cycle
    # (Gamma1(28) also attaches a bent partial triangle), recorded before
    # the assembly was held in label maps
    ("farey-level-14-parent-7", ["farey", "--level", "14", "--parent"],
     {"group": "gamma0", "level": 7},
     "62d04ca2d6cb0326f314d133abe874999d98db9f51bb4a6347970ad31e085459"),
    ("farey-level-21-parent-7", ["farey", "--level", "21", "--parent"],
     {"group": "gamma0", "level": 7},
     "74ae81766e797df3a91d8bbb7dedb277b23f3fbcfb84ecadce49056a481efd94"),
    ("farey-gamma1-7-parent-7", ["farey", "--group", "gamma1", "--level", "7", "--parent"],
     {"group": "gamma0", "level": 7},
     "785f746bcfc5b454d063b9d520f2c660cb7290b68b42b36c46b74be6758c0084"),
    ("farey-gamma1-14-parent-7", ["farey", "--group", "gamma1", "--level", "14", "--parent"],
     {"group": "gamma0", "level": 7},
     "4aeb2a825912df0b6b7c01d2a1390e0bb1e144e4c37f5feeb27c62686c5fe52e"),
    ("farey-gamma1-21-parent-7", ["farey", "--group", "gamma1", "--level", "21", "--parent"],
     {"group": "gamma0", "level": 7},
     "1b1fcab54f28df7f0c5e4906044fa486aedd12cb3e9cb2b317def0af519cc100"),
    ("farey-gamma1-28-parent-7", ["farey", "--group", "gamma1", "--level", "28", "--parent"],
     {"group": "gamma0", "level": 7},
     "465bfce668442e9f7c4f610d95501df353e9a735799b898c782c0a91a7d016b0"),
    ("farey-gamma-7-parent-7", ["farey", "--group", "gamma", "--level", "7", "--parent"],
     {"group": "gamma0", "level": 7},
     "e3fdb99e809b8d4c1e189a4398de0ebfe63b98478ae695c0b25bbf063da504fe"),
]


@pytest.mark.parametrize("argv,document,digest", [case[1:] for case in GOLDEN_FROM_FILE],
                         ids=[case[0] for case in GOLDEN_FROM_FILE])
def test_golden_output_from_file(capsys, tmp_path, argv, document, digest):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(document))
    assert main(argv + [str(path)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


_json_leaves = (
    st.text()
    | st.text(alphabet="\"\\\x00\x1f\x7f\u00e9\u2028\U0001f600 /")
    | st.integers() | st.booleans() | st.none()
    | st.floats() | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0])
)
_json_trees = st.recursive(
    _json_leaves,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(st.text(), children, max_size=4)
    ),
    max_leaves=30,
)


@settings(deadline=None, max_examples=300)
@given(_json_trees)
def test_json_writer_matches_json_dumps(tree):
    assert _dumps(tree) == json.dumps(tree, indent=2, sort_keys=True)


def _cells(leaf):
    # lists of tuple cells: of one width (the joined path) or of mixed
    # widths (the path that writes cell by cell)
    same = st.integers(0, 3).flatmap(
        lambda w: st.lists(st.tuples(*[leaf] * w), max_size=4))
    mixed = st.lists(st.lists(leaf, max_size=3).map(tuple), max_size=4)
    return same | mixed


@settings(deadline=None)
@given(st.lists(st.lists(st.lists(st.text(), max_size=3), max_size=3), max_size=3)
       | st.lists(_cells(st.text()) | _cells(st.integers()), max_size=3)
       | _cells(st.text() | st.integers()))
def test_json_writer_matches_json_dumps_on_basis_blocks(blocks):
    # basis vectors are lists of (k-1)-tuples of strings
    assert _dumps(blocks) == json.dumps(blocks, indent=2, sort_keys=True)


@settings(deadline=None, max_examples=200)
@given(st.integers(1, 4).flatmap(lambda cosets: st.integers(2, 5).flatmap(
    lambda k: st.tuples(
        st.just(cosets), st.just(k),
        st.lists(st.dictionaries(
            st.integers(0, cosets * (k - 1) - 1),
            st.fractions(max_denominator=9).filter(bool), max_size=6), max_size=3),
        st.integers(0, 2)))))
def test_basis_writer_matches_json_dumps(case):
    # each vector is written from its {col: value} dict at its indentation,
    # here at depth `depth` of the document
    cosets, k, vectors, depth = case
    n = k - 1
    dense = [[tuple(str(v.get(c * n + s, 0)) for s in range(n)) for c in range(cosets)]
             for v in vectors]
    # each over the lcm of its denominators, times 1 or 2 so the writer
    # also reduces a pair whose gcd is not 1
    elems = []
    for i, v in enumerate(vectors):
        den = (1 + i % 2) * lcm(*(x.denominator for x in v.values()))
        elems.append(SimpleNamespace(nums={j: int(x * den) for j, x in v.items()}, den=den))
    basis = _BasisJSON(elems, cosets, k)
    wrap, expected = basis, dense
    for _ in range(depth):
        wrap, expected = {"basis": wrap, "k": k}, {"basis": expected, "k": k}
    assert _dumps(wrap) == json.dumps(expected, indent=2, sort_keys=True)


@pytest.mark.parametrize("extra,accepted", [(0, True), (1, False)])
@pytest.mark.parametrize("command,level,weight,per_vector", [
    ("modsym-space", 1, 2, 1),    # one coset of one coefficient
    ("modsym-space", 7, 4, 24),   # 8 cosets of 3 coefficients
    ("cuspidal", 1, 2, 1),
    ("cuspidal", 11, 2, 12),      # 12 cosets of one coefficient
])
def test_basis_cells_bound(capsys, monkeypatch, command, level, weight, per_vector,
                           extra, accepted):
    # the basis is a range of the largest dimension admitted, or the next:
    # neither its vectors nor its text are made
    argv = [command, "--level", str(level), "--weight", str(weight)]
    if command == "cuspidal":
        # predicted before the build from twice the closed-form cusp-form
        # dimension, stubbed here
        per_dim, stubbed = 2, [1]
        monkeypatch.setattr("petersym.cli.dim_cusp_forms_gamma0", lambda n, k: stubbed[0])

        def within(d):
            stubbed[0] = d
            return _admitted(argv)
    else:
        # the built space's output is checked again, before any JSON is made
        per_dim, cosets = 1, per_vector // (weight - 1)

        def within(d):
            seconds, size = _cost(command, level, weight, cosets, d, 0, 0, 2, 1)
            return seconds <= TIME_BUDGET and size <= OUTPUT_BUDGET

    edge = _first_refused(within, 1, OUTPUT_BUDGET) - 1 + extra
    if command == "cuspidal":
        stubbed[0] = edge
    dimension = per_dim * edge
    built, written = [], []

    def space(sym, k):
        out = ModularSymbolSpace(sym, k, [])
        out.basis = range(dimension)
        return out

    def cuspidal(n, k):
        built.append(k)
        return None, range(dimension)

    def writer(basis, cosets, k):
        written.append(len(basis) * cosets * (k - 1))
        return []

    monkeypatch.setattr("petersym.cli.build_space", space)
    monkeypatch.setattr("petersym.cli.cuspidal_subspace", cuspidal)
    monkeypatch.setattr("petersym.cli._BasisJSON", writer)
    code = main(argv)
    captured = capsys.readouterr()
    if accepted:
        assert code == 0
        assert written == [dimension * per_vector]
        assert json.loads(captured.out)["dimension"] == dimension
    else:
        assert code == 3
        assert written == built == []
        assert _refused_for_budget(captured)


@pytest.mark.parametrize("extra,accepted", [(0, True), (1, False)])
@pytest.mark.parametrize("command,dims_name,per_dim", [
    # level 1, weight 2: one coset of one coefficient; cuspidal
    # expects twice the cusp-form dimension
    ("modsym-space", "dim_modular_symbols_gamma0", 1),
    ("cuspidal", "dim_cusp_forms_gamma0", 2),
])
def test_basis_cells_bound_before_the_build(capsys, monkeypatch, command, dims_name,
                                            per_dim, extra, accepted):
    # the closed-form dimension is stubbed to the largest one admitted, or
    # the next: above it the space is not built
    stubbed = [1]
    monkeypatch.setattr(f"petersym.cli.{dims_name}", lambda n, k: stubbed[0])

    def argv_of(d):
        stubbed[0] = d
        return [command, "--level", "1", "--weight", "2"]

    dimension = _first_refused(_admits(argv_of), 1, OUTPUT_BUDGET) - 1 + extra
    stubbed[0] = dimension
    built = []

    def space(sym, k):
        built.append(k)
        out = ModularSymbolSpace(sym, k, [])
        out.basis = range(dimension * per_dim)
        return out

    def cuspidal(n, k):
        built.append(k)
        return None, range(dimension * per_dim)

    monkeypatch.setattr("petersym.cli.build_space", space)
    monkeypatch.setattr("petersym.cli.cuspidal_subspace", cuspidal)
    monkeypatch.setattr("petersym.cli._BasisJSON", lambda basis, cosets, k: [])
    code = main([command, "--level", "1", "--weight", "2"])
    captured = capsys.readouterr()
    if accepted:
        assert code == 0 and built == [2]
    else:
        assert code == 3
        assert built == []
        assert _refused_for_budget(captured)


@pytest.mark.parametrize("command", ["modsym-space", "cuspidal"])
def test_oversized_gamma0_basis_is_refused_before_any_work(capsys, monkeypatch, command):
    # about 10^9 bytes of basis at (300, 20): refused from the
    # closed-form dimension, with nothing unfolded or built
    def refuse(*args):
        raise AssertionError("the space was built")

    monkeypatch.setattr("petersym.cli.subgroup_farey", refuse)
    monkeypatch.setattr("petersym.cli.build_space", refuse)
    monkeypatch.setattr("petersym.cli.cuspidal_subspace", refuse)
    code = main([command, "--level", "300", "--weight", "20"])
    assert code == 3
    assert _refused_for_budget(capsys.readouterr())


class _Reached(Exception):
    """Raised by a stubbed command: the job was admitted."""


def _unreachable(args):
    raise _Reached(args.command)


_PRIMES = _primes(2, 700_000)


def _family(template, value=lambda i: i):
    """argv_of(i): the template with its "{}" set to value(i)."""
    return lambda i: [t.format(value(i)) for t in template]


def _prime(i):
    return _PRIMES[i]


def _even(i):
    return 2 * i


# a family of jobs whose predictions grow along it, and bounds of its
# refusal edge: the first job admitted, the second refused
EDGES = {
    # Gamma0(p) has p + 1 cosets; the coset bound is checked by the stubbed command
    "farey": (_family(["farey", "--level", "{}"], _prime), 0, len(_PRIMES) - 1),
    "modsym-space": (_family(["modsym-space", "--level", "1", "--weight", "{}"], _even), 1, 1000),
    "eisbasis": (_family(["eisbasis", "--level", "{}", "--weight", "4"], _prime), 0, 1000),
    "eis-symbol": (_family(["eis-symbol", "--level", "1", "--weight", "{}", "--fn", "f"]),
                   2, 10**4),
    "pairing-matrix": (_family(["pairing-matrix", "--level", "1", "--weight", "{}"], _even),
                       1, 1000),
    "pairing-matrix-eisenstein": (_family(
        ["pairing-matrix", "--level", "1", "--weight", "{}", "--eisenstein"], _even), 1, 1000),
    "hecke": (_family(["hecke", "--level", "11", "--weight", "2", "--ell", "{}"]),
              2, 10**5),
    "cuspidal": (_family(["cuspidal", "--level", "1", "--weight", "{}"], _even), 1, 1000),
    "qexp": (_family(["qexp", "--level", "1", "--weight", "2", "--terms", "{}", "--fn", "f"]),
             1, 10**8),
}


@pytest.mark.parametrize("accepted", [True, False], ids=["under", "over"])
@pytest.mark.parametrize("family", list(EDGES))
def test_admission_edge(capsys, monkeypatch, family, accepted):
    # the last job of the family that the budgets admit runs its
    # (stubbed) command; the next one is refused before it
    argv_of, lo, hi = EDGES[family]
    edge = _first_refused(_admits(argv_of), lo, hi)
    argv = argv_of(edge - accepted)
    ran = []
    name = "cmd_" + argv[0].replace("-", "_")
    monkeypatch.setattr(f"petersym.cli.{name}", lambda args: ran.append(args) or {})
    code = main(argv)
    captured = capsys.readouterr()
    if accepted:
        assert code == 0 and len(ran) == 1
    else:
        assert code == 3 and ran == []
        assert _refused_for_budget(captured)


@pytest.mark.parametrize("argv", [
    ["hecke", "--level", "11", "--weight", "48", "--ell", "1009"],
    ["hecke", "--level", "11", "--weight", "100", "--ell", "1009"],
    ["cuspidal", "--level", "2000", "--weight", "2"],
    # no O(sqrt(terms)) divisor sum: refused from the closed form at once
    ["qexp", "--level", "1", "--weight", "2", "--terms", str(10**30), "--fn", "missing.json"],
    ["qexp", "--level", "1", "--weight", "2", "--terms", "9" * 4000, "--fn", "missing.json"],
])
def test_slow_jobs_are_refused_at_once(capsys, monkeypatch, argv):
    for name, _, func, _ in _commands():
        monkeypatch.setattr(f"petersym.cli.{func.__name__}", _unreachable)
    start = perf_counter()
    assert main(argv) == 3
    assert perf_counter() - start < 0.5
    assert _refused_for_budget(capsys.readouterr())


def test_qexp_admits_what_it_once_refused():
    # 99999 terms at level 1 take about 1 s end to end (2-CPU VM)
    assert _admitted(["qexp", "--level", "1", "--weight", "2", "--terms", "99999",
                      "--fn", "f.json"])


@pytest.mark.parametrize("ell,accepted", [(1009, True), (1010, False), (1013, False)])
def test_hecke_ell_bound(capsys, monkeypatch, ell, accepted):
    # with the time budget set to the predicted seconds of hecke
    # (11, 2, 1009), ell = 1009 is the last one admitted at (11, 2): a
    # larger ell, prime or not, is refused before X_ell or the space is built
    budget, _ = _cost("hecke", 11, 2, gamma0_index(11), dim_modular_symbols_gamma0(11, 2),
                      0, 0, 1009, 1)
    monkeypatch.setattr("petersym.cli.TIME_BUDGET", budget)
    heilbronn, spaces = [], []

    def merel(n):
        heilbronn.append(n)
        return []

    def space(sym, k):
        spaces.append(k)
        return build_space(sym, k)

    monkeypatch.setattr("petersym.pairing.heilbronn_merel", merel)
    monkeypatch.setattr("petersym.cli.build_space", space)
    code = main(["hecke", "--level", "11", "--weight", "2", "--ell", str(ell)])
    captured = capsys.readouterr()
    if accepted:
        assert code == 0
        assert heilbronn == [ell]
        data = json.loads(captured.out)
        assert data["ell"] == ell and data["matrix"] == [["0"] * 3] * 3
    else:
        assert code == 3
        assert spaces == [] and heilbronn == []
        assert _refused_for_budget(captured)


def test_hecke_has_no_group_option(capsys):
    # Hecke matrices are built over Gamma0 only, so hecke takes no --group
    with pytest.raises(SystemExit) as exc:
        main(["hecke", "--group", "gamma1", "--level", "11", "--weight", "2", "--ell", "2"])
    assert exc.value.code == 2
    assert "--group" in capsys.readouterr().err


def test_verify_petersson_quadrature_failure_exit_code(capsys, monkeypatch):
    def norm():
        raise ArithmeticError("quadrature error estimate too large: 1e-3")

    monkeypatch.setattr("petersym.qexp.petersson_norm_delta", norm)
    code, data = run(capsys, "verify", "--suite", "petersson")
    assert code == 4
    assert data["status"] == "fail"
    failed, self_pairing = data["checks"]
    assert failed["status"] == "fail" and failed["residual"] is None
    assert "quadrature" in failed["error"]
    assert self_pairing["status"] == "pass"


def _run_python(*args):
    """A fresh interpreter run with this checkout's petersym on its path."""
    src = str(Path(petersym.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *args],
                          env=env, capture_output=True, text=True, timeout=60)


def test_python_dash_m_runs_the_cli():
    result = _run_python("-m", "petersym", "--help")
    assert result.returncode == 0
    assert result.stdout.startswith("usage: petersym")


VALID_ARGV = {
    "farey": ["farey", "--level", "6", "--group", "gamma1", "--parent", "p.json"],
    "modsym-space": ["modsym-space", "--level", "5", "--weight", "4"],
    "eisbasis": ["eisbasis", "--level", "4", "--weight", "4"],
    "eis-symbol": ["eis-symbol", "--level", "4", "--weight", "4", "--fn", "f.json"],
    "pairing-matrix": ["pairing-matrix", "--level", "11", "--weight", "2", "--eisenstein"],
    "hecke": ["hecke", "--level", "11", "--weight", "2", "--ell", "3"],
    "cuspidal": ["cuspidal", "--level", "11", "--weight", "2"],
    "qexp": ["qexp", "--level", "4", "--weight", "4", "--fn", "f.json"],
    "verify": ["verify", "--suite", "delta"],
}
OUTPUT_PREFIXES = [[], ["--output=X"], ["--out", "X"], ["--o=X"], ["--output", "farey"],
                   ["--"], ["--output", "X", "--"], ["--output", "X"]]
# the prefixes of an argv that the command table reads without argparse
PLAIN_PREFIXES = [[], ["--output", "farey"], ["--output", "X"]]
HECKE = VALID_ARGV["hecke"]
OTHER_ARGV = [
    [], ["-h"], ["--help"], ["--he"], ["--output", "X", "-h", *HECKE], ["hecke", "-h"],
    ["--output", "X", "qexp", "--help"], ["no-such-command"], ["--output", "X", "farey-x"],
    ["--output"], ["--output", "X"], ["--output", "-h", *HECKE], ["--output", "-1", *HECKE],
    ["--", "-h"], ["--"],
    ["--bogus", *HECKE], ["-", *HECKE], ["--outputs", "X", *HECKE],
    [*HECKE, "--bogus"], [*HECKE, "--output", "X"], [*HECKE, "--group", "gamma1"],
    ["hecke", "--level", "11", "--weight", "two", "--ell", "3"], ["hecke", "--level", "11"],
    ["verify", "--suite", "nope"], ["farey", "--level", "6", "--group", "gamma2"],
    ["qexp", "--level", "4", "--weight", "4", "--terms", "5", "--fn", "f.json"],
    ["--output", "X", "--", "cuspidal", "--level", "11", "--weight", "2"],
    ["--", "--output", "X", *HECKE],
    [*HECKE, "--level", "12"], ["eis-symbol", "--level", "4", "--weight", "4", "--fn", "-x"],
    ["hecke", "--level", "-3", "--weight", "2", "--ell", "3"],
    ["hecke", "--level", "²", "--weight", "2", "--ell", "3"],
    ["hecke", "--level", "١١", "--weight", "2", "--ell", "3"],
    ["hecke", "--level", " 11", "--weight", "+2", "--ell", "3"],
    ["hecke", "--lev", "11", "--weight", "2", "--ell", "3"], ["hecke", "--level=11", *HECKE[3:]],
    ["pairing-matrix", "--eisenstein", "yes", "--level", "11", "--weight", "2"],
    ["qexp", "--level", "4", "--weight", "4", "--fn", ""], [*HECKE[:-1]],
    ["hecke", "--level", "1" * 5000, "--weight", "2", "--ell", "3"],
]


def _parse_outcome(parse, argv):
    """(exit code, the namespace as a dict or None, stdout, stderr) of one parse."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            namespace, code = vars(parse(argv)), 0
    except SystemExit as exc:
        namespace, code = None, exc.code
    return code, namespace, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", [prefix + VALID_ARGV[name] for name, *_ in _commands()
                                  for prefix in OUTPUT_PREFIXES] + OTHER_ARGV)
def test_chosen_command_parser_matches_the_full_parser(argv):
    """parse_args, whether it reads the command table or builds the full
    parser, gives what the full parser gives."""
    assert _parse_outcome(parse_args, argv) == _parse_outcome(build_parser().parse_args, argv)


_NAMES = [name for name, *_ in _commands()]
_FLAGS = sorted({flag for *_, arguments in _commands() for flag, _ in arguments})
_HOSTILE = ["-h", "--help", "--", "--lev", "--level=5", "-3", "-x", "-", "two", "²", "١١",
            "", " 7", "no-such-command"]


@st.composite
def _argvs(draw):
    """One command's flags in any order, optional ones left out at random,
    an int now and then in digits other than ASCII, and one change: a
    hostile value or flag, a flag given twice, a token put in anywhere,
    or the whole argv drawn as a list of tokens."""
    name, _, _, arguments = draw(st.sampled_from(_commands()))
    pairs = []
    for flag, options in draw(st.permutations(arguments)):
        if options.get("required") or draw(st.booleans()):
            values = options.get("choices") or (
                ["11", "007"] * 3 + ["١١", "²"] if "type" in options else ["f.json"])
            pairs.append([flag] + ([] if "action" in options else [draw(st.sampled_from(values))]))
    change = draw(st.sampled_from([None, "value", "value", "twice", "insert", "tokens"]))
    if change == "value":
        draw(st.sampled_from(pairs))[-1] = draw(st.sampled_from(_HOSTILE))
    elif change == "twice":
        flag, *value = draw(st.sampled_from(pairs))
        pairs.append([flag] + [draw(st.sampled_from(["3", "gamma", "mellin", "g.json"]))
                               for _ in value])
    argv = draw(st.sampled_from(PLAIN_PREFIXES)) + [name] + [t for pair in pairs for t in pair]
    tokens = st.sampled_from(_HOSTILE + _FLAGS + _NAMES + ["--output", "11"])
    if change == "insert":
        argv.insert(draw(st.integers(0, len(argv))), draw(tokens))
    elif change == "tokens":
        argv = draw(st.lists(tokens, max_size=8))
    return argv


@settings(max_examples=500, deadline=None)
@given(_argvs())
def test_plain_reader_matches_the_full_parser_on_any_argv(argv):
    assert _parse_outcome(parse_args, argv) == _parse_outcome(build_parser().parse_args, argv)


class _BuiltParser(Exception):
    pass


def _no_parser():
    raise _BuiltParser


@pytest.mark.parametrize("prefix", OUTPUT_PREFIXES)
@pytest.mark.parametrize("name", _NAMES)
def test_command_of_finds_every_command(monkeypatch, prefix, name):
    """A plain argv is read without argparse; any other builds the full parser."""
    monkeypatch.setattr("petersym.cli.build_parser", _no_parser)
    if prefix in PLAIN_PREFIXES:
        assert parse_args(prefix + VALID_ARGV[name]).command == name
    else:
        with pytest.raises(_BuiltParser):
            parse_args(prefix + VALID_ARGV[name])


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["--help"], ["--output", "X", "-h", *HECKE], ["no-such-command"],
    ["--bogus", *HECKE], ["-", *HECKE], ["--outputs", "X", *HECKE],
    ["--output"], ["--"], ["--", "-h"],
])
def test_command_of_builds_the_full_parser_when_no_command_is_plain(monkeypatch, argv):
    monkeypatch.setattr("petersym.cli.build_parser", _no_parser)
    with pytest.raises(_BuiltParser):
        parse_args(argv)


def test_importing_the_cli_loads_no_argparse():
    result = _run_python("-c", "import sys, petersym.cli; print(sorted("
                         "{'argparse', 'gettext', 'locale'} & set(sys.modules)))")
    assert result.returncode == 0 and result.stdout == "[]\n"


def test_plain_argv_reads_the_command_function_at_parse_time(monkeypatch):
    """The benchmark's tracer swaps cli.cmd_* after import; parse_args must
    hand back the swapped function."""
    def timed(args):
        return {}

    monkeypatch.setattr("petersym.cli.cmd_hecke", timed)
    assert parse_args(HECKE).func is timed


def test_usage_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_verify_delta_suite(capsys):
    code, data = run(capsys, "verify", "--suite", "delta")
    assert code == 0
    assert data["status"] == "pass"
    assert all(c["status"] == "pass" for c in data["checks"])


def test_output_file(tmp_path, capsys):
    out = tmp_path / "res.json"
    code = main(["--output", str(out), "farey", "--group", "gamma0",
                 "--level", "2"])
    capsys.readouterr()
    assert code == 0
    data = json.loads(out.read_text())
    assert data["invariants"]["index"] == 3


def test_output_file_that_cannot_be_opened(tmp_path, capsys):
    out = tmp_path / "missing" / "res.json"
    code = main(["--output", str(out), "hecke", "--level", "1", "--weight", "12",
                 "--ell", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: output file {out}: FileNotFoundError")
    assert not out.parent.exists()


def test_pairing_matrix_antisymmetric(capsys):
    code, data = run(capsys, "pairing-matrix", "--level", "11", "--weight", "2")
    assert code == 0
    m = data["matrix"]
    for i in range(len(m)):
        assert m[i][i] == "0"


_FUZZ_INDEX = {"gamma0": gamma0_index, "gamma1": gamma1_index, "gamma": gamma_full_index}
_small = st.integers(-1, 8)
_rational = st.tuples(st.integers(-9, 9), st.integers(1, 9)).map(lambda nd: f"{nd[0]}/{nd[1]}")


def _fn_tables(level):
    """--fn documents: an N x N table of rationals at N = level, or one
    of any small N (a string too) whose rows may be ragged and whose
    values may be no rationals."""
    n = max(level, 0)
    square = st.fixed_dictionaries({"N": st.just(level), "values": st.lists(
        st.lists(_rational, min_size=n, max_size=n), min_size=n, max_size=n)})
    broken = st.integers(0, 4).flatmap(lambda m: st.fixed_dictionaries({
        "N": st.one_of(st.just(m), _small, st.just("2")),
        "values": st.lists(st.lists(_rational | st.sampled_from(["x", "", 1, None, [1]]),
                                    min_size=max(m - 1, 0), max_size=m + 1),
                           min_size=max(m - 1, 0), max_size=m + 1)}))
    return square | broken


_parents = st.fixed_dictionaries({
    "group": st.sampled_from(["gamma0", "gamma1", "gamma", "sl2"]),
    "level": _small | st.just("2"),
})


@st.composite
def _fuzz_argv(draw):
    """argv of any command but verify, with small and nonpositive values,
    and the document of its input file, if it takes one."""
    options = {"--level": draw(_small)}
    command = draw(st.sampled_from([name for name, *_ in _commands() if name != "verify"]))
    if command != "farey":
        options["--weight"] = draw(st.integers(-1, 6))
    if command in ("farey", "modsym-space", "pairing-matrix"):
        options["--group"] = draw(st.sampled_from(["gamma0", "gamma1", "gamma"]))
    if command == "hecke":
        options["--ell"] = draw(st.integers(-2, 13))
    if command == "qexp":
        options["--terms"] = draw(_small)
    document = None
    if command in ("eis-symbol", "qexp"):
        document = draw(_fn_tables(options["--level"]))
    elif command == "farey" and draw(st.booleans()):
        document = draw(_parents)
    # now and then a required option goes missing: a usage error
    dropped = draw(st.sampled_from([None, *options]) if draw(st.integers(0, 9)) == 0
                   else st.none())
    argv = [command] + [str(x) for flag, value in options.items() if flag != dropped
                        for x in (flag, value)]
    if command == "pairing-matrix" and draw(st.booleans()):
        argv.append("--eisenstein")
    return argv, document


@settings(deadline=None, max_examples=200)
@given(_fuzz_argv())
def test_every_command_exits_with_a_documented_code(case):
    argv, document = case
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        if document is not None:
            path = os.path.join(tmp, "input.json")
            with open(path, "w") as fh:
                json.dump(document, fh)
            argv = argv + ["--fn" if argv[0] != "farey" else "--parent", path]
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    assert code in (0, 2, 3, 4), (argv, document, err.getvalue())
    assert (code == 0) == (out.getvalue() != ""), (argv, err.getvalue())
    if code == 0 and argv[0] == "farey" and document is not None:
        group = argv[argv.index("--group") + 1] if "--group" in argv else "gamma0"
        level = int(argv[argv.index("--level") + 1])
        assert json.loads(out.getvalue())["invariants"]["index"] == _FUZZ_INDEX[group](level)


# sizes up to 10**30, with the small values every command meets first
_sizes = st.integers(-3, 40) | st.integers(0, 10**30) | st.sampled_from([10**e for e in range(31)])


@st.composite
def _admission_argv(draw):
    """argv of any command but verify, with sizes up to 10**30; an input
    file is named but never written."""
    command = draw(st.sampled_from([name for name, *_ in _commands() if name != "verify"]))
    argv = [command, "--level", str(draw(_sizes))]
    if command != "farey":
        argv += ["--weight", str(draw(_sizes))]
    if command in ("farey", "modsym-space", "pairing-matrix"):
        argv += ["--group", draw(st.sampled_from(["gamma0", "gamma1", "gamma"]))]
    if command == "hecke":
        argv += ["--ell", str(draw(_sizes))]
    if command == "qexp":
        argv += ["--terms", str(draw(_sizes))]
    if command in ("eis-symbol", "qexp"):
        argv += ["--fn", "missing.json"]
    if command == "farey" and draw(st.booleans()):
        argv += ["--parent", "missing.json"]
    if command == "pairing-matrix" and draw(st.booleans()):
        argv.append("--eisenstein")
    return argv


@settings(deadline=None, max_examples=300)
@given(_admission_argv())
def test_admission_decides_before_any_work(argv):
    # every command is stubbed to raise: admission either refuses the
    # job (exit 3) or lets it reach its command, and it decides at once
    stubs = {func.__name__: func for _, _, func, _ in _commands()}
    err = io.StringIO()
    try:
        for name in stubs:
            setattr(petersym.cli, name, _unreachable)
        start = perf_counter()
        with redirect_stderr(err):
            try:
                code = main(argv)
            except _Reached:
                code = None
        elapsed = perf_counter() - start
    finally:
        for name, func in stubs.items():
            setattr(petersym.cli, name, func)
    assert elapsed < 0.5, argv
    if code is not None:
        assert code == 3 and err.getvalue().startswith("error: "), (argv, code)


_COSTED = ["farey", "modsym-space", "eisbasis", "eis-symbol", "pairing-matrix",
           "pairing-matrix --eisenstein", "hecke", "cuspidal", "qexp"]


@settings(deadline=None, max_examples=500)
@given(st.sampled_from(_COSTED),
       st.tuples(st.integers(1, 10**4), st.integers(2, 2000), st.integers(1, 10**6),
                 st.integers(0, 10**5), st.integers(0, 500), st.integers(0, 10**6),
                 st.integers(2, 10**5), st.integers(1, 10**7)),
       st.integers(0, 7), st.integers(1, 10**3))
def test_every_prediction_grows_with_each_size(command, sizes, which, step):
    # admission bounds the sizes from below before it factors the level,
    # which is sound only if each prediction grows with each size
    grown = list(sizes)
    grown[which] += step
    before, after = _cost(command, *sizes), _cost(command, *grown)
    assert all(a >= b for a, b in zip(after, before)), (before, after)
