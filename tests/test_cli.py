import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import petersym
from petersym.cli import (
    MAX_HECKE_ELL,
    MAX_INDICATOR_CELLS,
    MAX_QEXP_CELLS,
    MAX_QEXP_WEIGHT,
    MAX_SPACE_WEIGHT,
    main,
)
from petersym.cyclo import CycVec
from petersym.dims import gamma0_invariants
from petersym.eisenstein import TorsionFunction
from petersym.orbits import basis_v
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


@pytest.mark.parametrize("level", [300, 10**9])
def test_eisbasis_size_bound_checked_before_classifying(capsys, monkeypatch, level):
    def classify(*args):
        raise AssertionError("classification started")

    def listing(n, k):
        assert n * n <= MAX_INDICATOR_CELLS, "divisors listed for a refused level"
        return basis_v(n, k)

    monkeypatch.setattr("petersym.cli.orbit_indicators", classify)
    monkeypatch.setattr("petersym.orbits.orbit_of", classify)
    monkeypatch.setattr("petersym.cli.basis_v", listing)
    code = main(["eisbasis", "--level", str(level), "--weight", "2"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("extra,accepted", [(-1, True), (0, False)])
def test_qexp_terms_bound(capsys, tmp_path, monkeypatch, extra, accepted):
    calls = []

    def expansion(f, k, terms):
        # a zero expansion of the asked length, without the exact work
        calls.append(terms)
        return QExpansion(f.n, k, terms, CycVec(f.n), [CycVec(f.n)] * (terms + 1))

    monkeypatch.setattr("petersym.qexp.eis_qexp", expansion)
    level = 7
    terms = MAX_QEXP_CELLS // level + extra  # (terms + 1) * level crosses the bound here
    fn_file = tmp_path / "fn.json"
    fn_file.write_text(json.dumps(TorsionFunction.indicator(level, (1, 2)).to_json()))
    code = main(["qexp", "--level", str(level), "--weight", "6",
                 "--terms", str(terms), "--fn", str(fn_file)])
    captured = capsys.readouterr()
    if accepted:
        assert code == 0
        assert calls == [terms]
        assert len(json.loads(captured.out)["coefficients"]) == terms
    else:
        assert code == 3
        assert calls == []
        assert captured.err.startswith("error: ")


@pytest.mark.parametrize("extra,accepted", [(0, True), (1, False)])
def test_qexp_weight_bound(capsys, tmp_path, monkeypatch, extra, accepted):
    calls = []

    def expansion(f, k, terms):
        calls.append(k)
        return QExpansion(f.n, k, terms, CycVec(f.n), [CycVec(f.n)] * (terms + 1))

    monkeypatch.setattr("petersym.qexp.eis_qexp", expansion)
    weight = MAX_QEXP_WEIGHT + extra
    fn_file = tmp_path / "fn.json"
    if accepted:
        fn_file.write_text(json.dumps(TorsionFunction.constant(1).to_json()))
    # a refused weight exits before the (here missing) file is read
    code = main(["qexp", "--level", "1", "--weight", str(weight),
                 "--terms", "3", "--fn", str(fn_file)])
    captured = capsys.readouterr()
    if accepted:
        assert code == 0
        assert calls == [weight]
        assert json.loads(captured.out)["weight"] == weight
    else:
        assert code == 3
        assert calls == []
        assert captured.err.startswith("error: ")


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
    weight = MAX_SPACE_WEIGHT + extra
    code = main(command + ["--level", "11", "--weight", str(weight)])
    captured = capsys.readouterr()
    if accepted:
        assert code == 0
        assert built == [weight]
        assert json.loads(captured.out)["weight"] == weight
    else:
        # refused before the (odd-weight) group is unfolded
        assert code == 3
        assert built == unfolded == []
        assert f"above the bound {MAX_SPACE_WEIGHT}" in captured.err


@pytest.mark.parametrize("extra,accepted", [(0, True), (1, False)])
def test_eis_symbol_weight_bound(capsys, tmp_path, monkeypatch, extra, accepted):
    calls = []

    class Symbol:
        # the zero period data of the asked weight, without the moments
        def __init__(self, f, k):
            calls.append(k)
            self.p_mod = Vk.zero(k)
            self.c_inf = Fraction(0)

    monkeypatch.setattr("petersym.cli.EisSymbol", Symbol)
    weight = MAX_QEXP_WEIGHT + extra
    fn_file = tmp_path / "fn.json"
    if accepted:
        fn_file.write_text(json.dumps(TorsionFunction.constant(1).to_json()))
    # a refused weight exits before the (here missing) file is read
    code = main(["eis-symbol", "--level", "1", "--weight", str(weight), "--fn", str(fn_file)])
    captured = capsys.readouterr()
    if accepted:
        assert code == 0
        assert calls == [weight]
        assert json.loads(captured.out)["weight"] == weight
    else:
        assert code == 3
        assert calls == []
        assert f"above the bound {MAX_QEXP_WEIGHT}" in captured.err


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
]


@pytest.mark.parametrize("argv,digest", GOLDEN,
                         ids=["-".join(a.lstrip("-") for a in argv) for argv, _ in GOLDEN])
def test_golden_output(capsys, argv, digest):
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def _next_prime(n):
    n += 1
    while any(n % p == 0 for p in range(2, int(n ** 0.5) + 1)):
        n += 1
    return n


@pytest.mark.parametrize("ell,accepted", [
    (MAX_HECKE_ELL, True), (MAX_HECKE_ELL + 1, False), (_next_prime(MAX_HECKE_ELL), False),
])
def test_hecke_ell_bound(capsys, monkeypatch, ell, accepted):
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
        assert f"above the bound {MAX_HECKE_ELL}" in captured.err


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


def test_python_dash_m_runs_the_cli():
    src = str(Path(petersym.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    result = subprocess.run([sys.executable, "-m", "petersym", "--help"],
                            env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0
    assert result.stdout.startswith("usage: petersym")


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


def test_pairing_matrix_antisymmetric(capsys):
    code, data = run(capsys, "pairing-matrix", "--level", "11", "--weight", "2")
    assert code == 0
    m = data["matrix"]
    for i in range(len(m)):
        assert m[i][i] == "0"
