import json

import pytest

from petersym.cli import main
from petersym.farey import gamma0_symbol


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
])
def test_bad_arguments_exit_code(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error: ")


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
