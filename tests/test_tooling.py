"""Static checks of the package source with the standard-library parser.

No linter is a dependency of the project, so the checks that keep
deletions honest are made here: every name a module exports in
`__all__` exists and no module imports a name it never uses (on the
package and the test-side oracle), every name a package module
exports is used by another package module or by a test, and every
public method of a package class is read as an attribute (or imported)
and every public module constant is read somewhere in the package or
the tests, and every default parameter
of a package function is passed by some call, so a default that no
caller sets is a constant of the body instead.  The integer matrix of
the action on V_k is read only where it is defined and by
`spaces.coset_rows`, the one sum of action matrices over coset blocks.
The q-expansion brackets make no group-ring arithmetic: the count of
`CycVec` sums, scalings and rotations in one `eis_qexp` does not grow
with the number of terms, one `cuspidal_subspace` evaluates no right
argument of the pairing through `SymbolElement.eval_path`, the
pairing reads a space element given as a left with no `hom_cocycle`
and no `eval_path` either, `build_space` makes no Fraction, and
`cuspidal_subspace` makes none in `petersym.eisenstein`.  The
last checks keep the package free of third-party numeric libraries
and the command-line import free of `dataclasses` and `inspect`.
"""

import ast
import importlib
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import petersym
from petersym.cyclo import CycVec
from petersym.eisenstein import TorsionFunction
from petersym.farey import gamma0_symbol
from petersym.pairing import cuspidal_subspace, hom_cocycle, pairing_matrix
from petersym.qexp import eis_qexp, normalized_transform
from petersym.spaces import SymbolElement, build_space

PACKAGE = Path(petersym.__file__).parent
MODULES = [pytest.param(f"petersym.{p.stem}", p, id=p.stem)
           for p in sorted(PACKAGE.glob("*.py")) if p.stem != "__init__"]
PACKAGE_MODULES = list(MODULES)
MODULES.append(pytest.param("tests.oracles", Path(__file__).with_name("oracles.py"),
                            id="tests.oracles"))
TESTS = Path(__file__).parent


@pytest.mark.parametrize("name,path", MODULES)
def test_all_names_resolve(name, path):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert missing == []


@pytest.mark.parametrize("name,path", MODULES)
def test_no_unused_imports(name, path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted((line, bound) for bound, line in imported.items() if bound not in used)
    assert unused == []


def _names_used(path: Path) -> set:
    """Every Name and attribute read, and every imported name, in the file."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    return used


def _attributes_read(path: Path) -> set:
    """Every attribute read, and every imported name, in the file."""
    return {node.attr if isinstance(node, ast.Attribute) else node.name
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.alias)}


def _public_definitions(path: Path) -> list:
    """The public methods of the module's classes and its public module constants."""
    out = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.ClassDef):
            out += [f"{node.name}.{item.name}" for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [t.id for t in targets if isinstance(t, ast.Name) and not t.id.startswith("_")]
    return out


@pytest.mark.parametrize("name,path", PACKAGE_MODULES)
def test_exports_are_used_elsewhere(name, path):
    exported = getattr(importlib.import_module(name), "__all__", [])
    others = [p for p in sorted(PACKAGE.glob("*.py")) if p != path] + sorted(TESTS.rglob("*.py"))
    used = set().union(*(_names_used(p) for p in others))
    assert sorted(set(exported) - used) == []


def test_action_matrix_is_read_by_polyspace_and_spaces_only():
    # every other module acts through Vk.act, polyspace.act_coords or
    # spaces.coset_rows, so no hand-written block sum comes back
    readers = [p.stem for p in sorted(PACKAGE.glob("*.py"))
               if "action_matrix" in _names_used(p)]
    assert readers == ["polyspace", "spaces"]


def test_eis_qexp_group_ring_arithmetic_does_not_grow_with_the_terms(monkeypatch):
    calls = {"__add__": 0, "scale": 0, "rotate": 0}

    def counted(name):
        method = getattr(CycVec, name)

        def wrapper(self, *args):
            calls[name] += 1
            return method(self, *args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(CycVec, name, counted(name))
    n = 7
    # a group-ring valued table, as mellin_numeric hands eis_qexp
    f = normalized_transform(TorsionFunction(
        n, [[Fraction(x - 2 * y, 1 + (x + y) % 3) for y in range(n)] for x in range(n)]))
    counts = []
    for terms in (10, 40):
        calls.update(dict.fromkeys(calls, 0))
        eis_qexp(f, 4, terms)
        counts.append(dict(calls))
    assert counts[0] == counts[1]


def _loaded_after_import(imports: str, modules: tuple) -> str:
    """Which of `modules` a fresh interpreter holds after `import <imports>`."""
    src = str(PACKAGE.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = (f"import sys, {imports}; "
            f"print(sorted(m for m in {modules!r} if m in sys.modules))")
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def test_no_numeric_libraries_imported():
    assert _loaded_after_import("petersym.cli, petersym.qexp", ("scipy", "numpy")) == "[]"


def test_cli_import_skips_dataclasses_and_inspect():
    # the records are named tuples; dataclasses would pull in inspect
    assert _loaded_after_import("petersym.cli", ("dataclasses", "inspect")) == "[]"


def test_cuspidal_subspace_reads_rights_through_path_rows_only(monkeypatch):
    # the pairing applies each space's integer path rows to the right's
    # numerators; no right argument is evaluated as a Vk
    calls = []
    eval_path = SymbolElement.eval_path

    def counted(self, r, s):
        calls.append((r, s))
        return eval_path(self, r, s)

    monkeypatch.setattr(SymbolElement, "eval_path", counted)
    _, basis = cuspidal_subspace(37, 2)
    assert len(basis) == 4
    assert calls == []


def test_build_space_makes_no_fraction(monkeypatch):
    # a basis vector is made as integer numerators over one denominator,
    # by the kernel above weight 2 and by the spanning forest at weight 2
    made = []

    def counted(*args):
        made.append(args)
        return Fraction(*args)

    monkeypatch.setattr("petersym.exact.Fraction", counted)
    monkeypatch.setattr("petersym.spaces.Fraction", counted)
    for n, k in ((60, 8), (180, 2)):
        assert build_space(gamma0_symbol(n), k).dimension() > 0
    assert made == []


def test_cuspidal_subspace_makes_no_fraction_in_eisenstein(monkeypatch):
    # the Eisenstein lefts are integers from the orbit's points to the
    # pairing: support, twist sums, walk and cocycle values
    made = []

    def counted(*args):
        made.append(args)
        return Fraction(*args)

    monkeypatch.setattr("petersym.eisenstein.Fraction", counted)
    for n, k in ((37, 2), (12, 4)):
        assert cuspidal_subspace(n, k)[1]
    assert made == []


def test_space_element_lefts_skip_the_fraction_route(monkeypatch):
    # a left space element is read by `path_values` on its based paths,
    # with no cocycle and no Vk in between
    calls = []
    eval_path = SymbolElement.eval_path

    def counted_eval_path(self, r, s):
        calls.append("eval_path")
        return eval_path(self, r, s)

    def counted_hom_cocycle(*args):
        calls.append("hom_cocycle")
        return hom_cocycle(*args)

    monkeypatch.setattr(SymbolElement, "eval_path", counted_eval_path)
    monkeypatch.setattr("petersym.pairing.hom_cocycle", counted_hom_cocycle)
    sp = build_space(gamma0_symbol(37), 2)
    mat = pairing_matrix(sp.symbol, sp.basis, sp.basis)
    assert any(any(row) for row in mat)
    assert calls == []


@pytest.mark.parametrize("name,path", PACKAGE_MODULES)
def test_public_methods_and_constants_are_used(name, path):
    # a method is used only where it is read as an attribute or imported:
    # a local variable of the same name does not count
    files = sorted(PACKAGE.glob("*.py")) + sorted(TESTS.rglob("*.py"))
    names = set().union(*(_names_used(p) for p in files))
    attributes = set().union(*(_attributes_read(p) for p in files))
    unused = [d for d in _public_definitions(path)
              if d.rsplit(".", 1)[-1] not in (attributes if "." in d else names)]
    assert unused == []


def _defaults(tree) -> list:
    """(callee, parameter, positional index or None) for every default.

    A constructor's callee is its class.  The index counts call
    arguments, so it skips the bound first parameter of a method; a
    keyword-only parameter has no index.
    """
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef)):
            continue
        for fn in node.body:
            if not isinstance(fn, ast.FunctionDef):
                continue
            static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
            bound = isinstance(node, ast.ClassDef) and not static
            callee = node.name if fn.name == "__init__" else fn.name
            args = fn.args.posonlyargs + fn.args.args
            first = len(args) - len(fn.args.defaults)
            out += [(callee, arg.arg, i - bound) for i, arg in enumerate(args[first:], first)]
            out += [(callee, arg.arg, None)
                    for arg, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d]
    return out


def _passed(tree) -> set:
    """(function, keyword) and (function, position) of every argument a call passes.

    A call through `*args` or `**kwargs` is taken to pass everything.
    """
    out = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        if any(isinstance(a, ast.Starred) for a in node.args) \
                or any(kw.arg is None for kw in node.keywords):
            out.add((name, "*"))
        out.update((name, i) for i in range(len(node.args)))
        out.update((name, kw.arg) for kw in node.keywords)
    return out


def test_every_default_parameter_is_passed_somewhere():
    files = sorted(PACKAGE.glob("*.py")) + sorted(TESTS.rglob("*.py"))
    passed = set().union(*(_passed(ast.parse(p.read_text())) for p in files))
    unset = [f"{p.stem}.{fn}({arg})"
             for p in sorted(PACKAGE.glob("*.py"))
             for fn, arg, i in _defaults(ast.parse(p.read_text()))
             if not {(fn, arg), (fn, i), (fn, "*")} & passed]
    assert unset == []
