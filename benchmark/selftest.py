"""Self-tests of the benchmark.  Run from the root of a checkout:

    python3 benchmark/selftest.py

They cover: a smoke run of every workload, traced and untraced, whose
metrics must match BENCHMARK.json by name and unit; a mutated output
(one Fraction changed) driving fail_frac above 0; the tracer restoring
every wrapped function; the independent formulas; the speed scaling;
and a directory without the program, where the benchmark must fail
without a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path

import checks
import run
import speed
import workloads
from tracer import Tracer, snapshot_bindings

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(Path(cwd) / "benchmark" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


class SmokeRuns(unittest.TestCase):
    def _smoke(self, workload: str, trace: int) -> dict:
        proc = bench("--workload", workload, "--seed", "1", "--seconds", "1",
                     "--trace", str(trace), "--smoke")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"], proc.stdout)
        self.assertEqual(result["failed"], 0)
        declared = BENCHMARK["per_layer" if trace else "end_to_end"]
        self.assertEqual({name: m["unit"] for name, m in result["metrics"].items()},
                         {m["name"]: m["unit"] for m in declared})
        return {name: m["value"] for name, m in result["metrics"].items()}

    def test_workloads(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                values = self._smoke(workload, 0)
                self.assertTrue(all(v > 0 for v in values.values()), values)
                layers = self._smoke(workload, 1)
                dominant = max((layers[f"{x}.self_s"], x) for x in run.LAYERS)[1]
                self.assertEqual(dominant, {"cuspidal": "eisenstein", "hecke": "polyspace",
                                            "space": "exact", "oracle": "qexp"}[workload])
                if workload in ("hecke", "space"):
                    self.assertEqual(layers["eisenstein.moment_calls"], 0)


class Mutation(unittest.TestCase):
    def test_changed_fraction_fails(self):
        """One Fraction changed in a captured output makes fail_frac > 0."""

        class MutatingRunner(run.Runner):
            def check(self, job, raw):
                text = raw.decode()
                data = json.loads(text)
                if job["command"] == "cuspidal" and data["basis"]:
                    row = data["basis"][0][0]
                    row[0] = str(Fraction(row[0]) + Fraction(1, 7))
                    raw = json.dumps(data).encode()
                return super().check(job, raw)

        with tempfile.TemporaryDirectory(dir=ROOT / ".bench_work") as tmp:
            runner = MutatingRunner("cuspidal", 1, Path(tmp))
            passes = run.run_passes(runner, 1, trace=False, smoke=True)
        samples = [s for p in passes for s in p.samples]
        failed = [s for s in samples if not s.ok]
        self.assertGreater(len(failed) / len(samples), 0)
        self.assertTrue(all("digest" in s.error for s in failed))

    def test_checks_reject_a_change(self):
        job = {"command": "hecke", "key": "hecke 11 2 2", "level": 11, "weight": 2, "ell": 2}
        data = capture(["hecke", "--level", "11", "--weight", "2", "--ell", "2"])
        self.assertIsNone(checks.check(job, json.dumps(data)))
        data["matrix"][0][0] = str(Fraction(data["matrix"][0][0]) + 1)
        self.assertIsNotNone(checks.check(job, json.dumps(data)))

        with tempfile.TemporaryDirectory(dir=ROOT / ".bench_work") as tmp:
            qexp_job = next(j for j in workloads.make_jobs("oracle", 3, Path(tmp))
                            if j["command"] == "qexp")
            data = capture(qexp_job["argv"])
        self.assertIsNone(checks.check(qexp_job, json.dumps(data)))
        row = data["coefficients"][2]
        row[1] = str(Fraction(row[1]) + Fraction(1, 3))
        self.assertIsNotNone(checks.check(qexp_job, json.dumps(data)))


def capture(argv) -> dict:
    """Run the CLI once in a fresh interpreter and return its JSON output."""
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_work") as tmp:
        out = Path(tmp) / "out.json"
        proc = subprocess.run([sys.executable, "-m", "petersym.cli", "--output", str(out), *argv],
                              cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(run.SRC)),
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise AssertionError(proc.stderr)
        return json.loads(out.read_text())


class TracerRestores(unittest.TestCase):
    def test_originals_back_in_place(self):
        sys.path.insert(0, str(run.SRC))
        try:
            import petersym.cli as cli
            import petersym.pairing as pairing
            import petersym.spaces as spaces

            before = snapshot_bindings()
            kernel = spaces.kernel_basis
            tracer = Tracer()
            tracer.install()
            try:
                self.assertIsNot(spaces.kernel_basis, kernel)
                self.assertIs(spaces.kernel_basis, pairing.kernel_basis)
                with tempfile.TemporaryDirectory(dir=ROOT / ".bench_work") as tmp:
                    code = cli.main(["--output", str(Path(tmp) / "o.json"),
                                     "cuspidal", "--level", "11", "--weight", "2"])
                self.assertEqual(code, 0)
            finally:
                tracer.uninstall()
            self.assertTrue(tracer.restored())
            after = snapshot_bindings()
            self.assertEqual({k: id(v) for k, v in before.items()},
                             {k: id(after[k]) for k in before})
            self.assertGreater(tracer.report()["stats"]["eisenstein.moment"]["calls"], 0)
            self.assertEqual(tracer.report()["missing"], [])
        finally:
            sys.path.remove(str(run.SRC))


class Formulas(unittest.TestCase):
    def test_classical_values(self):
        self.assertEqual(checks.invariants("gamma0", 11),
                         {"index": 12, "n_cusps": 2, "nu2": 0, "nu3": 0, "genus": 1})
        self.assertEqual(checks.invariants("gamma1", 23)["genus"], 12)
        self.assertEqual(checks.invariants("gamma", 7)["genus"], 3)
        self.assertEqual(checks.dim_cusp_forms_gamma0(1, 24), 2)
        self.assertEqual(checks.dim_modular_symbols_gamma0(37, 2), 5)

    def test_charpoly(self):
        a = [[Fraction(2), Fraction(1), Fraction(0)],
             [Fraction(1), Fraction(3), Fraction(1)],
             [Fraction(0), Fraction(1), Fraction(4)]]
        # det(xI - A) = x^3 - 9x^2 + 24x - 18
        self.assertEqual(checks.charpoly(a), [1, -9, 24, -18])

    def test_rref_is_basis_invariant(self):
        v = [[Fraction(1), Fraction(2), Fraction(3)], [Fraction(0), Fraction(1), Fraction(5)]]
        w = [[a + 2 * b for a, b in zip(*v)], [-b for b in v[1]]]
        self.assertEqual(checks.rref_digest(v, 3), checks.rref_digest(w, 3))


class SpeedScaling(unittest.TestCase):
    def test_scaled(self):
        ref = speed.REFERENCE_S
        self.assertAlmostEqual(speed.scaled(1.5, ref, ref), 1.5)
        # twice as slow a machine halves a time measured on it
        self.assertAlmostEqual(speed.scaled(3.0, 2 * ref, 2 * ref), 1.5)

    def test_loop_is_independent_of_the_program(self):
        proc = subprocess.run(
            [sys.executable, "-c", "import speed, sys; speed.loop_seconds();"
             " print(sorted(m for m in sys.modules if m.startswith('petersym')))"],
            cwd=HERE, env=dict(os.environ, PYTHONPATH=str(run.SRC)),
            capture_output=True, text=True, timeout=60)
        self.assertEqual(proc.stdout.strip(), "[]", proc.stderr)


class WithoutProgram(unittest.TestCase):
    def test_fails_without_result(self):
        with tempfile.TemporaryDirectory(dir=ROOT / ".bench_work") as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            for path in BENCHMARK["paths"]:
                shutil.copytree(ROOT / path, Path(tmp) / path,
                                ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench("--workload", "cuspidal", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=tmp)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    unittest.main()
