"""Record ``reference.json``: what the checks compare later outputs with.

Run from the root of a checkout, at the commit whose outputs are the
reference (the benchmark's reference was recorded at the commit that
added it):

    PYTHONPATH=src python3 benchmark/record_reference.py

For every job any seed can draw it stores the basis-invariant digest
of the output (``checks.digest``); for every ``qexp`` job it stores the
expansion of each indicator function of (Z/NZ)^2, reduced modulo the
cyclotomic polynomial, which the checks combine linearly.  The program
runs in this process through ``petersym.cli.main``.
"""

from __future__ import annotations

import json
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import checks
import workloads

ROOT = Path(__file__).resolve().parent.parent


def run_cli(cli, argv, workdir: Path) -> dict:
    out = workdir / "out.json"
    code = cli.main(["--output", str(out), *argv])
    if code != 0:
        raise RuntimeError(f"{argv} exited with {code}")
    return json.loads(out.read_text())


def main() -> int:
    import petersym.cli as cli

    digests, qexp = {}, {}
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_work") as tmp:
        workdir = Path(tmp)
        for spec in workloads.universe():
            command = spec[0]
            if command in ("cuspidal", "hecke", "modsym-space"):
                job = workloads.materialize(spec, workdir, "rec")
                digests[job["key"]] = checks.digest(job, run_cli(cli, job["argv"], workdir))
            elif command == "qexp":
                n = spec[1]
                table = {}
                for x in range(n):
                    for y in range(n):
                        values = [[Fraction(int((a, b) == (x, y))) for b in range(n)]
                                  for a in range(n)]
                        job = workloads.materialize(spec, workdir, "rec", values)
                        series = checks.qexp_series(run_cli(cli, job["argv"], workdir), n)
                        table[f"{x},{y}"] = [[checks.frac_str(c) for c in row] for row in series]
                qexp[workloads.job_key(spec)] = table
            print(f"recorded {workloads.job_key(spec)}", file=sys.stderr)
    # one line per digest and per q-expansion table
    lines = ['{"digests": ' + json.dumps(digests, indent=1, sort_keys=True) + ',', '"qexp": {']
    lines += [f"{json.dumps(key)}: {json.dumps(qexp[key])}," for key in sorted(qexp)]
    lines[-1] = lines[-1].rstrip(",")
    checks.REFERENCE_PATH.write_text("\n".join(lines) + "\n}}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
