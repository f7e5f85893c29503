"""Benchmark of the petersym command line.

Run from the root of a checkout:

    python3 benchmark/run.py --workload cuspidal --seed 1 --seconds 30 --trace 0

Each job is one ``petersym.cli.main(argv)`` call in a fresh interpreter
(``child.py``), run one at a time in a closed loop; a pass runs every
job of the seeded list once, and passes repeat until the time is used.
Every output is checked (``checks.py``) outside the timed region.
Times are scaled to a reference machine speed measured between jobs
(``speed.py``); raw times are printed beside them.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics, taken
from wrappers around each layer's public entries (``tracer.py``); its
spans are written to ``.bench_work/`` at the end.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import speed
import workloads
from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

JOB_TIMEOUT_S = 30      # the slowest job at the seed takes about 2 s
RUN_LIMIT_S = 140       # no new job starts after this; a run ends within 180 s
SETUP_PROBES = 15

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "job_s.p50": "s",
    "job_s.tail": "s",
    "peak_rss_mb": "MB",
}

# per-layer metric -> (unit, source); sources: ("self", stat), ("calls", stat),
# ("counter", name), or a special name handled in layer_metrics().
PER_LAYER = {
    "eisenstein.moment_s": ("s", ("self", "eisenstein.moment")),
    "eisenstein.moment_calls": ("count", ("calls", "eisenstein.moment")),
    "eisenstein.fn_act_calls": ("count", ("calls", "eisenstein.fn_act")),
    "eisenstein.cocycle_calls": ("count", ("calls", "eisenstein.cocycle")),
    "eisenstein.cocycle_distinct_frac": ("ratio", ("special", "cocycle_distinct")),
    "pairing.pair_s": ("s", ("self", "pairing.pair")),
    "pairing.pair_calls": ("count", ("calls", "pairing.pair")),
    "modgroup.cf_calls": ("count", ("calls", "modgroup.cf")),
    "modgroup.cf_steps": ("count", ("counter", "modgroup.cf_steps")),
    "modgroup.cf_s": ("s", ("self", "modgroup.cf")),
    "orbits.basis_s": ("s", ("self", "orbits.basis")),
    "orbits.basis_size": ("count", ("counter", "orbits.basis_size")),
    "polyspace.act_s": ("s", ("self", "polyspace.act")),
    "polyspace.act_calls": ("count", ("calls", "polyspace.act")),
    "exact.solve_s": ("s", ("self", "exact.solve")),
    "exact.solve_calls": ("count", ("calls", "exact.solve")),
    "pairing.hecke_s": ("s", ("self", "pairing.hecke")),
    "pairing.hecke_calls": ("count", ("calls", "pairing.hecke")),
    "spaces.eval_path_calls": ("count", ("calls", "spaces.eval_path")),
    "farey.locate_s": ("s", ("self", "farey.locate")),
    "farey.locate_calls": ("count", ("calls", "farey.locate")),
    "farey.unfold_s": ("s", ("self", "farey.unfold")),
    "farey.cosets": ("count", ("counter", "farey.cosets")),
    "farey.arcs": ("count", ("counter", "farey.arcs")),
    "exact.kernel_s": ("s", ("self", "exact.kernel")),
    "exact.kernel_calls": ("count", ("calls", "exact.kernel")),
    "exact.kernel_cols": ("count", ("counter", "exact.kernel_cols")),
    "exact.kernel_dim": ("count", ("counter", "exact.kernel_dim")),
    "spaces.build_s": ("s", ("self", "spaces.build")),
    "spaces.relation_rows": ("count", ("counter", "spaces.relation_rows")),
    "spaces.relation_nnz": ("count", ("counter", "spaces.relation_nnz")),
    "cli.cmd_s": ("s", ("self", "cli.cmd")),
    "cli.emit_s": ("s", ("self", "cli.emit")),
    "cli.output_bytes": ("bytes", ("special", "output_bytes")),
    "qexp.import_s": ("s", ("self", "qexp.import")),
    "qexp.exact_s": ("s", ("self", "qexp.exact")),
    "qexp.numeric_s": ("s", ("self", "qexp.numeric")),
    "cyclo.reduce_calls": ("count", ("calls", "cyclo.reduce")),
    **{f"{layer}.self_s": ("s", ("layer", layer)) for layer in LAYERS},
    "trace.overhead_frac": ("ratio", ("special", "overhead")),
}


class Sample:
    """One job execution."""

    def __init__(self, job):
        self.job = job
        self.seconds = 0.0        # scaled to the reference speed
        self.raw_seconds = 0.0
        self.rss_kb = 0
        self.output_bytes = 0
        self.error = None
        self.trace = None

    @property
    def ok(self) -> bool:
        return self.error is None


class Runner:
    def __init__(self, workload: str, seed: int, workdir: Path):
        self.workload = workload
        self.workdir = workdir
        self.jobs = workloads.make_jobs(workload, seed, workdir)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self.env["PYTHONHASHSEED"] = "0"   # per-layer counts must repeat exactly
        self._checked: dict[str, str | None] = {}
        self.speed = speed.loop_seconds()   # the speed loop's latest time
        self.speed_log: list[float] = []

    def python(self, *args) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, *args], cwd=ROOT, env=self.env,
                              capture_output=True, text=True, timeout=JOB_TIMEOUT_S)

    def warm_up(self) -> None:
        """Compile the package's bytecode once, untimed."""
        proc = self.python("-c", "import petersym.cli, petersym.qexp")
        if proc.returncode != 0:
            raise RuntimeError(f"cannot import petersym: {proc.stderr.strip()}")

    def speed_factor(self) -> float:
        """What scales the interval that just ended; runs the speed loop again."""
        before, self.speed = self.speed, speed.loop_seconds()
        self.speed_log.append(self.speed)
        return speed.scaled(1.0, before, self.speed)

    def setup_seconds(self, probes: int) -> tuple[list[float], list[float]]:
        """Scaled and raw wall times of interpreter start plus ``import petersym.cli``."""
        times, raw = [], []
        for _ in range(probes):
            t0 = time.perf_counter()
            self.python("-c", "import petersym.cli").check_returncode()
            raw.append(time.perf_counter() - t0)
            times.append(raw[-1] * self.speed_factor())
        return times, raw

    def run_job(self, index: int, job: dict, traced: bool) -> Sample:
        sample = Sample(job)
        output = self.workdir / f"out{index}.json"
        report = self.workdir / "report.json"
        request = self.workdir / "request.json"
        for path in (output, report):
            path.unlink(missing_ok=True)
        request.write_text(json.dumps({
            "argv": ["--output", str(output), *job["argv"]],
            "report": str(report),
            "trace": traced,
        }))
        cmd = [sys.executable, str(HERE / "child.py"), str(request)]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            _, stderr = proc.communicate(timeout=JOB_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            stderr = None
        # replaced by the in-child time when the child reports one
        sample.raw_seconds = time.perf_counter() - t0
        factor = self.speed_factor()
        sample.seconds = sample.raw_seconds * factor
        if stderr is None:
            sample.error = f"timed out after {JOB_TIMEOUT_S} s"
            return sample
        if not report.exists():
            sample.error = f"no report (exit {proc.returncode}): {_last_line(stderr)}"
            return sample
        data = json.loads(report.read_text())
        sample.raw_seconds = data["seconds"]
        sample.seconds = sample.raw_seconds * factor
        sample.rss_kb = data["maxrss_kb"]
        sample.trace = data.get("trace")
        if data["error"]:
            sample.error = f"traceback: {_last_line(data['error'])}"
        elif "Traceback (most recent call last)" in stderr:
            sample.error = f"traceback on stderr: {_last_line(stderr)}"
        elif data["code"] != 0:
            sample.error = f"exit code {data['code']}: {_last_line(stderr)}"
        elif not output.exists():
            sample.error = "no output file"
        elif sample.trace is not None and not sample.trace["restored"]:
            sample.error = "tracer left a wrapper in place"
        else:
            raw = output.read_bytes()
            sample.output_bytes = len(raw)
            sample.error = self.check(job, raw)
        return sample

    def check(self, job: dict, raw: bytes) -> str | None:
        """Check an output once per distinct (job, output) pair."""
        key = hashlib.sha256(json.dumps(job, sort_keys=True).encode() + raw).hexdigest()
        if key not in self._checked:
            self._checked[key] = checks.check(job, raw.decode())
        return self._checked[key]


class Pass:
    def __init__(self, traced: bool):
        self.traced = traced
        self.samples: list[Sample] = []
        self.complete = False

    @property
    def wall(self) -> float:
        return sum(s.seconds for s in self.samples)

    @property
    def raw_wall(self) -> float:
        return sum(s.raw_seconds for s in self.samples)


def run_passes(runner: Runner, seconds: float, trace: bool, smoke: bool) -> list[Pass]:
    """Closed loop over the job list until the measuring time is used."""
    modes = [False, True] if trace else [False]
    min_passes = (4 if trace else 1) if smoke else (4 if trace else 2)
    passes: list[Pass] = []
    start = time.monotonic()
    last_duration = {}
    while True:
        traced = modes[len(passes) % len(modes)]
        if len(passes) >= min_passes:
            if smoke:
                break
            estimate = last_duration.get(traced, 0.0)
            if time.monotonic() + estimate > start + seconds:
                break
        current = Pass(traced)
        passes.append(current)
        t0 = time.monotonic()
        for index, job in enumerate(runner.jobs):
            if time.monotonic() - start > RUN_LIMIT_S:
                return passes
            current.samples.append(runner.run_job(index, job, traced))
        current.complete = True
        last_duration[traced] = time.monotonic() - t0
    return passes


def percentile(values, pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _measured(passes: list[Pass], traced: bool) -> list[Pass]:
    """The complete passes of one mode, or all of them if none completed."""
    chosen = [p for p in passes if p.traced == traced]
    return [p for p in chosen if p.complete] or chosen


def end_to_end_metrics(runner: Runner, passes: list[Pass], setup: tuple, lines: list):
    complete = _measured(passes, False)
    samples = [s for p in passes for s in p.samples]
    ok = [s for s in samples if s.ok] or samples
    times = sorted(s.seconds for s in ok)
    raw_times = sorted(s.raw_seconds for s in ok)
    setup, raw_setup = setup
    pct = workloads.TAIL_PERCENTILE[runner.workload]
    tail = percentile(times, pct)
    beyond = sum(1 for t in times if t > tail)
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p.wall for p in complete),
        "job_s.p50": statistics.median(times),
        "job_s.tail": tail,
        "peak_rss_mb": max(s.rss_kb for p in passes for s in p.samples) / 1024,
    }
    lines.append(f"times scaled to the reference speed ({speed.REFERENCE_S} s per speed loop;"
                 f" median here {statistics.median(runner.speed_log):.4f} s over"
                 f" {len(runner.speed_log)} loops); raw times in brackets")
    lines.append(f"setup_s {values['setup_s']:.4f} s [{statistics.median(raw_setup):.4f}]"
                 f" (median of {len(setup)} starts)")
    lines.append(f"wall_s {values['wall_s']:.4f} s"
                 f" [{statistics.median(p.raw_wall for p in complete):.4f}]"
                 f" (median over {len(complete)} passes of {len(runner.jobs)} jobs: "
                 + " ".join(f"{p.wall:.3f}" for p in complete) + ")")
    lines.append(f"job_s.p50 {values['job_s.p50']:.4f} s [{statistics.median(raw_times):.4f}]"
                 f" (n={len(times)})")
    lines.append(f"job_s.tail {values['job_s.tail']:.4f} s [{percentile(raw_times, pct):.4f}]"
                 f" (p{pct}, n={len(times)}, {beyond} samples beyond)")
    lines.append(f"peak_rss_mb {values['peak_rss_mb']:.2f} MB")
    return values


def _pass_layers(p: Pass) -> dict:
    """Sum one traced pass's stats and counters over its jobs, times scaled."""
    self_s, calls, counters = {}, {}, {}
    for s in p.samples:
        trace = s.trace or {"stats": {}, "counters": {}}
        factor = s.seconds / s.raw_seconds if s.raw_seconds else 1.0
        for name, st in trace["stats"].items():
            self_s[name] = self_s.get(name, 0.0) + st["self_s"] * factor
            calls[name] = calls.get(name, 0) + st["calls"]
        for name, value in trace["counters"].items():
            counters[name] = counters.get(name, 0) + value
    counters["output_bytes"] = sum(s.output_bytes for s in p.samples)
    return {"self": self_s, "calls": calls, "counter": counters}


def layer_metrics(passes: list[Pass], lines: list, problems: list) -> dict:
    traced = _measured(passes, True)
    plain = _measured(passes, False)
    per_pass = [_pass_layers(p) for p in traced]
    counts = [{**agg["calls"], **agg["counter"]} for agg in per_pass]
    if any(c != counts[0] for c in counts[1:]):
        diff = sorted(k for k in counts[0] if any(c.get(k) != counts[0][k] for c in counts))
        problems.append(f"per-layer counts differ between traced passes: {diff}")
    values = {}
    for name, (unit, (kind, key)) in PER_LAYER.items():
        if kind == "self":
            values[name] = statistics.median(a["self"].get(key, 0.0) for a in per_pass)
        elif kind in ("calls", "counter"):
            values[name] = per_pass[0][kind].get(key, 0)
        elif kind == "layer":
            values[name] = statistics.median(
                sum(v for k, v in a["self"].items() if k.split(".")[0] == key)
                for a in per_pass)
        elif key == "cocycle_distinct":
            n_calls = per_pass[0]["calls"].get("eisenstein.cocycle", 0)
            distinct = per_pass[0]["counter"].get("eisenstein.cocycle_distinct", 0)
            values[name] = distinct / n_calls if n_calls else 0.0
        elif key == "output_bytes":
            values[name] = per_pass[0]["counter"]["output_bytes"]
        elif key == "overhead":
            values[name] = (statistics.median(p.wall for p in traced)
                            / statistics.median(p.wall for p in plain)) - 1
    lines.append(f"per-layer values: median over {len(traced)} traced passes,"
                 f" overhead against {len(plain)} untraced passes")
    return values


def write_spans(passes: list[Pass], path: Path) -> None:
    spans = []
    job_id = 0
    for pass_index, p in enumerate(passes):
        if not p.traced:
            continue
        for s in p.samples:
            for span in (s.trace or {}).get("spans", []):
                spans.append({"job": job_id, "pass": pass_index, **span})
            job_id += 1
    path.write_text(json.dumps({"spans": spans}))


def _last_line(text: str) -> str:
    lines = [ln for ln in (text or "").strip().splitlines() if ln.strip()]
    return lines[-1][:200] if lines else ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run the fewest passes, for the self-tests")
    args = parser.parse_args(argv)

    if not (SRC / "petersym" / "cli.py").is_file():
        print(f"error: the petersym sources are missing at {SRC}", file=sys.stderr)
        return 2

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(args.workload, args.seed, workdir)
        runner.warm_up()
        setup = None
        if not args.trace:
            setup = runner.setup_seconds(3 if args.smoke else SETUP_PROBES)
        passes = run_passes(runner, args.seconds, bool(args.trace), args.smoke)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    samples = [s for p in passes for s in p.samples]
    failed = [s for s in samples if not s.ok]
    lines = [f"workload {args.workload} seed {args.seed}: {len(passes)} passes,"
             f" {len(samples)} jobs, {len(failed)} failed"
             f" (fail_frac {len(failed) / len(samples):.4f})"]
    for s in failed[:10]:
        lines.append(f"FAILED {s.job['key']}: {s.error}")
    problems = []
    if args.trace:
        metrics = layer_metrics(passes, lines, problems)
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        missing = sorted({m for s in samples if s.trace for m in s.trace["missing"]})
        if missing:
            lines.append(f"warning: trace targets not found: {missing}")
        spans_path = WORK / f"trace-{args.workload}-seed{args.seed}.json"
        write_spans(passes, spans_path)
        lines.append(f"spans written to {spans_path.relative_to(ROOT)}")
    else:
        metrics = end_to_end_metrics(runner, passes, setup, lines)
        units = END_TO_END
    lines.extend(f"PROBLEM {p}" for p in problems)
    for line in lines:
        print(line)
    result = {
        "correct": not failed and not problems,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
