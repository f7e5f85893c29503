"""Seeded job lists for the four workloads.

A workload is a list of strata.  Each stratum holds CLI jobs of
comparable cost (measured at the seed commit; see README.md); the
workload seed picks one job from every stratum, so the work in one
pass over the list stays comparable from seed to seed.  The seed also
draws the rational values of the torsion functions given to ``qexp``.
The program receives only the generated argv and JSON files.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

from checks import frac_str

# Jobs are tuples: ("cuspidal", level, weight), ("hecke", level, weight, ell),
# ("farey", group, level[, parent level]), ("modsym-space", group, level, weight),
# ("qexp", level, weight, terms), ("verify", suite).
STRATA = {
    # eisenstein moments and the pairing walk on the blocking path
    "cuspidal": [
        [("cuspidal", 21, 2), ("cuspidal", 22, 2)],
        [("cuspidal", 12, 2), ("cuspidal", 14, 2), ("cuspidal", 15, 2)],
        [("cuspidal", 29, 2)],
        [("cuspidal", 31, 2)],
        [("cuspidal", 12, 4), ("cuspidal", 14, 4)],
        [("cuspidal", 8, 4), ("cuspidal", 9, 4), ("cuspidal", 11, 4)],
        [("cuspidal", 6, 6), ("cuspidal", 8, 6)],
    ],
    # Vk action, small exact solves, Hecke transport, coset reads
    "hecke": [
        [("hecke", 11, 8, 3)],
        [("hecke", 11, 6, 3), ("hecke", 13, 6, 2)],
        [("hecke", 19, 4, 2)],
        [("hecke", 37, 2, 5), ("hecke", 41, 2, 3)],
        [("hecke", 1, 24, 2)],
        [("hecke", 7, 8, 2), ("hecke", 2, 12, 3)],
        [("hecke", 11, 2, 2), ("hecke", 11, 2, 3), ("hecke", 1, 12, 2), ("hecke", 1, 12, 3)],
    ],
    # Farey unfolding (coset-table writes), large dense kernels, large JSON
    "space": [
        [("farey", "gamma0", 894)],
        [("farey", "gamma0", 1000, 10), ("farey", "gamma0", 1200, 12),
         ("farey", "gamma0", 900, 6), ("farey", "gamma0", 1000, 20)],
        [("modsym-space", "gamma0", 140, 2), ("modsym-space", "gamma0", 176, 2)],
        [("modsym-space", "gamma0", 190, 2), ("modsym-space", "gamma0", 200, 2),
         ("modsym-space", "gamma0", 225, 2), ("modsym-space", "gamma0", 232, 2)],
        [("modsym-space", "gamma0", 180, 2), ("modsym-space", "gamma0", 220, 2)],
        [("modsym-space", "gamma1", 23, 2)],
        [("modsym-space", "gamma", 7, 2), ("modsym-space", "gamma", 8, 2)],
    ],
    # the numeric oracle: lazy scipy import, q-expansions in Q(zeta_N)
    "oracle": [
        [("verify", "mellin")],
        [("verify", "delta")],
        [("verify", "petersson")],
        [("qexp", 5, 4, 16), ("qexp", 7, 4, 16)],
        [("qexp", 5, 6, 16), ("qexp", 7, 6, 16)],
    ],
}

# The reported tail percentile of per-job time, fixed per workload so
# that a faster program is not judged at a higher percentile.  Each
# workload has an odd number of strata, and the median and the tail
# sit in the middle of one stratum's band of samples (the (i - 1/2)/7
# and (i - 1/2)/5 quantiles), not on a border where the seed's draw or
# noise would flip them between jobs.  The strata whose bands hold them
# offer one job, or jobs within about 5% of each other in cost, so that
# the seed's draw does not move them either.  The tail is the highest
# such quantile that leaves at least ten samples beyond it in a run at
# the seed commit.
TAIL_PERCENTILE = {"cuspidal": 64, "hecke": 64, "space": 64, "oracle": 50}

WORKLOADS = tuple(STRATA)


def job_key(spec: tuple) -> str:
    return " ".join(str(x) for x in spec)


def universe(workload: str | None = None) -> list[tuple]:
    """Every job a seed can draw, for one workload or for all."""
    names = [workload] if workload else WORKLOADS
    return [spec for name in names for stratum in STRATA[name] for spec in stratum]


def draw(workload: str, seed: int) -> list[tuple]:
    rng = random.Random(f"{workload}:{seed}")
    return [rng.choice(stratum) for stratum in STRATA[workload]]


def torsion_values(spec: tuple, rng: random.Random) -> list[list[Fraction]]:
    n = spec[1]
    return [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
            for _ in range(n)]


def materialize(spec: tuple, workdir: Path, tag: str, values=None) -> dict:
    """The job record: argv for cli.main plus what the checks need."""
    command = spec[0]
    job = {"command": command, "key": job_key(spec)}
    if command == "cuspidal":
        _, n, k = spec
        job.update(level=n, weight=k,
                   argv=["cuspidal", "--level", str(n), "--weight", str(k)])
    elif command == "hecke":
        _, n, k, ell = spec
        job.update(level=n, weight=k, ell=ell, argv=[
            "hecke", "--level", str(n), "--weight", str(k), "--ell", str(ell)])
    elif command == "farey":
        group, n = spec[1], spec[2]
        job.update(group=group, level=n,
                   argv=["farey", "--group", group, "--level", str(n)])
        if len(spec) > 3:
            parent = workdir / f"{tag}-parent.json"
            parent.write_text(json.dumps({"group": group, "level": spec[3]}))
            job["argv"] += ["--parent", str(parent)]
    elif command == "modsym-space":
        _, group, n, k = spec
        job.update(group=group, level=n, weight=k, argv=[
            "modsym-space", "--group", group, "--level", str(n), "--weight", str(k)])
    elif command == "qexp":
        _, n, k, terms = spec
        fn = workdir / f"{tag}-fn.json"
        fn.write_text(json.dumps({"N": n, "values": [
            [frac_str(v) for v in row] for row in values]}))
        job.update(level=n, weight=k, terms=terms, argv=[
            "qexp", "--level", str(n), "--weight", str(k), "--terms", str(terms),
            "--fn", str(fn)])
        job["values"] = {f"{x},{y}": frac_str(values[x][y])
                         for x in range(n) for y in range(n)}
    elif command == "verify":
        job.update(suite=spec[1], argv=["verify", "--suite", spec[1]])
    else:
        raise ValueError(f"unknown command {command!r}")
    return job


def make_jobs(workload: str, seed: int, workdir: Path) -> list[dict]:
    """The seeded job list of one pass, with its input files written."""
    rng = random.Random(f"{workload}:{seed}:values")
    jobs = []
    for i, spec in enumerate(draw(workload, seed)):
        values = torsion_values(spec, rng) if spec[0] == "qexp" else None
        jobs.append(materialize(spec, workdir, f"job{i}", values))
    return jobs
