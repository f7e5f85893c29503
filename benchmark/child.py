"""Run one CLI job in this (fresh) interpreter and write a report.

Usage: python child.py REQUEST.json

The request names the argv for ``petersym.cli.main`` (which writes its
JSON through ``--output``), the report path and whether to trace.  The
report holds the exit code, the time around ``cli.main``, this
process's peak resident set size, any traceback, and the trace.
"""

import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter


def main(request_path: str) -> int:
    request = json.loads(Path(request_path).read_text())
    import petersym.cli as cli

    tracer = None
    if request["trace"]:
        from tracer import Tracer  # this script's directory is sys.path[0]

        tracer = Tracer()
        tracer.install()
        job_span = tracer.open_span("job", argv=request["argv"])

    error = None
    t0 = perf_counter()
    try:
        code = cli.main(request["argv"])
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        code = 1
        error = traceback.format_exc()
    seconds = perf_counter() - t0

    report = {
        "code": code,
        "seconds": seconds,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "error": error,
    }
    if tracer is not None:
        tracer.close_span(job_span)
        tracer.uninstall()
        report["trace"] = tracer.report()
        report["trace"]["restored"] = tracer.restored()
    Path(request["report"]).write_text(json.dumps(report))
    return 0 if error is None else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
