"""The machine's current speed, from a fixed pure-Python loop.

The shared host this benchmark was written on changes its effective CPU
speed by up to about 2x, over seconds to minutes, for every process
alike.  Raw times of the same code then differ more between runs than
any bound worth keeping.  So every timed interval is bracketed by this
loop, run in the benchmark's own process (it imports nothing from
``petersym``, so no change to the program can move it), and each time is
reported scaled to the speed at which the loop takes ``REFERENCE_S``:

    scaled = raw * REFERENCE_S / mean(loop before, loop after)

Raw times are printed beside the scaled ones.
"""

from __future__ import annotations

from time import perf_counter

REFERENCE_S = 0.020   # about the loop's median on the machine of README.md


def loop_seconds() -> float:
    """Time of the fixed loop now."""
    t0 = perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i % 7
    return perf_counter() - t0


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between two loop times, at the reference speed."""
    return seconds * REFERENCE_S * 2 / (before + after)
