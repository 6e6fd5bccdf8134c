"""Host-speed calibration: a fixed work unit that no code under ``src/`` touches.

The reference host runs everything CPU-bound 1.3-1.6x slower for minutes
at a time (README.md, "Estimator"), longer than one benchmark invocation,
so no statistic of the workload's own timings can tell such a phase from a
slower program.  Every child therefore times this unit — an interpreter
loop plus small matrix products, the instruction mix of the round loop —
in a burst right before and right after its run; ``run.py`` pools the
bursts of an invocation and divides the invocation's timings by
``host_slowdown``.  The unit is pure Python + NumPy on fixed inputs, so a
change to the repository cannot move it.
"""

from __future__ import annotations

import time

__all__ = ["QUIET_UNIT_MS", "burst", "host_slowdown"]

# Lower quartile of the unit's wall time while the reference host was quiet
# (lowest 5 s window of a 10 min probe); timings are reported as if the
# whole invocation had run at that speed.
QUIET_UNIT_MS = 0.51


def burst(seconds: float) -> list[float]:
    """Wall time of each unit (ms), back to back for about ``seconds``."""
    # Imported here so that run.py, which only needs host_slowdown, stays
    # free of NumPy (its BLAS threads are pinned in the children only).
    import numpy as np

    a = np.random.default_rng(0).standard_normal((48, 48))
    out = []
    start = time.perf_counter()
    end = start + seconds
    while start < end:
        x = 0
        for i in range(10_000):
            x += i
        for _ in range(50):
            a @ a
        now = time.perf_counter()
        out.append((now - start) * 1e3)
        start = now
    return out


def host_slowdown(units: list[float]) -> float:
    """How much slower than the quiet reference host the units ran.

    The lower quartile, not the median: the stitched run it corrects is
    itself built from each segment's fastest repeat, and on recorded busy
    phases the lower quartile tracked it best (README.md, "Estimator").
    """
    ranked = sorted(units)
    return ranked[len(ranked) // 4] / QUIET_UNIT_MS
