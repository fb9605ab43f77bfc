"""A fixed piece of pure-Python work that gauges the host's speed.

It uses nothing of the program under test, so no change to the program
can change its time. The client runs it before every job and each
set-up interpreter runs it after its import; run.py divides each job
and import time by the reference time next to it, so a phase in which
the shared host runs everything faster or slower largely cancels out
of the end-to-end metrics, while a change to the program shows in full.
"""

from __future__ import annotations

import time

# upper quartile of reference() on the host the benchmark was defined on
NOMINAL_S = 0.007


def reference() -> float:
    """Seconds taken by the fixed loop."""
    start = time.perf_counter()
    s = 0
    for i in range(60_000):
        s += i * i % 7
    return time.perf_counter() - start
