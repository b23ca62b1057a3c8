"""How fast the host runs right now, and which of its CPUs runs fastest.

The benchmark runs on a share of a machine whose other tenants slow each of
its CPUs, one independently of the other, by up to half for seconds to
minutes at a time.  A measured process therefore moves itself to whichever
CPU runs a short fixed loop fastest before each thing it times; it runs on
one CPU at a time, never two.  Nothing here enters a metric: the loop only
chooses a CPU and is printed as a diagnostic.
"""

from __future__ import annotations

import os
import time

#: The CPUs this process was allowed to use when it started.
CPUS = sorted(os.sched_getaffinity(0))

#: Loop iterations of one probe of a CPU (about 8 ms on an idle 2.1 GHz Xeon core).
PROBE_ITERATIONS = 100_000


def calibrate(iterations: int = 500_000) -> float:
    """Seconds for a fixed pure-Python loop: how fast this CPU runs right now."""
    begin = time.perf_counter()
    acc = 0
    for i in range(iterations):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - begin


def pin_to_quietest_cpu() -> int:
    """Move this process to the CPU of :data:`CPUS` that runs a probe fastest; return it."""
    if len(CPUS) == 1:
        return CPUS[0]
    probe = {}
    for cpu in CPUS:
        os.sched_setaffinity(0, {cpu})
        probe[cpu] = min(calibrate(PROBE_ITERATIONS) for _ in range(2))
    quietest = min(probe, key=probe.get)
    os.sched_setaffinity(0, {quietest})
    return quietest
