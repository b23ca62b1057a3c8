"""Packed word-width sweep: the measurement behind ``DEFAULT_WORD_WIDTH``.

Times the packed campaign at each word width (faulty machines per packed
word) and writes a JSON report::

    PYTHONPATH=src python benchmarks/width_sweep.py --out benchmarks/width_sweep.json

A row is one workload: a sample of :data:`FAULTS` faults of one corpus
design over its default stimulus, plus the short-stimulus rows of
:data:`SHORT_ROWS`.  Every row is timed in two legs:

* ``single`` — ``PackedCodegenSimulator.run`` in this process;
* ``pooled`` — ``run_multiprocess`` with its default worker count (one per
  CPU), which cuts the faults into word-aligned chunks, so a wider word
  also means fewer chunks to spread over the workers.

Every (row, leg, width) first runs once untimed, which compiles its kernel
and records its verdicts; then :data:`REPEATS` rounds run every leg and
width once, in an order rotated per round, and every time is kept.  A
pooled run returns only once its workers have exited, so no run shares the
CPUs with the one before it.  The verdicts (detection cycle of every fault)
must be identical in every leg at every width, or the sweep stops.

The report's ``recommended_width`` applies the rule the package default
follows: among the widths no slower than :data:`BASELINE_WIDTH` on any row
of either leg, the one with the lowest geometric mean of the median times
over all of them.  A width is slower on a run when its median exceeds the
baseline's median by more than the distance between the baseline's
quartiles; a smaller excess is within the run's own noise, and the report
lists those runs.  A tier-1 test checks that the committed report
recommends ``DEFAULT_WORD_WIDTH``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import sys
import time
from typing import Dict, Mapping, Sequence

from repro.designs.registry import BENCHMARK_NAMES, get_benchmark
from repro.fault.faultlist import generate_stuck_at_faults, sample_faults
from repro.sim.packed import DEFAULT_WORD_WIDTH, PackedCodegenSimulator
from repro.sim.parallel import run_multiprocess

#: The widths timed.
WIDTHS = (64, 128, 256, 512)

#: Faults sampled per row (a design with fewer runs all of its faults).
FAULTS = 1024

#: Timed rounds per row.
REPEATS = 10

#: Seed of every stimulus and fault sample.
SEED = 2025

#: The width every other width must be no slower than, on every row.
BASELINE_WIDTH = 64

#: Extra rows, (design, cycles), whose stimulus is too short for most of
#: the sample to be detected (about a fifth of it here), so words run to
#: the end of the stimulus and retirement rarely fires.
SHORT_ROWS = (("picorv32", 40),)

#: The two ways a campaign is timed (see the module docstring).
LEGS = ("single", "pooled")


def run_leg(leg: str, design, stimulus, faults, width: int):
    """One campaign of ``leg`` at ``width``: its result and chunk count (or None)."""
    if leg == "single":
        return PackedCodegenSimulator(design, width=width).run(stimulus, faults), None
    result = run_multiprocess(design, stimulus, faults, width=width)
    return result, result.stats.chunks_simulated


def digest(detections: Mapping[str, int]) -> str:
    """A short hash of every fault's detection cycle."""
    text = repr(sorted(detections.items()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def quartiles(times: Sequence[float]):
    """First quartile, median and third quartile of ``times``."""
    return statistics.quantiles(times, n=4)


def recommend(times: Mapping[str, Mapping[int, Sequence[float]]], widths) -> Dict:
    """Apply the default-width rule to every round's time.

    ``times`` maps a run (one row in one leg) -> width -> seconds of each
    round.  Returns the geometric mean of the medians per width, the widths
    no slower than :data:`BASELINE_WIDTH` on any run, the runs where a
    width's median is above the baseline's but within its quartile spread,
    and the eligible width with the lowest geometric mean.
    """
    geomean, eligible, within_noise = {}, [], {}
    for width in widths:
        logs, slower, noisy = [], [], []
        for run, by_width in times.items():
            low, base, high = quartiles(by_width[BASELINE_WIDTH])
            median = quartiles(by_width[width])[1]
            logs.append(math.log(median))
            if median - base > high - low:
                slower.append(run)
            elif median > base:
                noisy.append(run)
        geomean[width] = math.exp(sum(logs) / len(logs))
        within_noise[width] = noisy
        if not slower:
            eligible.append(width)
    return {
        "geomean_s": geomean,
        "no_slower_than_baseline": eligible,
        "within_noise_of_baseline": within_noise,
        "recommended_width": min(eligible, key=geomean.get),
    }


def sweep_row(name: str, cycles, widths) -> Dict:
    """Every round's seconds per leg and width on one row."""
    spec = get_benchmark(name)
    design = spec.compile()
    stimulus = spec.stimulus(cycles=cycles, seed=SEED)
    faults = sample_faults(generate_stuck_at_faults(design), FAULTS, seed=SEED)
    runs = [(leg, width) for leg in LEGS for width in widths]
    digests = {leg: {} for leg in LEGS}
    chunks = {}
    detected = None
    for leg, width in runs:
        result, chunk_count = run_leg(leg, design, stimulus, faults, width)
        digests[leg][width] = digest(result.coverage.detections)
        detected = len(result.coverage.detections)
        if chunk_count is not None:
            chunks[width] = chunk_count
    if len({found for by_width in digests.values() for found in by_width.values()}) != 1:
        raise SystemExit(f"{name}: the runs disagree on the verdicts: {digests}")
    seconds = {leg: {width: [] for width in widths} for leg in LEGS}
    for round_index in range(REPEATS):
        shift = round_index % len(runs)
        for leg, width in runs[shift:] + runs[:shift]:
            start = time.perf_counter()
            run_leg(leg, design, stimulus, faults, width)
            seconds[leg][width].append(round(time.perf_counter() - start, 6))
    return {
        "design": name,
        "cycles": stimulus.num_cycles(),
        "faults": len(faults),
        "detected": detected,
        "digests": digests,
        "seconds": seconds,
        "pooled_chunks": chunks,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="width_sweep.json", help="report output path")
    args = parser.parse_args(argv)

    widths = list(WIDTHS)
    rows = [(name, name, None) for name in BENCHMARK_NAMES]
    rows += [(f"{name}@{cycles}", name, cycles) for name, cycles in SHORT_ROWS]
    report_rows = {}
    for label, name, cycles in rows:
        row = sweep_row(name, cycles, widths)
        report_rows[label] = row
        for leg, times in row["seconds"].items():
            shown = "  ".join(f"{width}={quartiles(times[width])[1]:.3f}s" for width in widths)
            print(
                f"{label:14s} {leg:6s} cycles={row['cycles']:4d} "
                f"faults={row['faults']:5d}  median {shown}"
            )
    seconds = {
        f"{label} {leg}": times
        for label, row in report_rows.items()
        for leg, times in row["seconds"].items()
    }
    rule = recommend(seconds, widths)
    report = {
        "meta": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
            "faults": FAULTS,
            "repeats": REPEATS,
            "seed": SEED,
            "widths": widths,
            "baseline_width": BASELINE_WIDTH,
            "legs": list(LEGS),
        },
        "rows": report_rows,
        **rule,
    }
    means = "  ".join(f"{width}={rule['geomean_s'][width]:.3f}s" for width in widths)
    print(f"geometric mean of the medians: {means}")
    print(f"no slower than {BASELINE_WIDTH} lanes anywhere: {rule['no_slower_than_baseline']}")
    pick = rule["recommended_width"]
    noisy = rule["within_noise_of_baseline"][pick]
    print(f"recommended width {pick} (default {DEFAULT_WORD_WIDTH})")
    print(f"above {BASELINE_WIDTH} lanes' median within its quartile spread: {noisy}")
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"report written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
