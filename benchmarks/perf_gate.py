"""CI perf gate: time the engines and fail when a gated speed ratio falls.

Each row of :data:`LEGS` is one *leg*: it times two or more sides on its
workloads, writes their seconds and ratio to a JSON report (``BENCH_pr.json``
in CI, uploaded as an artifact), and the gate fails when the ratio falls
under the leg's floor on the benchmark the floor binds on, or more than
:data:`TOLERANCE` under the committed ``BENCH_baseline.json``.  The README's
"The CI perf gate" table lists every leg's metric, workload and floor;
``tests/test_perf_gate.py`` keeps it in line with :data:`LEGS`.

Speedup *ratios* rather than absolute times are compared against the baseline
so the gate is stable across runner hardware generations.  (The process
ratio additionally needs >= 2 real cores; on a single-core box it is ~0.9x
by construction, so only CI enforces that floor.)  To refresh the baseline
after an intentional change, run::

    PYTHONPATH=src python benchmarks/perf_gate.py --update-baseline

which records the measured ratios scaled by ``--headroom`` (default 0.75),
leaving slack for machine-to-machine variance.

``--sweep-all`` widens the legs that have sweep rows to the whole
ten-benchmark corpus and ``--no-gate`` skips the enforcement step; the
nightly CI job combines the two to publish ``BENCH_nightly.json`` as a trend
artifact, so baselines are refreshed from data instead of by hand.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import sys
import tempfile
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from functools import partial
from typing import Callable, ContextManager, Dict, NamedTuple, Optional, Sequence, Tuple

from repro.api import make_engine
from repro.baselines.base import SerialFaultSimulator
from repro.core.framework import EraserSimulator
from repro.designs.registry import BENCHMARK_NAMES
from repro.fault.faultlist import FaultList, generate_stuck_at_faults, sample_faults
from repro.harness.experiments import FULL_PROFILE, QUICK_PROFILE, prepare_workload
from repro.ir.design import Design
from repro.sim.codegen import CodegenEngine
from repro.sim.emitter import DEFAULT_PASSES, EmitterPasses
from repro.sim.eraser_codegen import EraserCodegenSimulator
from repro.sim.packed import PackedCodegenSimulator
from repro.sim.parallel import run_multiprocess
from repro.sim.stimulus import Stimulus
from repro.sim.vector import VectorFaultSimulator
from repro.sim.vector import np as _vector_np

#: (benchmark, cycles) pairs the good-machine harness times.
WORKLOADS = [("sha256_c2v", 300), ("riscv_mini", 400)]

#: (benchmark, cycles, fault-sample size) triples for the fault-sim harness.
FAULT_WORKLOADS = [("sha256_c2v", 120, 64), ("riscv_mini", 120, 64)]

#: (benchmark, cycles, fault-sample size) triples for the vectorized-lane
#: harness: the packed-bigint campaign at its 64-lane word size vs the NumPy
#: array campaign at ``VECTOR_WIDTH`` lanes.  A ``None`` sample size means
#: the full fault population — the regime the vector backend exists for:
#: thousands of live lanes per word, where per-op NumPy dispatch amortizes
#: and lane compaction can shed detected columns.
VECTOR_WORKLOADS = [("sha256_c2v", 120, None)]

#: Faulty machines per NumPy array word in the vector harness (far past the
#: few hundred lanes bigint words pay up to; the gate requires >= 512 live lanes).
VECTOR_WIDTH = 8192

#: (benchmark, cycles, fault-sample size, workers) for the process-pool
#: harness; a ``None`` sample size means the full fault population.  The
#: campaign is much larger than the serial-vs-packed one: worker warm-up
#: (spawn + import + recompile + cache hydration) is a fixed cost, so compute
#: must dominate for the ratio to mean anything — which is also the realistic
#: shape, as multiprocessing exists for full fault lists.
PARALLEL_WORKLOADS = [("sha256_c2v", 120, None, 2)]

#: (benchmark, cycles, fault-sample size) triples for the result-cache
#: harness: a cold campaign populates a fresh cache directory, then the
#: identical campaign reruns warm.  The warm side must not simulate anything
#: — every verdict (detections AND proven-undetected faults) comes from the
#: shard — so the ratio is "campaign cost vs one JSON read".  Runs inline
#: (``workers=1``), so the floor is honest on single-core boxes.
CACHE_WORKLOADS = [("sha256_c2v", 120, 256)]

#: (benchmark, cycles, fault-sample size) triples for the concurrent-kernel
#: harness: the interpreted Eraser vs the generated eraser-codegen kernel.
#: The samples are larger than the serial harness's — the concurrent engines
#: advance the whole fault list in one batched pass, so that IS the shape.
ERASER_WORKLOADS = [("sha256_c2v", 120, 256), ("riscv_mini", 100, 256)]

#: (benchmark, cycles, fault-sample size) triples for the event-scheduler
#: half of the emitter harness: the same serial codegen fault campaign with
#: the scheduler pass on vs off.  The campaign shape (per-fault kernel
#: re-runs) on a mostly-idle CPU design is where the quiescence guards pay —
#: a quiet node costs a few integer compares instead of a re-evaluation.
EMITTER_WORKLOADS = [("picorv32", 500, 32)]

#: (benchmark, cycles, fault-sample size) triples for the auto-policy half
#: of the emitter harness: the ``engine="auto"``-resolved campaign vs the
#: best *fixed* engine on the identical faults.  The floor only demands that
#: auto never falls meaningfully behind — the policy must not silently pick
#: a bad substrate.
AUTO_WORKLOADS = [("sha256_c2v", 240, 128)]

#: Faulty machines per packed word in the fault-sim harness.
PACKED_WIDTH = 64

#: The benchmark carrying the hard speedup floors.
GATED_BENCHMARK = "sha256_c2v"

#: How far below the committed baseline a ratio may regress (a fraction).
TOLERANCE = 0.20

ENGINES = ["event", "codegen"]


class Case(NamedTuple):
    """One workload row, prepared: what a leg's sides and checks read."""

    name: str
    cycles: int
    design: Design
    stimulus: Stimulus
    #: ``None`` on the good-machine leg, whose rows carry no fault count.
    faults: Optional[FaultList] = None
    workers: Optional[int] = None
    #: The cache leg's directory for the round in progress.
    cache: Optional[str] = None


#: A verdict cross-check: a problem description, or ``None`` when it holds.
Check = Callable[[Case, Dict[str, object]], Optional[str]]


class Leg(NamedTuple):
    """One gated ratio: a row of :data:`LEGS`.

    The last side is the one the leg defends.  Its ratio (``metric``) is the
    fastest other side's best time over the defended side's best time, so a
    ratio above 1.0 means the defended side is faster.
    """

    section: str
    metric: str
    floor: float
    #: Workload rows: (benchmark, cycles[, fault-sample size[, workers]]).
    workloads: Sequence[tuple]
    #: Called untimed each round: builds every side's kernel or simulator
    #: and returns, per ``seconds`` label, the call to time.
    sides: Callable[[Case], Dict[str, Callable[[], object]]]
    checks: Tuple[Check, ...] = ()
    #: The benchmark the floor binds on (with or without ``--sweep-all``).
    gated: str = GATED_BENCHMARK
    #: The rows ``--sweep-all`` times instead (``None``: the same workloads).
    sweep: Optional[Sequence[tuple]] = None
    #: Report fields besides cycles, faults, seconds and the ratio, from the
    #: prepared case and the label of the fastest other side.
    extra: Optional[Callable[[Case, str], Dict]] = None
    #: Context of each timing round; it yields the case that round's sides see.
    each_round: Callable[[Case], ContextManager[Case]] = nullcontext
    #: Run every side once, untimed, before the first round.
    warm_up: bool = False
    #: Skipped without NumPy; an empty section then skips its gate too.
    needs_numpy: bool = False


class _PassSerial(SerialFaultSimulator):
    """Serial baseline pinned to a codegen kernel with explicit passes."""

    name = "codegen-passes"

    def __init__(self, design, passes, **kwargs):
        super().__init__(design, **kwargs)
        self._passes = passes

    def _make_engine(self, force_hook=None):
        return CodegenEngine(self.design, force_hook=force_hook, passes=self._passes)


def _run(case: Case, simulator) -> Callable[[], object]:
    """The call to time: ``simulator``'s campaign over the case's faults."""
    return partial(simulator.run, case.stimulus, case.faults)


def _campaign(case: Case, **knobs) -> Callable[[], object]:
    """The call to time: one :func:`run_multiprocess` campaign over the case."""
    return partial(run_multiprocess, case.design, case.stimulus, case.faults, **knobs)


def _packed(case: Case) -> Callable[[], object]:
    return _run(case, PackedCodegenSimulator(case.design, width=PACKED_WIDTH))


def _serial_codegen(case: Case) -> Callable[[], object]:
    return _run(case, SerialFaultSimulator(case.design, engine="codegen"))


def _vector(case: Case) -> Callable[[], object]:
    return _run(case, VectorFaultSimulator(case.design, width=VECTOR_WIDTH))


def _auto_sides(case: Case) -> Dict[str, Callable[[], object]]:
    """Every fixed engine, then the ``engine="auto"``-resolved campaign."""
    sides = {"serial_codegen": _serial_codegen(case), "packed": _packed(case)}
    if _vector_np is not None:
        sides["vector"] = _vector(case)
    sides["auto"] = _campaign(case, workers=1, width=PACKED_WIDTH, runner=("auto", {}))
    return sides


@contextmanager
def _fresh_cache(case: Case):
    """A fresh cache directory per round: the cold side never sees a
    predecessor's shard, and the warm side replays exactly one cold run."""
    root = tempfile.mkdtemp(prefix="repro-results-gate-")
    try:
        yield case._replace(cache=root)
    finally:
        shutil.rmtree(root, ignore_errors=True)


def _disagreement(results: Dict[str, object], same) -> Optional[str]:
    (reference, expected), *others = results.items()
    for label, result in others:
        if not same(result.coverage, expected.coverage):
            return (
                f"{label} disagrees with {reference} on "
                f"{result.coverage.disagreements(expected.coverage)}"
            )
    return None


def same_verdicts(case: Case, results: Dict[str, object]) -> Optional[str]:
    """Every side detects the same faults as the first side."""
    return _disagreement(results, lambda mine, theirs: mine.same_verdicts(theirs))


def same_detections(case: Case, results: Dict[str, object]) -> Optional[str]:
    """Every side detects the same faults at the same cycles as the first side."""
    return _disagreement(results, lambda mine, theirs: mine.detections == theirs.detections)


def warm_run_simulated_nothing(case: Case, results: Dict[str, object]) -> Optional[str]:
    """The warm replay reads every verdict from the cache and simulates nothing."""
    stats = results["warm"].stats
    if stats.chunks_simulated or stats.cache_misses:
        return (
            f"the warm replay simulated work (chunks={stats.chunks_simulated}, "
            f"misses={stats.cache_misses}); every verdict must come from the cache"
        )
    if stats.cache_hits != len(case.faults):
        return (
            f"the warm replay resolved {stats.cache_hits} of {len(case.faults)} "
            f"faults from the cache"
        )
    return None


#: Every gated ratio, in report order.  A new leg is one more row.
LEGS = (
    Leg(
        section="benchmarks",
        metric="speedup_codegen_vs_event",
        floor=3.0,
        workloads=WORKLOADS,
        sweep=[(name, FULL_PROFILE.cycles[name]) for name in BENCHMARK_NAMES],
        sides=lambda case: {
            engine: partial(make_engine(case.design, engine).run, case.stimulus)
            for engine in ENGINES
        },
    ),
    Leg(
        section="fault_benchmarks",
        metric="speedup_packed_vs_serial_codegen",
        floor=8.0,
        workloads=FAULT_WORKLOADS,
        sweep=[(name, QUICK_PROFILE.cycles[name], 64) for name in BENCHMARK_NAMES],
        sides=lambda case: {
            "serial_codegen": _serial_codegen(case),
            "packed": _packed(case),
        },
        checks=(same_verdicts,),
    ),
    Leg(
        section="vector_benchmarks",
        metric="speedup_vector_vs_packed",
        floor=2.0,
        workloads=VECTOR_WORKLOADS,
        sides=lambda case: {"packed": _packed(case), "vector": _vector(case)},
        checks=(same_detections,),
        extra=lambda case, best: {"lanes": min(len(case.faults), VECTOR_WIDTH)},
        needs_numpy=True,
    ),
    Leg(
        section="eraser_benchmarks",
        metric="speedup_eraser_codegen_vs_interp",
        floor=3.0,
        workloads=ERASER_WORKLOADS,
        sweep=[(name, QUICK_PROFILE.cycles[name], 128) for name in BENCHMARK_NAMES],
        sides=lambda case: {
            "eraser_interp": _run(case, EraserSimulator(case.design)),
            "eraser_codegen": _run(case, EraserCodegenSimulator(case.design)),
        },
        checks=(same_verdicts,),
    ),
    Leg(
        section="parallel_benchmarks",
        metric="speedup_process_vs_packed",
        floor=1.5,
        workloads=PARALLEL_WORKLOADS,
        sides=lambda case: {
            "packed_1p": _packed(case),
            f"process_{case.workers}p": _campaign(case, workers=case.workers, width=PACKED_WIDTH),
        },
        checks=(same_verdicts,),
        extra=lambda case, best: {"workers": case.workers},
    ),
    Leg(
        section="cache_benchmarks",
        metric="speedup_warm_vs_cold",
        floor=5.0,
        workloads=CACHE_WORKLOADS,
        each_round=_fresh_cache,
        # cold runs first, filling the round's fresh directory for warm
        sides=lambda case: {
            side: _campaign(case, workers=1, width=PACKED_WIDTH, cache=case.cache)
            for side in ("cold", "warm")
        },
        checks=(same_detections, warm_run_simulated_nothing),
    ),
    Leg(
        section="emitter_benchmarks",
        metric="speedup_scheduler_vs_flat",
        floor=1.5,
        workloads=EMITTER_WORKLOADS,
        gated=EMITTER_WORKLOADS[0][0],
        sides=lambda case: {
            "scheduler_off": _run(
                case, _PassSerial(case.design, EmitterPasses(event_scheduler=False))
            ),
            "scheduler_on": _run(case, _PassSerial(case.design, DEFAULT_PASSES)),
        },
        checks=(same_verdicts,),
    ),
    Leg(
        section="emitter_benchmarks",
        metric="ratio_auto_vs_best_fixed",
        floor=0.9,
        workloads=AUTO_WORKLOADS,
        # every side compiles its kernels before the clock starts
        warm_up=True,
        sides=_auto_sides,
        checks=(same_detections,),
        extra=lambda case, best: {"best_fixed": best},
    ),
)


def _case(row: tuple) -> Case:
    """Compile one workload row's design, stimulus and fault list."""
    name, cycles, *rest = row
    workload = prepare_workload(name, cycles=cycles)
    case = Case(name, cycles, workload.design, workload.stimulus)
    if not rest:
        return case
    faults = generate_stuck_at_faults(workload.design)
    if rest[0] is not None:
        faults = sample_faults(faults, rest[0], seed=7)
    return case._replace(faults=faults, workers=rest[1] if len(rest) > 1 else None)


def run_leg(leg: Leg, row: tuple, repeats: int) -> Dict:
    """Time ``leg``'s sides on one workload row, interleaved round by round,
    best of ``repeats``; cross-check every round's verdicts.  The report entry."""
    case = _case(row)
    if leg.warm_up:
        for call in leg.sides(case).values():
            call()
    seconds: Dict[str, float] = {}
    for _ in range(repeats):
        with leg.each_round(case) as current:
            results = {}
            for label, call in leg.sides(current).items():
                start = time.perf_counter()
                results[label] = call()
                elapsed = time.perf_counter() - start
                seconds[label] = min(seconds.get(label, math.inf), elapsed)
            for check in leg.checks:
                problem = check(current, results)
                if problem is not None:
                    raise SystemExit(f"{case.name}: {leg.metric}: {problem}")
    *others, defended = seconds
    best = min(others, key=seconds.get)
    entry = {"cycles": case.cycles}
    if case.faults is not None:
        entry["faults"] = len(case.faults)
    if leg.extra is not None:
        entry.update(leg.extra(case, best))
    entry["seconds"] = {label: round(value, 6) for label, value in seconds.items()}
    entry[leg.metric] = round(seconds[best] / seconds[defended], 3)
    return entry


def run_harness(repeats: int, sweep_all: bool = False) -> Dict:
    """Time every leg's workload rows into one report."""
    plan = []
    for leg in LEGS:
        if leg.needs_numpy and _vector_np is None:
            print(f"{leg.metric} skipped (NumPy not installed; pip install .[vector])")
            continue
        plan += [(leg, row) for row in (leg.sweep if sweep_all and leg.sweep else leg.workloads)]
    shared = [
        key
        for key, count in Counter((leg.section, row[0]) for leg, row in plan).items()
        if count > 1
    ]
    if shared:
        raise ValueError(f"more than one leg writes the report entries {shared}")
    report: Dict = {
        "meta": {
            "python": platform.python_version(),
            "repeats": repeats,
            "engines": ENGINES,
            "packed_width": PACKED_WIDTH,
            "vector_width": VECTOR_WIDTH,
            "cpu_count": os.cpu_count(),
            "sweep_all": sweep_all,
        },
        **{leg.section: {} for leg in LEGS},
    }
    for leg, row in plan:
        entry = report[leg.section][row[0]] = run_leg(leg, row, repeats)
        fields = [
            f"{key}={value}"
            for key, value in entry.items()
            if key not in ("seconds", leg.metric)
        ]
        fields += [f"{label}={value:.3f}s" for label, value in entry["seconds"].items()]
        print(f"{row[0]:12s} " + "  ".join(fields) + f"  {leg.metric}={entry[leg.metric]:.2f}x")
    return report


def gate(report: Dict, baseline: Dict) -> int:
    """Apply every leg's floor, and :data:`TOLERANCE` against ``baseline``."""
    failures = []
    for leg in LEGS:
        measured = report.get(leg.section, {})
        if leg.needs_numpy and not measured:
            # NumPy was absent, which the harness announced; only the
            # NumPy-equipped CI legs enforce this floor and its baseline
            continue
        current = measured.get(leg.gated, {}).get(leg.metric)
        if current is None:
            failures.append(f"{leg.gated}: {leg.metric} is missing from this run")
        elif current < leg.floor:
            failures.append(
                f"{leg.gated}: {leg.metric} is {current:.2f}x, under its "
                f"floor of {leg.floor:.2f}x"
            )
        for name, entry in baseline.get(leg.section, {}).items():
            if leg.metric not in entry:
                continue
            floor = entry[leg.metric] * (1.0 - TOLERANCE)
            current = measured.get(name, {}).get(leg.metric)
            if current is None:
                failures.append(f"{name}: baseline {leg.metric} is missing from this run")
            elif current < floor:
                failures.append(
                    f"{name}: {leg.metric} regressed to {current:.2f}x "
                    f"(baseline {entry[leg.metric]:.2f}x, floor {floor:.2f}x)"
                )
    if failures:
        print("\nPERF GATE FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nperf gate passed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_pr.json", help="report output path")
    parser.add_argument(
        "--baseline",
        default="benchmarks/BENCH_baseline.json",
        help="committed baseline to gate against",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline from this run instead of gating",
    )
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--sweep-all",
        action="store_true",
        help="time the whole ten-benchmark corpus (the nightly trend sweep)",
    )
    parser.add_argument(
        "--no-gate",
        action="store_true",
        help="write the report but skip enforcement (nightly runs are un-gated)",
    )
    parser.add_argument(
        "--headroom",
        type=float,
        default=0.75,
        help="scale applied to measured speedups when updating the baseline",
    )
    args = parser.parse_args(argv)

    report = run_harness(args.repeats, sweep_all=args.sweep_all)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"report written to {args.out}")

    if args.update_baseline:
        for leg in LEGS:
            for entry in report[leg.section].values():
                if leg.metric in entry:
                    entry[leg.metric] = round(entry[leg.metric] * args.headroom, 3)
        report["meta"]["headroom"] = args.headroom
        with open(args.baseline, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"baseline refreshed at {args.baseline} (headroom {args.headroom})")
        return 0

    if args.no_gate:
        print("gating skipped (--no-gate)")
        return 0

    try:
        with open(args.baseline, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
    except OSError:
        print(f"no baseline at {args.baseline}; gating on the speedup floors only")
        baseline = {}
    return gate(report, baseline)


if __name__ == "__main__":
    sys.exit(main())
