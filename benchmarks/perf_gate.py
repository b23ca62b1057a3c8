"""CI perf gate: time the engines and fail on codegen regressions.

Runs a small fixed timing harness — the sha256_c2v and riscv_mini benchmarks,
N cycles per engine — and writes the measurements to a JSON report
(``BENCH_pr.json`` in CI, uploaded as an artifact).  The gate then enforces:

* the generated serial kernel (``codegen``, VFsim's kernel) is at least 3x
  faster than the interpreted event-driven engine (IFsim's) on the sha256
  benchmark,
* the packed (PPSFP) fault simulator is at least 8x faster than the serial
  codegen baseline on the sha256 fault workload,
* the vectorized lane backend (``packed-numpy``) is at least 2x faster than
  the packed-bigint PPSFP campaign on the full sha256 fault population at
  8192-lane array words — the check that array words actually beat bigint
  words far past the few hundred lanes bigint words pay up to (the section
  is skipped, with a note, when NumPy is not installed),
* the process-pool executor at ``workers=2`` (the CI runner's vCPU count) is
  at least 1.5x faster than the single-process packed simulator on a large
  sha256 fault campaign — the check that multiprocessing actually converts
  packing into wall-clock,
* the generated concurrent kernel (``eraser-codegen``) is at least 3x
  faster than the interpreted ``EraserSimulator`` on the sha256 concurrent
  fault campaign (verdicts are cross-checked fault by fault before timing
  counts),
* cross-chunk fault dropping pays: a resume-seeded sha256 re-run (seeded
  with a first run's verdicts — the early-exit-heavy shape) with
  ``cross_drop=True`` is at least 1.3x faster than the identical re-run
  with dropping disabled.  This section runs single-core (``workers=1``),
  so it binds on every runner, and the verdicts of both sides are
  cross-checked first,
* the persistent result cache replays: a cold sha256 campaign populates a
  fresh cache directory, then the *identical* warm rerun must simulate zero
  chunks (every verdict read from the shard, hits == faults, misses == 0)
  and beat the cold run by 5x, with verdicts and detection cycles
  byte-identical.  Also ``workers=1``, so the floor binds on every runner,
* the emitter's event-scheduler pass pays: the serial codegen fault campaign
  on picorv32 (the mostly-idle CPU shape the pass exists for) with the
  scheduler on is at least 1.5x faster than the identical campaign with the
  pass toggled off (verdicts cross-checked first),
* ``engine="auto"`` never silently picks a bad substrate: the auto-resolved
  sha256 fault campaign runs at at least 0.9x of the best *fixed* engine on
  the identical faults (every candidate and the auto run are
  verdict-cross-checked), and
* per benchmark, no speedup has regressed more than 20% below the committed
  ``BENCH_baseline.json``.

The floors are the :data:`FLOORS` table and the 20% is :data:`TOLERANCE`.
Speedup *ratios* rather than absolute times are compared against the baseline
so the gate is stable across runner hardware generations.  (The process
ratio additionally needs >= 2 real cores; on a single-core box it is ~0.9x
by construction, so only CI enforces that floor.)  To refresh the baseline
after an intentional change, run::

    PYTHONPATH=src python benchmarks/perf_gate.py --update-baseline

which records the measured speedups scaled by ``--headroom`` (default 0.75),
leaving slack for machine-to-machine variance.

``--sweep-all`` widens the harness to the whole ten-benchmark corpus and
``--no-gate`` skips the enforcement step; the nightly CI job combines the two
to publish ``BENCH_nightly.json`` as a trend artifact, so baselines are
refreshed from data instead of by hand.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
import time
from types import SimpleNamespace
from typing import Dict, List, Tuple

from repro.baselines.base import SerialFaultSimulator
from repro.core.framework import EraserSimulator
from repro.designs.registry import BENCHMARK_NAMES
from repro.fault.faultlist import generate_stuck_at_faults, sample_faults
from repro.harness.experiments import (
    ExperimentWorkload,
    FULL_PROFILE,
    QUICK_PROFILE,
    prepare_workload,
)
from repro.sim.codegen import CodegenEngine
from repro.sim.emitter import DEFAULT_PASSES, EmitterPasses
from repro.sim.eraser_codegen import EraserCodegenSimulator
from repro.sim.packed import PackedCodegenSimulator
from repro.sim.parallel import run_multiprocess
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

#: (benchmark, cycles, fault-sample size) triples for the streaming/dropping
#: harness: a packed first pass supplies verdicts, then the identical
#: campaign re-runs resume-seeded with cross-chunk dropping on vs off.  The
#: seeded re-run is the early-exit-heavy shape dropping exists for — most
#: faults are already seeded, so the drop side leaves them out of the
#: positions it simulates while the no-drop side re-simulates everything.
#: Runs inline (``workers=1``), so the ratio is honest on single-core boxes.
STREAMING_WORKLOADS = [("sha256_c2v", 120, 256)]

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

#: The hard floor of each gated ratio (``ratio_auto_vs_best_fixed`` is a
#: ratio to the best fixed engine; every other entry is a speedup).
FLOORS = {
    "speedup_codegen_vs_event": 3.0,
    "speedup_packed_vs_serial_codegen": 8.0,
    "speedup_vector_vs_packed": 2.0,
    "speedup_process_vs_packed": 1.5,
    "speedup_eraser_codegen_vs_interp": 3.0,
    "speedup_drop_vs_nodrop": 1.3,
    "speedup_warm_vs_cold": 5.0,
    "speedup_scheduler_vs_flat": 1.5,
    "ratio_auto_vs_best_fixed": 0.9,
}

#: How far below the committed baseline a ratio may regress (a fraction).
TOLERANCE = 0.20

ENGINES = ["event", "codegen"]


class _PassSerial(SerialFaultSimulator):
    """Serial baseline pinned to a codegen kernel with explicit passes."""

    name = "codegen-passes"

    def __init__(self, design, passes, **kwargs):
        super().__init__(design, **kwargs)
        self._passes = passes

    def _make_engine(self, force_hook=None):
        return CodegenEngine(self.design, force_hook=force_hook, passes=self._passes)


def time_engine(workload: ExperimentWorkload, repeats: int) -> float:
    """Best-of-``repeats`` wall time of a full stimulus run (construction excluded)."""
    best = float("inf")
    for _ in range(repeats):
        kernel = workload.make_engine()
        start = time.perf_counter()
        kernel.run(workload.stimulus)
        best = min(best, time.perf_counter() - start)
    return best


def campaign(design, **knobs):
    """A ``run(stimulus, faults)`` face over :func:`run_multiprocess`."""
    return SimpleNamespace(
        run=lambda stimulus, faults: run_multiprocess(design, stimulus, faults, **knobs)
    )


def time_fault_sim(factory, stimulus, faults, repeats: int):
    """Best-of-``repeats`` wall time of a full fault campaign (construction
    included: per-fault / per-word engine churn IS the algorithm's cost)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        simulator = factory()
        start = time.perf_counter()
        result = simulator.run(stimulus, faults)
        best = min(best, time.perf_counter() - start)
    return best, result


def sweep_workloads() -> Tuple[List, List, List]:
    """The full ten-benchmark shapes the nightly sweep times."""
    workloads = [(name, FULL_PROFILE.cycles[name]) for name in BENCHMARK_NAMES]
    fault_workloads = [(name, QUICK_PROFILE.cycles[name], 64) for name in BENCHMARK_NAMES]
    eraser_workloads = [
        (name, QUICK_PROFILE.cycles[name], 128) for name in BENCHMARK_NAMES
    ]
    return workloads, fault_workloads, eraser_workloads


def run_harness(repeats: int, sweep_all: bool = False) -> Dict:
    workloads, fault_workloads, eraser_workloads = (
        WORKLOADS,
        FAULT_WORKLOADS,
        ERASER_WORKLOADS,
    )
    if sweep_all:
        workloads, fault_workloads, eraser_workloads = sweep_workloads()
    report: Dict = {
        "meta": {
            "python": platform.python_version(),
            "repeats": repeats,
            "engines": ENGINES,
            "packed_width": PACKED_WIDTH,
            "cpu_count": os.cpu_count(),
            "sweep_all": sweep_all,
        },
        "benchmarks": {},
        "fault_benchmarks": {},
        "vector_benchmarks": {},
        "parallel_benchmarks": {},
        "eraser_benchmarks": {},
        "streaming_benchmarks": {},
        "cache_benchmarks": {},
        "emitter_benchmarks": {},
    }
    report["meta"]["vector_width"] = VECTOR_WIDTH
    for name, cycles in workloads:
        base = prepare_workload(name, cycles=cycles)
        seconds = {
            engine: time_engine(base._replace(engine=engine), repeats)
            for engine in ENGINES
        }
        speedup = seconds["event"] / seconds["codegen"]
        report["benchmarks"][name] = {
            "cycles": cycles,
            "seconds": {k: round(v, 6) for k, v in seconds.items()},
            "speedup_codegen_vs_event": round(speedup, 3),
        }
        print(
            f"{name:12s} cycles={cycles:4d}  "
            + "  ".join(f"{e}={seconds[e]:.3f}s" for e in ENGINES)
            + f"  codegen speedup={speedup:.1f}x"
        )
    for name, cycles, fault_count in fault_workloads:
        workload = prepare_workload(name, cycles=cycles)
        faults = sample_faults(
            generate_stuck_at_faults(workload.design), fault_count, seed=7
        )
        serial_s, serial_r = time_fault_sim(
            lambda: SerialFaultSimulator(workload.design, engine="codegen"),
            workload.stimulus,
            faults,
            repeats,
        )
        packed_s, packed_r = time_fault_sim(
            lambda: PackedCodegenSimulator(workload.design, width=PACKED_WIDTH),
            workload.stimulus,
            faults,
            repeats,
        )
        if not packed_r.coverage.same_verdicts(serial_r.coverage):
            raise SystemExit(
                f"{name}: packed and serial codegen verdicts disagree on "
                f"{packed_r.coverage.disagreements(serial_r.coverage)}"
            )
        speedup = serial_s / packed_s
        report["fault_benchmarks"][name] = {
            "cycles": cycles,
            "faults": fault_count,
            "seconds": {
                "serial_codegen": round(serial_s, 6),
                "packed": round(packed_s, 6),
            },
            "speedup_packed_vs_serial_codegen": round(speedup, 3),
        }
        print(
            f"{name:12s} cycles={cycles:4d} faults={fault_count:3d}  "
            f"serial={serial_s:.3f}s packed={packed_s:.3f}s  "
            f"packed speedup={speedup:.1f}x"
        )
    if _vector_np is None:
        print("vector harness skipped (NumPy not installed; pip install .[vector])")
    else:
        for name, cycles, fault_count in VECTOR_WORKLOADS:
            workload = prepare_workload(name, cycles=cycles)
            faults = generate_stuck_at_faults(workload.design)
            if fault_count is not None:
                faults = sample_faults(faults, fault_count, seed=7)
            packed_s, packed_r = time_fault_sim(
                lambda: PackedCodegenSimulator(workload.design, width=PACKED_WIDTH),
                workload.stimulus,
                faults,
                repeats,
            )
            vector_s, vector_r = time_fault_sim(
                lambda: VectorFaultSimulator(workload.design, width=VECTOR_WIDTH),
                workload.stimulus,
                faults,
                repeats,
            )
            if vector_r.coverage.detections != packed_r.coverage.detections:
                raise SystemExit(
                    f"{name}: vector and packed detection cycles disagree on "
                    f"{vector_r.coverage.disagreements(packed_r.coverage)}"
                )
            # same fault list on both sides, so the wall-time ratio IS the
            # throughput-per-fault ratio
            speedup = packed_s / vector_s
            lanes = min(len(faults), VECTOR_WIDTH)
            report["vector_benchmarks"][name] = {
                "cycles": cycles,
                "faults": len(faults),
                "lanes": lanes,
                "seconds": {
                    "packed": round(packed_s, 6),
                    "vector": round(vector_s, 6),
                },
                "speedup_vector_vs_packed": round(speedup, 3),
            }
            print(
                f"{name:12s} cycles={cycles:4d} faults={len(faults):5d} "
                f"lanes={lanes:4d}  packed={packed_s:.3f}s "
                f"vector={vector_s:.3f}s  vector speedup={speedup:.1f}x"
            )
    for name, cycles, fault_count in eraser_workloads:
        workload = prepare_workload(name, cycles=cycles)
        faults = sample_faults(
            generate_stuck_at_faults(workload.design), fault_count, seed=7
        )
        interp_s, interp_r = time_fault_sim(
            lambda: EraserSimulator(workload.design),
            workload.stimulus,
            faults,
            repeats,
        )
        codegen_s, codegen_r = time_fault_sim(
            lambda: EraserCodegenSimulator(workload.design),
            workload.stimulus,
            faults,
            repeats,
        )
        if not codegen_r.coverage.same_verdicts(interp_r.coverage):
            raise SystemExit(
                f"{name}: eraser-codegen and interpreted Eraser verdicts "
                f"disagree on {codegen_r.coverage.disagreements(interp_r.coverage)}"
            )
        speedup = interp_s / codegen_s
        report["eraser_benchmarks"][name] = {
            "cycles": cycles,
            "faults": fault_count,
            "seconds": {
                "eraser_interp": round(interp_s, 6),
                "eraser_codegen": round(codegen_s, 6),
            },
            "speedup_eraser_codegen_vs_interp": round(speedup, 3),
        }
        print(
            f"{name:12s} cycles={cycles:4d} faults={fault_count:3d}  "
            f"interp={interp_s:.3f}s eraser-codegen={codegen_s:.3f}s  "
            f"eraser-codegen speedup={speedup:.1f}x"
        )
    for name, cycles, fault_count, workers in PARALLEL_WORKLOADS:
        workload = prepare_workload(name, cycles=cycles)
        faults = generate_stuck_at_faults(workload.design)
        if fault_count is not None:
            faults = sample_faults(faults, fault_count, seed=7)
        packed_s, packed_r = time_fault_sim(
            lambda: PackedCodegenSimulator(workload.design, width=PACKED_WIDTH),
            workload.stimulus,
            faults,
            repeats,
        )
        process_s, process_r = time_fault_sim(
            lambda: campaign(workload.design, workers=workers, width=PACKED_WIDTH),
            workload.stimulus,
            faults,
            repeats,
        )
        if not process_r.coverage.same_verdicts(packed_r.coverage):
            raise SystemExit(
                f"{name}: process-pool and single-process packed verdicts "
                f"disagree on {process_r.coverage.disagreements(packed_r.coverage)}"
            )
        speedup = packed_s / process_s
        report["parallel_benchmarks"][name] = {
            "cycles": cycles,
            "faults": len(faults),
            "workers": workers,
            "seconds": {
                "packed_1p": round(packed_s, 6),
                f"process_{workers}p": round(process_s, 6),
            },
            "speedup_process_vs_packed": round(speedup, 3),
        }
        print(
            f"{name:12s} cycles={cycles:4d} faults={len(faults):5d}  "
            f"packed(1p)={packed_s:.3f}s process({workers}p)={process_s:.3f}s  "
            f"process speedup={speedup:.2f}x"
        )
    for name, cycles, fault_count in STREAMING_WORKLOADS:
        workload = prepare_workload(name, cycles=cycles)
        faults = generate_stuck_at_faults(workload.design)
        if fault_count is not None:
            faults = sample_faults(faults, fault_count, seed=7)
        seed_run = PackedCodegenSimulator(workload.design, width=PACKED_WIDTH).run(
            workload.stimulus, faults
        )
        seeds = dict(seed_run.coverage.detections)
        nodrop_s, nodrop_r = time_fault_sim(
            lambda: campaign(
                workload.design,
                workers=1,
                width=PACKED_WIDTH,
                resume_from=seeds,
                cross_drop=False,
            ),
            workload.stimulus,
            faults,
            repeats,
        )
        drop_s, drop_r = time_fault_sim(
            lambda: campaign(
                workload.design,
                workers=1,
                width=PACKED_WIDTH,
                resume_from=seeds,
                cross_drop=True,
            ),
            workload.stimulus,
            faults,
            repeats,
        )
        if drop_r.coverage.detections != nodrop_r.coverage.detections:
            raise SystemExit(
                f"{name}: dropping changed the resumed verdicts — it may only "
                f"remove redundant work; disagreements: "
                f"{drop_r.coverage.disagreements(nodrop_r.coverage)}"
            )
        if drop_r.coverage.detections != seeds:
            raise SystemExit(
                f"{name}: a fully-seeded re-run must reproduce the seed "
                f"verdicts exactly"
            )
        speedup = nodrop_s / drop_s
        report["streaming_benchmarks"][name] = {
            "cycles": cycles,
            "faults": len(faults),
            "seeded": len(seeds),
            "seconds": {
                "resume_nodrop": round(nodrop_s, 6),
                "resume_drop": round(drop_s, 6),
            },
            "speedup_drop_vs_nodrop": round(speedup, 3),
        }
        print(
            f"{name:12s} cycles={cycles:4d} faults={len(faults):5d} "
            f"seeded={len(seeds):5d}  nodrop={nodrop_s:.3f}s "
            f"drop={drop_s:.3f}s  drop speedup={speedup:.2f}x"
        )
    for name, cycles, fault_count in CACHE_WORKLOADS:
        workload = prepare_workload(name, cycles=cycles)
        faults = generate_stuck_at_faults(workload.design)
        if fault_count is not None:
            faults = sample_faults(faults, fault_count, seed=7)
        cold_s = warm_s = float("inf")
        cold_r = warm_r = None
        for _ in range(repeats):
            # a fresh cache directory per repeat: the cold side must never
            # see a predecessor's shard, and the warm side times exactly one
            # cold run's worth of cached verdicts
            cache_root = tempfile.mkdtemp(prefix="repro-results-gate-")
            try:
                cold_sim = campaign(
                    workload.design, workers=1, width=PACKED_WIDTH, cache=cache_root
                )
                start = time.perf_counter()
                cold_r = cold_sim.run(workload.stimulus, faults)
                cold_s = min(cold_s, time.perf_counter() - start)
                warm_sim = campaign(
                    workload.design, workers=1, width=PACKED_WIDTH, cache=cache_root
                )
                start = time.perf_counter()
                warm_r = warm_sim.run(workload.stimulus, faults)
                warm_s = min(warm_s, time.perf_counter() - start)
            finally:
                shutil.rmtree(cache_root, ignore_errors=True)
        if warm_r.coverage.detections != cold_r.coverage.detections:
            raise SystemExit(
                f"{name}: warm-replay verdicts differ from the cold run on "
                f"{warm_r.coverage.disagreements(cold_r.coverage)}"
            )
        if warm_r.stats.chunks_simulated or warm_r.stats.cache_misses:
            raise SystemExit(
                f"{name}: the warm replay simulated work "
                f"(chunks={warm_r.stats.chunks_simulated}, "
                f"misses={warm_r.stats.cache_misses}); every verdict must "
                f"come from the cache"
            )
        if warm_r.stats.cache_hits != len(faults):
            raise SystemExit(
                f"{name}: warm replay resolved {warm_r.stats.cache_hits} of "
                f"{len(faults)} faults from the cache"
            )
        speedup = cold_s / warm_s
        report["cache_benchmarks"][name] = {
            "cycles": cycles,
            "faults": len(faults),
            "seconds": {
                "cold": round(cold_s, 6),
                "warm": round(warm_s, 6),
            },
            "speedup_warm_vs_cold": round(speedup, 3),
        }
        print(
            f"{name:12s} cycles={cycles:4d} faults={len(faults):5d}  "
            f"cold={cold_s:.3f}s warm={warm_s:.3f}s  "
            f"warm-replay speedup={speedup:.1f}x"
        )
    for name, cycles, fault_count in EMITTER_WORKLOADS:
        workload = prepare_workload(name, cycles=cycles)
        faults = sample_faults(
            generate_stuck_at_faults(workload.design), fault_count, seed=7
        )
        flat_s, flat_r = time_fault_sim(
            lambda: _PassSerial(workload.design, EmitterPasses(event_scheduler=False)),
            workload.stimulus,
            faults,
            repeats,
        )
        sched_s, sched_r = time_fault_sim(
            lambda: _PassSerial(workload.design, DEFAULT_PASSES),
            workload.stimulus,
            faults,
            repeats,
        )
        if not sched_r.coverage.same_verdicts(flat_r.coverage):
            raise SystemExit(
                f"{name}: the event-scheduler pass changed verdicts on "
                f"{sched_r.coverage.disagreements(flat_r.coverage)}"
            )
        speedup = flat_s / sched_s
        report["emitter_benchmarks"][name] = {
            "cycles": cycles,
            "faults": fault_count,
            "seconds": {
                "scheduler_off": round(flat_s, 6),
                "scheduler_on": round(sched_s, 6),
            },
            "speedup_scheduler_vs_flat": round(speedup, 3),
        }
        print(
            f"{name:12s} cycles={cycles:4d} faults={fault_count:3d}  "
            f"flat={flat_s:.3f}s scheduler={sched_s:.3f}s  "
            f"scheduler speedup={speedup:.1f}x"
        )
    for name, cycles, fault_count in AUTO_WORKLOADS:
        workload = prepare_workload(name, cycles=cycles, engine="auto")
        faults = sample_faults(
            generate_stuck_at_faults(workload.design), fault_count, seed=7
        )
        fixed_candidates = {
            "serial_codegen": lambda: SerialFaultSimulator(
                workload.design, engine="codegen"
            ),
            "packed": lambda: PackedCodegenSimulator(
                workload.design, width=PACKED_WIDTH
            ),
        }
        if _vector_np is not None:
            fixed_candidates["vector"] = lambda: VectorFaultSimulator(
                workload.design, width=VECTOR_WIDTH
            )
        fixed_seconds = {}
        reference = None
        for label, factory in fixed_candidates.items():
            seconds, result = time_fault_sim(
                factory, workload.stimulus, faults, repeats
            )
            fixed_seconds[label] = seconds
            if reference is None:
                reference = result
            elif result.coverage.detections != reference.coverage.detections:
                raise SystemExit(
                    f"{name}: the {label} candidate disagrees with the "
                    f"reference on "
                    f"{result.coverage.disagreements(reference.coverage)}"
                )
        auto_sim = campaign(
            workload.design, workers=1, width=PACKED_WIDTH, runner=("auto", {})
        )
        # one untimed warm-up: the fixed candidates arrive with their kernels
        # already compiled by the earlier sections, so the auto side gets the
        # same courtesy before the clock starts
        auto_sim.run(workload.stimulus, faults)
        auto_s = float("inf")
        auto_r = None
        for _ in range(repeats):
            start = time.perf_counter()
            auto_r = auto_sim.run(workload.stimulus, faults)
            auto_s = min(auto_s, time.perf_counter() - start)
        if auto_r.coverage.detections != reference.coverage.detections:
            raise SystemExit(
                f"{name}: the auto-resolved campaign disagrees with the "
                f"reference on "
                f"{auto_r.coverage.disagreements(reference.coverage)}"
            )
        best = min(fixed_seconds, key=fixed_seconds.get)
        ratio = fixed_seconds[best] / auto_s
        report["emitter_benchmarks"][name] = {
            "cycles": cycles,
            "faults": fault_count,
            "best_fixed": best,
            "seconds": {
                "auto": round(auto_s, 6),
                **{k: round(v, 6) for k, v in fixed_seconds.items()},
            },
            "ratio_auto_vs_best_fixed": round(ratio, 3),
        }
        print(
            f"{name:12s} cycles={cycles:4d} faults={fault_count:3d}  "
            f"auto={auto_s:.3f}s best-fixed={best}={fixed_seconds[best]:.3f}s  "
            f"auto ratio={ratio:.2f}x"
        )
    return report


def gate(report: Dict, baseline: Dict) -> int:
    """Enforce :data:`FLOORS` and the :data:`TOLERANCE` against ``baseline``."""
    min_speedup = FLOORS["speedup_codegen_vs_event"]
    min_packed_speedup = FLOORS["speedup_packed_vs_serial_codegen"]
    min_vector_speedup = FLOORS["speedup_vector_vs_packed"]
    min_process_speedup = FLOORS["speedup_process_vs_packed"]
    min_eraser_speedup = FLOORS["speedup_eraser_codegen_vs_interp"]
    min_drop_speedup = FLOORS["speedup_drop_vs_nodrop"]
    min_cache_speedup = FLOORS["speedup_warm_vs_cold"]
    min_emitter_speedup = FLOORS["speedup_scheduler_vs_flat"]
    min_auto_ratio = FLOORS["ratio_auto_vs_best_fixed"]
    tolerance = TOLERANCE
    failures = []
    measured = report["benchmarks"]
    gated = measured[GATED_BENCHMARK]["speedup_codegen_vs_event"]
    if gated < min_speedup:
        failures.append(
            f"{GATED_BENCHMARK}: codegen is only {gated:.2f}x faster than the "
            f"event-driven engine (floor: {min_speedup:.1f}x)"
        )
    measured_faults = report["fault_benchmarks"]
    gated_packed = measured_faults[GATED_BENCHMARK]["speedup_packed_vs_serial_codegen"]
    if gated_packed < min_packed_speedup:
        failures.append(
            f"{GATED_BENCHMARK}: packed fault simulation is only "
            f"{gated_packed:.2f}x faster than the serial codegen baseline "
            f"(floor: {min_packed_speedup:.1f}x)"
        )
    measured_vector = report["vector_benchmarks"]
    if measured_vector:
        gated_vector = measured_vector[GATED_BENCHMARK]["speedup_vector_vs_packed"]
        if gated_vector < min_vector_speedup:
            failures.append(
                f"{GATED_BENCHMARK}: the vector backend is only "
                f"{gated_vector:.2f}x faster than packed-bigint at "
                f"{measured_vector[GATED_BENCHMARK]['lanes']} lanes "
                f"(floor: {min_vector_speedup:.1f}x)"
            )
    # an empty section means NumPy was absent; the floor (and the baseline
    # comparison below) then only binds on the numpy-equipped CI legs
    measured_parallel = report["parallel_benchmarks"]
    gated_process = measured_parallel[GATED_BENCHMARK]["speedup_process_vs_packed"]
    if gated_process < min_process_speedup:
        failures.append(
            f"{GATED_BENCHMARK}: the process-pool executor is only "
            f"{gated_process:.2f}x faster than single-process packed "
            f"(floor: {min_process_speedup:.1f}x at "
            f"workers={measured_parallel[GATED_BENCHMARK]['workers']})"
        )
    measured_eraser = report["eraser_benchmarks"]
    gated_eraser = measured_eraser[GATED_BENCHMARK]["speedup_eraser_codegen_vs_interp"]
    if gated_eraser < min_eraser_speedup:
        failures.append(
            f"{GATED_BENCHMARK}: the eraser-codegen kernel is only "
            f"{gated_eraser:.2f}x faster than the interpreted Eraser "
            f"(floor: {min_eraser_speedup:.1f}x)"
        )
    measured_streaming = report["streaming_benchmarks"]
    gated_drop = measured_streaming[GATED_BENCHMARK]["speedup_drop_vs_nodrop"]
    if gated_drop < min_drop_speedup:
        failures.append(
            f"{GATED_BENCHMARK}: cross-chunk dropping makes the resume-seeded "
            f"re-run only {gated_drop:.2f}x faster than dropping disabled "
            f"(floor: {min_drop_speedup:.1f}x)"
        )
    measured_cache = report["cache_benchmarks"]
    gated_cache = measured_cache[GATED_BENCHMARK]["speedup_warm_vs_cold"]
    if gated_cache < min_cache_speedup:
        failures.append(
            f"{GATED_BENCHMARK}: the cached warm replay is only "
            f"{gated_cache:.2f}x faster than the cold campaign "
            f"(floor: {min_cache_speedup:.1f}x)"
        )
    measured_emitter = report["emitter_benchmarks"]
    scheduler_benchmark = EMITTER_WORKLOADS[0][0]
    gated_scheduler = measured_emitter[scheduler_benchmark][
        "speedup_scheduler_vs_flat"
    ]
    if gated_scheduler < min_emitter_speedup:
        failures.append(
            f"{scheduler_benchmark}: the event-scheduler pass makes the "
            f"serial campaign only {gated_scheduler:.2f}x faster than the "
            f"flat settle (floor: {min_emitter_speedup:.1f}x)"
        )
    gated_auto = measured_emitter[GATED_BENCHMARK]["ratio_auto_vs_best_fixed"]
    if gated_auto < min_auto_ratio:
        failures.append(
            f"{GATED_BENCHMARK}: engine=\"auto\" runs at only "
            f"{gated_auto:.2f}x of the best fixed engine "
            f"({measured_emitter[GATED_BENCHMARK]['best_fixed']}; "
            f"floor: {min_auto_ratio:.2f}x)"
        )
    for name, entry in baseline.get("benchmarks", {}).items():
        if name not in measured:
            failures.append(f"baseline benchmark {name!r} missing from this run")
            continue
        floor = entry["speedup_codegen_vs_event"] * (1.0 - tolerance)
        current = measured[name]["speedup_codegen_vs_event"]
        if current < floor:
            failures.append(
                f"{name}: codegen speedup regressed to {current:.2f}x "
                f"(baseline {entry['speedup_codegen_vs_event']:.2f}x, "
                f"floor {floor:.2f}x)"
            )
    for name, entry in baseline.get("fault_benchmarks", {}).items():
        if name not in measured_faults:
            failures.append(f"baseline fault benchmark {name!r} missing from this run")
            continue
        floor = entry["speedup_packed_vs_serial_codegen"] * (1.0 - tolerance)
        current = measured_faults[name]["speedup_packed_vs_serial_codegen"]
        if current < floor:
            failures.append(
                f"{name}: packed speedup regressed to {current:.2f}x "
                f"(baseline {entry['speedup_packed_vs_serial_codegen']:.2f}x, "
                f"floor {floor:.2f}x)"
            )
    for name, entry in baseline.get("vector_benchmarks", {}).items():
        if not measured_vector:
            # NumPy absent: the section was skipped wholesale, which the
            # harness already announced; only the numpy-equipped CI legs
            # enforce the vector floor
            break
        if name not in measured_vector:
            failures.append(
                f"baseline vector benchmark {name!r} missing from this run"
            )
            continue
        floor = entry["speedup_vector_vs_packed"] * (1.0 - tolerance)
        current = measured_vector[name]["speedup_vector_vs_packed"]
        if current < floor:
            failures.append(
                f"{name}: vector speedup regressed to {current:.2f}x "
                f"(baseline {entry['speedup_vector_vs_packed']:.2f}x, "
                f"floor {floor:.2f}x)"
            )
    for name, entry in baseline.get("parallel_benchmarks", {}).items():
        if name not in measured_parallel:
            failures.append(
                f"baseline parallel benchmark {name!r} missing from this run"
            )
            continue
        floor = entry["speedup_process_vs_packed"] * (1.0 - tolerance)
        current = measured_parallel[name]["speedup_process_vs_packed"]
        if current < floor:
            failures.append(
                f"{name}: process-pool speedup regressed to {current:.2f}x "
                f"(baseline {entry['speedup_process_vs_packed']:.2f}x, "
                f"floor {floor:.2f}x)"
            )
    for name, entry in baseline.get("eraser_benchmarks", {}).items():
        if name not in measured_eraser:
            failures.append(
                f"baseline eraser benchmark {name!r} missing from this run"
            )
            continue
        floor = entry["speedup_eraser_codegen_vs_interp"] * (1.0 - tolerance)
        current = measured_eraser[name]["speedup_eraser_codegen_vs_interp"]
        if current < floor:
            failures.append(
                f"{name}: eraser-codegen speedup regressed to {current:.2f}x "
                f"(baseline {entry['speedup_eraser_codegen_vs_interp']:.2f}x, "
                f"floor {floor:.2f}x)"
            )
    for name, entry in baseline.get("streaming_benchmarks", {}).items():
        if name not in measured_streaming:
            failures.append(
                f"baseline streaming benchmark {name!r} missing from this run"
            )
            continue
        floor = entry["speedup_drop_vs_nodrop"] * (1.0 - tolerance)
        current = measured_streaming[name]["speedup_drop_vs_nodrop"]
        if current < floor:
            failures.append(
                f"{name}: cross-chunk dropping speedup regressed to "
                f"{current:.2f}x (baseline "
                f"{entry['speedup_drop_vs_nodrop']:.2f}x, floor {floor:.2f}x)"
            )
    for name, entry in baseline.get("cache_benchmarks", {}).items():
        if name not in measured_cache:
            failures.append(
                f"baseline cache benchmark {name!r} missing from this run"
            )
            continue
        floor = entry["speedup_warm_vs_cold"] * (1.0 - tolerance)
        current = measured_cache[name]["speedup_warm_vs_cold"]
        if current < floor:
            failures.append(
                f"{name}: warm-replay speedup regressed to {current:.2f}x "
                f"(baseline {entry['speedup_warm_vs_cold']:.2f}x, "
                f"floor {floor:.2f}x)"
            )
    for name, entry in baseline.get("emitter_benchmarks", {}).items():
        if name not in measured_emitter:
            failures.append(
                f"baseline emitter benchmark {name!r} missing from this run"
            )
            continue
        # the section holds two differently-shaped entries (the scheduler
        # speedup and the auto ratio); compare whichever metric each carries
        for metric, label in (
            ("speedup_scheduler_vs_flat", "event-scheduler speedup"),
            ("ratio_auto_vs_best_fixed", "auto-vs-best-fixed ratio"),
        ):
            if metric not in entry:
                continue
            floor = entry[metric] * (1.0 - tolerance)
            current = measured_emitter[name][metric]
            if current < floor:
                failures.append(
                    f"{name}: {label} regressed to {current:.2f}x "
                    f"(baseline {entry[metric]:.2f}x, floor {floor:.2f}x)"
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
        for entry in report["benchmarks"].values():
            entry["speedup_codegen_vs_event"] = round(
                entry["speedup_codegen_vs_event"] * args.headroom, 3
            )
        for entry in report["fault_benchmarks"].values():
            entry["speedup_packed_vs_serial_codegen"] = round(
                entry["speedup_packed_vs_serial_codegen"] * args.headroom, 3
            )
        for entry in report["vector_benchmarks"].values():
            entry["speedup_vector_vs_packed"] = round(
                entry["speedup_vector_vs_packed"] * args.headroom, 3
            )
        for entry in report["parallel_benchmarks"].values():
            entry["speedup_process_vs_packed"] = round(
                entry["speedup_process_vs_packed"] * args.headroom, 3
            )
        for entry in report["eraser_benchmarks"].values():
            entry["speedup_eraser_codegen_vs_interp"] = round(
                entry["speedup_eraser_codegen_vs_interp"] * args.headroom, 3
            )
        for entry in report["streaming_benchmarks"].values():
            entry["speedup_drop_vs_nodrop"] = round(
                entry["speedup_drop_vs_nodrop"] * args.headroom, 3
            )
        for entry in report["cache_benchmarks"].values():
            entry["speedup_warm_vs_cold"] = round(
                entry["speedup_warm_vs_cold"] * args.headroom, 3
            )
        for entry in report["emitter_benchmarks"].values():
            for metric in ("speedup_scheduler_vs_flat", "ratio_auto_vs_best_fixed"):
                if metric in entry:
                    entry[metric] = round(entry[metric] * args.headroom, 3)
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
