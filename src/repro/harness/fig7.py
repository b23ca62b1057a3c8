"""Fig. 7 — ablation study of the redundancy-elimination stages.

Three variants of the same concurrent framework are compared on the paper's
seven ablation circuits:

* ``Eraser--`` — no redundancy elimination (every live fault's behavioral code
  executes on every activation),
* ``Eraser-``  — explicit (input-comparison) elimination only,
* ``Eraser``   — explicit + implicit (execution-path) elimination.

Speedups are reported relative to ``Eraser--`` exactly as in the paper.
Each variant runs :data:`ROUNDS` times, interleaved with the others, and
reports its fastest run: at the quick profile one run takes a fraction of a
second, so a single timing moves with whatever else the host is doing.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Optional

from repro.core.framework import EraserMode, EraserSimulator
from repro.harness.experiments import (
    ABLATION_BENCHMARKS,
    ExperimentWorkload,
    QUICK_PROFILE,
    WorkloadProfile,
    prepare_workloads,
)
from repro.harness.paper_data import PAPER_FIG7_SPEEDUPS
from repro.utils.tables import TextTable

VARIANT_ORDER = ["Eraser--", "Eraser-", "Eraser"]

#: Interleaved rounds of the three variants; each reports its fastest.
ROUNDS = 3

_MODES = {
    "Eraser--": EraserMode.NO_ELIMINATION,
    "Eraser-": EraserMode.EXPLICIT_ONLY,
    "Eraser": EraserMode.FULL,
}


class Fig7Row(NamedTuple):
    benchmark: str
    paper_name: str
    times: Dict[str, float]
    speedups: Dict[str, float]
    verdicts_agree: bool
    paper_speedups: Dict[str, float]


def run_benchmark(workload: ExperimentWorkload, eraser_engine: str = "interp") -> Fig7Row:
    """Run the three framework variants on one workload, :data:`ROUNDS` times.

    A round runs every variant once, in :data:`VARIANT_ORDER`; each variant's
    time is its fastest round, and the verdicts of every run must equal the
    first ``Eraser--`` run's for ``verdicts_agree``.

    ``eraser_engine="codegen"`` runs every variant on the generated
    concurrent kernel, which ignores the mode: it executes every fault that
    diverges on a signal the block reads or writes (or saw its own clock
    edge).  That is the paper's Eraser-, except that Eraser- also skips a
    fault that diverges on no signal the block reads; there is no implicit
    check.  The three variants then do the same work, so the ablation's
    *timing* story only exists on the interpreted kernel; the
    verdict-agreement column keeps its meaning either way.
    """
    times = dict.fromkeys(VARIANT_ORDER, float("inf"))
    reference = None
    verdicts_agree = True
    for _ in range(ROUNDS):
        for variant in VARIANT_ORDER:
            simulator = EraserSimulator(
                workload.design, mode=_MODES[variant], engine=eraser_engine
            )
            result = simulator.run(workload.stimulus, workload.faults)
            times[variant] = min(times[variant], result.wall_time)
            if reference is None:
                reference = result.coverage
            verdicts_agree = verdicts_agree and result.coverage.same_verdicts(reference)
    baseline = times["Eraser--"]
    speedups = {
        variant: (baseline / times[variant]) if times[variant] > 0 else float("inf")
        for variant in VARIANT_ORDER
    }
    return Fig7Row(
        benchmark=workload.name,
        paper_name=workload.paper_name,
        times=times,
        speedups=speedups,
        verdicts_agree=verdicts_agree,
        paper_speedups=PAPER_FIG7_SPEEDUPS.get(workload.name, {}),
    )


def build_figure(rows: Iterable[Fig7Row]) -> TextTable:
    table = TextTable(
        [
            "Benchmark",
            "Eraser-- (s)",
            "Eraser- (s)",
            "Eraser (s)",
            "Eraser- x",
            "Eraser x",
            "Paper Eraser- x",
            "Paper Eraser x",
            "Verdicts agree",
        ],
        title="Fig. 7: Ablation study (speedups relative to Eraser--)",
    )
    for row in rows:
        table.add_row(
            [
                row.paper_name,
                row.times["Eraser--"],
                row.times["Eraser-"],
                row.times["Eraser"],
                row.speedups["Eraser-"],
                row.speedups["Eraser"],
                row.paper_speedups.get("Eraser-", 0.0),
                row.paper_speedups.get("Eraser", 0.0),
                "yes" if row.verdicts_agree else "NO",
            ]
        )
    return table


def run(
    benchmarks: Optional[Iterable[str]] = None,
    profile: WorkloadProfile = QUICK_PROFILE,
    print_output: bool = True,
    eraser_engine: str = "interp",
) -> List[Fig7Row]:
    """Run the ablation study on the paper's seven circuits."""
    names = list(benchmarks) if benchmarks is not None else list(ABLATION_BENCHMARKS)
    workloads = prepare_workloads(names, profile)
    rows = [run_benchmark(workload, eraser_engine=eraser_engine) for workload in workloads]
    if print_output:
        print(build_figure(rows).render())
    return rows
