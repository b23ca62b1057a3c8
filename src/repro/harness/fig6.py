"""Fig. 6 — performance comparison of the four RTL fault simulators.

For every benchmark the harness runs IFsim, VFsim, the Z01X surrogate and
Eraser on the identical workload, reports wall-clock time and the speedup of
each simulator over the IFsim baseline (the paper's normalisation) beside the
paper's VFsim and Eraser speedups, and checks that all four agree on every
fault verdict.  As in the paper, IFsim re-runs each fault on an interpreter
(the event-driven kernel) and VFsim on compiled code (the generated serial
kernel).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Optional

from repro.baselines.ifsim import IFsimSimulator
from repro.baselines.vfsim import VFsimSimulator
from repro.baselines.z01x import Z01XSurrogateSimulator
from repro.core.framework import EraserSimulator
from repro.errors import HarnessError
from repro.fault.result import FaultSimResult
from repro.harness.experiments import (
    ExperimentWorkload,
    QUICK_PROFILE,
    WorkloadProfile,
    prepare_workloads,
)
from repro.harness.paper_data import PAPER_FIG6_SPEEDUPS
from repro.sim.parallel import CampaignConfig
from repro.utils.tables import TextTable

SIMULATOR_ORDER = ["IFsim", "VFsim", "Z01X", "Eraser"]


class Fig6Row(NamedTuple):
    benchmark: str
    paper_name: str
    times: Dict[str, float]
    speedups: Dict[str, float]
    coverage: float
    verdicts_agree: bool
    paper_speedups: Dict[str, float]


def run_benchmark(
    workload: ExperimentWorkload,
    engine: Optional[str] = None,
    campaign: Optional[CampaignConfig] = None,
    eraser_engine: str = "interp",
) -> Fig6Row:
    """Run all four simulators on one workload and normalise against IFsim.

    ``engine`` overrides the kernel the serial baselines re-run per fault
    (``None`` keeps their defining kernels: IFsim = the interpreted
    event-driven kernel, VFsim = the generated serial kernel ``"codegen"``;
    any other :data:`repro.api.ENGINE_SPECS` name puts both on that kernel).  ``campaign`` runs the serial baselines' per-fault loops as
    campaigns with that :class:`~repro.sim.parallel.CampaignConfig`.
    ``eraser_engine`` selects the concurrent kernel the Eraser row runs on
    (``"interp"`` or ``"codegen"``, see
    :data:`repro.core.framework.ERASER_ENGINES`).  Verdicts are engine- and
    campaign-independent, so the agreement check keeps its meaning either
    way; only the timing columns change.  A campaign with a result cache is
    refused: IFsim and VFsim share design, stimulus and fault list, so VFsim
    would replay the verdicts IFsim just wrote, which voids both its timing
    and the agreement check.
    """
    if campaign is not None and campaign.cache is not None:
        raise HarnessError(
            "fig6 times the simulators against each other, so its "
            "campaigns cannot use a result cache (cache= is set)"
        )
    simulators = {
        "IFsim": IFsimSimulator(workload.design, engine=engine, campaign=campaign),
        "VFsim": VFsimSimulator(workload.design, engine=engine, campaign=campaign),
        "Z01X": Z01XSurrogateSimulator(workload.design),
        "Eraser": EraserSimulator(workload.design, engine=eraser_engine),
    }
    results: Dict[str, FaultSimResult] = {
        name: sim.run(workload.stimulus, workload.faults)
        for name, sim in simulators.items()
    }
    baseline_time = results["IFsim"].wall_time
    times = {name: results[name].wall_time for name in SIMULATOR_ORDER}
    speedups = {
        name: (baseline_time / times[name]) if times[name] > 0 else float("inf")
        for name in SIMULATOR_ORDER
    }
    reference = results["IFsim"].coverage
    verdicts_agree = all(
        results[name].coverage.same_verdicts(reference) for name in SIMULATOR_ORDER
    )
    return Fig6Row(
        benchmark=workload.name,
        paper_name=workload.paper_name,
        times=times,
        speedups=speedups,
        coverage=results["Eraser"].fault_coverage,
        verdicts_agree=verdicts_agree,
        paper_speedups=PAPER_FIG6_SPEEDUPS[workload.name],
    )


def build_figure(rows: Iterable[Fig6Row]) -> TextTable:
    table = TextTable(
        [
            "Benchmark",
            "IFsim (s)",
            "VFsim (s)",
            "Z01X (s)",
            "Eraser (s)",
            "VFsim x",
            "Z01X x",
            "Eraser x",
            "Paper VFsim x",
            "Paper Eraser x",
            "Verdicts agree",
        ],
        title="Fig. 6: Performance comparison (speedups relative to IFsim)",
    )
    for row in rows:
        table.add_row(
            [
                row.paper_name,
                row.times["IFsim"],
                row.times["VFsim"],
                row.times["Z01X"],
                row.times["Eraser"],
                row.speedups["VFsim"],
                row.speedups["Z01X"],
                row.speedups["Eraser"],
                row.paper_speedups["VFsim"],
                row.paper_speedups["Eraser"],
                "yes" if row.verdicts_agree else "NO",
            ]
        )
    return table


def geometric_mean(values: List[float]) -> float:
    """Geometric mean used for the headline average speedups."""
    if not values:
        return 0.0
    product = 1.0
    for value in values:
        product *= max(value, 1e-12)
    return product ** (1.0 / len(values))


def summarize(rows: List[Fig6Row]) -> Dict[str, float]:
    """Average Eraser speedups over the other simulators (the headline claim)."""
    vs_z01x = [row.times["Z01X"] / row.times["Eraser"] for row in rows if row.times["Eraser"] > 0]
    vs_vfsim = [row.times["VFsim"] / row.times["Eraser"] for row in rows if row.times["Eraser"] > 0]
    vs_ifsim = [row.speedups["Eraser"] for row in rows]
    return {
        "eraser_vs_z01x_mean": sum(vs_z01x) / len(vs_z01x) if vs_z01x else 0.0,
        "eraser_vs_vfsim_mean": sum(vs_vfsim) / len(vs_vfsim) if vs_vfsim else 0.0,
        "eraser_vs_ifsim_geomean": geometric_mean(vs_ifsim),
    }


def run(
    benchmarks: Optional[Iterable[str]] = None,
    profile: WorkloadProfile = QUICK_PROFILE,
    print_output: bool = True,
    engine: Optional[str] = None,
    campaign: Optional[CampaignConfig] = None,
    eraser_engine: str = "interp",
) -> List[Fig6Row]:
    """Run the Fig. 6 experiment across the benchmark suite.

    ``engine`` forwards to :func:`run_benchmark`: it swaps the kernel under
    the serial baselines (e.g. ``engine="codegen"`` re-times IFsim/VFsim on
    the generated-code kernel).  ``campaign`` runs those baselines'
    per-fault loops as campaigns (see :func:`run_benchmark`).
    ``eraser_engine="codegen"`` re-times the Eraser row on the generated
    concurrent kernel.
    """
    workloads = prepare_workloads(benchmarks, profile, engine=engine)
    rows = [
        run_benchmark(
            workload, engine=engine, campaign=campaign, eraser_engine=eraser_engine
        )
        for workload in workloads
    ]
    if print_output:
        print(build_figure(rows).render())
        summary = summarize(rows)
        print(
            f"\nAverage Eraser speedup: {summary['eraser_vs_z01x_mean']:.1f}x vs Z01X surrogate, "
            f"{summary['eraser_vs_vfsim_mean']:.1f}x vs VFsim "
            f"(paper: 3.9x vs Z01X, 5.9x vs VFsim)"
        )
    return rows
