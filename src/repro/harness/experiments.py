"""Central workload definitions shared by every experiment.

The paper runs full fault lists for thousands of cycles on a compiled C++
engine; a pure-Python substrate cannot do that in interactive time, so each
experiment here runs a deterministic, seeded *sample* of the fault list for a
reduced cycle count.  Two profiles are provided:

* ``QUICK_PROFILE`` — the harness CLI's default and the examples' profile;
  finishes in minutes on a laptop.
* ``FULL_PROFILE``  — larger fault samples and the designs' full default
  stimulus lengths; used to produce the numbers recorded in EXPERIMENTS.md.

Crucially, every simulator (Eraser and all baselines/ablations) receives the
*identical* design, stimulus and fault list, so relative comparisons are fair
regardless of the absolute scale.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Optional

from repro.designs.registry import BENCHMARK_NAMES, get_benchmark
from repro.fault.faultlist import FaultList, generate_stuck_at_faults, sample_faults
from repro.ir.design import Design
from repro.sim.stimulus import Stimulus


class WorkloadProfile(NamedTuple):
    """Per-profile scaling knobs."""

    name: str
    cycles: Dict[str, int]
    fault_samples: Dict[str, int]
    seed: int


#: Cycle counts per benchmark for the quick profile (enough for the slowest
#: design to produce observable activity at its outputs).
_QUICK_CYCLES = {
    "alu": 60,
    "fpu": 60,
    "sha256_hv": 120,
    "apb": 60,
    "sodor": 80,
    "riscv_mini": 100,
    "picorv32": 120,
    "conv_acc": 80,
    "sha256_c2v": 120,
    "mips": 80,
}

_QUICK_FAULTS = {name: 40 for name in BENCHMARK_NAMES}

_FULL_CYCLES = {
    "alu": 200,
    "fpu": 200,
    "sha256_hv": 300,
    "apb": 200,
    "sodor": 300,
    "riscv_mini": 400,
    "picorv32": 500,
    "conv_acc": 300,
    "sha256_c2v": 300,
    "mips": 300,
}

_FULL_FAULTS = {name: 120 for name in BENCHMARK_NAMES}

QUICK_PROFILE = WorkloadProfile("quick", _QUICK_CYCLES, _QUICK_FAULTS, seed=2025)
FULL_PROFILE = WorkloadProfile("full", _FULL_CYCLES, _FULL_FAULTS, seed=2025)


class ExperimentWorkload(NamedTuple):
    """One ready-to-run benchmark workload."""

    name: str
    paper_name: str
    design: Design
    stimulus: Stimulus
    faults: FaultList
    total_fault_population: int
    #: Good-machine kernel selected for this workload (``repro.api.ENGINE_SPECS``
    #: name); resolved from the registry spec unless overridden.
    engine: str = "codegen"

    def make_engine(self, force_hook=None):
        """Instantiate the workload's selected good-machine kernel."""
        from repro.api import make_engine

        return make_engine(self.design, self.engine, force_hook=force_hook)


def prepare_workload(
    benchmark: str,
    profile: WorkloadProfile = QUICK_PROFILE,
    cycles: Optional[int] = None,
    fault_count: Optional[int] = None,
    engine: Optional[str] = None,
) -> ExperimentWorkload:
    """Compile a benchmark and build its stimulus + sampled fault list.

    ``engine`` overrides the benchmark spec's default good-machine kernel
    (any :data:`repro.api.ENGINE_SPECS` name, including ``"auto"``).
    """
    if engine is not None:
        from repro.api import ENGINE_SPECS
        from repro.errors import UnknownOptionError

        if engine not in ENGINE_SPECS:
            raise UnknownOptionError.for_option("engine", engine, ENGINE_SPECS)
    spec = get_benchmark(benchmark)
    design = spec.compile()
    stimulus = spec.stimulus(cycles=cycles or profile.cycles[benchmark], seed=profile.seed)
    population = generate_stuck_at_faults(design)
    sample = sample_faults(
        population, fault_count or profile.fault_samples[benchmark], seed=profile.seed
    )
    return ExperimentWorkload(
        name=benchmark,
        paper_name=spec.paper_name,
        design=design,
        stimulus=stimulus,
        faults=sample,
        total_fault_population=len(population),
        engine=engine or spec.default_engine,
    )


def prepare_workloads(
    benchmarks: Optional[Iterable[str]] = None,
    profile: WorkloadProfile = QUICK_PROFILE,
    engine: Optional[str] = None,
) -> List[ExperimentWorkload]:
    """Prepare workloads for several benchmarks (all of them by default)."""
    names = list(benchmarks) if benchmarks is not None else list(BENCHMARK_NAMES)
    return [prepare_workload(name, profile, engine=engine) for name in names]


#: The subset of circuits the paper uses in the ablation study (Fig. 7 /
#: Table III).
ABLATION_BENCHMARKS = [
    "alu",
    "fpu",
    "sha256_hv",
    "apb",
    "riscv_mini",
    "picorv32",
    "sha256_c2v",
]
