"""Registry of the benchmark designs (Table II of the paper).

Every entry binds a Verilog source file, its top module, a stimulus builder
and default workload parameters under the short name the harness and the
examples use.  ``load_benchmark`` compiles and elaborates the design and
instantiates its stimulus in one call.
"""

from __future__ import annotations

import importlib.resources
from typing import Callable, Dict, Optional, Tuple

from repro.designs.stimuli import (
    build_alu_stimulus,
    build_apb_stimulus,
    build_conv_stimulus,
    build_fpu_stimulus,
    build_mips_stimulus,
    build_picorv32_stimulus,
    build_riscv_mini_stimulus,
    build_sha256_stimulus,
    build_sodor_stimulus,
)
from repro.errors import HarnessError
from repro.ir.design import Design
from repro.sim.stimulus import Stimulus


class BenchmarkSpec:
    """Static description of one benchmark design."""

    __slots__ = (
        "name",
        "paper_name",
        "source_file",
        "top",
        "stimulus_builder",
        "default_cycles",
        "description",
        "default_engine",
    )

    def __init__(
        self,
        name: str,
        paper_name: str,
        source_file: str,
        top: str,
        stimulus_builder: Callable[..., Stimulus],
        default_cycles: int,
        description: str,
        default_engine: str = "codegen",
    ) -> None:
        self.name = name
        self.paper_name = paper_name
        self.source_file = source_file
        self.top = top
        self.stimulus_builder = stimulus_builder
        self.default_cycles = default_cycles
        self.description = description
        # preferred good-machine kernel for this benchmark (harness default);
        # any engine produces the identical trace, this is purely a cost pick
        self.default_engine = default_engine

    # ------------------------------------------------------------------ build
    def read_source(self) -> str:
        """Read the Verilog source text from the package data."""
        package = importlib.resources.files("repro.designs") / "verilog" / self.source_file
        return package.read_text(encoding="utf-8")

    def compile(self) -> Design:
        """Parse and elaborate the benchmark design."""
        from repro.api import compile_design

        design = compile_design(self.read_source(), top=self.top)
        # registry provenance beats raw source: it pickles as one short name
        # and process-pool workers re-open it straight from the package data
        design.origin = ("benchmark", self.name)
        return design

    def stimulus(self, cycles: Optional[int] = None, seed: int = 0) -> Stimulus:
        """Build the benchmark's stimulus (``cycles=None`` uses the default)."""
        return self.stimulus_builder(cycles or self.default_cycles, seed)

    def make_engine(self, design: Design, engine: Optional[str] = None):
        """Instantiate a simulation kernel for this benchmark.

        ``engine=None`` uses the spec's :attr:`default_engine`; any of the
        names in :data:`repro.api.ENGINE_SPECS` may be passed to override it.
        """
        from repro.api import make_engine

        return make_engine(design, engine or self.default_engine)

    def __repr__(self) -> str:
        return f"BenchmarkSpec({self.name}, top={self.top})"


_REGISTRY: Dict[str, BenchmarkSpec] = {}


def _register(spec: BenchmarkSpec) -> None:
    _REGISTRY[spec.name] = spec


_register(BenchmarkSpec(
    name="alu",
    paper_name="ALU (64)",
    source_file="alu64.v",
    top="alu64",
    stimulus_builder=build_alu_stimulus,
    default_cycles=200,
    description="64-bit arithmetic/logic unit with registered outputs",
))
_register(BenchmarkSpec(
    name="fpu",
    paper_name="FPU (32)",
    source_file="fpu32.v",
    top="fpu32",
    stimulus_builder=build_fpu_stimulus,
    default_cycles=200,
    description="simplified IEEE-754 single-precision add/sub/mul unit",
))
_register(BenchmarkSpec(
    name="sha256_hv",
    paper_name="SHA256_HV",
    source_file="sha256_hv.v",
    top="sha256_hv",
    stimulus_builder=build_sha256_stimulus,
    default_cycles=300,
    description="hand-written behavioral SHA-256 round engine",
))
_register(BenchmarkSpec(
    name="apb",
    paper_name="APB",
    source_file="apb_regs.v",
    top="apb_regs",
    stimulus_builder=build_apb_stimulus,
    default_cycles=200,
    description="APB slave register bank with interrupt/status logic",
))
_register(BenchmarkSpec(
    name="sodor",
    paper_name="Sodor Core",
    source_file="sodor_core.v",
    top="sodor_core",
    stimulus_builder=build_sodor_stimulus,
    default_cycles=300,
    description="single-cycle RV32I-subset core (Sodor 1-stage style)",
))
_register(BenchmarkSpec(
    name="riscv_mini",
    paper_name="RISCV Mini",
    source_file="riscv_mini.v",
    top="riscv_mini",
    stimulus_builder=build_riscv_mini_stimulus,
    default_cycles=400,
    description="two-state RV32I-subset core (riscv-mini style)",
))
_register(BenchmarkSpec(
    name="picorv32",
    paper_name="PicoRV32",
    source_file="picorv32_lite.v",
    top="picorv32_lite",
    stimulus_builder=build_picorv32_stimulus,
    default_cycles=500,
    description="multi-cycle RV32I-subset core (PicoRV32 style)",
))
_register(BenchmarkSpec(
    name="conv_acc",
    paper_name="Convacc",
    source_file="conv_acc.v",
    top="conv_acc",
    stimulus_builder=build_conv_stimulus,
    default_cycles=300,
    description="streaming 3x3 convolution accelerator with MAC PEs",
))
_register(BenchmarkSpec(
    name="sha256_c2v",
    paper_name="SHA256_C2V",
    source_file="sha256_c2v.v",
    top="sha256_c2v",
    stimulus_builder=build_sha256_stimulus,
    default_cycles=300,
    description="generator-style (RTL-node dominated) SHA-256 round engine",
))
_register(BenchmarkSpec(
    name="mips",
    paper_name="MIPS CPU",
    source_file="mips_cpu.v",
    top="mips_cpu",
    stimulus_builder=build_mips_stimulus,
    default_cycles=300,
    description="single-cycle MIPS-I subset core",
))

#: Benchmark names in the order Table II lists them.
BENCHMARK_NAMES = [
    "alu",
    "fpu",
    "sha256_hv",
    "apb",
    "sodor",
    "riscv_mini",
    "picorv32",
    "conv_acc",
    "sha256_c2v",
    "mips",
]


def get_benchmark(name: str) -> BenchmarkSpec:
    """Look a benchmark up by short name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise HarnessError(
            f"unknown benchmark {name!r}; available: {sorted(_REGISTRY)}"
        ) from None


def load_benchmark(
    name: str, cycles: Optional[int] = None, seed: int = 0
) -> Tuple[Design, Stimulus]:
    """Compile a benchmark design and build its stimulus."""
    spec = get_benchmark(name)
    return spec.compile(), spec.stimulus(cycles=cycles, seed=seed)
