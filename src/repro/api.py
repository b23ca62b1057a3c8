"""High-level convenience API.

These helpers wire the front end, the elaborator and the simulators together
so the common flows are one-liners:

>>> design = compile_design(source, top="alu")
>>> faults = generate_stuck_at_faults(design)
>>> result = EraserSimulator(design).run(stimulus, faults)
"""

from __future__ import annotations

from typing import Callable, Dict, NamedTuple, Optional

from repro.errors import UnknownOptionError
from repro.fault.faultlist import FaultList, generate_stuck_at_faults  # re-export
from repro.hdl.elaborator import Elaborator
from repro.hdl.parser import parse_source
from repro.ir.design import Design
from repro.sim.codegen import CodegenEngine
from repro.sim.engine import EventDrivenEngine, ForceHook, SimulationTrace
from repro.sim.eraser_codegen import (  # re-export
    EraserCodegenEngine,
    EraserCodegenSimulator,
)
from repro.sim.kernel import CycleDriver  # re-export
from repro.sim.packed import PackedCodegenEngine, PackedCodegenSimulator  # re-export
from repro.sim.chaos import ChaosPlan, ChaosRule  # re-export
from repro.sim.parallel import (  # re-export
    CampaignConfig,
    CampaignProgress,
    WorkloadSpec,
    progress_printer,
    run_multiprocess,
)
from repro.sim.resilience import RetryPolicy  # re-export
from repro.sim.result_cache import ResultCache, stimulus_hash  # re-export
from repro.sim.stimulus import Stimulus

__all__ = [
    "CampaignConfig",
    "CampaignProgress",
    "ChaosPlan",
    "ChaosRule",
    "CycleDriver",
    "ENGINE_SPECS",
    "EngineSpec",
    "EraserCodegenEngine",
    "EraserCodegenSimulator",
    "FaultList",
    "PackedCodegenSimulator",
    "ResultCache",
    "RetryPolicy",
    "VectorCodegenEngine",
    "VectorFaultSimulator",
    "WorkloadSpec",
    "compile_design",
    "compile_file",
    "elaborate",
    "engine_help",
    "generate_stuck_at_faults",
    "load_benchmark",
    "make_engine",
    "progress_printer",
    "run_multiprocess",
    "simulate_good",
    "stimulus_hash",
]

#: Re-exports of :mod:`repro.sim.vector`, which imports NumPy: they resolve
#: on first access (:func:`__getattr__`), so ``import repro`` never loads it.
_VECTOR_EXPORTS = frozenset({"VectorCodegenEngine", "VectorFaultSimulator"})


def __getattr__(name: str):
    """Resolve the :mod:`repro.sim.vector` re-exports on first access (PEP 562)."""
    if name in _VECTOR_EXPORTS:
        from repro.sim import vector

        return getattr(vector, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class EngineSpec(NamedTuple):
    """One registry row: how to build an engine, and its one-line story.

    ``description`` is the single source of truth shown by the harness
    ``--engine`` help, quoted in the docs and carried in
    :class:`~repro.errors.UnknownOptionError` listings — one sentence per
    engine, so the CLI, docs and error messages cannot drift apart.
    """

    factory: Callable[..., object]
    description: str


def _auto_factory(design: Design, force_hook: Optional[ForceHook] = None, **kw):
    """Resolve ``engine="auto"`` to a concrete kernel for this design.

    A good-machine kernel is a single-machine run, so the policy is applied
    at ``fault_count=1``: a mostly-idle design keeps the event-driven
    interpreter, everything else gets serial codegen (see
    :func:`repro.sim.emitter.resolve_engine`).
    """
    from repro.sim.emitter import resolve_engine

    resolved = resolve_engine(design, fault_count=1)
    return ENGINE_SPECS[resolved].factory(design, force_hook=force_hook, **kw)


def _vector_factory(design: Design, force_hook: Optional[ForceHook] = None, **kw):
    """Build the NumPy lane-array kernel, importing :mod:`repro.sim.vector` now."""
    from repro.sim.vector import VectorCodegenEngine

    return VectorCodegenEngine(design, force_hook=force_hook, **kw)


#: The selectable good-machine simulation kernels, by short name.  All of them
#: implement the :class:`~repro.sim.kernel.SimulationKernel` protocol and
#: produce cycle-exact identical traces; they differ only in cost model (each
#: row's description tells the story).  The packed / packed-numpy /
#: eraser-codegen rows double as single-machine views of the campaign
#: substrates driven by :class:`~repro.sim.packed.PackedCodegenSimulator`,
#: :class:`~repro.sim.vector.VectorFaultSimulator` and
#: :class:`~repro.sim.eraser_codegen.EraserCodegenSimulator`.
ENGINE_SPECS: Dict[str, EngineSpec] = {
    "event": EngineSpec(
        EventDrivenEngine,
        "interpreted event-driven kernel; only re-evaluates changed fan-out",
    ),
    "codegen": EngineSpec(
        CodegenEngine,
        "design-specialized generated Python; fastest single-machine kernel",
    ),
    "packed": EngineSpec(
        PackedCodegenEngine,
        "bit-parallel PPSFP codegen over bigint lane words (good + W faulty)",
    ),
    "packed-numpy": EngineSpec(
        _vector_factory,
        "vectorized PPSFP codegen over NumPy lane arrays (needs the vector extra)",
    ),
    "eraser-codegen": EngineSpec(
        EraserCodegenEngine,
        "generated concurrent (Eraser) kernel; good values fused with divergences",
    ),
    "auto": EngineSpec(
        _auto_factory,
        "policy pick from fault count x design activity x stride "
        "(see repro.sim.emitter.choose_engine)",
    ),
}

#: Engine used when a caller does not ask for one explicitly.
DEFAULT_ENGINE = "event"


def engine_help() -> str:
    """One line per engine (from :data:`ENGINE_SPECS`), for CLI help text."""
    return "; ".join(
        f"{name}: {spec.description}" for name, spec in ENGINE_SPECS.items()
    )


def make_engine(
    design: Design,
    engine: str = DEFAULT_ENGINE,
    force_hook: Optional[ForceHook] = None,
):
    """Instantiate a good-machine simulation kernel by short name.

    ``engine`` is one of the :data:`ENGINE_SPECS` keys (``"event"``,
    ``"codegen"``, ``"packed"``, ``"packed-numpy"``, ``"eraser-codegen"`` or
    ``"auto"``).  The returned object implements the
    shared :class:`~repro.sim.kernel.SimulationKernel` protocol plus the
    ``run`` / ``peek`` conveniences common to all engines.
    """
    try:
        spec = ENGINE_SPECS[engine]
    except KeyError:
        raise UnknownOptionError.for_option("engine", engine, ENGINE_SPECS) from None
    return spec.factory(design, force_hook=force_hook)


def compile_design(source: str, top: str) -> Design:
    """Parse and elaborate Verilog ``source`` text with ``top`` as the root module."""
    unit = parse_source(source)
    design = Elaborator(unit).elaborate(top)
    design.origin = ("source", source, top)
    return design


def compile_file(path: str, top: str) -> Design:
    """Parse and elaborate the Verilog file at ``path``."""
    with open(path, "r", encoding="utf-8") as handle:
        return compile_design(handle.read(), top)


def elaborate(source: str, top: str) -> Design:
    """Alias of :func:`compile_design` (matches the paper's step-1 terminology)."""
    return compile_design(source, top)


def simulate_good(
    design: Design, stimulus: Stimulus, engine: str = DEFAULT_ENGINE
) -> SimulationTrace:
    """Run a fault-free simulation and return the per-cycle output trace.

    ``engine`` selects the kernel (any :data:`ENGINE_SPECS` key, e.g.
    ``"event"``, ``"codegen"`` or ``"packed"``); every kernel implements the
    :class:`~repro.sim.kernel.SimulationKernel` interface, is advanced by the
    shared :class:`CycleDriver` and produces an identical trace.
    """
    return make_engine(design, engine).run(stimulus)


def load_benchmark(name: str, cycles: Optional[int] = None, seed: int = 0):
    """Load one of the paper's benchmark designs plus its stimulus.

    Returns ``(design, stimulus)``.  See :mod:`repro.designs.registry` for the
    available names (``alu``, ``fpu``, ``sha256_hv``, ``apb``, ``sodor``,
    ``riscv_mini``, ``picorv32``, ``conv_acc``, ``sha256_c2v``, ``mips``).
    """
    from repro.designs.registry import load_benchmark as _load

    return _load(name, cycles=cycles, seed=seed)
