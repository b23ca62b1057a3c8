"""Simulation kernels and supporting machinery.

The selectable ("good simulation") kernels include:

* :class:`~repro.sim.engine.EventDrivenEngine` — an Icarus-Verilog-style
  event-driven kernel: only fan-out of changed signals is re-evaluated,
* :class:`~repro.sim.codegen.CodegenEngine` — a Verilator-style kernel: the
  design's levelized schedule compiled to design-specialized Python source
  (with a persistent on-disk compile cache), the fastest single-machine
  substrate,
* :class:`~repro.sim.packed.PackedCodegenEngine` — the bit-parallel (PPSFP)
  variant of the generated code: many machines packed into the bit-lanes of
  one Python integer per signal; :class:`~repro.sim.packed.PackedCodegenSimulator`
  builds whole-fault-word simulation on top of it.

All share the value representation and the stimulus abstraction
(:mod:`repro.sim.stimulus`); the event-driven kernel also interprets
behavioral blocks (:mod:`repro.sim.interpreter`) over the value stores
(:mod:`repro.sim.values`).  :data:`repro.api.ENGINE_SPECS` lists every
kernel by name.  No kernel owns the per-cycle protocol: each
implements the :class:`~repro.sim.kernel.SimulationKernel` interface and is
advanced by the shared :class:`~repro.sim.kernel.CycleDriver`, as is the
concurrent (batched) fault simulator built on top of this substrate in
:mod:`repro.core.framework`.
"""

from repro.sim.engine import EventDrivenEngine, SimulationTrace
from repro.sim.codegen import CodegenEngine, PackedLayout
from repro.sim.kernel import CycleDriver, SimulationKernel
from repro.sim.packed import PackedCodegenEngine, PackedCodegenSimulator
from repro.sim.parallel import CampaignConfig, WorkloadSpec, run_multiprocess
from repro.sim.stimulus import RandomStimulus, Stimulus, VectorStimulus
from repro.sim.values import ConcurrentValueStore, FaultView, GoodValueStore, GoodView

__all__ = [
    "CampaignConfig",
    "CodegenEngine",
    "ConcurrentValueStore",
    "CycleDriver",
    "EventDrivenEngine",
    "FaultView",
    "GoodValueStore",
    "GoodView",
    "PackedCodegenEngine",
    "PackedCodegenSimulator",
    "PackedLayout",
    "RandomStimulus",
    "SimulationKernel",
    "SimulationTrace",
    "Stimulus",
    "VectorStimulus",
    "WorkloadSpec",
    "run_multiprocess",
]
