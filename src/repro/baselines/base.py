"""Common machinery for the serial (one-fault-at-a-time) baselines.

A serial fault simulator runs the good machine once to obtain the golden
output trace, then re-simulates the whole stimulus once per fault with the
fault's stuck-at value forced, comparing outputs cycle by cycle.  Early exit on
first detection (the serial equivalent of fault dropping) is supported and on
by default, as both real baselines stop a faulty run once the fault is
observed.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable, Optional

from repro.core.stats import SimulationStats
from repro.errors import SimulationError
from repro.fault.coverage import FaultCoverageReport
from repro.fault.detection import ObservationManager
from repro.fault.faultlist import FaultList
from repro.fault.model import StuckAtFault
from repro.fault.result import FaultSimResult
from repro.ir.design import Design
from repro.ir.signal import Signal
from repro.sim.stimulus import Stimulus

if TYPE_CHECKING:  # imported lazily at runtime to avoid a package import cycle
    from repro.sim.parallel import CampaignConfig


class SerialFaultSimulator:
    """Base class for the IFsim / VFsim surrogates.

    Each surrogate is defined by the kernel it re-runs per fault, named by
    :attr:`serial_engine` (IFsim = the interpreted event-driven kernel,
    VFsim = the generated serial kernel), but the kernel can be swapped with
    ``engine=`` — any :data:`repro.api.ENGINE_SPECS` name (``engine="packed"``
    runs the one-lane packed variant; to actually pack many faults per pass
    use :class:`~repro.sim.packed.PackedCodegenSimulator` instead of a serial
    baseline).  ``engine="auto"`` defers the pick to the documented policy in
    :func:`repro.sim.emitter.resolve_engine` — per-fault runs are
    single-machine, so it resolves between the interpreted event kernel
    (mostly-idle designs) and serial codegen.

    ``campaign`` distributes the per-fault loop: ``None`` (default) is the
    classic one-fault-at-a-time loop in this process; a
    :class:`~repro.sim.parallel.CampaignConfig` runs the same per-fault
    semantics through :func:`~repro.sim.parallel.run_multiprocess`, the
    kernel rebuilt in each worker from the design's compile provenance.
    Verdicts are the same either way.
    """

    #: Subclasses set the reported simulator name.
    name = "serial"

    #: The defining kernel as an ``ENGINE_SPECS`` name (``engine=`` overrides
    #: it).  A campaign rebuilds the simulator in worker processes from this
    #: name; the base class has no defining kernel, so it needs an explicit
    #: ``engine=``.
    serial_engine: Optional[str] = None

    def __init__(
        self,
        design: Design,
        early_exit: bool = True,
        engine: Optional[str] = None,
        campaign: Optional["CampaignConfig"] = None,
    ) -> None:
        design.check_finalized()
        self.design = design
        self.early_exit = early_exit
        self.engine = engine
        self.campaign = campaign
        self.stats = SimulationStats()

    # ------------------------------------------------------------- the kernel
    def _engine_name(self) -> str:
        """The ``ENGINE_SPECS`` name each machine runs on (``engine=`` first)."""
        engine = self.engine or self.serial_engine
        if engine is None:
            raise SimulationError(
                f"{self.name}: no defining kernel, so an explicit engine= is needed"
            )
        return engine

    def _make_engine(self, force_hook: Optional[Callable[[Signal, int], int]] = None):
        """Build the single-machine kernel from the shared engine registry."""
        from repro.api import make_engine

        return make_engine(self.design, self._engine_name(), force_hook=force_hook)

    # ------------------------------------------------------------------- runs
    def run(self, stimulus: Stimulus, faults: FaultList) -> FaultSimResult:
        """Fault-simulate every fault in ``faults`` (per-fault re-simulation).

        With a ``campaign`` config the loop runs as a campaign; the per-fault
        semantics (and therefore every verdict and detection cycle) are
        unchanged.
        """
        if self.campaign is not None:
            return self._run_campaign(stimulus, faults)
        stimulus.validate(self.design)
        start = time.perf_counter()
        golden = self._make_engine().run(stimulus)
        observation = ObservationManager(self.design, faults)
        for fault in faults:
            self._simulate_one_fault(stimulus, fault, golden, observation)
        wall = time.perf_counter() - start
        self.stats.time_total = wall
        self.stats.cycles = stimulus.num_cycles() * (len(faults) + 1)
        coverage = FaultCoverageReport.from_observation(
            self.design.name, faults, observation, simulator=self.name
        )
        return FaultSimResult(self.name, coverage, wall, self.stats)

    def _run_campaign(self, stimulus: Stimulus, faults: FaultList) -> FaultSimResult:
        """Run the per-fault loop through the campaign entry point.

        The workers rebuild the kernel by its registry name.
        """
        engine = self._engine_name()
        from repro.sim.parallel import run_multiprocess

        return run_multiprocess(
            self.design,
            stimulus,
            faults,
            self.campaign,
            runner=("serial", {"engine": engine, "early_exit": self.early_exit}),
            label=self.name,
        )

    def _simulate_one_fault(
        self,
        stimulus: Stimulus,
        fault: StuckAtFault,
        golden,
        observation: ObservationManager,
    ) -> None:
        def force_hook(signal: Signal, value: int) -> int:
            if signal is fault.signal:
                return fault.force(value)
            return value

        engine = self._make_engine(force_hook)
        if self.early_exit:
            detected_cycle = self._run_with_early_exit(engine, stimulus, golden)
            if detected_cycle is not None:
                observation.mark_detected(fault.fault_id, detected_cycle)
        else:
            faulty = engine.run(stimulus)
            observation.compare_traces(golden, faulty, fault.fault_id)

    def _run_with_early_exit(self, engine, stimulus: Stimulus, golden) -> Optional[int]:
        """Run a faulty machine cycle by cycle, stopping at first output mismatch.

        Every engine implements the shared
        :class:`~repro.sim.kernel.SimulationKernel` interface, so one
        :class:`~repro.sim.kernel.CycleDriver` drives any of them; the
        mismatch check rides along as the driver's observer.
        """
        from repro.sim.kernel import CycleDriver

        return CycleDriver(engine, stimulus).run(
            lambda cycle: engine.store.snapshot_outputs() != golden[cycle]
        )
