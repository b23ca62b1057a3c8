"""The shared cycle-driver kernel layer.

Every simulator in the package — the event-driven and generated good-machine
engines, the concurrent Eraser framework (all three modes) and the serial
baselines built on top of the engines — advances time with exactly the same
per-cycle protocol:

1. drive the clock low,
2. apply the stimulus input vector,
3. settle the design to a fixed point,
4. drive the clock high,
5. settle again,
6. strobe the observation points.

:class:`CycleDriver` owns that protocol once.  A simulation substrate only has
to implement the small :class:`SimulationKernel` interface (``apply_input``,
``settle``, ``observe`` plus one-time ``initialize``); how settling happens —
event scheduling, generated levelized passes, concurrent multi-fault
propagation — stays entirely inside the kernel.  Fault campaigns scale out one level up,
in :func:`repro.sim.parallel.run_multiprocess`, which runs these same
simulators over word-aligned fault chunks.
"""

from __future__ import annotations

from typing import Callable, Optional, Protocol, runtime_checkable

from repro.ir.design import Design
from repro.ir.signal import Signal
from repro.sim.stimulus import Stimulus

#: End-of-cycle callback: return a truthy value to stop the run early.
Observer = Callable[[int], Optional[bool]]

#: Safety bound on the settle passes of a generated kernel within one time
#: step (combinational passes, and clocked firings between them).
MAX_PASSES = 64


@runtime_checkable
class SimulationKernel(Protocol):
    """What a simulation substrate must expose to be driven by CycleDriver."""

    design: Design

    def initialize(self) -> None:
        """Settle the design once from the reset state (pre-stimulus)."""

    def apply_input(self, signal: Signal, value: int) -> None:
        """Drive one primary input (including the clock) to a value."""

    def settle(self) -> None:
        """Iterate evaluation until the design is stable at this time step."""

    def observe(self, cycle: int) -> Optional[bool]:
        """Strobe the observation points at the end of one stimulus cycle."""


class CycleDriver:
    """Owns the per-cycle clock/apply/settle/observe protocol for one run."""

    __slots__ = ("kernel", "stimulus", "clock")

    def __init__(self, kernel: SimulationKernel, stimulus: Stimulus) -> None:
        stimulus.validate(kernel.design)
        self.kernel = kernel
        self.stimulus = stimulus
        self.clock: Optional[Signal] = (
            kernel.design.signal(stimulus.clock) if stimulus.clock else None
        )

    def step(self, cycle: int) -> None:
        """Advance the kernel through one stimulus cycle (no observation)."""
        kernel = self.kernel
        clock = self.clock
        if clock is not None:
            kernel.apply_input(clock, 0)
        design = kernel.design
        for name, value in self.stimulus.vector(cycle).items():
            kernel.apply_input(design.signal(name), value)
        kernel.settle()
        if clock is not None:
            kernel.apply_input(clock, 1)
            kernel.settle()

    def run(self, observer: Optional[Observer] = None) -> Optional[int]:
        """Drive the whole stimulus through the kernel.

        ``observer`` is called after every cycle (default: the kernel's own
        ``observe``); a truthy return stops the run early.  Returns the cycle
        index the run stopped at, or ``None`` if the stimulus completed.
        """
        if observer is None:
            observer = self.kernel.observe
        self.kernel.initialize()
        for cycle in range(self.stimulus.num_cycles()):
            self.step(cycle)
            if observer(cycle):
                return cycle
        return None

