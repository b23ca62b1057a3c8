"""Baseline fault simulators the paper compares against.

None of the actual tools (Icarus Verilog + ``force``, the Verilator-based
VFsim, the commercial Z01X) can be used here, so each baseline is implemented
as a surrogate with the same *algorithmic character* on the shared Python
substrate — see DESIGN.md for the substitution rationale:

* :class:`~repro.baselines.ifsim.IFsimSimulator` — serial per-fault
  re-simulation on the event-driven kernel (Icarus + force style),
* :class:`~repro.baselines.vfsim.VFsimSimulator` — serial per-fault
  re-simulation on the generated serial kernel (Verilator style),
* :class:`~repro.baselines.z01x.Z01XSurrogateSimulator` — concurrent batched
  fault simulation with explicit (input-comparison) redundancy elimination and
  fault dropping, the optimization class the paper attributes to commercial
  concurrent simulators.
"""

from repro.baselines.base import SerialFaultSimulator
from repro.baselines.ifsim import IFsimSimulator
from repro.baselines.vfsim import VFsimSimulator
from repro.baselines.z01x import Z01XSurrogateSimulator

__all__ = [
    "IFsimSimulator",
    "SerialFaultSimulator",
    "VFsimSimulator",
    "Z01XSurrogateSimulator",
]
