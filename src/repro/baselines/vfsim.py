"""VFsim: the Verilator-based baseline.

The open-source fault simulator the paper calls VFsim extends Verilator: a
compiled, two-state, cycle-based simulator that is fast per simulation but
still simulates one fault at a time and performs no cross-fault redundancy
elimination.  The surrogate therefore re-runs one full simulation per fault
on the generated serial kernel (:class:`~repro.sim.codegen.CodegenEngine`),
the design's levelized schedule specialized into Python source.
"""

from __future__ import annotations

from repro.baselines.base import SerialFaultSimulator


class VFsimSimulator(SerialFaultSimulator):
    """Serial per-fault fault simulation on the generated serial kernel."""

    name = "VFsim"
    serial_engine = "codegen"
