"""IFsim: the Icarus-Verilog + ``force`` style baseline.

The paper's slowest baseline injects each fault with the simulator's ``force``
command and re-runs the full event-driven simulation once per fault.  The
surrogate does exactly that on the event-driven kernel: one golden run plus
one full re-simulation per fault, with the stuck-at bit forced on every write
of the site signal.
"""

from __future__ import annotations

from repro.baselines.base import SerialFaultSimulator


class IFsimSimulator(SerialFaultSimulator):
    """Serial per-fault fault simulation on the event-driven kernel."""

    name = "IFsim"
    serial_engine = "event"
