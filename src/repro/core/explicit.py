"""Explicit redundancy detection (the prior-art input comparison).

A faulty behavioral execution is *explicitly* redundant when the faulty
machine's inputs to the behavioral node are identical to the good machine's
inputs — in the concurrent representation, when the fault has no visible
divergence on any signal the node reads.  Existing multi-level concurrent
fault simulators eliminate exactly this class of redundancy; ERASER reproduces
it and adds implicit detection on top.
"""

from __future__ import annotations

from repro.ir.behavioral import BehavioralNode


def is_explicitly_redundant(store, node: BehavioralNode, fault_id: int) -> bool:
    """True when ``fault_id`` has no divergence on any signal read by ``node``.

    A scalar diverges when the fault has an entry in its divergence dict, a
    memory when the fault holds a non-empty word overlay.
    """
    div = store.div
    for signal in node.read_scalars:
        if fault_id in div[signal]:
            return False
    mem_div = store.mem_div
    for signal in node.read_memories:
        if mem_div[signal].get(fault_id):
            return False
    return True


def divergent_read_signals(store, node: BehavioralNode, fault_id: int):
    """The node's read signals on which the fault is currently visible."""
    return [signal for signal in node.reads if store.diverges(signal, fault_id)]
