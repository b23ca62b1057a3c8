"""Implicit redundancy detection — Algorithm 1 of the paper.

The checker owns one visibility dependency graph per behavioral node (built
lazily and cached) and answers, per activation and per fault: *would executing
this faulty behavioral code produce exactly the good result, even though some
of its inputs diverge?*  It does so by walking the good execution path recorded
by the interpreter and checking, at every path decision node, that the faulty
machine selects the same successor, and at every path dependency node, that no
signal the segment depends on is visible for the fault.  The path is walked
once per activation and every fault is checked against its flattened form
(see :mod:`repro.cfg.vdg`).
"""

from __future__ import annotations

from typing import Dict

from repro.cfg.vdg import VisibilityDependencyGraph, build_vdg
from repro.ir.behavioral import BehavioralNode
from repro.ir.design import Design


class ImplicitRedundancyChecker:
    """Per-design cache of VDGs plus the run-time redundancy query."""

    def __init__(self, design: Design) -> None:
        self.design = design
        self._vdgs: Dict[int, VisibilityDependencyGraph] = {}
        self.checks = 0
        self.hits = 0

    # ------------------------------------------------------------------ build
    def vdg_for(self, node: BehavioralNode) -> VisibilityDependencyGraph:
        """The (cached) visibility dependency graph of ``node``."""
        vdg = self._vdgs.get(node.bid)
        if vdg is None:
            vdg = build_vdg(node)
            self._vdgs[node.bid] = vdg
        return vdg

    def prebuild(self) -> None:
        """Build every VDG up front (normally done lazily on first activation)."""
        for node in self.design.behavioral_nodes:
            self.vdg_for(node)

    # ------------------------------------------------------------------ query
    def is_redundant(
        self,
        node: BehavioralNode,
        store,
        fault_id: int,
        trace: Dict[int, int],
        fault_view,
    ) -> bool:
        """Algorithm 1: is the faulty execution of ``node`` redundant?

        ``trace`` is the good execution's decision trace for the current
        activation; ``fault_view`` evaluates expressions under the faulty
        machine's pre-execution values.
        """
        self.checks += 1
        vdg = self.vdg_for(node)
        redundant = vdg.walk_is_redundant(store, fault_id, trace, fault_view)
        if redundant:
            self.hits += 1
        return redundant

    @property
    def hit_rate(self) -> float:
        """Fraction of implicit checks that found redundancy (%)."""
        if self.checks == 0:
            return 0.0
        return 100.0 * self.hits / self.checks

    def __repr__(self) -> str:
        return f"ImplicitRedundancyChecker(checks={self.checks}, hits={self.hits})"
