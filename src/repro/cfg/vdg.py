"""Visibility dependency graph (VDG) construction and path walking.

The VDG mirrors the CFG (Fig. 5(c) of the paper): every decision node keeps the
``Evaluate`` function of its branch (the condition / case-subject expression),
and every dependency (segment) node keeps the input signals the segment reads.
At run time, Algorithm 1 walks the VDG along the *good* execution path and
declares a faulty execution redundant iff

* at every path decision node the faulty machine selects the same successor as
  the good machine, and
* no signal read by a path dependency node on that path is *visible* (i.e.
  divergent) in the faulty machine.

Handling of blocking assignments
--------------------------------

A signal blocking-assigned earlier in the same body is read at its new value,
which the pre-execution state does not hold.  The VDG therefore pre-computes,
per node, a *transitive input support*: the read set expanded through the
blocking-assignment def-use chains of the body.  The block's *locals*
(:attr:`~repro.ir.behavioral.BehavioralNode.locals`, the reads every path
whole-signal blocking-assigns first) are then dropped from each support: a
local's stored value is the previous activation's and nothing reads it, while
the inputs it is computed from stay in the support through the expansion.
Decision nodes whose condition reads a blocking-assigned signal are marked
``local_dependent`` and are handled conservatively: if any signal of their
support diverges, the faulty execution is treated as non-redundant (it is
executed instead of being skipped).  This keeps the check sound while
preserving the exact ``Evaluate``-based path comparison of the paper in the
common case where conditions read ordinary signals.

One walk per activation
-----------------------

The good path is the same for every fault of an activation, so it is walked
once, memoized on the trace dict the good execution returned, and flattened
into the union of its segment and ``local_dependent`` decision supports plus
the remaining decisions with their good arms.  A fault is then redundant iff
it diverges on no support signal and every remaining decision whose reads it
diverges on still selects the good arm under the fault; a decision whose reads
it does not diverge on selects the good arm by construction.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.cfg.builder import CfgNode, ControlFlowGraph, build_cfg
from repro.errors import SimulationError
from repro.ir.behavioral import BehavioralNode
from repro.ir.signal import Signal, split_reads
from repro.ir.stmt import Assign, Case, If, Stmt, decision_signals


class VdgNode:
    """One vertex of the visibility dependency graph."""

    __slots__ = (
        "nid",
        "kind",
        "decision",
        "reads",
        "support",
        "local_dependent",
        "succs",
    )

    def __init__(self, nid: int, kind: str) -> None:
        self.nid = nid
        self.kind = kind
        self.decision: Optional[Stmt] = None
        self.reads: FrozenSet[Signal] = frozenset()
        self.support: FrozenSet[Signal] = frozenset()
        self.local_dependent = False
        self.succs: List["VdgNode"] = []

    @property
    def is_decision(self) -> bool:
        return self.kind == CfgNode.DECISION

    @property
    def is_segment(self) -> bool:
        return self.kind == CfgNode.SEGMENT

    def select_arm(self, view) -> int:
        """Evaluate the decision under ``view`` and return the chosen arm index."""
        stmt = self.decision
        if isinstance(stmt, If):
            return 0 if stmt.cond.eval(view) else 1
        if isinstance(stmt, Case):
            return stmt.select_arm(view)
        raise SimulationError(f"node {self.nid} is not a decision node")

    def __repr__(self) -> str:
        if self.is_decision:
            return f"VdgNode#{self.nid}(decision, support={len(self.support)})"
        if self.is_segment:
            return f"VdgNode#{self.nid}(dependency, reads={len(self.reads)})"
        return f"VdgNode#{self.nid}({self.kind})"


#: A flattened good path: support scalars, support memories and the decisions
#: left to evaluate (see :meth:`VisibilityDependencyGraph._flatten`).
GoodPath = Tuple[
    List[Signal], List[Signal], List[Tuple[VdgNode, int, List[Signal], List[Signal]]]
]


class VisibilityDependencyGraph:
    """The VDG of one behavioral node, ready for run-time redundancy walks."""

    def __init__(self, behavioral_node: BehavioralNode, cfg: ControlFlowGraph) -> None:
        self.behavioral_node = behavioral_node
        self.cfg = cfg
        self.nodes: List[VdgNode] = []
        self.entry: Optional[VdgNode] = None
        self.exit: Optional[VdgNode] = None
        self._blocking_support = _blocking_support_map(behavioral_node)
        self._build()
        # the last trace walked and its flattened good path (see _flatten)
        self._path_trace: Optional[Dict[int, int]] = None
        self._path: Optional[GoodPath] = None

    # ------------------------------------------------------------------ build
    def _build(self) -> None:
        mapping: Dict[int, VdgNode] = {}
        for cnode in self.cfg.nodes:
            vnode = VdgNode(cnode.nid, cnode.kind)
            if cnode.is_decision:
                vnode.decision = cnode.decision
                reads = frozenset(decision_signals(cnode.decision))
                vnode.reads = reads
                vnode.support = self._expand(reads)
                vnode.local_dependent = any(s in self._blocking_support for s in reads)
            elif cnode.is_segment:
                reads: Set[Signal] = set()
                for stmt in cnode.stmts:
                    reads.update(stmt.read_signals())
                vnode.reads = frozenset(reads)
                vnode.support = self._expand(vnode.reads)
            mapping[cnode.nid] = vnode
            self.nodes.append(vnode)
        for cnode in self.cfg.nodes:
            mapping[cnode.nid].succs = [mapping[s.nid] for s in cnode.succs]
        self.entry = mapping[self.cfg.entry.nid]
        self.exit = mapping[self.cfg.exit.nid]

    def _expand(self, reads: FrozenSet[Signal]) -> FrozenSet[Signal]:
        """Expand a read set through the body's blocking-assignment support.

        The block's locals are dropped after the expansion, which has already
        brought in the inputs they are computed from.
        """
        expanded: Set[Signal] = set(reads)
        for signal in reads:
            expanded.update(self._blocking_support.get(signal, ()))
        return frozenset(expanded) - self.behavioral_node.locals

    # ------------------------------------------------------------------- walk
    def _flatten(self, trace: Dict[int, int]) -> Optional[GoodPath]:
        """The good path ``trace`` takes, flattened for the per-fault check.

        Returns ``(scalars, memories, decisions)``: the union of the path's
        segment and ``local_dependent`` decision supports, split into scalars
        and memories, and one ``(node, good_arm, read_scalars, read_memories)``
        entry per other path decision, with the reads the support does not
        already hold (a decision left with none is dropped: a fault divergent
        on one of its reads already fails on the support).  ``None`` when a
        path decision is missing from the trace.
        """
        support: Set[Signal] = set()
        decisions = []
        node = self.entry.succs[0]
        while node is not self.exit:
            if node.is_decision:
                arm = trace.get(node.decision.uid)
                if arm is None:
                    return None
                if node.local_dependent:
                    support |= node.support
                else:
                    decisions.append((node, arm))
                node = node.succs[arm]
            else:
                support |= node.support
                node = node.succs[0]
        checks = []
        for decision, arm in decisions:
            read_scalars, read_memories = split_reads(decision.reads - support)
            if read_scalars or read_memories:
                checks.append((decision, arm, read_scalars, read_memories))
        return split_reads(support) + (checks,)

    def walk_is_redundant(self, store, fault_id: int, trace: Dict[int, int], fault_view) -> bool:
        """Algorithm 1: is the faulty execution redundant w.r.t. the traced good one?

        Parameters
        ----------
        store:
            The :class:`~repro.sim.values.ConcurrentValueStore` holding good
            values and per-fault divergences.
        fault_id:
            The faulty machine to check.
        trace:
            The good execution trace (decision uid -> arm index) recorded by
            the interpreter for this activation.  The flattened good path is
            memoized on this dict, so it must not change between calls.
        fault_view:
            The evaluation view of the faulty machine (pre-execution values).
        """
        if trace is not self._path_trace:
            # one walk per activation: every fault of it shares the trace dict
            self._path_trace = trace
            self._path = self._flatten(trace)
        path = self._path
        if path is None:
            # the good execution never reached a path decision (should not
            # happen for a recorded trace): be conservative
            return False
        scalars, memories, decisions = path
        div = store.div
        for signal in scalars:
            if fault_id in div[signal]:
                return False
        mem_div = store.mem_div
        for signal in memories:
            if mem_div[signal].get(fault_id):
                return False
        for node, good_arm, read_scalars, read_memories in decisions:
            for signal in read_scalars:
                if fault_id in div[signal]:
                    break
            else:
                for signal in read_memories:
                    if mem_div[signal].get(fault_id):
                        break
                else:
                    continue  # equal reads select the good arm
            if node.select_arm(fault_view) != good_arm:
                return False
        return True

    # ------------------------------------------------------------------ stats
    @property
    def decision_count(self) -> int:
        return sum(1 for node in self.nodes if node.is_decision)

    @property
    def dependency_count(self) -> int:
        return sum(1 for node in self.nodes if node.is_segment)


def _blocking_support_map(node: BehavioralNode) -> Dict[Signal, FrozenSet[Signal]]:
    """Transitive input support of every blocking-assigned signal in ``node``.

    For every signal that appears on the left-hand side of a blocking
    assignment anywhere in the body, compute the set of signals its value may
    depend on (the union of the read sets of all its blocking assignments,
    closed transitively through other blocking-assigned signals).
    """
    direct: Dict[Signal, Set[Signal]] = {}
    for top in node.body:
        for stmt in top.walk():
            if isinstance(stmt, Assign) and stmt.blocking:
                deps = direct.setdefault(stmt.lhs.signal, set())
                deps.update(stmt.rhs.signals())
                deps.update(stmt.lhs.read_signals())
    # transitive closure (bodies are small; simple iteration suffices)
    changed = True
    while changed:
        changed = False
        for target, deps in direct.items():
            additions: Set[Signal] = set()
            for dep in deps:
                if dep in direct and dep is not target:
                    additions |= direct[dep] - deps
            if additions:
                deps |= additions
                changed = True
    return {signal: frozenset(deps) for signal, deps in direct.items()}


def build_vdg(node: BehavioralNode) -> VisibilityDependencyGraph:
    """Build the visibility dependency graph of one behavioral node."""
    return VisibilityDependencyGraph(node, build_cfg(node))
