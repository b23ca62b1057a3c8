"""Behavioral nodes: the elaborated form of ``always`` blocks.

A behavioral node is the unit whose (redundant) executions ERASER trims.  It
records:

* its sensitivity (clock/reset edges, or level-sensitive ``@*``),
* its statement body,
* the sets of signals it reads and writes (used for activation, for explicit
  redundancy detection and for fault-site bookkeeping), with the reads also
  split once into scalars and memories, the two halves of the concurrent
  store that the per-fault explicit check tests,
* its *locals*: the reads no execution can see stale, because every path
  from the block's entry whole-signal blocking-assigns them first.  The
  implicit check (Algorithm 1) leaves them out of its supports; the explicit
  check still compares them.
"""

from __future__ import annotations

import enum
from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

from repro.errors import SimulationError
from repro.ir.signal import Signal, split_reads
from repro.ir.stmt import Assign, Case, If, Stmt, decision_signals


class EdgeKind(enum.Enum):
    """Kind of sensitivity-list entry."""

    POSEDGE = "posedge"
    NEGEDGE = "negedge"
    LEVEL = "level"


class Edge:
    """One entry of a sensitivity list: an edge kind applied to a signal."""

    __slots__ = ("kind", "signal")

    def __init__(self, kind: EdgeKind, signal: Signal) -> None:
        self.kind = kind
        self.signal = signal

    def triggered(self, old: int, new: int) -> bool:
        """Did a transition ``old -> new`` of the signal trigger this edge?"""
        if self.kind is EdgeKind.POSEDGE:
            return (old & 1) == 0 and (new & 1) == 1
        if self.kind is EdgeKind.NEGEDGE:
            return (old & 1) == 1 and (new & 1) == 0
        return old != new

    def __repr__(self) -> str:
        return f"Edge({self.kind.value} {self.signal.name})"


class BehavioralNode:
    """An elaborated ``always`` block.

    ``locals`` holds the signals the body reads only where a forward
    definite-assignment pass proves them written: every path from the entry
    to the read whole-signal blocking-assigns the signal first.  ``if`` and
    ``case`` arms merge by intersection, and a ``case`` without a default
    also merges with its fall-through path, which assigns nothing.  A
    part-select or bit write reads the target's old value and does not count
    as an assignment.  Memories and non-blocking targets are never locals.  A
    local's stored value is the previous activation's, and no statement reads
    it, so the implicit check can ignore its divergence; the explicit check,
    the prior art's input comparison, does not.
    """

    __slots__ = (
        "bid",
        "name",
        "edges",
        "body",
        "reads",
        "locals",
        "read_scalars",
        "read_memories",
        "writes",
        "is_clocked",
        "decisions",
        "statement_count",
    )

    def __init__(self, name: str, edges: Sequence[Edge], body: Sequence[Stmt]) -> None:
        self.bid = -1  # assigned by Design.add_behavioral_node
        self.name = name
        self.edges: List[Edge] = list(edges)
        self.body: List[Stmt] = list(body)
        self.is_clocked = any(e.kind is not EdgeKind.LEVEL for e in self.edges)
        if self.is_clocked and any(e.kind is EdgeKind.LEVEL for e in self.edges):
            raise SimulationError(
                f"behavioral node {name!r} mixes edge and level sensitivity"
            )
        self.reads: FrozenSet[Signal] = frozenset()
        self.locals: FrozenSet[Signal] = frozenset()
        self.read_scalars: List[Signal] = []
        self.read_memories: List[Signal] = []
        self.writes: FrozenSet[Signal] = frozenset()
        self.decisions: Dict[int, Stmt] = {}
        self.statement_count = 0
        self._finalize()

    def _finalize(self) -> None:
        """Assign statement uids and compute read/write sets and locals."""
        reads = set()
        writes = set()
        temporaries = set()
        nonblocking = set()
        uid = 0
        for top in self.body:
            for stmt in top.walk():
                stmt.uid = uid
                uid += 1
                if isinstance(stmt, (If, Case)):
                    self.decisions[stmt.uid] = stmt
                elif isinstance(stmt, Assign):
                    (temporaries if stmt.blocking else nonblocking).add(stmt.lhs.signal)
            reads.update(top.read_signals())
            writes.update(top.written_signals())
        self.statement_count = uid
        # Edge signals are read implicitly for activation but do not count as
        # data reads: a posedge clock does not carry data into the block.
        self.reads = frozenset(reads)
        self.writes = frozenset(writes)
        stale: Set[Signal] = set()
        _assigned_after(self.body, frozenset(), stale)
        self.locals = self.reads - stale - nonblocking
        # Blocking-assigned reads go first: every activation rewrites them, so
        # they carry a fault's effect on the last execution and are the reads
        # the explicit check most often finds divergent, which ends its scan.
        first = split_reads(self.reads & temporaries)
        rest = split_reads(self.reads - temporaries)
        self.read_scalars = first[0] + rest[0]
        self.read_memories = first[1] + rest[1]

    @property
    def sensitivity_signals(self) -> Tuple[Signal, ...]:
        """Signals appearing in the sensitivity list."""
        return tuple(edge.signal for edge in self.edges)

    def activation_signals(self) -> FrozenSet[Signal]:
        """Signals whose change can activate this node.

        Clocked nodes are activated by their edge signals; level-sensitive
        (``@*``) nodes are activated by any of their data reads.
        """
        if self.is_clocked:
            return frozenset(self.sensitivity_signals)
        return self.reads

    def __repr__(self) -> str:
        kind = "clocked" if self.is_clocked else "comb"
        return f"BehavioralNode({self.name}, {kind}, stmts={self.statement_count})"


def _assigned_after(
    body: Sequence[Stmt], assigned: FrozenSet[Signal], stale: Set[Signal]
) -> FrozenSet[Signal]:
    """Forward definite-assignment pass over ``body``.

    ``assigned`` holds the signals every path to the start of ``body``
    whole-signal blocking-assigns.  Each read of a signal outside that set
    is added to ``stale``.  Returns the set that holds after ``body``.
    """
    for stmt in body:
        if isinstance(stmt, Assign):
            stale.update(s for s in stmt.read_signals() if s not in assigned)
            if stmt.blocking and stmt.lhs.whole_mask is not None:
                assigned = assigned | {stmt.lhs.signal}
            continue
        stale.update(s for s in decision_signals(stmt) if s not in assigned)
        if isinstance(stmt, If):
            arms = (stmt.then_body, stmt.else_body)
        else:  # a case without a default falls through its empty default arm
            arms = [item.body for item in stmt.items] + [stmt.default]
        assigned = frozenset.intersection(
            *(_assigned_after(arm, assigned, stale) for arm in arms)
        )
    return assigned
