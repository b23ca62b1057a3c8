"""Behavioral nodes: the elaborated form of ``always`` blocks.

A behavioral node is the unit whose (redundant) executions ERASER trims.  It
records:

* its sensitivity (clock/reset edges, or level-sensitive ``@*``),
* its statement body,
* the sets of signals it reads and writes (used for activation, for explicit
  redundancy detection and for fault-site bookkeeping), with the reads also
  split once into scalars and memories, the two halves of the concurrent
  store that the per-fault explicit check tests.
"""

from __future__ import annotations

import enum
from typing import Dict, FrozenSet, List, Sequence, Tuple

from repro.errors import SimulationError
from repro.ir.signal import Signal, split_reads
from repro.ir.stmt import Assign, Case, If, Stmt


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
    """An elaborated ``always`` block."""

    __slots__ = (
        "bid",
        "name",
        "edges",
        "body",
        "reads",
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
        self.read_scalars: List[Signal] = []
        self.read_memories: List[Signal] = []
        self.writes: FrozenSet[Signal] = frozenset()
        self.decisions: Dict[int, Stmt] = {}
        self.statement_count = 0
        self._finalize()

    def _finalize(self) -> None:
        """Assign statement uids and compute read/write sets."""
        reads = set()
        writes = set()
        temporaries = set()
        uid = 0
        for top in self.body:
            for stmt in top.walk():
                stmt.uid = uid
                uid += 1
                if isinstance(stmt, (If, Case)):
                    self.decisions[stmt.uid] = stmt
                elif isinstance(stmt, Assign) and stmt.blocking:
                    temporaries.add(stmt.lhs.signal)
            reads.update(top.read_signals())
            writes.update(top.written_signals())
        self.statement_count = uid
        # Edge signals are read implicitly for activation but do not count as
        # data reads: a posedge clock does not carry data into the block.
        self.reads = frozenset(reads)
        self.writes = frozenset(writes)
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
