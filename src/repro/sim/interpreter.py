"""Interpreter for behavioral node bodies.

Executing a behavioral node under some view produces a list of non-blocking
updates (:class:`NBAUpdate`) and, optionally, an execution *trace*: the arm
chosen at every ``if`` / ``case`` decision.  The trace is what ERASER's
implicit redundancy detection walks to compare the good execution path against
a faulty machine (Algorithm 1 of the paper).

Blocking assignments take effect immediately through an
:class:`~repro.sim.values.OverlayView`; non-blocking assignments are deferred
and applied by the calling kernel in the NBA region of the delta cycle.
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import SimulationError
from repro.ir.behavioral import BehavioralNode
from repro.ir.stmt import Assign, Case, If, Stmt
from repro.utils.bitvec import set_slice, truncate


class NBAUpdate:
    """One deferred (non-blocking) assignment produced by an execution.

    Exactly one of the following shapes:

    * whole signal:   ``msb is None`` and ``word_index is None``
    * part select:    ``msb``/``lsb`` set (bit indices relative to bit 0)
    * memory word:    ``word_index`` set

    The interpreter truncates ``value`` to the target's width, so a whole
    signal or memory word update is its final value as it stands.
    """

    __slots__ = ("signal", "value", "msb", "lsb", "word_index")

    def __init__(self, signal, value: int, msb=None, lsb=None, word_index=None) -> None:
        self.signal = signal
        self.value = value
        self.msb = msb
        self.lsb = lsb
        self.word_index = word_index

    def apply_to(self, old_value: int) -> int:
        """Apply this update on top of ``old_value`` of the (non-memory) signal."""
        if self.msb is None:
            return self.value & self.signal.mask
        return set_slice(old_value, self.msb, self.lsb, self.value)

    def __repr__(self) -> str:
        if self.word_index is not None:
            return f"NBAUpdate({self.signal.name}[{self.word_index}] <= {self.value})"
        if self.msb is not None:
            return f"NBAUpdate({self.signal.name}[{self.msb}:{self.lsb}] <= {self.value})"
        return f"NBAUpdate({self.signal.name} <= {self.value})"


class ExecutionResult:
    """The outcome of executing one behavioral node under one view."""

    __slots__ = ("updates", "trace", "blocking_writes")

    def __init__(
        self,
        updates: List[NBAUpdate],
        trace: Dict[int, int],
        blocking_writes: "OverlayView",
    ) -> None:
        self.updates = updates
        self.trace = trace
        self.blocking_writes = blocking_writes

    def combined_updates(self) -> List[NBAUpdate]:
        """All state changes of this execution as a flat update list.

        Blocking assignments update their targets immediately inside the
        execution (through the overlay); once the execution finishes, their
        final values must be published to the rest of the design exactly like
        non-blocking updates.  They are emitted first so that a non-blocking
        assignment to the same signal (rare but legal) wins.
        """
        combined: List[NBAUpdate] = []
        for signal, value in self.blocking_writes.values.items():
            combined.append(NBAUpdate(signal, value))
        for (signal, index), value in self.blocking_writes.words.items():
            combined.append(NBAUpdate(signal, value, word_index=index))
        combined.extend(self.updates)
        return combined


def execute_behavioral(node: BehavioralNode, view, want_trace: bool = False) -> ExecutionResult:
    """Execute ``node`` under ``view`` and collect its non-blocking updates.

    ``want_trace`` additionally records the arm taken at each decision
    statement, keyed by the statement ``uid``.
    """
    from repro.sim.values import OverlayView  # local import to avoid a cycle

    overlay = OverlayView(view)
    updates: List[NBAUpdate] = []
    trace: Dict[int, int] = {}
    _run(node.body, overlay, updates, trace if want_trace else None)
    return ExecutionResult(updates, trace, overlay)


def _run(body: List[Stmt], overlay, updates: List[NBAUpdate], trace) -> None:
    """Execute ``body`` in one loop over a stack of statement iterators.

    Dispatch is on the exact statement type.  Entering an arm pushes its
    iterator; an exhausted iterator is popped, and its parent resumes after
    the decision.  Whole-signal scalar assignments are masked and written
    inline; every other target goes through :func:`_assign_select`.
    """
    stack = [iter(body)]
    while stack:
        for stmt in stack[-1]:
            kind = type(stmt)
            if kind is Assign:
                lhs = stmt.lhs
                mask = lhs.whole_mask
                if mask is None:
                    _assign_select(stmt, overlay, updates)
                elif stmt.blocking:
                    overlay.values[lhs.signal] = stmt.rhs.eval(overlay) & mask
                else:
                    updates.append(NBAUpdate(lhs.signal, stmt.rhs.eval(overlay) & mask))
                continue
            if kind is If:
                arm = 0 if stmt.cond.eval(overlay) else 1
                arm_body = stmt.then_body if arm == 0 else stmt.else_body
            elif kind is Case:
                arm = stmt.select_arm(overlay)
                arm_body = stmt.arm_body(arm)
            else:  # pragma: no cover - the IR only produces the three kinds above
                raise SimulationError(f"cannot interpret statement {stmt!r}")
            if trace is not None:
                trace[stmt.uid] = arm
            if arm_body:
                stack.append(iter(arm_body))
                break
        else:
            stack.pop()


def _assign_select(stmt: Assign, overlay, updates: List[NBAUpdate]) -> None:
    """A part-select, dynamic-bit or memory-word assignment."""
    lhs = stmt.lhs
    signal = lhs.signal
    value = truncate(stmt.rhs.eval(overlay), lhs.width)
    if signal.is_memory:
        index = lhs.index.eval(overlay)
        if stmt.blocking:
            overlay.set_word(signal, index, value)
        else:
            updates.append(NBAUpdate(signal, value, word_index=index))
        return
    if lhs.msb is not None:
        msb, lsb = lhs.msb, lhs.lsb
    else:
        msb = lsb = lhs.index.eval(overlay) - signal.lsb
        if msb < 0 or msb >= signal.width:
            # out-of-range dynamic bit write: dropped (two-state semantics); a
            # non-blocking one publishes the pre-execution value
            if not stmt.blocking:
                updates.append(NBAUpdate(signal, overlay.base.get(signal)))
            return
    if stmt.blocking:
        overlay.set(signal, set_slice(overlay.get(signal), msb, lsb, value))
    else:
        updates.append(NBAUpdate(signal, value, msb=msb, lsb=lsb))
