"""Behavioral statement IR: the bodies of ``always`` blocks.

The statement tree is what the paper calls "behavioral code".  It is both
*interpreted* by the simulation kernel (good and faulty executions) and
*analysed* by the CFG / visibility-dependency-graph builder that powers the
implicit redundancy detection of Algorithm 1.

Supported statements:

* blocking (``=``) and non-blocking (``<=``) assignments, with optional
  constant part-selects or dynamic indices on the left-hand side,
* ``if`` / ``else`` chains,
* ``case`` statements with constant or expression labels and a ``default``.

Every statement carries a ``uid`` (assigned when its behavioral node is
finalised) so that the execution tracer and the visibility dependency graph can
refer to the same decision points.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.ir.expr import Const, Expr
from repro.ir.signal import Signal


class LValue:
    """The target of an assignment.

    Exactly one of the following forms:

    * whole signal          — ``q <= expr``
    * constant part-select  — ``q[7:4] <= expr`` (``msb``/``lsb`` set)
    * dynamic index         — ``mem[addr] <= expr`` or ``q[i] <= expr``
      (``index`` set; a memory word write when the signal is a memory,
      a single-bit write otherwise)

    ``whole_mask`` is the signal's mask for a whole-signal write and ``None``
    for every other form: the interpreter's test for its fast path.
    """

    __slots__ = ("signal", "msb", "lsb", "index", "whole_mask")

    def __init__(
        self,
        signal: Signal,
        msb: Optional[int] = None,
        lsb: Optional[int] = None,
        index: Optional[Expr] = None,
    ) -> None:
        if index is not None and msb is not None:
            raise SimulationError("lvalue cannot have both a slice and an index")
        if (msb is None) != (lsb is None):
            raise SimulationError("lvalue slice needs both msb and lsb")
        if signal.is_memory and index is None:
            raise SimulationError(f"memory {signal.name!r} must be written per word")
        if msb is not None:
            msb -= signal.lsb
            lsb -= signal.lsb
            if msb < lsb or lsb < 0 or msb >= signal.width:
                raise SimulationError(
                    f"lvalue slice [{msb}:{lsb}] out of range for {signal.name}"
                )
        self.signal = signal
        self.msb = msb
        self.lsb = lsb
        self.index = index
        self.whole_mask = signal.mask if msb is None and index is None else None

    @property
    def is_partial(self) -> bool:
        """True when the assignment only updates part of the signal."""
        return self.msb is not None or (self.index is not None and not self.signal.is_memory)

    @property
    def width(self) -> int:
        if self.msb is not None:
            return self.msb - self.lsb + 1
        if self.index is not None and not self.signal.is_memory:
            return 1
        return self.signal.width

    def read_signals(self) -> Iterator[Signal]:
        """Signals read in order to *perform* the write (index expressions)."""
        if self.index is not None:
            yield from self.index.signals()

    def __repr__(self) -> str:
        if self.msb is not None:
            return f"LValue({self.signal.name}[{self.msb}:{self.lsb}])"
        if self.index is not None:
            return f"LValue({self.signal.name}[{self.index!r}])"
        return f"LValue({self.signal.name})"


class Stmt:
    """Base class of behavioral statements."""

    __slots__ = ("uid",)

    def __init__(self) -> None:
        self.uid = -1  # assigned by BehavioralNode.finalize

    def read_signals(self) -> Iterator[Signal]:
        """Signals read anywhere inside this statement (recursively)."""
        raise NotImplementedError

    def written_signals(self) -> Iterator[Signal]:
        """Signals written anywhere inside this statement (recursively)."""
        raise NotImplementedError

    def walk(self) -> Iterator["Stmt"]:
        """Yield this statement and every nested statement."""
        raise NotImplementedError


class Assign(Stmt):
    """A blocking or non-blocking assignment."""

    __slots__ = ("lhs", "rhs", "blocking")

    def __init__(self, lhs: LValue, rhs: Expr, blocking: bool = False) -> None:
        super().__init__()
        self.lhs = lhs
        self.rhs = rhs
        self.blocking = blocking

    def read_signals(self) -> Iterator[Signal]:
        yield from self.rhs.signals()
        yield from self.lhs.read_signals()
        if self.lhs.is_partial:
            # a partial write needs the previous value of the target
            yield self.lhs.signal

    def written_signals(self) -> Iterator[Signal]:
        yield self.lhs.signal

    def walk(self) -> Iterator[Stmt]:
        yield self

    def __repr__(self) -> str:
        op = "=" if self.blocking else "<="
        return f"Assign({self.lhs!r} {op} {self.rhs!r})"


class If(Stmt):
    """An ``if`` / ``else`` statement; either branch may be empty."""

    __slots__ = ("cond", "then_body", "else_body")

    def __init__(
        self,
        cond: Expr,
        then_body: Sequence[Stmt],
        else_body: Sequence[Stmt] = (),
    ) -> None:
        super().__init__()
        self.cond = cond
        self.then_body: List[Stmt] = list(then_body)
        self.else_body: List[Stmt] = list(else_body)

    def read_signals(self) -> Iterator[Signal]:
        yield from self.cond.signals()
        for stmt in self.then_body:
            yield from stmt.read_signals()
        for stmt in self.else_body:
            yield from stmt.read_signals()

    def written_signals(self) -> Iterator[Signal]:
        for stmt in self.then_body:
            yield from stmt.written_signals()
        for stmt in self.else_body:
            yield from stmt.written_signals()

    def walk(self) -> Iterator[Stmt]:
        yield self
        for stmt in self.then_body:
            yield from stmt.walk()
        for stmt in self.else_body:
            yield from stmt.walk()

    def __repr__(self) -> str:
        return f"If({self.cond!r}, then={len(self.then_body)}, else={len(self.else_body)})"


class CaseItem:
    """One arm of a ``case`` statement: a list of labels and a body."""

    __slots__ = ("labels", "body")

    def __init__(self, labels: Sequence[Expr], body: Sequence[Stmt]) -> None:
        self.labels: List[Expr] = list(labels)
        self.body: List[Stmt] = list(body)


class Case(Stmt):
    """A ``case`` statement with optional ``default`` arm.

    When every label is a :class:`~repro.ir.expr.Const`, ``const_arms`` maps
    each label value to the first arm that lists it, so :meth:`select_arm` is
    one dict lookup; otherwise it is ``None`` and the labels are scanned.
    """

    __slots__ = ("subject", "items", "default", "const_arms")

    def __init__(
        self,
        subject: Expr,
        items: Sequence[CaseItem],
        default: Sequence[Stmt] = (),
    ) -> None:
        super().__init__()
        self.subject = subject
        self.items: List[CaseItem] = list(items)
        self.default: List[Stmt] = list(default)
        self.const_arms: Optional[Dict[int, int]] = None
        if all(isinstance(label, Const) for item in self.items for label in item.labels):
            self.const_arms = {}
            for i, item in enumerate(self.items):
                for label in item.labels:
                    self.const_arms.setdefault(label.value, i)

    def arm_body(self, arm: int) -> List[Stmt]:
        """The body of arm ``arm`` (``len(items)`` = the default arm)."""
        return self.items[arm].body if arm < len(self.items) else self.default

    def select_arm(self, view) -> int:
        """Index of the arm taken under ``view`` (``len(items)`` = default)."""
        subject = self.subject.eval(view)
        if self.const_arms is not None:
            return self.const_arms.get(subject, len(self.items))
        for i, item in enumerate(self.items):
            for label in item.labels:
                if label.eval(view) == subject:
                    return i
        return len(self.items)

    def read_signals(self) -> Iterator[Signal]:
        yield from self.subject.signals()
        for item in self.items:
            for label in item.labels:
                yield from label.signals()
            for stmt in item.body:
                yield from stmt.read_signals()
        for stmt in self.default:
            yield from stmt.read_signals()

    def written_signals(self) -> Iterator[Signal]:
        for item in self.items:
            for stmt in item.body:
                yield from stmt.written_signals()
        for stmt in self.default:
            yield from stmt.written_signals()

    def walk(self) -> Iterator[Stmt]:
        yield self
        for item in self.items:
            for stmt in item.body:
                yield from stmt.walk()
        for stmt in self.default:
            yield from stmt.walk()

    def __repr__(self) -> str:
        return f"Case({self.subject!r}, arms={len(self.items)})"


def decision_signals(stmt: Stmt) -> Tuple[Signal, ...]:
    """Signals read by the *decision* of a branching statement.

    For an ``if`` this is the condition's read set; for a ``case`` it is the
    subject plus any non-constant labels.  Used by the visibility dependency
    graph to attach ``Evaluate`` inputs to path decision nodes.
    """
    if isinstance(stmt, If):
        return tuple(stmt.cond.signals())
    if isinstance(stmt, Case):
        sigs = list(stmt.subject.signals())
        for item in stmt.items:
            for label in item.labels:
                sigs.extend(label.signals())
        return tuple(sigs)
    raise SimulationError(f"{stmt!r} is not a decision statement")
