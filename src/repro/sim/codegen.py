"""Code-generating simulation kernel: specialize the design into Python source.

The interpreted :class:`~repro.sim.engine.EventDrivenEngine` *walks IR node
objects* through the Python interpreter every cycle: each RTL node is a tree
of ``Expr`` objects whose ``eval`` recursion re-dispatches on node type, and
every signal value is a ``GoodValueStore`` dict lookup.  Verilator-class
simulators win by emitting straight-line native code from the design's static
levelized schedule; this module reproduces the jump in pure Python.

:func:`generate_source` walks the elaborated design once and emits specialized
Python source:

* ``comb_pass``     — one flat function performing a single levelized pass over
  every RTL node plus every level-sensitive behavioral node, with every
  expression compiled to an inline Python expression over a flat value list
  ``V`` (indexed by signal id) instead of per-node ``eval`` recursion —
  or, for feed-forward designs, ``comb_once`` in its place: the same pass
  without change tracking, since one pass is the fixed point;
* ``_bn<i>``        — one flat function per behavioral (``always``) block,
  blocking assignments lowered to plain local variables and non-blocking
  updates collected into a flat tuple list;
* ``fire_clocked``  — edge detection and the NBA region over the clocked
  blocks.

The source is ``compile()``/``exec``-ed into a namespace and driven by
:class:`CodegenEngine`, which implements the same
:class:`~repro.sim.kernel.SimulationKernel` protocol as the other engines, so
the shared :class:`~repro.sim.kernel.CycleDriver` and the serial baselines can
select it interchangeably.  Traces are cycle-exact against the event-driven
engine (the test-suite sweeps all ten corpus benchmarks).  It is the kernel
the VFsim baseline re-runs per fault.

Fault forcing
-------------
Serial fault injection passes a ``force_hook`` exactly like the other engines.
Instead of calling the hook on every write, the hook is probed once per signal
(``hook(s, 0)`` / ``hook(s, s.mask)``) to derive per-signal OR/AND forcing
masks, and every generated write carries a cheap branch-on-mask guard::

    if FA: _x = (_x | FO[i]) & FN[i]

so the fault-free fast path costs one predictable branch and faulty simulation
two mask operations.  The hook contract is therefore *per-bit constant
forcing* (``hook(v) == (v | set_bits) & ~clear_bits``), which is exactly what
:class:`~repro.fault.model.StuckAtFault` forcing is.

Packed (PPSFP) emission mode
----------------------------
:func:`generate_packed_source` emits a *bit-parallel* variant of the same
kernel: every signal's value is one Python integer holding ``W`` lanes of
``S`` bits each (a :class:`PackedLayout`), lane 0 being the good machine and
lanes 1..W-1 faulty machines.  Lane-local operators (bitwise logic, add/sub,
constant shifts, slices, concats, equality and unsigned comparison via
carry-save SWAR tricks) are emitted as plain integer ops over the packed
words, so one evaluation advances all W machines at once.  The few serial
operators (multiply, divide, variable shifts, memory addressing) go through
runtime helpers; the ones the corpus emits give every lane whose operands
match lane 0's the good machine's result, so only the lanes that diverge
run a per-lane body (see ``docs/internals-packing.md``).  Control flow is
fully predicated: ``if``/``case`` bodies execute under a per-lane predicate
mask and every write is a mask blend, which is what lets faulty lanes diverge
down different branches.  Fault forcing stays the branch-on-mask guard of the
serial mode, with the OR/AND masks carrying per-lane force bits.  The driving
engine lives in :mod:`repro.sim.packed`.

Compile cache
-------------
Generated source is cached on disk keyed by a content hash of the elaborated
design (signals, schedule, expressions, behavioral bodies), so repeated
constructions — across processes and across the per-fault engine instances of
the serial baselines — skip the generation walk.  Packed sources are cached
under a distinct key carrying the lane geometry.  Alongside each source a
``marshal`` bytecode sidecar is kept so later constructions also skip
``compile()``; a corrupt or stale sidecar silently falls back to compiling the
cached source (and a corrupt source to full regeneration).  The default
location is ``~/.cache/repro-codegen``; override it with the
``REPRO_CODEGEN_CACHE`` environment variable, or pass ``use_cache=False`` to
bypass the disk entirely.
"""

from __future__ import annotations

import hashlib
import marshal
import os
import re
import sys
import tempfile
from types import CodeType
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.errors import ConvergenceError, SimulationError
from repro.ir.behavioral import BehavioralNode, EdgeKind
from repro.ir.design import Design
from repro.ir.expr import (
    Binary,
    Concat,
    Const,
    Expr,
    Index,
    Repl,
    SigRef,
    Slice,
    Ternary,
    Unary,
)
from repro.ir.rtlnode import RtlNode
from repro.ir.signal import Signal
from repro.ir.stmt import Assign, Case, If, LValue, Stmt
from repro.sim.emitter import (
    EmitterPasses,
    SourceWriter,
    coerce_passes,
    edge_signals,
    emit_kernel,
    rtl_acyclic,
    rtl_schedule,
    scheduler_slot_count,
)
from repro.sim.engine import ForceHook, TracedRun
from repro.sim.kernel import MAX_PASSES
from repro.utils.bitvec import mask

#: Historical names for the pieces that now live in the shared emitter core
#: (:mod:`repro.sim.emitter`); kept importable from here for older callers.
_Writer = SourceWriter
_rtl_schedule = rtl_schedule
_rtl_acyclic = rtl_acyclic

#: Bump whenever the generated-source format changes: the version participates
#: in the cache key, so stale cache entries are never reused.
#: v2: pass-based emitter core — the serial kernel gained the compiled event
#: scheduler and the ``comb_once`` single-pass settle, and every kernel takes
#: the uniform trailing ``VER, LS, GC`` scheduler-state parameters.
#: v3: a kernel ships ``comb_once`` (feed-forward designs) *or* ``comb_pass``,
#: never both.
CODEGEN_VERSION = 3

#: Separate version for the packed (PPSFP) source format: packed cache keys
#: carry it, so the serial cache survives packed-emitter changes and vice versa.
#: v2: event scheduler + uniform ``VER, LS, GC`` kernel ABI.
#: v3: lane-0 sharing in the per-lane runtime helpers (``_mrd``, ``_pshl``,
#: ``_pshr``, ``_pmul`` and the gathered write in ``_publish``).
#: v4: ``comb_once`` *or* ``comb_pass``, never both.
PACKED_VERSION = 4

#: Version of the vector (NumPy) source format (see :func:`generate_vector_source`).
#: Participates in the ``vec{N}`` cache suffix AND in the CI cache key, so a
#: vector-emitter change invalidates exactly the vector entries.
#: v2: uniform ``VER, LS, GC`` kernel ABI (unread at the time).
#: v3: the event scheduler: every RTL node and level-sensitive block sits
#: behind the ``VER``/``LS`` change guard, commits stamp ``VER`` (``_publish``
#: takes ``VER, GC``), and a kernel ships ``comb_once`` *or* ``comb_pass``.
VECTOR_VERSION = 3

#: Environment variable overriding the on-disk cache directory.
CACHE_ENV_VAR = "REPRO_CODEGEN_CACHE"


# ----------------------------------------------------------- design fingerprint
def _expr_key(expr: Expr) -> str:
    """A canonical, content-complete serialization of an expression tree."""
    if isinstance(expr, Const):
        return f"C{expr.value}:{expr.width}"
    if isinstance(expr, SigRef):
        return f"S{expr.signal.sid}"
    if isinstance(expr, Slice):
        return f"SL{expr.signal.sid}:{expr.msb}:{expr.lsb}"
    if isinstance(expr, Index):
        return f"IX{expr.signal.sid}:{_expr_key(expr.index)}"
    if isinstance(expr, Binary):
        return f"B{expr.op}({_expr_key(expr.left)},{_expr_key(expr.right)})"
    if isinstance(expr, Unary):
        return f"U{expr.op}({_expr_key(expr.operand)})"
    if isinstance(expr, Ternary):
        return (
            f"T({_expr_key(expr.cond)},{_expr_key(expr.then)},{_expr_key(expr.other)})"
        )
    if isinstance(expr, Concat):
        return "CC(" + ",".join(_expr_key(p) for p in expr.parts) + ")"
    if isinstance(expr, Repl):
        return f"R{expr.count}({_expr_key(expr.part)})"
    raise SimulationError(f"cannot fingerprint expression {expr!r}")


def _lvalue_key(lhs: LValue) -> str:
    if lhs.index is not None:
        return f"L{lhs.signal.sid}[{_expr_key(lhs.index)}]"
    if lhs.msb is not None:
        return f"L{lhs.signal.sid}[{lhs.msb}:{lhs.lsb}]"
    return f"L{lhs.signal.sid}"


def _stmt_key(stmt: Stmt) -> str:
    if isinstance(stmt, Assign):
        op = "=" if stmt.blocking else "<="
        return f"A({_lvalue_key(stmt.lhs)}{op}{_expr_key(stmt.rhs)})"
    if isinstance(stmt, If):
        then = ";".join(_stmt_key(s) for s in stmt.then_body)
        other = ";".join(_stmt_key(s) for s in stmt.else_body)
        return f"IF({_expr_key(stmt.cond)})[{then}][{other}]"
    if isinstance(stmt, Case):
        arms = []
        for item in stmt.items:
            labels = ",".join(_expr_key(label) for label in item.labels)
            body = ";".join(_stmt_key(s) for s in item.body)
            arms.append(f"({labels})[{body}]")
        default = ";".join(_stmt_key(s) for s in stmt.default)
        return f"CS({_expr_key(stmt.subject)}){''.join(arms)}[{default}]"
    raise SimulationError(f"cannot fingerprint statement {stmt!r}")


def design_fingerprint(design: Design) -> str:
    """Content hash of everything the generated kernel depends on.

    Memoized on the design (the serial baselines construct one engine per
    fault, and the fingerprint walk is pure constructor overhead); the memo is
    cleared by ``Design.finalize``, so re-elaboration can never serve a stale
    hash.
    """
    design.check_finalized()
    cached = design.content_memo.get("codegen_fingerprint")
    if cached is not None:
        return cached  # type: ignore[return-value]
    parts = [f"codegen-v{CODEGEN_VERSION}"]
    for signal in design.signals:
        parts.append(
            f"s{signal.sid}:{signal.name}:{signal.width}:{signal.kind.value}"
            f":{signal.depth}:{signal.lsb}"
        )
    for node in _rtl_schedule(design):
        parts.append(
            f"r{node.nid}:{node.output.sid}:{design.rtl_levels[node]}"
            f":{_expr_key(node.expr)}"
        )
    for bnode in design.behavioral_nodes:
        edges = ",".join(f"{e.kind.value}:{e.signal.sid}" for e in bnode.edges)
        body = ";".join(_stmt_key(s) for s in bnode.body)
        parts.append(f"b{bnode.bid}:[{edges}]:{body}")
    parts.append("out:" + ",".join(str(s.sid) for s in design.outputs))
    digest = hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()
    design.content_memo["codegen_fingerprint"] = digest
    return digest


# --------------------------------------------------------------- shared orders
# ------------------------------------------------------------- packed layout
class PackedLayout:
    """Lane geometry of a packed (PPSFP) kernel: ``lanes`` fields of ``stride`` bits.

    Lane 0 is the good machine; lanes 1..lanes-1 hold faulty machines.  The
    stride leaves at least one guard bit above the widest value in the design,
    which is what makes lane-parallel add/sub/compare emission carry-safe.
    """

    __slots__ = ("lanes", "stride", "lane_ones")

    def __init__(self, lanes: int, stride: int) -> None:
        if lanes < 1:
            raise SimulationError(f"packed layout needs at least one lane, got {lanes}")
        if stride < 2:
            raise SimulationError(f"packed stride must be at least 2, got {stride}")
        self.lanes = lanes
        self.stride = stride
        #: One bit set at the base of every lane (the ``_R1`` constant).
        self.lane_ones = ((1 << self.total_bits) - 1) // ((1 << stride) - 1)

    @property
    def total_bits(self) -> int:
        return self.lanes * self.stride

    def replicate(self, value: int) -> int:
        """``value`` copied into every lane (``value`` must fit in a lane)."""
        return value * self.lane_ones

    def lane_value(self, word: int, lane: int) -> int:
        """Extract one lane's field from a packed word."""
        return (word >> (lane * self.stride)) & ((1 << self.stride) - 1)

    @property
    def key(self) -> str:
        """Cache-key suffix distinguishing packed sources from serial ones."""
        return f"p{PACKED_VERSION}-{self.lanes}x{self.stride}"

    def __repr__(self) -> str:
        return f"PackedLayout(lanes={self.lanes}, stride={self.stride})"


def _expr_children(expr: Expr) -> Tuple[Expr, ...]:
    if isinstance(expr, Binary):
        return (expr.left, expr.right)
    if isinstance(expr, Unary):
        return (expr.operand,)
    if isinstance(expr, Ternary):
        return (expr.cond, expr.then, expr.other)
    if isinstance(expr, Concat):
        return tuple(expr.parts)
    if isinstance(expr, Repl):
        return (expr.part,)
    if isinstance(expr, Index):
        return (expr.index,)
    return ()


def _max_expr_width(expr: Expr) -> int:
    widest = expr.width
    for child in _expr_children(expr):
        widest = max(widest, _max_expr_width(child))
    return widest


def packed_stride(design: Design) -> int:
    """Bits per lane: the widest signal or intermediate expression, plus a guard bit.

    Every value flowing through the generated kernel is truncated to its
    expression width, so one guard bit above the widest width makes lane
    fields carry-safe for the SWAR add/sub/compare emissions.  Memoized on the
    design like :func:`design_fingerprint` (one engine is built per fault
    word).
    """
    cached = design.content_memo.get("packed_stride")
    if cached is not None:
        return cached  # type: ignore[return-value]
    widest = max(signal.width for signal in design.signals)
    for node in design.rtl_nodes:
        widest = max(widest, _max_expr_width(node.expr))
    for bnode in design.behavioral_nodes:
        for top in bnode.body:
            for stmt in top.walk():
                if isinstance(stmt, Assign):
                    widest = max(widest, _max_expr_width(stmt.rhs))
                    if stmt.lhs.index is not None:
                        widest = max(widest, _max_expr_width(stmt.lhs.index))
                elif isinstance(stmt, If):
                    widest = max(widest, _max_expr_width(stmt.cond))
                elif isinstance(stmt, Case):
                    widest = max(widest, _max_expr_width(stmt.subject))
                    for item in stmt.items:
                        for label in item.labels:
                            widest = max(widest, _max_expr_width(label))
    design.content_memo["packed_stride"] = widest + 1
    return widest + 1


def packed_layout(design: Design, lanes: int) -> PackedLayout:
    """The canonical layout for ``lanes`` machines on ``design``."""
    return PackedLayout(lanes, packed_stride(design))


class _ReadContext:
    """Resolves signal reads: blocking-written signals live in locals."""

    def __init__(
        self,
        blocking_scalars: FrozenSet[Signal] = frozenset(),
        blocking_mems: FrozenSet[Signal] = frozenset(),
    ) -> None:
        self.blocking_scalars = blocking_scalars
        self.blocking_mems = blocking_mems

    def scalar(self, signal: Signal) -> str:
        if signal in self.blocking_scalars:
            return f"b{signal.sid}"
        return f"V[{signal.sid}]"

    def base_value(self, signal: Signal) -> str:
        """The signal's committed (pre-overlay) value, as the base view sees it."""
        return f"V[{signal.sid}]"

    def word(self, signal: Signal, idx: str) -> str:
        base = f"(M[{signal.sid}][{idx}] if {idx} < {signal.depth} else 0)"
        if signal in self.blocking_mems:
            return f"w{signal.sid}.get({idx}, {base})"
        return base


# ------------------------------------------------------- expression compilation
def _emit_expr(expr: Expr, ctx: _ReadContext, w: _Writer) -> str:
    """Compile ``expr`` to a Python expression string (preludes go through ``w``).

    The emitted code reproduces :meth:`Expr.eval` exactly, relying on the
    evaluator's invariant that every sub-expression value is already truncated
    to its declared width.  Preludes (temps for reused operands) are pure and
    total, so hoisting them out of conditional operands is safe.
    """
    if isinstance(expr, Const):
        return repr(expr.value)
    if isinstance(expr, SigRef):
        return ctx.scalar(expr.signal)
    if isinstance(expr, Slice):
        base = ctx.scalar(expr.signal)
        m = mask(expr.width)
        if expr.lsb:
            return f"(({base} >> {expr.lsb}) & {m})"
        return f"({base} & {m})"
    if isinstance(expr, Index):
        idx = w.as_temp(_emit_expr(expr.index, ctx, w))
        signal = expr.signal
        if signal.is_memory:
            return f"({ctx.word(signal, idx)})"
        if signal.lsb:
            t = w.temp()
            w.line(f"{t} = {idx} - {signal.lsb}")
            return (
                f"((({ctx.scalar(signal)} >> {t}) & 1)"
                f" if 0 <= {t} < {signal.width} else 0)"
            )
        return (
            f"((({ctx.scalar(signal)} >> {idx}) & 1)"
            f" if {idx} < {signal.width} else 0)"
        )
    if isinstance(expr, Binary):
        return _emit_binary(expr, ctx, w)
    if isinstance(expr, Unary):
        return _emit_unary(expr, ctx, w)
    if isinstance(expr, Ternary):
        cond = _emit_expr(expr.cond, ctx, w)
        then = _emit_expr(expr.then, ctx, w)
        other = _emit_expr(expr.other, ctx, w)
        return f"({then} if {cond} else {other})"
    if isinstance(expr, Concat):
        shift = expr.width
        parts = []
        for part in expr.parts:
            shift -= part.width
            code = _emit_expr(part, ctx, w)
            parts.append(f"({code} << {shift})" if shift else code)
        return "(" + " | ".join(parts) + ")"
    if isinstance(expr, Repl):
        part = _emit_expr(expr.part, ctx, w)
        repl = sum(1 << (k * expr.part.width) for k in range(expr.count))
        return f"(({part}) * {repl})"
    raise SimulationError(f"cannot compile expression {expr!r}")


def _emit_binary(expr: Binary, ctx: _ReadContext, w: _Writer) -> str:
    op = expr.op
    m = mask(expr.width)
    lhs = _emit_expr(expr.left, ctx, w)
    rhs = _emit_expr(expr.right, ctx, w)
    if op == "+":
        return f"(({lhs} + {rhs}) & {m})"
    if op == "-":
        return f"(({lhs} - {rhs}) & {m})"
    if op == "*":
        return f"(({lhs} * {rhs}) & {m})"
    if op == "/":
        b = w.as_temp(rhs)
        return f"((({lhs} // {b}) & {m}) if {b} else {m})"
    if op == "%":
        b = w.as_temp(rhs)
        return f"((({lhs} % {b}) & {m}) if {b} else 0)"
    if op == "&":
        return f"({lhs} & {rhs})"
    if op == "|":
        return f"({lhs} | {rhs})"
    if op == "^":
        return f"({lhs} ^ {rhs})"
    if op == "~^":
        return f"((({lhs} ^ {rhs})) ^ {m})"
    if op in ("==", "==="):
        return f"(1 if {lhs} == {rhs} else 0)"
    if op in ("!=", "!=="):
        return f"(1 if {lhs} != {rhs} else 0)"
    if op == "<":
        return f"(1 if {lhs} < {rhs} else 0)"
    if op == "<=":
        return f"(1 if {lhs} <= {rhs} else 0)"
    if op == ">":
        return f"(1 if {lhs} > {rhs} else 0)"
    if op == ">=":
        return f"(1 if {lhs} >= {rhs} else 0)"
    if op == "&&":
        return f"(1 if {lhs} and {rhs} else 0)"
    if op == "||":
        return f"(1 if {lhs} or {rhs} else 0)"
    if op == "<<":
        b = w.as_temp(rhs)
        return f"((({lhs} << {b}) & {m}) if {b} < {expr.width} else 0)"
    if op == ">>":
        b = w.as_temp(rhs)
        return f"(({lhs} >> {b}) if {b} < {expr.width} else 0)"
    if op == ">>>":
        a = w.as_temp(lhs)
        b = w.as_temp(rhs)
        left_width = expr.left.width
        sign_bit = 1 << (left_width - 1)
        return (
            f"(((({a} - {1 << left_width}) if {a} & {sign_bit} else {a})"
            f" >> ({b} if {b} < {expr.width} else {expr.width})) & {m})"
        )
    raise SimulationError(f"cannot compile binary operator {op!r}")


def _emit_unary(expr: Unary, ctx: _ReadContext, w: _Writer) -> str:
    op = expr.op
    m = mask(expr.width)
    operand_mask = mask(expr.operand.width)
    x = _emit_expr(expr.operand, ctx, w)
    if op == "~":
        return f"({x} ^ {m})"
    if op == "-":
        return f"((-{x}) & {m})"
    if op == "+":
        return x
    if op == "!":
        return f"(0 if {x} else 1)"
    if op == "&":
        return f"(1 if {x} == {operand_mask} else 0)"
    if op == "~&":
        return f"(0 if {x} == {operand_mask} else 1)"
    if op == "|":
        return f"(1 if {x} else 0)"
    if op == "~|":
        return f"(0 if {x} else 1)"
    if op == "^":
        return f'(bin({x}).count("1") & 1)'
    if op == "~^":
        return f'((bin({x}).count("1") & 1) ^ 1)'
    raise SimulationError(f"cannot compile unary operator {op!r}")


# -------------------------------------------------------- statement compilation
def _emit_body(body: List[Stmt], ctx: _ReadContext, w: _Writer) -> None:
    if not body:
        w.line("pass")
        return
    for stmt in body:
        _emit_stmt(stmt, ctx, w)


def _emit_stmt(stmt: Stmt, ctx: _ReadContext, w: _Writer) -> None:
    if isinstance(stmt, Assign):
        _emit_assign(stmt, ctx, w)
        return
    if isinstance(stmt, If):
        cond = _emit_expr(stmt.cond, ctx, w)
        w.line(f"if {cond}:")
        w.indent()
        _emit_body(stmt.then_body, ctx, w)
        w.dedent()
        if stmt.else_body:
            w.line("else:")
            w.indent()
            _emit_body(stmt.else_body, ctx, w)
            w.dedent()
        return
    if isinstance(stmt, Case):
        subject = w.as_temp(_emit_expr(stmt.subject, ctx, w))
        conditions = []
        for item in stmt.items:
            labels = [_emit_expr(label, ctx, w) for label in item.labels]
            conditions.append(" or ".join(f"{subject} == {lab}" for lab in labels))
        for i, item in enumerate(stmt.items):
            w.line(f"{'if' if i == 0 else 'elif'} {conditions[i]}:")
            w.indent()
            _emit_body(item.body, ctx, w)
            w.dedent()
        if stmt.items:
            if stmt.default:
                w.line("else:")
                w.indent()
                _emit_body(stmt.default, ctx, w)
                w.dedent()
        else:
            _emit_body(stmt.default, ctx, w)
        return
    raise SimulationError(f"cannot compile statement {stmt!r}")


def _emit_assign(stmt: Assign, ctx: _ReadContext, w: _Writer) -> None:
    lhs = stmt.lhs
    signal = lhs.signal
    sid = signal.sid
    rhs = _emit_expr(stmt.rhs, ctx, w)
    value_mask = mask(lhs.width)
    if stmt.blocking:
        if signal.is_memory:
            idx = w.as_temp(_emit_expr(lhs.index, ctx, w))
            w.line(f"if 0 <= {idx} < {signal.depth}:")
            w.line(f"    w{sid}[{idx}] = ({rhs}) & {value_mask}")
        elif lhs.msb is not None:
            keep = signal.mask & ~(value_mask << lhs.lsb)
            insert = f"((({rhs}) & {value_mask}) << {lhs.lsb})"
            w.line(f"b{sid} = (b{sid} & {keep}) | {insert}")
        elif lhs.index is not None:
            bit = _emit_dynamic_bit(lhs, ctx, w)
            value = w.as_temp(f"({rhs}) & 1")
            w.line(f"if {_bit_guard(bit, signal)}:")
            w.line(f"    b{sid} = (b{sid} & ~(1 << {bit})) | ({value} << {bit})")
        else:
            w.line(f"b{sid} = ({rhs}) & {signal.mask}")
        return
    # non-blocking: append (sid, msb, lsb, word_index, value) update tuples
    if signal.is_memory:
        value = w.as_temp(f"({rhs}) & {value_mask}")
        idx = w.as_temp(_emit_expr(lhs.index, ctx, w))
        w.line(f"n.append(({sid}, None, None, {idx}, {value}))")
    elif lhs.msb is not None:
        w.line(f"n.append(({sid}, {lhs.msb}, {lhs.lsb}, None, ({rhs}) & {value_mask}))")
    elif lhs.index is not None:
        value = w.as_temp(f"({rhs}) & 1")
        bit = _emit_dynamic_bit(lhs, ctx, w)
        w.line(f"if {_bit_guard(bit, signal)}:")
        w.line(f"    n.append(({sid}, {bit}, {bit}, None, {value}))")
        w.line("else:")
        # out-of-range dynamic bit write publishes the *base* current value
        w.line(f"    n.append(({sid}, None, None, None, {ctx.base_value(signal)}))")
    else:
        w.line(f"n.append(({sid}, None, None, None, ({rhs}) & {value_mask}))")


def _emit_dynamic_bit(lhs: LValue, ctx: _ReadContext, w: _Writer) -> str:
    idx = _emit_expr(lhs.index, ctx, w)
    if lhs.signal.lsb:
        idx = f"{w.as_temp(idx)} - {lhs.signal.lsb}"
    return w.as_temp(idx)


def _bit_guard(bit: str, signal: Signal) -> str:
    if signal.lsb:
        return f"0 <= {bit} < {signal.width}"
    return f"{bit} < {signal.width}"


# ------------------------------------------------------------ node compilation
def _blocking_targets(node: BehavioralNode) -> Tuple[Set[Signal], Set[Signal]]:
    scalars: Set[Signal] = set()
    memories: Set[Signal] = set()
    for top in node.body:
        for stmt in top.walk():
            if isinstance(stmt, Assign) and stmt.blocking:
                if stmt.lhs.signal.is_memory:
                    memories.add(stmt.lhs.signal)
                else:
                    scalars.add(stmt.lhs.signal)
    return scalars, memories


def _emit_behavioral_fn(node: BehavioralNode, w: _Writer) -> str:
    """One flat function per behavioral block.

    Executes the block body and appends its combined updates to ``upd``:
    final values of blocking-written signals first (published exactly like the
    interpreter's overlay), then the non-blocking updates in execution order.
    """
    name = f"_bn{node.bid}"
    scalars, memories = _blocking_targets(node)
    ctx = _ReadContext(frozenset(scalars), frozenset(memories))
    w.line(f"def {name}(V, M, FA, FO, FN, upd):")
    w.indent()
    for signal in sorted(scalars, key=lambda s: s.sid):
        w.line(f"b{signal.sid} = V[{signal.sid}]")
    for signal in sorted(memories, key=lambda s: s.sid):
        w.line(f"w{signal.sid} = {{}}")
    w.line("n = []")
    _emit_body(node.body, ctx, w)
    for signal in sorted(scalars, key=lambda s: s.sid):
        w.line(f"upd.append(({signal.sid}, None, None, None, b{signal.sid}))")
    for signal in sorted(memories, key=lambda s: s.sid):
        w.line(f"for _k, _v in w{signal.sid}.items():")
        w.line(f"    upd.append(({signal.sid}, None, None, _k, _v))")
    w.line("upd.extend(n)")
    w.dedent()
    w.blank()
    return name


# ------------------------------------------------------------ source assembly
class _SerialBackend:
    """Scalar lane layout for the shared emitter walk (one machine per value).

    Values are plain Python ints, control flow is branchy (no predication) and
    constants are literals (the ``const_pool`` pass is inert).  Commits stamp
    per-signal versions for the ``event_scheduler`` pass through the
    generated ``_publish`` and the inline RTL commit lines.
    """

    comb_params = "V, M, FA, FO, FN, VER, LS, GC"

    def __init__(self, design: Design) -> None:
        self.design = design

    def read_context(self) -> _ReadContext:
        return _ReadContext()

    def behavioral_fn(self, node: BehavioralNode, w: _Writer) -> str:
        return _emit_behavioral_fn(node, w)

    def rtl_node(
        self,
        node: RtlNode,
        ctx: _ReadContext,
        w: _Writer,
        track_change: bool = True,
        stamp: bool = False,
    ) -> None:
        sid = node.output.sid
        code = _emit_expr(node.expr, ctx, w)
        w.line(f"_x = ({code}) & {node.output.mask}")
        w.line(f"if FA: _x = (_x | FO[{sid}]) & FN[{sid}]")
        if stamp:
            # scheduler commits keep their compare even in comb_once mode:
            # it feeds the version stamps
            w.line(f"if V[{sid}] != _x:")
            w.line(
                f"    V[{sid}] = _x; GC[0] = VER[{sid}] = GC[0] + 1"
                + ("; ch = True" if track_change else "")
            )
        elif track_change:
            w.line(f"if V[{sid}] != _x: V[{sid}] = _x; ch = True")
        else:
            w.line(f"V[{sid}] = _x")

    def comb_block_call(self, node: BehavioralNode, fn_name: str, w: _Writer) -> None:
        w.line("upd = []")
        w.line(f"{fn_name}(V, M, FA, FO, FN, upd)")
        w.line("if _publish(upd, V, M, FA, FO, FN, VER, GC): ch = True")

    def fire_clocked(self, fn_names: Dict[int, str], w: _Writer) -> None:
        design = self.design
        clocked_nodes = [n for n in design.behavioral_nodes if n.is_clocked]
        ep_index = {signal: i for i, signal in enumerate(edge_signals(design))}
        w.line("def fire_clocked(V, M, EP, FA, FO, FN, VER, GC):")
        w.indent()
        if not clocked_nodes:
            w.line("return False")
        else:
            act_names = []
            for node in clocked_nodes:
                terms = []
                for edge in node.edges:
                    ep = f"EP[{ep_index[edge.signal]}]"
                    cur = f"V[{edge.signal.sid}]"
                    if edge.kind is EdgeKind.POSEDGE:
                        terms.append(f"(({ep} & 1) == 0 and ({cur} & 1) == 1)")
                    else:
                        terms.append(f"(({ep} & 1) == 1 and ({cur} & 1) == 0)")
                act = f"_a{node.bid}"
                act_names.append(act)
                w.line(f"{act} = {' or '.join(terms)}")
            for signal, i in ep_index.items():
                w.line(f"EP[{i}] = V[{signal.sid}]")
            w.line(f"if not ({' or '.join(act_names)}):")
            w.line("    return False")
            w.line("upd = []")
            for node in clocked_nodes:
                w.line(f"if _a{node.bid}: {fn_names[node.bid]}(V, M, FA, FO, FN, upd)")
            w.line("_publish(upd, V, M, FA, FO, FN, VER, GC)")
            w.line("return True")
        w.dedent()
        w.blank()

    def assemble(self, body: str) -> str:
        design = self.design
        w = _Writer()
        w.line(f"# repro codegen kernel v{CODEGEN_VERSION}")
        w.line(f"# design: {design.name}")
        w.line(f"# signals={len(design.signals)} rtl={len(design.rtl_nodes)}"
               f" behavioral={len(design.behavioral_nodes)}")
        w.blank()

        # shared publisher: applies (sid, msb, lsb, word_index, value) tuples
        # with change detection, the branch-on-mask forcing guard and the
        # scheduler version stamps (unread — but kept exact — when the
        # event_scheduler pass is off)
        w.line("def _publish(upd, V, M, FA, FO, FN, VER, GC):")
        w.indent()
        w.line("ch = False")
        w.line("for i, a, b, wi, val in upd:")
        w.indent()
        w.line("if wi is not None:")
        w.line("    mem = M[i]")
        w.line("    if 0 <= wi < len(mem):")
        w.line("        if mem[wi] != val:")
        w.line("            mem[wi] = val; GC[0] = VER[i] = GC[0] + 1; ch = True")
        w.line("    continue")
        w.line("old = V[i]")
        w.line("if a is not None:")
        w.line("    val = (old & ~(((1 << (a - b + 1)) - 1) << b)) | (val << b)")
        w.line("if FA: val = (val | FO[i]) & FN[i]")
        w.line("if old != val:")
        w.line("    V[i] = val; GC[0] = VER[i] = GC[0] + 1; ch = True")
        w.dedent()
        w.line("return ch")
        w.dedent()
        w.blank()
        return w.source() + body


def generate_source(design: Design, passes: Optional[EmitterPasses] = None) -> str:
    """Emit the specialized simulation module for ``design``.

    ``passes`` selects the emitter-pass configuration (default: all passes
    on; see :mod:`repro.sim.emitter`).
    """
    return emit_kernel(design, _SerialBackend(design), passes)


# ----------------------------------------------------- packed (PPSFP) emission
#
# The packed emitter mirrors the serial one statement-for-statement, but every
# value is a W-lane packed word and every write is a predicate-mask blend.
# Emission invariants:
#
# * every emitted value has each lane truncated to the expression's width
#   (lane fields never overlap, and each leaves >= 1 guard bit free);
# * predicates are packed words with one bit at the base of each active lane;
# * all emitted expressions are pure, so hoisted temps stay safe.

#: Static runtime helpers shared by every packed kernel (appended verbatim
#: after the per-design constants).  ``_W``/``_S`` and friends are module-level
#: constants of the generated module.
_PACKED_RUNTIME = '''\
def _repl(v):
    return v * _R1


def _nz(x):
    # per-lane "value != 0" -> one bit at each lane base (lanes < 2**_SP)
    return ((x + _NZC) >> _SP) & _R1


def _eqz(x):
    return ((((x + _NZC) >> _SP) & _R1) ^ _R1)


def _lanes(rest):
    # bit offsets of the lanes flagged in rest (one bit at a lane base),
    # top-down.  If the top eight flags are adjacent the word is taken as
    # dense and every lane below is listed, flagged or not: walking lanes
    # costs less than finding bits, and a per-lane body gives a lane that
    # shares lane 0's result that same result again
    offs = []
    while rest:
        off = rest.bit_length() - 1
        rest ^= 1 << off
        offs.append(off)
        if len(offs) == 8 and offs[0] - off == 7 * _S:
            offs.extend(range(off - _S, -1, -_S))
            break
    return offs


def _mrd(mem, ovl, ix):
    # packed memory read: the lanes at lane 0's address share its word, and
    # only the lanes whose address diverges gather their own
    i0 = ix & _SM
    x0 = i0 * _R1
    r = 0
    if i0 < len(mem):
        r = ovl.get(i0, mem[i0]) if ovl is not None else mem[i0]
    if ix == x0:
        return r
    rest = _nz(ix ^ x0)
    same = rest ^ _R1
    r &= (same << _S) - same
    for off in _lanes(rest):
        a = (ix >> off) & _SM
        if a < len(mem):
            wv = ovl.get(a, mem[a]) if ovl is not None else mem[a]
            r |= wv & (_SM << off)
    return r


def _mwr(mem, ovl, ix, v, wbits, p):
    # predicated packed memory write into a blocking overlay
    i0 = ix & _SM
    if ix == i0 * _R1:
        if i0 < len(mem):
            pm = (p << wbits) - p
            old = ovl.get(i0, mem[i0])
            ovl[i0] = (old & (pm ^ _F)) | (v & pm)
        return
    off = 0
    for _ in range(_W):
        if (p >> off) & 1:
            a = (ix >> off) & _SM
            if a < len(mem):
                lm = ((1 << wbits) - 1) << off
                old = ovl.get(a, mem[a])
                ovl[a] = (old & ~lm) | (v & lm)
        off += _S


def _bidx(x, ix, width, lsb):
    # per-lane dynamic bit read x[ix], out-of-range lanes read 0
    i0 = (ix & _SM) - lsb
    if ix == (ix & _SM) * _R1:
        if 0 <= i0 < width:
            return (x >> i0) & _R1
        return 0
    r = 0
    off = 0
    for _ in range(_W):
        a = ((ix >> off) & _SM) - lsb
        if 0 <= a < width:
            r |= ((x >> (off + a)) & 1) << off
        off += _S
    return r


def _bset(x, ix, v, width, lsb, p):
    # predicated dynamic bit write; out-of-range lanes are left untouched
    i0 = (ix & _SM) - lsb
    if ix == (ix & _SM) * _R1:
        if 0 <= i0 < width:
            m = p << i0
            return (x & (m ^ _F)) | ((v << i0) & m)
        return x
    off = 0
    for _ in range(_W):
        if (p >> off) & 1:
            a = ((ix >> off) & _SM) - lsb
            if 0 <= a < width:
                b = off + a
                x = (x & ~(1 << b)) | (((v >> off) & 1) << b)
        off += _S
    return x


def _bnba(ix, v, width, lsb, p):
    # non-blocking dynamic bit write -> (write mask, value in place)
    i0 = (ix & _SM) - lsb
    if ix == (ix & _SM) * _R1:
        if 0 <= i0 < width:
            m = p << i0
            return m, (v << i0) & m
        return 0, 0
    wm = 0
    vip = 0
    off = 0
    for _ in range(_W):
        if (p >> off) & 1:
            a = ((ix >> off) & _SM) - lsb
            if 0 <= a < width:
                b = off + a
                wm |= 1 << b
                vip |= ((v >> off) & 1) << b
        off += _S
    return wm, vip


def _pmul(a, b, m):
    # lanes whose operands both equal lane 0's share its product
    a0 = a & _SM
    b0 = b & _SM
    rest = _nz((a ^ a0 * _R1) | (b ^ b0 * _R1))
    r = ((a0 * b0) & m) * (rest ^ _R1)
    for off in _lanes(rest):
        r |= ((((a >> off) & _SM) * ((b >> off) & _SM)) & m) << off
    return r


def _pdiv(a, b, m):
    r = 0
    off = 0
    for _ in range(_W):
        y = (b >> off) & _SM
        r |= (((((a >> off) & _SM) // y) & m) if y else m) << off
        off += _S
    return r


def _pmod(a, b, m):
    r = 0
    off = 0
    for _ in range(_W):
        y = (b >> off) & _SM
        if y:
            r |= ((((a >> off) & _SM) % y) & m) << off
        off += _S
    return r


def _pshl(a, b, w, m):
    # lanes shifting by lane 0's amount share one whole-word shift
    s0 = b & _SM
    rest = _nz(b ^ s0 * _R1)
    r = (a & ((m >> s0) * (rest ^ _R1))) << s0 if s0 < w else 0
    for off in _lanes(rest):
        s = (b >> off) & _SM
        if s < w:
            r |= ((((a >> off) & _SM) << s) & m) << off
    return r


def _pshr(a, b, w):
    # lanes shifting by lane 0's amount share one whole-word shift
    s0 = b & _SM
    rest = _nz(b ^ s0 * _R1)
    r = (a >> s0) & ((_SM >> s0) * (rest ^ _R1)) if s0 < w else 0
    for off in _lanes(rest):
        s = (b >> off) & _SM
        if s < w:
            r |= (((a >> off) & _SM) >> s) << off
    return r


def _psra(a, b, w, m):
    r = 0
    off = 0
    sb = 1 << (w - 1)
    for _ in range(_W):
        x = (a >> off) & _SM
        s = (b >> off) & _SM
        if s > w:
            s = w
        if x & sb:
            x -= 1 << w
        r |= ((x >> s) & m) << off
        off += _S
    return r


def _publish(upd, V, M, FB, FO, FN, VER, GC):
    # apply (sid, write_mask, word_index, value_in_place) updates with
    # per-lane blending, change detection, the forcing guard and the
    # scheduler version stamps (unread when the event_scheduler pass is off)
    ch = False
    for i, wm, wi, val in upd:
        if wi is not None:
            # gathered write: the lanes at lane 0's address share one word
            # write, and only the lanes whose address diverges write their own
            mem = M[i]
            i0 = wi & _SM
            x0 = i0 * _R1
            rest = 0 if wi == x0 else _nz(wi ^ x0)
            if i0 < len(mem):
                same = rest ^ _R1
                wm0 = wm & ((same << _S) - same) if rest else wm
                old = mem[i0]
                nv = (old & (wm0 ^ _F)) | (val & wm0)
                if old != nv:
                    mem[i0] = nv
                    GC[0] = VER[i] = GC[0] + 1
                    ch = True
            for off in _lanes(rest):
                lanebits = wm & (_SM << off)
                if lanebits:
                    a = (wi >> off) & _SM
                    if a < len(mem):
                        old = mem[a]
                        nv = (old & ~lanebits) | (val & lanebits)
                        if old != nv:
                            mem[a] = nv
                            GC[0] = VER[i] = GC[0] + 1
                            ch = True
            continue
        old = V[i]
        nv = (old & (wm ^ _F)) | (val & wm)
        if FB[i]:
            nv = (nv | FO[i]) & FN[i]
        if old != nv:
            V[i] = nv
            GC[0] = VER[i] = GC[0] + 1
            ch = True
    return ch
'''


class _PackedReadContext(_ReadContext):
    """Packed reads: memories go through the gather helper (plus overlay)."""

    def word(self, signal: Signal, idx: str) -> str:
        ovl = f"w{signal.sid}" if signal in self.blocking_mems else "None"
        return f"_mrd(M[{signal.sid}], {ovl}, {idx})"


class _PackedEmitter:
    """Emits the W-lane variant of the kernel for one design + layout.

    Backend for the shared emitter walk (:func:`repro.sim.emitter.emit_kernel`):
    bigint lane words, fully predicated control flow, pooled lane constants
    (the ``const_pool`` pass) and scheduler-stamped commits (the
    ``event_scheduler`` pass).
    """

    comb_params = "V, M, FB, FO, FN, VER, LS, GC"

    def __init__(
        self,
        design: Design,
        layout: PackedLayout,
        passes: Optional[EmitterPasses] = None,
    ) -> None:
        self.design = design
        self.layout = layout
        self.passes = coerce_passes(passes)
        self._pool: Dict[int, str] = {}
        self._pool_lines: List[str] = []

    def read_context(self) -> "_PackedReadContext":
        return _PackedReadContext()

    # -------------------------------------------------------- constant pool
    def repl(self, lane_value: int) -> str:
        """Name of a module-level constant replicating ``lane_value`` per lane.

        With the ``const_pool`` pass off the replication is emitted inline at
        every use site instead (same value, no module-level pool).
        """
        if lane_value == 0:
            return "0"
        if lane_value == 1:
            return "_R1"
        if not self.passes.const_pool:
            return f"_repl({lane_value})"
        name = self._pool.get(lane_value)
        if name is None:
            name = f"_K{len(self._pool)}"
            self._pool[lane_value] = name
            self._pool_lines.append(f"{name} = _repl({lane_value})")
        return name

    def rmask(self, width: int) -> str:
        return self.repl(mask(width))

    def expand(self, pred: str, width: int, w: _Writer) -> str:
        """Predicate lane bits expanded to ``width``-bit all-ones lane fields."""
        if pred == "_R1":
            return self.rmask(width)
        return w.as_temp(f"(({pred} << {width}) - {pred})")

    def nz(self, code: str) -> str:
        """Per-lane ``value != 0`` (inlined: call overhead dominates at scale)."""
        return f"((({code} + _NZC) >> _SP) & _R1)"

    def eqz(self, code: str) -> str:
        """Per-lane ``value == 0``."""
        return f"(((({code} + _NZC) >> _SP) & _R1) ^ _R1)"

    def lanes_of(self, cond: Expr, code: str) -> str:
        """Reduce a packed condition value to one truth bit per lane."""
        if cond.width == 1:
            return code
        return self.nz(code)

    # ------------------------------------------------------------ expressions
    def expr(self, expr: Expr, ctx: _ReadContext, w: _Writer) -> str:
        if isinstance(expr, Const):
            return self.repl(expr.value)
        if isinstance(expr, SigRef):
            return ctx.scalar(expr.signal)
        if isinstance(expr, Slice):
            base = ctx.scalar(expr.signal)
            rm = self.rmask(expr.width)
            if expr.lsb:
                return f"(({base} >> {expr.lsb}) & {rm})"
            return f"({base} & {rm})"
        if isinstance(expr, Index):
            idx = w.as_temp(self.expr(expr.index, ctx, w))
            signal = expr.signal
            if signal.is_memory:
                return f"({ctx.word(signal, idx)})"
            return f"_bidx({ctx.scalar(signal)}, {idx}, {signal.width}, {signal.lsb})"
        if isinstance(expr, Binary):
            return self._binary(expr, ctx, w)
        if isinstance(expr, Unary):
            return self._unary(expr, ctx, w)
        if isinstance(expr, Ternary):
            cond = self.lanes_of(expr.cond, self.expr(expr.cond, ctx, w))
            c = w.as_temp(cond)
            n = expr.width
            m = w.as_temp(f"(({c} << {n}) - {c})")
            then = self.expr(expr.then, ctx, w)
            other = self.expr(expr.other, ctx, w)
            return f"(({then} & {m}) | ({other} & ({m} ^ {self.rmask(n)})))"
        if isinstance(expr, Concat):
            shift = expr.width
            parts = []
            for part in expr.parts:
                shift -= part.width
                code = self.expr(part, ctx, w)
                parts.append(f"({code} << {shift})" if shift else code)
            return "(" + " | ".join(parts) + ")"
        if isinstance(expr, Repl):
            part = self.expr(expr.part, ctx, w)
            repl = sum(1 << (k * expr.part.width) for k in range(expr.count))
            return f"(({part}) * {repl})"
        raise SimulationError(f"cannot compile expression {expr!r}")

    def _binary(self, expr: Binary, ctx: _ReadContext, w: _Writer) -> str:
        op = expr.op
        n = expr.width
        rm = self.rmask(n)
        lhs = self.expr(expr.left, ctx, w)
        rhs = self.expr(expr.right, ctx, w)
        if op == "+":
            return f"(({lhs} + {rhs}) & {rm})"
        if op == "-":
            b = w.as_temp(rhs)
            neg = w.as_temp(f"((({b} ^ {rm}) + _R1) & {rm})")
            return f"(({lhs} + {neg}) & {rm})"
        if op == "*":
            return f"_pmul({lhs}, {rhs}, {mask(n)})"
        if op == "/":
            return f"_pdiv({lhs}, {rhs}, {mask(n)})"
        if op == "%":
            return f"_pmod({lhs}, {rhs}, {mask(n)})"
        if op == "&":
            return f"({lhs} & {rhs})"
        if op == "|":
            return f"({lhs} | {rhs})"
        if op == "^":
            return f"({lhs} ^ {rhs})"
        if op == "~^":
            return f"((({lhs} ^ {rhs})) ^ {rm})"
        if op in ("==", "==="):
            if isinstance(expr.right, Const) and expr.right.value == 0:
                return self.eqz(lhs)
            return self.eqz(f"({lhs} ^ {rhs})")
        if op in ("!=", "!=="):
            if isinstance(expr.right, Const) and expr.right.value == 0:
                return self.nz(lhs)
            return self.nz(f"({lhs} ^ {rhs})")
        # unsigned SWAR comparison: bit _SP of (a | _RH) - b is "a >= b"
        if op == "<":
            return f"((((({lhs} | _RH) - {rhs}) >> _SP) & _R1) ^ _R1)"
        if op == ">=":
            return f"(((({lhs} | _RH) - {rhs}) >> _SP) & _R1)"
        if op == ">":
            return f"((((({rhs} | _RH) - {lhs}) >> _SP) & _R1) ^ _R1)"
        if op == "<=":
            return f"(((({rhs} | _RH) - {lhs}) >> _SP) & _R1)"
        if op == "&&":
            return f"({self.nz(lhs)} & {self.nz(rhs)})"
        if op == "||":
            return f"({self.nz(lhs)} | {self.nz(rhs)})"
        if op == "<<":
            if isinstance(expr.right, Const):
                c = expr.right.value
                if c >= n:
                    return "0"
                if c == 0:
                    return lhs
                return f"(({lhs} & {self.rmask(n - c)}) << {c})"
            return f"_pshl({lhs}, {rhs}, {n}, {mask(n)})"
        if op == ">>":
            if isinstance(expr.right, Const):
                c = expr.right.value
                if c >= n:
                    return "0"
                if c == 0:
                    return lhs
                return f"(({lhs} >> {c}) & {self.rmask(n - c)})"
            return f"_pshr({lhs}, {rhs}, {n})"
        if op == ">>>":
            if isinstance(expr.right, Const):
                sh = min(expr.right.value, n)
                a = w.as_temp(lhs)
                sign = w.as_temp(f"(({a} >> {n - 1}) & _R1)")
                low = "0" if sh >= n else f"(({a} >> {sh}) & {self.rmask(n - sh)})"
                fill = f"((({sign} << {sh}) - {sign}) << {n - sh})"
                return f"({low} | {fill})"
            return f"_psra({lhs}, {rhs}, {n}, {mask(n)})"
        raise SimulationError(f"cannot compile binary operator {op!r}")

    def _unary(self, expr: Unary, ctx: _ReadContext, w: _Writer) -> str:
        op = expr.op
        opw = expr.operand.width
        x = self.expr(expr.operand, ctx, w)
        if op == "~":
            return f"({x} ^ {self.rmask(expr.width)})"
        if op == "-":
            rm = self.rmask(expr.width)
            return f"((({x} ^ {rm}) + _R1) & {rm})"
        if op == "+":
            return x
        if op == "!":
            return self.eqz(x)
        if op == "&":
            return self.eqz(f"({x} ^ {self.rmask(opw)})")
        if op == "~&":
            return self.nz(f"({x} ^ {self.rmask(opw)})")
        if op == "|":
            return self.nz(x)
        if op == "~|":
            return self.eqz(x)
        if op in ("^", "~^"):
            # lane-local parity fold.  The shifted operand is masked to the
            # bits a lane actually owns after the shift (mask(opw - shift)):
            # a plain post-xor mask(opw) is NOT enough, because when the
            # operand width is within a fold shift of the stride, a higher
            # lane's bits land inside the lower lane's window.
            t = w.temp()
            w.line(f"{t} = {x}")
            shift = 1
            while shift < opw:
                w.line(f"{t} = {t} ^ (({t} >> {shift}) & {self.rmask(opw - shift)})")
                shift <<= 1
            if op == "^":
                return f"({t} & _R1)"
            return f"(({t} & _R1) ^ _R1)"
        raise SimulationError(f"cannot compile unary operator {op!r}")

    # ------------------------------------------------------------- statements
    def body(self, body: List[Stmt], ctx: _ReadContext, w: _Writer, pred: str) -> None:
        if not body:
            w.line("pass")
            return
        for stmt in body:
            self.stmt(stmt, ctx, w, pred)

    def stmt(self, stmt: Stmt, ctx: _ReadContext, w: _Writer, pred: str) -> None:
        if isinstance(stmt, Assign):
            self.assign(stmt, ctx, w, pred)
            return
        if isinstance(stmt, If):
            cond = self.lanes_of(stmt.cond, self.expr(stmt.cond, ctx, w))
            c = w.as_temp(cond)
            pt = w.temp()
            if pred == "_R1":
                w.line(f"{pt} = {c}")
            else:
                w.line(f"{pt} = {c} & {pred}")
            w.line(f"if {pt}:")
            w.indent()
            self.body(stmt.then_body, ctx, w, pt)
            w.dedent()
            if stmt.else_body:
                pe = w.temp()
                if pred == "_R1":
                    w.line(f"{pe} = {c} ^ _R1")
                else:
                    w.line(f"{pe} = ({c} ^ _R1) & {pred}")
                w.line(f"if {pe}:")
                w.indent()
                self.body(stmt.else_body, ctx, w, pe)
                w.dedent()
            return
        if isinstance(stmt, Case):
            if not stmt.items:
                self.body(stmt.default, ctx, w, pred)
                return
            subject = w.as_temp(self.expr(stmt.subject, ctx, w))
            rem = w.temp()
            w.line(f"{rem} = {pred}")
            for item in stmt.items:
                labels = [self.expr(label, ctx, w) for label in item.labels]
                eqs = " | ".join(self.eqz(f"({subject} ^ {lab})") for lab in labels)
                hit = w.temp()
                w.line(f"{hit} = ({eqs}) & {rem}")
                w.line(f"if {hit}:")
                w.indent()
                self.body(item.body, ctx, w, hit)
                w.dedent()
                w.line(f"{rem} = {rem} ^ {hit}")
            if stmt.default:
                w.line(f"if {rem}:")
                w.indent()
                self.body(stmt.default, ctx, w, rem)
                w.dedent()
            return
        raise SimulationError(f"cannot compile statement {stmt!r}")

    def assign(self, stmt: Assign, ctx: _ReadContext, w: _Writer, pred: str) -> None:
        lhs = stmt.lhs
        signal = lhs.signal
        sid = signal.sid
        rhs = self.expr(stmt.rhs, ctx, w)
        if stmt.blocking:
            if signal.is_memory:
                idx = w.as_temp(self.expr(lhs.index, ctx, w))
                value = f"({rhs}) & {self.rmask(lhs.width)}"
                w.line(f"_mwr(M[{sid}], w{sid}, {idx}, {value}, {lhs.width}, {pred})")
            elif lhs.msb is not None:
                pm = self.expand(pred, lhs.width, w)
                pms = w.as_temp(f"({pm} << {lhs.lsb})") if lhs.lsb else pm
                value = f"((({rhs}) & {self.rmask(lhs.width)}) << {lhs.lsb})"
                w.line(
                    f"b{sid} = (b{sid} & ({pms} ^ {self.rmask(signal.width)}))"
                    f" | ({value} & {pms})"
                )
            elif lhs.index is not None:
                value = w.as_temp(f"({rhs}) & _R1")
                idx = w.as_temp(self.expr(lhs.index, ctx, w))
                w.line(
                    f"b{sid} = _bset(b{sid}, {idx}, {value},"
                    f" {signal.width}, {signal.lsb}, {pred})"
                )
            elif pred == "_R1":
                w.line(f"b{sid} = ({rhs}) & {self.rmask(signal.width)}")
            else:
                pm = self.expand(pred, signal.width, w)
                w.line(
                    f"b{sid} = (b{sid} & ({pm} ^ {self.rmask(signal.width)}))"
                    f" | ((({rhs}) & {self.rmask(signal.width)}) & {pm})"
                )
            return
        # non-blocking: append (sid, write_mask, word_index, value_in_place)
        if signal.is_memory:
            value = w.as_temp(f"({rhs}) & {self.rmask(lhs.width)}")
            idx = w.as_temp(self.expr(lhs.index, ctx, w))
            pm = self.expand(pred, lhs.width, w)
            w.line(f"n.append(({sid}, {pm}, {idx}, {value}))")
        elif lhs.msb is not None:
            if pred == "_R1":
                pm = self.repl(mask(lhs.width) << lhs.lsb)
            else:
                base = self.expand(pred, lhs.width, w)
                pm = w.as_temp(f"({base} << {lhs.lsb})") if lhs.lsb else base
            value = f"((({rhs}) & {self.rmask(lhs.width)}) << {lhs.lsb})"
            w.line(f"n.append(({sid}, {pm}, None, {value}))")
        elif lhs.index is not None:
            value = w.as_temp(f"({rhs}) & _R1")
            idx = w.as_temp(self.expr(lhs.index, ctx, w))
            wm = w.temp()
            vip = w.temp()
            w.line(
                f"{wm}, {vip} = _bnba({idx}, {value},"
                f" {signal.width}, {signal.lsb}, {pred})"
            )
            w.line(f"n.append(({sid}, {wm}, None, {vip}))")
        else:
            pm = self.expand(pred, signal.width, w)
            value = f"({rhs}) & {self.rmask(signal.width)}"
            w.line(f"n.append(({sid}, {pm}, None, {value}))")

    # ------------------------------------------------------------------ nodes
    def behavioral_fn(self, node: BehavioralNode, w: _Writer) -> str:
        """One predicated flat function per behavioral block.

        ``p`` carries the active-lane mask (clocked nodes: the lanes whose
        clock actually edged; combinational nodes: every lane).  All effects
        are blends masked by ``p``, so inactive lanes pass through untouched.
        """
        name = f"_bn{node.bid}"
        scalars, memories = _blocking_targets(node)
        ctx = _PackedReadContext(frozenset(scalars), frozenset(memories))
        w.line(f"def {name}(V, M, FB, FO, FN, upd, p):")
        w.indent()
        for signal in sorted(scalars, key=lambda s: s.sid):
            w.line(f"b{signal.sid} = V[{signal.sid}]")
        for signal in sorted(memories, key=lambda s: s.sid):
            w.line(f"w{signal.sid} = {{}}")
        w.line("n = []")
        self.body(node.body, ctx, w, "p")
        for signal in sorted(scalars, key=lambda s: s.sid):
            w.line(
                f"upd.append(({signal.sid}, (p << {signal.width}) - p,"
                f" None, b{signal.sid}))"
            )
        for signal in sorted(memories, key=lambda s: s.sid):
            w.line(f"for _k, _v in w{signal.sid}.items():")
            w.line(
                f"    upd.append(({signal.sid}, (p << {signal.width}) - p,"
                f" _k * _R1, _v))"
            )
        w.line("upd.extend(n)")
        w.dedent()
        w.blank()
        return name

    def rtl_node(
        self,
        node: RtlNode,
        ctx: _ReadContext,
        w: _Writer,
        track_change: bool = True,
        stamp: bool = False,
    ) -> None:
        # FB is a per-signal forced flag: in a W-fault word only the fault-site
        # signals carry force bits, so the other nodes skip the mask blend.
        sid = node.output.sid
        code = self.expr(node.expr, ctx, w)
        w.line(f"_x = ({code}) & {self.rmask(node.output.width)}")
        w.line(f"if FB[{sid}]: _x = (_x | FO[{sid}]) & FN[{sid}]")
        if stamp:
            w.line(f"if V[{sid}] != _x:")
            w.line(
                f"    V[{sid}] = _x; GC[0] = VER[{sid}] = GC[0] + 1"
                + ("; ch = True" if track_change else "")
            )
        elif track_change:
            w.line(f"if V[{sid}] != _x: V[{sid}] = _x; ch = True")
        else:
            w.line(f"V[{sid}] = _x")

    # ----------------------------------------------------------------- source
    def comb_block_call(self, node: BehavioralNode, fn_name: str, w: _Writer) -> None:
        w.line("upd = []")
        w.line(f"{fn_name}(V, M, FB, FO, FN, upd, _R1)")
        w.line("if _publish(upd, V, M, FB, FO, FN, VER, GC): ch = True")

    def fire_clocked(self, fn_names: Dict[int, str], fns: _Writer) -> None:
        design = self.design
        clocked_nodes = [n for n in design.behavioral_nodes if n.is_clocked]
        ep_index = {signal: i for i, signal in enumerate(edge_signals(design))}
        fns.line("def fire_clocked(V, M, EP, FB, FO, FN, VER, GC):")
        fns.indent()
        if not clocked_nodes:
            fns.line("return False")
        else:
            act_names = []
            for node in clocked_nodes:
                terms = []
                for edge in node.edges:
                    ep = f"EP[{ep_index[edge.signal]}]"
                    cur = f"V[{edge.signal.sid}]"
                    if edge.kind is EdgeKind.POSEDGE:
                        terms.append(f"(({ep} ^ _R1) & {cur} & _R1)")
                    else:
                        terms.append(f"({ep} & ({cur} ^ _R1) & _R1)")
                act = f"_a{node.bid}"
                act_names.append(act)
                fns.line(f"{act} = {' | '.join(terms)}")
            for signal, i in ep_index.items():
                fns.line(f"EP[{i}] = V[{signal.sid}]")
            fns.line(f"if not ({' | '.join(act_names)}):")
            fns.line("    return False")
            fns.line("upd = []")
            for node in clocked_nodes:
                fns.line(
                    f"if _a{node.bid}:"
                    f" {fn_names[node.bid]}(V, M, FB, FO, FN, upd, _a{node.bid})"
                )
            fns.line("_publish(upd, V, M, FB, FO, FN, VER, GC)")
            fns.line("return True")
        fns.dedent()
        fns.blank()

    def assemble(self, body: str) -> str:
        design = self.design
        layout = self.layout
        head = _Writer()
        head.line(f"# repro packed codegen kernel v{PACKED_VERSION}")
        head.line(f"# design: {design.name}")
        head.line(f"# lanes={layout.lanes} stride={layout.stride}")
        head.line(f"_W = {layout.lanes}")
        head.line(f"_S = {layout.stride}")
        head.line("_SP = _S - 1")
        head.line("_SM = (1 << _S) - 1")
        head.line("_F = (1 << (_W * _S)) - 1")
        head.line("_R1 = _F // _SM")
        head.line("_RH = _R1 << _SP")
        head.line("_NZC = _R1 * ((1 << _SP) - 1)")
        head.blank()
        parts = [head.source(), _PACKED_RUNTIME, "\n"]
        if self._pool_lines:
            parts.append("\n".join(self._pool_lines) + "\n\n")
        parts.append(body)
        return "".join(parts)


def generate_packed_source(
    design: Design,
    layout: PackedLayout,
    passes: Optional[EmitterPasses] = None,
) -> str:
    """Emit the W-lane packed simulation module for ``design``."""
    design.check_finalized()
    if layout.stride < packed_stride(design):
        raise SimulationError(
            f"packed stride {layout.stride} too narrow for design "
            f"{design.name!r} (needs {packed_stride(design)})"
        )
    return emit_kernel(design, _PackedEmitter(design, layout, passes), passes)


# ------------------------------------------------------- vector (NumPy) mode
def vector_planes(width: int) -> int:
    """Number of 64-bit value planes a ``width``-bit signal occupies."""
    return (width + 63) >> 6


def _vector_topmask(width: int) -> int:
    """Mask of the valid bits in the top value plane of a ``width``-bit value."""
    return mask(width - 64 * (vector_planes(width) - 1))


#: A bare integer literal (the shape :meth:`_VectorEmitter.pconst` emits for
#: single-plane constants) — several emission sites special-case it to keep
#: NumPy's weak-promotion rules from ever deciding a dtype on their own.
_VNUM = re.compile(r"\d+\Z")

_VECTOR_RUNTIME = '''\
_T = np.uint64
_T0 = _T(0)
_T1 = _T(1)
_TF = _T(0xFFFFFFFFFFFFFFFF)
_IX = np.intp


def _a2(v):
    # normalize a value (int literal / 1-D / 2-D array) to a (planes, n) array
    a = np.asarray(v, _T)
    if a.ndim == 0:
        return a.reshape(1, 1)
    if a.ndim == 1:
        return a.reshape(1, -1)
    return a


def _pb(p):
    # normalize a lane predicate (bool (1, n) array or np.bool_ scalar) to 1-D
    return np.asarray(p).reshape(1, -1)[0]


def _kc(v, planes):
    # bit-slice an arbitrary-precision constant into a (planes, 1) plane column
    return np.array(
        [[(v >> (64 * k)) & 0xFFFFFFFFFFFFFFFF] for k in range(planes)], _T
    )


_LC = {}


def _ln(n):
    a = _LC.get(n)
    if a is None:
        a = np.arange(n, dtype=_IX)
        _LC[n] = a
    return a


def _xp(x, planes):
    # zero-extend a value to ``planes`` planes (no-op when already wide enough)
    x = _a2(x)
    if x.shape[0] >= planes:
        return x
    out = np.zeros((planes, x.shape[1]), _T)
    out[: x.shape[0]] = x
    return out


def _mtp(x, m):
    # truncate: copy, then mask the top plane
    r = _a2(x).copy()
    r[-1] = r[-1] & _T(m)
    return r


def _bf(x, v):
    # broadcast a constant store over the lane shape of an existing value
    return np.broadcast_to(np.asarray(v, _T), x.shape)


def _vst(V, i, x):
    # change-tracked value store (values are never mutated in place); the
    # broadcast normalization only fires for literal / (P, 1) stores — lane
    # expressions already carry the full shape, and np.broadcast_to is a
    # (surprisingly costly) Python-level call on the hot node path
    old = V[i]
    if type(x) is not np.ndarray or x.shape != old.shape:
        x = np.broadcast_to(np.asarray(x, _T), old.shape)
    if np.array_equal(old, x):
        return False
    V[i] = x
    return True


def _vsn(V, i, x):
    old = V[i]
    if type(x) is not np.ndarray or x.shape != old.shape:
        x = np.broadcast_to(np.asarray(x, _T), old.shape)
    V[i] = x


def _okx(ix, bound):
    # (plane-0 index, lane-wise in-range flag) of a possibly multi-plane index
    ix = _a2(ix)
    i = ix[0]
    ok = i < bound
    for k in range(1, ix.shape[0]):
        ok = ok & (ix[k] == 0)
    return i, ok


def _mrd(mem, ix):
    # memory read: out-of-range lanes read 0; the result must NOT alias the
    # backing rows (memories are the one structure mutated in place)
    d, L = mem.shape
    i, ok = _okx(ix, d)
    if i.shape[0] == 1:
        if ok[0]:
            return mem[int(i[0])][None, :].copy()
        return np.zeros((1, L), _T)
    safe = np.where(ok, i, _T0).astype(_IX)
    return np.where(ok, mem[safe, _ln(L)], _T0)[None, :]


def _mst(mem, fresh, ix, v, p):
    # blocking memory write through a copy-on-first-write overlay: ``fresh``
    # means ``mem`` is still the committed array and must not be touched
    d, L = mem.shape
    i, ok = _okx(ix, d)
    i = np.broadcast_to(i, (L,))
    ok = np.broadcast_to(ok, (L,))
    if p is not None:
        ok = ok & np.broadcast_to(_pb(p), (L,))
    if not ok.any():
        return None if fresh else mem
    out = mem.copy() if fresh else mem
    vv = np.broadcast_to(_a2(v)[0], (L,))
    out[i[ok].astype(_IX), _ln(L)[ok]] = vv[ok]
    return out


def _bix(x, ix, width, lsb):
    # dynamic bit select: out-of-range lanes read 0
    x = _a2(x)
    ixa = _a2(ix)
    j = (ixa[0] - _T(lsb)) if lsb else ixa[0]
    ok = j < width
    for k in range(1, ixa.shape[0]):
        ok = ok & (ixa[k] == 0)
    n = max(x.shape[1], j.shape[0])
    jb = np.broadcast_to(j, (n,))
    okb = np.broadcast_to(ok, (n,))
    js = np.where(okb, jb, _T0)
    if x.shape[0] == 1:
        v = (np.broadcast_to(x[0], (n,)) >> js) & _T1
    else:
        q = (js >> _T(6)).astype(_IX)
        r = js & _T(63)
        xb = np.broadcast_to(x, (x.shape[0], n))
        v = (xb[q, _ln(n)] >> r) & _T1
    return np.where(okb, v, _T0)[None, :]


def _bst(x, ix, v, width, lsb, p):
    # blocking dynamic bit write (out-of-range lanes keep their value)
    x = _a2(x)
    ixa = _a2(ix)
    j = (ixa[0] - _T(lsb)) if lsb else ixa[0]
    ok = j < width
    for k in range(1, ixa.shape[0]):
        ok = ok & (ixa[k] == 0)
    va = _a2(v)[0]
    n = max(x.shape[1], j.shape[0], va.shape[0])
    if p is not None:
        pv = _pb(p)
        n = max(n, pv.shape[0])
        ok = np.broadcast_to(ok, (n,)) & np.broadcast_to(pv, (n,))
    else:
        ok = np.broadcast_to(ok, (n,))
    out = np.broadcast_to(x, (x.shape[0], n)).copy()
    if not ok.any():
        return out
    js = np.where(ok, np.broadcast_to(j, (n,)), _T0)
    vs = np.where(ok, np.broadcast_to(va, (n,)) & _T1, _T0)
    if out.shape[0] == 1:
        bit = np.where(ok, _T1 << js, _T0)
        out[0] = (out[0] & ~bit) | (vs << js)
    else:
        for k in range(out.shape[0]):
            sel = ok & ((js >> _T(6)) == k)
            if not sel.any():
                continue
            r = js & _T(63)
            bit = np.where(sel, _T1 << r, _T0)
            out[k] = (out[k] & ~bit) | np.where(sel, vs << r, _T0)
    return out


def _bnb(ix, v, width, lsb, p, planes):
    # non-blocking dynamic bit write -> (write_mask, value_in_place) arrays;
    # out-of-range lanes get a zero write mask (the write never lands)
    ixa = _a2(ix)
    j = (ixa[0] - _T(lsb)) if lsb else ixa[0]
    ok = j < width
    for k in range(1, ixa.shape[0]):
        ok = ok & (ixa[k] == 0)
    va = _a2(v)[0]
    n = max(j.shape[0], va.shape[0])
    if p is not None:
        pv = _pb(p)
        n = max(n, pv.shape[0])
        ok = np.broadcast_to(ok, (n,)) & np.broadcast_to(pv, (n,))
    else:
        ok = np.broadcast_to(ok, (n,))
    wm = np.zeros((planes, n), _T)
    vip = np.zeros((planes, n), _T)
    if not ok.any():
        return wm, vip
    js = np.where(ok, np.broadcast_to(j, (n,)), _T0)
    vs = np.where(ok, np.broadcast_to(va, (n,)) & _T1, _T0)
    if planes == 1:
        wm[0] = np.where(ok, _T1 << js, _T0)
        vip[0] = vs << js
    else:
        for k in range(planes):
            sel = ok & ((js >> _T(6)) == k)
            if not sel.any():
                continue
            r = js & _T(63)
            wm[k] = np.where(sel, _T1 << r, _T0)
            vip[k] = np.where(sel, vs << r, _T0)
    return wm, vip


def _add(a, b, m, c0=0):
    # multi-plane ripple add over 64-bit limbs, top plane masked to ``m``
    a = _a2(a)
    b = _a2(b)
    n = max(a.shape[1], b.shape[1])
    out = np.empty((a.shape[0], n), _T)
    carry = np.full((n,), c0, _T)
    for k in range(a.shape[0]):
        ak = np.broadcast_to(a[k], (n,))
        bk = np.broadcast_to(b[k], (n,))
        s = ak + bk
        c1 = s < ak
        s = s + carry
        c2 = s < carry
        out[k] = s
        carry = (c1 | c2).astype(_T)
    out[-1] = out[-1] & _T(m)
    return out


def _sub(a, b, m):
    # a - b == a + ~b + 1 (mod 2**(64*planes)), then top-plane truncation
    return _add(a, _a2(b) ^ _TF, m, 1)


def _lt(a, b):
    # lexicographic unsigned compare from the top plane down -> uint64 0/1
    a = _a2(a)
    b = _a2(b)
    n = max(a.shape[1], b.shape[1])
    lt = np.zeros((n,), bool)
    done = np.zeros((n,), bool)
    for k in range(a.shape[0] - 1, -1, -1):
        ak = np.broadcast_to(a[k], (n,))
        bk = np.broadcast_to(b[k], (n,))
        lt = np.where(~done & (ak < bk), True, lt)
        done = done | (ak != bk)
    return lt.astype(_T)[None, :]


def _inv(x, m):
    r = _a2(x) ^ _TF
    r[-1] = r[-1] & _T(m)
    return r


def _par(x):
    # parity: fold the planes together, then fold 64 bits down to 1
    x = _a2(x)
    t = x[0]
    for k in range(1, x.shape[0]):
        t = t ^ x[k]
    for s in (32, 16, 8, 4, 2, 1):
        t = t ^ (t >> _T(s))
    return (t & _T1)[None, :]


def _dv(a, b, m):
    # Verilog x/0 == all-ones
    av = _a2(a)[0:1]
    bv = _a2(b)[0:1]
    bz = bv == 0
    return np.where(bz, _T(m), av // np.where(bz, _T1, bv))


def _md(a, b):
    # Verilog x%0 == 0
    av = _a2(a)[0:1]
    bv = _a2(b)[0:1]
    bz = bv == 0
    return np.where(bz, _T0, av % np.where(bz, _T1, bv))


def _sv(b):
    # (plane-0 shift amount, high-planes-zero flag or None) of a shift rhs
    b = _a2(b)
    hz = None
    for k in range(1, b.shape[0]):
        z = b[k : k + 1] == 0
        hz = z if hz is None else hz & z
    return b[0:1], hz


def _shl(a, b, w, m):
    av = _a2(a)[0:1]
    s, hz = _sv(b)
    ok = s < w
    if hz is not None:
        ok = ok & hz
    ss = np.where(ok, s, _T0)
    return np.where(ok, (av << ss) & _T(m), _T0)


def _shr(a, b, w):
    av = _a2(a)[0:1]
    s, hz = _sv(b)
    ok = s < w
    if hz is not None:
        ok = ok & hz
    ss = np.where(ok, s, _T0)
    return np.where(ok, av >> ss, _T0)


def _sra(a, b, w):
    # arithmetic shift right, shift clamped to ``w`` (full shift -> sign fill)
    av = _a2(a)[0:1]
    s, hz = _sv(b)
    full = ~(s < w)
    if hz is not None:
        full = full | ~hz
    m = _T((1 << w) - 1)
    sign = (av >> _T(w - 1)) & _T1
    ss = np.where(full, _T0, s)
    part = (av >> ss) | (sign * (m ^ (m >> ss)))
    return np.where(full, sign * m, part)


def _toi(x, n):
    # plane columns -> per-lane Python bigints
    x = _a2(x)
    xb = np.broadcast_to(x, (x.shape[0], n))
    cols = [0] * n
    for k in range(x.shape[0] - 1, -1, -1):
        row = xb[k].tolist()
        cols = [(c << 64) | v for c, v in zip(cols, row)]
    return cols


def _plf(op, a, b, w, planes):
    # per-lane bigint fallback for the genuinely serial multi-plane operators
    a = _a2(a)
    b = _a2(b)
    n = max(a.shape[1], b.shape[1])
    av = _toi(a, n)
    bv = _toi(b, n)
    m = (1 << w) - 1
    res = []
    for x, y in zip(av, bv):
        if op == "mul":
            r = (x * y) & m
        elif op == "div":
            r = ((x // y) & m) if y else m
        elif op == "mod":
            r = (x % y) if y else 0
        elif op == "shl":
            r = ((x << y) & m) if y < w else 0
        elif op == "shr":
            r = (x >> y) if y < w else 0
        else:  # sra
            if x & (1 << (w - 1)):
                x -= 1 << w
            r = (x >> min(y, w)) & m
        res.append(r)
    out = np.empty((planes, n), _T)
    for k in range(planes):
        out[k] = [(r >> (64 * k)) & 0xFFFFFFFFFFFFFFFF for r in res]
    return out


def _sl(x, lsb, w):
    # constant slice [lsb +: w] of a multi-plane value
    x = _a2(x)
    planes = (w + 63) >> 6
    q, r = lsb >> 6, lsb & 63
    out = np.zeros((planes, x.shape[1]), _T)
    xs = x.shape[0]
    for k in range(planes):
        j = q + k
        if j < xs:
            v = (x[j] >> _T(r)) if r else x[j]
            if r and j + 1 < xs:
                v = v | (x[j + 1] << _T(64 - r))
            out[k] = v
    t = w & 63
    if t:
        out[-1] = out[-1] & _T((1 << t) - 1)
    return out


def _shlc(x, c, w):
    # constant left shift into a ``w``-bit multi-plane result
    x = _a2(x)
    planes = (w + 63) >> 6
    q, r = c >> 6, c & 63
    out = np.zeros((planes, x.shape[1]), _T)
    xs = x.shape[0]
    for k in range(planes):
        j = k - q
        if 0 <= j < xs:
            out[k] = (x[j] << _T(r)) if r else x[j]
        if r and 0 <= j - 1 < xs:
            out[k] = out[k] | (x[j - 1] >> _T(64 - r))
    t = w & 63
    if t:
        out[-1] = out[-1] & _T((1 << t) - 1)
    return out


def _cat(parts, w):
    # concat of (value, width) parts, first part highest (values pre-truncated)
    planes = (w + 63) >> 6
    shift = w
    acc = None
    for v, pw in parts:
        shift -= pw
        ve = _xp(v, planes)
        sh = _shlc(ve, shift, w) if shift else ve
        acc = sh if acc is None else acc | sh
    return acc


_KM = {}


def _ins(base, v, lsb, w, sw):
    # constant slice insert: keep-mask blend plus a shifted-in value
    planes = (sw + 63) >> 6
    key = (lsb, w, sw)
    keep = _KM.get(key)
    if keep is None:
        kv = ((1 << sw) - 1) & ~(((1 << w) - 1) << lsb)
        keep = _kc(kv, planes)
        _KM[key] = keep
    return (_a2(base) & keep) | _shlc(_xp(v, planes), lsb, sw)


def _msc(mem, p, ix, v):
    # non-blocking memory scatter (one element per lane; no collisions)
    d, L = mem.shape
    i, ok = _okx(ix, d)
    i = np.broadcast_to(i, (L,))
    ok = np.broadcast_to(ok, (L,))
    if p is not None:
        ok = ok & np.broadcast_to(_pb(p), (L,))
    if not ok.any():
        return False
    a = i[ok].astype(_IX)
    l = _ln(L)[ok]
    nv = np.broadcast_to(_a2(v)[0], (L,))[ok]
    old = mem[a, l]
    diff = old != nv
    if not diff.any():
        return False
    mem[a[diff], l[diff]] = nv[diff]
    return True


def _publish(upd, V, M, FB, FO, FN, VER, GC):
    # the NBA region: (sid, write_mask, word_index, value_in_place) tuples.
    # write_mask None -> full replace; bool array -> lane blend; uint64 ->
    # bit blend.  word_index True commits a whole-memory overlay.  Every
    # commit that changes a value stamps the scheduler's VER.
    ch = False
    for i, wm, wi, val in upd:
        if wi is not None:
            if wi is True:
                mem = M[i]
                if not np.array_equal(mem, val):
                    np.copyto(mem, val)
                    GC[0] = VER[i] = GC[0] + 1
                    ch = True
            elif _msc(M[i], wm, wi, val):
                GC[0] = VER[i] = GC[0] + 1
                ch = True
            continue
        old = V[i]
        if wm is None:
            nv = val
        elif np.asarray(wm).dtype.kind == "b":
            nv = np.where(wm, val, old)
        else:
            nv = old ^ ((old ^ val) & wm)
        if FB[i]:
            nv = (nv | FO[i]) & FN[i]
        if type(nv) is not np.ndarray or nv.shape != old.shape:
            nv = np.broadcast_to(np.asarray(nv, _T), old.shape)
        if not np.array_equal(old, nv):
            V[i] = nv
            GC[0] = VER[i] = GC[0] + 1
            ch = True
    return ch
'''


class _VectorReadContext(_ReadContext):
    """Read resolution for the vector mode (memory reads go through ``_mrd``)."""

    def word(self, signal: Signal, idx: str) -> str:
        if signal in self.blocking_mems:
            return (
                f"_mrd(M[{signal.sid}] if w{signal.sid} is None"
                f" else w{signal.sid}, {idx})"
            )
        return f"_mrd(M[{signal.sid}], {idx})"


#: Multi-plane arithmetic operators that fall back to the per-lane bigint loop.
_VECTOR_PLF = {"*": "mul", "/": "div", "%": "mod"}

#: Comparison operators and their Python spellings (case equality included:
#: the two-state IR has no x/z, so ``===``/``!==`` degenerate to ``==``/``!=``).
_VECTOR_CMP = {
    "==": "==",
    "===": "==",
    "!=": "!=",
    "!==": "!=",
    "<": "<",
    "<=": "<=",
    ">": ">",
    ">=": ">=",
}


class _VectorEmitter:
    """Emits the lane-agnostic NumPy variant of the kernel for one design.

    Value representation: every ``w``-bit scalar is a ``(vector_planes(w), L)``
    ``uint64`` array — ``L`` lane columns (lane 0 the good machine), plane 0
    the least-significant 64 bits.  The invariant every emission site upholds
    is that a value of plane count > 1 is a *true* array with exactly that many
    plane rows (only the lane axis ever broadcasts), while single-plane
    constants stay Python ints and rely on NumPy's weak promotion against the
    uint64 arrays they meet.  Signal-free subexpressions are folded at emit
    time (``expr.eval(None)``), so constants never meet each other at runtime
    and NumPy never gets to pick a dtype.

    Control flow is fully predicated: a predicate is a boolean ``(1, L)``
    array (or ``np.bool_``), threaded through statements as ``Optional[str]``
    where ``None`` statically means "all lanes" — combinational bodies always
    run under ``None``, clocked bodies under the edge predicate ``p``.

    As an :func:`~repro.sim.emitter.emit_kernel` backend it honours the
    ``event_scheduler`` pass like the other layouts: the guard compares one
    int stamp per read signal and never a lane array.  ``comb_once`` commits
    stamp ``VER`` unconditionally — being re-assigned is the event, and an
    array compare would cost about what the guarded evaluation saves —
    while ``comb_pass`` and ``_publish`` stamp only when the lanes changed.
    """

    comb_params = "V, M, FB, FO, FN, VER, LS, GC"

    def __init__(
        self, design: Design, passes: Optional[EmitterPasses] = None
    ) -> None:
        self.design = design
        self.passes = coerce_passes(passes)
        self._pool: Dict[Tuple[int, int], str] = {}
        self._pool_lines: List[str] = []

    def read_context(self) -> "_VectorReadContext":
        return _VectorReadContext()

    # -------------------------------------------------------- constant pool
    def pconst(self, value: int, planes: int) -> str:
        if planes == 1:
            return repr(value)
        if not self.passes.const_pool:
            return f"_kc({value}, {planes})"
        key = (value, planes)
        name = self._pool.get(key)
        if name is None:
            name = f"_K{len(self._pool)}"
            self._pool[key] = name
            self._pool_lines.append(f"{name} = _kc({value}, {planes})")
        return name

    def kconst(self, value: int, width: int) -> str:
        return self.pconst(value, vector_planes(width))

    def maskop(self, code: str, width: int) -> str:
        if width == 64:
            return f"({code})"
        return f"(({code}) & {mask(width)})"

    def ext(self, code: str, planes: int, to_planes: int) -> str:
        """Zero-extend ``code`` from ``planes`` to ``to_planes`` plane rows."""
        if planes >= to_planes:
            return code
        if _VNUM.fullmatch(code):
            return self.pconst(int(code), to_planes)
        return f"_xp({code}, {to_planes})"

    def trunc(self, code: str, src_width: int, dst_width: int) -> str:
        """Truncate/extend a ``src_width``-bit value to ``dst_width`` bits."""
        if _VNUM.fullmatch(code):
            return self.kconst(int(code) & mask(dst_width), dst_width)
        sp = vector_planes(src_width)
        dp = vector_planes(dst_width)
        if sp > dp:
            code = f"({code})[:{dp}]"
            if dst_width & 63 == 0:
                return f"({code})"
            src_width = 64 * dp  # fall through to the top-plane mask below
        elif src_width <= dst_width:
            return self.ext(code, sp, dp)
        if dp == 1:
            return f"(({code}) & {mask(dst_width)})"
        return f"_mtp({code}, {_vector_topmask(dst_width)})"

    # ------------------------------------------------------------ expressions
    def expr(self, expr: Expr, ctx: _ReadContext, w: _Writer) -> str:
        if next(expr.signals(), None) is None:
            # signal-free subtree: fold now, so constants never meet at runtime
            return self.kconst(expr.eval(None), expr.width)
        if isinstance(expr, SigRef):
            return ctx.scalar(expr.signal)
        if isinstance(expr, Slice):
            base = ctx.scalar(expr.signal)
            if vector_planes(expr.signal.width) == 1:
                if expr.lsb:
                    return f"(({base} >> {expr.lsb}) & {mask(expr.width)})"
                return f"({base} & {mask(expr.width)})"
            return f"_sl({base}, {expr.lsb}, {expr.width})"
        if isinstance(expr, Index):
            idx = w.as_temp(self.expr(expr.index, ctx, w))
            signal = expr.signal
            if signal.is_memory:
                return f"({ctx.word(signal, idx)})"
            return f"_bix({ctx.scalar(signal)}, {idx}, {signal.width}, {signal.lsb})"
        if isinstance(expr, Binary):
            return self._binary(expr, ctx, w)
        if isinstance(expr, Unary):
            return self._unary(expr, ctx, w)
        if isinstance(expr, Ternary):
            c = w.as_temp(self.boolexpr(expr.cond, ctx, w))
            p = vector_planes(expr.width)
            then = self.ext(
                self.expr(expr.then, ctx, w), vector_planes(expr.then.width), p
            )
            other = self.ext(
                self.expr(expr.other, ctx, w), vector_planes(expr.other.width), p
            )
            if _VNUM.fullmatch(then) and _VNUM.fullmatch(other):
                # both branches folded: keep np.where from minting an int64
                then = f"_T({then})"
            return f"np.where({c}, {then}, {other})"
        if isinstance(expr, Concat):
            n = expr.width
            if vector_planes(n) == 1:
                shift = n
                parts = []
                for part in expr.parts:
                    shift -= part.width
                    code = self.expr(part, ctx, w)
                    parts.append(f"({code} << {shift})" if shift else code)
                return "(" + " | ".join(parts) + ")"
            items = ", ".join(
                f"({self.expr(part, ctx, w)}, {part.width})" for part in expr.parts
            )
            return f"_cat([{items}], {n})"
        if isinstance(expr, Repl):
            n = expr.width
            part = self.expr(expr.part, ctx, w)
            if vector_planes(n) == 1:
                repl = sum(1 << (k * expr.part.width) for k in range(expr.count))
                return f"(({part}) * {repl})"
            pc = w.as_temp(part)
            items = ", ".join(
                f"({pc}, {expr.part.width})" for _ in range(expr.count)
            )
            return f"_cat([{items}], {n})"
        raise SimulationError(f"cannot compile expression {expr!r}")

    def _binary(self, expr: Binary, ctx: _ReadContext, w: _Writer) -> str:
        op = expr.op
        n = expr.width
        p = vector_planes(n)
        lp = vector_planes(expr.left.width)
        rp = vector_planes(expr.right.width)
        if op in ("&&", "||"):
            l = self.boolexpr(expr.left, ctx, w)
            r = self.boolexpr(expr.right, ctx, w)
            joiner = "&" if op == "&&" else "|"
            return f"(({l} {joiner} {r}).astype(_T))"
        lhs = self.expr(expr.left, ctx, w)
        rhs = self.expr(expr.right, ctx, w)
        if op in ("+", "-", "*", "/", "%", "&", "|", "^", "~^"):
            l = self.ext(lhs, lp, p)
            r = self.ext(rhs, rp, p)
            if p == 1:
                if op == "+":
                    return self.maskop(f"{l} + {r}", n)
                if op == "-":
                    return self.maskop(f"{l} - {r}", n)
                if op == "*":
                    return self.maskop(f"{l} * {r}", n)
                if op == "/":
                    return f"_dv({l}, {r}, {mask(n)})"
                if op == "%":
                    return f"_md({l}, {r})"
                if op == "~^":
                    return f"(({l} ^ {r}) ^ {mask(n)})"
                return f"({l} {op} {r})"
            if op in ("&", "|", "^"):
                return f"({l} {op} {r})"
            if op == "~^":
                return f"_inv({l} ^ {r}, {_vector_topmask(n)})"
            if op == "+":
                return f"_add({l}, {r}, {_vector_topmask(n)})"
            if op == "-":
                return f"_sub({l}, {r}, {_vector_topmask(n)})"
            return f"_plf({_VECTOR_PLF[op]!r}, {l}, {r}, {n}, {p})"
        if op in _VECTOR_CMP:
            cp = max(lp, rp)
            l = self.ext(lhs, lp, cp)
            r = self.ext(rhs, rp, cp)
            if cp == 1:
                return f"(({l} {_VECTOR_CMP[op]} {r}).astype(_T))"
            if op in ("==", "==="):
                return f"(np.all({l} == {r}, axis=0, keepdims=True).astype(_T))"
            if op in ("!=", "!=="):
                return f"(np.any({l} != {r}, axis=0, keepdims=True).astype(_T))"
            if op == "<":
                return f"_lt({l}, {r})"
            if op == ">":
                return f"_lt({r}, {l})"
            if op == "<=":
                return f"(_lt({r}, {l}) ^ _T1)"
            return f"(_lt({l}, {r}) ^ _T1)"
        if op in ("<<", ">>", ">>>"):
            c = None
            if next(expr.right.signals(), None) is None:
                c = expr.right.eval(None)
            if op == "<<":
                if c is not None:
                    if c >= n:
                        return self.kconst(0, n)
                    if c == 0:
                        return lhs
                    if p == 1:
                        return self.maskop(f"{lhs} << {c}", n)
                    return f"_shlc({lhs}, {c}, {n})"
                if p == 1:
                    return f"_shl({lhs}, {rhs}, {n}, {mask(n)})"
                return f"_plf('shl', {lhs}, {rhs}, {n}, {p})"
            if op == ">>":
                if c is not None:
                    if c >= n:
                        return self.kconst(0, n)
                    if c == 0:
                        return lhs
                    if p == 1:
                        return f"({lhs} >> {c})"
                    return f"_sl({lhs}, {c}, {n})"
                if p == 1:
                    return f"_shr({lhs}, {rhs}, {n})"
                return f"_plf('shr', {lhs}, {rhs}, {n}, {p})"
            # >>> — arithmetic, sign from the left width, shift clamped to n
            if c is not None:
                if p > 1:
                    return f"_plf('sra', {lhs}, {c}, {n}, {p})"
                sh = min(c, n)
                a = w.as_temp(lhs)
                sign = w.as_temp(f"(({a} >> {n - 1}) & 1)")
                if sh >= n:
                    return f"({sign} * {mask(n)})"
                fill = (mask(n) >> sh) ^ mask(n)
                return f"(({a} >> {sh}) | ({sign} * {fill}))"
            if p == 1:
                return f"_sra({lhs}, {rhs}, {n})"
            return f"_plf('sra', {lhs}, {rhs}, {n}, {p})"
        raise SimulationError(f"cannot compile binary operator {op!r}")

    def _unary(self, expr: Unary, ctx: _ReadContext, w: _Writer) -> str:
        op = expr.op
        opw = expr.operand.width
        opp = vector_planes(opw)
        x = self.expr(expr.operand, ctx, w)
        if op == "~":
            if opp == 1:
                return f"({x} ^ {mask(expr.width)})"
            return f"_inv({x}, {_vector_topmask(expr.width)})"
        if op == "-":
            if opp == 1:
                return self.maskop(f"0 - ({x})", expr.width)
            zero = self.kconst(0, expr.width)
            return f"_sub({zero}, {x}, {_vector_topmask(expr.width)})"
        if op == "+":
            return x
        if op in ("!", "~|"):
            if opp == 1:
                return f"(({x} == 0).astype(_T))"
            return f"(np.all({x} == 0, axis=0, keepdims=True).astype(_T))"
        if op == "&":
            if opp == 1:
                return f"(({x} == {mask(opw)}).astype(_T))"
            am = self.kconst(mask(opw), opw)
            return f"(np.all({x} == {am}, axis=0, keepdims=True).astype(_T))"
        if op == "~&":
            if opp == 1:
                return f"(({x} != {mask(opw)}).astype(_T))"
            am = self.kconst(mask(opw), opw)
            return f"(np.any({x} != {am}, axis=0, keepdims=True).astype(_T))"
        if op == "|":
            if opp == 1:
                return f"(({x} != 0).astype(_T))"
            return f"(np.any({x} != 0, axis=0, keepdims=True).astype(_T))"
        if op in ("^", "~^"):
            if op == "^":
                return f"_par({x})"
            return f"(_par({x}) ^ _T1)"
        raise SimulationError(f"cannot compile unary operator {op!r}")

    def boolexpr(self, expr: Expr, ctx: _ReadContext, w: _Writer) -> str:
        """Compile a condition straight to a boolean lane predicate."""
        if next(expr.signals(), None) is None:
            return f"np.bool_({bool(expr.eval(None))})"
        if isinstance(expr, Binary):
            if expr.op == "&&":
                l = self.boolexpr(expr.left, ctx, w)
                r = self.boolexpr(expr.right, ctx, w)
                return f"({l} & {r})"
            if expr.op == "||":
                l = self.boolexpr(expr.left, ctx, w)
                r = self.boolexpr(expr.right, ctx, w)
                return f"({l} | {r})"
            pyop = _VECTOR_CMP.get(expr.op)
            if (
                pyop
                and vector_planes(expr.left.width) == 1
                and vector_planes(expr.right.width) == 1
            ):
                l = self.expr(expr.left, ctx, w)
                r = self.expr(expr.right, ctx, w)
                return f"({l} {pyop} {r})"
        if isinstance(expr, Unary) and expr.op == "!":
            return f"(~{self.boolexpr(expr.operand, ctx, w)})"
        return self.nzb(self.expr(expr, ctx, w), vector_planes(expr.width))

    def nzb(self, code: str, planes: int) -> str:
        if planes == 1:
            return f"({code} != 0)"
        return f"np.any({code} != 0, axis=0, keepdims=True)"

    # ------------------------------------------------------------- statements
    def body(
        self, body: List[Stmt], ctx: _ReadContext, w: _Writer, pred: Optional[str]
    ) -> None:
        if not body:
            w.line("pass")
            return
        for stmt in body:
            self.stmt(stmt, ctx, w, pred)

    def stmt(
        self, stmt: Stmt, ctx: _ReadContext, w: _Writer, pred: Optional[str]
    ) -> None:
        if isinstance(stmt, Assign):
            self.assign(stmt, ctx, w, pred)
            return
        if isinstance(stmt, If):
            c = w.as_temp(self.boolexpr(stmt.cond, ctx, w))
            pt = w.temp()
            if pred is None:
                w.line(f"{pt} = {c}")
            else:
                w.line(f"{pt} = {c} & {pred}")
            w.line(f"if {pt}.any():")
            w.indent()
            self.body(stmt.then_body, ctx, w, pt)
            w.dedent()
            if stmt.else_body:
                pe = w.temp()
                if pred is None:
                    w.line(f"{pe} = ~{c}")
                else:
                    w.line(f"{pe} = ~{c} & {pred}")
                w.line(f"if {pe}.any():")
                w.indent()
                self.body(stmt.else_body, ctx, w, pe)
                w.dedent()
            return
        if isinstance(stmt, Case):
            if not stmt.items:
                self.body(stmt.default, ctx, w, pred)
                return
            sp = vector_planes(stmt.subject.width)
            subject = w.as_temp(self.expr(stmt.subject, ctx, w))
            rem = pred
            for item in stmt.items:
                eqs = " | ".join(
                    self._case_eq(subject, sp, label, ctx, w)
                    for label in item.labels
                )
                hit = w.temp()
                if rem is None:
                    w.line(f"{hit} = {eqs}")
                else:
                    w.line(f"{hit} = ({eqs}) & {rem}")
                w.line(f"if {hit}.any():")
                w.indent()
                self.body(item.body, ctx, w, hit)
                w.dedent()
                nxt = w.temp()
                if rem is None:
                    w.line(f"{nxt} = ~{hit}")
                else:
                    w.line(f"{nxt} = {rem} & ~{hit}")
                rem = nxt
            if stmt.default:
                w.line(f"if {rem}.any():")
                w.indent()
                self.body(stmt.default, ctx, w, rem)
                w.dedent()
            return
        raise SimulationError(f"cannot compile statement {stmt!r}")

    def _case_eq(
        self, subject: str, sp: int, label: Expr, ctx: _ReadContext, w: _Writer
    ) -> str:
        lab = self.expr(label, ctx, w)
        if _VNUM.fullmatch(subject) and _VNUM.fullmatch(lab):
            return f"np.bool_({int(subject) == int(lab)})"
        lp = vector_planes(label.width)
        cp = max(sp, lp)
        s = self.ext(subject, sp, cp)
        l = self.ext(lab, lp, cp)
        if cp == 1:
            return f"({s} == {l})"
        return f"np.all({s} == {l}, axis=0, keepdims=True)"

    def assign(
        self, stmt: Assign, ctx: _ReadContext, w: _Writer, pred: Optional[str]
    ) -> None:
        lhs = stmt.lhs
        signal = lhs.signal
        sid = signal.sid
        sw = signal.width
        sp = vector_planes(sw)
        rhs = self.expr(stmt.rhs, ctx, w)
        pc = "None" if pred is None else pred
        if stmt.blocking:
            if signal.is_memory:
                idx = w.as_temp(self.expr(lhs.index, ctx, w))
                value = self.trunc(rhs, stmt.rhs.width, lhs.width)
                w.line(
                    f"w{sid} = _mst(M[{sid}] if w{sid} is None else w{sid},"
                    f" w{sid} is None, {idx}, {value}, {pc})"
                )
            elif lhs.msb is not None:
                value = self.trunc(rhs, stmt.rhs.width, lhs.width)
                if sp == 1:
                    keep = mask(sw) & ~(mask(lhs.width) << lhs.lsb)
                    ins = f"(({value}) << {lhs.lsb})" if lhs.lsb else f"({value})"
                    nv = f"((b{sid} & {keep}) | {ins})"
                else:
                    nv = f"_ins(b{sid}, {value}, {lhs.lsb}, {lhs.width}, {sw})"
                if pred is None:
                    w.line(f"b{sid} = {nv}")
                else:
                    w.line(f"b{sid} = np.where({pred}, {nv}, b{sid})")
            elif lhs.index is not None:
                value = w.as_temp(self.trunc(rhs, stmt.rhs.width, 1))
                idx = w.as_temp(self.expr(lhs.index, ctx, w))
                w.line(
                    f"b{sid} = _bst(b{sid}, {idx}, {value},"
                    f" {sw}, {signal.lsb}, {pc})"
                )
            else:
                value = self.trunc(rhs, stmt.rhs.width, sw)
                if pred is None:
                    if _VNUM.fullmatch(value):
                        # keep the local an array: a bare int would turn the
                        # next read of b{sid} in a condition into Python bool
                        w.line(f"b{sid} = _bf(b{sid}, {value})")
                    else:
                        w.line(f"b{sid} = {value}")
                else:
                    w.line(f"b{sid} = np.where({pred}, {value}, b{sid})")
            return
        # non-blocking: append (sid, write_mask, word_index, value_in_place)
        if signal.is_memory:
            value = w.as_temp(self.trunc(rhs, stmt.rhs.width, lhs.width))
            idx = w.as_temp(self.expr(lhs.index, ctx, w))
            w.line(f"n.append(({sid}, {pc}, {idx}, {value}))")
        elif lhs.msb is not None:
            fm = mask(lhs.width) << lhs.lsb
            value = self.trunc(rhs, stmt.rhs.width, lhs.width)
            if sp == 1:
                vip = f"(({value}) << {lhs.lsb})" if lhs.lsb else f"({value})"
                wm = f"_T({fm})" if pred is None else f"np.where({pred}, _T({fm}), _T0)"
            else:
                vip = f"_shlc({value}, {lhs.lsb}, {sw})"
                km = self.kconst(fm, sw)
                wm = km if pred is None else f"np.where({pred}, {km}, _T0)"
            w.line(f"n.append(({sid}, {wm}, None, {vip}))")
        elif lhs.index is not None:
            value = w.as_temp(self.trunc(rhs, stmt.rhs.width, 1))
            idx = w.as_temp(self.expr(lhs.index, ctx, w))
            wm = w.temp()
            vip = w.temp()
            w.line(
                f"{wm}, {vip} = _bnb({idx}, {value},"
                f" {sw}, {signal.lsb}, {pc}, {sp})"
            )
            w.line(f"n.append(({sid}, {wm}, None, {vip}))")
        else:
            value = self.trunc(rhs, stmt.rhs.width, sw)
            w.line(f"n.append(({sid}, {pc}, None, {value}))")

    # ------------------------------------------------------------------ nodes
    def behavioral_fn(self, node: BehavioralNode, w: _Writer) -> str:
        """One predicated flat function per behavioral block.

        Combinational nodes run under the statically-known all-lanes predicate
        (``None``), clocked nodes under the boolean edge predicate ``p``; the
        commit tuples carry the same predicate so :func:`_publish` blends only
        the edged lanes.
        """
        name = f"_bn{node.bid}"
        scalars, memories = _blocking_targets(node)
        ctx = _VectorReadContext(frozenset(scalars), frozenset(memories))
        w.line(f"def {name}(V, M, FB, FO, FN, upd, p):")
        w.indent()
        for signal in sorted(scalars, key=lambda s: s.sid):
            w.line(f"b{signal.sid} = V[{signal.sid}]")
        for signal in sorted(memories, key=lambda s: s.sid):
            w.line(f"w{signal.sid} = None")
        w.line("n = []")
        self.body(node.body, ctx, w, "p" if node.is_clocked else None)
        for signal in sorted(scalars, key=lambda s: s.sid):
            w.line(f"upd.append(({signal.sid}, p, None, b{signal.sid}))")
        for signal in sorted(memories, key=lambda s: s.sid):
            # the overlay already carries the predicate (writes were masked),
            # so committing it whole is exact for the untouched lanes too
            w.line(f"if w{signal.sid} is not None:")
            w.line(f"    upd.append(({signal.sid}, None, True, w{signal.sid}))")
        w.line("upd.extend(n)")
        w.dedent()
        w.blank()
        return name

    def rtl_node(
        self,
        node: RtlNode,
        ctx: _ReadContext,
        w: _Writer,
        track_change: bool = True,
        stamp: bool = False,
    ) -> None:
        sid = node.output.sid
        code = self.trunc(
            self.expr(node.expr, ctx, w), node.expr.width, node.output.width
        )
        w.line(f"_x = {code}")
        w.line(f"if FB[{sid}]: _x = (_x | FO[{sid}]) & FN[{sid}]")
        bump = f"GC[0] = VER[{sid}] = GC[0] + 1"
        if track_change:
            w.line(f"if _vst(V, {sid}, _x): ch = True" + (f"; {bump}" if stamp else ""))
            return
        if _VNUM.match(code):
            # a folded constant may land as a bare int; normalize its shape
            w.line(f"_vsn(V, {sid}, _x)")
        else:
            # lane expressions always carry the full (planes, lanes) shape
            # (every V entry does, and shapes propagate), so the store helper
            # would only add call overhead on the hottest path in the kernel
            w.line(f"V[{sid}] = _x")
        if stamp:
            # being re-assigned is the event: no array compare
            w.line(bump)

    # ----------------------------------------------------------------- source
    def comb_block_call(self, node: BehavioralNode, fn_name: str, w: _Writer) -> None:
        w.line("upd = []")
        w.line(f"{fn_name}(V, M, FB, FO, FN, upd, None)")
        w.line("if _publish(upd, V, M, FB, FO, FN, VER, GC): ch = True")

    def fire_clocked(self, fn_names: Dict[int, str], fns: _Writer) -> None:
        design = self.design
        clocked_nodes = [n for n in design.behavioral_nodes if n.is_clocked]
        ep_index = {signal: i for i, signal in enumerate(edge_signals(design))}
        fns.line("def fire_clocked(V, M, EP, FB, FO, FN, VER, GC):")
        fns.indent()
        if not clocked_nodes:
            fns.line("return False")
        else:
            act_names = []
            for node in clocked_nodes:
                terms = []
                for edge in node.edges:
                    ep = f"EP[{ep_index[edge.signal]}][:1]"
                    cur = f"V[{edge.signal.sid}][:1]"
                    if edge.kind is EdgeKind.POSEDGE:
                        terms.append(f"((({ep} & _T1) == 0) & (({cur} & _T1) == 1))")
                    else:
                        terms.append(f"((({ep} & _T1) == 1) & (({cur} & _T1) == 0))")
                act = f"_a{node.bid}"
                act_names.append(act)
                fns.line(f"{act} = {' | '.join(terms)}")
            for signal, i in ep_index.items():
                fns.line(f"EP[{i}] = V[{signal.sid}]")
            fns.line(f"if not ({' | '.join(act_names)}).any():")
            fns.line("    return False")
            fns.line("upd = []")
            for node in clocked_nodes:
                fns.line(
                    f"if _a{node.bid}.any():"
                    f" {fn_names[node.bid]}(V, M, FB, FO, FN, upd, _a{node.bid})"
                )
            fns.line("_publish(upd, V, M, FB, FO, FN, VER, GC)")
            fns.line("return True")
        fns.dedent()
        fns.blank()

    def assemble(self, body: str) -> str:
        design = self.design
        head = _Writer()
        head.line(f"# repro vector codegen kernel v{VECTOR_VERSION}")
        head.line(f"# design: {design.name}")
        head.line("# lane layout: fault-major columns of uint64 plane arrays;")
        head.line("# the lane count is a runtime property of the value arrays,")
        head.line("# so one cached module serves every campaign width")
        head.line("import numpy as np")
        head.blank()
        parts = [head.source(), _VECTOR_RUNTIME, "\n"]
        if self._pool_lines:
            parts.append("\n".join(self._pool_lines) + "\n\n")
        parts.append(body)
        return "".join(parts)


def generate_vector_source(
    design: Design, passes: Optional[EmitterPasses] = None
) -> str:
    """Emit the lane-agnostic vector (NumPy) simulation module for ``design``.

    Unlike the packed mode there is no geometry baked into the source: lanes
    are array columns, so the same module serves 2 lanes and 4096.  Memory
    words are stored one ``uint64`` per lane, which bounds memory word width
    at 64 bits (every corpus memory is well under it; scalars of any width
    work through bit-sliced value planes).
    """
    design.check_finalized()
    for signal in design.signals:
        if signal.is_memory and signal.width > 64:
            raise SimulationError(
                f"vector mode stores memory words in single uint64 lanes; "
                f"memory {signal.name!r} of design {design.name!r} is "
                f"{signal.width} bits wide (> 64)"
            )
    return emit_kernel(design, _VectorEmitter(design, passes), passes)


def _pass_suffix(base: Optional[str], passes: EmitterPasses) -> Optional[str]:
    """Compose a cache-key suffix from a variant base and the pass config.

    The default configuration keeps the historical suffixes (and the serial
    ``None``); any non-default toggle combination appends ``-<suffix>`` (or
    becomes the suffix outright for the serial layout), so every pass
    configuration owns its own cache entry and sidecar.
    """
    frag = passes.suffix()
    if not frag:
        return base
    return frag if base is None else f"{base}-{frag}"


def load_vector_kernel(
    design: Design,
    use_cache: bool = True,
    passes: Optional[EmitterPasses] = None,
) -> Tuple[Dict[str, object], str, str, bool]:
    """Load the vector kernel through the persistent cache.

    The vector module is lane-agnostic, so — unlike the packed per-geometry
    keys — every campaign width shares ONE cache entry per design, under the
    ``vec{VECTOR_VERSION}`` suffix (plus the pass suffix for non-default
    pass configurations).
    """
    passes = coerce_passes(passes)
    return load_kernel_variant(
        design,
        lambda: generate_vector_source(design, passes),
        suffix=_pass_suffix(f"vec{VECTOR_VERSION}", passes),
        use_cache=use_cache,
    )


# -------------------------------------------------------------------- caching
def cache_dir() -> str:
    """The on-disk cache directory (``REPRO_CODEGEN_CACHE`` overrides it)."""
    override = os.environ.get(CACHE_ENV_VAR)
    if override:
        return override
    return os.path.join(os.path.expanduser("~"), ".cache", "repro-codegen")


def _cache_path(cache_key: str) -> str:
    return os.path.join(cache_dir(), f"{cache_key}.py")


def _sidecar_path(cache_key: str) -> str:
    """The marshal bytecode sidecar next to a cached source (per Python build)."""
    tag = sys.implementation.cache_tag or "python"
    return os.path.join(cache_dir(), f"{cache_key}.{tag}.bc")


def _atomic_write(path: str, data: bytes, prefix: str) -> None:
    """Best-effort atomic write into the cache directory."""
    try:
        os.makedirs(cache_dir(), exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(dir=cache_dir(), prefix=prefix, suffix=".tmp")
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp_path, path)
    except OSError:
        pass


#: In-process compiled-code memo keyed by the source digest: the serial
#: baselines construct one engine per fault, so within a process only the
#: first construction pays ``compile()`` (or the sidecar unmarshal).
_CODE_MEMO: Dict[str, CodeType] = {}


def _kernel_code(source: str, filename: str, cache_key: Optional[str]) -> CodeType:
    """Compiled code for ``source``, via the in-process memo and disk sidecar.

    The sidecar stores ``(source digest, code object)``; a digest mismatch
    (stale sidecar for a regenerated source) or any unmarshalling error falls
    back to compiling the source and rewriting the sidecar — corrupt entries
    heal themselves.
    """
    digest = hashlib.sha256(source.encode("utf-8")).hexdigest()
    sidecar = _sidecar_path(cache_key) if cache_key is not None else None
    code = _CODE_MEMO.get(digest)
    if code is not None:
        # memo hit in this process: still backfill the sidecar so the NEXT
        # process skips compile() too
        if sidecar is not None and not os.path.exists(sidecar):
            _atomic_write(sidecar, marshal.dumps((digest, code)), prefix="bc")
        return code
    if sidecar is not None:
        try:
            with open(sidecar, "rb") as handle:
                stored_digest, code = marshal.loads(handle.read())
            if stored_digest != digest or not isinstance(code, CodeType):
                code = None
        except (OSError, ValueError, EOFError, TypeError):
            code = None
    if code is None:
        code = compile(source, filename, "exec")
        if sidecar is not None:
            _atomic_write(sidecar, marshal.dumps((digest, code)), prefix="bc")
    _CODE_MEMO[digest] = code
    return code


def load_kernel(
    design: Design,
    use_cache: bool = True,
    layout: Optional[PackedLayout] = None,
    passes: Optional[EmitterPasses] = None,
) -> Tuple[Dict[str, object], str, str, bool]:
    """Return ``(namespace, source, fingerprint, cache_hit)`` for ``design``.

    ``layout=None`` loads the serial kernel; a :class:`PackedLayout` loads the
    packed variant, cached under a distinct key carrying the lane geometry.
    A non-default ``passes`` configuration extends the key with the pass
    suffix so every toggle combination owns its own entry.  See
    :func:`load_kernel_variant` for the cache behaviour.
    """
    passes = coerce_passes(passes)
    suffix = _pass_suffix(None if layout is None else layout.key, passes)

    def generate() -> str:
        if layout is None:
            return generate_source(design, passes)
        return generate_packed_source(design, layout, passes)

    return load_kernel_variant(design, generate, suffix=suffix, use_cache=use_cache)


def load_kernel_variant(
    design: Design,
    generate: Callable[[], str],
    suffix: Optional[str] = None,
    use_cache: bool = True,
) -> Tuple[Dict[str, object], str, str, bool]:
    """Load one variant of a generated kernel through the persistent cache.

    ``generate`` produces the variant's source on a cache miss; ``suffix``
    distinguishes the variant's cache entries from the serial kernel's (the
    packed and eraser emitters pass their format version + geometry here).
    Returns ``(namespace, source, fingerprint, cache_hit)``.

    On a cache hit the generation walk is skipped entirely; on a miss the
    generated source is written back atomically (best-effort: an unwritable
    cache directory degrades to generate-every-time, never to an error).

    The source file is deliberately re-read (and re-hashed) on every
    construction rather than memoized per cache key: the disk is the source
    of truth, which is what lets a corrupt or hand-edited entry be detected
    and regenerated mid-process.  Only the ``compile()`` step is memoized
    (keyed by source digest, so stale code can never be served).
    """
    fingerprint = design_fingerprint(design)
    cache_key = fingerprint if suffix is None else f"{fingerprint}-{suffix}"

    source: Optional[str] = None
    cache_hit = False
    path = _cache_path(cache_key)
    if use_cache:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
            cache_hit = True
        except OSError:
            source = None
    if source is None:
        source = generate()
        if use_cache:
            _atomic_write(path, source.encode("utf-8"), prefix=fingerprint)
    filename = f"<repro-codegen:{design.name}:{cache_key[:12]}>"
    sidecar_key = cache_key if use_cache else None
    try:
        namespace = _exec_kernel(source, filename, sidecar_key)
    except Exception:
        if not cache_hit:
            raise
        # corrupt / hand-edited cache entry: fall back to fresh generation
        source = generate()
        cache_hit = False
        namespace = _exec_kernel(source, filename, sidecar_key)
        try:
            os.unlink(path)
        except OSError:
            pass
    return namespace, source, fingerprint, cache_hit


def _exec_kernel(
    source: str, filename: str, cache_key: Optional[str] = None
) -> Dict[str, object]:
    namespace: Dict[str, object] = {}
    exec(_kernel_code(source, filename, cache_key), namespace)
    settles = "comb_pass" in namespace or "comb_once" in namespace
    if not settles or "fire_clocked" not in namespace:
        raise SimulationError(f"generated kernel {filename} is incomplete")
    return namespace


# ------------------------------------------------------------------ the engine
class CodegenEngine(TracedRun):
    """Cycle-based simulation on design-specialized generated Python code.

    Implements the same :class:`~repro.sim.kernel.SimulationKernel` protocol
    (and the same ``run``/``peek`` conveniences) as
    :class:`~repro.sim.engine.EventDrivenEngine`, and produces cycle-exact
    identical traces; only the cost model differs.

    ``force_hook`` must be a per-bit constant forcing function (the stuck-at
    contract) — it is probed per signal into OR/AND masks compiled into every
    write as a branch-on-mask guard.

    ``passes`` selects the emitter-pass configuration (``None``: all passes
    on).  With the event scheduler on, the engine owns the stamp state the
    kernel reads: per-signal version stamps ``VER`` (seeded to 1 so the first
    pass evaluates everything), per-node last-evaluation stamps ``LS`` (seeded
    to 0) and the global counter ``GC``.
    """

    def __init__(
        self,
        design: Design,
        force_hook: Optional[ForceHook] = None,
        use_cache: bool = True,
        passes: Optional[EmitterPasses] = None,
    ) -> None:
        design.check_finalized()
        self.design = design
        self.force_hook = force_hook
        self.passes = coerce_passes(passes)
        namespace, self.source, self.fingerprint, self.cache_hit = load_kernel(
            design, use_cache, passes=self.passes
        )
        # a kernel ships comb_once (feed-forward designs) or comb_pass
        self._comb_pass: Optional[Callable] = namespace.get("comb_pass")  # type: ignore
        self._comb_once: Optional[Callable] = namespace.get("comb_once")  # type: ignore
        self._fire_clocked: Callable = namespace["fire_clocked"]  # type: ignore
        count = len(design.signals)
        # event-scheduler stamp state (see the class docstring); allocated
        # unconditionally — with the scheduler off the kernel never reads LS
        # and only _publish/apply_input touch VER/GC, which stays cheap
        self.VER: List[int] = [1] * count
        self.LS: List[int] = [0] * scheduler_slot_count(design)
        self.GC: List[int] = [1]
        self.V: List[int] = [0] * count
        self.M: List[Optional[List[int]]] = [None] * count
        for signal in design.signals:
            if signal.is_memory:
                self.M[signal.sid] = [0] * signal.depth
        self.EP: List[int] = [0] * len(edge_signals(design))
        self._edge_sids = [signal.sid for signal in edge_signals(design)]
        self._out_sids = [signal.sid for signal in design.outputs]
        # forcing masks: value -> (value | FO[sid]) & FN[sid] when FA is set
        self.FA = force_hook is not None
        self.FO: List[int] = [0] * count
        self.FN: List[int] = [
            0 if signal.is_memory else signal.mask for signal in design.signals
        ]
        if force_hook is not None:
            for signal in design.signals:
                if signal.is_memory:
                    continue
                sid = signal.sid
                self.FO[sid] = force_hook(signal, 0) & signal.mask
                self.FN[sid] = force_hook(signal, signal.mask) & signal.mask
                # initial forcing on the all-zero state (matches the others)
                self.V[sid] = self.FO[sid]
        self._initialized = False

    @property
    def store(self) -> "_CodegenStore":
        """Value-store facade, built per access.

        Holding it in an attribute would tie the engine into a reference
        cycle, so every finished per-fault engine would wait for the cyclic
        garbage collector instead of being freed when its run ends.
        """
        return _CodegenStore(self)

    # ------------------------------------------------------------- evaluation
    def _settle_comb(self) -> None:
        V, M, FA, FO, FN = self.V, self.M, self.FA, self.FO, self.FN
        VER, LS, GC = self.VER, self.LS, self.GC
        once = self._comb_once
        if once is not None:
            # feed-forward: one levelized pass IS the fixed point
            once(V, M, FA, FO, FN, VER, LS, GC)
            return
        comb_pass = self._comb_pass
        for _ in range(MAX_PASSES):
            if not comb_pass(V, M, FA, FO, FN, VER, LS, GC):
                return
        raise ConvergenceError(
            f"design {self.design.name!r} did not converge within {MAX_PASSES} passes"
        )

    # ------------------------------------------------------- kernel protocol
    def initialize(self) -> None:
        """Establish a consistent combinational state from reset (idempotent)."""
        if self._initialized:
            return
        self._settle_comb()
        V, EP = self.V, self.EP
        for i, sid in enumerate(self._edge_sids):
            EP[i] = V[sid]
        self._initialized = True

    def apply_input(self, signal: Signal, value: int) -> None:
        """Drive one primary input (the :class:`SimulationKernel` interface)."""
        sid = signal.sid
        value &= signal.mask
        if self.FA:
            value = (value | self.FO[sid]) & self.FN[sid]
        if self.V[sid] != value:
            self.V[sid] = value
            self.GC[0] = self.VER[sid] = self.GC[0] + 1

    def settle(self) -> None:
        """Settle combinational logic and fire clocked logic until stable."""
        fire = self._fire_clocked
        V, M, EP, FA, FO, FN = self.V, self.M, self.EP, self.FA, self.FO, self.FN
        VER, GC = self.VER, self.GC
        for _ in range(MAX_PASSES):
            self._settle_comb()
            if not fire(V, M, EP, FA, FO, FN, VER, GC):
                return
        raise ConvergenceError(
            f"design {self.design.name!r}: clocked feedback did not settle"
        )

    # ------------------------------------------------------------------ debug
    def peek(self, name: str) -> int:
        signal = self.design.signal(name)
        if signal.is_memory:
            raise SimulationError(f"{name!r} is a memory; use peek_word")
        return self.V[signal.sid]

    def peek_word(self, name: str, index: int) -> int:
        signal = self.design.signal(name)
        words = self.M[signal.sid]
        if words is None:
            raise SimulationError(f"{name!r} is not a memory")
        return words[index] if 0 <= index < len(words) else 0


class _CodegenStore:
    """The minimal value-store facade the driver/baseline seams read through."""

    __slots__ = ("engine",)

    def __init__(self, engine: CodegenEngine) -> None:
        self.engine = engine

    def get(self, signal: Signal) -> int:
        return self.engine.V[signal.sid]

    def get_word(self, signal: Signal, index: int) -> int:
        words = self.engine.M[signal.sid]
        if words is None:
            raise SimulationError(f"{signal.name!r} is not a memory")
        return words[index] if 0 <= index < len(words) else 0

    def snapshot_outputs(self) -> Tuple[int, ...]:
        V = self.engine.V
        return tuple(V[sid] for sid in self.engine._out_sids)
