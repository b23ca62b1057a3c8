"""The shared emitter core: one kernel walk, composable passes, one policy.

:func:`emit_kernel` is the walk behind all four generated kernels (serial,
packed, vector and Eraser), :class:`LaneBackend` the kernel skeletons their
backends share, :class:`EmitterPasses` holds the one pass toggle, and
:func:`choose_engine` and :func:`resolve_engine` are the ``engine="auto"``
policy.  ``docs/emitter.md`` is the reference for the passes, the cache keys
and the policy table.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.errors import SimulationError
from repro.ir.behavioral import BehavioralNode, EdgeKind
from repro.ir.design import Design
from repro.ir.rtlnode import RtlNode
from repro.ir.signal import Signal
from repro.ir.stmt import Assign, Stmt


@dataclass(frozen=True)
class EmitterPasses:
    """The toggleable emitter passes (see ``docs/emitter.md``).

    Instances are immutable and hashable, so a pass configuration can key
    memos and cache suffixes directly.  ``event_scheduler`` is honoured by
    every backend (the Eraser kernel always runs with it on); turning it off
    is how the perf gate's scheduler leg measures what it buys.
    """

    event_scheduler: bool = True

    def suffix(self) -> str:
        """Cache-key fragment: empty for the default, ``es0`` with the scheduler off."""
        return "" if self.event_scheduler else "es0"


#: The configuration every engine uses unless told otherwise: all passes on.
DEFAULT_PASSES = EmitterPasses()


def coerce_passes(passes: Optional[EmitterPasses]) -> EmitterPasses:
    """Normalize a ``passes=`` argument (``None`` means the default)."""
    if passes is None:
        return DEFAULT_PASSES
    if not isinstance(passes, EmitterPasses):
        raise SimulationError(
            f"passes must be an EmitterPasses (or None), got {passes!r}"
        )
    return passes


# ------------------------------------------------------------------ the writer
_ATOM = re.compile(r"(\w+|\d+)\Z")


class SourceWriter:
    """Indentation-aware line collector with a temp-name allocator.

    Shared by every emitter backend (serial/packed/vector/eraser).
    """

    def __init__(self) -> None:
        self.lines: List[str] = []
        self._indent = 0
        self._temps = 0

    def line(self, text: str) -> None:
        """Append one line at the current indentation."""
        self.lines.append("    " * self._indent + text)

    def blank(self) -> None:
        """Append an empty line."""
        self.lines.append("")

    def indent(self) -> None:
        """Increase the indentation by one level."""
        self._indent += 1

    def dedent(self) -> None:
        """Decrease the indentation by one level."""
        self._indent -= 1

    def temp(self) -> str:
        """Allocate a fresh temp name."""
        self._temps += 1
        return f"_t{self._temps}"

    def as_temp(self, code: str) -> str:
        """Bind ``code`` to a temp unless it is already an atom."""
        if _ATOM.match(code):
            return code
        name = self.temp()
        self.line(f"{name} = {code}")
        return name

    def source(self) -> str:
        """The collected source text."""
        return "\n".join(self.lines) + "\n"


# ----------------------------------------------------------- the shared walk
def rtl_schedule(design: Design) -> List[RtlNode]:
    """The levelized evaluation order: RTL nodes by level, then by node id."""
    return sorted(design.rtl_nodes, key=lambda n: (design.rtl_levels[n], n.nid))


def edge_signals(design: Design) -> List[Signal]:
    """Edge-sensitivity signals in first-occurrence order (the EP layout)."""
    seen: Set[Signal] = set()
    ordered: List[Signal] = []
    for bnode in design.behavioral_nodes:
        if not bnode.is_clocked:
            continue
        for edge in bnode.edges:
            if edge.signal not in seen:
                seen.add(edge.signal)
                ordered.append(edge.signal)
    return ordered


def rtl_acyclic(design: Design) -> bool:
    """True when every RTL node only reads strictly-lower-level driven signals.

    The levelizer breaks combinational loops arbitrarily, so a loop always
    leaves some node reading a same-or-higher-level driver — which is exactly
    what this checks for.  Signals without an RTL driver (inputs, registers,
    memories) are combinationally constant within a settle.
    """
    levels = design.rtl_levels
    for node in design.rtl_nodes:
        for read in node.reads:
            driver = design.driver.get(read)
            if driver is not None and levels[driver] >= levels[node]:
                return False
    return True


def scheduler_slot_count(design: Design) -> int:
    """Number of ``LS`` (last-evaluation stamp) slots a kernel needs.

    RTL nodes take slots ``0 .. len(rtl_nodes)-1`` in schedule order;
    level-sensitive behavioral blocks follow at ``len(rtl_nodes) + i``.
    Clocked blocks are activation-gated by edge detection and need no slot.
    """
    n_comb = sum(1 for node in design.behavioral_nodes if not node.is_clocked)
    return len(design.rtl_nodes) + n_comb


def open_scheduler_guard(
    w: SourceWriter, slot: int, read_signals: Iterable[Signal]
) -> None:
    """Emit the event-scheduler change guard and leave the writer indented.

    The guard reads the node's last-evaluation stamp, re-evaluates only when
    some read signal's version stamp moved past it, and stamps ``LS`` at
    evaluation START — so a commit landing later in the same pass (a comb
    always block feeding an RTL assign, a levelization-broken combinational
    loop, a self-loop write) is ordered after it and re-fires the node on the
    next pass.  A node with no reads is a constant: it evaluates exactly once
    (``LS`` still zero).  The caller emits the guarded body, then dedents.
    """
    ver_sids = sorted({signal.sid for signal in read_signals})
    w.line(f"_ls = LS[{slot}]")
    if ver_sids:
        w.line("if " + " or ".join(f"VER[{v}] > _ls" for v in ver_sids) + ":")
    else:
        w.line("if _ls == 0:")
    w.indent()
    w.line(f"LS[{slot}] = GC[0]")


def _by_sid(signals: Iterable[Signal]) -> List[Signal]:
    return sorted(signals, key=lambda signal: signal.sid)


class LaneBackend:
    """The kernel skeletons the serial, packed and vector backends share.

    A backend subclasses this and supplies only its spellings: ``context``
    (its read-context class), ``force`` (the forcing parameter: ``FA``, one
    flag per kernel, or ``FB``, one per signal), ``all_lanes`` (the
    predicate a level-sensitive block runs under; ``None`` for the
    unpredicated serial layout, whose block functions take no predicate),
    ``join`` and ``any_lane`` (how activation flags combine, and the suffix
    that reduces one to a truth value), ``overlay`` (a memory overlay's
    seed), the update-tuple formats ``scalar_update`` and ``memory_update``
    (see :meth:`close_block_fn`), and the methods ``edge(rising, old,
    new)``, ``stmt(stmt, ctx, w, pred)``, ``rtl_node`` and ``header()``.
    """

    context: type
    force = "FB"
    all_lanes: Optional[str] = None
    join = " | "
    any_lane = ""
    overlay = "{}"
    scalar_update: str
    memory_update: Tuple[str, str]

    def __init__(self, design: Design) -> None:
        self.design = design
        #: The constant pool (the ``const_pool`` pass): defining expression -> name.
        self._pool: Dict[str, str] = {}

    @property
    def comb_params(self) -> str:
        return f"V, M, {self.force}, FO, FN, VER, LS, GC"

    def read_context(self):
        return self.context()

    def pooled(self, init: str) -> str:
        """The module-level name bound to ``init``, which runs once at import."""
        name = self._pool.get(init)
        if name is None:
            name = self._pool[init] = f"_K{len(self._pool)}"
        return name

    def assemble(self, body: str) -> str:
        """The module: the backend's header, the constant pool, then ``body``."""
        pool = "".join(f"{name} = {init}\n" for init, name in self._pool.items())
        return self.header() + (pool + "\n" if pool else "") + body

    def body(self, stmts: List[Stmt], ctx, w: SourceWriter, pred: Optional[str]) -> None:
        """A statement list under ``pred``; an empty list is ``pass``."""
        if not stmts:
            w.line("pass")
        for stmt in stmts:
            self.stmt(stmt, ctx, w, pred)

    # -------------------------------------------------------- block functions
    def block_call(self, fn_name: str, pred: Optional[str]) -> str:
        """The call that runs block function ``fn_name`` on the lanes of ``pred``."""
        args = "" if self.all_lanes is None else f", {pred}"
        return f"{fn_name}(V, M, {self.force}, FO, FN, upd{args})"

    def block_pred(self, node: BehavioralNode) -> Optional[str]:
        """The predicate a block's body runs under: ``p``, the lanes it fires on."""
        return "p"

    def open_block_fn(self, w: SourceWriter, signature: str, node: BehavioralNode, context: type):
        """Open one ``always``-block function and seed its blocking locals.

        A blocking-written scalar lives in ``b<sid>``, seeded with the value
        ``context`` reads; a blocking-written memory's words in the overlay
        ``w<sid>``, seeded with ``overlay``; the non-blocking updates collect
        in ``n``.  Returns the body's read context.
        """
        scalars: Set[Signal] = set()
        memories: Set[Signal] = set()
        for top in node.body:
            for stmt in top.walk():
                if isinstance(stmt, Assign) and stmt.blocking:
                    target = stmt.lhs.signal
                    (memories if target.is_memory else scalars).add(target)
        ctx = context(frozenset(scalars), frozenset(memories))
        w.line(f"def {signature}:")
        w.indent()
        for signal in _by_sid(scalars):
            w.line(f"b{signal.sid} = {ctx.base_value(signal)}")
        for signal in _by_sid(memories):
            w.line(f"w{signal.sid} = {self.overlay}")
        w.line("n = []")
        return ctx

    def close_block_fn(self, w: SourceWriter, ctx) -> None:
        """Append the block's updates to ``upd``; the writer stays indented.

        The final values of blocking-written signals come first, published
        exactly like the interpreter's overlay: ``scalar_update`` formats one
        scalar's tuple, ``memory_update`` is the loop (or test) over one
        overlay and the tuple appended under it, both given ``sid`` and
        ``width``.  The non-blocking updates follow in execution order.
        """
        for signal in _by_sid(ctx.blocking_scalars):
            update = self.scalar_update.format(sid=signal.sid, width=signal.width)
            w.line(f"upd.append({update})")
        head, update = self.memory_update
        for signal in _by_sid(ctx.blocking_mems):
            w.line(head.format(sid=signal.sid))
            w.line(f"    upd.append({update.format(sid=signal.sid, width=signal.width)})")
        w.line("upd.extend(n)")

    def behavioral_fn(self, node: BehavioralNode, w: SourceWriter) -> str:
        """One flat function per ``always`` block, appending its updates to ``upd``."""
        name = f"_bn{node.bid}"
        # the signature spells the call, with the lane predicate named p
        ctx = self.open_block_fn(w, self.block_call(name, "p"), node, self.context)
        self.body(node.body, ctx, w, self.block_pred(node))
        self.close_block_fn(w, ctx)
        w.dedent()
        w.blank()
        return name

    # ------------------------------------------------------------ the regions
    def comb_block_call(self, node: BehavioralNode, fn_name: str, w: SourceWriter) -> None:
        w.line("upd = []")
        w.line(self.block_call(fn_name, self.all_lanes))
        w.line(f"if _publish(upd, V, M, {self.force}, FO, FN, VER, GC): ch = True")

    def fire_clocked(self, fn_names: Dict[int, str], w: SourceWriter) -> None:
        """The clocked (NBA) region: edge detection, then the blocks that fired.

        Every block that fired runs on the pre-commit state, and one
        ``_publish`` commits all their updates.
        """
        design = self.design
        clocked = [node for node in design.behavioral_nodes if node.is_clocked]
        ep_index = {signal: i for i, signal in enumerate(edge_signals(design))}
        w.line(f"def fire_clocked(V, M, EP, {self.force}, FO, FN, VER, GC):")
        w.indent()
        if not clocked:
            w.line("return False")
        else:
            for node in clocked:
                terms = [
                    self.edge(
                        edge.kind is EdgeKind.POSEDGE,
                        f"EP[{ep_index[edge.signal]}]",
                        f"V[{edge.signal.sid}]",
                    )
                    for edge in node.edges
                ]
                w.line(f"_a{node.bid} = {self.join.join(terms)}")
            for signal, i in ep_index.items():
                w.line(f"EP[{i}] = V[{signal.sid}]")
            fired = self.join.join(f"_a{node.bid}" for node in clocked)
            w.line(f"if not ({fired}){self.any_lane}:")
            w.line("    return False")
            w.line("upd = []")
            for node in clocked:
                act = f"_a{node.bid}"
                call = self.block_call(fn_names[node.bid], act)
                w.line(f"if {act}{self.any_lane}: {call}")
            w.line(f"_publish(upd, V, M, {self.force}, FO, FN, VER, GC)")
            w.line("return True")
        w.dedent()
        w.blank()


def emit_kernel(design: Design, backend, passes: Optional[EmitterPasses] = None) -> str:
    """The one walk behind every generated kernel: schedule + behavioral nodes.

    ``backend`` supplies the lane layout (how a value is represented and how
    one node's update is emitted); this function owns the levelized order,
    the settle skeleton, the scheduler guards, the acyclic ``comb_once``
    decision and the final assembly.  The backend protocol is duck-typed;
    :class:`LaneBackend` implements it for the serial, packed and vector
    layouts, and the Eraser backend extends the serial one:

    * ``comb_params`` — the parameter list of ``comb_pass``/``comb_once``
      (always ending in ``VER, LS, GC`` — the uniform kernel ABI; with the
      ``event_scheduler`` pass off the settle simply never reads ``LS``).
    * ``read_context()`` — the expression read-resolution context.
    * ``behavioral_fn(node, w)`` — emit the functions of one ``always``
      block, return the name its calls use.
    * ``rtl_node(node, ctx, w, track_change=..., stamp=...)`` — emit one RTL
      node update; ``stamp`` asks commits to bump the version stamps.
    * ``comb_block_call(node, fn_name, w)`` — emit the level-sensitive
      call + publish lines inside ``comb_pass``.
    * ``fire_clocked(fn_names, w)`` — emit the clocked (NBA) region.
    * ``assemble(body)`` — wrap the emitted functions with the module head
      and the constant pool.

    Returns the complete module source.
    """
    passes = coerce_passes(passes)
    design.check_finalized()
    schedule = rtl_schedule(design)
    comb_nodes = [n for n in design.behavioral_nodes if not n.is_clocked]
    slots: Dict[int, int] = {node.nid: i for i, node in enumerate(schedule)}
    comb_slots: Dict[int, int] = {
        node.bid: len(schedule) + i for i, node in enumerate(comb_nodes)
    }

    fns = SourceWriter()
    fn_names: Dict[int, str] = {}
    for node in design.behavioral_nodes:
        fn_names[node.bid] = backend.behavioral_fn(node, fns)

    ctx = backend.read_context()

    # feed-forward designs (no comb always blocks, acyclic RTL) reach the
    # combinational fixed point in ONE levelized pass: emit the straight-line
    # comb_once in place of the looped comb_pass, so the engine skips the
    # change tracking and the confirm pass
    track_change = bool(comb_nodes) or not rtl_acyclic(design)
    name = "comb_pass" if track_change else "comb_once"
    fns.line(f"def {name}({backend.comb_params}):")
    fns.indent()
    if track_change:
        fns.line("ch = False")
    for node in schedule:
        if passes.event_scheduler:
            open_scheduler_guard(fns, slots[node.nid], node.reads)
            backend.rtl_node(node, ctx, fns, track_change=track_change, stamp=True)
            fns.dedent()
        else:
            backend.rtl_node(node, ctx, fns, track_change=track_change)
    for node in comb_nodes:
        if passes.event_scheduler:
            open_scheduler_guard(fns, comb_slots[node.bid], node.reads)
            backend.comb_block_call(node, fn_names[node.bid], fns)
            fns.dedent()
        else:
            backend.comb_block_call(node, fn_names[node.bid], fns)
    fns.line("return ch" if track_change else "return False")
    fns.dedent()
    fns.blank()

    backend.fire_clocked(fn_names, fns)
    return backend.assemble(fns.source())


# ------------------------------------------------------------ the auto policy
#: Below this activity estimate a one-shot good-machine run keeps the
#: event-driven interpreter (it touches only the active cone and pays no
#: generation walk at all).
AUTO_LOW_ACTIVITY = 0.05

#: Minimum fault count for which a packed word beats serial codegen re-runs
#: (below it, most lanes of even one word would be empty).
AUTO_PACKED_MIN_FAULTS = 8

#: Fault count from which NumPy lane columns beat bigint lane words (the
#: array fixed costs amortize over hundreds of lanes per pass).
AUTO_VECTOR_MIN_FAULTS = 256

#: Stride above which bigint packed words grow painful (cost scales with
#: ``lanes * stride`` bits per Python int) and the vector layout wins from
#: moderate fault counts already.
AUTO_WIDE_STRIDE = 128

#: Default number of faulty machines per vector word, the width ``auto``
#: gives a campaign it sends to ``packed-numpy``.  Wider than the packed
#: default by design: array columns are cheap, and per-pass fixed costs
#: (stimulus replay, observation) amortize over more lanes.  It lives here,
#: not in :mod:`repro.sim.vector`, so reading it does not import NumPy.
DEFAULT_VECTOR_WIDTH = 1024


def choose_engine(
    fault_count: int,
    activity: float = 0.5,
    stride: Optional[int] = None,
    numpy_available: bool = False,
) -> str:
    """The pure ``engine="auto"`` policy (the table in ``docs/emitter.md``).

    ``fault_count`` is the number of faults the caller intends to simulate
    (0 or 1 mean an effectively single-machine run), ``activity`` the
    estimated fraction of the design active per cycle (``estimate_activity``
    provides a structural proxy), ``stride`` the packed lane width in bits
    (``None``: unknown, treated as narrow) and ``numpy_available`` whether
    the vector backend can run at all.  Deterministic and side-effect free —
    the table-driven tests in ``tests/test_auto_policy.py`` pin it row by
    row.
    """
    if fault_count < 0:
        raise SimulationError(f"fault_count must be >= 0, got {fault_count}")
    if fault_count <= 1:
        return "event" if activity < AUTO_LOW_ACTIVITY else "codegen"
    if fault_count < AUTO_PACKED_MIN_FAULTS:
        return "codegen"
    if numpy_available:
        if fault_count >= AUTO_VECTOR_MIN_FAULTS:
            return "packed-numpy"
        if stride is not None and stride > AUTO_WIDE_STRIDE and fault_count >= 64:
            return "packed-numpy"
    return "packed"


def estimate_activity(design: Design) -> float:
    """A structural proxy for the fraction of the design active per cycle.

    Real activity is stimulus-dependent; this estimate only has to separate
    small always-busy datapaths (ALUs, hash rounds — every node switches most
    cycles) from large control-dominated designs (CPU cores — most logic idles
    behind a few state machines).  Node count is the best static correlate
    the IR offers: activity falls roughly with design size, so the proxy is
    ``16 / (16 + rtl_nodes + behavioral_nodes)``, clamped to (0, 1].  The
    result is memoized on the design.
    """
    cached = design.content_memo.get("activity_estimate")
    if cached is not None:
        return cached  # type: ignore[return-value]
    nodes = len(design.rtl_nodes) + len(design.behavioral_nodes)
    activity = 16.0 / (16.0 + nodes)
    design.content_memo["activity_estimate"] = activity
    return activity


def numpy_is_available() -> bool:
    """Whether the vector (NumPy) backend can run in this process."""
    from repro.sim.vector import np

    return np is not None


def resolve_engine(
    design: Design,
    fault_count: int = 1,
    numpy_available: Optional[bool] = None,
) -> str:
    """Resolve ``engine="auto"`` for a concrete design.

    Applies :func:`choose_engine` with the design's derived activity estimate
    and packed stride, then downgrades ``packed-numpy`` to ``packed`` when
    the design sits outside the vector layout's envelope (memory words wider
    than 64 bits — see :func:`~repro.sim.codegen.generate_vector_source`).
    NumPy is probed (and so imported) only for a fault count the table can
    send to ``packed-numpy``.
    """
    from repro.sim.codegen import packed_stride

    if numpy_available is None:
        numpy_available = fault_count >= AUTO_PACKED_MIN_FAULTS and numpy_is_available()
    engine = choose_engine(
        fault_count,
        activity=estimate_activity(design),
        stride=packed_stride(design),
        numpy_available=numpy_available,
    )
    if engine == "packed-numpy" and not vector_capable(design):
        return "packed"
    return engine


def vector_capable(design: Design) -> bool:
    """Whether ``design`` fits the vector layout's memory-width envelope."""
    return all(
        not (signal.is_memory and signal.width > 64) for signal in design.signals
    )
