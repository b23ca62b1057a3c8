"""The shared emitter core: one kernel walk, composable passes, one policy.

:func:`emit_kernel` is the walk behind the serial, packed and vector kernels
(the Eraser emitter shares its scheduler guard), :class:`EmitterPasses`
holds the one pass toggle, and :func:`choose_engine` and
:func:`resolve_engine` are the ``engine="auto"`` policy.
``docs/emitter.md`` is the reference for the passes, the cache keys and the
policy table.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.errors import SimulationError
from repro.ir.design import Design
from repro.ir.rtlnode import RtlNode
from repro.ir.signal import Signal

#: Fixed order of the emitter passes (structural passes included).  Toggles
#: ride in :class:`EmitterPasses`; the order itself is part of the generated
#: source contract and is pinned by ``tests/test_emitter_passes.py``.
PASS_ORDER: Tuple[str, ...] = (
    "lane_layout",
    "event_scheduler",
    "comb_once",
    "predication",
    "const_pool",
)


@dataclass(frozen=True)
class EmitterPasses:
    """The toggleable emitter passes (see ``docs/emitter.md``).

    Instances are immutable and hashable, so a pass configuration can key
    memos and cache suffixes directly.  ``event_scheduler`` is honoured by
    every backend (the eraser emitter always runs with it on); turning it off
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


def emit_kernel(design: Design, backend, passes: Optional[EmitterPasses] = None) -> str:
    """The one walk behind every generated kernel: schedule + behavioral nodes.

    ``backend`` supplies the lane layout (how a value is represented and how
    one node's update is emitted); this function owns everything the three
    historical emitters used to duplicate: the levelized order, the
    settle skeleton, the scheduler-guard scaffolding, the acyclic
    ``comb_once`` decision and the final assembly.  The backend protocol
    (duck-typed; see ``_SerialBackend`` and friends in
    :mod:`repro.sim.codegen`):

    * ``comb_params`` — the parameter list of ``comb_pass``/``comb_once``
      (always ending in ``VER, LS, GC`` — the uniform kernel ABI; with the
      ``event_scheduler`` pass off the settle simply never reads ``LS``).
    * ``read_context()`` — the expression read-resolution context.
    * ``behavioral_fn(node, w)`` — emit one ``always``-block function, return
      its name.
    * ``rtl_node(node, ctx, w, track_change=..., stamp=...)`` — emit one RTL
      node update; ``stamp`` asks commits to bump the version stamps.
    * ``comb_block_call(node, fn_name, w)`` — emit the level-sensitive
      call + publish lines inside ``comb_pass``.
    * ``fire_clocked(fn_names, w)`` — emit the clocked (NBA) region.
    * ``assemble(body)`` — wrap the emitted functions with the module head
      (the serial ``_publish``, or the packed or vector runtime import) and
      the constant pool.

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
