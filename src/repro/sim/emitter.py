"""The shared emitter core: one kernel walk, composable passes, one policy.

Historically the package grew three separate codegen emitters — serial
(:func:`~repro.sim.codegen.generate_source`), packed PPSFP
(:func:`~repro.sim.codegen.generate_packed_source`) and vector/NumPy
(:func:`~repro.sim.codegen.generate_vector_source`) — plus the concurrent
eraser emitter, each re-implementing the same walk over the levelized RTL
schedule and the behavioral nodes.  The two newest each proved a speed trick
the older ones lacked: the **compiled event scheduler** (per-signal version
stamps + per-node last-evaluation stamps, so quiescent logic costs integer
compares) and the **single-pass `comb_once` settle** for acyclic feed-forward
designs.  This module factors the walk out once, so every lane layout gets
every trick, and each trick is an individually toggleable *pass*.

The pass pipeline
-----------------
A generated kernel is the composition of the passes in :data:`PASS_ORDER`:

* ``lane_layout`` — how values are represented: plain ints (serial), bigint
  lane words (packed) or NumPy plane/lane arrays (vector).  This is the
  backend itself, not a toggle: exactly one layout is always active.
* ``event_scheduler`` — wrap every RTL node and every level-sensitive
  behavioral block in a compiled change guard: each commit bumps a global
  counter ``GC[0]`` and stamps it into the written signal's ``VER`` slot, and
  a node re-evaluates only when some *read* carries a stamp newer than the
  node's own ``LS`` (last-evaluation) stamp.  Quiescent logic — the common
  case on mostly-idle CPU designs like picorv32/sodor — costs a few integer
  compares per pass.  Every layout honours it: the guard compares one int
  per read, never a lane value, so it is as cheap on NumPy lane arrays as on
  plain ints.
* ``comb_once`` — for designs with no level-sensitive ``always`` blocks and
  an acyclic RTL schedule, emit a straight-line single-pass settle
  ``comb_once`` (one levelized pass *is* the fixed point) *instead of* the
  looped ``comb_pass``, so the engine skips the change tracking and the
  confirm pass entirely.  A kernel ships exactly one of the two.
* ``predication`` — lane layouts with more than one machine per value
  (packed, vector) execute control flow fully predicated: branch bodies run
  under a per-lane predicate mask and every write is a mask blend.  Like
  ``lane_layout`` it is structural — required for lane-parallel correctness,
  forced off for the serial layout — so it carries no toggle.
* ``const_pool`` — hoist replicated lane constants to module-level names
  computed once at import instead of re-building them at every use site.  A
  no-op for the serial layout (constants are already literals).

The toggleable passes form :class:`EmitterPasses`; everything in the package
defaults to :data:`DEFAULT_PASSES` (all on).  The cross-engine differential
fuzz suite (``tests/test_fuzz_parity.py``) sweeps toggle combinations over
the whole benchmark corpus, so a miscompiled pass shows up as a verdict or
detection-cycle diff — never as a silent perf blip.

Cache-key composition
---------------------
Generated sources live in the persistent disk cache of
:mod:`repro.sim.codegen` keyed by ``design_fingerprint(design)`` (which
embeds ``CODEGEN_VERSION``) plus a per-variant suffix:

* serial, default passes — no suffix (the fingerprint alone);
* packed — ``p<PACKED_VERSION>-<lanes>x<stride>``;
* vector — ``vec<VECTOR_VERSION>``;
* any non-default pass configuration appends ``-<EmitterPasses.suffix()>``
  (e.g. ``-es0co1cp1``), so every toggle combination has its own entry and a
  stale sidecar can never serve the wrong variant.

The ``auto`` engine policy
--------------------------
:func:`choose_engine` is the documented, *pure* policy behind
``engine="auto"``: given a fault count, a design-activity estimate, the
packed lane stride and NumPy availability it picks one of the fixed engines:

====================================  =======================================
condition                             engine
====================================  =======================================
``fault_count <= 1`` and
``activity < AUTO_LOW_ACTIVITY``      ``event`` (one-shot good-machine runs
                                      on mostly-idle designs do not amortize
                                      the generation walk)
``fault_count <= 1`` otherwise        ``codegen``
``2 <= fault_count <
AUTO_PACKED_MIN_FAULTS``              ``codegen`` (a packed word would carry
                                      mostly empty lanes)
``fault_count >=
AUTO_VECTOR_MIN_FAULTS`` with NumPy   ``packed-numpy``
wide-stride designs (``stride >
AUTO_WIDE_STRIDE``) at ``>= 64``
faults with NumPy                     ``packed-numpy`` (bigint words grow
                                      with ``lanes * stride``; plane arrays
                                      do not)
everything else                       ``packed``
====================================  =======================================

:func:`resolve_engine` applies the same table for a concrete design (deriving
activity and stride, probing NumPy) and downgrades ``packed-numpy`` when the
design is outside the vector layout's envelope (memory words wider than 64
bits).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields, replace
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
    """The individually-toggleable emitter passes (see the module docstring).

    Instances are immutable and hashable, so a pass configuration can key
    memos and cache suffixes directly.  ``event_scheduler`` and ``comb_once``
    are honoured by every backend (and the eraser emitter always runs with
    both on); ``const_pool`` by the packed and vector backends.  A toggle a
    backend cannot honour (the serial layout has no constant pool) is
    silently inert there — the configuration still gets its own cache
    suffix, so entries never alias.
    """

    event_scheduler: bool = True
    comb_once: bool = True
    const_pool: bool = True

    def suffix(self) -> str:
        """Cache-key fragment: empty for the default, unique per configuration."""
        if self == DEFAULT_PASSES:
            return ""
        return (
            f"es{int(self.event_scheduler)}"
            f"co{int(self.comb_once)}"
            f"cp{int(self.const_pool)}"
        )

    def with_toggle(self, **toggles: bool) -> "EmitterPasses":
        """A copy with the given toggles replaced."""
        return replace(self, **toggles)

    def describe(self) -> str:
        """Human-readable toggle summary (for logs and benchmark labels)."""
        parts = [
            f"{field.name}={'on' if getattr(self, field.name) else 'off'}"
            for field in fields(self)
        ]
        return ", ".join(parts)

    @classmethod
    def all_configurations(cls) -> Tuple["EmitterPasses", ...]:
        """Every toggle combination (2^N), default first."""
        names = [field.name for field in fields(cls)]
        configs = []
        for bits in range(1 << len(names)):
            configs.append(
                cls(**{name: not (bits >> i) & 1 for i, name in enumerate(names)})
            )
        return tuple(configs)


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

    Shared by every emitter backend (serial/packed/vector/eraser); the
    historical name ``_Writer`` stays importable from
    :mod:`repro.sim.codegen`.
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
    * ``assemble(body)`` — wrap the emitted functions with the module head,
      runtime helpers and constant pool.

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
    track_change = not (passes.comb_once and not comb_nodes and rtl_acyclic(design))
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
    """The pure ``engine="auto"`` policy (see the module docstring's table).

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
    if engine == "packed-numpy" and any(
        signal.is_memory and signal.width > 64 for signal in design.signals
    ):
        return "packed"
    return engine


def vector_capable(design: Design) -> bool:
    """Whether ``design`` fits the vector layout's memory-width envelope."""
    return all(
        not (signal.is_memory and signal.width > 64) for signal in design.signals
    )
