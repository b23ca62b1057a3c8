"""Vectorized (NumPy) PPSFP fault simulation on the vector codegen kernel.

The packed backend stores all lanes in one arbitrary-precision Python int per
signal, which caps practical word width at a few hundred faulty machines and
taxes every operation with bigint overhead.  This backend breaks that ceiling:
lanes are *columns* of NumPy ``uint64`` arrays — one ``(planes, lanes)`` array per
signal, bit-sliced value planes for signals wider than 64 bits — and the
generated kernel (see :func:`~repro.sim.codegen.generate_vector_source`)
advances every lane with whole-array operations, so one pass carries hundreds
to thousands of faulty machines.

Two classes, mirroring :mod:`repro.sim.packed`:

* :class:`VectorCodegenEngine` — a :class:`~repro.sim.kernel.SimulationKernel`
  over lane arrays.  With a fault list it simulates good + faulty machines
  concurrently; with a ``force_hook`` (or nothing) it degenerates to a
  single-lane engine, which is what makes ``engine="packed-numpy"``
  selectable everywhere the other kernels are.
* :class:`VectorFaultSimulator` — the fault-campaign driver: chunks the fault
  list into words of ``width`` faults, runs each word once, observes through
  :meth:`~repro.fault.detection.ObservationManager.observe_vector`
  (element-wise compare against the good column) and drops faults at lane
  granularity via a boolean live vector — once every lane of a word is
  detected the word's run stops early.

Unlike the packed kernel the vector kernel is lane-agnostic (the lane count
is a property of the arrays, not the source), so every campaign width shares
one cached module per design and a partial final word simply runs with fewer
columns — no padding lanes.

NumPy is deliberately an optional dependency (``pip install "repro[vector]"``):
this module imports with or without it and raises a
:class:`~repro.errors.SimulationError` naming the extra only when a vector
engine is actually constructed.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple

try:  # NumPy is the "vector" extra; the base install must import cleanly
    import numpy as np
except ImportError:  # pragma: no cover - exercised via _require_numpy tests
    np = None  # type: ignore[assignment]

from repro.errors import ConvergenceError, SimulationError
from repro.ir.design import Design
from repro.ir.signal import Signal
from repro.sim.codegen import edge_signals, load_vector_kernel, vector_planes
from repro.sim.emitter import (  # DEFAULT_VECTOR_WIDTH: re-export
    DEFAULT_VECTOR_WIDTH,
    EmitterPasses,
    coerce_passes,
    scheduler_slot_count,
)
from repro.sim.engine import ForceHook, TracedRun
from repro.sim.kernel import MAX_PASSES
from repro.sim.stimulus import Stimulus

if TYPE_CHECKING:  # imported lazily at runtime to avoid a package import cycle
    from repro.fault.detection import ObservationManager
    from repro.fault.faultlist import FaultList
    from repro.fault.model import StuckAtFault
    from repro.fault.result import FaultSimResult


def _require_numpy() -> None:
    if np is None:
        raise SimulationError(
            'the "packed-numpy" engine needs NumPy, which the base install '
            "leaves out on purpose — install the vector extra: "
            'pip install "repro[vector]"'
        )


def _planes_full(value: int, planes: int, lanes: int):
    """A ``(planes, lanes)`` array holding ``value`` bit-sliced in every lane."""
    arr = np.empty((planes, lanes), np.uint64)
    for k in range(planes):
        arr[k] = np.uint64((value >> (64 * k)) & 0xFFFFFFFFFFFFFFFF)
    return arr


def _lane_int(arr, lane: int) -> int:
    """Recombine one lane column's value planes into a Python int."""
    value = 0
    for k in range(arr.shape[0] - 1, -1, -1):
        value = (value << 64) | int(arr[k, lane])
    return value


class VectorCodegenEngine(TracedRun):
    """Cycle-based simulation of ``L`` machines as columns of uint64 arrays.

    Parameters
    ----------
    faults:
        Stuck-at faults for lanes 1..len(faults); lane 0 stays the good
        machine.  Mutually exclusive with ``force_hook``.
    force_hook:
        Single-machine forcing (the stuck-at contract shared with the other
        engines): the engine runs with one lane and the hook's masks pinned
        on it — the ``engine="packed-numpy"`` seam for the serial baselines.
    lanes:
        Total lane count override (defaults to ``len(faults) + 1``, or 1).
    """

    def __init__(
        self,
        design: Design,
        force_hook: Optional[ForceHook] = None,
        faults: Sequence[StuckAtFault] = (),
        lanes: Optional[int] = None,
        use_cache: bool = True,
        passes: Optional[EmitterPasses] = None,
    ) -> None:
        """Build (or cache-hit) the vector kernel for ``design``; see the class docs."""
        _require_numpy()
        design.check_finalized()
        faults = list(faults)
        if faults and force_hook is not None:
            raise SimulationError("vector engine takes faults or force_hook, not both")
        if lanes is None:
            lanes = len(faults) + 1 if faults else 1
        if lanes < len(faults) + 1:
            raise SimulationError(
                f"{len(faults)} faults need at least {len(faults) + 1} lanes, got {lanes}"
            )
        self.design = design
        self.force_hook = force_hook
        self.faults = faults
        self.lanes = lanes
        self.passes = coerce_passes(passes)
        namespace, self.source, self.fingerprint, self.cache_hit = load_vector_kernel(
            design, use_cache=use_cache, passes=self.passes
        )
        # feed-forward designs ship the single-pass comb_once in place of
        # comb_pass (see repro.sim.emitter.emit_kernel)
        self._comb_pass: Optional[Callable] = namespace.get("comb_pass")  # type: ignore
        self._comb_once: Optional[Callable] = namespace.get("comb_once")  # type: ignore
        self._fire_clocked: Callable = namespace["fire_clocked"]  # type: ignore
        count = len(design.signals)
        # event-scheduler stamp state, seeded as CodegenEngine seeds it:
        # per-signal version stamps VER at 1 (so the first pass evaluates
        # everything), per-node last-evaluation stamps LS at 0, counter GC
        self.VER: List[int] = [1] * count
        self.LS: List[int] = [0] * scheduler_slot_count(design)
        self.GC: List[int] = [1]
        # the int each primary input was last driven with: re-driving it is
        # no event (None until the first drive)
        self._held: List[Optional[int]] = [None] * count
        # per-lane forcing masks (value -> (value | FO[sid]) & FN[sid]) plus a
        # per-signal forced flag FB: in a W-fault word only the fault-site
        # signals carry force bits, so every other write skips the blend
        self.FO: List[Optional[object]] = [None] * count
        self.FN: List[Optional[object]] = [None] * count
        for signal in design.signals:
            if signal.is_memory:
                continue
            planes = vector_planes(signal.width)
            if force_hook is not None:
                fo = force_hook(signal, 0) & signal.mask
                fn = force_hook(signal, signal.mask) & signal.mask
            else:
                fo, fn = 0, signal.mask
            self.FO[signal.sid] = _planes_full(fo, planes, lanes)
            self.FN[signal.sid] = _planes_full(fn, planes, lanes)
        for lane, fault in enumerate(faults, start=1):
            plane, bit = fault.bit >> 6, fault.bit & 63
            sid = fault.signal.sid
            if fault.value:
                self.FO[sid][plane, lane] |= np.uint64(1 << bit)
            else:
                self.FN[sid][plane, lane] &= np.uint64(
                    ~(1 << bit) & 0xFFFFFFFFFFFFFFFF
                )
        self.FB: List[int] = [0] * count
        for signal in design.signals:
            if signal.is_memory:
                continue
            sid = signal.sid
            full = _planes_full(signal.mask, vector_planes(signal.width), lanes)
            if self.FO[sid].any() or not np.array_equal(self.FN[sid], full):
                self.FB[sid] = 1
        # initial forcing on the all-zero state (matches the other engines);
        # aliasing FO is safe — value arrays are replaced, never mutated
        self.V: List[Optional[object]] = list(self.FO)
        self.M: List[Optional[object]] = [None] * count
        for signal in design.signals:
            if signal.is_memory:
                self.M[signal.sid] = np.zeros((signal.depth, lanes), np.uint64)
        self.EP: List[object] = [
            np.zeros_like(self.V[signal.sid]) for signal in edge_signals(design)
        ]
        self._edge_sids = [signal.sid for signal in edge_signals(design)]
        self._out_sids = [signal.sid for signal in design.outputs]
        self._initialized = False

    @property
    def store(self) -> "_VectorStore":
        """Lane-0 value-store facade, built per access.

        Holding it in an attribute would tie the engine into a reference
        cycle, so every finished word's arrays would wait for the cyclic
        garbage collector instead of being freed when the word ends.
        """
        return _VectorStore(self)

    # ------------------------------------------------------------- evaluation
    def _settle_comb(self) -> None:
        VER, LS, GC = self.VER, self.LS, self.GC
        if self._comb_once is not None:
            # provably feed-forward: one levelized pass IS the fixed point
            self._comb_once(self.V, self.M, self.FB, self.FO, self.FN, VER, LS, GC)
            return
        comb_pass = self._comb_pass
        V, M, FB, FO, FN = self.V, self.M, self.FB, self.FO, self.FN
        for _ in range(MAX_PASSES):
            if not comb_pass(V, M, FB, FO, FN, VER, LS, GC):
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
        """Drive one primary input to the same value on every lane (then force)."""
        sid = signal.sid
        value &= signal.mask
        if self._held[sid] == value:
            return
        self._held[sid] = value
        arr = _planes_full(value, vector_planes(signal.width), self.lanes)
        if self.FB[sid]:
            arr = (arr | self.FO[sid]) & self.FN[sid]
        self.V[sid] = arr
        self.GC[0] = self.VER[sid] = self.GC[0] + 1

    def settle(self) -> None:
        """Settle combinational logic and fire clocked logic until stable."""
        fire = self._fire_clocked
        V, M, EP, FB, FO, FN = self.V, self.M, self.EP, self.FB, self.FO, self.FN
        VER, GC = self.VER, self.GC
        for _ in range(MAX_PASSES):
            self._settle_comb()
            if not fire(V, M, EP, FB, FO, FN, VER, GC):
                return
        raise ConvergenceError(
            f"design {self.design.name!r}: clocked feedback did not settle"
        )

    # ------------------------------------------------------------- compaction
    def compact(self, keep) -> None:
        """Shrink every lane-indexed array to the ``keep`` columns.

        ``keep`` is an integer index array that must start with lane 0 (the
        good machine — observation compares against column 0).  Dropping
        detected lanes mid-run is semantics-free: their columns no longer
        feed anything that is observed.  Fancy indexing materializes fresh
        writable arrays, so broadcast views and in-place memories are both
        safe to reindex.  The event-scheduler stamps stay valid: every
        surviving column keeps its value, so nothing needs re-evaluating.
        """
        self.lanes = len(keep)
        V, M, FO, FN = self.V, self.M, self.FO, self.FN
        for sid in range(len(V)):
            if M[sid] is not None:
                M[sid] = M[sid][:, keep]
                continue
            if FO[sid] is not None:
                FO[sid] = FO[sid][:, keep]
                FN[sid] = FN[sid][:, keep]
            if V[sid] is not None:
                V[sid] = V[sid][:, keep]
        self.EP = [ep[:, keep] for ep in self.EP]

    # ------------------------------------------------------------------ peeks
    def output_arrays(self) -> List[object]:
        """The ``(planes, lanes)`` arrays of every primary output (observation feed)."""
        V = self.V
        return [V[sid] for sid in self._out_sids]

    def peek(self, name: str, lane: int = 0) -> int:
        """Read one lane's current value of signal ``name`` (lane 0 = good)."""
        signal = self.design.signal(name)
        if signal.is_memory:
            raise SimulationError(f"{name!r} is a memory; use peek_word")
        return _lane_int(self.V[signal.sid], lane) & signal.mask

    def peek_word(self, name: str, index: int, lane: int = 0) -> int:
        """Read one lane's view of memory ``name`` at word ``index``."""
        signal = self.design.signal(name)
        words = self.M[signal.sid]
        if words is None:
            raise SimulationError(f"{name!r} is not a memory")
        if not 0 <= index < words.shape[0]:
            return 0
        return int(words[index, lane]) & signal.mask


class _VectorStore:
    """Lane-0 value-store facade (what the driver/baseline seams read)."""

    __slots__ = ("engine",)

    def __init__(self, engine: VectorCodegenEngine) -> None:
        """Wrap ``engine``; all reads project out its lane 0."""
        self.engine = engine

    def get(self, signal: Signal) -> int:
        """Lane-0 (good machine) value of ``signal``."""
        return _lane_int(self.engine.V[signal.sid], 0) & signal.mask

    def get_word(self, signal: Signal, index: int) -> int:
        """Lane-0 view of memory ``signal`` at word ``index``."""
        words = self.engine.M[signal.sid]
        if words is None:
            raise SimulationError(f"{signal.name!r} is not a memory")
        if not 0 <= index < words.shape[0]:
            return 0
        return int(words[index, 0]) & signal.mask

    def snapshot_outputs(self) -> Tuple[int, ...]:
        """Lane-0 values of every primary output, in design order."""
        engine = self.engine
        V = engine.V
        return tuple(_lane_int(V[sid], 0) for sid in engine._out_sids)


class VectorFaultSimulator:
    """PPSFP fault simulation over array lanes: wide words, lane-level dropping.

    The fault list is consumed in words of ``width`` faults.  Each word runs
    the stimulus once on a :class:`VectorCodegenEngine`; every cycle the lane
    arrays of the outputs are compared against the good column and differing
    lanes are marked detected at that cycle — exactly the first-difference
    verdict the serial baselines produce, which the test-suite checks fault by
    fault.  With ``early_exit`` (the PPSFP equivalent of serial fault
    dropping) a word's run stops as soon as all of its lanes are detected.

    ``on_detect`` mirrors :class:`~repro.sim.packed.PackedCodegenSimulator`:
    a ``(fault_id, cycle)`` callback fired the moment each lane drops.
    """

    name = "VectorPPSFP"

    def __init__(
        self,
        design: Design,
        width: int = DEFAULT_VECTOR_WIDTH,
        early_exit: bool = True,
        use_cache: bool = True,
        on_detect: Optional[Callable[[int, int], None]] = None,
        passes: Optional[EmitterPasses] = None,
    ) -> None:
        """Build a campaign driver for ``design``; see the class docstring."""
        _require_numpy()
        design.check_finalized()
        if width < 1:
            raise SimulationError(f"fault word width must be >= 1, got {width}")
        self.design = design
        self.width = width
        self.early_exit = early_exit
        self.use_cache = use_cache
        self.on_detect = on_detect
        self.kernel_passes = coerce_passes(passes)
        from repro.core.stats import SimulationStats

        self.stats = SimulationStats()
        #: Number of vector passes (fault words) the last run simulated.
        self.passes = 0

    def run(self, stimulus: Stimulus, faults: FaultList) -> FaultSimResult:
        """Fault-simulate ``faults``, packing ``width`` machines per pass."""
        from repro.fault.coverage import FaultCoverageReport
        from repro.fault.detection import ObservationManager
        from repro.fault.result import FaultSimResult
        from repro.sim.packed import pack_fault_words

        stimulus.validate(self.design)
        start = time.perf_counter()
        observation = ObservationManager(self.design, faults, on_detect=self.on_detect)
        cycles = 0
        passes = 0
        for word in pack_fault_words(faults, self.width):
            cycles += self._run_word(stimulus, word, observation)
            passes += 1
        wall = time.perf_counter() - start
        self.stats.time_total = wall
        self.stats.cycles = cycles
        self.passes = passes
        coverage = FaultCoverageReport.from_observation(
            self.design.name, faults, observation, simulator=self.name
        )
        return FaultSimResult(self.name, coverage, wall, self.stats)

    def _run_word(
        self,
        stimulus: Stimulus,
        word: List[StuckAtFault],
        observation: ObservationManager,
    ) -> int:
        """Run one fault word through the stimulus; return the cycles simulated."""
        from repro.sim.kernel import CycleDriver

        # the kernel is lane-agnostic, so a partial final word just runs with
        # fewer columns — no padding lanes, no second cache entry
        engine = VectorCodegenEngine(
            self.design,
            faults=word,
            use_cache=self.use_cache,
            passes=self.kernel_passes,
        )
        lane_faults: List[Optional[int]] = [None] + [f.fault_id for f in word]
        live = np.zeros(engine.lanes, dtype=bool)
        live[1 : len(word) + 1] = True

        def observer(cycle: int) -> bool:
            """Per-cycle strobe: record detections, drop their lanes, compact."""
            nonlocal lane_faults, live
            newly = observation.observe_vector(
                engine.output_arrays(), lane_faults, cycle, live
            )
            for lane in newly:
                live[lane] = False  # lane-granular drop
            if not self.early_exit:
                return False
            alive = int(live.sum())
            if not alive:
                return True
            # lane compaction: once most of a word is detected, rebuild the
            # state arrays with only good + surviving columns, so the tail of
            # the stimulus pays for the stubborn faults alone.  Bigint words
            # keep their width instead: they retire detected lanes into
            # copies of the good machine (PackedCodegenEngine.retire), which
            # ends the lanes' divergence but not their share of every op.
            if alive + 1 <= (3 * engine.lanes) // 4 and engine.lanes > 8:
                keep = np.concatenate(([0], np.flatnonzero(live)))
                engine.compact(keep)
                lane_faults = [lane_faults[i] for i in keep]
                live = live[keep]
            return False

        stopped = CycleDriver(engine, stimulus).run(observer)
        return stimulus.num_cycles() if stopped is None else stopped + 1


__all__ = [
    "DEFAULT_VECTOR_WIDTH",
    "VectorCodegenEngine",
    "VectorFaultSimulator",
]
