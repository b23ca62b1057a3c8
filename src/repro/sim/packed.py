"""Bit-parallel (PPSFP) fault simulation on the packed codegen kernel.

Classic parallel-pattern single-fault propagation packs many machines into the
bit-lanes of one machine word; here the "word" is an arbitrary-precision
Python integer and the lanes are :class:`~repro.sim.codegen.PackedLayout`
fields: lane 0 carries the good machine, lanes 1..W-1 carry faulty machines.
One evaluation of the generated kernel (see
:func:`~repro.sim.codegen.generate_packed_source`) advances every machine at
once, so the per-fault cost of a campaign drops from one full re-simulation
per fault to ``1/W`` of one.

Two classes:

* :class:`PackedCodegenEngine` — a :class:`~repro.sim.kernel.SimulationKernel`
  over packed words.  With a fault word it simulates good + faulty machines
  concurrently; with a ``force_hook`` (or nothing) it degenerates to a
  single-lane engine, which is what makes ``engine="packed"`` selectable
  everywhere the other kernels are.
* :class:`PackedCodegenSimulator` — the fault-campaign driver: chunks the
  fault list into words of ``width`` faults, runs each word once, observes
  word-level through :meth:`~repro.fault.detection.ObservationManager.observe_packed`
  (XOR against the good lane) and drops faults at lane granularity: detected
  lanes are retired into copies of the good machine, and once every lane of
  a word is detected the word's run stops early and the next word is filled
  from the remaining list.

Fault forcing is per-lane mask injection at every write site: the same
branch-on-mask guard the serial codegen engine compiles in, with the OR/AND
masks carrying each lane's stuck-at bits at that lane's offset.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ConvergenceError, SimulationError
from repro.ir.design import Design
from repro.ir.signal import Signal
from repro.sim.codegen import PackedLayout, edge_signals, load_kernel, packed_stride
from repro.sim.emitter import EmitterPasses, coerce_passes, scheduler_slot_count
from repro.sim.engine import ForceHook, TracedRun
from repro.sim.kernel import MAX_PASSES
from repro.sim.stimulus import Stimulus

if TYPE_CHECKING:  # imported lazily at runtime to avoid a package import cycle
    from repro.fault.detection import ObservationManager
    from repro.fault.faultlist import FaultList
    from repro.fault.model import StuckAtFault
    from repro.fault.result import FaultSimResult

#: Default number of faulty machines packed into one word (lanes = width + 1):
#: the pick of the committed sweep, ``benchmarks/width_sweep.json``.
DEFAULT_WORD_WIDTH = 512


class PackedCodegenEngine(TracedRun):
    """Cycle-based simulation of ``W`` machines packed into one word per signal.

    Parameters
    ----------
    faults:
        Stuck-at faults for lanes 1..len(faults); lane 0 stays the good
        machine.  Mutually exclusive with ``force_hook``.
    force_hook:
        Single-machine forcing (the stuck-at contract shared with the other
        engines): the engine runs with one lane and the hook's masks pinned
        on it — the ``engine="packed"`` seam for the serial baselines.
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
        """Build (or cache-hit) the packed kernel for ``design``; see the class docs."""
        design.check_finalized()
        faults = list(faults)
        if faults and force_hook is not None:
            raise SimulationError("packed engine takes faults or force_hook, not both")
        if lanes is None:
            lanes = len(faults) + 1 if faults else 1
        if lanes < len(faults) + 1:
            raise SimulationError(
                f"{len(faults)} faults need at least {len(faults) + 1} lanes, got {lanes}"
            )
        self.design = design
        self.force_hook = force_hook
        self.faults = faults
        self.use_cache = use_cache
        self.passes = coerce_passes(passes)
        self.layout = PackedLayout(lanes, packed_stride(design))
        namespace, self.source, self.fingerprint, self.cache_hit = load_kernel(
            design, use_cache, layout=self.layout, passes=self.passes
        )
        # feed-forward designs ship the single-pass comb_once in place of
        # comb_pass (see repro.sim.emitter.emit_kernel)
        self._comb_pass: Optional[Callable] = namespace.get("comb_pass")  # type: ignore
        self._comb_once: Optional[Callable] = namespace.get("comb_once")  # type: ignore
        self._fire_clocked: Callable = namespace["fire_clocked"]  # type: ignore
        count = len(design.signals)
        # event-scheduler stamp state (the kernel only reads it when the
        # scheduler pass is on; _publish keeps VER maintained either way)
        self.VER: List[int] = [1] * count
        self.LS: List[int] = [0] * scheduler_slot_count(design)
        self.GC: List[int] = [1]
        ones = self._ones = self.layout.lane_ones
        stride = self.layout.stride
        # per-sid value masks: apply_input runs every cycle for every input
        self._masks: List[int] = [signal.mask for signal in design.signals]
        # per-lane forcing masks (value -> (value | FO[sid]) & FN[sid]) plus a
        # per-signal forced flag FB: in a W-fault word only the fault-site
        # signals carry force bits, so every other write skips the blend
        self.FO: List[int] = [0] * count
        self.FN: List[int] = [
            0 if signal.is_memory else signal.mask * ones for signal in design.signals
        ]
        if force_hook is not None:
            for signal in design.signals:
                if signal.is_memory:
                    continue
                sid = signal.sid
                self.FO[sid] = (force_hook(signal, 0) & signal.mask) * ones
                self.FN[sid] = (force_hook(signal, signal.mask) & signal.mask) * ones
        for lane, fault in enumerate(faults, start=1):
            offset = lane * stride + fault.bit
            if fault.value:
                self.FO[fault.signal.sid] |= 1 << offset
            else:
                self.FN[fault.signal.sid] &= ~(1 << offset)
        self.FB: List[int] = [0] * count
        for signal in design.signals:
            if signal.is_memory:
                continue
            sid = signal.sid
            if self.FO[sid] or self.FN[sid] != signal.mask * ones:
                self.FB[sid] = 1
        # the only signals whose forcing retire() can change
        self._fault_sids = sorted({fault.signal.sid for fault in faults})
        # initial forcing on the all-zero state (matches the other engines)
        self.V: List[int] = list(self.FO)
        self.M: List[Optional[List[int]]] = [None] * count
        for signal in design.signals:
            if signal.is_memory:
                self.M[signal.sid] = [0] * signal.depth
        self.EP: List[int] = [0] * len(edge_signals(design))
        self._edge_sids = [signal.sid for signal in edge_signals(design)]
        self._out_sids = [signal.sid for signal in design.outputs]
        self._initialized = False

    @property
    def store(self) -> "_PackedStore":
        """Lane-0 value-store facade, built per access.

        Holding it in an attribute would tie the engine into a reference
        cycle, so every finished word's state would wait for the cyclic
        garbage collector instead of being freed when the word ends.
        """
        return _PackedStore(self)

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
        word = (value & self._masks[sid]) * self._ones
        if self.FB[sid]:
            word = (word | self.FO[sid]) & self.FN[sid]
        if self.V[sid] != word:
            self.V[sid] = word
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

    # ------------------------------------------------------------- retirement
    def retire(self, lanes: Iterable[int]) -> None:
        """Turn the faulty ``lanes`` into copies of the good machine (mid-run).

        A detected lane's machine no longer matters, but left alone it keeps
        diverging from lane 0, and its addresses and shift amounts keep the
        runtime helpers (``_mrd``, ``_pshl``, ``_pshr``) on their per-lane
        paths.  Retiring copies lane 0's field into those lanes in every
        value, memory and edge word and clears their forcing bits, so from
        here on they compute exactly what lane 0 computes.  Lanes are
        independent, so every other lane's values — and every later verdict
        and detection cycle — are bit-identical to an unretired run.  A word
        that changed gets a fresh ``VER`` stamp, so the event scheduler
        re-evaluates its readers.
        """
        stride = self.layout.stride
        bases = 0
        for lane in lanes:
            if not 0 < lane < self.layout.lanes:
                raise SimulationError(f"cannot retire lane {lane} of {self.layout.lanes}")
            bases |= 1 << (lane * stride)
        if not bases:
            return
        field = (1 << stride) - 1
        keep = ~(field * bases)
        VER, GC = self.VER, self.GC
        V = self.V
        for sid, word in enumerate(V):
            new = (word & keep) | ((word & field) * bases)
            if new != word:
                V[sid] = new
                GC[0] = VER[sid] = GC[0] + 1
        for sid, words in enumerate(self.M):
            if words is None:
                continue
            changed = False
            for index, word in enumerate(words):
                new = (word & keep) | ((word & field) * bases)
                if new != word:
                    words[index] = new
                    changed = True
            if changed:
                GC[0] = VER[sid] = GC[0] + 1
        EP = self.EP
        for index, word in enumerate(EP):
            EP[index] = (word & keep) | ((word & field) * bases)
        FO, FN, FB, masks, ones = self.FO, self.FN, self.FB, self._masks, self._ones
        for sid in self._fault_sids:
            FO[sid] &= keep
            FN[sid] |= masks[sid] * bases
            FB[sid] = int(bool(FO[sid]) or FN[sid] != masks[sid] * ones)

    # ------------------------------------------------------------------ peeks
    def output_words(self) -> List[int]:
        """The packed words of every primary output (observation feed)."""
        V = self.V
        return [V[sid] for sid in self._out_sids]

    def peek(self, name: str, lane: int = 0) -> int:
        """Read one lane's current value of signal ``name`` (lane 0 = good)."""
        signal = self.design.signal(name)
        if signal.is_memory:
            raise SimulationError(f"{name!r} is a memory; use peek_word")
        return self.layout.lane_value(self.V[signal.sid], lane) & signal.mask

    def peek_word(self, name: str, index: int, lane: int = 0) -> int:
        """Read one lane's view of memory ``name`` at word ``index``."""
        signal = self.design.signal(name)
        words = self.M[signal.sid]
        if words is None:
            raise SimulationError(f"{name!r} is not a memory")
        if not 0 <= index < len(words):
            return 0
        return self.layout.lane_value(words[index], lane) & signal.mask


class _PackedStore:
    """Lane-0 value-store facade (what the driver/baseline seams read)."""

    __slots__ = ("engine",)

    def __init__(self, engine: PackedCodegenEngine) -> None:
        """Wrap ``engine``; all reads project out its lane 0."""
        self.engine = engine

    def get(self, signal: Signal) -> int:
        """Lane-0 (good machine) value of ``signal``."""
        return self.engine.layout.lane_value(self.engine.V[signal.sid], 0) & signal.mask

    def get_word(self, signal: Signal, index: int) -> int:
        """Lane-0 view of memory ``signal`` at word ``index``."""
        words = self.engine.M[signal.sid]
        if words is None:
            raise SimulationError(f"{signal.name!r} is not a memory")
        if not 0 <= index < len(words):
            return 0
        return self.engine.layout.lane_value(words[index], 0) & signal.mask

    def snapshot_outputs(self) -> Tuple[int, ...]:
        """Lane-0 values of every primary output, in design order."""
        engine = self.engine
        lane_mask = (1 << engine.layout.stride) - 1
        V = engine.V
        return tuple(V[sid] & lane_mask for sid in engine._out_sids)


class PackedCodegenSimulator:
    """PPSFP fault simulation: whole fault words per pass, lane-level dropping.

    The fault list is consumed in words of ``width`` faults.  Each word runs
    the stimulus once on a :class:`PackedCodegenEngine`; every cycle the
    packed outputs are XOR-compared against the good lane and differing lanes
    are marked detected at that cycle — exactly the first-difference verdict
    the serial baselines produce, which the test-suite checks fault by fault.
    With ``early_exit`` (the PPSFP equivalent of serial fault dropping) a
    word's run stops as soon as all of its lanes are detected.  Until then,
    detected lanes are retired in batches (:meth:`PackedCodegenEngine.retire`),
    so they stop diverging from the good machine.

    ``on_detect`` is a ``(fault_id, cycle)`` callback streamed through
    :class:`~repro.fault.detection.ObservationManager` the moment each lane
    drops — the workers of a pooled campaign point it at the shared
    :class:`~repro.sim.verdict_plane.VerdictPlane`.
    """

    name = "PackedPPSFP"

    def __init__(
        self,
        design: Design,
        width: int = DEFAULT_WORD_WIDTH,
        early_exit: bool = True,
        use_cache: bool = True,
        on_detect: Optional[Callable[[int, int], None]] = None,
        passes: Optional[EmitterPasses] = None,
    ) -> None:
        """Build a campaign driver for ``design``; see the class docstring.

        ``passes`` selects the emitter-pass configuration for the generated
        kernels.
        """
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
        #: Number of packed passes (fault words) the last run simulated.
        self.passes = 0

    def run(self, stimulus: Stimulus, faults: FaultList) -> FaultSimResult:
        """Fault-simulate ``faults``, packing ``width`` machines per pass."""
        from repro.fault.coverage import FaultCoverageReport
        from repro.fault.detection import ObservationManager
        from repro.fault.result import FaultSimResult

        stimulus.validate(self.design)
        start = time.perf_counter()
        observation = ObservationManager(self.design, faults, on_detect=self.on_detect)
        # one lane geometry for the whole campaign: a partial last word pads
        # with inert lanes instead of generating a second kernel
        lanes = min(self.width, len(faults)) + 1
        cycles = 0
        passes = 0
        for word in pack_fault_words(faults, self.width):
            cycles += self._run_word(stimulus, word, lanes, observation)
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
        lanes: int,
        observation: ObservationManager,
    ) -> int:
        """Run one fault word through the stimulus; return the cycles simulated."""
        from repro.sim.kernel import CycleDriver

        engine = PackedCodegenEngine(
            self.design,
            faults=word,
            lanes=lanes,
            use_cache=self.use_cache,
            passes=self.kernel_passes,
        )
        layout = engine.layout
        lane_faults: List[Optional[int]] = [None] + [f.fault_id for f in word]
        live = set(range(1, len(word) + 1))
        lane_field = (1 << layout.stride) - 1
        # all-ones fields over the live lanes; shrinks as lanes are detected
        state = {"mask": sum(lane_field << (lane * layout.stride) for lane in live)}
        # detected lanes still simulating their faulty machines
        unretired: List[int] = []

        def observer(cycle: int) -> bool:
            """Per-cycle strobe: record detections, drop and retire their lanes."""
            newly = observation.observe_packed(
                engine.output_words(), lane_faults, cycle, layout, state["mask"]
            )
            for lane in newly:
                live.discard(lane)
                state["mask"] &= ~(lane_field << (lane * layout.stride))
            if self.early_exit and not live:
                return True
            unretired.extend(newly)
            if unretired and len(unretired) >= len(live):
                # retire in batches, once the detected lanes still simulating
                # are at least as many as the live ones: a batch costs a walk
                # over every word plus re-evaluating what it changed, and each
                # one at least halves the lanes still simulating a fault, so a
                # word pays about log2(width) batches at most
                engine.retire(unretired)
                unretired.clear()
            return False

        stopped = CycleDriver(engine, stimulus).run(observer)
        return stimulus.num_cycles() if stopped is None else stopped + 1


def pack_fault_words(faults: FaultList, width: int) -> List[List[StuckAtFault]]:
    """Split a fault list into consecutive words of at most ``width`` faults."""
    flat = list(faults)
    return [flat[i : i + width] for i in range(0, len(flat), width)]


__all__ = [
    "DEFAULT_WORD_WIDTH",
    "PackedCodegenEngine",
    "PackedCodegenSimulator",
    "pack_fault_words",
]
