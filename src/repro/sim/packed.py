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
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence

from repro.errors import SimulationError
from repro.ir.design import Design
from repro.ir.signal import Signal
from repro.sim.codegen import PackedLayout, load_kernel, packed_stride
from repro.sim.emitter import EmitterPasses, coerce_passes
from repro.sim.engine import ForceHook, GeneratedEngine
from repro.sim.stimulus import Stimulus

if TYPE_CHECKING:  # imported lazily at runtime to avoid a package import cycle
    from repro.fault.detection import ObservationManager
    from repro.fault.faultlist import FaultList
    from repro.fault.model import StuckAtFault
    from repro.fault.result import FaultSimResult

#: Default number of faulty machines packed into one word (lanes = width + 1):
#: the pick of the committed sweep, ``benchmarks/width_sweep.json``.
DEFAULT_WORD_WIDTH = 512


def _lane_count(faults: Sequence[StuckAtFault], lanes: Optional[int]) -> int:
    """A lane word's size: the override, or one lane per fault plus the good one."""
    if lanes is None:
        return len(faults) + 1
    if lanes < len(faults) + 1:
        raise SimulationError(
            f"{len(faults)} faults need at least {len(faults) + 1} lanes, got {lanes}"
        )
    return lanes


class PackedCodegenEngine(GeneratedEngine):
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
        super().__init__(design, force_hook, faults)
        self.use_cache = use_cache
        self.passes = coerce_passes(passes)
        self.layout = PackedLayout(
            _lane_count(self.faults, lanes), packed_stride(design)
        )
        namespace, self.source, self.fingerprint, self.cache_hit = load_kernel(
            design, use_cache, layout=self.layout, passes=self.passes
        )
        ones = self._ones = self.layout.lane_ones
        stride = self.layout.stride
        # per-sid value masks: apply_input runs every cycle for every input
        self._masks: List[int] = [signal.mask for signal in design.signals]
        # per-lane forcing masks (the hook's masks in every lane, then each
        # fault's bit in its own lane) plus a per-signal forced flag FB: in a
        # W-fault word only the fault-site signals carry force bits, so every
        # other write skips the blend
        FO = self.FO = [fo * ones for fo in self.FO]  # type: ignore[operator]
        FN = self.FN = [fn * ones for fn in self.FN]  # type: ignore[operator]
        for lane, fault in enumerate(self.faults, start=1):
            offset = lane * stride + fault.bit
            if fault.value:
                FO[fault.signal.sid] |= 1 << offset
            else:
                FN[fault.signal.sid] &= ~(1 << offset)
        self.FB: List[int] = [
            int(not s.is_memory and (FO[s.sid] != 0 or FN[s.sid] != s.mask * ones))
            for s in design.signals
        ]
        # the only signals whose forcing retire() can change
        self._fault_sids = sorted({fault.signal.sid for fault in self.faults})
        # initial forcing on the all-zero state (matches the other engines)
        V = self.V = list(FO)
        M, EP, FB, VER, LS, GC = self.M, self.EP, self.FB, self.VER, self.LS, self.GC
        self._bind(
            namespace,
            (V, M, FB, FO, FN, VER, LS, GC),
            (V, M, EP, FB, FO, FN, VER, GC),
        )

    # perfbench's tracer wraps ``settle`` in this class's own dict
    # (``perfbench/spans.py``), so the shared loop is bound here too
    settle = GeneratedEngine.settle

    def apply_input(self, signal: Signal, value: int) -> None:
        """Drive one primary input to the same value on every lane (then force)."""
        sid = signal.sid
        word = (value & self._masks[sid]) * self._ones
        if self.FB[sid]:
            word = (word | self.FO[sid]) & self.FN[sid]
        if self.V[sid] != word:
            self.V[sid] = word
            self.GC[0] = self.VER[sid] = self.GC[0] + 1

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
    def _lane(self, word: int, lane: int) -> int:
        return self.layout.lane_value(word, lane)

    def output_words(self) -> List[int]:
        """The packed words of every primary output (observation feed)."""
        V = self.V
        return [V[sid] for sid in self._out_sids]


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
    """

    name = "PackedPPSFP"

    def __init__(
        self,
        design: Design,
        width: int = DEFAULT_WORD_WIDTH,
        early_exit: bool = True,
        use_cache: bool = True,
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
        observation = ObservationManager(self.design, faults)
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
