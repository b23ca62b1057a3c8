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

from typing import TYPE_CHECKING, List, Optional, Sequence

try:  # NumPy is the "vector" extra; the base install must import cleanly
    import numpy as np
except ImportError:  # pragma: no cover - exercised via _require_numpy tests
    np = None  # type: ignore[assignment]

from repro.errors import SimulationError
from repro.ir.design import Design
from repro.ir.signal import Signal
from repro.sim.codegen import load_vector_kernel, vector_planes
from repro.sim.emitter import (  # DEFAULT_VECTOR_WIDTH: re-export
    DEFAULT_VECTOR_WIDTH,
    EmitterPasses,
    coerce_passes,
)
from repro.sim.engine import ForceHook, GeneratedEngine
from repro.sim.packed import PackedCodegenSimulator, _lane_count
from repro.sim.stimulus import Stimulus

if TYPE_CHECKING:  # imported lazily at runtime to avoid a package import cycle
    from repro.fault.detection import ObservationManager
    from repro.fault.model import StuckAtFault


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


class VectorCodegenEngine(GeneratedEngine):
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
        super().__init__(design, force_hook, faults)
        self.lanes = lanes = _lane_count(self.faults, lanes)
        self.passes = coerce_passes(passes)
        namespace, self.source, self.fingerprint, self.cache_hit = load_vector_kernel(
            design, use_cache=use_cache, passes=self.passes
        )
        signals = design.signals
        # the int each primary input was last driven with: re-driving it is
        # no event (None until the first drive)
        self._held: List[Optional[int]] = [None] * len(signals)
        # per-lane forcing masks (the hook's masks in every lane, then each
        # fault's bit in its own lane) plus a per-signal forced flag FB: in a
        # W-fault word only the fault-site signals carry force bits, so every
        # other write skips the blend
        FO, FN = self.FO, self.FN
        for signal in signals:
            sid = signal.sid
            if signal.is_memory:
                FO[sid] = FN[sid] = None
                self.M[sid] = np.zeros((signal.depth, lanes), np.uint64)
                continue
            planes = vector_planes(signal.width)
            FO[sid] = _planes_full(FO[sid], planes, lanes)
            FN[sid] = _planes_full(FN[sid], planes, lanes)
        for lane, fault in enumerate(self.faults, start=1):
            plane, bit = fault.bit >> 6, fault.bit & 63
            sid = fault.signal.sid
            if fault.value:
                FO[sid][plane, lane] |= np.uint64(1 << bit)
            else:
                FN[sid][plane, lane] &= np.uint64(~(1 << bit) & 0xFFFFFFFFFFFFFFFF)
        self.FB: List[int] = [0] * len(signals)
        for signal in signals:
            if signal.is_memory:
                continue
            sid = signal.sid
            full = _planes_full(signal.mask, vector_planes(signal.width), lanes)
            if FO[sid].any() or not np.array_equal(FN[sid], full):
                self.FB[sid] = 1
        # initial forcing on the all-zero state (matches the other engines);
        # aliasing FO is safe — value arrays are replaced, never mutated
        V = self.V = list(FO)
        EP = self.EP = [np.zeros_like(V[sid]) for sid in self._edge_sids]
        M, FB, VER, LS, GC = self.M, self.FB, self.VER, self.LS, self.GC
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
        value &= signal.mask
        if self._held[sid] == value:
            return
        self._held[sid] = value
        arr = _planes_full(value, vector_planes(signal.width), self.lanes)
        if self.FB[sid]:
            arr = (arr | self.FO[sid]) & self.FN[sid]
        self.V[sid] = arr
        self.GC[0] = self.VER[sid] = self.GC[0] + 1

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
        Every list is updated in place: the kernel's argument tuples hold them.
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
        self.EP[:] = [ep[:, keep] for ep in self.EP]

    # ------------------------------------------------------------------ peeks
    def _lane(self, arr, lane: int) -> int:
        """Recombine one lane's value planes (or one memory row's word) into an int."""
        value = 0
        for plane in arr[..., lane].reshape(-1)[::-1]:
            value = (value << 64) | int(plane)
        return value

    def output_arrays(self) -> List[object]:
        """The ``(planes, lanes)`` arrays of every primary output (observation feed)."""
        V = self.V
        return [V[sid] for sid in self._out_sids]


class VectorFaultSimulator(PackedCodegenSimulator):
    """PPSFP fault simulation over array lanes: wide words, lane-level dropping.

    The fault list is consumed in words of ``width`` faults.  Each word runs
    the stimulus once on a :class:`VectorCodegenEngine`; every cycle the lane
    arrays of the outputs are compared against the good column and differing
    lanes are marked detected at that cycle — exactly the first-difference
    verdict the serial baselines produce, which the test-suite checks fault by
    fault.  With ``early_exit`` (the PPSFP equivalent of serial fault
    dropping) a word's run stops as soon as all of its lanes are detected.

    The options, ``on_detect`` included, and the word loop are
    :class:`~repro.sim.packed.PackedCodegenSimulator`'s; only the default
    width and what a word does with its detected lanes differ.
    """

    name = "VectorPPSFP"

    def __init__(
        self, design: Design, width: int = DEFAULT_VECTOR_WIDTH, **options: object
    ) -> None:
        """Build a campaign driver for ``design``; see the class docstring."""
        _require_numpy()
        super().__init__(design, width, **options)  # type: ignore[arg-type]

    def _run_word(
        self,
        stimulus: Stimulus,
        word: List[StuckAtFault],
        lanes: int,
        observation: ObservationManager,
    ) -> int:
        """Run one fault word through the stimulus; return the cycles simulated.

        ``lanes`` (the campaign's packed geometry) goes unused: the kernel is
        lane-agnostic, so a partial final word just runs with fewer columns —
        no padding lanes, no second cache entry.
        """
        from repro.sim.kernel import CycleDriver

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
