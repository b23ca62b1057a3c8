"""Observation points and fault detection.

The paper sets observation points at all output ports; an observation compares
each faulty machine's view of the outputs against the good values and marks
differing faults as detected.  Detected faults are *dropped*: they no longer
need to be simulated, which all compared simulators (and the real tools)
exploit.

Three usage styles are supported:

* the concurrent simulators call :meth:`ObservationManager.observe_concurrent`
  once per cycle with the live fault set and the concurrent value store;
* the serial baselines compare one faulty machine's output trace against the
  golden trace with :meth:`ObservationManager.compare_traces`;
* the packed (PPSFP) simulator calls :meth:`ObservationManager.observe_packed`
  once per cycle with the packed output words: every faulty lane is XOR-compared
  against the good lane word-parallel, and the differing-lane set is scanned
  out of the XOR word bit by bit.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

from repro.fault.faultlist import FaultList
from repro.ir.design import Design
from repro.ir.signal import Signal
from repro.sim.engine import SimulationTrace


class ObservationManager:
    """Tracks which faults have been detected at the observation points."""

    def __init__(self, design: Design, faults: FaultList) -> None:
        """Track detection over ``faults`` strobed at ``design``'s outputs."""
        self.design = design
        self.faults = faults
        self.observation_points: List[Signal] = list(design.outputs)
        self.detected: Dict[int, int] = {}  # fault_id -> cycle of first detection
        self.live: Set[int] = {fault.fault_id for fault in faults}

    # ----------------------------------------------------------------- status
    @property
    def detected_count(self) -> int:
        """Number of faults detected so far."""
        return len(self.detected)

    @property
    def live_count(self) -> int:
        """Number of faults still undetected."""
        return len(self.live)

    def is_detected(self, fault_id: int) -> bool:
        """Has ``fault_id`` been detected by *this* observation run?"""
        return fault_id in self.detected

    def detection_cycle(self, fault_id: int) -> Optional[int]:
        """First detection cycle of ``fault_id``, or ``None`` if undetected."""
        return self.detected.get(fault_id)

    def mark_detected(self, fault_id: int, cycle: int) -> bool:
        """Mark a fault as detected; returns True if it was still live."""
        if fault_id in self.live:
            self.live.discard(fault_id)
            self.detected[fault_id] = cycle
            return True
        return False

    # ------------------------------------------------------------- concurrent
    def observe_concurrent(self, store, cycle: int) -> List[int]:
        """Strobe the observation points in a concurrent value store.

        Any live fault whose view of an observation point differs from the
        good value is detected (and should then be dropped by the caller).
        Returns the list of newly detected fault ids.
        """
        newly: List[int] = []
        for signal in self.observation_points:
            divergences = store.div[signal]
            if not divergences:
                continue
            for fault_id in list(divergences.keys()):
                if fault_id in self.live:
                    self.mark_detected(fault_id, cycle)
                    newly.append(fault_id)
        return newly

    # ----------------------------------------------------------------- packed
    def observe_packed(
        self,
        output_words: Sequence[int],
        lane_fault_ids: Sequence[Optional[int]],
        cycle: int,
        layout,
        live_mask: Optional[int] = None,
    ) -> List[int]:
        """Strobe packed observation points: one word covers every machine.

        ``output_words`` holds one packed word per observation point (lane 0 =
        good machine); ``lane_fault_ids`` maps lane index -> fault id (``None``
        for the good lane and any padding lanes).  Each word is XOR-ed against
        its good lane replicated across the word, the accumulated difference
        word is scanned lane by lane (only set bits are visited), and every
        differing live lane is marked detected at ``cycle``.  ``live_mask``
        (a packed word with all-ones fields for the still-live lanes) confines
        the scan to lanes worth visiting — a detected lane keeps differing
        until the caller retires it into a copy of the good machine
        (:meth:`~repro.sim.packed.PackedCodegenEngine.retire`), so the caller
        should shrink the mask as lanes drop.  Returns the newly detected lane
        indices.
        """
        stride = layout.stride
        lane_mask = (1 << stride) - 1
        ones = layout.lane_ones
        diff = 0
        for word in output_words:
            good = word & lane_mask
            diff |= word ^ (good * ones)
        if live_mask is not None:
            diff &= live_mask
        newly: List[int] = []
        while diff:
            low = diff & -diff
            lane = (low.bit_length() - 1) // stride
            diff &= ~(lane_mask << (lane * stride))
            if lane >= len(lane_fault_ids):
                continue
            fault_id = lane_fault_ids[lane]
            if fault_id is not None and self.mark_detected(fault_id, cycle):
                newly.append(lane)
        return newly

    # ----------------------------------------------------------------- vector
    def observe_vector(
        self,
        output_arrays,
        lane_fault_ids: Sequence[Optional[int]],
        cycle: int,
        live=None,
    ) -> List[int]:
        """Strobe vector (NumPy) observation points: lanes are array columns.

        ``output_arrays`` holds one ``(planes, lanes)`` ``uint64`` array per
        observation point (lane 0 = good machine).  Each array is compared
        element-wise against its good column broadcast across the lanes, the
        per-lane difference flags are OR-accumulated, masked by the boolean
        ``live`` lane vector (the array analogue of ``observe_packed``'s
        ``live_mask`` — already-detected lanes keep differing every cycle, so
        the caller shrinks it as lanes drop), and every differing live lane is
        marked detected at ``cycle``.  Lanes beyond ``lane_fault_ids`` or
        mapped to ``None`` (the good lane, padding) are skipped.  Returns the
        newly detected lane indices.

        This module stays NumPy-free: the arrays arrive from the vector
        engine and only generic comparison/indexing methods are used.
        """
        diff = None
        for arr in output_arrays:
            d = (arr != arr[:, :1]).any(axis=0)
            diff = d if diff is None else (diff | d)
        if diff is None:
            return []
        if live is not None:
            diff = diff & live
        newly: List[int] = []
        for lane in diff.nonzero()[0].tolist():
            if lane >= len(lane_fault_ids):
                continue
            fault_id = lane_fault_ids[lane]
            if fault_id is not None and self.mark_detected(fault_id, cycle):
                newly.append(lane)
        return newly

    # ----------------------------------------------------------------- serial
    def compare_traces(
        self, golden: SimulationTrace, faulty: SimulationTrace, fault_id: int
    ) -> Optional[int]:
        """Compare a faulty output trace against the golden trace.

        Returns the first differing cycle (and records the detection), or
        ``None`` if the fault was not detected by this stimulus.
        """
        cycle = golden.first_difference(faulty)
        if cycle is not None:
            self.mark_detected(fault_id, cycle)
        return cycle
