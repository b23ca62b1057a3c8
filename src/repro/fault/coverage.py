"""Fault coverage reporting.

Fault coverage — the paper's correctness metric (Table II) — is simply the
fraction of injected faults whose effect reached an observation point under
the given stimulus.  The report also keeps per-fault status so the test-suite
can compare different simulators fault by fault, which is a much stronger
parity check than the aggregate percentage alone.
"""

from __future__ import annotations

from typing import Dict, List

from repro.fault.detection import ObservationManager
from repro.fault.faultlist import FaultList


class FaultCoverageReport:
    """Per-fault detection status plus the aggregate coverage number."""

    def __init__(
        self,
        design_name: str,
        faults: FaultList,
        detected: Dict[int, int],
        simulator: str = "",
    ) -> None:
        """Build a report from a ``fault_id -> detection cycle`` mapping."""
        self.design_name = design_name
        self.simulator = simulator
        self.total_faults = len(faults)
        self.fault_names: List[str] = [fault.name for fault in faults]
        #: fault name -> detection cycle (only detected faults appear)
        self.detections: Dict[str, int] = {
            faults[fault_id].name: cycle for fault_id, cycle in detected.items()
        }

    # ------------------------------------------------------------------ stats
    @property
    def detected_count(self) -> int:
        """Number of faults with a detection verdict."""
        return len(self.detections)

    @property
    def undetected_count(self) -> int:
        """Number of faults without a detection verdict."""
        return self.total_faults - self.detected_count

    @property
    def coverage(self) -> float:
        """Fault coverage in percent (0 when the fault list is empty)."""
        if self.total_faults == 0:
            return 0.0
        return 100.0 * self.detected_count / self.total_faults

    def is_detected(self, fault_name: str) -> bool:
        """Was the named fault detected in this run?"""
        return fault_name in self.detections

    def detected_faults(self) -> List[str]:
        """Sorted names of the detected faults."""
        return sorted(self.detections)

    def undetected_faults(self) -> List[str]:
        """Sorted names of the faults without a detection verdict."""
        return sorted(set(self.fault_names) - set(self.detections))

    # ------------------------------------------------------------ comparisons
    def same_verdicts(self, other: "FaultCoverageReport") -> bool:
        """Do both reports agree on the detected/undetected status of every fault?"""
        return set(self.fault_names) == set(other.fault_names) and set(
            self.detections
        ) == set(other.detections)

    def disagreements(self, other: "FaultCoverageReport") -> List[str]:
        """Fault names whose verdict differs between the two reports."""
        mine = set(self.detections)
        theirs = set(other.detections)
        return sorted(mine.symmetric_difference(theirs))

    # --------------------------------------------------------------- builders
    @classmethod
    def from_observation(
        cls,
        design_name: str,
        faults: FaultList,
        manager: ObservationManager,
        simulator: str = "",
    ) -> "FaultCoverageReport":
        """Build a report from an :class:`ObservationManager`'s detections."""
        return cls(design_name, faults, dict(manager.detected), simulator)

    @classmethod
    def from_named_detections(
        cls,
        design_name: str,
        faults: FaultList,
        detections: Dict[str, int],
        simulator: str = "",
    ) -> "FaultCoverageReport":
        """Build a report from an already name-keyed detection mapping.

        The multiprocess merge path: workers speak fault *names* — the stable
        cross-process identity — so the parent assembles the campaign report
        without round-tripping through local fault ids.
        """
        report = cls(design_name, faults, {}, simulator)
        report.detections.update(detections)
        return report

    def __repr__(self) -> str:
        """Design, simulator and the detected/total coverage summary."""
        return (
            f"FaultCoverageReport({self.design_name}, {self.simulator}: "
            f"{self.detected_count}/{self.total_faults} = {self.coverage:.2f}%)"
        )
