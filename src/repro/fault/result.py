"""The result record shared by every fault simulator in the package."""

from __future__ import annotations

from typing import Optional

from repro.core.stats import SimulationStats
from repro.fault.coverage import FaultCoverageReport


class FaultSimResult:
    """Outcome of one fault-simulation run.

    Attributes
    ----------
    simulator:
        Human-readable simulator name (``Eraser``, ``IFsim``...).
    coverage:
        The :class:`~repro.fault.coverage.FaultCoverageReport`.
    wall_time:
        Wall-clock seconds for the complete run.
    stats:
        Detailed counters (only the concurrent simulators fill all of them).
    partial:
        True when the campaign did not run to completion but its verdicts
        were salvaged — a multiprocess campaign with chunks no rung of its
        supervision could finish, whose result holds the cache hits and the
        completed chunks' detections.  Every detection in a partial result
        is real (the fault was detected at that cycle); what is unknown is
        the status of the faults that have no verdict yet.
    """

    __slots__ = ("simulator", "coverage", "wall_time", "stats", "partial")

    def __init__(
        self,
        simulator: str,
        coverage: FaultCoverageReport,
        wall_time: float,
        stats: Optional[SimulationStats] = None,
        partial: bool = False,
    ) -> None:
        """Bundle one run's coverage report, timing and counters."""
        self.simulator = simulator
        self.coverage = coverage
        self.wall_time = wall_time
        self.stats = stats if stats is not None else SimulationStats()
        self.partial = partial

    @property
    def fault_coverage(self) -> float:
        """Aggregate fault coverage in percent (see the coverage report)."""
        return self.coverage.coverage

    def speedup_over(self, other: "FaultSimResult") -> float:
        """Speedup of this run relative to ``other`` (other time / this time)."""
        if self.wall_time <= 0.0:
            return float("inf")
        return other.wall_time / self.wall_time

    def __repr__(self) -> str:
        """Simulator, coverage, wall time and (when salvaged) the partial flag."""
        partial = ", partial" if self.partial else ""
        return (
            f"FaultSimResult({self.simulator}: coverage={self.fault_coverage:.2f}%, "
            f"time={self.wall_time:.3f}s{partial})"
        )
