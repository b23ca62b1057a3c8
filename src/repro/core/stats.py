"""Counters and timers collected during concurrent fault simulation.

These statistics back the paper's redundancy analysis:

* Fig. 1(b) — the split between explicit and implicit redundancy,
* Table III — behavioral-node time share, total behavioral executions,
  eliminated executions and the explicit/implicit percentages.
"""

from __future__ import annotations

from typing import Dict


class SimulationStats:
    """Mutable statistics accumulated by one fault-simulation run."""

    __slots__ = (
        "cycles",
        "rtl_good_evaluations",
        "rtl_fault_evaluations",
        "bn_good_executions",
        "bn_fault_executions",
        "bn_fault_only_executions",
        "bn_explicit_eliminations",
        "bn_implicit_eliminations",
        "bn_potential_executions",
        "time_total",
        "time_behavioral",
        "time_rtl",
        "chunks_simulated",
        "chunks_quarantined",
        "chunks_failed",
        "chunk_retries",
        "cache_hits",
        "cache_misses",
        "cache_writes",
    )

    def __init__(self) -> None:
        self.cycles = 0
        self.rtl_good_evaluations = 0
        self.rtl_fault_evaluations = 0
        self.bn_good_executions = 0
        self.bn_fault_executions = 0
        self.bn_fault_only_executions = 0
        self.bn_explicit_eliminations = 0
        self.bn_implicit_eliminations = 0
        self.bn_potential_executions = 0
        self.time_total = 0.0
        self.time_behavioral = 0.0
        self.time_rtl = 0.0
        # campaign resilience counters (multiprocess campaigns only): how the
        # word-aligned chunks of a fault campaign actually finished.  A chunk
        # is *simulated* when a worker (or the inline run) finished it,
        # *quarantined* when repeated worker deaths/stalls degraded it to
        # inline execution, and *failed* when even the last resort could not
        # finish it (a partial result).
        self.chunks_simulated = 0
        self.chunks_quarantined = 0
        self.chunks_failed = 0
        self.chunk_retries = 0
        # persistent result-cache counters (campaigns run with ``cache=``):
        # faults resolved straight from the on-disk cache, faults that had to
        # be simulated, and fresh verdicts written back after the run
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_writes = 0

    # ------------------------------------------------------------- derived
    @property
    def bn_eliminations(self) -> int:
        """Total eliminated faulty behavioral executions."""
        return self.bn_explicit_eliminations + self.bn_implicit_eliminations

    @property
    def explicit_fraction(self) -> float:
        """Explicit eliminations as a fraction of potential executions (%)."""
        if self.bn_potential_executions == 0:
            return 0.0
        return 100.0 * self.bn_explicit_eliminations / self.bn_potential_executions

    @property
    def implicit_fraction(self) -> float:
        """Implicit eliminations as a fraction of potential executions (%)."""
        if self.bn_potential_executions == 0:
            return 0.0
        return 100.0 * self.bn_implicit_eliminations / self.bn_potential_executions

    @property
    def redundancy_fraction(self) -> float:
        """All eliminations as a fraction of potential executions (%)."""
        return self.explicit_fraction + self.implicit_fraction

    @property
    def behavioral_time_fraction(self) -> float:
        """Share of total run time spent in behavioral-node work (%)."""
        if self.time_total <= 0.0:
            return 0.0
        return 100.0 * self.time_behavioral / self.time_total

    # ------------------------------------------------------------- reporting
    def as_dict(self) -> Dict[str, float]:
        """Flat dictionary used by the harness and the tests."""
        return {
            "cycles": self.cycles,
            "rtl_good_evaluations": self.rtl_good_evaluations,
            "rtl_fault_evaluations": self.rtl_fault_evaluations,
            "bn_good_executions": self.bn_good_executions,
            "bn_fault_executions": self.bn_fault_executions,
            "bn_fault_only_executions": self.bn_fault_only_executions,
            "bn_explicit_eliminations": self.bn_explicit_eliminations,
            "bn_implicit_eliminations": self.bn_implicit_eliminations,
            "bn_potential_executions": self.bn_potential_executions,
            "bn_eliminations": self.bn_eliminations,
            "explicit_fraction": self.explicit_fraction,
            "implicit_fraction": self.implicit_fraction,
            "behavioral_time_fraction": self.behavioral_time_fraction,
            "time_total": self.time_total,
            "time_behavioral": self.time_behavioral,
            "time_rtl": self.time_rtl,
            "chunks_simulated": self.chunks_simulated,
            "chunks_quarantined": self.chunks_quarantined,
            "chunks_failed": self.chunks_failed,
            "chunk_retries": self.chunk_retries,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_writes": self.cache_writes,
        }

    def merge(self, other: "SimulationStats") -> "SimulationStats":
        """Accumulate another run's statistics into this one (in place)."""
        for field in self.__slots__:
            setattr(self, field, getattr(self, field) + getattr(other, field))
        return self

    def __repr__(self) -> str:
        return (
            "SimulationStats("
            f"potential={self.bn_potential_executions}, "
            f"explicit={self.bn_explicit_eliminations}, "
            f"implicit={self.bn_implicit_eliminations}, "
            f"executed={self.bn_fault_executions})"
        )
