"""Pinned work counters of the interpreted Eraser engine.

The paper's claims about Eraser are counts: how many faulty behavioral
executions were potential, how many the explicit and the implicit checks
eliminated, and how many ran.  Verdict parity alone cannot see a change to
those counts, so this module pins them.  Every corpus benchmark runs under
every :class:`~repro.core.framework.EraserMode` at one fixed shape, and each
counter in :data:`COUNTERS`, plus the detected-fault count, must equal the
committed table ``golden/eraser_counters.json``.

The table is data, not a snapshot this module writes: a missing or stale
entry fails.  A change that is meant to move a counter must say why and
commit the new table with it.  Whatever the counts, the committed rows must
also keep the ablation's invariants between the three modes.
"""

import json
import os

import pytest

from repro.core.framework import EraserMode, EraserSimulator
from repro.designs.registry import BENCHMARK_NAMES, get_benchmark
from repro.fault.faultlist import generate_stuck_at_faults, sample_faults

TABLE = os.path.join(os.path.dirname(__file__), "golden", "eraser_counters.json")

#: The run shape every row of the table was measured at.
SHAPE = {"cycles": 60, "faults": 64, "seed": 2025}

#: The :class:`~repro.core.stats.SimulationStats` counters that are pinned.
COUNTERS = (
    "cycles",
    "rtl_good_evaluations",
    "rtl_fault_evaluations",
    "bn_good_executions",
    "bn_fault_executions",
    "bn_fault_only_executions",
    "bn_explicit_eliminations",
    "bn_implicit_eliminations",
    "bn_potential_executions",
)


def measure(name: str, mode: EraserMode) -> dict:
    """One benchmark under one mode at :data:`SHAPE`: counters and detections."""
    design = get_benchmark(name).compile()
    stimulus = get_benchmark(name).stimulus(cycles=SHAPE["cycles"], seed=SHAPE["seed"])
    faults = sample_faults(
        generate_stuck_at_faults(design), SHAPE["faults"], seed=SHAPE["seed"]
    )
    result = EraserSimulator(design, mode=mode).run(stimulus, faults)
    row = {counter: getattr(result.stats, counter) for counter in COUNTERS}
    row["detected"] = len(result.coverage.detections)
    return row


def _table() -> dict:
    with open(TABLE, encoding="utf-8") as handle:
        return json.load(handle)


def test_table_matches_the_measured_shape():
    table = _table()
    assert table["shape"] == SHAPE
    assert sorted(table["rows"]) == sorted(
        f"{name}/{mode.value}" for name in BENCHMARK_NAMES for mode in EraserMode
    )


@pytest.mark.parametrize("mode", list(EraserMode), ids=lambda mode: mode.value)
@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_counters_match_the_committed_table(name, mode):
    expected = _table()["rows"][f"{name}/{mode.value}"]
    assert measure(name, mode) == expected


# ------------------------------------------------------ ablation invariants
@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_committed_rows_satisfy_the_ablation_invariants(name):
    """How the three modes' counters must relate, on every committed row.

    Each potential execution is eliminated explicitly, eliminated implicitly
    or executed.  The modes share potential executions, detections and (with
    elimination on) the explicit check; the implicit check only turns
    Eraser- executions into eliminations, and Eraser-- executes everything.
    """
    table = _table()["rows"]
    rows = {mode: table[f"{name}/{mode.value}"] for mode in EraserMode}
    for row in rows.values():
        assert (
            row["bn_explicit_eliminations"]
            + row["bn_implicit_eliminations"]
            + row["bn_fault_executions"]
            == row["bn_potential_executions"]
        )
    full = rows[EraserMode.FULL]
    explicit_only = rows[EraserMode.EXPLICIT_ONLY]
    none = rows[EraserMode.NO_ELIMINATION]
    for counter in ("bn_potential_executions", "detected"):
        assert full[counter] == explicit_only[counter] == none[counter]
    assert full["bn_explicit_eliminations"] == explicit_only["bn_explicit_eliminations"]
    assert (
        full["bn_implicit_eliminations"] + full["bn_fault_executions"]
        == explicit_only["bn_fault_executions"]
    )
    assert none["bn_fault_executions"] == none["bn_potential_executions"]
