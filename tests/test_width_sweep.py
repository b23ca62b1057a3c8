"""The committed packed width sweep decides ``DEFAULT_WORD_WIDTH``.

``benchmarks/width_sweep.py`` times the packed campaign, in this process and
over the process pool, on every corpus design and a short-stimulus row at
several word widths, and writes ``benchmarks/width_sweep.json``.  These
tests re-apply the script's rule to the committed numbers, so the default
cannot drift from the measurement that chose it, and check that every run
reached the same verdicts.
"""

import importlib.util
import json
import os

from repro.designs.registry import BENCHMARK_NAMES
from repro.sim.packed import DEFAULT_WORD_WIDTH

BENCHMARKS = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks")


def _sweep_module():
    path = os.path.join(BENCHMARKS, "width_sweep.py")
    spec = importlib.util.spec_from_file_location("width_sweep", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _report():
    with open(os.path.join(BENCHMARKS, "width_sweep.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _seconds(report):
    """Every round's seconds per width of every (row, leg) run, keyed as the script keys them."""
    return {
        f"{label} {leg}": {int(width): rounds for width, rounds in times.items()}
        for label, row in report["rows"].items()
        for leg, times in row["seconds"].items()
    }


def test_committed_sweep_covers_the_corpus_with_equal_verdicts():
    report = _report()
    rows = report["rows"].values()
    assert {row["design"] for row in rows} == set(BENCHMARK_NAMES)
    # at least one row where most faults stay undetected, so retirement
    # rarely fires and every word runs to the end of the stimulus
    assert any(2 * row["detected"] < row["faults"] for row in rows)
    for label, row in report["rows"].items():
        assert sorted(row["digests"]) == sorted(report["meta"]["legs"]), label
        for digests in row["digests"].values():
            assert sorted(int(width) for width in digests) == report["meta"]["widths"]
        found = {value for digests in row["digests"].values() for value in digests.values()}
        assert len(found) == 1, f"{label}: runs disagree on the verdicts"


def test_default_width_is_the_sweeps_pick():
    report = _report()
    seconds = _seconds(report)
    assert len(seconds) == len(report["rows"]) * len(report["meta"]["legs"])
    for times in seconds.values():
        assert all(len(rounds) == report["meta"]["repeats"] for rounds in times.values())
    rule = _sweep_module().recommend(seconds, report["meta"]["widths"])
    assert rule["recommended_width"] == report["recommended_width"]
    assert rule["no_slower_than_baseline"] == report["no_slower_than_baseline"]
    assert report["recommended_width"] == DEFAULT_WORD_WIDTH


def test_rule_skips_a_width_slower_than_the_baseline_beyond_its_noise():
    recommend = _sweep_module().recommend
    baseline = [1.0, 1.0, 1.1, 1.2]  # median 1.05, quartiles 1.0 and 1.175
    times = {
        "a": {64: baseline, 128: [0.5] * 4, 256: [0.2] * 4},
        "b": {64: baseline, 128: [1.1] * 4, 256: [1.5] * 4},
    }
    rule = recommend(times, [64, 128, 256])
    # 128 is 0.05 s above the baseline on "b", inside its 0.175 s spread;
    # 256 is 0.45 s above it
    assert rule["no_slower_than_baseline"] == [64, 128]
    assert rule["within_noise_of_baseline"][128] == ["b"]
    assert rule["recommended_width"] == 128
