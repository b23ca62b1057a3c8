"""The perf gate's table of legs decides what CI enforces.

``benchmarks/perf_gate.py`` times each leg's sides and gates each ratio on
the leg's floor and on the committed ``BENCH_baseline.json``.  These tests
load the script (as ``tests/test_width_sweep.py`` loads the width sweep)
and check its decisions on synthetic reports, that a smoke run of every leg
writes the committed baseline's schema and runs every cross-check, and that
the README's perf-gate table lists every leg's metric, workload and floor.
"""

import importlib.util
import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BASELINE = ROOT / "benchmarks" / "BENCH_baseline.json"


@pytest.fixture(scope="module")
def perf_gate():
    path = ROOT / "benchmarks" / "perf_gate.py"
    spec = importlib.util.spec_from_file_location("perf_gate", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_floors_and_tolerance_keep_their_values(perf_gate):
    """Lowering a floor or widening the tolerance takes an edit here."""
    assert {leg.metric: leg.floor for leg in perf_gate.LEGS} == {
        "speedup_codegen_vs_event": 3.0,
        "speedup_packed_vs_serial_codegen": 8.0,
        "speedup_vector_vs_packed": 2.0,
        "speedup_eraser_codegen_vs_interp": 3.0,
        "speedup_process_vs_packed": 1.5,
        "speedup_warm_vs_cold": 5.0,
        "speedup_scheduler_vs_flat": 1.5,
        "ratio_auto_vs_best_fixed": 0.9,
    }
    assert len(perf_gate.LEGS) == 8
    assert perf_gate.TOLERANCE == 0.20


# ------------------------------------------------------------------- gate()
def _passing_report(perf_gate):
    """Every leg's metric at twice its floor on the benchmark it binds on."""
    report = {leg.section: {} for leg in perf_gate.LEGS}
    for leg in perf_gate.LEGS:
        report[leg.section].setdefault(leg.gated, {})[leg.metric] = 2 * leg.floor
    return report


def _failures(perf_gate, report, baseline, capsys):
    """The failures ``gate()`` prints, checked against its exit status."""
    status = perf_gate.gate(report, baseline)
    lines = capsys.readouterr().out.splitlines()
    failures = [line[len("  - ") :] for line in lines if line.startswith("  - ")]
    assert status == (1 if failures else 0)
    return failures


def test_a_metric_under_its_floor_fails_that_leg_only(perf_gate, capsys):
    assert _failures(perf_gate, _passing_report(perf_gate), {}, capsys) == []
    for leg in perf_gate.LEGS:
        report = _passing_report(perf_gate)
        report[leg.section][leg.gated][leg.metric] = leg.floor - 0.01
        [failure] = _failures(perf_gate, report, {}, capsys)
        assert failure.startswith(f"{leg.gated}: {leg.metric} ")


def test_a_ratio_past_the_tolerance_under_its_baseline_fails(perf_gate, capsys):
    for leg in perf_gate.LEGS:
        committed = 10 * leg.floor
        baseline = {leg.section: {leg.gated: {leg.metric: committed}}}
        limit = committed * (1.0 - perf_gate.TOLERANCE)
        report = _passing_report(perf_gate)
        report[leg.section][leg.gated][leg.metric] = limit + 0.01
        assert _failures(perf_gate, report, baseline, capsys) == []
        report[leg.section][leg.gated][leg.metric] = limit - 0.01
        [failure] = _failures(perf_gate, report, baseline, capsys)
        assert failure.startswith(f"{leg.gated}: {leg.metric} regressed")


def test_a_baseline_benchmark_missing_from_the_report_fails(perf_gate, capsys):
    for leg in perf_gate.LEGS:
        baseline = {leg.section: {"mips": {leg.metric: leg.floor}}}
        [failure] = _failures(perf_gate, _passing_report(perf_gate), baseline, capsys)
        assert failure.startswith(f"mips: baseline {leg.metric} ")


def test_an_empty_section_skips_only_the_numpy_leg(perf_gate, capsys):
    """Without NumPy the harness leaves the vector section empty, and the gate
    skips that leg, baseline included; any other empty section fails."""
    for leg in perf_gate.LEGS:
        report = _passing_report(perf_gate)
        report[leg.section] = {}
        baseline = {leg.section: {leg.gated: {leg.metric: leg.floor}}}
        failures = _failures(perf_gate, report, baseline, capsys)
        if leg.needs_numpy:
            assert failures == []
        else:
            assert f"{leg.gated}: {leg.metric} is missing from this run" in failures


# ------------------------------------------------------------------ harness
def test_report_builder_refuses_two_legs_writing_one_entry(perf_gate, monkeypatch):
    leg = perf_gate.LEGS[1]
    twin = leg._replace(metric="speedup_twin")
    monkeypatch.setattr(perf_gate, "LEGS", (leg, twin))
    with pytest.raises(ValueError, match="fault_benchmarks"):
        perf_gate.run_harness(repeats=1)


def test_every_leg_writes_the_committed_schema(perf_gate, monkeypatch, tmp_path):
    """A smoke run of every leg at tiny sizes: the structure, never a ratio."""
    monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(tmp_path / "codegen-cache"))
    ran = set()

    def counted(leg, check):
        def run(case, results):
            ran.add((leg.metric, check.__name__))
            return check(case, results)

        return run

    def tiny(leg):
        # the two emitter legs share a section, so they need two designs
        design = "alu" if leg.metric == "speedup_scheduler_vs_flat" else "apb"
        rows = [(design, 6, *([8] if len(row) > 2 else []), *row[3:]) for row in leg.workloads[:1]]
        checks = tuple(counted(leg, check) for check in leg.checks)
        return leg._replace(workloads=rows, sweep=None, checks=checks)

    legs = perf_gate.LEGS
    monkeypatch.setattr(perf_gate, "LEGS", tuple(tiny(leg) for leg in legs))
    report = perf_gate.run_harness(repeats=1)
    with open(BASELINE, encoding="utf-8") as handle:
        baseline = json.load(handle)

    assert set(report) == set(baseline)
    assert set(report["meta"]) == {
        "cpu_count",
        "engines",
        "packed_width",
        "python",
        "repeats",
        "sweep_all",
        "vector_width",
    }
    numpy = perf_gate._vector_np is not None
    for leg in legs:
        measured = [entry for entry in report[leg.section].values() if leg.metric in entry]
        if leg.needs_numpy and not numpy:
            assert measured == []
            continue
        committed = [entry for entry in baseline[leg.section].values() if leg.metric in entry]
        labels = set(committed[0]["seconds"]) - (set() if numpy else {"vector"})
        [entry] = measured
        assert set(entry) == set(committed[0]), leg.metric
        assert set(entry["seconds"]) == labels, leg.metric
        assert all(seconds > 0 for seconds in entry["seconds"].values())
    assert ran == {
        (leg.metric, check.__name__)
        for leg in legs
        for check in leg.checks
        if numpy or not leg.needs_numpy
    }


# ------------------------------------------------------------------- README
def _workload_cell(leg):
    """The README's workload cell for the row the leg's floor binds on."""
    [(name, cycles, *rest)] = [row for row in leg.workloads if row[0] == leg.gated]
    words = [name, f"{cycles} cycles"]
    if rest:
        words.append("all faults" if rest[0] is None else f"{rest[0]} faults")
    if len(rest) > 1:
        words.append(f"{rest[1]} workers")
    return ", ".join(words)


def test_readme_table_lists_every_leg(perf_gate):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n### The CI perf gate\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(
        r"^\| `(\w+)` \|[^|]*\| ([^|]*?) \| ([\d.]+)x \|$", section, flags=re.MULTILINE
    )
    assert [(metric, workload, float(floor)) for metric, workload, floor in rows] == [
        (leg.metric, _workload_cell(leg), leg.floor) for leg in perf_gate.LEGS
    ]
