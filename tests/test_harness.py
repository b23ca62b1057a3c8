"""Tests for the experiment harness (workloads, tables, figures, CLI)."""

import pytest

from repro.harness import environment, fig1b, fig6, fig7, table2, table3
from repro.harness.__main__ import build_parser, main
from repro.harness.experiments import (
    ABLATION_BENCHMARKS,
    FULL_PROFILE,
    QUICK_PROFILE,
    prepare_workload,
    prepare_workloads,
)
from repro.harness.paper_data import PAPER_FIG6_SPEEDUPS, PAPER_TABLE2_COVERAGE


def test_profiles_cover_all_benchmarks():
    from repro.designs.registry import BENCHMARK_NAMES

    for profile in (QUICK_PROFILE, FULL_PROFILE):
        assert set(profile.cycles) == set(BENCHMARK_NAMES)
        assert set(profile.fault_samples) == set(BENCHMARK_NAMES)
    assert set(ABLATION_BENCHMARKS) <= set(BENCHMARK_NAMES)


def test_paper_data_complete():
    from repro.designs.registry import BENCHMARK_NAMES

    assert set(PAPER_TABLE2_COVERAGE) == set(BENCHMARK_NAMES)
    assert set(PAPER_FIG6_SPEEDUPS) == set(BENCHMARK_NAMES)


def test_prepare_workload_is_deterministic():
    one = prepare_workload("alu", QUICK_PROFILE, cycles=20, fault_count=10)
    two = prepare_workload("alu", QUICK_PROFILE, cycles=20, fault_count=10)
    assert [f.name for f in one.faults] == [f.name for f in two.faults]
    assert one.stimulus.vector(5) == two.stimulus.vector(5)
    assert one.total_fault_population > len(one.faults)


def test_prepare_workloads_subset():
    workloads = prepare_workloads(["alu", "apb"], QUICK_PROFILE)
    assert [w.name for w in workloads] == ["alu", "apb"]


def test_environment_table():
    table = environment.run(print_output=False)
    text = table.render()
    assert "Xeon" in text           # the paper column
    assert "reproduction" in text   # ours


def test_table2_row_runs(capsys):
    rows = table2.run(["alu"], QUICK_PROFILE, print_output=True)
    out = capsys.readouterr().out
    assert "Table II" in out
    row = rows[0]
    assert row.benchmark == "alu"
    assert row.verdicts_match
    assert row.eraser_coverage == pytest.approx(row.z01x_coverage)
    assert 0.0 <= row.eraser_coverage <= 100.0


def test_fig1b_row_runs():
    rows = fig1b.run(["apb"], QUICK_PROFILE, print_output=False)
    row = rows[0]
    assert 0.0 <= row.explicit_share <= 100.0
    assert 0.0 <= row.implicit_share <= 100.0
    if row.explicit_share or row.implicit_share:
        assert row.explicit_share + row.implicit_share == pytest.approx(100.0, abs=1e-6)


def test_fig6_row_runs_and_orders_simulators():
    rows = fig6.run(["alu"], QUICK_PROFILE, print_output=False)
    row = rows[0]
    assert set(row.times) == {"IFsim", "VFsim", "Z01X", "Eraser"}
    assert row.verdicts_agree
    assert row.speedups["IFsim"] == pytest.approx(1.0)
    assert row.speedups["Eraser"] > 1.0
    summary = fig6.summarize(rows)
    assert summary["eraser_vs_ifsim_geomean"] > 1.0
    table = fig6.build_figure(rows).render()
    assert "Paper VFsim x" in table and "Paper Eraser x" in table


def test_fig7_row_runs():
    rows = fig7.run(["alu"], QUICK_PROFILE, print_output=False)
    row = rows[0]
    assert row.verdicts_agree
    assert row.speedups["Eraser--"] == pytest.approx(1.0)
    assert row.speedups["Eraser"] >= row.speedups["Eraser-"] * 0.8


@pytest.mark.parametrize("odd_run", [None, 0, 7], ids=["agree", "first", "round3"])
def test_fig7_reports_each_variants_fastest_round(monkeypatch, odd_run):
    """Rounds interleave the variants, each keeps its fastest wall time, and a
    verdict that differs in any run of any round clears ``verdicts_agree``."""
    from types import SimpleNamespace

    # three rounds of (Eraser--, Eraser-, Eraser)
    walls = [0.9, 0.5, 0.3, 0.4, 0.6, 0.2, 0.8, 0.7, 0.35]
    modes = []

    class Coverage:
        def __init__(self, tag):
            self.tag = tag

        def same_verdicts(self, other):
            return self.tag == other.tag

    class ScriptedSimulator:
        def __init__(self, design, mode, engine):
            self.mode = mode

        def run(self, stimulus, faults):
            run = len(modes)
            modes.append(self.mode)
            tag = "odd" if run == odd_run else "same"
            return SimpleNamespace(wall_time=walls[run], coverage=Coverage(tag))

    monkeypatch.setattr(fig7, "ROUNDS", 3)
    monkeypatch.setattr(fig7, "EraserSimulator", ScriptedSimulator)
    workload = SimpleNamespace(
        name="alu", paper_name="ALU", design=None, stimulus=None, faults=None
    )
    row = fig7.run_benchmark(workload)
    assert modes == [fig7._MODES[variant] for variant in fig7.VARIANT_ORDER] * 3
    assert row.times == {"Eraser--": 0.4, "Eraser-": 0.5, "Eraser": 0.2}
    assert row.speedups["Eraser"] == pytest.approx(2.0)
    assert row.verdicts_agree is (odd_run is None)


def test_table3_row_runs():
    rows = table3.run(["apb"], QUICK_PROFILE, print_output=False)
    row = rows[0]
    assert row.total_executions > 0
    assert row.eliminated <= row.total_executions
    assert row.explicit_pct + row.implicit_pct <= 100.0 + 1e-6
    averages = table3.averages(rows)
    assert set(averages) == {"explicit", "implicit"}


def test_geometric_mean():
    assert fig6.geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
    assert fig6.geometric_mean([]) == 0.0


def test_cli_parser_and_table1(capsys):
    parser = build_parser()
    args = parser.parse_args(["table1"])
    assert args.artifact == "table1"
    assert main(["table1"]) == 0
    assert "Evaluation Environment" in capsys.readouterr().out


def test_cli_rejects_unknown_artifact():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["figure99"])
