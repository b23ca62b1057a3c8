"""Tests for the campaign entry point (repro.sim.parallel).

The strongest check mirrors the packed suite: on every one of the ten
benchmark designs, the process pool's per-fault verdicts *and* detection
cycles must exactly match the serial codegen baseline — chunking over worker
processes may only change wall-clock, never a verdict.  The remaining tests
pin the seams around it: :class:`WorkloadSpec` pickling in all three modes,
word-aligned chunking, the inline ``workers=1`` short-circuit, the serial
baselines' ``campaign=`` loop, and the campaign seams: cross-chunk dropping
(parity with dropping on AND off), streaming progress event ordering, resume
seeding, the plane-free one-worker path and the pickled-dict fallback,
partial-verdict salvage when a worker dies, shared-memory segment cleanup
after both clean and crashed campaigns, and a pooled campaign returning only
after its workers have exited.
"""

import multiprocessing
import pickle
import sys

import pytest

from fixture_designs import COUNTER_SRC
from repro.api import compile_design
from repro.baselines.base import SerialFaultSimulator
from repro.designs.registry import BENCHMARK_NAMES, get_benchmark
from repro.errors import SimulationError
from repro.fault.faultlist import generate_stuck_at_faults, sample_faults
from repro.sim.codegen import design_fingerprint
from repro.sim.packed import DEFAULT_WORD_WIDTH, pack_fault_words
from repro.sim.parallel import (
    CampaignConfig,
    WorkloadSpec,
    chunk_positions,
    run_multiprocess,
)
from repro.sim.resilience import RetryPolicy
from repro.sim.verdict_plane import VerdictPlane

#: Cycles per benchmark for the corpus sweep; enough for observable activity.
PARITY_CYCLES = 30

#: Deliberately does not divide 8 evenly (partial last words).
PARITY_FAULTS = 10

#: Word widths: degenerate serial shape, partial words, the default word.
WIDTHS = [1, 8, DEFAULT_WORD_WIDTH]


@pytest.fixture(autouse=True)
def _isolated_codegen_cache(tmp_path, monkeypatch):
    """Keep every test (and its spawned workers) off the real user cache."""
    monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(tmp_path / "codegen-cache"))


_workloads = {}


def _workload(name):
    """Compile each benchmark once per session, with its serial reference."""
    if name not in _workloads:
        spec = get_benchmark(name)
        design = spec.compile()
        stimulus = spec.stimulus(cycles=PARITY_CYCLES)
        faults = sample_faults(
            generate_stuck_at_faults(design), PARITY_FAULTS, seed=7
        )
        reference = SerialFaultSimulator(design, engine="codegen").run(
            stimulus, faults
        )
        _workloads[name] = (design, stimulus, faults, reference)
    return _workloads[name]


# ------------------------------------------------------------ the parity sweep
@pytest.mark.parametrize("cross_drop", [True, False], ids=["drop", "nodrop"])
@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_process_executor_matches_serial_codegen_on_corpus(name, cross_drop):
    """Verdicts AND detection cycles must be exact on all ten benchmarks.

    Parametrized over cross-chunk dropping because dropping may only ever
    *remove* redundant work — with it on or off, the verdicts and the
    detection cycles must be byte-identical to the serial baseline.
    """
    design, stimulus, faults, reference = _workload(name)
    result = run_multiprocess(
        design, stimulus, faults, workers=2, width=8, cross_drop=cross_drop
    )
    assert result.coverage.same_verdicts(reference.coverage), (
        f"{name}: process verdicts disagree on "
        f"{result.coverage.disagreements(reference.coverage)}"
    )
    assert result.coverage.detections == reference.coverage.detections, (
        f"{name}: detection cycles differ"
    )
    assert not result.partial


@pytest.mark.parametrize("cross_drop", [True, False], ids=["drop", "nodrop"])
@pytest.mark.parametrize("width", WIDTHS)
def test_process_executor_across_widths(width, cross_drop):
    """Chunking must respect word geometry at every width (partial words too)."""
    design, stimulus, faults, reference = _workload("apb")
    result = run_multiprocess(
        design, stimulus, faults, workers=2, width=width, cross_drop=cross_drop
    )
    assert result.coverage.detections == reference.coverage.detections


def test_single_worker_short_circuits_to_inline(monkeypatch):
    """workers=1 must never pay pool startup (no executor is constructed)."""
    import concurrent.futures

    def forbidden(*args, **kwargs):
        raise AssertionError("ProcessPoolExecutor constructed for workers=1")

    # the campaign imports the executor where it builds a pool
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", forbidden)
    design, stimulus, faults, reference = _workload("apb")
    result = run_multiprocess(design, stimulus, faults, workers=1, width=8)
    assert result.coverage.detections == reference.coverage.detections


# -------------------------------------------------------------- workload specs
def test_workload_spec_benchmark_mode_pickle_roundtrip():
    design, stimulus, _, _ = _workload("apb")
    spec = WorkloadSpec.from_design(design).with_stimulus(stimulus)
    assert spec.benchmark == "apb"  # registry provenance wins
    clone = pickle.loads(pickle.dumps(spec))
    rebuilt, rebuilt_stimulus = clone.build()
    assert design_fingerprint(rebuilt) == design_fingerprint(design)
    assert rebuilt_stimulus.num_cycles() == stimulus.num_cycles()
    assert all(
        rebuilt_stimulus.vector(c) == stimulus.vector(c)
        for c in range(stimulus.num_cycles())
    )
    assert rebuilt_stimulus.clock == stimulus.clock


def test_workload_spec_source_mode_pickle_roundtrip(counter_design, counter_stimulus):
    spec = WorkloadSpec.from_design(counter_design).with_stimulus(counter_stimulus)
    assert spec.source is not None and spec.top == "counter"
    clone = pickle.loads(pickle.dumps(spec))
    rebuilt, _ = clone.build()
    assert design_fingerprint(rebuilt) == design_fingerprint(counter_design)


def test_workload_spec_design_blob_fallback(counter_stimulus):
    """A design with no compile provenance crosses the boundary as a pickle."""
    design = compile_design(COUNTER_SRC, top="counter")
    design.origin = None  # simulate a hand-assembled IR graph
    spec = WorkloadSpec.from_design(design).with_stimulus(counter_stimulus)
    assert spec.design_blob is not None
    clone = pickle.loads(pickle.dumps(spec))
    rebuilt, _ = clone.build()
    assert design_fingerprint(rebuilt) == design_fingerprint(design)


def test_workload_spec_rejects_bad_modes():
    with pytest.raises(SimulationError, match="exactly one"):
        WorkloadSpec()
    with pytest.raises(SimulationError, match="exactly one"):
        WorkloadSpec(benchmark="apb", source="module m; endmodule")
    with pytest.raises(SimulationError, match="top"):
        WorkloadSpec(source="module m; endmodule")


# ------------------------------------------------------------------- chunking
def test_chunk_fault_sites_word_aligned():
    design, _, _, _ = _workload("apb")
    faults = generate_stuck_at_faults(design)
    words = pack_fault_words(faults, 8)
    chunks = chunk_positions(range(len(faults)), 8, max_chunks=3)
    assert len(chunks) <= 3
    # chunk boundaries are word boundaries: concatenating the chunks
    # reproduces the fault list in pack order, and every chunk holds a
    # multiple of the word size (except possibly the last)
    flat = [
        (faults[p].signal.name, faults[p].bit, faults[p].value)
        for chunk in chunks
        for p in chunk
    ]
    assert flat == [(f.signal.name, f.bit, f.value) for word in words for f in word]
    for chunk in chunks[:-1]:
        assert len(chunk) % 8 == 0


def test_chunk_fault_sites_oversubscription_bounds():
    design, _, _, _ = _workload("apb")
    faults = sample_faults(generate_stuck_at_faults(design), 10, seed=7)
    # 10 faults at width 1 = 10 words; more chunks than words clamps to words
    assert len(chunk_positions(range(len(faults)), 1, max_chunks=100)) == 10
    assert len(chunk_positions(range(len(faults)), 64, max_chunks=100)) == 1


# --------------------------------------------------------- streaming progress
def test_progress_events_are_ordered_and_monotone(monkeypatch, tmp_path):
    """Events: one at submission, >= one final=True last, monotone detected.

    A half-warm cached campaign counts its cached verdicts too: the final
    event totals the whole campaign, not the faults left to simulate.
    """
    import repro.sim.parallel as parallel_mod

    monkeypatch.setattr(parallel_mod, "PROGRESS_INTERVAL", 0.05)
    design, stimulus, faults, reference = _workload("apb")
    root = str(tmp_path / "results")
    run_multiprocess(design, stimulus, faults[:5], workers=1, width=8, cache=root)
    for cache in (None, root):
        events = []
        result = run_multiprocess(
            design, stimulus, faults, workers=2, width=8, on_progress=events.append,
            cache=cache,
        )
        assert len(events) >= 2
        first, last = events[0], events[-1]
        assert first.chunks_done == 0 and first.eta is None and not first.final
        assert last.final and not last.partial
        assert sum(e.final for e in events) == 1  # exactly one final event
        assert last.detected == len(reference.coverage.detections)
        assert last.detected == len(result.coverage.detections)
        assert last.chunks_done == last.chunks_total
        detected = [e.detected for e in events]
        assert detected == sorted(detected), "detected counts must be monotone"
        assert all(e.total == len(faults) for e in events)
        elapsed = [e.elapsed for e in events]
        assert elapsed == sorted(elapsed)
        assert 0.0 <= last.coverage <= 100.0


def test_progress_printer_formats_events(capsys):
    from repro.sim.parallel import CampaignProgress, progress_printer

    emit = progress_printer(stream=sys.stdout)
    emit(CampaignProgress(3, 10, 1, 4, elapsed=1.0, eta=3.0))
    emit(CampaignProgress(9, 10, 4, 4, elapsed=4.0, final=True, partial=True))
    out = capsys.readouterr().out
    assert "progress: 3/10 faults detected (30.0%)" in out
    assert "eta 3.0s" in out
    assert "done: 9/10" in out and "PARTIAL" in out


def test_config_progress_callback_reaches_campaigns():
    """A config's on_progress (the harness --progress seam) reaches the run."""
    design, stimulus, faults, _ = _workload("apb")
    events = []
    config = CampaignConfig(workers=1, width=8, on_progress=events.append)
    run_multiprocess(design, stimulus, faults, config)
    assert events and events[-1].final


# ----------------------------------------------------- resume + cross dropping
def test_resume_seeds_drop_work_and_survive_into_the_report():
    """Seeded verdicts are not re-simulated and come back verbatim."""
    design, stimulus, faults, reference = _workload("apb")
    full = run_multiprocess(design, stimulus, faults, workers=1, width=8)
    assert full.coverage.detections == reference.coverage.detections
    seeds = dict(reference.coverage.detections)
    resumed = run_multiprocess(
        design, stimulus, faults, workers=1, width=8, resume_from=seeds
    )
    assert resumed.coverage.detections == reference.coverage.detections
    # every detected fault was seeded: the campaign only re-ran the
    # never-detected remainder, so it simulated strictly fewer lane-cycles
    assert resumed.stats.cycles < full.stats.cycles


def test_resume_rejects_unknown_fault_names():
    design, stimulus, faults, _ = _workload("apb")
    with pytest.raises(SimulationError, match="not in this campaign"):
        run_multiprocess(
            design, stimulus, faults, workers=1, resume_from={"no_such[0]:SA0": 3}
        )


def test_single_worker_campaign_creates_no_plane(monkeypatch):
    """A one-worker campaign runs inline on the pickled-dict path: no shared
    plane, exact verdicts, and resume seeds still cut the simulated work."""

    def forbidden(cls, n_faults):
        raise AssertionError("a one-worker campaign created a verdict plane")

    monkeypatch.setattr(VerdictPlane, "create", classmethod(forbidden))
    design, stimulus, faults, reference = _workload("apb")
    full = run_multiprocess(design, stimulus, faults, workers=1, width=8)
    assert full.coverage.detections == reference.coverage.detections
    seeds = dict(list(reference.coverage.detections.items())[:3])
    resumed = run_multiprocess(
        design, stimulus, faults, workers=1, width=8, resume_from=seeds
    )
    assert resumed.coverage.detections == reference.coverage.detections
    assert resumed.stats.cycles < full.stats.cycles


def test_pool_resolved_to_one_worker_creates_no_plane(monkeypatch):
    """workers= is a ceiling: a fault list that fits in one word resolves to
    one worker, which runs inline without a pool or a shared plane."""
    import concurrent.futures

    def forbidden(*args, **kwargs):
        raise AssertionError("a one-word campaign built a pool or a verdict plane")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", forbidden)
    monkeypatch.setattr(VerdictPlane, "create", classmethod(forbidden))
    design, stimulus, faults, reference = _workload("apb")
    assert len(faults) <= 64
    result = run_multiprocess(design, stimulus, faults, workers=4, width=64)
    assert result.coverage.detections == reference.coverage.detections
    assert result.stats.chunks_simulated == 1


def _detected_only(faults, reference):
    """Fresh copies of the faults the reference detects.

    Copies, because ``FaultList`` renumbers what it holds and the originals
    belong to the shared per-session workload.
    """
    from repro.fault.faultlist import FaultList
    from repro.fault.model import StuckAtFault

    return FaultList(
        [
            StuckAtFault(fault.signal, fault.bit, fault.value)
            for fault in faults
            if fault.name in reference.coverage.detections
        ]
    )


def test_resume_seeds_answering_every_fault_leave_nothing_to_simulate(monkeypatch):
    """With cross_drop a seed is settled in the plan phase, like a cache
    hit: seeds for every fault leave no chunk, no pool and no plane."""

    def forbidden(cls, n_faults):
        raise AssertionError("a campaign with nothing to simulate created a verdict plane")

    monkeypatch.setattr(VerdictPlane, "create", classmethod(forbidden))
    design, stimulus, faults, reference = _workload("apb")
    detected = _detected_only(faults, reference)
    events = []
    result = run_multiprocess(
        design, stimulus, detected, workers=2, width=4,
        resume_from=dict(reference.coverage.detections), on_progress=events.append,
    )
    assert result.coverage.detections == reference.coverage.detections
    assert result.stats.cycles == 0
    assert result.stats.chunks_simulated == result.stats.chunks_skipped == 0
    assert events[-1].final and events[-1].chunks_total == 0
    assert events[-1].detected == len(detected)


@pytest.mark.parametrize("workers", [1, 2])
def test_resume_seeds_without_cross_drop_are_simulated_again(workers):
    """cross_drop=False simulates every seed again: the same chunks and
    cycles as a run without seeds, and the same verdicts."""
    design, stimulus, faults, reference = _workload("apb")
    knobs = dict(workers=workers, width=4, cross_drop=False)
    full = run_multiprocess(design, stimulus, faults, **knobs)
    seeded = run_multiprocess(
        design, stimulus, faults, resume_from=dict(reference.coverage.detections), **knobs
    )
    assert seeded.coverage.detections == reference.coverage.detections
    assert seeded.stats.chunks_simulated == full.stats.chunks_simulated
    assert seeded.stats.cycles == full.stats.cycles > 0


def test_legacy_pickled_merge_fallback_is_exact(without_shared_memory):
    """The pickled-dict fallback (no /dev/shm) must not change verdicts."""
    design, stimulus, faults, reference = _workload("apb")
    events = []
    result = run_multiprocess(
        design, stimulus, faults, workers=2, width=8, on_progress=events.append
    )
    assert result.coverage.detections == reference.coverage.detections
    assert events[-1].final
    assert events[-1].detected == len(reference.coverage.detections)


# ------------------------------------------------------------- crash recovery
# retries=0 + degrade=False pin the historical pre-supervision semantics: one
# failure per chunk, no quarantine-to-inline rescue — the salvage contract.
def test_worker_crash_salvages_partial_verdicts():
    """A dead worker yields a partial=True result, never a hang or a loss."""
    design, stimulus, faults, reference = _workload("apb")
    # chunks at width 4 start at global indexes 0, 4, 8: the base-0 chunk
    # completes (the injector's drain pause gives it time), the rest crash
    result = run_multiprocess(
        design, stimulus, faults, workers=2, width=4, retries=0, degrade=False,
        chaos="crash:base=4",
    )
    assert result.partial
    assert result.stats.chunks_failed > 0
    salvaged = result.coverage.detections
    reference_cycles = reference.coverage.detections
    assert salvaged, "the completed chunk's verdicts must be salvaged"
    for name, cycle in salvaged.items():
        assert reference_cycles[name] == cycle, (
            f"salvaged cycle for {name} must match the serial baseline"
        )


def test_worker_crash_self_heals_by_default():
    """A crash on every attempt no longer ends a default campaign: the poison
    chunks are quarantined and finished inline, verdicts stay exact."""
    design, stimulus, faults, reference = _workload("apb")
    result = run_multiprocess(
        design, stimulus, faults, workers=2, width=4,
        retries=RetryPolicy(max_attempts=2, backoff=0.05), chaos="crash:base=4",
    )
    assert not result.partial
    assert result.stats.chunks_quarantined > 0
    assert result.coverage.detections == reference.coverage.detections


def test_worker_crash_keeps_resume_seeds():
    """Seeded verdicts survive a crash even if no chunk ever completes."""
    design, stimulus, faults, reference = _workload("apb")
    seeds = dict(list(reference.coverage.detections.items())[:2])
    result = run_multiprocess(
        design, stimulus, faults, workers=2, width=4, resume_from=seeds,
        retries=0, degrade=False, chaos="crash:base=0",  # every chunk crashes
    )
    assert result.partial
    for name, cycle in seeds.items():
        assert result.coverage.detections[name] == cycle


def test_worker_crash_fail_fast_without_salvage():
    """salvage=False restores the historical fail-fast error contract."""
    design, stimulus, faults, _ = _workload("apb")
    with pytest.raises(SimulationError, match="worker process died"):
        run_multiprocess(
            design, stimulus, faults, workers=2, width=4, salvage=False,
            retries=0, degrade=False, chaos="crash:base=0",
        )


def test_worker_init_survives_an_unlinked_plane(monkeypatch):
    """A pool worker that starts after a fast campaign unlinked its plane
    initializes cleanly; attaching is left to its first chunk, where a
    failure is a chunk failure the supervisor retries."""
    import repro.sim.parallel as parallel_mod

    monkeypatch.setattr(parallel_mod, "_WORKER_WORKLOAD", {})
    design, stimulus, _, _ = _workload("apb")
    spec = WorkloadSpec.from_design(design).with_stimulus(stimulus)
    plane = VerdictPlane.create(4)
    plane.close()
    plane.unlink()
    parallel_mod._worker_init(spec, plane.name)
    with pytest.raises(FileNotFoundError):
        parallel_mod._simulate_chunk([], [0], ("packed", {"width": 4}))


# ----------------------------------------------------------------- shm hygiene
def _run_and_capture_segment(monkeypatch, **kwargs):
    """Run an apb campaign, returning (result, the plane segment name used)."""
    design, stimulus, faults, _ = _workload("apb")
    names = []
    real_create = VerdictPlane.create.__func__

    def capturing_create(cls, n_faults):
        plane = real_create(cls, n_faults)
        names.append(plane.name)
        return plane

    monkeypatch.setattr(
        VerdictPlane, "create", classmethod(capturing_create)
    )
    result = run_multiprocess(design, stimulus, faults, **kwargs)
    assert len(names) == 1
    return result, names[0]


def test_campaign_unlinks_its_segment(monkeypatch):
    """No /dev/shm leak after a clean campaign: attach must fail afterwards."""
    _, name = _run_and_capture_segment(monkeypatch, workers=2, width=8)
    with pytest.raises(FileNotFoundError):
        VerdictPlane.attach(name)


def test_crashed_campaign_unlinks_its_segment(monkeypatch):
    """The finally-block unlink holds on the salvage path too."""
    result, name = _run_and_capture_segment(
        monkeypatch, workers=2, width=4, retries=0, degrade=False,
        chaos="crash:base=0",
    )
    assert result.partial
    with pytest.raises(FileNotFoundError):
        VerdictPlane.attach(name)


def test_pooled_campaign_returns_after_its_workers_exit():
    """No worker outlives the campaign, so the next one gets the CPUs to itself."""
    design, stimulus, faults, reference = _workload("apb")
    result = run_multiprocess(design, stimulus, faults, workers=2, width=4)
    assert multiprocessing.active_children() == []
    assert result.coverage.detections == reference.coverage.detections


# -------------------------------------------------------- alternative runners
def test_vector_runner_pooled_matches_serial():
    pytest.importorskip("numpy")
    design, stimulus, faults, reference = _workload("apb")
    result = run_multiprocess(
        design, stimulus, faults, workers=2, runner=("vector", {"width": 4})
    )
    assert result.simulator == "VectorPPSFP-MP"
    assert result.coverage.detections == reference.coverage.detections


# ------------------------------------------------- serial-baseline campaigns
def test_serial_baseline_campaign_matches():
    design, stimulus, faults, reference = _workload("apb")
    simulator = SerialFaultSimulator(
        design, engine="codegen", campaign=CampaignConfig(workers=2)
    )
    result = simulator.run(stimulus, faults)
    assert result.simulator == "serial"
    assert result.coverage.detections == reference.coverage.detections


def test_serial_baseline_process_needs_an_engine(counter_design, counter_stimulus):
    faults = generate_stuck_at_faults(counter_design)
    simulator = SerialFaultSimulator(counter_design, campaign=CampaignConfig(workers=2))
    with pytest.raises(SimulationError, match="engine"):
        simulator.run(counter_stimulus, faults)
