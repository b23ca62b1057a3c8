"""Tests for the campaign entry point (repro.sim.parallel).

The strongest check mirrors the packed suite: on every one of the ten
benchmark designs, the process pool's per-fault verdicts *and* detection
cycles must exactly match the serial codegen baseline — chunking over worker
processes may only change wall-clock, never a verdict — and so must a campaign
that assembles half its verdicts from the result cache.  The remaining tests
pin the seams around it: :class:`WorkloadSpec` pickling in all three modes,
word-aligned chunking, the inline ``workers=1`` short-circuit, the runner
kinds, the serial baselines' ``campaign=`` loop, streaming progress event
ordering, partial-verdict salvage when a worker dies, a pooled campaign
returning only after its workers have exited, and no campaign touching shared
memory.
"""

import json
import multiprocessing
import os
import pickle
import subprocess
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
    OVERSUBSCRIBE,
    CampaignConfig,
    WorkloadSpec,
    chunk_positions,
    run_multiprocess,
)
from repro.sim.resilience import RetryPolicy

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
@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_process_executor_matches_serial_codegen_on_corpus(name):
    """Verdicts AND detection cycles must be exact on all ten benchmarks."""
    design, stimulus, faults, reference = _workload(name)
    result = run_multiprocess(design, stimulus, faults, workers=2, width=8)
    assert result.coverage.same_verdicts(reference.coverage), (
        f"{name}: process verdicts disagree on "
        f"{result.coverage.disagreements(reference.coverage)}"
    )
    assert result.coverage.detections == reference.coverage.detections, (
        f"{name}: detection cycles differ"
    )
    assert not result.partial


@pytest.mark.parametrize("width", WIDTHS)
def test_process_executor_across_widths(width):
    """Chunking must respect word geometry at every width (partial words too)."""
    design, stimulus, faults, reference = _workload("apb")
    result = run_multiprocess(design, stimulus, faults, workers=2, width=width)
    assert result.coverage.detections == reference.coverage.detections


def _half_cached(design, stimulus, faults, root):
    """Cache the verdicts of every other fault; return the positions left."""
    run_multiprocess(design, stimulus, faults[::2], workers=1, width=8, cache=root)
    return list(range(1, len(faults), 2))


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_half_cached_campaign_matches_serial_codegen_on_corpus(name, tmp_path):
    """Cache hits plus pooled chunks assemble to the exact verdicts.

    With every other fault answered by the cache, the pool simulates the
    scattered positions left, so its words pack other faults together than
    a cold run's do; verdicts and detection cycles must not change.  At
    width 2 the five faults left span three chunks over two workers.
    """
    design, stimulus, faults, reference = _workload(name)
    root = str(tmp_path / "results")
    todo = _half_cached(design, stimulus, faults, root)
    result = run_multiprocess(design, stimulus, faults, workers=2, width=2, cache=root)
    assert result.coverage.detections == reference.coverage.detections, (
        f"{name}: half-cached verdicts disagree on "
        f"{result.coverage.disagreements(reference.coverage)}"
    )
    assert not result.partial
    assert result.stats.cache_hits == len(faults) - len(todo)
    assert result.stats.cache_misses == result.stats.cache_writes == len(todo)
    assert result.stats.chunks_simulated == 3


@pytest.mark.parametrize("width", WIDTHS)
def test_half_cached_campaign_across_widths(width, tmp_path):
    """The chunks cut from the cache misses respect word geometry at every
    width; where the misses fit one word, the campaign runs a single chunk."""
    design, stimulus, faults, reference = _workload("apb")
    root = str(tmp_path / "results")
    todo = _half_cached(design, stimulus, faults, root)
    result = run_multiprocess(design, stimulus, faults, workers=2, width=width, cache=root)
    assert result.coverage.detections == reference.coverage.detections
    assert result.stats.cache_misses == len(todo)
    chunks = chunk_positions(todo, width, max_chunks=2 * OVERSUBSCRIBE)
    assert result.stats.chunks_simulated == len(chunks)


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


def test_pool_resolved_to_one_worker_runs_inline(monkeypatch):
    """workers= is a ceiling: a fault list that fits in one word resolves to
    one worker, which runs inline without a pool."""
    import concurrent.futures

    def forbidden(*args, **kwargs):
        raise AssertionError("a one-word campaign built a pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", forbidden)
    design, stimulus, faults, reference = _workload("apb")
    assert len(faults) <= 64
    result = run_multiprocess(design, stimulus, faults, workers=4, width=64)
    assert result.coverage.detections == reference.coverage.detections
    assert result.stats.chunks_simulated == 1


def test_cache_hits_that_leave_one_word_run_inline(monkeypatch, tmp_path):
    """The plan sizes the pool by the faults the cache leaves, not by the
    fault list: two misses at width 8 are one word, run without a pool."""
    import concurrent.futures

    design, stimulus, faults, reference = _workload("apb")
    root = str(tmp_path / "results")
    run_multiprocess(design, stimulus, faults[:8], workers=1, width=8, cache=root)

    def forbidden(*args, **kwargs):
        raise AssertionError("a campaign with one word left built a pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", forbidden)
    result = run_multiprocess(design, stimulus, faults, workers=2, width=8, cache=root)
    assert result.coverage.detections == reference.coverage.detections
    assert result.stats.cache_hits == 8
    assert result.stats.chunks_simulated == 1


@pytest.mark.parametrize("workers", [1, 2])
def test_cached_faults_never_reach_a_runner(workers, monkeypatch, tmp_path):
    """Inline or pooled, every cache miss is handed to a runner exactly once
    and no cached fault is handed to one at all."""
    import repro.sim.parallel as parallel_mod

    design, stimulus, faults, reference = _workload("apb")
    root = str(tmp_path / "results")
    run_multiprocess(design, stimulus, faults[1::2], workers=1, width=8, cache=root)
    handed = []
    sites = parallel_mod._Campaign.sites

    def spy(self, state):
        chunk = sites(self, state)
        handed.extend(chunk)
        return chunk

    monkeypatch.setattr(parallel_mod._Campaign, "sites", spy)
    result = run_multiprocess(
        design, stimulus, faults, workers=workers, width=2, cache=root
    )
    misses = [(f.signal.name, f.bit, f.value) for f in faults[::2]]
    assert sorted(handed) == sorted(misses)
    assert result.stats.chunks_simulated == (1 if workers == 1 else 3)
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


def test_workload_spec_repr_names_its_mode(counter_design, counter_stimulus):
    design, stimulus, _, _ = _workload("apb")
    spec = WorkloadSpec.from_design(design)
    assert repr(spec) == "WorkloadSpec(benchmark=apb, 0 stimulus cycles)"
    assert repr(spec.with_stimulus(stimulus)) == (
        f"WorkloadSpec(benchmark=apb, {PARITY_CYCLES} stimulus cycles)"
    )
    source = WorkloadSpec.from_design(counter_design).with_stimulus(counter_stimulus)
    assert repr(source).startswith("WorkloadSpec(source top=counter, ")
    blob = WorkloadSpec(design_blob=b"1234")
    assert repr(blob) == "WorkloadSpec(design_blob=4B, 0 stimulus cycles)"


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


@pytest.mark.parametrize(
    "positions, word_size, max_chunks, expected_chunks",
    [
        (list(range(10)), 8, 8, 2),
        ([1, 3, 5, 7, 9, 11, 13], 2, 3, 2),
        (list(range(16)), 4, 2, 2),
        (list(range(5)), 64, 8, 1),
        (list(range(20)), 4, 1, 1),
    ],
    ids=["partial-last-word", "scattered", "exact-multiple", "one-word", "one-chunk"],
)
def test_chunk_positions_partition_in_whole_words(
    positions, word_size, max_chunks, expected_chunks
):
    """Chunks are consecutive runs of whole words of the given positions:
    the campaign's cache misses are scattered positions, not a range."""
    chunks = chunk_positions(positions, word_size, max_chunks)
    assert len(chunks) == expected_chunks <= max_chunks
    assert [p for chunk in chunks for p in chunk] == positions
    assert all(chunks)
    for chunk in chunks[:-1]:
        assert len(chunk) % word_size == 0


def test_merge_rejects_overlapping_chunk_verdicts():
    """Chunks partition the fault list: a fault two chunks report is an error,
    and the rejected chunk merges nothing."""
    from repro.sim.parallel import _merge_chunk_verdicts

    merged = {}
    _merge_chunk_verdicts(merged, {"a stuck-at-0": 3})
    _merge_chunk_verdicts(merged, {"b stuck-at-1": 0})
    with pytest.raises(SimulationError, match="overlap on 1 fault"):
        _merge_chunk_verdicts(merged, {"b stuck-at-1": 0, "c stuck-at-0": 5})
    assert merged == {"a stuck-at-0": 3, "b stuck-at-1": 0}


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


def test_progress_event_coverage_and_repr():
    from repro.sim.parallel import CampaignProgress

    assert CampaignProgress(0, 0, 0, 0, elapsed=0.0).coverage == 0.0
    event = CampaignProgress(3, 12, 1, 4, elapsed=1.0, eta=3.0)
    assert event.coverage == 25.0
    assert repr(event) == "CampaignProgress(3/12 detected, chunks 1/4)"
    last = CampaignProgress(9, 12, 3, 4, elapsed=2.0, final=True, partial=True)
    assert repr(last) == "CampaignProgress(9/12 detected, chunks 3/4 final partial)"


def test_first_progress_event_counts_the_cached_detections(tmp_path):
    """Cache hits are known before any chunk runs, so the submission event
    already counts their detections."""
    design, stimulus, faults, reference = _workload("apb")
    root = str(tmp_path / "results")
    run_multiprocess(design, stimulus, faults[:4], workers=1, width=4, cache=root)
    cached = [f.name for f in faults[:4] if f.name in reference.coverage.detections]
    assert cached, "the cached faults must hold a detection"
    events = []
    run_multiprocess(
        design, stimulus, faults, workers=2, width=2, cache=root,
        on_progress=events.append,
    )
    first, last = events[0], events[-1]
    assert first.chunks_done == 0 and first.chunks_total == 3
    assert first.detected == len(cached)
    assert last.final and last.detected == len(reference.coverage.detections)


def test_salvaged_campaign_marks_its_final_event_partial():
    """The final event of a salvaged campaign says so, and counts only the
    detections the partial result holds."""
    design, stimulus, faults, _ = _workload("apb")
    events = []
    result = run_multiprocess(
        design, stimulus, faults, workers=2, width=4, retries=0, degrade=False,
        chaos="raise:chunk=0", on_progress=events.append,
    )
    assert result.partial and result.stats.chunks_failed == 1
    last = events[-1]
    assert last.final and last.partial
    assert last.detected == len(result.coverage.detections)
    assert last.chunks_done == last.chunks_total - 1
    assert not any(event.partial for event in events[:-1])


def test_config_with_fields_returns_a_validated_copy():
    from dataclasses import FrozenInstanceError

    config = CampaignConfig(workers=2)
    assert config.with_fields() is config
    copy = config.with_fields(width=8)
    assert (copy.workers, copy.width) == (2, 8)
    assert config.width == DEFAULT_WORD_WIDTH
    with pytest.raises(SimulationError, match="workers"):
        config.with_fields(workers=0)
    with pytest.raises(FrozenInstanceError):
        config.width = 4


def test_config_progress_callback_reaches_campaigns():
    """A config's on_progress (the harness --progress seam) reaches the run."""
    design, stimulus, faults, _ = _workload("apb")
    events = []
    config = CampaignConfig(workers=1, width=8, on_progress=events.append)
    run_multiprocess(design, stimulus, faults, config)
    assert events and events[-1].final


# ------------------------------------------------------------- crash recovery
# retries=0 + degrade=False pin the historical pre-supervision semantics: one
# failure per chunk, no quarantine-to-inline rescue — the salvage contract.
def test_worker_crash_salvages_partial_verdicts():
    """A dead worker yields a partial=True result, never a hang or a loss:
    it holds exactly the detections of the chunks that completed."""
    design, stimulus, faults, reference = _workload("apb")
    # chunks at width 4 start at positions 0, 4, 8: the base-0 chunk
    # completes (the injector's drain pause gives it time), the rest crash
    result = run_multiprocess(
        design, stimulus, faults, workers=2, width=4, retries=0, degrade=False,
        chaos="crash:base=4",
    )
    assert result.partial
    assert result.stats.chunks_failed > 0
    assert result.stats.chunks_simulated == 1
    chunks = chunk_positions(range(len(faults)), 4, max_chunks=2 * OVERSUBSCRIBE)
    completed = {faults[p].name for chunk in chunks if chunk[0] < 4 for p in chunk}
    expected = {
        name: cycle
        for name, cycle in reference.coverage.detections.items()
        if name in completed
    }
    assert expected, "the completed chunk must hold a detection to salvage"
    assert dict(result.coverage.detections) == expected


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


def test_worker_crash_keeps_cache_hits(tmp_path):
    """Cached detections survive a crash even if no chunk ever completes."""
    design, stimulus, faults, reference = _workload("apb")
    root = str(tmp_path / "results")
    cached = faults[:4]
    run_multiprocess(design, stimulus, cached, workers=1, width=4, cache=root)
    names = {fault.name for fault in cached}
    hits = {n: c for n, c in reference.coverage.detections.items() if n in names}
    assert hits, "the cached faults must hold a detection"
    result = run_multiprocess(
        design, stimulus, faults, workers=2, width=4, cache=root,
        retries=0, degrade=False, chaos="crash:base=0",  # every chunk crashes
    )
    assert result.partial
    assert result.stats.cache_hits == len(cached)
    assert result.stats.chunks_simulated == 0
    assert dict(result.coverage.detections) == hits


def test_salvaged_result_holds_cache_hits_and_completed_chunks(tmp_path):
    """A salvaged campaign with cache hits returns those hits plus the
    detections of the chunks that completed, and nothing of the failed one."""
    design, stimulus, faults, reference = _workload("apb")
    root = str(tmp_path / "results")
    run_multiprocess(design, stimulus, faults[:4], workers=1, width=4, cache=root)
    # the misses, positions 4-9, make three chunks at width 2; chunk 0
    # (positions 4 and 5) raises on its only attempt
    result = run_multiprocess(
        design, stimulus, faults, workers=2, width=2, cache=root,
        retries=0, degrade=False, chaos="raise:chunk=0",
    )
    assert result.partial
    assert (result.stats.chunks_failed, result.stats.chunks_simulated) == (1, 2)
    kept = {f.name for f in faults[:4]} | {f.name for f in faults[6:]}
    expected = {n: c for n, c in reference.coverage.detections.items() if n in kept}
    assert expected.keys() - {f.name for f in faults[:4]}, "no chunk detection kept"
    assert dict(result.coverage.detections) == expected


def test_pooled_stats_sum_the_chunks():
    """stats.cycles sums the cycles each chunk simulated, and a clean pooled
    campaign counts every chunk simulated and none retried or failed."""
    import repro.sim.parallel as parallel_mod

    design, stimulus, faults, reference = _workload("apb")
    result = run_multiprocess(design, stimulus, faults, workers=2, width=4)
    chunks = chunk_positions(range(len(faults)), 4, max_chunks=2 * OVERSUBSCRIBE)
    cycles = 0
    for chunk in chunks:
        sites = [(faults[p].signal.name, faults[p].bit, faults[p].value) for p in chunk]
        cycles += parallel_mod._run_chunk(design, stimulus, ("packed", {"width": 4}), sites)[1]
    assert result.stats.chunks_simulated == len(chunks) == 3
    assert result.stats.cycles == cycles > 0
    stats = result.stats
    assert (stats.chunk_retries, stats.chunks_failed, stats.chunks_quarantined) == (0, 0, 0)
    assert result.coverage.detections == reference.coverage.detections


def test_worker_crash_fail_fast_without_salvage():
    """salvage=False restores the historical fail-fast error contract."""
    design, stimulus, faults, _ = _workload("apb")
    with pytest.raises(SimulationError, match="worker process died"):
        run_multiprocess(
            design, stimulus, faults, workers=2, width=4, salvage=False,
            retries=0, degrade=False, chaos="crash:base=0",
        )


# ------------------------------------------------------------------- hygiene
def test_pooled_campaign_returns_after_its_workers_exit():
    """No worker outlives the campaign, so the next one gets the CPUs to itself."""
    design, stimulus, faults, reference = _workload("apb")
    result = run_multiprocess(design, stimulus, faults, workers=2, width=4)
    assert multiprocessing.active_children() == []
    assert result.coverage.detections == reference.coverage.detections


#: Runs a one-worker campaign and a pooled one whose chunk 1 crashes once,
#: then prints their verdicts and whether shared memory was ever imported.
_NO_SHARED_MEMORY_SCRIPT = """
import json
import sys

from repro.designs.registry import get_benchmark
from repro.fault.faultlist import FaultList
from repro.fault.model import StuckAtFault
from repro.sim.parallel import run_multiprocess
from repro.sim.resilience import RetryPolicy

benchmark, cycles, sites_json = sys.argv[1:4]
spec = get_benchmark(benchmark)
design = spec.compile()
stimulus = spec.stimulus(cycles=int(cycles))
faults = FaultList(
    [StuckAtFault(design.signal(n), b, v) for n, b, v in json.loads(sites_json)]
)
inline = run_multiprocess(design, stimulus, faults, workers=1, width=4)
pooled = run_multiprocess(
    design, stimulus, faults, workers=2, width=4,
    chaos="crash:chunk=1,until_attempt=1",
    retries=RetryPolicy(max_attempts=3, backoff=0.05, jitter=0.0),
)
print(json.dumps({
    "inline": inline.coverage.detections,
    "pooled": pooled.coverage.detections,
    "partial": pooled.partial,
    "retries": pooled.stats.chunk_retries,
    "shared_memory": "multiprocessing.shared_memory" in sys.modules,
}))
"""


def test_no_campaign_imports_shared_memory():
    """A one-worker campaign and a pooled one that heals a worker crash both
    reach exact verdicts in a fresh interpreter that never imports
    ``multiprocessing.shared_memory``."""
    import repro

    design, stimulus, faults, reference = _workload("apb")
    sites = [[f.signal.name, f.bit, f.value] for f in faults]
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    child = subprocess.run(
        [sys.executable, "-c", _NO_SHARED_MEMORY_SCRIPT, "apb", str(PARITY_CYCLES),
         json.dumps(sites)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0, child.stderr
    report = json.loads(child.stdout.strip().splitlines()[-1])
    expected = dict(reference.coverage.detections)
    assert report["inline"] == expected
    assert report["pooled"] == expected
    assert not report["partial"] and report["retries"] >= 1
    assert not report["shared_memory"]


# -------------------------------------------------------- alternative runners
def test_vector_runner_pooled_matches_serial():
    pytest.importorskip("numpy")
    design, stimulus, faults, reference = _workload("apb")
    result = run_multiprocess(
        design, stimulus, faults, workers=2, runner=("vector", {"width": 4})
    )
    assert result.simulator == "VectorPPSFP-MP"
    assert result.coverage.detections == reference.coverage.detections


@pytest.mark.parametrize(
    "runner, label",
    [
        (("packed", {"width": 4}), "PackedPPSFP-MP"),
        (("vector", {"width": 4}), "VectorPPSFP-MP"),
        (("serial", {"engine": "codegen"}), "serial-MP"),
    ],
    ids=["packed", "vector", "serial"],
)
def test_inline_runner_kinds_match_serial_and_label_the_result(runner, label):
    if runner[0] == "vector":
        pytest.importorskip("numpy")
    design, stimulus, faults, reference = _workload("apb")
    result = run_multiprocess(design, stimulus, faults, workers=1, runner=runner)
    assert result.simulator == label
    assert result.coverage.detections == reference.coverage.detections
    assert result.stats.chunks_simulated == 1


def test_auto_runner_is_resolved_before_any_chunk_is_submitted(monkeypatch):
    """Workers only ever see a concrete runner: ``auto`` picks packed words
    for a ten-fault campaign, at the campaign's width."""
    import repro.sim.parallel as parallel_mod

    submitted = []
    submit = parallel_mod._Campaign.submit

    def spy(self, pool, state):
        submitted.append(self.runner)
        return submit(self, pool, state)

    monkeypatch.setattr(parallel_mod._Campaign, "submit", spy)
    design, stimulus, faults, reference = _workload("apb")
    result = run_multiprocess(design, stimulus, faults, workers=2, width=4, runner=("auto", {}))
    assert submitted == [("packed", {"width": 4})] * 3
    assert result.simulator == "PackedPPSFP-MP"
    assert result.coverage.detections == reference.coverage.detections


def test_inline_chunks_run_packed_where_the_parent_lacks_numpy(monkeypatch):
    """A vector campaign's inline chunk runs on packed words of the same
    width in a parent without NumPy, with the same verdicts and label."""
    import repro.sim.parallel as parallel_mod

    monkeypatch.setattr(parallel_mod, "numpy_is_available", lambda: False)
    built = []
    make_runner = parallel_mod.make_campaign_runner

    def spy(design, runner):
        built.append(runner)
        return make_runner(design, runner)

    monkeypatch.setattr(parallel_mod, "make_campaign_runner", spy)
    design, stimulus, faults, reference = _workload("apb")
    result = run_multiprocess(
        design, stimulus, faults, workers=1, runner=("vector", {"width": 4})
    )
    assert built == [("packed", {"width": 4})]
    assert result.simulator == "VectorPPSFP-MP"
    assert result.coverage.detections == reference.coverage.detections


def test_packed_and_serial_inline_chunks_never_probe_numpy(monkeypatch):
    import repro.sim.parallel as parallel_mod

    def probe():
        raise AssertionError("probed NumPy for a runner without a fallback")

    monkeypatch.setattr(parallel_mod, "numpy_is_available", probe)
    for runner in (("packed", {"width": 4}), ("serial", {"engine": "codegen"})):
        assert parallel_mod._inline_runner(runner) == runner


# ------------------------------------------------- serial-baseline campaigns
def test_serial_baseline_campaign_matches():
    design, stimulus, faults, reference = _workload("apb")
    simulator = SerialFaultSimulator(
        design, engine="codegen", campaign=CampaignConfig(workers=2)
    )
    result = simulator.run(stimulus, faults)
    assert result.simulator == "serial"
    assert result.coverage.detections == reference.coverage.detections


def test_serial_baseline_campaign_chunks_one_fault_per_word():
    """The serial runner has no lanes, so a pooled campaign cuts its ten
    faults at single-fault grain: five chunks of two for two workers."""
    design, stimulus, faults, reference = _workload("apb")
    simulator = SerialFaultSimulator(
        design, engine="codegen", campaign=CampaignConfig(workers=2, width=64)
    )
    result = simulator.run(stimulus, faults)
    chunks = chunk_positions(range(len(faults)), 1, max_chunks=2 * OVERSUBSCRIBE)
    assert result.stats.chunks_simulated == len(chunks) == 5
    assert result.coverage.detections == reference.coverage.detections


def test_serial_baseline_campaign_reads_the_cache(tmp_path):
    """The baselines' campaign= path keys the same result cache: a rerun
    answers every fault from it and simulates no chunk."""
    design, stimulus, faults, reference = _workload("apb")
    config = CampaignConfig(workers=2, cache=str(tmp_path / "results"))
    cold = SerialFaultSimulator(design, engine="codegen", campaign=config).run(
        stimulus, faults
    )
    assert cold.stats.cache_writes == len(faults)
    warm = SerialFaultSimulator(design, engine="codegen", campaign=config).run(
        stimulus, faults
    )
    assert warm.stats.cache_hits == len(faults)
    assert warm.stats.chunks_simulated == 0
    assert warm.simulator == "serial"
    assert warm.coverage.detections == reference.coverage.detections


def test_serial_baseline_process_needs_an_engine(counter_design, counter_stimulus):
    faults = generate_stuck_at_faults(counter_design)
    simulator = SerialFaultSimulator(counter_design, campaign=CampaignConfig(workers=2))
    with pytest.raises(SimulationError, match="engine"):
        simulator.run(counter_stimulus, faults)
