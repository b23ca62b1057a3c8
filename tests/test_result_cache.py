"""Tests for the persistent campaign result cache (repro.sim.result_cache).

The acceptance bar has three layers.  The unit layer pins the store itself:
content-addressed layout, verdict round-trips including proven-*undetected*
(``null``) entries, read-merge-replace atomicity with no temp-file litter,
corruption reading as a cold cache, and age/size garbage collection.  The
key layer pins :func:`stimulus_hash`: the same stimulus built through every
:class:`WorkloadSpec` mode (registry benchmark, raw Verilog source, pickled
design) hashes identically, while any change to a vector, the clock or the
cycle count re-keys.  The campaign layer is the reason the cache exists: on
all ten corpus benchmarks a warm replay resolves every verdict from the
cache with **zero chunks scheduled** and verdicts + detection cycles
byte-identical to the cold run; a superset campaign simulates only the
delta; a changed design, stimulus or fault never hits; a cached campaign's
wall time covers its cache I/O; and the plumbing (a reused
``CampaignConfig``, the harness CLI flags, ``tools/result_cache_ctl.py``)
threads the knobs end to end.
"""

import json
import os
import pickle
import time

import pytest

from fixture_designs import COUNTER_SRC
from repro.api import compile_design
from repro.baselines.base import SerialFaultSimulator
from repro.designs.registry import BENCHMARK_NAMES, get_benchmark
from repro.errors import HarnessError, SimulationError, UnknownOptionError
from repro.fault.faultlist import generate_stuck_at_faults, sample_faults
from repro.sim.codegen import design_fingerprint
from repro.sim.parallel import CampaignConfig, WorkloadSpec, run_multiprocess
from repro.sim.result_cache import (
    CACHE_VERSION,
    ResultCache,
    cache_dir,
    stimulus_hash,
)
from repro.sim.stimulus import VectorStimulus

#: Cycles per benchmark for the corpus sweep; enough for observable activity.
PARITY_CYCLES = 30

#: Fault sample per benchmark (deliberately not a multiple of the word width).
PARITY_FAULTS = 10


@pytest.fixture(autouse=True)
def _isolated_caches(tmp_path, monkeypatch):
    """Keep every test (and its spawned workers) off the real user caches."""
    monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(tmp_path / "codegen-cache"))
    monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path / "result-cache"))


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


# ---------------------------------------------------------- the stimulus hash
def test_stimulus_hash_stable_across_workload_spec_modes():
    """One stimulus, three build paths, one hash.

    The hash must capture what the design *sees* (clock + per-cycle
    vectors), not how the stimulus object was constructed — a registry
    benchmark stimulus and its vector-flattened WorkloadSpec round-trips in
    every design mode must key the same cache shard.
    """
    spec = get_benchmark("alu")
    design = spec.compile()
    stimulus = spec.stimulus(cycles=PARITY_CYCLES)
    expected = stimulus_hash(stimulus)
    specs = [
        WorkloadSpec(benchmark="alu"),
        WorkloadSpec(source=spec.read_source(), top=spec.top),
        WorkloadSpec(design_blob=pickle.dumps(design)),
    ]
    for workload_spec in specs:
        rebuilt_design, rebuilt_stimulus = workload_spec.with_stimulus(
            stimulus
        ).build()
        assert stimulus_hash(rebuilt_stimulus) == expected
        assert design_fingerprint(rebuilt_design) == design_fingerprint(design)


def test_stimulus_hash_changes_on_vector_clock_or_cycle_count():
    base = VectorStimulus([{"a": 1, "clk": 0}, {"a": 2, "clk": 0}], clock="clk")
    changed_vector = VectorStimulus(
        [{"a": 1, "clk": 0}, {"a": 3, "clk": 0}], clock="clk"
    )
    changed_clock = VectorStimulus(
        [{"a": 1, "clk": 0}, {"a": 2, "clk": 0}], clock="a"
    )
    truncated = VectorStimulus([{"a": 1, "clk": 0}], clock="clk")
    hashes = [
        stimulus_hash(s) for s in (base, changed_vector, changed_clock, truncated)
    ]
    assert len(set(hashes)) == len(hashes)
    # and the base is reproducible, not time- or identity-dependent
    assert stimulus_hash(base) == hashes[0]


# ------------------------------------------------------------- the store unit
FP = "ab" * 32
SH = "cd" * 32


def test_round_trip_including_undetected(tmp_path):
    cache = ResultCache(str(tmp_path / "c"))
    verdicts = {"f0 stuck-at-1": 7, "f1 stuck-at-0": None}
    assert cache.store(FP, SH, verdicts, design_name="alu", clock="clk", cycles=30)
    assert cache.load(FP, SH) == verdicts
    # lookup filters to the asked-for names, keeping null verdicts
    assert cache.lookup(FP, SH, ["f1 stuck-at-0", "missing"]) == {
        "f1 stuck-at-0": None
    }


def test_store_merges_and_leaves_no_temp_files(tmp_path):
    cache = ResultCache(str(tmp_path / "c"))
    cache.store(FP, SH, {"a": 1})
    cache.store(FP, SH, {"b": None})
    cache.store(FP, SH, {"a": 1})  # overlap rewrites the same value
    assert cache.load(FP, SH) == {"a": 1, "b": None}
    shard_dir = os.path.dirname(cache.entry_path(FP, SH))
    assert sorted(os.listdir(shard_dir)) == [f"{SH}.json"]


def test_corrupt_or_mismatched_shard_reads_as_cold(tmp_path):
    cache = ResultCache(str(tmp_path / "c"))
    path = cache.entry_path(FP, SH)
    os.makedirs(os.path.dirname(path))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("not json{")
    assert cache.load(FP, SH) == {}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"version": CACHE_VERSION + 1, "verdicts": {"a": 1}}, handle)
    assert cache.load(FP, SH) == {}
    # non-integer verdict values are filtered rather than propagated
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"version": CACHE_VERSION, "verdicts": {"a": "soon", "b": 2}}, handle)
    assert cache.load(FP, SH) == {"b": 2}


def test_keys_must_be_hex_digests(tmp_path):
    cache = ResultCache(str(tmp_path / "c"))
    for bad in ("../evil", "", "UPPER", "zz"):
        with pytest.raises(SimulationError):
            cache.entry_path(bad, SH)
        with pytest.raises(SimulationError):
            cache.entry_path(FP, bad)


def test_coerce():
    assert ResultCache.coerce(None) is None
    default = ResultCache.coerce(True)
    assert default.root == os.path.abspath(cache_dir())
    by_path = ResultCache.coerce("/tmp/some-cache")
    assert by_path.root == os.path.abspath("/tmp/some-cache")
    instance = ResultCache("/tmp/other")
    assert ResultCache.coerce(instance) is instance
    with pytest.raises(SimulationError):
        ResultCache.coerce(3)


def test_entries_and_status(tmp_path):
    cache = ResultCache(str(tmp_path / "c"))
    assert cache.entries() == []
    assert cache.status()["entries"] == 0
    cache.store(FP, SH, {"a": 1, "b": None}, design_name="alu", cycles=30)
    cache.store("ef" * 32, SH, {"c": 2}, design_name="fpu", cycles=30)
    entries = cache.entries()
    assert [e.design_name for e in entries] == ["alu", "fpu"] or [
        e.design_name for e in entries
    ] == ["fpu", "alu"]
    status = cache.status()
    assert status["entries"] == 2
    assert status["designs"] == 2
    assert status["faults"] == 3
    assert status["detected"] == 2
    assert status["size_bytes"] > 0


def test_gc_by_age_then_size(tmp_path):
    cache = ResultCache(str(tmp_path / "c"))
    cache.store(FP, SH, {"a": 1})
    cache.store("ef" * 32, SH, {"b": 2})
    cache.store("01" * 32, SH, {"c": 3})
    now = 1_000_000.0
    old, mid, new = [entry.path for entry in cache.entries()]
    os.utime(old, (now - 10 * 86400, now - 10 * 86400))
    os.utime(mid, (now - 2 * 86400, now - 2 * 86400))
    os.utime(new, (now - 3600, now - 3600))
    removed = cache.gc(max_age_days=5, now=now)
    assert [entry.path for entry in removed] == [old]
    assert not os.path.exists(os.path.dirname(old))  # empty fingerprint pruned
    # size eviction goes oldest-first until the budget fits; 0 clears the rest
    removed = cache.gc(max_size_mb=0, now=now)
    assert [entry.path for entry in removed] == [mid, new]
    assert cache.entries() == []


# ------------------------------------------------------- campaigns, ten-fold
@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_warm_replay_reads_everything_from_cache_on_corpus(name, tmp_path):
    """Cold populates; the warm replay schedules zero chunks, verdicts exact.

    This is the acceptance sweep: on every corpus benchmark the second run
    of the identical campaign must resolve *every* fault (detected and
    undetected) from the cache, with verdicts and detection cycles
    byte-identical to both the cold run and the serial codegen reference.
    """
    design, stimulus, faults, reference = _workload(name)
    root = str(tmp_path / "results")
    cold = run_multiprocess(
        design, stimulus, faults, workers=1, width=8, cache=root
    )
    assert cold.stats.cache_hits == 0
    assert cold.stats.cache_misses == len(faults)
    assert cold.stats.cache_writes == len(faults)
    assert cold.coverage.same_verdicts(reference.coverage)

    warm = run_multiprocess(
        design, stimulus, faults, workers=1, width=8, cache=root
    )
    assert warm.stats.chunks_simulated == 0
    assert warm.stats.cache_hits == len(faults)
    assert warm.stats.cache_misses == 0
    assert warm.stats.cache_writes == 0
    assert warm.coverage.same_verdicts(cold.coverage), (
        f"{name}: warm replay disagrees on "
        f"{warm.coverage.disagreements(cold.coverage)}"
    )
    assert warm.coverage.detections == reference.coverage.detections


def test_shard_records_detected_cycles_and_undetected_nulls(tmp_path):
    design, stimulus, faults, reference = _workload("alu")
    root = str(tmp_path / "results")
    run_multiprocess(design, stimulus, faults, workers=1, width=8, cache=root)
    cache = ResultCache(root)
    verdicts = cache.load(design_fingerprint(design), stimulus_hash(stimulus))
    assert set(verdicts) == {fault.name for fault in faults}
    for fault in faults:
        expected = reference.coverage.detections.get(fault.name)
        assert verdicts[fault.name] == expected


def test_superset_campaign_simulates_only_the_delta(tmp_path):
    design, stimulus, faults, reference = _workload("apb")
    root = str(tmp_path / "results")
    subset = faults[: len(faults) - 4]
    run_multiprocess(design, stimulus, subset, workers=1, width=8, cache=root)

    superset = run_multiprocess(
        design, stimulus, faults, workers=1, width=8, cache=root
    )
    assert superset.stats.cache_hits == len(subset)
    assert superset.stats.cache_misses == len(faults) - len(subset)
    assert superset.stats.cache_writes == len(faults) - len(subset)
    assert superset.coverage.same_verdicts(reference.coverage)
    # and now the whole list is warm
    warm = run_multiprocess(
        design, stimulus, faults, workers=1, width=8, cache=root
    )
    assert warm.stats.cache_hits == len(faults)
    assert warm.stats.chunks_simulated == 0


def test_subset_campaign_reads_only_its_own_verdicts(tmp_path):
    """A campaign over some of a warm shard's faults takes their verdicts
    and nothing else: no foreign detection leaks into its report."""
    design, stimulus, faults, reference = _workload("apb")
    root = str(tmp_path / "results")
    run_multiprocess(design, stimulus, faults, workers=1, width=8, cache=root)
    subset = faults[1::3]
    names = {fault.name for fault in subset}
    result = run_multiprocess(design, stimulus, subset, workers=2, width=8, cache=root)
    assert result.stats.cache_hits == len(subset)
    assert result.stats.cache_misses == result.stats.cache_writes == 0
    assert result.stats.chunks_simulated == 0
    assert result.coverage.total_faults == len(subset)
    assert result.coverage.detections == {
        name: cycle
        for name, cycle in reference.coverage.detections.items()
        if name in names
    }


def test_changed_design_or_stimulus_never_hits(tmp_path):
    spec = get_benchmark("alu")
    design = spec.compile()
    stimulus = spec.stimulus(cycles=PARITY_CYCLES)
    faults = sample_faults(generate_stuck_at_faults(design), 6, seed=7)
    root = str(tmp_path / "results")
    run_multiprocess(design, stimulus, faults, workers=1, width=8, cache=root)

    # same benchmark, different stimulus (different seed) — no hits
    other_stimulus = spec.stimulus(cycles=PARITY_CYCLES, seed=1)
    assert stimulus_hash(other_stimulus) != stimulus_hash(stimulus)
    result = run_multiprocess(
        design, other_stimulus, faults, workers=1, width=8, cache=root
    )
    assert result.stats.cache_hits == 0

    # a textually different design — no hits, even for same-named faults
    changed = compile_design(COUNTER_SRC, top="counter")
    assert design_fingerprint(changed) != design_fingerprint(design)
    changed_faults = sample_faults(generate_stuck_at_faults(changed), 4, seed=7)
    counter_stimulus = VectorStimulus(
        [{"clk": 0, "rst": 1 if cycle < 2 else 0, "en": 1} for cycle in range(10)],
        clock="clk",
    )
    result = run_multiprocess(
        changed, counter_stimulus, changed_faults, workers=1, width=8, cache=root
    )
    assert result.stats.cache_hits == 0

    # a fault never campaigned stays a miss even with the shard warm
    fresh = sample_faults(generate_stuck_at_faults(design), 8, seed=11)
    new_names = {f.name for f in fresh} - {f.name for f in faults}
    result = run_multiprocess(
        design, stimulus, fresh, workers=1, width=8, cache=root
    )
    assert result.stats.cache_misses == len(new_names)


def test_cache_mode_read_and_off(tmp_path):
    design, stimulus, faults, reference = _workload("alu")
    root = str(tmp_path / "results")

    # read mode on an empty cache: misses everything, writes nothing
    result = run_multiprocess(
        design, stimulus, faults, workers=1, width=8, cache=root, cache_mode="read"
    )
    assert result.stats.cache_misses == len(faults)
    assert result.stats.cache_writes == 0
    assert ResultCache(root).entries() == []

    # populate, then read mode serves hits without touching the shard
    run_multiprocess(design, stimulus, faults, workers=1, width=8, cache=root)
    [entry] = ResultCache(root).entries()
    result = run_multiprocess(
        design, stimulus, faults, workers=1, width=8, cache=root, cache_mode="read"
    )
    assert result.stats.cache_hits == len(faults)
    assert result.coverage.same_verdicts(reference.coverage)

    # there is no "off" mode: a campaign without cache= uses no cache
    with pytest.raises(UnknownOptionError, match="cache_mode"):
        run_multiprocess(
            design, stimulus, faults, workers=1, width=8, cache=root, cache_mode="off"
        )
    result = run_multiprocess(design, stimulus, faults, workers=1, width=8)
    assert result.stats.cache_hits == 0
    assert result.stats.cache_misses == 0
    assert result.stats.chunks_simulated > 0


def test_unknown_cache_mode_and_bad_cache_value():
    design, stimulus, faults, _ = _workload("alu")
    with pytest.raises(UnknownOptionError) as excinfo:
        run_multiprocess(
            design, stimulus, faults, workers=1, cache=True, cache_mode="write"
        )
    assert "cache_mode" in str(excinfo.value)
    with pytest.raises(SimulationError):
        run_multiprocess(design, stimulus, faults, workers=1, cache=3)


def test_partial_campaign_caches_detected_verdicts_only(tmp_path):
    """A salvaged campaign must not record 'never simulated' as 'undetected'."""
    design, stimulus, faults, reference = _workload("apb")
    root = str(tmp_path / "results")
    result = run_multiprocess(
        design,
        stimulus,
        faults,
        workers=2,
        width=4,
        cache=root,
        chaos="raise:chunk=0",
        retries=0,
        degrade=False,
        salvage=True,
    )
    assert result.partial
    verdicts = ResultCache(root).load(
        design_fingerprint(design), stimulus_hash(stimulus)
    )
    assert verdicts  # the surviving chunks' detections were persisted...
    assert all(cycle is not None for cycle in verdicts.values())  # ...nulls not
    for name, cycle in verdicts.items():
        assert reference.coverage.detections[name] == cycle
    assert result.stats.cache_writes == len(verdicts)


@pytest.mark.parametrize("warm", [False, True], ids=["partial", "full"])
def test_cached_wall_time_covers_cache_io(warm, tmp_path, monkeypatch):
    """wall_time and stats.time_total run from entry until after the write."""
    design, stimulus, faults, _ = _workload("alu")
    root = str(tmp_path / "results")
    run_multiprocess(
        design, stimulus, faults if warm else faults[:4], workers=1, width=8, cache=root
    )
    real_lookup = ResultCache.lookup

    def slow_lookup(self, *args, **kwargs):
        time.sleep(0.2)
        return real_lookup(self, *args, **kwargs)

    monkeypatch.setattr(ResultCache, "lookup", slow_lookup)
    start = time.perf_counter()
    result = run_multiprocess(design, stimulus, faults, workers=1, width=8, cache=root)
    elapsed = time.perf_counter() - start
    assert result.stats.cache_hits == (len(faults) if warm else 4)
    assert 0.2 <= result.wall_time <= elapsed
    assert result.stats.time_total == result.wall_time


# ------------------------------------------------------------------- plumbing
def test_campaign_config_forwards_cache(tmp_path):
    design, stimulus, faults, reference = _workload("alu")
    config = CampaignConfig(workers=1, width=8, cache=str(tmp_path / "results"))
    cold = run_multiprocess(design, stimulus, faults, config)
    warm = run_multiprocess(design, stimulus, faults, config)
    assert warm.stats.chunks_simulated == 0
    assert warm.stats.cache_hits == len(faults)
    assert warm.coverage.same_verdicts(cold.coverage)
    assert warm.coverage.same_verdicts(reference.coverage)


def test_fig6_rejects_cache_flags_and_cached_campaigns(tmp_path, capsys):
    """fig6 times simulators against each other: a cache would void that."""
    from repro.harness import fig6
    from repro.harness.__main__ import parse_args
    from repro.harness.experiments import prepare_workload

    root = str(tmp_path / "results")
    for flags in (["--cache", root], ["--cache-mode", "read"]):
        with pytest.raises(SystemExit) as excinfo:
            parse_args(["fig6", "--workers", "1", *flags])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {flags[0]}" in capsys.readouterr().err
    workload = prepare_workload("alu", cycles=PARITY_CYCLES, fault_count=4)
    with pytest.raises(HarnessError, match="result cache"):
        fig6.run_benchmark(workload, campaign=CampaignConfig(workers=1, cache=root))
    assert ResultCache(root).entries() == []


def test_result_cache_ctl_cli(tmp_path, capsys):
    import sys

    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tools"))
    try:
        import result_cache_ctl
    finally:
        sys.path.pop(0)

    root = str(tmp_path / "results")
    cache = ResultCache(root)
    cache.store(FP, SH, {"a": 1, "b": None}, design_name="alu", cycles=30)
    cache.store("ef" * 32, SH, {"c": 4}, design_name="fpu", cycles=30)

    assert result_cache_ctl.main(["--cache", root, "status"]) == 0
    out = capsys.readouterr().out
    assert "2 shard(s) across 2 design(s)" in out
    assert "3 fault(s), 2 detected" in out

    assert result_cache_ctl.main(["--cache", root, "ls"]) == 0
    out = capsys.readouterr().out
    assert "alu" in out and "fpu" in out

    # gc without bounds is a usage error
    assert result_cache_ctl.main(["--cache", root, "gc"]) == 2
    capsys.readouterr()

    # dry-run plans but does not delete; the real gc removes everything
    assert (
        result_cache_ctl.main(["--cache", root, "gc", "--max-size-mb", "0", "--dry-run"])
        == 0
    )
    assert "would evict 2 shard(s)" in capsys.readouterr().out
    assert len(cache.entries()) == 2
    assert result_cache_ctl.main(["--cache", root, "gc", "--max-size-mb", "0"]) == 0
    assert "evicted 2 shard(s)" in capsys.readouterr().out
    assert cache.entries() == []
