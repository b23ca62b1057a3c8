"""The chaos-injection suite: self-healing campaigns under induced failure.

Every resilience promise of the campaign runtime is exercised here through
the structured injection plans of :mod:`repro.sim.chaos`:

* a worker **crash** at a chosen chunk heals by retry — the campaign ends
  ``partial=False`` with verdicts *and* cycles identical to an uninjected
  run, proven across the whole ten-benchmark corpus;
* a **hung** chunk is timed out by the watchdog and retried;
* a **poison** chunk (crashes on every attempt) is quarantined and finished
  inline in the parent;
* a parent **killed mid-campaign** leaves the detections it flushed in the
  result cache, so the rerun simulates only the misses, and a campaign that
  fails or raises leaves its detections there too;
* an **interrupted** campaign does not wait for a hung chunk, and leaves no
  worker alive;
* the plan grammar itself round-trips and picks up the environment.

Chunk idempotency is the invariant under test everywhere: no matter which
failure fires, re-running work may only return the same verdicts.
"""

import gc
import json
import os
import pickle
import signal
import subprocess
import sys
import time

import pytest

from repro.baselines.base import SerialFaultSimulator
from repro.designs.registry import BENCHMARK_NAMES
from repro.errors import ChaosError, SimulationError
from repro.fault.faultlist import generate_stuck_at_faults, sample_faults
from repro.sim.chaos import CHAOS_ENV_VAR, ChaosPlan, ChaosRule
from repro.sim.codegen import design_fingerprint
from repro.sim.parallel import CampaignConfig, run_multiprocess
from repro.sim.resilience import RetryPolicy
from repro.sim.result_cache import ResultCache, stimulus_hash

#: Mirrors the parity parameters of test_parallel.py: enough cycles for
#: observable activity, a fault count that does not divide the word width.
PARITY_CYCLES = 30
PARITY_FAULTS = 10

#: A fast retry shape for tests: full supervision, minimal sleeping.
FAST_RETRIES = RetryPolicy(max_attempts=3, backoff=0.05, jitter=0.0)

#: Where multiprocessing keeps the pool's named semaphores on Linux.
SHM_DIR = "/dev/shm"


@pytest.fixture(autouse=True)
def _isolated_codegen_cache(tmp_path, monkeypatch):
    """Keep every test (and its spawned workers) off the real user cache."""
    monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(tmp_path / "codegen-cache"))


_workloads = {}


def _workload(name):
    """Compile each benchmark once per session, with its serial reference."""
    if name not in _workloads:
        from repro.harness.experiments import prepare_workload

        prepared = prepare_workload(name, cycles=PARITY_CYCLES)
        faults = sample_faults(
            generate_stuck_at_faults(prepared.design), PARITY_FAULTS, seed=7
        )
        reference = SerialFaultSimulator(prepared.design, engine="codegen").run(
            prepared.stimulus, faults
        )
        _workloads[name] = (prepared.design, prepared.stimulus, faults, reference)
    return _workloads[name]


# ----------------------------------------------------------- the plan grammar
def test_plan_parse_and_round_trip():
    text = "crash:chunk=2,until_attempt=1;slow:base=8,seconds=0.5"
    plan = ChaosPlan.parse(text)
    assert len(plan.rules) == 2
    assert plan.rules[0].kind == "crash" and plan.rules[0].chunk == 2
    assert plan.rules[1].kind == "slow" and plan.rules[1].seconds == 0.5
    assert ChaosPlan.parse(plan.to_text()).to_text() == plan.to_text()
    assert bool(plan)
    assert not ChaosPlan.parse("")


def test_rule_triggers():
    rule = ChaosRule("crash", chunk=3, until_attempt=1)
    assert rule.matches(3, 0, 0)
    assert not rule.matches(2, 0, 0)  # wrong chunk
    assert not rule.matches(3, 0, 1)  # past the attempt window
    threshold = ChaosRule("crash", base=8)
    assert threshold.matches(0, 8, 5) and threshold.matches(1, 12, 0)
    assert not threshold.matches(0, 7, 0)


def test_first_matching_rule_wins():
    plan = ChaosPlan.parse("slow:chunk=1,seconds=0;crash:chunk=1")
    assert plan.rule_for(1, 0, 0).kind == "slow"
    assert plan.rule_for(2, 0, 0) is None


def test_plan_pickles_across_the_process_boundary():
    plan = ChaosPlan.parse("hang:chunk=1,seconds=2;raise:base=4")
    clone = pickle.loads(pickle.dumps(plan))
    assert clone.to_text() == plan.to_text()


def test_environment_resolution(monkeypatch):
    monkeypatch.delenv(CHAOS_ENV_VAR, raising=False)
    assert ChaosPlan.from_environment() is None
    monkeypatch.setenv(CHAOS_ENV_VAR, "crash:base=8")
    plan = ChaosPlan.from_environment()
    assert plan.rules[0].kind == "crash" and plan.rules[0].base == 8
    monkeypatch.setenv(CHAOS_ENV_VAR, "slow:seconds=1")
    assert ChaosPlan.from_environment().rules[0].kind == "slow"


def test_raise_rule_raises_chaos_error():
    plan = ChaosPlan.parse("raise:chunk=0")
    with pytest.raises(ChaosError, match="chunk 0"):
        plan.apply(0, 0, 0)
    plan.apply(1, 0, 0)  # no match: a no-op


# ------------------------------------------- crash heals: ten-benchmark parity
@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_crash_at_chunk_heals_to_identical_verdicts(name):
    """Acceptance: a worker crash at chunk 1 (first attempt only) must leave
    no trace — partial=False, verdicts and cycles byte-identical to the
    uninjected serial reference, on every corpus benchmark."""
    design, stimulus, faults, reference = _workload(name)
    result = run_multiprocess(
        design,
        stimulus,
        faults,
        workers=2,
        width=8,
        chaos="crash:chunk=1,until_attempt=1",
        retries=FAST_RETRIES,
    )
    assert not result.partial
    assert result.stats.chunk_retries >= 1
    assert result.stats.chunks_failed == 0
    assert dict(result.coverage.detections) == dict(reference.coverage.detections)


# ------------------------------------------------------- the rest of the ladder
def test_hung_chunk_is_timed_out_and_retried():
    design, stimulus, faults, reference = _workload("apb")
    begin = time.monotonic()
    result = run_multiprocess(
        design,
        stimulus,
        faults,
        workers=2,
        width=4,
        chaos="hang:chunk=0,until_attempt=1,seconds=120",
        chunk_timeout=1.5,
        retries=FAST_RETRIES,
    )
    elapsed = time.monotonic() - begin
    assert not result.partial
    assert result.stats.chunk_retries >= 1
    assert dict(result.coverage.detections) == dict(reference.coverage.detections)
    assert elapsed < 60, "the watchdog, not the 120s hang, must bound the run"


def test_poison_chunk_is_quarantined_and_finished_inline():
    design, stimulus, faults, reference = _workload("apb")
    result = run_multiprocess(
        design,
        stimulus,
        faults,
        workers=2,
        width=4,
        chaos="crash:chunk=1",  # every attempt: a deterministic poison chunk
        retries=RetryPolicy(max_attempts=2, backoff=0.05, jitter=0.0),
    )
    assert not result.partial
    assert result.stats.chunks_quarantined >= 1
    assert result.stats.chunks_failed == 0
    assert dict(result.coverage.detections) == dict(reference.coverage.detections)


def test_raise_in_chunk_retries_without_a_pool_rebuild():
    design, stimulus, faults, reference = _workload("apb")
    result = run_multiprocess(
        design,
        stimulus,
        faults,
        workers=2,
        width=4,
        chaos="raise:chunk=0,until_attempt=1",
        retries=FAST_RETRIES,
    )
    assert not result.partial
    assert result.stats.chunk_retries == 1
    assert dict(result.coverage.detections) == dict(reference.coverage.detections)


def test_progress_events_stay_ordered_under_retries(monkeypatch):
    import repro.sim.parallel as parallel_mod

    monkeypatch.setattr(parallel_mod, "PROGRESS_INTERVAL", 0.05)
    design, stimulus, faults, _ = _workload("apb")
    events = []
    result = run_multiprocess(
        design,
        stimulus,
        faults,
        workers=2,
        width=4,
        on_progress=events.append,
        chaos="raise:chunk=0,until_attempt=1",
        retries=FAST_RETRIES,
    )
    assert not result.partial
    assert events[0].chunks_done == 0 and not events[0].final
    assert [e.final for e in events].count(True) == 1 and events[-1].final
    assert events[-1].chunks_done == events[-1].chunks_total
    for earlier, later in zip(events, events[1:]):
        assert later.detected >= earlier.detected
        assert later.chunks_done >= earlier.chunks_done
        assert later.elapsed >= earlier.elapsed
    assert all(e.eta is None or e.eta >= 0.0 for e in events)


# ------------------------------------------------------- harness knob plumbing
def test_cli_flags_build_campaign_config():
    from repro.harness.__main__ import parse_args

    args = parse_args(
        [
            "fig6",
            "--workers", "2",
            "--retries", "5",
            "--chunk-timeout", "9.5",
            "--chaos", "slow:seconds=0.1",
        ]
    )
    assert args.campaign == CampaignConfig(
        workers=2,
        retries=5,
        chunk_timeout=9.5,
        chaos="slow:seconds=0.1",
    )
    # --progress fills on_progress; no --workers means no campaign at all
    assert callable(parse_args(["all", "--workers", "1", "--progress"]).campaign.on_progress)
    assert parse_args(["fig6"]).campaign is None


@pytest.mark.parametrize(
    "argv, needle",
    [
        (["table2", "--retries", "5"], "table2 runs no fault campaign"),
        (["fig7", "--workers", "2"], "--workers"),
        (["fig6", "--cache", "results"], "unrecognized arguments: --cache"),
        (
            ["fig6", "--workers", "1", "--checkpoint", "campaign.ckpt"],
            "unrecognized arguments: --checkpoint",
        ),
        (["fig6", "--retries", "0"], "need --workers"),
        (["fig6", "--progress"], "need --workers"),
        (["fig6", "--workers", "0"], "workers must be"),
    ],
    ids=["table2", "fig7", "cache", "checkpoint", "retries-0", "progress", "workers-0"],
)
def test_cli_rejects_campaign_flags_that_reach_no_campaign(argv, needle, capsys):
    from repro.harness.__main__ import parse_args

    with pytest.raises(SystemExit) as excinfo:
        parse_args(argv)
    assert excinfo.value.code == 2
    assert needle in capsys.readouterr().err


# ------------------------------------------------- crash recovery via the cache
def _shard(root, design, stimulus):
    """The verdicts the result cache under ``root`` holds for this campaign."""
    return ResultCache(root).load(design_fingerprint(design), stimulus_hash(stimulus))


def test_completed_pooled_campaign_leaves_nothing_to_simulate(tmp_path):
    """A completed pooled campaign's cache makes its rerun simulate no chunk."""
    design, stimulus, faults, reference = _workload("apb")
    root = str(tmp_path / "results")
    first = run_multiprocess(design, stimulus, faults, workers=2, width=4, cache=root)
    assert first.stats.chunks_simulated > 0
    assert _shard(root, design, stimulus) == {
        fault.name: reference.coverage.detections.get(fault.name) for fault in faults
    }
    rerun = run_multiprocess(design, stimulus, faults, workers=2, width=4, cache=root)
    assert rerun.stats.chunks_simulated == 0
    assert rerun.stats.cache_hits == len(faults)
    assert dict(rerun.coverage.detections) == dict(reference.coverage.detections)


@pytest.mark.parametrize(
    "chaos", ["crash:base=4", "raise:chunk=1"], ids=["worker-death", "chunk-raise"]
)
def test_salvaged_campaign_leaves_its_detections_for_the_rerun(chaos, tmp_path):
    """A campaign that failed still caches what it detected, so the rerun
    with the same cache hits those faults and simulates only the rest."""
    design, stimulus, faults, reference = _workload("apb")
    knobs = dict(workers=2, width=4, cache=str(tmp_path / "results"))
    partial = run_multiprocess(
        design, stimulus, faults, chaos=chaos, retries=0, degrade=False, **knobs
    )
    assert partial.partial
    assert partial.stats.cache_writes > 0
    healed = run_multiprocess(design, stimulus, faults, **knobs)
    assert not healed.partial
    assert healed.stats.cache_hits == partial.stats.cache_writes
    assert healed.stats.cache_writes == len(faults) - healed.stats.cache_hits
    assert dict(healed.coverage.detections) == dict(reference.coverage.detections)


def test_campaign_that_raises_leaves_its_detections_in_the_cache(tmp_path):
    """salvage=False raises, yet the detections of the chunks that finished
    are in the shard, and no undetected verdict: only a complete campaign
    may record one."""
    design, stimulus, faults, reference = _workload("apb")
    root = str(tmp_path / "results")
    with pytest.raises(SimulationError, match="worker process died"):
        run_multiprocess(
            design, stimulus, faults, workers=2, width=4, cache=root,
            salvage=False, retries=0, degrade=False, chaos="crash:base=4",
        )
    verdicts = _shard(root, design, stimulus)
    assert verdicts
    for name, cycle in verdicts.items():
        assert cycle is not None
        assert reference.coverage.detections[name] == cycle


def test_periodic_flush_writes_each_verdict_once(tmp_path, monkeypatch):
    """Flushing on every poll streams detections to the shard as chunks
    finish; the final write adds only the rest, so cache_writes counts each
    verdict once and the shard holds the reference verdicts."""
    import repro.sim.parallel as parallel

    monkeypatch.setattr(parallel, "CACHE_FLUSH_INTERVAL", 0.0)
    writes = []
    real_store = ResultCache.store

    def recording_store(self, fingerprint, stim_hash, verdicts, **kwargs):
        writes.append(dict(verdicts))
        return real_store(self, fingerprint, stim_hash, verdicts, **kwargs)

    monkeypatch.setattr(ResultCache, "store", recording_store)
    design, stimulus, faults, reference = _workload("apb")
    detected = reference.coverage.detections
    assert 0 < len(detected) < len(faults)
    root = str(tmp_path / "results")
    result = run_multiprocess(design, stimulus, faults, workers=2, width=4, cache=root)
    assert dict(result.coverage.detections) == dict(detected)
    assert len(writes) >= 2
    assert None not in writes[0].values()  # a mid-run flush: detections only
    written = [name for batch in writes for name in batch]
    assert sorted(written) == sorted(fault.name for fault in faults)
    assert result.stats.cache_writes == len(faults)
    assert _shard(root, design, stimulus) == {
        fault.name: detected.get(fault.name) for fault in faults
    }


def test_read_mode_cache_is_never_flushed(tmp_path, monkeypatch):
    """cache_mode="read" writes nothing, neither on the periodic flush nor
    when the campaign dies."""
    import repro.sim.parallel as parallel

    monkeypatch.setattr(parallel, "CACHE_FLUSH_INTERVAL", 0.0)
    design, stimulus, faults, _ = _workload("apb")
    root = str(tmp_path / "results")
    with pytest.raises(SimulationError, match="worker process died"):
        run_multiprocess(
            design, stimulus, faults, workers=2, width=4, cache=root, cache_mode="read",
            salvage=False, retries=0, degrade=False, chaos="crash:base=4",
        )
    assert _shard(root, design, stimulus) == {}


def test_interrupted_campaign_leaves_its_finished_chunks_in_the_cache(tmp_path):
    """A KeyboardInterrupt mid-campaign: release() flushes the chunks that
    had finished, so the rerun hits them and simulates only the rest."""
    from repro.fault.faultlist import FaultList
    from repro.fault.model import StuckAtFault

    design, stimulus, faults, reference = _workload("apb")
    # detected faults only, so the first chunk to finish has a detection to
    # flush; fresh copies, since FaultList renumbers what it holds
    detected = FaultList(
        [
            StuckAtFault(fault.signal, fault.bit, fault.value)
            for fault in faults
            if fault.name in reference.coverage.detections
        ]
    )
    root = str(tmp_path / "results")

    def interrupt(event):
        if event.chunks_done and not event.final:
            raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        run_multiprocess(
            design, stimulus, detected, workers=2, width=2, cache=root,
            on_progress=interrupt,
        )
    flushed = _shard(root, design, stimulus)
    assert flushed
    for name, cycle in flushed.items():
        assert reference.coverage.detections[name] == cycle
    rerun = run_multiprocess(design, stimulus, detected, workers=2, width=2, cache=root)
    assert rerun.stats.cache_hits == len(flushed)
    assert rerun.stats.cache_misses == len(detected) - len(flushed)
    assert dict(rerun.coverage.detections) == dict(reference.coverage.detections)


def test_interrupted_campaign_does_not_wait_out_a_stalled_chunk():
    """A KeyboardInterrupt while a chunk hangs surfaces at once: the pool's
    workers are killed and joined, so no child outlives the campaign."""
    import multiprocessing

    design, stimulus, faults, _ = _workload("apb")

    def interrupt(event):
        if event.chunks_done and not event.final:
            raise KeyboardInterrupt

    begin = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_multiprocess(
            design, stimulus, faults, workers=2, width=4,
            chaos="hang:chunk=0,seconds=120", on_progress=interrupt,
        )
    assert time.monotonic() - begin < 60, "the interrupt waited for the hung chunk"
    assert multiprocessing.active_children() == []


_CHILD_SCRIPT = """
import json, os, sys
from multiprocessing import resource_tracker

import repro.sim.parallel as parallel
from repro.fault.faultlist import FaultList
from repro.fault.model import StuckAtFault
from repro.harness.experiments import prepare_workload

benchmark, cycles, cache_root, sites_json = sys.argv[1:5]
prepared = prepare_workload(benchmark, cycles=int(cycles))
design = prepared.design
faults = FaultList(
    [StuckAtFault(design.signal(n), b, v) for n, b, v in json.loads(sites_json)]
)
# the resource tracker stays in the test's process group and outlives the
# kill, so it unlinks the dead campaign's semaphores; the campaign and its
# workers get a session of their own, which the test kills
resource_tracker.ensure_running()
os.setsid()
parallel.CACHE_FLUSH_INTERVAL = 0.05
# chunk 0 finishes at once and is flushed; the others stall long enough
# for the test to kill the campaign while they run
parallel.run_multiprocess(
    design, prepared.stimulus, faults, workers=2, width=1,
    cache=cache_root, chaos="slow:chunk=0,seconds=0.1;slow:seconds=3",
)
"""


def _semaphores():
    """The named POSIX semaphores multiprocessing left under /dev/shm."""
    return {entry for entry in os.listdir(SHM_DIR) if entry.startswith("sem.mp-")}


def test_parent_killed_mid_campaign_leaves_its_detections_in_the_cache(tmp_path):
    """Acceptance: SIGKILL the campaign parent and its workers mid-run; the
    rerun with the same cache hits what the killed campaign flushed,
    simulates only the misses, and /dev/shm is left as it was found."""
    design, stimulus, faults, reference = _workload("apb")
    from repro.fault.faultlist import FaultList

    # a detected-only fault list: whatever the child flushes is a detection
    proven = FaultList(
        [f for f in faults if f.name in reference.coverage.detections]
    )
    if len(proven) < 3:
        pytest.skip("benchmark sample detects too few faults to re-chunk")
    sites = [[f.signal.name, f.bit, f.value] for f in proven]
    root = str(tmp_path / "results")
    has_shm = os.path.isdir(SHM_DIR)
    semaphores_before = _semaphores() if has_shm else set()
    import repro

    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    log_path = tmp_path / "child.log"
    with open(log_path, "wb") as log:
        child = subprocess.Popen(
            [sys.executable, "-c", _CHILD_SCRIPT, "apb", str(PARITY_CYCLES), root,
             json.dumps(sites)],
            env=env,
            stdout=log,
            stderr=subprocess.STDOUT,
        )
    flushed = False
    try:
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline and child.poll() is None:
            if any(cycle is not None for cycle in _shard(root, design, stimulus).values()):
                flushed = True
                break
            time.sleep(0.05)
    finally:
        if child.poll() is None:
            try:
                os.killpg(child.pid, signal.SIGKILL)
            except ProcessLookupError:  # killed before it left the test's group
                child.kill()
        child.wait(timeout=30)
    output = log_path.read_text(errors="replace")
    assert flushed, f"the campaign flushed no detection while it ran:\n{output}"
    assert child.returncode == -signal.SIGKILL, output
    if has_shm:
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline and _semaphores() - semaphores_before:
            time.sleep(0.1)
        assert not _semaphores() - semaphores_before
    rerun = run_multiprocess(design, stimulus, proven, workers=2, width=1, cache=root)
    hits = rerun.stats.cache_hits
    assert 1 <= hits < len(proven), "the kill must land mid-campaign"
    assert rerun.stats.cache_misses == len(proven) - hits
    assert rerun.stats.cache_writes == rerun.stats.cache_misses
    assert not rerun.partial
    expected = {f.name: reference.coverage.detections[f.name] for f in proven}
    assert dict(rerun.coverage.detections) == expected
    if has_shm:
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline and _semaphores() - semaphores_before:
            gc.collect()
            time.sleep(0.1)
        assert not _semaphores() - semaphores_before
