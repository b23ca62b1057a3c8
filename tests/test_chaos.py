"""The chaos-injection suite: self-healing campaigns under induced failure.

Every resilience promise of the campaign runtime is exercised here through
the structured injection plans of :mod:`repro.sim.chaos`:

* a worker **crash** at a chosen chunk heals by retry — the campaign ends
  ``partial=False`` with verdicts *and* cycles identical to an uninjected
  run, proven across the whole ten-benchmark corpus;
* a **hung** chunk is timed out by the watchdog and retried;
* a **poison** chunk (crashes on every attempt) is quarantined and finished
  inline in the parent;
* a parent **killed mid-campaign** resumes from its disk checkpoint and
  simulates strictly fewer chunks the second time;
* the plan grammar itself round-trips and picks up the environment.

Chunk idempotency is the invariant under test everywhere: no matter which
failure fires, re-running work may only rewrite the same verdict bytes.
"""

import json
import os
import pickle
import signal
import subprocess
import sys
import time

import pytest

from plane_leaks import verdict_plane_segments
from repro.baselines.base import SerialFaultSimulator
from repro.designs.registry import BENCHMARK_NAMES
from repro.errors import ChaosError, CheckpointError
from repro.fault.faultlist import generate_stuck_at_faults, sample_faults
from repro.sim.chaos import CHAOS_ENV_VAR, ChaosPlan, ChaosRule
from repro.sim.parallel import CampaignConfig, run_multiprocess
from repro.sim.resilience import RetryPolicy
from repro.sim.stimulus import truncated
from repro.sim.verdict_plane import VerdictPlane, campaign_fingerprint

#: Mirrors the parity parameters of test_parallel.py: enough cycles for
#: observable activity, a fault count that does not divide the word width.
PARITY_CYCLES = 30
PARITY_FAULTS = 10

#: A fast retry shape for tests: full supervision, minimal sleeping.
FAST_RETRIES = RetryPolicy(max_attempts=3, backoff=0.05, jitter=0.0)


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


def test_legacy_pickled_dict_path_retries_too(without_shared_memory):
    """The pickled-dict fallback (no /dev/shm) retries correctly from merged
    dicts: a failed chunk streams nothing (there is no plane), so its retry
    re-returns the complete verdict dict and the disjointness merge holds."""
    design, stimulus, faults, reference = _workload("apb")
    result = run_multiprocess(
        design,
        stimulus,
        faults,
        workers=2,
        width=4,
        chaos="raise:chunk=1,until_attempt=1",
        retries=FAST_RETRIES,
    )
    assert not result.partial
    assert result.stats.chunk_retries >= 1
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


# ------------------------------------------------------------ disk checkpoints
def test_checkpoint_resume_skips_proven_chunks(tmp_path):
    """A completed campaign's checkpoint makes the rerun skip every chunk."""
    design, stimulus, faults, reference = _workload("apb")
    path = str(tmp_path / "campaign.ckpt")
    first = run_multiprocess(
        design, stimulus, faults, workers=2, width=4, checkpoint=path
    )
    assert first.stats.checkpoints_written >= 1
    snapshot = VerdictPlane.load(
        path, expect_fingerprint=campaign_fingerprint(design, stimulus, faults)
    )
    detected = snapshot.detected_count()
    snapshot.close()
    assert detected == len(reference.coverage.detections)
    # rerun over only the detected faults: every chunk is already proven
    from repro.fault.faultlist import FaultList

    proven = FaultList(
        [f for f in faults if f.name in reference.coverage.detections]
    )
    if len(proven) < 2:
        pytest.skip("benchmark sample detects too few faults to re-chunk")
    proven_path = str(tmp_path / "proven.ckpt")
    baseline = run_multiprocess(
        design, stimulus, proven, workers=2, width=1, checkpoint=proven_path
    )
    assert baseline.stats.chunks_simulated > 0
    resumed = run_multiprocess(
        design, stimulus, proven, workers=2, width=1, checkpoint=proven_path
    )
    assert resumed.stats.chunks_simulated == 0
    assert resumed.stats.chunks_skipped > 0
    assert dict(resumed.coverage.detections) == dict(baseline.coverage.detections)


def test_checkpoint_of_another_stimulus_is_refused(tmp_path):
    """A checkpoint seeds only a campaign over its own stimulus.

    Before the stamp covered the stimulus, a shorter rerun over the same
    design and faults loaded the longer run's verdicts and reported
    detections at cycles its stimulus never reaches.
    """
    design, stimulus, faults, reference = _workload("apb")
    short = truncated(stimulus, 3)
    clean = run_multiprocess(design, short, faults, workers=1, width=4)
    assert len(clean.coverage.detections) < len(reference.coverage.detections)
    path = str(tmp_path / "campaign.ckpt")
    run_multiprocess(design, stimulus, faults, workers=1, width=4, checkpoint=path)
    with pytest.raises(CheckpointError, match="different campaign"):
        run_multiprocess(design, short, faults, workers=1, width=4, checkpoint=path)
    fresh = str(tmp_path / "short.ckpt")
    rerun = run_multiprocess(design, short, faults, workers=1, width=4, checkpoint=fresh)
    assert dict(rerun.coverage.detections) == dict(clean.coverage.detections)


def test_fig6_refuses_a_checkpointed_campaign(tmp_path):
    """IFsim and VFsim share design, stimulus and faults, so VFsim would load
    IFsim's checkpoint and skip every fault IFsim detected."""
    from repro.errors import HarnessError
    from repro.harness import fig6
    from repro.harness.experiments import prepare_workload

    workload = prepare_workload("alu", cycles=PARITY_CYCLES, fault_count=4)
    path = tmp_path / "fig6.ckpt"
    with pytest.raises(HarnessError, match="checkpoint"):
        fig6.run_benchmark(
            workload, campaign=CampaignConfig(workers=1, checkpoint=str(path))
        )
    assert not path.exists()


def test_salvaged_campaign_checkpoint_seeds_the_retry(tmp_path):
    """The finally-block snapshot fires on the salvage path, so even a
    campaign that *failed* leaves a resumable checkpoint behind."""
    design, stimulus, faults, reference = _workload("apb")
    path = str(tmp_path / "salvage.ckpt")
    partial = run_multiprocess(
        design,
        stimulus,
        faults,
        workers=2,
        width=4,
        checkpoint=path,
        chaos="crash:base=4",  # chunks past base 4 always crash
        retries=0,
        degrade=False,
    )
    assert partial.partial
    assert os.path.exists(path)
    healed = run_multiprocess(
        design, stimulus, faults, workers=2, width=4, checkpoint=path
    )
    assert not healed.partial
    assert dict(healed.coverage.detections) == dict(reference.coverage.detections)


def test_cached_salvaged_campaign_resumes_from_its_checkpoint(tmp_path):
    """The checkpoint is fingerprinted over the whole fault list, not over
    the faults the cache left, so a salvaged cached campaign still resumes."""
    design, stimulus, faults, reference = _workload("apb")
    knobs = dict(
        workers=2,
        width=4,
        cache=str(tmp_path / "results"),
        checkpoint=str(tmp_path / "salvage.ckpt"),
    )
    partial = run_multiprocess(
        design, stimulus, faults, chaos="raise:chunk=1", retries=0, degrade=False, **knobs
    )
    assert partial.partial
    assert partial.stats.cache_writes > 0  # its detections reached the cache
    healed = run_multiprocess(design, stimulus, faults, **knobs)
    assert not healed.partial
    assert healed.stats.cache_hits == partial.stats.cache_writes
    assert dict(healed.coverage.detections) == dict(reference.coverage.detections)


_CHILD_SCRIPT = """
import json, sys
from repro.fault.faultlist import FaultList
from repro.fault.model import StuckAtFault
from repro.harness.experiments import prepare_workload
from repro.sim.parallel import run_multiprocess

benchmark, cycles, checkpoint, sites_json = sys.argv[1:5]
prepared = prepare_workload(benchmark, cycles=int(cycles))
design = prepared.design
faults = FaultList(
    [StuckAtFault(design.signal(n), b, v) for n, b, v in json.loads(sites_json)]
)
print("CHILD-READY", flush=True)
run_multiprocess(
    design, prepared.stimulus, faults, workers=2, width=1,
    checkpoint=checkpoint, checkpoint_interval=0.05,
    chaos="slow:seconds=0.8",
)
"""


def test_parent_killed_mid_campaign_resumes_from_checkpoint(tmp_path):
    """Acceptance: SIGKILL the campaign *parent* mid-run; a resume from its
    checkpoint skips the proven chunks (strictly fewer simulated chunks)."""
    design, stimulus, faults, reference = _workload("apb")
    # a detected-only fault list: every completed chunk is fully proven, so
    # skipped-chunk counting is deterministic
    from repro.fault.faultlist import FaultList

    proven = FaultList(
        [f for f in faults if f.name in reference.coverage.detections]
    )
    if len(proven) < 3:
        pytest.skip("benchmark sample detects too few faults to re-chunk")
    sites = [[f.signal.name, f.bit, f.value] for f in proven]
    path = str(tmp_path / "killed.ckpt")
    import repro

    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    child = subprocess.Popen(
        [sys.executable, "-c", _CHILD_SCRIPT, "apb", str(PARITY_CYCLES), path,
         json.dumps(sites)],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        start_new_session=True,  # its own process group: killable with workers
    )
    try:
        fingerprint = campaign_fingerprint(design, stimulus, proven)
        deadline = time.monotonic() + 120
        progressed = False
        while time.monotonic() < deadline:
            if child.poll() is not None:
                break  # finished before we could kill it: resume still skips
            if os.path.exists(path):
                try:
                    snapshot = VerdictPlane.load(path, expect_fingerprint=fingerprint)
                except Exception:
                    time.sleep(0.05)
                    continue
                detected = snapshot.detected_count()
                snapshot.close()
                if 0 < detected:
                    progressed = True
                    break
            time.sleep(0.05)
        assert progressed or child.poll() is not None, (
            "the child campaign never wrote a usable checkpoint"
        )
    finally:
        if child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)
        child.wait(timeout=30)
        child.stdout.close()
        # the killed parent could not unlink its plane: reap it here (its
        # name carries the child's pid, so no other process's plane is hit)
        for name in verdict_plane_segments(child.pid):
            try:
                from multiprocessing import shared_memory

                segment = shared_memory.SharedMemory(name=name)
                segment.close()
                segment.unlink()
            except OSError:
                pass
    time.sleep(0.3)  # let any orphaned workers drain before resuming
    resumed = run_multiprocess(
        design, stimulus, proven, workers=2, width=1, checkpoint=path
    )
    total = resumed.stats.chunks_simulated + resumed.stats.chunks_skipped
    assert resumed.stats.chunks_skipped >= 1
    assert resumed.stats.chunks_simulated < total
    assert not resumed.partial
    expected = {
        name: cycle
        for name, cycle in reference.coverage.detections.items()
        if name in {f.name for f in proven}
    }
    assert dict(resumed.coverage.detections) == expected
