"""Unit tests for the self-healing campaign runtime (repro.sim.resilience).

The :class:`ChunkSupervisor` takes every campaign-specific action as an
injected callable, so these tests drive it with a *fake* pool whose futures
resolve however the scenario needs — success, in-chunk exception, a broken
executor, or a hang — and assert the supervision decisions alone: retry
counters, backoff requeues, blame assignment, watchdog stalls, quarantine
and the inline fallback.  Nothing here spawns a process; the real-pool
integration paths live in test_chaos.py and test_parallel.py.
"""

import time
from concurrent.futures import BrokenExecutor, Future

import pytest

from repro.errors import SimulationError
from repro.sim.resilience import (
    ChunkState,
    ChunkSupervisor,
    RetryPolicy,
    require_at_least,
    require_positive,
)


# ------------------------------------------------------------------- policies
def test_retry_policy_delay_grows_and_caps():
    policy = RetryPolicy(backoff=0.5, backoff_factor=2.0, jitter=0.0, max_backoff=3.0)
    assert policy.delay(1) == 0.5
    assert policy.delay(2) == 1.0
    assert policy.delay(3) == 2.0
    assert policy.delay(4) == 3.0  # capped
    assert policy.delay(10) == 3.0


def test_retry_policy_jitter_stays_in_band():
    policy = RetryPolicy(backoff=1.0, backoff_factor=1.0, jitter=0.2, max_backoff=10.0)
    for _ in range(50):
        assert 0.8 <= policy.delay(1) <= 1.2


def test_retry_policy_from_retries():
    assert RetryPolicy.from_retries(0).max_attempts == 1
    assert RetryPolicy.from_retries(3).max_attempts == 4
    policy = RetryPolicy(max_attempts=7)
    assert RetryPolicy.from_retries(policy) is policy
    with pytest.raises(SimulationError, match="retries"):
        RetryPolicy.from_retries(-1)


def test_validation_helpers_name_the_argument():
    with pytest.raises(SimulationError, match="workers"):
        require_at_least("workers", 0, 1)
    with pytest.raises(SimulationError, match="workers"):
        require_at_least("workers", True, 1)  # bools are not counts
    with pytest.raises(SimulationError, match="chunk_timeout"):
        require_positive("chunk_timeout", 0)
    require_at_least("retries", 0, 0)
    require_positive("interval", 0.1)


# ------------------------------------------------------- the fake pool harness
class FakePool:
    """A pool whose futures a scenario script resolves at submit time."""

    def __init__(self, script):
        #: maps (chunk index, attempt) -> an action; see _Harness.submit
        self.script = script
        self.shutdowns = []
        self._processes = {}

    def shutdown(self, wait=True, cancel_futures=False):
        self.shutdowns.append((wait, cancel_futures))


class _Harness:
    """Wire a ChunkSupervisor to scripted outcomes and record what happened."""

    def __init__(self, n_chunks, script, pools_fail=0, **supervisor_kw):
        self.states = [ChunkState(i, positions=[i * 4]) for i in range(n_chunks)]
        self.script = dict(script)
        self.pools_fail = pools_fail
        self.pools = []
        self.completions = []
        self.inline_runs = []
        self.ticks = 0
        policy = supervisor_kw.pop(
            "policy", RetryPolicy(max_attempts=2, backoff=0.01, jitter=0.0)
        )
        self.supervisor = ChunkSupervisor(
            self.states,
            policy,
            self.make_pool,
            self.submit,
            self.run_inline,
            self.on_complete,
            self.on_tick,
            poll_interval=0.02,
            **supervisor_kw,
        )

    def make_pool(self):
        if len(self.pools) < self.pools_fail:
            self.pools.append(None)
            raise OSError("no pool for you")
        pool = FakePool(self.script)
        self.pools.append(pool)
        return pool

    def submit(self, pool, state):
        future = Future()
        action = self.script.get((state.index, state.attempts - 1), "ok")
        if action == "ok":
            future.set_result(({f"f{state.index}": 5}, 10, 0.01))
        elif action == "raise":
            future.set_exception(ValueError(f"chunk {state.index} scripted failure"))
        elif action == "broken":
            future.set_running_or_notify_cancel()
            future.set_exception(BrokenExecutor("worker died"))
        elif action == "hang":
            future.set_running_or_notify_cancel()  # running, never resolves
        else:  # pragma: no cover - script typo guard
            raise AssertionError(action)
        return future

    def run_inline(self, state):
        self.inline_runs.append(state.index)
        if self.script.get((state.index, "inline")) == "raise":
            raise ValueError("inline failure")
        return {f"f{state.index}": 5}, 10, 0.01

    def on_complete(self, state, detections, cycles):
        self.completions.append((state.index, state.outcome, detections))

    def on_tick(self):
        self.ticks += 1

    def run(self):
        self.supervisor.run()
        return self


# ----------------------------------------------------------------- happy path
def test_all_chunks_complete_first_try():
    h = _Harness(3, {}).run()
    assert [s.outcome for s in h.states] == ["completed"] * 3
    assert all(s.attempts == 1 and s.failures == 0 for s in h.states)
    assert len(h.pools) == 1
    assert h.supervisor.pool_breaks == 0
    assert h.ticks >= 1


# -------------------------------------------------------------------- retries
def test_in_chunk_exception_requeues_in_same_pool():
    h = _Harness(2, {(1, 0): "raise"}).run()
    assert [s.outcome for s in h.states] == ["completed", "completed"]
    assert h.states[1].attempts == 2
    assert h.states[1].failures == 1
    assert len(h.pools) == 1  # a raise never costs the pool


def test_broken_pool_is_rebuilt_and_chunk_retried():
    h = _Harness(2, {(1, 0): "broken"}).run()
    assert [s.outcome for s in h.states] == ["completed", "completed"]
    assert h.supervisor.pool_breaks == 1
    assert len(h.pools) == 2
    # the culprit was blamed; the innocent completed chunk was not
    assert h.states[1].failures == 1
    assert h.states[0].failures == 0
    # every pool generation is joined, cancelling queued chunks
    assert all(pool.shutdowns == [(True, True)] for pool in h.pools)


def test_watchdog_stalls_out_a_hung_chunk():
    h = _Harness(2, {(1, 0): "hang"}, chunk_timeout=0.05).run()
    assert [s.outcome for s in h.states] == ["completed", "completed"]
    assert h.supervisor.pool_breaks == 1
    assert h.states[1].failures == 1  # only the running (hung) future is blamed


def test_adaptive_deadline_arms_after_first_completion():
    h = _Harness(2, {(1, 0): "hang"})
    assert h.supervisor._deadline() is None  # unarmed: nothing observed yet
    h.supervisor._max_chunk_wall = 0.001
    # floored, then scaled once observations dominate the floor
    assert h.supervisor._deadline() == pytest.approx(10.0)
    h.supervisor._max_chunk_wall = 2.0
    assert h.supervisor._deadline() == pytest.approx(40.0)


# ------------------------------------------------------- quarantine and beyond
def test_poison_chunk_is_quarantined_then_finished_inline():
    h = _Harness(2, {(1, 0): "broken", (1, 1): "broken"}).run()
    assert h.states[1].quarantined
    assert h.states[1].outcome == "inline"
    assert h.inline_runs == [1]
    assert h.supervisor.pool_breaks == 2


def test_degrade_false_fails_the_chunk_instead():
    h = _Harness(2, {(1, 0): "broken", (1, 1): "broken"}, degrade=False).run()
    assert h.states[1].outcome == "failed"
    assert h.inline_runs == []


def test_inline_failure_marks_the_chunk_failed():
    h = _Harness(
        1, {(0, 0): "broken", (0, 1): "broken", (0, "inline"): "raise"}
    ).run()
    assert h.states[0].outcome == "failed"
    assert isinstance(h.states[0].error, ValueError)


@pytest.mark.parametrize("degrade", [True, False], ids=["degrade", "no-degrade"])
def test_on_complete_runs_once_per_chunk_that_produced_a_payload(degrade):
    """Retries and pool breaks never merge a chunk twice, and a failed chunk
    is never merged: the campaign's verdicts are its completed chunks'."""
    script = {(1, 0): "raise", (2, 0): "broken", (2, 1): "broken"}
    h = _Harness(3, script, degrade=degrade).run()
    outcomes = [s.outcome for s in h.states]
    assert outcomes == ["completed", "completed", "inline" if degrade else "failed"]
    finished = [s.index for s in h.states if s.outcome != "failed"]
    assert sorted(index for index, _, _ in h.completions) == finished
    for index, outcome, detections in h.completions:
        assert outcome == h.states[index].outcome
        assert detections == {f"f{index}": 5}


def test_unavailable_pool_degrades_everything_inline():
    h = _Harness(2, {}, pools_fail=99).run()
    assert [s.outcome for s in h.states] == ["inline", "inline"]
    assert h.inline_runs == [0, 1]


def test_backoff_is_respected_between_requeues():
    policy = RetryPolicy(max_attempts=3, backoff=0.15, backoff_factor=1.0, jitter=0.0)
    h = _Harness(1, {(0, 0): "raise", (0, 1): "raise"}, policy=policy)
    begin = time.monotonic()
    h.run()
    elapsed = time.monotonic() - begin
    assert h.states[0].outcome == "completed"
    assert h.states[0].attempts == 3
    assert elapsed >= 0.3  # two requeues x 0.15s backoff each
