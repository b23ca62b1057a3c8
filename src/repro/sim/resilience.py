"""The self-healing campaign runtime: retry, watchdog, quarantine, degrade.

:func:`repro.sim.parallel.run_multiprocess` delegates its pooled path to the
:class:`ChunkSupervisor` here, which retries, routes around bad chunks and
degrades gracefully, and keeps salvage (a ``partial=True`` result holding the
completed chunks' verdicts) strictly as the *last* resort, after supervision
is exhausted.  The ladder is drawn in ``docs/resilience.md``.

The architecture leans on one property the rest of the package already
guarantees: **chunks are idempotent**.  A chunk's verdicts and detection
cycles are a deterministic function of its faults, so re-running a chunk —
even one whose worker died halfway — can only return the same verdicts.
Supervision is therefore free to be aggressive:

* **Retry with per-chunk attempt counters** (:class:`RetryPolicy`): a chunk
  whose worker crashed, stalled or raised is requeued with exponential
  backoff + jitter, up to ``max_attempts`` submissions.
* **Watchdog timeouts**: the supervisor tracks the wall-time of completed
  chunks and arms a per-chunk deadline (``chunk_timeout=`` overrides it; by
  default ``WATCHDOG_FACTOR`` x the largest observed chunk, floored at
  ``WATCHDOG_MIN_DEADLINE``).  The deadline is measured as *time since the
  last completion while work is running* — an under-approximation of the
  longest-running chunk's age, so it can fire late but never early.  On a
  stall the hung workers are terminated, the running chunks blamed, and the
  pool rebuilt.
* **Quarantine + the degradation ladder**: a chunk blamed for
  ``max_attempts`` worker deaths/stalls is *quarantined* — taken off pool
  duty and finished inline in the parent process (process → inline), where a
  misbehaving worker cannot take the supervisor down with it.  The inline
  runner applies the second rung of the ladder too: a vector (NumPy) runner
  degrades to the equivalent packed bigint runner when NumPy is unavailable
  in the parent.  Only a chunk that fails *inline as well* is marked failed,
  and only then does the campaign fall back to salvage.

Blame is a heuristic where the OS gives no attribution: when a pool breaks or
stalls, every chunk whose future was *running* is blamed (queued chunks are
requeued without blame).  An innocent chunk co-scheduled with a crasher may
collect a stray blame mark, but it completes on a later attempt and never
reaches quarantine; a deterministic poison chunk is blamed on every attempt
and converges to quarantine in ``max_attempts`` pool generations.
"""

from __future__ import annotations

import random
import time
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.errors import SimulationError

if TYPE_CHECKING:  # the pool stack is imported where a pool generation runs
    from concurrent.futures import Future

#: Default total submission attempts per chunk (1 first run + 2 retries).
DEFAULT_MAX_ATTEMPTS = 3

#: Adaptive watchdog: deadline = factor x the largest observed chunk wall-time.
WATCHDOG_FACTOR = 20.0

#: Adaptive watchdog floor, so early tiny observations cannot arm a
#: hair-trigger deadline.
WATCHDOG_MIN_DEADLINE = 10.0

#: Upper bound on the supervisor's poll sleep (seconds): the granularity of
#: watchdog checks, backoff requeues and cache-flush ticks.
POLL_INTERVAL = 0.25

#: What a worker chunk task resolves to: (detections by fault name,
#: simulated cycles, chunk wall-time seconds).
ChunkPayload = Tuple[Dict[str, int], int, float]


def require_at_least(name: str, value, minimum) -> None:
    """Validate a numeric campaign knob up front, naming the argument.

    Raises a clear :class:`~repro.errors.SimulationError` instead of letting
    a bad value (``workers=0``, ``retries=-1``...) fail deep inside the
    pool loop with an unrelated traceback.
    """
    if not isinstance(value, (int, float)) or isinstance(value, bool) or value < minimum:
        raise SimulationError(
            f"{name} must be a number >= {minimum}, got {value!r}"
        )


def require_positive(name: str, value) -> None:
    """Validate a strictly-positive numeric knob (timeouts, intervals...)."""
    if not isinstance(value, (int, float)) or isinstance(value, bool) or value <= 0:
        raise SimulationError(f"{name} must be > 0, got {value!r}")


class RetryPolicy:
    """How failed chunks are retried: attempt budget and backoff shape.

    ``max_attempts`` is the total number of pool submissions a chunk may
    consume (1 = no retries).  Delay before retry ``n`` (1-based) is
    ``backoff * backoff_factor ** (n - 1)``, capped at ``max_backoff``, with
    ``+- jitter`` (a fraction) of randomization so a fleet of retrying
    campaigns does not thundering-herd a shared resource.
    """

    __slots__ = ("max_attempts", "backoff", "backoff_factor", "jitter", "max_backoff")

    def __init__(
        self,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        backoff: float = 0.25,
        backoff_factor: float = 2.0,
        jitter: float = 0.1,
        max_backoff: float = 5.0,
    ) -> None:
        """Validate and store the retry shape; see the class docstring."""
        require_at_least("max_attempts", max_attempts, 1)
        require_at_least("backoff", backoff, 0)
        require_at_least("backoff_factor", backoff_factor, 1)
        require_at_least("max_backoff", max_backoff, 0)
        if not isinstance(jitter, (int, float)) or not 0 <= jitter <= 1:
            raise SimulationError(
                f"jitter must be a fraction in [0, 1], got {jitter!r}"
            )
        self.max_attempts = int(max_attempts)
        self.backoff = float(backoff)
        self.backoff_factor = float(backoff_factor)
        self.jitter = float(jitter)
        self.max_backoff = float(max_backoff)

    @classmethod
    def from_retries(cls, retries: "RetryPolicy | int") -> "RetryPolicy":
        """Normalize the ``retries=`` knob: a policy passes through, an int
        means "this many retries after the first attempt"."""
        if isinstance(retries, RetryPolicy):
            return retries
        require_at_least("retries", retries, 0)
        return cls(max_attempts=int(retries) + 1)

    def delay(self, failure_number: int) -> float:
        """Seconds to back off before retrying after failure ``failure_number``
        (1-based), exponentially grown, capped, and jittered."""
        base = min(
            self.max_backoff,
            self.backoff * self.backoff_factor ** max(0, failure_number - 1),
        )
        if self.jitter:
            base *= 1.0 + random.uniform(-self.jitter, self.jitter)
        return max(0.0, base)

    def __repr__(self) -> str:
        """Attempt budget and backoff shape."""
        return (
            f"RetryPolicy(max_attempts={self.max_attempts}, "
            f"backoff={self.backoff}x{self.backoff_factor}, "
            f"max={self.max_backoff}, jitter={self.jitter})"
        )


class ChunkState:
    """Supervision bookkeeping for one word-aligned fault chunk.

    ``positions`` are the chunk's faults, as positions in the campaign's
    fault list.  ``attempts`` counts pool submissions, ``failures``
    counts blame marks (crash / stall / raised-in-chunk).  ``outcome`` is
    ``None`` while unresolved, then exactly one of ``"completed"`` (a worker
    finished it), ``"inline"`` (finished in the parent) or ``"failed"``
    (nothing could finish it — the salvage case).
    """

    __slots__ = (
        "index",
        "positions",
        "attempts",
        "failures",
        "quarantined",
        "outcome",
        "error",
    )

    def __init__(self, index: int, positions: List[int]) -> None:
        """A fresh, never-submitted chunk."""
        self.index = index
        self.positions = positions
        self.attempts = 0
        self.failures = 0
        self.quarantined = False
        self.outcome: Optional[str] = None
        self.error: Optional[BaseException] = None

    def __repr__(self) -> str:
        """Index, size, and where the chunk is in its lifecycle."""
        state = self.outcome or ("quarantined" if self.quarantined else "pending")
        return (
            f"ChunkState(#{self.index} faults={len(self.positions)} "
            f"attempts={self.attempts} failures={self.failures} {state})"
        )


class ChunkSupervisor:
    """Drives a chunk list to resolution across pool generations.

    The supervisor owns retry counters, the watchdog, quarantine decisions
    and the inline fallback; everything campaign-specific is injected:

    ``make_pool``
        Build a fresh worker pool.  Raising ``OSError`` degrades the whole
        campaign to inline execution (the bottom of the ladder) instead of
        aborting it.
    ``submit``
        ``submit(pool, state) -> Future`` resolving to a
        :data:`ChunkPayload`; the caller threads the attempt counter and the
        chaos plan into the task itself.
    ``run_inline``
        Run one chunk in the parent process, returning a
        :data:`ChunkPayload`; exceptions mark the chunk failed.
    ``on_complete``
        Merge hook, called exactly once per chunk that produced a payload
        (``completed``/``inline``).
    ``on_tick``
        Called every poll wake-up — the progress/cache-flush cadence hook.
    """

    def __init__(
        self,
        states: List[ChunkState],
        policy: RetryPolicy,
        make_pool: Callable[[], object],
        submit: Callable[[object, ChunkState], Future],
        run_inline: Callable[[ChunkState], ChunkPayload],
        on_complete: Callable[[ChunkState, Dict[str, int], int], None],
        on_tick: Callable[[], None],
        chunk_timeout: Optional[float] = None,
        degrade: bool = True,
        poll_interval: float = POLL_INTERVAL,
    ) -> None:
        """Wire the supervisor to one campaign's chunks and hooks."""
        self.states = states
        self.policy = policy
        self.make_pool = make_pool
        self.submit = submit
        self.run_inline = run_inline
        self.on_complete = on_complete
        self.on_tick = on_tick
        self.chunk_timeout = chunk_timeout
        self.degrade = degrade
        self.poll_interval = poll_interval
        self.pool_breaks = 0
        self._max_chunk_wall = 0.0
        self._pool_unavailable = False

    # ----------------------------------------------------------- public face
    def run(self) -> None:
        """Resolve every chunk (outcome set on each state when this returns).

        Never raises for chunk-level failures — the caller inspects the
        states and decides between a complete result, salvage, and an error.
        Every pool's workers have exited by the time a generation ends, and
        an exception such as ``KeyboardInterrupt`` propagates once the active
        pool's workers are killed and joined.
        """
        while True:
            runnable = [
                s for s in self.states if s.outcome is None and not s.quarantined
            ]
            if not runnable or self._pool_unavailable:
                break
            broke = self._run_generation(runnable)
            if broke:
                self.pool_breaks += 1
                # systemic backoff before rebuilding the pool; chunk-level
                # backoff for in-pool retries happens inside the generation
                time.sleep(self.policy.delay(self.pool_breaks))
        self._run_quarantined_inline()

    # ------------------------------------------------------------- internals
    def _blame(self, state: ChunkState) -> None:
        """Charge one failure to a chunk and resolve its next destination."""
        state.failures += 1
        if state.failures >= self.policy.max_attempts:
            if self.degrade:
                state.quarantined = True
            else:
                state.outcome = "failed"

    def _deadline(self) -> Optional[float]:
        """Current per-chunk watchdog deadline (None = watchdog unarmed)."""
        if self.chunk_timeout is not None:
            return self.chunk_timeout
        if self._max_chunk_wall > 0.0:
            return max(WATCHDOG_MIN_DEADLINE, WATCHDOG_FACTOR * self._max_chunk_wall)
        return None

    def _terminate_pool_processes(self, pool: object) -> None:
        """Hard-kill a stalled pool's workers (there is no polite option:
        a hung chunk never returns, and the executor cannot cancel running
        tasks)."""
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.terminate()
            except OSError:  # pragma: no cover - already-dead worker
                pass

    def _run_generation(self, runnable: List[ChunkState]) -> bool:
        """One pool generation: submit, supervise, blame.  True = pool broke."""
        from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, wait

        try:
            pool = self.make_pool()
        except OSError:
            # no process pool on this platform/sandbox: bottom of the ladder
            self._pool_unavailable = True
            for state in runnable:
                state.quarantined = True
            return False
        futures: Dict[Future, ChunkState] = {}
        requeue: List[Tuple[float, ChunkState]] = []  # (ready monotonic, state)
        broke = False
        blamed = 0
        try:
            for state in runnable:
                state.attempts += 1
                futures[self.submit(pool, state)] = state
            last_event = time.monotonic()
            while futures or requeue:
                now = time.monotonic()
                due = [item for item in requeue if item[0] <= now]
                for item in due:
                    requeue.remove(item)
                    state = item[1]
                    state.attempts += 1
                    futures[self.submit(pool, state)] = state
                if futures:
                    done, _ = wait(
                        futures, timeout=self.poll_interval,
                        return_when=FIRST_COMPLETED,
                    )
                else:
                    soonest = min(ready for ready, _ in requeue)
                    time.sleep(max(0.0, min(self.poll_interval, soonest - now)))
                    done = set()
                for future in done:
                    state = futures.pop(future)
                    try:
                        detections, cycles, wall = future.result()
                    except BrokenExecutor:
                        # a worker died; the executor is unusable from here on
                        self._blame(state)
                        blamed += 1
                        raise
                    except Exception as exc:  # a chunk-level failure
                        state.error = exc
                        self._blame(state)
                        if state.outcome is None and not state.quarantined:
                            requeue.append(
                                (time.monotonic() + self.policy.delay(state.failures), state)
                            )
                    else:
                        self._max_chunk_wall = max(self._max_chunk_wall, wall)
                        state.outcome = "completed"
                        self.on_complete(state, detections, cycles)
                    last_event = time.monotonic()
                self.on_tick()
                deadline = self._deadline()
                if (
                    futures
                    and deadline is not None
                    and time.monotonic() - last_event > deadline
                    and any(f.running() for f in futures)
                ):
                    # stall: blame what was actually running; the finally
                    # below kills the pool
                    for future, state in futures.items():
                        if future.running():
                            self._blame(state)
                    broke = True
                    break
        except BrokenExecutor:
            # blame the chunks that were in flight when the pool died;
            # queued (never-started) chunks are requeued without blame.  If
            # the whole break produced zero blame (it surfaced at submit
            # time with nothing observably running), blame every unresolved
            # chunk — a break that charges nobody would loop forever on a
            # deterministic poison chunk.
            for future, state in futures.items():
                if future.running():
                    self._blame(state)
                    blamed += 1
            if not blamed:
                for state in futures.values():
                    self._blame(state)
            broke = True
        finally:
            if futures:
                # chunks still in flight (a stall, a broken pool or an
                # exception such as KeyboardInterrupt): kill the workers so
                # the join cannot wait on a running chunk
                self._terminate_pool_processes(pool)
            # join the workers: a campaign returns with no child alive
            pool.shutdown(wait=True, cancel_futures=True)
        return broke

    def _run_quarantined_inline(self) -> None:
        """The last rung: finish surviving chunks in the parent process."""
        for state in sorted(self.states, key=lambda s: s.index):
            if state.outcome is not None:
                continue
            try:
                detections, cycles, _ = self.run_inline(state)
            except Exception as exc:
                state.error = exc
                state.outcome = "failed"
            else:
                state.outcome = "inline"
                self.on_complete(state, detections, cycles)
            self.on_tick()


__all__ = [
    "ChunkState",
    "ChunkSupervisor",
    "DEFAULT_MAX_ATTEMPTS",
    "POLL_INTERVAL",
    "RetryPolicy",
    "WATCHDOG_FACTOR",
    "WATCHDOG_MIN_DEADLINE",
    "require_at_least",
]
