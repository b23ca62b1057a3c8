"""Structured fault injection for the campaign runtime itself.

The multiprocess campaign executor promises to *self-heal*: retry crashed
chunks, time out hung workers, quarantine poison chunks, and leave a killed
campaign's detections in the result cache.  None of those paths can be
trusted without a way to trigger them on demand, deterministically, on every
platform the CI matrix covers.  This module is that trigger: a
:class:`ChaosPlan` is a small list of :class:`ChaosRule`\\ s, each saying
*what* to do to a worker (``crash``, ``hang``, ``slow``, ``raise``) and *when*
to do it (to one chunk index, past a global fault-index threshold, only on
early attempts).

Plans are drivable two ways:

* **as an argument** — ``run_multiprocess(chaos=ChaosPlan.parse("crash:chunk=1,until_attempt=1"))``
  (or the plan text itself; every seam accepts both), which is what the chaos
  test-suite uses, and
* **from the environment** — ``REPRO_PARALLEL_CHAOS="hang:chunk=0,seconds=30"``,
  which reaches campaigns buried behind other tools without touching call
  sites.

The plan text grammar is deliberately tiny — rules joined by ``;``, each
``kind`` or ``kind:field=value,field=value``::

    crash:chunk=2,until_attempt=1 ; slow:base=8,seconds=0.5

Injection happens at **chunk start inside pooled workers only**.  The inline
short-circuit (``workers=1``) and the quarantine fallback run in the campaign
*parent*, which must survive anything a worker does — a plan can therefore
never crash or hang the process that is supposed to be supervising the chaos.
That asymmetry is the point: a chunk whose workers keep dying is eventually
quarantined and finished inline, out of the blast radius.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import ChaosError

#: The injectable misbehaviors, in escalating order of blast radius:
#: ``raise`` fails one chunk (the future carries the exception), ``slow``
#: delays one chunk, ``hang`` stalls a worker until the watchdog kills it,
#: ``crash`` hard-exits the worker process and breaks the whole pool.
CHAOS_KINDS = ("crash", "hang", "slow", "raise")

#: Environment variable carrying a chaos-plan string (see :meth:`ChaosPlan.parse`).
CHAOS_ENV_VAR = "REPRO_PARALLEL_CHAOS"

#: Seconds a crashing worker waits before ``os._exit``, so sibling workers
#: can finish in-flight chunks and the salvage/retry tests observe completed
#: verdicts alongside the crash.
CRASH_DRAIN_PAUSE = 0.25

#: Default sleep for ``hang`` rules: far past any reasonable chunk deadline,
#: so an un-watched hang still ends eventually instead of wedging CI forever.
DEFAULT_HANG_SECONDS = 3600.0

#: Default sleep for ``slow`` rules.
DEFAULT_SLOW_SECONDS = 1.0

#: The recognised rule fields (anything else in a plan string is a typo that
#: must fail loudly — a silently ignored trigger is a chaos test that passes
#: without testing anything).
_RULE_FIELDS = ("chunk", "base", "until_attempt", "seconds")


class ChaosRule:
    """One injection: a kind, its trigger conditions, and its magnitude.

    Trigger fields (all optional; an omitted field matches everything):

    ``chunk``
        Fire only for this chunk index.
    ``base``
        Fire only for chunks whose first global fault index is >= this —
        the fault-count trigger.
    ``until_attempt``
        Fire only while the chunk's attempt counter is *below* this, so
        ``until_attempt=1`` misbehaves exactly once and then lets the retry
        succeed.  Omitted = fire on every attempt (a *poison* chunk, the
        quarantine path's trigger).
    ``seconds``
        Sleep magnitude for ``hang``/``slow`` (ignored by the other kinds).
    """

    __slots__ = ("kind", "chunk", "base", "until_attempt", "seconds")

    def __init__(
        self,
        kind: str,
        chunk: Optional[int] = None,
        base: Optional[int] = None,
        until_attempt: Optional[int] = None,
        seconds: Optional[float] = None,
    ) -> None:
        """Validate and store one rule; see the class docstring for fields."""
        if kind not in CHAOS_KINDS:
            raise ChaosError(
                f"unknown chaos kind {kind!r}; available: {sorted(CHAOS_KINDS)}"
            )
        if seconds is not None and seconds < 0:
            raise ChaosError(f"chaos seconds= must be >= 0, got {seconds}")
        self.kind = kind
        self.chunk = chunk
        self.base = base
        self.until_attempt = until_attempt
        self.seconds = seconds

    def matches(self, chunk_index: int, base: int, attempt: int) -> bool:
        """Does this rule fire for (chunk_index, base, attempt)?"""
        if self.chunk is not None and chunk_index != self.chunk:
            return False
        if self.base is not None and base < self.base:
            return False
        if self.until_attempt is not None and attempt >= self.until_attempt:
            return False
        return True

    def to_text(self) -> str:
        """The rule in plan-string form (parse/to_text round-trips)."""
        fields = []
        for name in ("chunk", "base", "until_attempt", "seconds"):
            value = getattr(self, name)
            if value is not None:
                fields.append(f"{name}={value:g}" if name == "seconds" else f"{name}={value}")
        return self.kind + (":" + ",".join(fields) if fields else "")

    def __repr__(self) -> str:
        """The plan-string form, labelled."""
        return f"ChaosRule({self.to_text()})"


class ChaosPlan:
    """An ordered list of :class:`ChaosRule`\\ s applied at chunk start.

    The *first* matching rule fires (ordering is the disambiguator when two
    rules overlap).  Plans are picklable — the campaign parent resolves the
    plan once (argument first, then environment) and ships it to workers with
    each chunk task, so attempt-aware triggers see the parent's per-chunk
    attempt counters.
    """

    __slots__ = ("rules",)

    def __init__(self, rules: Sequence[ChaosRule] = ()) -> None:
        """Wrap an ordered rule list (empty = inject nothing)."""
        self.rules = list(rules)

    def __bool__(self) -> bool:
        """A plan is truthy when it holds at least one rule."""
        return bool(self.rules)

    def __getstate__(self) -> List[Tuple[str, Optional[int], Optional[int], Optional[int], Optional[float]]]:
        """Pickle as plain tuples (slots classes need explicit state)."""
        return [
            (r.kind, r.chunk, r.base, r.until_attempt, r.seconds) for r in self.rules
        ]

    def __setstate__(self, state) -> None:
        """Rebuild the rule objects from the pickled tuples."""
        self.rules = [ChaosRule(*fields) for fields in state]

    # -------------------------------------------------------------- building
    @classmethod
    def parse(cls, text: str) -> "ChaosPlan":
        """Parse a plan string: ``kind[:field=value,...]`` rules joined by ``;``."""
        rules: List[ChaosRule] = []
        for part in text.split(";"):
            part = part.strip()
            if not part:
                continue
            kind, _, fields_text = part.partition(":")
            kind = kind.strip()
            fields: Dict[str, Union[int, float]] = {}
            if fields_text.strip():
                for item in fields_text.split(","):
                    name, sep, raw = item.partition("=")
                    name = name.strip()
                    if not sep or name not in _RULE_FIELDS:
                        raise ChaosError(
                            f"bad chaos rule field {item.strip()!r} in {part!r}; "
                            f"fields are {list(_RULE_FIELDS)} (name=value)"
                        )
                    try:
                        fields[name] = (
                            float(raw) if name == "seconds" else int(raw)
                        )
                    except ValueError:
                        raise ChaosError(
                            f"bad chaos rule value {raw.strip()!r} for "
                            f"{name}= in {part!r}"
                        ) from None
            rules.append(ChaosRule(kind, **fields))  # type: ignore[arg-type]
        return cls(rules)

    @classmethod
    def coerce(cls, plan: Union["ChaosPlan", str, None]) -> Optional["ChaosPlan"]:
        """Accept a plan object, a plan string, or None (each seam calls this)."""
        if plan is None or isinstance(plan, ChaosPlan):
            return plan
        if isinstance(plan, str):
            return cls.parse(plan)
        raise ChaosError(
            f"chaos= takes a ChaosPlan or a plan string, got {type(plan).__name__}"
        )

    @classmethod
    def from_environment(
        cls, environ: Optional[Mapping[str, str]] = None
    ) -> Optional["ChaosPlan"]:
        """The plan in :data:`CHAOS_ENV_VAR`, or None when it is unset."""
        environ = os.environ if environ is None else environ
        text = environ.get(CHAOS_ENV_VAR)
        return None if text is None else cls.parse(text)

    def to_text(self) -> str:
        """The plan in plan-string form (``parse`` round-trips it)."""
        return ";".join(rule.to_text() for rule in self.rules)

    # -------------------------------------------------------------- applying
    def rule_for(
        self, chunk_index: int, base: int, attempt: int
    ) -> Optional[ChaosRule]:
        """First rule firing for this (chunk, base, attempt), or None."""
        for rule in self.rules:
            if rule.matches(chunk_index, base, attempt):
                return rule
        return None

    def apply(self, chunk_index: int, base: int, attempt: int) -> None:
        """Execute the first matching rule's misbehavior (worker side).

        ``crash`` hard-exits the process after a short drain pause; ``hang``
        and ``slow`` sleep (hang long enough for any watchdog to fire);
        ``raise`` raises :class:`~repro.errors.ChaosError` out of the chunk.
        No rule matching is a no-op.
        """
        rule = self.rule_for(chunk_index, base, attempt)
        if rule is None:
            return
        if rule.kind == "crash":
            time.sleep(rule.seconds if rule.seconds is not None else CRASH_DRAIN_PAUSE)
            os._exit(2)
        if rule.kind == "hang":
            time.sleep(rule.seconds if rule.seconds is not None else DEFAULT_HANG_SECONDS)
            return
        if rule.kind == "slow":
            time.sleep(rule.seconds if rule.seconds is not None else DEFAULT_SLOW_SECONDS)
            return
        raise ChaosError(
            f"chaos plan raised in chunk {chunk_index} "
            f"(base {base}, attempt {attempt})"
        )

    def __repr__(self) -> str:
        """The plan-string form, labelled."""
        return f"ChaosPlan({self.to_text()!r})"


__all__ = [
    "CHAOS_ENV_VAR",
    "CHAOS_KINDS",
    "CRASH_DRAIN_PAUSE",
    "ChaosPlan",
    "ChaosRule",
]
