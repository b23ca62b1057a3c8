"""Fault campaigns: one entry point, one config, a process pool behind it.

:func:`run_multiprocess` is the only way to run a fault campaign.  Every knob
lives on one frozen :class:`CampaignConfig`, validated once when it is built
and tabled in the "Knobs and observability" section of ``docs/resilience.md``.
A campaign runs in three phases, *plan*, *supervise* and *assemble*, drawn in
the "Campaign data flow" section of ``docs/architecture.md``.  Spawned workers
re-open the design from a picklable :class:`WorkloadSpec`, and each chunk runs
the single-process fault simulator a :data:`RunnerSpec` selects, so verdicts
and detection cycles are exactly the single-process ones.
"""

from __future__ import annotations

import math
import os
import pickle
import sys
import time
from dataclasses import dataclass, fields, replace
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    TextIO,
    Tuple,
    Union,
)

from repro.errors import SimulationError, UnknownOptionError
from repro.ir.design import Design
from repro.sim.chaos import ChaosPlan
from repro.sim.codegen import design_fingerprint
from repro.sim.emitter import DEFAULT_VECTOR_WIDTH, numpy_is_available
from repro.sim.packed import DEFAULT_WORD_WIDTH, PackedCodegenSimulator
from repro.sim.result_cache import CACHE_MODES, DEFAULT_CACHE_MODE, ResultCache, stimulus_hash
from repro.sim.resilience import (
    ChunkState,
    ChunkSupervisor,
    RetryPolicy,
    require_at_least,
    require_positive,
)
from repro.sim.stimulus import Stimulus, VectorStimulus

if TYPE_CHECKING:  # imported lazily at runtime: an import cycle, or the pool stack
    from concurrent.futures import ProcessPoolExecutor

    from repro.fault.faultlist import FaultList
    from repro.fault.result import FaultSimResult

#: Chunks submitted per worker: oversubscription is the dynamic load balancer.
#: Words are unequal (early exit drops fully-detected words mid-stimulus), so
#: one chunk per worker would leave cores idle behind the slowest chunk;
#: ~4x lets fast workers pull extra work from the queue.
OVERSUBSCRIBE = 4

#: Seconds between streaming progress events while chunk futures are in
#: flight (only consulted when an ``on_progress`` callback is installed).
PROGRESS_INTERVAL = 0.5

#: Seconds between flushes of a pooled campaign's detections to its result
#: cache (``cache_mode="readwrite"`` only): what a killed campaign leaves for
#: its rerun to hit.
CACHE_FLUSH_INTERVAL = 30.0

#: Default retry budget: submissions after the first attempt a failed chunk
#: may consume before it is quarantined (or, with ``degrade=False``, failed).
DEFAULT_RETRIES = 2

#: One stuck-at fault as it crosses the process boundary: (signal name, bit,
#: stuck-at value).  Names are the stable cross-process identity — fault ids
#: are re-assigned densely inside each worker chunk.
FaultSite = Tuple[str, int, int]

#: What a worker should run over its chunk: ``("packed", {width, early_exit})``,
#: ``("vector", {width, early_exit})`` (the NumPy lane backend — word sizes of
#: 512-4096 faults are reasonable there), ``("serial", {engine, early_exit})``
#: or ``("auto", {...})``, which :func:`run_multiprocess` resolves in the parent.
RunnerSpec = Tuple[str, Dict[str, object]]

#: The runner kinds a :class:`CampaignConfig` accepts.
RUNNER_KINDS = ("packed", "vector", "serial", "auto")


class WorkloadSpec:
    """Picklable recipe for re-opening a (design, stimulus) pair in a worker.

    Exactly one design mode is set:

    * ``benchmark`` — a :mod:`repro.designs.registry` name; the worker
      recompiles from the packaged Verilog corpus,
    * ``source``/``top`` — raw Verilog text; the worker parses and elaborates,
    * ``design_blob`` — a pickled :class:`~repro.ir.design.Design`, the
      fallback for hand-built designs with no compile provenance.

    All three reproduce the identical content fingerprint, so the worker's
    packed kernel is a disk-cache hit for anything the parent already ran.
    The stimulus travels as explicit per-cycle vectors (``with_stimulus``), so
    non-picklable stimuli (``per_cycle`` lambdas) flatten losslessly.
    """

    __slots__ = ("benchmark", "source", "top", "design_blob", "clock", "vectors")

    def __init__(
        self,
        benchmark: Optional[str] = None,
        source: Optional[str] = None,
        top: Optional[str] = None,
        design_blob: Optional[bytes] = None,
        clock: Optional[str] = None,
        vectors: Optional[List[Dict[str, int]]] = None,
    ) -> None:
        """Validate that exactly one design mode is given and store the recipe."""
        modes = (benchmark is not None) + (source is not None) + (design_blob is not None)
        if modes != 1:
            raise SimulationError(
                "WorkloadSpec needs exactly one of benchmark=, source= or design_blob="
            )
        if source is not None and top is None:
            raise SimulationError("WorkloadSpec(source=...) also needs top=")
        self.benchmark = benchmark
        self.source = source
        self.top = top
        self.design_blob = design_blob
        self.clock = clock
        self.vectors = vectors

    # -------------------------------------------------------------- builders
    @classmethod
    def from_design(cls, design: Design) -> "WorkloadSpec":
        """Infer a spec from a design's compile provenance.

        Designs built through :func:`repro.api.compile_design` or the
        benchmark registry carry an ``origin`` recipe; anything else (a
        hand-assembled IR graph) falls back to pickling the design itself.
        """
        origin = getattr(design, "origin", None)
        if origin:
            if origin[0] == "benchmark":
                return cls(benchmark=origin[1])
            if origin[0] == "source":
                return cls(source=origin[1], top=origin[2])
        return cls(design_blob=pickle.dumps(design))

    def with_stimulus(self, stimulus: Stimulus) -> "WorkloadSpec":
        """A copy carrying ``stimulus`` flattened to explicit vectors."""
        vectors = [dict(stimulus.vector(c)) for c in range(stimulus.num_cycles())]
        return WorkloadSpec(
            benchmark=self.benchmark,
            source=self.source,
            top=self.top,
            design_blob=self.design_blob,
            clock=stimulus.clock,
            vectors=vectors,
        )

    # --------------------------------------------------------------- opening
    def build(self) -> Tuple[Design, Optional[Stimulus]]:
        """Re-open the design (and stimulus, if captured) from the recipe."""
        if self.benchmark is not None:
            from repro.designs.registry import get_benchmark

            design = get_benchmark(self.benchmark).compile()
        elif self.source is not None:
            from repro.api import compile_design

            design = compile_design(self.source, top=self.top)
        else:
            design = pickle.loads(self.design_blob)
        stimulus: Optional[Stimulus] = None
        if self.vectors is not None:
            stimulus = VectorStimulus(self.vectors, clock=self.clock)
        return design, stimulus

    def __repr__(self) -> str:
        """The design mode plus the number of captured stimulus cycles."""
        if self.benchmark is not None:
            what = f"benchmark={self.benchmark}"
        elif self.source is not None:
            what = f"source top={self.top}"
        else:
            what = f"design_blob={len(self.design_blob)}B"
        cycles = len(self.vectors) if self.vectors is not None else 0
        return f"WorkloadSpec({what}, {cycles} stimulus cycles)"


# ------------------------------------------------------------------- progress
class CampaignProgress:
    """One streaming progress event from a running fault campaign.

    Attributes
    ----------
    detected:
        Faults detected so far: the cached detections plus those of the
        chunks that finished (non-decreasing across a campaign's events).
    total:
        Total faults in the campaign.
    chunks_done / chunks_total:
        Completed vs submitted word-aligned chunks.
    elapsed:
        Seconds since the campaign started.
    eta:
        Estimated seconds remaining (chunk-rate extrapolation), or ``None``
        before the first chunk completes and on the final event.
    final:
        True on the last event of the campaign (exactly one is emitted).
    partial:
        True when the campaign broke mid-run and the verdicts are salvaged.
    """

    __slots__ = (
        "detected",
        "total",
        "chunks_done",
        "chunks_total",
        "elapsed",
        "eta",
        "final",
        "partial",
    )

    def __init__(
        self,
        detected: int,
        total: int,
        chunks_done: int,
        chunks_total: int,
        elapsed: float,
        eta: Optional[float] = None,
        final: bool = False,
        partial: bool = False,
    ) -> None:
        """Snapshot one instant of a campaign; see the class docstring."""
        self.detected = detected
        self.total = total
        self.chunks_done = chunks_done
        self.chunks_total = chunks_total
        self.elapsed = elapsed
        self.eta = eta
        self.final = final
        self.partial = partial

    @property
    def coverage(self) -> float:
        """Detected faults as a percentage of the campaign total."""
        if not self.total:
            return 0.0
        return 100.0 * self.detected / self.total

    def __repr__(self) -> str:
        """Detected/total, chunk counts and the final/partial markers."""
        flags = ("", " final")[self.final] + ("", " partial")[self.partial]
        return (
            f"CampaignProgress({self.detected}/{self.total} detected, "
            f"chunks {self.chunks_done}/{self.chunks_total}{flags})"
        )


def progress_printer(stream: Optional[TextIO] = None) -> Callable[[CampaignProgress], None]:
    """An ``on_progress`` callback that prints one status line per event.

    Writes to ``stream`` (default ``sys.stderr``, resolved per event so
    pytest's capture and CLI redirection both behave).  This is the
    ``on_progress`` the harness ``--progress`` flag puts in its config.
    """

    def emit(event: CampaignProgress) -> None:
        """Print one progress/done status line for ``event``."""
        out = stream if stream is not None else sys.stderr
        head = "done" if event.final else "progress"
        eta = f", eta {event.eta:.1f}s" if event.eta is not None else ""
        partial = " [PARTIAL: campaign broke mid-run]" if event.partial else ""
        print(
            f"{head}: {event.detected}/{event.total} faults detected "
            f"({event.coverage:.1f}%), chunks {event.chunks_done}/"
            f"{event.chunks_total}, {event.elapsed:.1f}s{eta}{partial}",
            file=out,
            flush=True,
        )

    return emit


# --------------------------------------------------------------------- config
@dataclass(frozen=True)
class CampaignConfig:
    """Every knob of a fault campaign, validated once, when it is built.

    The fields are tabled (field, CLI flag, default, meaning) in the
    "Knobs and observability" section of ``docs/resilience.md``.  A bad
    value raises :class:`~repro.errors.SimulationError` naming the field, so
    nothing downstream — a warm cache replay included — runs on one.
    """

    workers: Optional[int] = None
    width: int = DEFAULT_WORD_WIDTH
    runner: Optional[RunnerSpec] = None
    on_progress: Optional[Callable[[CampaignProgress], None]] = None
    salvage: bool = True
    retries: Union[int, RetryPolicy] = DEFAULT_RETRIES
    chunk_timeout: Optional[float] = None
    chaos: Union[ChaosPlan, str, None] = None
    degrade: bool = True
    cache: Union[ResultCache, str, bool, None] = None
    cache_mode: str = DEFAULT_CACHE_MODE

    def __post_init__(self) -> None:
        """Reject bad values up front, naming the field."""
        if self.workers is not None:
            require_at_least("workers", self.workers, 1)
        require_at_least("width", self.width, 1)
        if self.runner is not None and self.runner[0] not in RUNNER_KINDS:
            raise UnknownOptionError.for_option(
                "campaign runner kind", self.runner[0], RUNNER_KINDS
            )
        RetryPolicy.from_retries(self.retries)
        if self.chunk_timeout is not None:
            require_positive("chunk_timeout", self.chunk_timeout)
        ChaosPlan.coerce(self.chaos)
        if self.cache_mode not in CACHE_MODES:
            raise UnknownOptionError.for_option("cache_mode", self.cache_mode, CACHE_MODES)
        ResultCache.coerce(self.cache)

    def with_fields(self, **changes: object) -> "CampaignConfig":
        """A validated copy with ``changes`` applied; unknown names are an error."""
        unknown = sorted(set(changes) - _CONFIG_FIELDS)
        if unknown:
            raise UnknownOptionError.for_option(
                "campaign field", unknown[0], _CONFIG_FIELDS
            )
        return replace(self, **changes) if changes else self


_CONFIG_FIELDS = frozenset(field.name for field in fields(CampaignConfig))


# ----------------------------------------------------------------- worker side
#: Per-process workload: the spawn initializer populates it once, chunk tasks
#: only look it up.  One pool serves one campaign, so a single slot suffices.
_WORKER_WORKLOAD: Dict[str, object] = {}


def _worker_init(spec: WorkloadSpec) -> None:
    """Spawn initializer: re-open the workload once per worker."""
    design, stimulus = spec.build()
    if stimulus is None:
        raise SimulationError("worker received a WorkloadSpec without a stimulus")
    _WORKER_WORKLOAD.clear()
    _WORKER_WORKLOAD.update(design=design, stimulus=stimulus)


def _packed_runner(design: Design, width: int, options: Dict[str, object]):
    """Bigint lane words (:class:`PackedCodegenSimulator`)."""
    return PackedCodegenSimulator(
        design, width=width, early_exit=bool(options.get("early_exit", True))
    )


def _vector_runner(design: Design, width: int, options: Dict[str, object]):
    """NumPy lane arrays (:class:`~repro.sim.vector.VectorFaultSimulator`)."""
    from repro.sim.vector import VectorFaultSimulator

    return VectorFaultSimulator(
        design, width=width, early_exit=bool(options.get("early_exit", True))
    )


def _serial_runner(design: Design, width: int, options: Dict[str, object]):
    """One fault at a time (:class:`~repro.baselines.base.SerialFaultSimulator`)."""
    from repro.baselines.base import SerialFaultSimulator

    return SerialFaultSimulator(
        design,
        early_exit=bool(options.get("early_exit", True)),
        engine=str(options["engine"]),
    )


class _RunnerKind(NamedTuple):
    """One concrete runner kind: its result label, its lanes per word when the
    options name no ``width`` (0: one fault at a time), the kind it runs as
    where the parent lacks NumPy, and ``build(design, width, options) -> fault
    simulator``."""

    label: str
    width: int
    without_numpy: str
    build: Callable[..., object]


#: Every concrete runner kind (``"auto"`` is resolved to one in the parent).
_RUNNERS: Dict[str, _RunnerKind] = {
    "packed": _RunnerKind("PackedPPSFP-MP", DEFAULT_WORD_WIDTH, "packed", _packed_runner),
    "vector": _RunnerKind("VectorPPSFP-MP", DEFAULT_VECTOR_WIDTH, "packed", _vector_runner),
    "serial": _RunnerKind("serial-MP", 0, "serial", _serial_runner),
}


def _word_width(runner: RunnerSpec) -> int:
    """Faults per lane word of ``runner``: the grain chunks are cut at."""
    default = _RUNNERS[runner[0]].width
    return int(runner[1].get("width", default)) if default else 1


def make_campaign_runner(design: Design, runner: RunnerSpec):
    """Instantiate the fault simulator a :data:`RunnerSpec` describes.

    An ``("auto", ...)`` spec never reaches this function:
    :func:`run_multiprocess` resolves it in the parent.
    """
    kind, options = runner
    if kind not in _RUNNERS:
        raise UnknownOptionError.for_option("campaign runner kind", kind, tuple(_RUNNERS))
    return _RUNNERS[kind].build(design, _word_width(runner), options)


def _inline_runner(runner: RunnerSpec) -> RunnerSpec:
    """The runner for a chunk run in the parent, which may lack NumPy.

    Packed takes any lane width, so degrading vector to it keeps the word
    geometry, and with it every verdict and detection cycle.  NumPy is
    probed only for a runner that has a fallback, so a packed or serial
    campaign never imports it.
    """
    fallback = _RUNNERS[runner[0]].without_numpy
    if fallback != runner[0] and not numpy_is_available():
        return (fallback, dict(runner[1]))
    return runner


def _run_chunk(
    design: Design, stimulus: Stimulus, runner: RunnerSpec, sites: Sequence[FaultSite]
) -> Tuple[Dict[str, int], int, float]:
    """Fault-simulate one chunk's faults, given in wire format.

    Returns ``(detections by fault name, simulated cycles, wall seconds)``:
    small, plain and picklable, it is what the parent merges and flushes to
    the result cache, and what feeds the supervisor's adaptive watchdog.
    """
    from repro.fault.faultlist import FaultList
    from repro.fault.model import StuckAtFault

    begin = time.perf_counter()
    # fresh fault objects: FaultList.add assigns dense local ids, and must
    # not clobber the caller's fault_id fields
    faults = FaultList(
        [StuckAtFault(design.signal(name), bit, value) for name, bit, value in sites]
    )
    result = make_campaign_runner(design, runner).run(stimulus, faults)
    return dict(result.coverage.detections), result.stats.cycles, time.perf_counter() - begin


def _simulate_chunk(
    sites: Sequence[FaultSite],
    base: int,
    runner: RunnerSpec,
    chunk_index: int,
    attempt: int,
    chaos: Optional[ChaosPlan],
) -> Tuple[Dict[str, int], int, float]:
    """Worker task: fault-simulate one word-aligned chunk (see :func:`_run_chunk`).

    ``base`` is the chunk's first position in the campaign's fault list, and
    ``chunk_index`` and ``attempt`` (0-based) identify the submission for the
    chaos plan, which the parent resolves once and ships with every task so
    attempt-aware triggers see the supervisor's counters.
    """
    if chaos is not None:
        chaos.apply(chunk_index, base, attempt)
    design: Design = _WORKER_WORKLOAD["design"]  # type: ignore[assignment]
    stimulus: Stimulus = _WORKER_WORKLOAD["stimulus"]  # type: ignore[assignment]
    return _run_chunk(design, stimulus, runner, sites)


# ----------------------------------------------------------------- parent side
def chunk_positions(
    positions: Sequence[int], word_size: int, max_chunks: int
) -> List[List[int]]:
    """Split fault positions into at most ``max_chunks`` word-aligned chunks.

    Chunks are *consecutive* runs of whole words of ``word_size`` faults, so
    a worker packs exactly the words the single-process
    :class:`PackedCodegenSimulator` would pack over the same positions —
    chunking can never change which faults share a word, which is what
    keeps the merged verdicts bit-exact.
    """
    word_size = max(1, word_size)
    words = math.ceil(len(positions) / word_size)
    per_chunk = word_size * math.ceil(words / max(1, min(max_chunks, words)))
    return [
        list(positions[start : start + per_chunk])
        for start in range(0, len(positions), per_chunk)
    ]


def _merge_chunk_verdicts(merged: Dict[str, int], chunk: Dict[str, int]) -> None:
    """Merge one chunk's verdicts, asserting chunk-disjointness.

    ``dict.update`` would silently keep the *last* writer on a duplicate
    fault name; duplicates can only mean the chunking produced overlapping
    chunks (or a worker simulated the wrong slice), which must surface as an
    error, not a quietly-wrong cycle.
    """
    overlap = merged.keys() & chunk.keys()
    if overlap:
        shown = ", ".join(sorted(overlap)[:3])
        raise SimulationError(
            f"chunk verdicts overlap on {len(overlap)} fault(s) ({shown}...); "
            "chunks must partition the fault list"
        )
    merged.update(chunk)


def _concrete_runner(design: Design, config: CampaignConfig, fault_count: int) -> RunnerSpec:
    """The runner every chunk of this campaign runs; resolves ``auto``.

    ``auto`` is resolved HERE, in the parent, against the campaign's full
    fault count (:func:`repro.sim.emitter.resolve_engine`), so chunking,
    labels and degradation all see the concrete substrate: vector lanes when
    the policy picks ``packed-numpy``, packed words otherwise.
    """
    runner = config.runner
    if runner is None:
        return ("packed", {"width": config.width})
    if runner[0] != "auto":
        return runner
    from repro.sim.emitter import resolve_engine

    options = dict(runner[1])
    if resolve_engine(design, fault_count=fault_count) == "packed-numpy":
        options.setdefault("width", DEFAULT_VECTOR_WIDTH)
        return ("vector", options)
    options.setdefault("width", config.width)
    return ("packed", options)


def run_multiprocess(
    design: Design,
    stimulus: Stimulus,
    faults: "FaultList",
    config: Optional[CampaignConfig] = None,
    *,
    label: Optional[str] = None,
    **fields: object,
) -> "FaultSimResult":
    """Fault-simulate ``faults`` as one campaign: the only campaign entry point.

    ``config`` carries every knob (default: ``CampaignConfig()``);
    ``**fields`` are :class:`CampaignConfig` field names applied on top of
    it, so ``run_multiprocess(d, s, f, workers=1, cache=root)`` works without
    building a config by hand.  The fields are tabled in the "Knobs and
    observability" section of ``docs/resilience.md``.  ``label`` is not a
    knob but the result's simulator name (default: from the runner).

    The campaign runs in three phases — plan, supervise, assemble — drawn in
    the "Campaign data flow" section of ``docs/architecture.md``; what the
    result cache adds to them is in ``docs/caching.md``.  Verdicts and
    detection cycles are exact against a single-process run — caching,
    dropping and chunking only remove redundant work.

    The result's ``stats.cycles`` is the *sum of cycles simulated across all
    workers* — a work metric that shrinks as dropping bites.  It is not
    wall-clock cycles: chunks run concurrently, so the sum exceeds any
    single timeline (``wall_time`` is the wall-clock measure).
    """
    config = (config or CampaignConfig()).with_fields(**fields)
    campaign = _Campaign(design, stimulus, faults, config, label)  # plan
    try:
        campaign.supervise()
        return campaign.assemble()
    finally:
        campaign.release()


class _Campaign:
    """One campaign: constructing it is the *plan* phase, then :meth:`supervise`
    and :meth:`assemble` run, and :meth:`release` flushes a dying one.

    A chunk's ``positions`` index the caller's fault list.  The
    :class:`ChunkSupervisor` hooks are methods here.
    """

    def __init__(
        self,
        design: Design,
        stimulus: Stimulus,
        faults: "FaultList",
        config: CampaignConfig,
        label: Optional[str],
    ) -> None:
        """Plan: resolve the runner, the cache hits and the positions left to simulate."""
        from repro.core.stats import SimulationStats

        self.start = time.perf_counter()  # the wall clock runs from entry
        self.design = design
        self.stimulus = stimulus
        self.faults = faults
        self.config = config
        self.stats = SimulationStats()
        design.check_finalized()
        stimulus.validate(design)
        self.runner = _concrete_runner(design, config, len(faults))
        self.label = label if label is not None else _RUNNERS[self.runner[0]].label
        #: Fault name -> detection cycle of every cached detection.
        self.cached: Dict[str, int] = {}
        #: Positions left to simulate: those no cache verdict answers.
        self.todo = list(range(len(faults)))
        self.store = ResultCache.coerce(config.cache)
        if self.store is not None:
            self.cache_key = (design_fingerprint(design), stimulus_hash(stimulus))
            names = [fault.name for fault in faults]
            hits = self.store.lookup(*self.cache_key, names)
            self.todo = [position for position, name in enumerate(names) if name not in hits]
            self.cached = {name: cycle for name, cycle in hits.items() if cycle is not None}
            self.stats.cache_hits = len(hits)
            self.stats.cache_misses = len(self.todo)
        self.writes_cache = self.store is not None and config.cache_mode == "readwrite"
        #: Names of the verdicts already written to the cache by this campaign.
        self.flushed: Set[str] = set()
        units = math.ceil(len(self.todo) / max(1, _word_width(self.runner)))
        workers = config.workers if config.workers is not None else (os.cpu_count() or 1)
        self.workers = max(1, min(workers, units))
        self.spec: Optional[WorkloadSpec] = None
        self.chaos: Optional[ChaosPlan] = None
        #: Fault name -> detection cycle of every resolved chunk's detections.
        self.merged: Dict[str, int] = {}
        self.chunks_done = 0
        self.chunks_total = 0
        self.partial = False
        self.supervised = False
        self.chunk_event = False
        self.last_emit = self.last_flush = self.start

    # ------------------------------------------------------------- the phases
    def supervise(self) -> None:
        """Simulate the positions left: inline for one worker, else over a pool."""
        if self.todo:
            max_chunks = self.workers * OVERSUBSCRIBE if self.workers > 1 else 1
            states = [
                ChunkState(index, positions)
                for index, positions in enumerate(
                    chunk_positions(self.todo, _word_width(self.runner), max_chunks)
                )
            ]
            self.chunks_total = len(states)
            self.emit()
            if self.workers == 1:
                # no pool startup for tiny campaigns and debugging; chaos
                # never fires in the parent process
                state = states[0]
                detections, cycles, _ = self.run_inline(state)
                state.outcome = "inline"
                self.on_complete(state, detections, cycles)
            else:
                self.run_pool(states)
        self.supervised = True

    def assemble(self) -> "FaultSimResult":
        """Collect the verdicts, write the cache, emit the final event."""
        from repro.fault.coverage import FaultCoverageReport
        from repro.fault.result import FaultSimResult

        detections = self.detections()
        if self.writes_cache:
            # a salvaged campaign cannot tell "undetected" from "never
            # simulated", so only a complete one records undetected faults
            fresh: Dict[str, Optional[int]] = {}
            for position in self.todo:
                name = self.faults[position].name
                if name in self.flushed:
                    continue
                if name in detections:
                    fresh[name] = detections[name]
                elif not self.partial:
                    fresh[name] = None
            self.store_verdicts(fresh)
        wall = time.perf_counter() - self.start
        self.stats.time_total = wall
        self.emit(final=True)
        coverage = FaultCoverageReport.from_named_detections(
            self.design.name, self.faults, detections, simulator=self.label
        )
        return FaultSimResult(self.label, coverage, wall, self.stats, partial=self.partial)

    def release(self) -> None:
        """Flush a dying campaign's detections (best effort)."""
        if not self.supervised:
            # salvage raise, KeyboardInterrupt...: leave the rerun some hits
            try:
                self.flush()
            except Exception:  # pragma: no cover - the flush is best-effort here
                pass

    # ------------------------------------------------------------ supervision
    def run_pool(self, states: List[ChunkState]) -> None:
        """Drive the chunks over spawn pools: retry, watchdog, quarantine."""
        config = self.config
        policy = RetryPolicy.from_retries(config.retries)
        self.spec = WorkloadSpec.from_design(self.design).with_stimulus(self.stimulus)
        self.chaos = ChaosPlan.coerce(config.chaos) or ChaosPlan.from_environment() or None
        ChunkSupervisor(
            states,
            policy,
            self.make_pool,
            self.submit,
            self.run_inline,
            self.on_complete,
            self.on_tick,
            chunk_timeout=config.chunk_timeout,
            degrade=config.degrade,
        ).run()
        self.stats.chunk_retries = sum(max(0, s.attempts - 1) for s in states)
        self.stats.chunks_quarantined = sum(1 for s in states if s.quarantined)
        failed = [s for s in states if s.outcome == "failed"]
        self.stats.chunks_failed = len(failed)
        if failed and not config.salvage:
            raise SimulationError(
                f"a worker process died while fault-simulating "
                f"{self.design.name!r} (workers={self.workers}, "
                f"chunks={self.chunks_total}): {len(failed)} chunk(s) "
                f"unfinished after {policy.max_attempts} attempt(s); "
                f"the campaign was aborted and its partial verdicts discarded"
            ) from failed[0].error
        # salvage: the completed chunks' verdicts are the partial result
        self.partial = bool(failed)

    def make_pool(self) -> "ProcessPoolExecutor":
        """A fresh spawn pool; one is built per supervision generation."""
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context

        return ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=get_context("spawn"),
            initializer=_worker_init,
            initargs=(self.spec,),
        )

    def submit(self, pool: "ProcessPoolExecutor", state: ChunkState):
        """Submit one chunk attempt (0-based attempt for the chaos plan)."""
        return pool.submit(
            _simulate_chunk,
            self.sites(state),
            state.positions[0],
            self.runner,
            state.index,
            state.attempts - 1,
            self.chaos,
        )

    def run_inline(self, state: ChunkState) -> Tuple[Dict[str, int], int, float]:
        """Run one chunk in this process: the one-worker run and the quarantine rung."""
        return _run_chunk(
            self.design, self.stimulus, _inline_runner(self.runner), self.sites(state)
        )

    def on_complete(self, state: ChunkState, detections: Dict[str, int], cycles: int) -> None:
        """Merge one resolved chunk into the campaign accumulators."""
        _merge_chunk_verdicts(self.merged, detections)
        self.stats.cycles += cycles
        self.chunks_done += 1
        self.stats.chunks_simulated += 1
        self.chunk_event = True

    def on_tick(self) -> None:
        """Per-poll cadence: progress events and periodic cache flushes."""
        now = time.perf_counter()
        if self.chunk_event or now - self.last_emit >= PROGRESS_INTERVAL:
            self.chunk_event = False
            self.last_emit = now
            self.emit()
        if now - self.last_flush >= CACHE_FLUSH_INTERVAL:
            self.last_flush = now
            self.flush()

    # ---------------------------------------------------------------- helpers
    def sites(self, state: ChunkState) -> List[FaultSite]:
        """The chunk's faults in wire format."""
        faults = self.faults
        return [(faults[p].signal.name, faults[p].bit, faults[p].value) for p in state.positions]

    def detections(self) -> Dict[str, int]:
        """Fault name -> detection cycle: the cache hits plus the merged chunks."""
        return {**self.cached, **self.merged}

    def flush(self) -> None:
        """Write the detections of resolved chunks that the cache still lacks."""
        if self.writes_cache:
            self.store_verdicts(
                {name: cycle for name, cycle in self.merged.items() if name not in self.flushed}
            )

    def store_verdicts(self, verdicts: Dict[str, Optional[int]]) -> None:
        """Merge ``verdicts`` into the cache shard, counting each verdict once."""
        if verdicts and self.store.store(
            *self.cache_key,
            verdicts,
            design_name=self.design.name,
            clock=self.stimulus.clock,
            cycles=self.stimulus.num_cycles(),
        ):
            self.flushed.update(verdicts)
            self.stats.cache_writes += len(verdicts)

    def emit(self, final: bool = False) -> None:
        """Snapshot the campaign into one CampaignProgress event, if streaming."""
        on_progress = self.config.on_progress
        if on_progress is None:
            return
        elapsed = time.perf_counter() - self.start
        eta = None
        if not final and self.chunks_done:
            # clamped: a retried chunk can push elapsed past the naive
            # extrapolation, and an ETA below zero is just noise
            remaining = self.chunks_total - self.chunks_done
            eta = max(0.0, elapsed * remaining / self.chunks_done)
        on_progress(
            CampaignProgress(
                detected=len(self.cached) + len(self.merged),
                total=len(self.faults),
                chunks_done=self.chunks_done,
                chunks_total=self.chunks_total,
                elapsed=elapsed,
                eta=eta,
                final=final,
                partial=self.partial,
            )
        )


__all__ = [
    "CACHE_FLUSH_INTERVAL",
    "CampaignConfig",
    "CampaignProgress",
    "DEFAULT_RETRIES",
    "OVERSUBSCRIBE",
    "PROGRESS_INTERVAL",
    "RUNNER_KINDS",
    "WorkloadSpec",
    "chunk_positions",
    "make_campaign_runner",
    "progress_printer",
    "run_multiprocess",
]
