"""Fault campaigns: one entry point, one config, a process pool behind it.

:func:`run_multiprocess` is the only way to run a fault campaign.  Every knob
lives on one frozen :class:`CampaignConfig`, validated once when it is built;
the knobs (field, CLI flag, default, meaning) are tabled in one place, the
"Knobs and observability" section of ``docs/resilience.md``.

* :class:`WorkloadSpec` — a picklable recipe for re-opening the *identical*
  (design, stimulus) pair inside a worker process: a benchmark registry name,
  raw Verilog source + top module, or a pickled :class:`~repro.ir.design.Design`
  as a last resort, plus the stimulus flattened to explicit per-cycle vectors.
  Live kernels are never pickled — each worker recompiles the design (tens of
  milliseconds) and hydrates the generated packed kernel from the shared
  on-disk codegen cache (source + bytecode sidecar), so cold workers warm up
  for roughly the cost of an import.
* :func:`run_multiprocess` — chunks the fault list into word-aligned slices,
  oversubscribes the pool (:data:`OVERSUBSCRIBE` chunks per worker) so fast
  words never leave a core idle, and merges verdicts through a shared-memory
  :class:`~repro.sim.verdict_plane.VerdictPlane` that workers write
  lane-granularly the moment each fault is detected.  Inside a worker each
  chunk runs the ordinary :class:`~repro.sim.packed.PackedCodegenSimulator`
  (or the vector/serial runner a :data:`RunnerSpec` selects), so lane-granular
  dropping and the first-difference detection cycles are exactly the
  single-process semantics.  A pool of one runs inline, with no pool at all.

The verdict plane carries cross-chunk fault dropping, streaming progress,
partial-result salvage and warm resume (``resume_from=``); a
:class:`~repro.sim.resilience.ChunkSupervisor` retries, times out and
quarantines failing chunks and checkpoints the plane to disk, all driven
deterministically by the plans in :mod:`repro.sim.chaos`; and the persistent
result cache (:mod:`repro.sim.result_cache`) resolves already-known verdicts
before any chunk is scheduled.  Chunk idempotency is what makes all of it
verdict-safe: re-running any chunk can only rewrite the same bytes.  See
``docs/internals-packing.md``, ``docs/resilience.md`` and ``docs/caching.md``.

Workers are spawned (never forked): spawn is the only start method that is
safe on every platform the CI matrix covers (macOS defaults to it, fork is
unsound under threads), and the disk cache makes the usual spawn penalty —
re-importing and re-deriving everything — a non-issue here.

Where POSIX shared memory is unavailable (``VerdictPlane.create`` raising
``OSError``), the campaign falls back transparently to a pickled-dict merge:
verdicts stay exact, only streaming granularity and cross-chunk dropping
degrade.
"""

from __future__ import annotations

import math
import os
import pickle
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from multiprocessing import get_context
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    TextIO,
    Tuple,
    Union,
)

from repro.errors import SimulationError, UnknownOptionError
from repro.ir.design import Design
from repro.sim.chaos import ChaosPlan
from repro.sim.codegen import design_fingerprint
from repro.sim.packed import DEFAULT_WORD_WIDTH, PackedCodegenSimulator, pack_fault_words
from repro.sim.result_cache import CACHE_MODES, DEFAULT_CACHE_MODE, ResultCache, stimulus_hash
from repro.sim.resilience import (
    ChunkState,
    ChunkSupervisor,
    RetryPolicy,
    require_at_least,
    require_positive,
)
from repro.sim.stimulus import Stimulus, VectorStimulus
from repro.sim.verdict_plane import VerdictPlane, campaign_fingerprint

if TYPE_CHECKING:  # imported lazily at runtime to avoid a package import cycle
    from repro.fault.faultlist import FaultList
    from repro.fault.result import FaultSimResult

#: Chunks submitted per worker: oversubscription is the dynamic load balancer.
#: Words are unequal (early exit drops fully-detected words mid-stimulus), so
#: one chunk per worker would leave cores idle behind the slowest chunk;
#: ~4x lets fast workers pull extra work from the queue.
OVERSUBSCRIBE = 4

#: Cycles between mid-run consults of the shared verdict plane.  Each consult
#: is a handful of byte reads per live lane, so small strides are cheap; this
#: keeps the consult cost well under the per-cycle simulation cost even on
#: the smallest corpus designs.
DROP_STRIDE = 32

#: Seconds between streaming progress events while chunk futures are in
#: flight (only consulted when an ``on_progress`` callback is installed).
PROGRESS_INTERVAL = 0.5

#: Default retry budget: submissions after the first attempt a failed chunk
#: may consume before it is quarantined (or, with ``degrade=False``, failed).
DEFAULT_RETRIES = 2

#: Seconds between periodic checkpoint snapshots while ``checkpoint=`` is set.
DEFAULT_CHECKPOINT_INTERVAL = 30.0

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

#: The result label per concrete runner kind (others read ``"<kind>-MP"``).
_RUNNER_LABELS = {"packed": "PackedPPSFP-MP", "vector": "VectorPPSFP-MP"}


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
        Faults detected so far, campaign-wide (monotonically non-decreasing
        across the events of one campaign; includes ``resume_from`` seeds).
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
    cross_drop: bool = True
    salvage: bool = True
    retries: Union[int, RetryPolicy] = DEFAULT_RETRIES
    chunk_timeout: Optional[float] = None
    checkpoint: Optional[str] = None
    checkpoint_interval: float = DEFAULT_CHECKPOINT_INTERVAL
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
        require_positive("checkpoint_interval", self.checkpoint_interval)
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


def _worker_init(spec: WorkloadSpec, plane_name: Optional[str] = None) -> None:
    """Spawn initializer: re-open the workload (and verdict plane) once per worker."""
    design, stimulus = spec.build()
    if stimulus is None:
        raise SimulationError("worker received a WorkloadSpec without a stimulus")
    _WORKER_WORKLOAD["design"] = design
    _WORKER_WORKLOAD["stimulus"] = stimulus
    _WORKER_WORKLOAD["plane"] = (
        VerdictPlane.attach(plane_name) if plane_name is not None else None
    )


def make_campaign_runner(
    design: Design,
    runner: RunnerSpec,
    on_detect: Optional[Callable[[int, int], None]] = None,
    drop_hook: Optional[Callable[[List[int]], List[int]]] = None,
    drop_stride: int = 0,
):
    """Instantiate the fault simulator a :data:`RunnerSpec` describes.

    ``on_detect``/``drop_hook``/``drop_stride`` wire the packed and vector
    runners into the shared verdict plane (streaming detection writes plus
    word-fill and mid-run drop consults).  The serial baselines have no lane
    hooks — for them the chunk-start filter and the idempotent post-run
    re-mark in :func:`_run_chunk` provide the same campaign semantics, so the
    hooks are accepted and ignored here.  An ``("auto", ...)`` spec never
    reaches this function: :func:`run_multiprocess` resolves it in the parent.
    """
    kind, options = runner
    if kind == "packed":
        return PackedCodegenSimulator(
            design,
            width=int(options.get("width", DEFAULT_WORD_WIDTH)),
            early_exit=bool(options.get("early_exit", True)),
            on_detect=on_detect,
            drop_hook=drop_hook,
            drop_stride=drop_stride,
            repack=bool(options.get("repack", False)),
        )
    if kind == "vector":
        from repro.sim.vector import DEFAULT_VECTOR_WIDTH, VectorFaultSimulator

        return VectorFaultSimulator(
            design,
            width=int(options.get("width", DEFAULT_VECTOR_WIDTH)),
            early_exit=bool(options.get("early_exit", True)),
            on_detect=on_detect,
            drop_hook=drop_hook,
            drop_stride=drop_stride,
        )
    if kind == "serial":
        from repro.baselines.base import SerialFaultSimulator

        return SerialFaultSimulator(
            design,
            early_exit=bool(options.get("early_exit", True)),
            engine=str(options["engine"]),
        )
    raise UnknownOptionError.for_option(
        "campaign runner kind", kind, ("packed", "vector", "serial")
    )


def _materialize_faults(design: Design, sites: Sequence[FaultSite]):
    """Rebuild a dense-id :class:`FaultList` from wire-format fault sites."""
    from repro.fault.faultlist import FaultList
    from repro.fault.model import StuckAtFault

    return FaultList(
        [StuckAtFault(design.signal(name), bit, value) for name, bit, value in sites]
    )


def _run_chunk(
    design: Design,
    stimulus: Stimulus,
    faults,
    runner: RunnerSpec,
    plane: Optional[VerdictPlane],
    base: int,
    cross_drop: bool,
    drop_stride: int,
) -> Tuple[Dict[str, int], int]:
    """Fault-simulate one consecutive chunk against the (optional) shared plane.

    ``faults`` is a dense-id :class:`FaultList` whose local id ``j`` is the
    campaign's global fault index ``base + j`` (chunks are consecutive slices
    of the packed word order).  With a plane and ``cross_drop`` the chunk is
    filtered at start against the global detection flags — re-packing the
    survivors is verdict-safe because lanes are independent — and the runner
    gets word-fill/mid-run drop hooks plus a streaming ``on_detect`` writer.
    Returns ``(detections by fault name, simulated cycles)``.
    """
    gmap = list(range(base, base + len(faults)))
    if plane is not None and cross_drop:
        flags = plane.detected_flags(base, len(faults))
        if any(flags):
            from repro.fault.faultlist import FaultList
            from repro.fault.model import StuckAtFault

            survivors = [(i, f) for i, f in enumerate(faults) if not flags[i]]
            if not survivors:
                return {}, 0
            gmap = [base + i for i, _ in survivors]
            # fresh fault objects: FaultList.add assigns dense local ids and
            # must not clobber the caller's fault_id fields
            faults = FaultList(
                [StuckAtFault(f.signal, f.bit, f.value) for _, f in survivors]
            )
    on_detect: Optional[Callable[[int, int], None]] = None
    drop_hook: Optional[Callable[[List[int]], List[int]]] = None
    if plane is not None:
        mark = plane.mark

        def _stream_detection(fault_id: int, cycle: int) -> None:
            mark(gmap[fault_id], cycle)

        on_detect = _stream_detection
        if cross_drop:
            is_detected = plane.is_detected

            def _consult_plane(fault_ids: List[int]) -> List[int]:
                return [fid for fid in fault_ids if is_detected(gmap[fid])]

            drop_hook = _consult_plane

    simulator = make_campaign_runner(
        design,
        runner,
        on_detect=on_detect,
        drop_hook=drop_hook,
        drop_stride=drop_stride if cross_drop else 0,
    )
    result = simulator.run(stimulus, faults)
    detections = dict(result.coverage.detections)
    if plane is not None and detections:
        # serial runners have no on_detect seam; re-marking is idempotent
        # (detection cycles are deterministic, so duplicate marks write the
        # same bytes), and it makes every runner kind plane-complete
        global_index = {fault.name: gmap[fault.fault_id] for fault in faults}
        for name, cycle in detections.items():
            mark(global_index[name], cycle)
    return detections, result.stats.cycles


def _simulate_chunk(
    sites: Sequence[FaultSite],
    runner: RunnerSpec,
    base: int = 0,
    cross_drop: bool = False,
    drop_stride: int = 0,
    chunk_index: int = 0,
    attempt: int = 0,
    chaos: Optional[ChaosPlan] = None,
) -> Tuple[Dict[str, int], int, float]:
    """Worker task: fault-simulate one word-aligned chunk.

    ``base`` is the chunk's first global fault index; ``chunk_index`` and
    ``attempt`` (0-based) identify the submission for the chaos plan, which
    the parent resolves once and ships with every task so attempt-aware
    triggers see the supervisor's counters.  Detections stream into the
    worker's attached verdict plane as they happen; the returned
    ``(detections by fault name, simulated cycles, wall seconds)`` tuple —
    small, plain and picklable — doubles as the merge payload where shared
    memory is unavailable and feeds the supervisor's adaptive watchdog.
    """
    begin = time.perf_counter()
    if chaos is not None:
        chaos.apply(chunk_index, base, attempt)
    design: Design = _WORKER_WORKLOAD["design"]  # type: ignore[assignment]
    stimulus: Stimulus = _WORKER_WORKLOAD["stimulus"]  # type: ignore[assignment]
    plane: Optional[VerdictPlane] = _WORKER_WORKLOAD.get("plane")  # type: ignore[assignment]
    faults = _materialize_faults(design, sites)
    detections, cycles = _run_chunk(
        design, stimulus, faults, runner, plane, base, cross_drop, drop_stride
    )
    return detections, cycles, time.perf_counter() - begin


def _degraded_inline_runner(runner: RunnerSpec) -> RunnerSpec:
    """The quarantine rung's runner: vector degrades to packed without NumPy.

    Quarantined chunks run in the campaign parent, which may lack the
    optional NumPy dependency a ``("vector", ...)`` spec needs; the packed
    bigint runner takes any lane width, so the degraded spec keeps the same
    word geometry (and therefore the same verdicts and cycles).
    """
    if runner[0] != "vector":
        return runner
    try:
        import numpy  # noqa: F401
    except Exception:
        return ("packed", dict(runner[1]))
    return runner


# ----------------------------------------------------------------- parent side
def chunk_fault_sites(
    faults: "FaultList", word_size: int, max_chunks: int
) -> List[List[FaultSite]]:
    """Split a fault list into at most ``max_chunks`` word-aligned site chunks.

    Chunks are *consecutive* runs of whole fault words, so a worker packs
    exactly the words the single-process :class:`PackedCodegenSimulator` would
    pack — chunking can never change which faults share a word, which is what
    keeps the merged verdicts bit-exact.  Consecutiveness is also what maps a
    chunk's local fault ids onto the campaign's global fault indexes (chunk
    base + local id), the coordinate system of the shared verdict plane.
    """
    words = pack_fault_words(faults, max(1, word_size))
    chunks = max(1, min(max_chunks, len(words)))
    per_chunk = math.ceil(len(words) / chunks)
    sites: List[List[FaultSite]] = []
    for start in range(0, len(words), per_chunk):
        group = words[start : start + per_chunk]
        sites.append(
            [(f.signal.name, f.bit, f.value) for word in group for f in word]
        )
    return sites


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
    the policy picks ``packed-numpy``, packed words with survivor
    re-packing otherwise.
    """
    runner = config.runner
    if runner is None:
        return ("packed", {"width": config.width})
    if runner[0] != "auto":
        return runner
    from repro.sim.emitter import resolve_engine

    options = dict(runner[1])
    if resolve_engine(design, fault_count=fault_count) == "packed-numpy":
        from repro.sim.vector import DEFAULT_VECTOR_WIDTH

        options.setdefault("width", DEFAULT_VECTOR_WIDTH)
        options.pop("repack", None)
        return ("vector", options)
    options.setdefault("width", config.width)
    options.setdefault("repack", True)
    return ("packed", options)


def run_multiprocess(
    design: Design,
    stimulus: Stimulus,
    faults: "FaultList",
    config: Optional[CampaignConfig] = None,
    *,
    resume_from: Optional[Dict[str, int]] = None,
    plane: Optional[VerdictPlane] = None,
    label: Optional[str] = None,
    **fields: object,
) -> "FaultSimResult":
    """Fault-simulate ``faults`` as one campaign: the only campaign entry point.

    ``config`` carries every knob (default: ``CampaignConfig()``);
    ``**fields`` are :class:`CampaignConfig` field names applied on top of
    it, so ``run_multiprocess(d, s, f, workers=1, cache=root)`` works without
    building a config by hand.  The fields are tabled in the "Knobs and
    observability" section of ``docs/resilience.md``.

    The fault list is cut into word-aligned chunks, each run by the
    configured runner (default: packed PPSFP at ``width``) inside a spawned
    worker; a resolved pool of one runs inline with no pool at all.
    Verdicts and detection cycles are exact against a single-process run —
    dropping and chunking only remove redundant work.

    The three per-call values are not knobs:

    * ``resume_from`` — ``fault name -> detection cycle`` verdicts already
      known (e.g. a previous partial result's ``coverage.detections``); they
      seed the plane, are dropped from simulation, and appear in the final
      report.  Unknown fault names are an error.
    * ``plane`` — an externally created :class:`VerdictPlane` sized to this
      fault list, letting concurrent campaigns share verdicts; the caller
      keeps ownership (this function will not unlink it).  The result cache
      is not consulted when a plane is passed.
    * ``label`` — the result's simulator name (default: from the runner).

    The result's ``stats.cycles`` is the *sum of cycles simulated across all
    workers* — a work metric that shrinks as dropping bites.  It is not
    wall-clock cycles: chunks run concurrently, so the sum exceeds any
    single timeline (``wall_time`` is the wall-clock measure).
    """
    from repro.core.stats import SimulationStats
    from repro.fault.coverage import FaultCoverageReport
    from repro.fault.result import FaultSimResult

    config = (config or CampaignConfig()).with_fields(**fields)
    design.check_finalized()
    stimulus.validate(design)
    runner = _concrete_runner(design, config, len(faults))
    if label is None:
        label = _RUNNER_LABELS.get(runner[0], f"{runner[0]}-MP")
    store = ResultCache.coerce(config.cache)
    if store is not None and len(faults) and plane is None:
        return _run_cached(
            store,
            design,
            stimulus,
            faults,
            replace(config, runner=runner, cache=None),
            resume_from,
            label,
        )
    policy = RetryPolicy.from_retries(config.retries)
    chaos_plan = ChaosPlan.coerce(config.chaos) or ChaosPlan.from_environment()
    checkpoint = config.checkpoint
    cross_drop = config.cross_drop
    on_progress = config.on_progress
    # word-aligned chunking: the chunk size is the runner's lane-word width
    # (for the vector runner that is the array lane count, e.g. 512-4096
    # faults per chunk), so chunking never changes which faults share a word
    if runner[0] == "packed":
        word_size = int(runner[1].get("width", DEFAULT_WORD_WIDTH))
    elif runner[0] == "vector":
        from repro.sim.vector import DEFAULT_VECTOR_WIDTH

        word_size = int(runner[1].get("width", DEFAULT_VECTOR_WIDTH))
    else:
        word_size = 1
    work_units = math.ceil(len(faults) / max(1, word_size))
    workers = config.workers if config.workers is not None else (os.cpu_count() or 1)
    workers = max(1, min(workers, work_units))

    seeds: Dict[str, int] = dict(resume_from) if resume_from else {}
    fingerprint: Optional[str] = None
    if checkpoint is not None:
        fingerprint = campaign_fingerprint(design, faults)
        if os.path.exists(checkpoint):
            snapshot = VerdictPlane.load(checkpoint, expect_fingerprint=fingerprint)
            try:
                for name, seed_cycle in snapshot.named_detections(faults).items():
                    seeds.setdefault(name, seed_cycle)
            finally:
                snapshot.close()
    index_by_name: Dict[str, int] = {}
    if seeds:
        index_by_name = {fault.name: i for i, fault in enumerate(faults)}
        unknown = sorted(name for name in seeds if name not in index_by_name)
        if unknown:
            raise SimulationError(
                f"resume_from names faults not in this campaign: {unknown[:5]}"
            )
    owned_plane = False
    if plane is not None:
        if plane.n_faults != len(faults):
            raise SimulationError(
                f"verdict plane is sized for {plane.n_faults} faults but the "
                f"campaign has {len(faults)}"
            )
    elif len(faults):
        try:
            plane = VerdictPlane.create(len(faults))
            owned_plane = True
        except OSError:
            plane = None  # no POSIX shared memory here: pickled-dict fallback
    if checkpoint is not None and plane is None and len(faults):
        raise SimulationError(
            "checkpoint= requires the shared verdict plane, which is "
            "unavailable here (no POSIX shared memory)"
        )
    if plane is not None and seeds:
        for name, seed_cycle in seeds.items():
            plane.seed(index_by_name[name], seed_cycle)

    start = time.perf_counter()
    merged: Dict[str, int] = {}
    cycles = 0
    partial = False
    chunks_done = 0
    chunks_total = 1
    stats = SimulationStats()
    last_checkpoint = start
    checkpoint_final = False

    def save_checkpoint() -> None:
        """Atomically snapshot the plane to the checkpoint path, stamped."""
        nonlocal last_checkpoint
        if checkpoint is None or plane is None:
            return
        plane.save(checkpoint, fingerprint)
        stats.checkpoints_written += 1
        last_checkpoint = time.perf_counter()

    def emit(final: bool = False) -> None:
        """Snapshot the campaign into one CampaignProgress event, if streaming."""
        if on_progress is None:
            return
        elapsed = time.perf_counter() - start
        if plane is not None:
            detected = plane.detected_count()
        else:
            detected = len({**seeds, **merged})
        eta = None
        if not final and chunks_done:
            # clamped: a retried chunk can push elapsed past the naive
            # extrapolation, and an ETA below zero is just noise
            eta = max(0.0, elapsed * (chunks_total - chunks_done) / chunks_done)
        on_progress(
            CampaignProgress(
                detected=detected,
                total=len(faults),
                chunks_done=chunks_done,
                chunks_total=chunks_total,
                elapsed=elapsed,
                eta=eta,
                final=final,
                partial=partial,
            )
        )

    try:
        if workers == 1:
            # tiny campaigns and debugging skip pool startup entirely (the
            # plane still drives resume seeding, dropping, checkpoints and
            # the final merge; chaos never fires in the parent process)
            emit()
            merged, cycles = _run_chunk(
                design, stimulus, faults, runner, plane, 0, cross_drop, DROP_STRIDE
            )
            chunks_done = 1
            stats.chunks_simulated = 1
        else:
            spec = WorkloadSpec.from_design(design).with_stimulus(stimulus)
            chunks = chunk_fault_sites(faults, word_size, workers * OVERSUBSCRIBE)
            chunks_total = len(chunks)
            states: List[ChunkState] = []
            base = 0
            for index, chunk in enumerate(chunks):
                states.append(ChunkState(index, chunk, base))
                base += len(chunk)
            emit()
            drop = cross_drop and plane is not None
            plane_name = plane.name if plane is not None else None
            ship_plan = chaos_plan if chaos_plan else None

            def make_pool() -> ProcessPoolExecutor:
                """A fresh spawn pool; one is built per supervision generation."""
                return ProcessPoolExecutor(
                    max_workers=workers,
                    mp_context=get_context("spawn"),
                    initializer=_worker_init,
                    initargs=(spec, plane_name),
                )

            def submit(pool: ProcessPoolExecutor, state: ChunkState):
                """Submit one chunk attempt (0-based attempt for the chaos plan)."""
                return pool.submit(
                    _simulate_chunk,
                    state.sites,
                    runner,
                    state.base,
                    drop,
                    DROP_STRIDE,
                    state.index,
                    state.attempts - 1,
                    ship_plan,
                )

            def run_inline(state: ChunkState) -> Tuple[Dict[str, int], int, float]:
                """Quarantine fallback: run the chunk in this process, no chaos."""
                begin = time.perf_counter()
                detections, chunk_cycles = _run_chunk(
                    design,
                    stimulus,
                    _materialize_faults(design, state.sites),
                    _degraded_inline_runner(runner),
                    plane,
                    state.base,
                    cross_drop,
                    DROP_STRIDE,
                )
                return detections, chunk_cycles, time.perf_counter() - begin

            def chunk_proven(state: ChunkState) -> bool:
                """Is every fault of this chunk already flagged on the plane?"""
                if plane is None or not state.sites:
                    return False
                flags = plane.detected_flags(state.base, len(state.sites))
                return len(flags) == len(state.sites) and all(flags)

            chunk_event = [False]
            last_emit = [start]

            def on_complete(
                state: ChunkState, detections: Dict[str, int], chunk_cycles: int
            ) -> None:
                """Merge one resolved chunk into the campaign accumulators."""
                nonlocal cycles, chunks_done
                _merge_chunk_verdicts(merged, detections)
                cycles += chunk_cycles
                chunks_done += 1
                if state.outcome == "skipped":
                    stats.chunks_skipped += 1
                else:
                    stats.chunks_simulated += 1
                chunk_event[0] = True

            def on_tick() -> None:
                """Per-poll cadence: progress events and periodic checkpoints."""
                now = time.perf_counter()
                if chunk_event[0] or now - last_emit[0] >= PROGRESS_INTERVAL:
                    chunk_event[0] = False
                    last_emit[0] = now
                    emit()
                if (
                    checkpoint is not None
                    and plane is not None
                    and now - last_checkpoint >= config.checkpoint_interval
                ):
                    save_checkpoint()

            supervisor = ChunkSupervisor(
                states,
                policy,
                make_pool,
                submit,
                run_inline,
                chunk_proven,
                on_complete,
                on_tick,
                chunk_timeout=config.chunk_timeout,
                degrade=config.degrade,
            )
            supervisor.run()
            stats.chunk_retries = sum(max(0, s.attempts - 1) for s in states)
            stats.chunks_quarantined = sum(1 for s in states if s.quarantined)
            failed = [s for s in states if s.outcome == "failed"]
            stats.chunks_failed = len(failed)
            if failed:
                if not config.salvage:
                    raise SimulationError(
                        f"a worker process died while fault-simulating "
                        f"{design.name!r} (workers={workers}, "
                        f"chunks={chunks_total}): {len(failed)} chunk(s) "
                        f"unfinished after {policy.max_attempts} attempt(s); "
                        f"the campaign was aborted and its partial verdicts "
                        f"discarded"
                    ) from failed[0].error
                # every verdict written before the failures is still in the
                # plane (or in the chunks that completed); salvage them
                partial = True
        wall = time.perf_counter() - start
        if plane is not None:
            detections = plane.named_detections(faults)
        else:
            detections = dict(seeds)
            detections.update(merged)
        save_checkpoint()
        checkpoint_final = True
        emit(final=True)
    finally:
        if checkpoint is not None and plane is not None and not checkpoint_final:
            # the campaign is dying (salvage raise, KeyboardInterrupt...):
            # best-effort final snapshot so a restart can resume
            try:
                save_checkpoint()
            except Exception:  # pragma: no cover - snapshot is best-effort here
                pass
        if owned_plane:
            plane.close()
            plane.unlink()

    coverage = FaultCoverageReport.from_named_detections(
        design.name, faults, detections, simulator=label
    )
    stats.cycles = cycles
    stats.time_total = wall
    return FaultSimResult(label, coverage, wall, stats, partial=partial)


def _run_cached(
    store: ResultCache,
    design: Design,
    stimulus: Stimulus,
    faults: "FaultList",
    config: CampaignConfig,
    resume_from: Optional[Dict[str, int]],
    label: str,
) -> "FaultSimResult":
    """Resolve a campaign against the result cache, then simulate only the delta.

    ``config`` is the campaign's own config with the cache disarmed and the
    runner already concrete.  Cached faults never reach the chunker: the
    campaign re-enters :func:`run_multiprocess` over a *delta* fault list
    that excludes every fault the shard already resolves — both detections
    and proven-undetected entries — so a fully-warm replay builds no chunks
    and spawns no pool at all.  Fresh verdicts are merged back into the
    shard when ``cache_mode`` is ``"readwrite"``; proven-undetected faults
    are only written by complete (non-partial) runs, because a salvaged
    campaign cannot distinguish "undetected" from "never simulated".  The
    reported wall time covers the shard lookup and write as well.
    """
    from repro.core.stats import SimulationStats
    from repro.fault.coverage import FaultCoverageReport
    from repro.fault.faultlist import FaultList
    from repro.fault.model import StuckAtFault
    from repro.fault.result import FaultSimResult

    start = time.perf_counter()
    fingerprint = design_fingerprint(design)
    stim_hash = stimulus_hash(stimulus)
    names = [fault.name for fault in faults]
    if resume_from:
        known = set(names)
        unknown = sorted(name for name in resume_from if name not in known)
        if unknown:
            raise SimulationError(
                f"resume_from names faults not in this campaign: {unknown[:5]}"
            )
    cached = store.lookup(fingerprint, stim_hash, names)
    if len(cached) == len(names):
        # fully warm: every verdict (detected and proven-undetected alike)
        # comes straight from the shard — zero chunks, zero processes
        detections = {name: cycle for name, cycle in cached.items() if cycle is not None}
        stats = SimulationStats()
        stats.cache_hits = len(cached)
        wall = time.perf_counter() - start
        stats.time_total = wall
        if config.on_progress is not None:
            config.on_progress(
                CampaignProgress(
                    detected=len(detections),
                    total=len(names),
                    chunks_done=0,
                    chunks_total=0,
                    elapsed=wall,
                    final=True,
                )
            )
        coverage = FaultCoverageReport.from_named_detections(
            design.name, faults, detections, simulator=label
        )
        return FaultSimResult(label, coverage, wall, stats)
    delta = FaultList(
        [StuckAtFault(f.signal, f.bit, f.value) for f in faults if f.name not in cached]
    )
    seeds = None
    if resume_from:
        delta_names = {fault.name for fault in delta}
        seeds = {name: cycle for name, cycle in resume_from.items() if name in delta_names}
    result = run_multiprocess(
        design, stimulus, delta, config, resume_from=seeds or None, label=label
    )
    stats = result.stats
    stats.cache_hits = len(cached)
    stats.cache_misses = len(delta)
    simulated = result.coverage.detections
    fresh: Dict[str, Optional[int]] = {}
    for fault in delta:
        if fault.name in simulated:
            fresh[fault.name] = simulated[fault.name]
        elif not result.partial:
            fresh[fault.name] = None
    if config.cache_mode == "readwrite" and fresh:
        wrote = store.store(
            fingerprint,
            stim_hash,
            fresh,
            design_name=design.name,
            clock=stimulus.clock,
            cycles=stimulus.num_cycles(),
        )
        if wrote:
            stats.cache_writes = len(fresh)
    merged = {name: cycle for name, cycle in cached.items() if cycle is not None}
    merged.update(simulated)
    coverage = FaultCoverageReport.from_named_detections(
        design.name, faults, merged, simulator=result.coverage.simulator
    )
    wall = time.perf_counter() - start
    stats.time_total = wall
    return FaultSimResult(result.simulator, coverage, wall, stats, partial=result.partial)


__all__ = [
    "CampaignConfig",
    "CampaignProgress",
    "DEFAULT_CHECKPOINT_INTERVAL",
    "DEFAULT_RETRIES",
    "DROP_STRIDE",
    "OVERSUBSCRIBE",
    "PROGRESS_INTERVAL",
    "RUNNER_KINDS",
    "VerdictPlane",
    "WorkloadSpec",
    "chunk_fault_sites",
    "make_campaign_runner",
    "progress_printer",
    "run_multiprocess",
]
