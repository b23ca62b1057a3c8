"""Span tracing for the benchmark's traced run (``--trace 1``).

The traced worker wraps the public entry points of each ``repro`` layer
listed in :data:`WRAPPED`, and nothing else, with a recorder that keeps one
span per call: name, start, end and the index of the span that was open when
the call began.  Spans stay in memory while the workload runs and are written
out as JSON lines when it ends.  A layer's self time is the duration of its
spans minus the part their child spans cover, so time spent in a nested
layer is counted once, where it is spent.

``repro`` itself carries no tracing: the wrapping is done from here, and only
in the traced run.  A function that its caller reaches through a module
global is wrapped in the calling module (``repro.api.parse_source``,
``repro.core.framework.execute_behavioral``).
"""

from __future__ import annotations

import functools
import importlib
import json
from time import perf_counter
from typing import Dict, List, Tuple

#: (module, class or "" for a module-level function, attribute, span name).
WRAPPED: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.api", "", "parse_source", "hdl.parse"),
    ("repro.hdl.elaborator", "Elaborator", "elaborate", "hdl.elaborate"),
    ("repro.designs.registry", "BenchmarkSpec", "stimulus", "designs.stimulus"),
    ("repro.api", "", "generate_stuck_at_faults", "fault.generate"),
    ("repro.sim.codegen", "", "generate_packed_source", "emitter.generate"),
    ("repro.sim.codegen", "", "generate_vector_source", "emitter.generate"),
    ("repro.sim.codegen", "", "load_kernel_variant", "emitter.load"),
    ("repro.sim.kernel", "CycleDriver", "step", "kernel.step"),
    ("repro.sim.packed", "PackedCodegenEngine", "__init__", "packed.engine_init"),
    ("repro.sim.packed", "PackedCodegenEngine", "apply_input", "packed.apply_input"),
    ("repro.sim.packed", "PackedCodegenEngine", "settle", "packed.settle"),
    ("repro.sim.vector", "VectorCodegenEngine", "__init__", "vector.engine_init"),
    ("repro.sim.vector", "VectorCodegenEngine", "apply_input", "vector.apply_input"),
    ("repro.sim.vector", "VectorCodegenEngine", "settle", "vector.settle"),
    ("repro.sim.vector", "VectorCodegenEngine", "compact", "vector.compact"),
    ("repro.fault.detection", "ObservationManager", "observe_packed", "fault.observe"),
    ("repro.fault.detection", "ObservationManager", "observe_vector", "fault.observe"),
    ("repro.fault.detection", "ObservationManager", "observe_concurrent", "fault.observe"),
    ("repro.core.framework", "EraserSimulator", "settle", "eraser.settle"),
    ("repro.core.framework", "", "is_explicitly_redundant", "eraser.explicit_check"),
    (
        "repro.core.redundancy",
        "ImplicitRedundancyChecker",
        "is_redundant",
        "eraser.implicit_check",
    ),
    ("repro.core.framework", "", "execute_behavioral", "eraser.exec"),
    ("repro.api", "", "run_multiprocess", "campaign.run"),
    ("repro.sim.result_cache", "ResultCache", "lookup", "result_cache.lookup"),
    ("repro.sim.result_cache", "ResultCache", "store", "result_cache.store"),
)


class Tracer:
    """In-memory span recorder over the :data:`WRAPPED` entry points."""

    def __init__(self) -> None:
        """Start with no spans and nothing wrapped."""
        #: ``[name, start, end, parent index or -1]`` per call, in call order.
        self.spans: List[list] = []
        #: Characters of kernel source the emitter generated.
        self.source_chars = 0
        self._open: List[int] = []
        self._originals: List[Tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap every :data:`WRAPPED` entry point, importing its module."""
        for module_name, class_name, attr, span in WRAPPED:
            owner = importlib.import_module(module_name)
            if class_name:
                owner = getattr(owner, class_name)
            original = vars(owner)[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, span))

    def uninstall(self) -> None:
        """Put every wrapped entry point back."""
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def _wrap(self, original, name: str):
        """``original`` recording one span per call under ``name``."""
        spans, open_spans = self.spans, self._open
        is_emitter = name == "emitter.generate"

        @functools.wraps(original)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, open_spans[-1] if open_spans else -1]
            open_spans.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                open_spans.pop()
            if is_emitter:
                self.source_chars += len(result)
            return result

        return traced

    def self_times(self) -> Dict[str, Tuple[float, int]]:
        """Per span name: total self seconds and number of calls."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: Dict[str, Tuple[float, int]] = {}
        for index, (name, start, end, _) in enumerate(self.spans):
            seconds, calls = totals.get(name, (0.0, 0))
            totals[name] = (seconds + end - start - covered[index], calls + 1)
        return totals

    def write(self, path: str) -> None:
        """One JSON line per span: name, start and end (s from the first span), parent."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent in self.spans:
                handle.write(
                    f"[{json.dumps(name)}, {start - origin:.7f}, "
                    f"{end - origin:.7f}, {parent}]\n"
                )


def layer_metrics(
    tracer: Tracer,
    stats: Dict[str, float],
    detected: int,
    traced_s: float,
    untraced_s: float,
) -> Dict[str, Tuple[float, str]]:
    """The per-layer metrics of one traced run: name -> (value, unit).

    Seconds are self time summed over the traced set-up and the traced
    campaign; counts of calls come from the spans, and the Eraser and cache
    counters from the campaign's own ``stats``.  ``traced_s`` and
    ``untraced_s`` are the same campaign's wall time with and without the
    wrappers, so their difference is the tracing overhead.
    """
    times = tracer.self_times()

    def seconds(span: str) -> Tuple[float, str]:
        return times.get(span, (0.0, 0))[0], "s"

    def calls(span: str) -> Tuple[float, str]:
        return times.get(span, (0.0, 0))[1], "count"

    def count(key: str) -> Tuple[float, str]:
        return stats[key], "count"

    def ratio(part: float, whole: float) -> Tuple[float, str]:
        return (part / whole if whole else 0.0), "ratio"

    eliminated = stats["bn_explicit_eliminations"] + stats["bn_implicit_eliminations"]
    looked_up = stats["cache_hits"] + stats["cache_misses"]
    return {
        "hdl.parse_s": seconds("hdl.parse"),
        "hdl.elaborate_s": seconds("hdl.elaborate"),
        "designs.stimulus_s": seconds("designs.stimulus"),
        "fault.generate_s": seconds("fault.generate"),
        "emitter.generate_s": seconds("emitter.generate"),
        "emitter.load_s": seconds("emitter.load"),
        "emitter.source_kb": (tracer.source_chars / 1024.0, "kB"),
        "emitter.kernels": calls("emitter.generate"),
        "kernel.cycles": calls("kernel.step"),
        "kernel.step_s": seconds("kernel.step"),
        "packed.words": calls("packed.engine_init"),
        "packed.engine_init_s": seconds("packed.engine_init"),
        "packed.settle_s": seconds("packed.settle"),
        "packed.apply_input_s": seconds("packed.apply_input"),
        "vector.words": calls("vector.engine_init"),
        "vector.engine_init_s": seconds("vector.engine_init"),
        "vector.settle_s": seconds("vector.settle"),
        "vector.apply_input_s": seconds("vector.apply_input"),
        "vector.compacts": calls("vector.compact"),
        "vector.compact_s": seconds("vector.compact"),
        "fault.observe_s": seconds("fault.observe"),
        "fault.detected": (detected, "count"),
        "eraser.bn_potential": count("bn_potential_executions"),
        "eraser.bn_explicit_elim": count("bn_explicit_eliminations"),
        "eraser.bn_implicit_elim": count("bn_implicit_eliminations"),
        "eraser.bn_fault_exec": count("bn_fault_executions"),
        "eraser.elimination_ratio": ratio(eliminated, stats["bn_potential_executions"]),
        "eraser.settle_s": seconds("eraser.settle"),
        "eraser.explicit_check_s": seconds("eraser.explicit_check"),
        "eraser.implicit_check_s": seconds("eraser.implicit_check"),
        "eraser.exec_s": seconds("eraser.exec"),
        "eraser.behavioral_s": (stats["time_behavioral"], "s"),
        "eraser.behavioral_share": ratio(stats["time_behavioral"], stats["time_total"]),
        "result_cache.hits": count("cache_hits"),
        "result_cache.misses": count("cache_misses"),
        "result_cache.writes": count("cache_writes"),
        "result_cache.hit_ratio": ratio(stats["cache_hits"], looked_up),
        "result_cache.lookup_s": seconds("result_cache.lookup"),
        "result_cache.store_s": seconds("result_cache.store"),
        "campaign.run_s": seconds("campaign.run"),
        "campaign.chunks_simulated": count("chunks_simulated"),
        "trace.campaign_s": (traced_s, "s"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
        "trace.spans": (len(tracer.spans), "count"),
    }
