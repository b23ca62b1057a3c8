"""The one place the benchmark calls into ``repro``.

Every workload step goes through a function here, so a change to the
library's entry points (for example folding the campaign calls into one
``run_campaign``) touches this file and nothing else in the benchmark.
Calls go through :mod:`repro.api` re-exports where one exists; the few
helpers it does not re-export are imported from their home modules.

Module attributes are looked up at call time (``api.run_multiprocess``, not
a name bound at import), so the traced mode in :mod:`spans` can wrap them.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List

import repro.api as api
from repro.fault import faultlist
from repro.sim import codegen
from repro.sim.packed import DEFAULT_WORD_WIDTH


def load_design(benchmark: str, cycles: int, seed: int):
    """Parse and elaborate a registry design and build its seeded stimulus."""
    return api.load_benchmark(benchmark, cycles=cycles, seed=seed)


def fault_population(design):
    """Every stuck-at fault of ``design``, in the library's site order."""
    return api.generate_stuck_at_faults(design)


def subset(faults, names: Iterable[str]):
    """A fresh fault list of the faults in ``faults`` whose names are in ``names``."""
    wanted = set(names)
    return faultlist.FaultList(
        [type(f)(f.signal, f.bit, f.value) for f in faults if f.name in wanted]
    )


def packed_lanes(fault_count: int) -> int:
    """Lanes of the one packed kernel a campaign over ``fault_count`` faults loads."""
    return min(DEFAULT_WORD_WIDTH, fault_count) + 1


def load_packed_kernel(design, lanes: int) -> None:
    """Generate (or read back) and compile the packed kernel for ``lanes``."""
    codegen.load_kernel(design, layout=codegen.packed_layout(design, lanes))


def load_vector_kernel(design) -> None:
    """Generate (or read back) and compile the lane-agnostic vector kernel."""
    codegen.load_vector_kernel(design)


def generated_kernels() -> List[str]:
    """The kernel sources in the codegen disk cache: one per kernel generated."""
    root = codegen.cache_dir()
    if not os.path.isdir(root):
        return []
    return sorted(name for name in os.listdir(root) if name.endswith(".py"))


def run_cached_campaign(design, stimulus, faults, cache_root: str):
    """Packed PPSFP through the campaign entry (inline, no pool), against a cache root."""
    return api.run_multiprocess(
        design, stimulus, faults, workers=1, cache=api.ResultCache(cache_root)
    )


def run_vector(design, stimulus, faults):
    """NumPy lane-array PPSFP (``packed-numpy``) without the campaign layer."""
    return api.VectorFaultSimulator(design).run(stimulus, faults)


def run_packed(design, stimulus, faults):
    """Bigint-packed PPSFP without the campaign layer."""
    return api.PackedCodegenSimulator(design).run(stimulus, faults)


def run_eraser(design, stimulus, faults):
    """The interpreted Eraser simulator with both eliminations on."""
    from repro.core.framework import EraserMode, EraserSimulator

    return EraserSimulator(design, mode=EraserMode.FULL).run(stimulus, faults)


def detections(result) -> Dict[str, int]:
    """Fault name -> first detection cycle, for every detected fault."""
    return dict(result.coverage.detections)


def stats(result) -> Dict[str, float]:
    """The run's own counters and timers."""
    return result.stats.as_dict()
