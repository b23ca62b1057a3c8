"""The benchmark's three workloads: what each one runs, and why.

Each workload is one fault campaign on one corpus design, run in one process
on one thread.  ``seed`` drives the inputs: the random message words of the
SHA-256 stimuli, the fault samples (drawn by :func:`stratified`), and which
half of ``pico_delta``'s faults the result cache starts with.  The same seed
gives the same inputs.

``pico_delta``
    picorv32, 500 cycles, 1,024 sampled faults, packed bigint PPSFP through
    the campaign entry (``run_multiprocess(workers=1)``).  The result cache
    is seeded, outside every timing, with the verdicts of a seeded half of
    the faults, so the campaign reads one half from the cache and simulates
    and writes the other.  A mostly idle CPU exercises the packed kernel,
    its event scheduler and the campaign and cache path; a cache-key
    regression would double ``campaign_s`` here.  NumPy lanes and the Eraser
    framework are bypassed.
``c2v_vector``
    sha256_c2v, 150 cycles, 1,024 sampled faults (one vector word) on the
    NumPy lane backend (``packed-numpy``), no cache.  The largest generated kernel and a dense
    datapath stress the NumPy runtime and the emitter; bigint packing, the
    result cache and the interpreter are bypassed.
``hv_eraser``
    sha256_hv, 150 cycles, 250 sampled faults on the interpreted
    ``EraserSimulator`` with both eliminations: the paper's algorithm on a
    behavioral-dominated design.  It generates no kernel, so emitter changes
    must not move it.

Every campaign repetition's verdicts (each detected fault and its detection
cycle) must agree with an independent engine on a seeded sample of the
faults and, at :data:`DEFAULT_SEED`, hash to the digest in :data:`PINNED`.

Each repetition is kept short (about half a second on an idle 2.1 GHz Xeon
core) so that a run holds dozens of them: ``run.py`` reports the fastest,
and the more repetitions a run holds, the surer one of them falls in a
stretch when the shared host left the core alone.
"""

from __future__ import annotations

import hashlib
import os
import random
import shutil
from typing import Dict, List, Optional, Tuple

import adapter

#: The seed the harness profiles use; the pinned digests are for it.
DEFAULT_SEED = 2025

#: Faults an independent engine re-simulates to cross-check every run.
ORACLE_SAMPLE = 64

#: Verdict digests at :data:`DEFAULT_SEED`, as :func:`digest` gives them.
PINNED: Dict[str, Tuple[int, str]] = {
    "pico_delta": (604, "4d505b74d7489a69"),
    "c2v_vector": (924, "294bbc682057b69a"),
    "hv_eraser": (194, "9f9fead3a75cf85b"),
}


def stratified(names: List[str], count: int, seed: int) -> List[str]:
    """``count`` of ``names``: one seeded draw from each of ``count`` equal runs.

    Neighbouring faults in site order (same signal, adjacent bits) cost about
    the same to simulate, so one draw per run keeps a sample's cost close to
    the population's whatever the seed.  A plain random sample of a few
    hundred faults can move an Eraser campaign's time by a quarter.
    """
    rng = random.Random(seed)
    bounds = [len(names) * index // count for index in range(count + 1)]
    return [names[rng.randrange(low, high)] for low, high in zip(bounds, bounds[1:])]


def digest(detections: Dict[str, int]) -> Tuple[int, str]:
    """Detected count and a hash of the sorted (fault, detection cycle) pairs."""
    hasher = hashlib.sha256()
    for name in sorted(detections):
        hasher.update(f"{name}={detections[name]};".encode("utf-8"))
    return len(detections), hasher.hexdigest()[:16]


class Workload:
    """One campaign: set-up, untimed preparation, the timed run, a cross-check."""

    name = ""
    benchmark = ""
    cycles = 0
    #: Faults drawn from the population by :func:`stratified`; ``None``
    #: takes all of them.
    fault_count: Optional[int] = None
    def __init__(self, seed: int) -> None:
        """Bind the workload to ``seed``; nothing is built yet."""
        self.seed = seed
        self.design = self.stimulus = self.faults = None

    def setup(self) -> None:
        """What a user pays once per design before the first fault is simulated."""
        self.design, self.stimulus = adapter.load_design(
            self.benchmark, self.cycles, self.seed
        )
        self.faults = adapter.fault_population(self.design)
        if self.fault_count is not None:
            names = [fault.name for fault in self.faults]
            self.faults = adapter.subset(
                self.faults, stratified(names, self.fault_count, self.seed)
            )
        self.load_kernels()

    def load_kernels(self) -> None:
        """Generate and compile every kernel the campaign uses (none here)."""

    def prepare(self, workdir: str) -> None:
        """Untimed work done once before the repetitions (none here)."""

    def fresh_state(self, rep_dir: str):
        """Untimed per-repetition state handed to :meth:`campaign` (none here)."""
        return None

    def campaign(self, state):
        """The timed fault campaign; returns the simulator's result."""
        raise NotImplementedError

    def reference(self, faults):
        """An independent engine's result on ``faults``."""
        raise NotImplementedError

    def oracle(self) -> Dict[str, Optional[int]]:
        """Detection cycle (``None``: undetected) of each sampled fault, per :meth:`reference`."""
        names = sorted(fault.name for fault in self.faults)
        sample = random.Random(self.seed + 1).sample(names, min(ORACLE_SAMPLE, len(names)))
        found = adapter.detections(self.reference(adapter.subset(self.faults, sample)))
        return {name: found.get(name) for name in sample}

    def expected(self) -> Optional[Tuple[int, str]]:
        """The pinned verdict digest, where it applies at this seed."""
        if self.seed != DEFAULT_SEED:
            return None
        return PINNED[self.name]


class PicoDelta(Workload):
    """Packed campaign against a result cache holding half of the verdicts."""

    name = "pico_delta"
    benchmark = "picorv32"
    cycles = 500
    fault_count = 1024

    def load_kernels(self) -> None:
        """The packed kernel sized for the half the campaign simulates."""
        simulated = len(self.faults) - len(self.faults) // 2
        adapter.load_packed_kernel(self.design, adapter.packed_lanes(simulated))

    def prepare(self, workdir: str) -> None:
        """Simulate a seeded half of the faults into a seed cache."""
        names = [fault.name for fault in self.faults]
        cached = stratified(names, len(names) // 2, self.seed)
        self.seeded_cache = os.path.join(workdir, "seeded-cache")
        adapter.run_cached_campaign(
            self.design, self.stimulus, adapter.subset(self.faults, cached), self.seeded_cache
        )

    def fresh_state(self, rep_dir: str) -> str:
        """A private copy of the seed cache, so every repetition writes the same half."""
        shutil.copytree(self.seeded_cache, rep_dir)
        return rep_dir

    def campaign(self, cache_root: str):
        """The full fault list through the campaign entry and the cache."""
        return adapter.run_cached_campaign(self.design, self.stimulus, self.faults, cache_root)

    def reference(self, faults):
        """The interpreted Eraser framework: another algorithm altogether."""
        return adapter.run_eraser(self.design, self.stimulus, faults)


class C2vVector(Workload):
    """NumPy-lane campaign on the generator-style SHA-256 core."""

    name = "c2v_vector"
    benchmark = "sha256_c2v"
    cycles = 150
    fault_count = 1024

    def load_kernels(self) -> None:
        """The lane-agnostic vector kernel."""
        adapter.load_vector_kernel(self.design)

    def campaign(self, state):
        """Every sampled fault on NumPy lanes."""
        return adapter.run_vector(self.design, self.stimulus, self.faults)

    def reference(self, faults):
        """Bigint-packed lanes: the same semantics on another backend."""
        return adapter.run_packed(self.design, self.stimulus, faults)


class HvEraser(Workload):
    """The interpreted Eraser framework on the hand-written SHA-256 core."""

    name = "hv_eraser"
    benchmark = "sha256_hv"
    cycles = 150
    fault_count = 250

    def campaign(self, state):
        """Every sampled fault in one concurrent Eraser pass."""
        return adapter.run_eraser(self.design, self.stimulus, self.faults)

    def reference(self, faults):
        """Bigint-packed PPSFP: a generated kernel instead of the interpreter."""
        return adapter.run_packed(self.design, self.stimulus, faults)


WORKLOADS = {cls.name: cls for cls in (PicoDelta, C2vVector, HvEraser)}
