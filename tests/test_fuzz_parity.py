"""Cross-engine differential fuzz suite.

Every simulation engine in the package claims the same semantics; this suite
is the claim's enforcement.  For each corpus benchmark a *randomized* stimulus
(the registry stimulus builders are seeded random-vector generators) drives
the identical sampled fault list through every engine —

* ``event`` / ``codegen`` — serial per-fault re-simulation on the two
  single-machine kernels (the interpreted reference and generated code),
* ``packed`` / ``packed-8`` — the bit-parallel PPSFP campaign at the
  default word width and in words of eight faults,
* ``packed-numpy`` — the vectorized (NumPy array lane) PPSFP campaign
  (skipped transparently when NumPy is not installed),
* ``eraser`` / ``eraser-`` / ``eraser--`` — the interpreted concurrent
  framework in each :class:`~repro.core.framework.EraserMode` (full,
  explicit-only and no elimination; the last executes every live fault),
* ``eraser-codegen`` — the generated concurrent kernel —

and asserts that the *detection dictionaries* (which fault was detected AND
at which cycle) are identical across all of them.  Tier-1 runs two fixed
seeds; the nightly CI leg re-runs the suite with a fresh ``--fuzz-seed``, so
the randomized surface keeps growing without making the tree flaky.

Since the emitter-core refactor the suite is also the *pass-toggle
differential harness*: the same ten-benchmark sweep re-runs the generated
engines (serial codegen / packed / vector) under every interesting
:class:`~repro.sim.emitter.EmitterPasses` configuration — event scheduler
on/off, ``comb_once`` on/off, const pooling on/off, everything off — and
under ``engine="auto"``, so a miscompiled pass shows up as a verdict or
detection-cycle diff, never as a silent perf blip.
"""

import pytest

from repro.baselines.base import SerialFaultSimulator
from repro.core.framework import EraserMode, EraserSimulator
from repro.designs.registry import BENCHMARK_NAMES, get_benchmark
from repro.fault.faultlist import generate_stuck_at_faults, sample_faults
from repro.sim.codegen import CodegenEngine
from repro.sim.emitter import EmitterPasses
from repro.sim.eraser_codegen import EraserCodegenSimulator
from repro.sim.packed import PackedCodegenSimulator
from repro.sim.vector import VectorFaultSimulator
from repro.sim.vector import np as _vector_np

#: The fixed tier-1 seeds (``--fuzz-seed N`` replaces them with ``[N]``).
FIXED_SEEDS = (2025, 90125)

#: Stimulus length per benchmark: long enough for output activity everywhere,
#: short enough that the serial event-driven sweep stays test-suite friendly.
FUZZ_CYCLES = {
    "alu": 40,
    "fpu": 40,
    "sha256_hv": 60,
    "apb": 50,
    "sodor": 50,
    "riscv_mini": 50,
    "picorv32": 60,
    "conv_acc": 50,
    "sha256_c2v": 60,
    "mips": 50,
}

#: Faults sampled per benchmark and seed.
FUZZ_FAULTS = 16


@pytest.fixture(autouse=True)
def _isolated_codegen_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(tmp_path / "codegen-cache"))


def _seeds(request):
    override = request.config.getoption("--fuzz-seed")
    return [override] if override is not None else list(FIXED_SEEDS)


_designs = {}


def _design(name):
    """Compile each benchmark once per session (stimuli vary per seed)."""
    if name not in _designs:
        _designs[name] = get_benchmark(name).compile()
    return _designs[name]


def _engines(design):
    """Every engine, Eraser in every mode: name -> run(stimulus, faults)."""
    engines = {
        "event": SerialFaultSimulator(design, engine="event").run,
        "codegen": SerialFaultSimulator(design, engine="codegen").run,
        "packed": PackedCodegenSimulator(design).run,
        "packed-8": PackedCodegenSimulator(design, width=8).run,
        "eraser": EraserSimulator(design).run,
        "eraser-": EraserSimulator(design, mode=EraserMode.EXPLICIT_ONLY).run,
        "eraser--": EraserSimulator(design, mode=EraserMode.NO_ELIMINATION).run,
        "eraser-codegen": EraserCodegenSimulator(design).run,
    }
    if _vector_np is not None:  # NumPy is the optional "vector" extra
        engines["packed-numpy"] = VectorFaultSimulator(design, width=8).run
    return engines


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_fuzz_parity(name, request):
    design = _design(name)
    spec = get_benchmark(name)
    for seed in _seeds(request):
        stimulus = spec.stimulus(cycles=FUZZ_CYCLES[name], seed=seed)
        faults = sample_faults(
            generate_stuck_at_faults(design), FUZZ_FAULTS, seed=seed
        )
        results = {
            engine: run(stimulus, faults)
            for engine, run in _engines(design).items()
        }
        reference = results["event"].coverage.detections
        for engine, result in results.items():
            detections = result.coverage.detections
            assert detections == reference, (
                f"{name} (seed {seed}): {engine} disagrees with the serial "
                f"event-driven reference — "
                f"{ {k: (reference.get(k), detections.get(k)) for k in set(reference) | set(detections) if reference.get(k) != detections.get(k)} }"
            )


def test_fuzz_seed_option_registered(request):
    """The --fuzz-seed plumbing exists (the nightly leg depends on it)."""
    assert request.config.getoption("--fuzz-seed") in (None,) or isinstance(
        request.config.getoption("--fuzz-seed"), int
    )


# --------------------------------------------------------------------------
# Pass-toggle differential harness
# --------------------------------------------------------------------------

#: Emitter-pass configurations under differential test.  The default config
#: (everything on) is already covered by ``test_fuzz_parity`` above; these are
#: the single-pass ablations plus the everything-off floor.
PASS_CONFIGS = {
    "no-scheduler": EmitterPasses(event_scheduler=False),
    "no-comb-once": EmitterPasses(comb_once=False),
    "no-const-pool": EmitterPasses(const_pool=False),
    "all-off": EmitterPasses(
        event_scheduler=False, comb_once=False, const_pool=False
    ),
}

#: Event-driven reference detections, memoized per (benchmark, seed) so the
#: expensive interpreted runs happen once per pair across every pass config.
_references = {}


def _workload(name, seed):
    spec = get_benchmark(name)
    design = _design(name)
    stimulus = spec.stimulus(cycles=FUZZ_CYCLES[name], seed=seed)
    faults = sample_faults(generate_stuck_at_faults(design), FUZZ_FAULTS, seed=seed)
    return design, stimulus, faults


def _reference(name, seed):
    if (name, seed) not in _references:
        design, stimulus, faults = _workload(name, seed)
        result = SerialFaultSimulator(design, engine="event").run(stimulus, faults)
        _references[(name, seed)] = result.coverage.detections
    return _references[(name, seed)]


class _PassSerial(SerialFaultSimulator):
    """Serial baseline pinned to a codegen kernel with explicit passes."""

    name = "codegen-passes"

    def __init__(self, design, passes, **kwargs):
        super().__init__(design, **kwargs)
        self._passes = passes

    def _make_engine(self, force_hook=None):
        return CodegenEngine(self.design, force_hook=force_hook, passes=self._passes)


def _pass_engines(design, passes):
    """Generated-engine matrix under one pass config, name -> run callable."""
    engines = {
        "codegen": _PassSerial(design, passes).run,
        "packed": PackedCodegenSimulator(design, width=8, passes=passes).run,
    }
    if _vector_np is not None:
        engines["packed-numpy"] = VectorFaultSimulator(
            design, width=8, passes=passes
        ).run
    return engines


@pytest.mark.parametrize("config", sorted(PASS_CONFIGS))
@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_fuzz_pass_toggle_parity(name, config, request):
    """Every pass-ablated kernel matches the event-driven reference exactly."""
    design = _design(name)
    passes = PASS_CONFIGS[config]
    for seed in _seeds(request):
        _, stimulus, faults = _workload(name, seed)
        reference = _reference(name, seed)
        for engine, run in _pass_engines(design, passes).items():
            detections = run(stimulus, faults).coverage.detections
            assert detections == reference, (
                f"{name} (seed {seed}, passes {config}): {engine} disagrees "
                f"with the serial event-driven reference — "
                f"{ {k: (reference.get(k), detections.get(k)) for k in set(reference) | set(detections) if reference.get(k) != detections.get(k)} }"
            )


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_fuzz_auto_engine_parity(name, request):
    """``engine="auto"`` is verdict- and cycle-exact at both policy seams.

    The serial seam (``SerialFaultSimulator(engine="auto")``) resolves to a
    single-machine kernel; the campaign seam (``run_multiprocess`` with an
    ``("auto", {})`` runner) resolves the lane substrate.
    """
    from repro.sim.parallel import run_multiprocess

    design = _design(name)
    for seed in _seeds(request):
        _, stimulus, faults = _workload(name, seed)
        reference = _reference(name, seed)
        serial = SerialFaultSimulator(design, engine="auto").run(stimulus, faults)
        assert serial.coverage.detections == reference, (
            f"{name} (seed {seed}): serial engine='auto' disagrees with the "
            f"event-driven reference"
        )
        campaign = run_multiprocess(
            design, stimulus, faults, workers=1, width=8, runner=("auto", {})
        )
        assert campaign.coverage.detections == reference, (
            f"{name} (seed {seed}): campaign engine='auto' disagrees with "
            f"the event-driven reference"
        )
