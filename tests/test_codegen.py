"""Tests for the code-generating kernel: parity, caching, selection seams.

The strongest check is the full-corpus sweep: every one of the ten benchmark
designs must produce cycle-exact identical output traces on the event-driven
engine and on each generated good-machine kernel (serial codegen and the
packed-bigint and NumPy lane kernels).  The cache tests pin the on-disk round-trip
(second construction loads the generated source from disk and still matches),
and the seam tests cover the ``engine=`` selector in the API, the registry,
the serial baselines and the sharded runner.
"""

import gc
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from fixture_designs import COUNTER_SRC, MUX_PIPELINE_SRC
from repro.api import ENGINE_SPECS, compile_design, make_engine, simulate_good
from repro.baselines.ifsim import IFsimSimulator
from repro.baselines.vfsim import VFsimSimulator
from repro.designs.registry import BENCHMARK_NAMES, get_benchmark
from repro.errors import SimulationError
from repro.fault.faultlist import generate_stuck_at_faults, sample_faults
from repro.sim.codegen import CodegenEngine, design_fingerprint, generate_source
from repro.sim.engine import EventDrivenEngine
from repro.sim.kernel import SimulationKernel
from repro.sim.stimulus import RandomStimulus, VectorStimulus

#: Cycles per benchmark for the corpus sweep — enough for every design to
#: produce observable output activity while keeping the sweep fast.
PARITY_CYCLES = 60


@pytest.fixture(autouse=True)
def _isolated_codegen_cache(tmp_path, monkeypatch):
    """Keep every test away from the developer's real ~/.cache/repro-codegen."""
    monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(tmp_path / "codegen-cache"))

_workloads = {}


def _workload(name):
    """Compile each benchmark once per test session (with its event trace)."""
    if name not in _workloads:
        spec = get_benchmark(name)
        design = spec.compile()
        stimulus = spec.stimulus(cycles=PARITY_CYCLES)
        reference = EventDrivenEngine(design).run(stimulus)
        _workloads[name] = (design, stimulus, reference)
    return _workloads[name]


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
@pytest.mark.parametrize("engine", ["codegen", "packed", "packed-numpy"])
def test_engine_parity_on_corpus(name, engine):
    """All ten corpus benchmarks x the generated kernels: the event-driven trace."""
    if engine == "packed-numpy":
        pytest.importorskip("numpy")
    design, stimulus, reference = _workload(name)
    if engine == "codegen":
        trace = CodegenEngine(design, use_cache=False).run(stimulus)
    else:
        trace = make_engine(design, engine).run(stimulus)
    assert trace == reference, (
        f"{engine} diverges from event-driven on {name} "
        f"at cycle {trace.first_difference(reference)}"
    )


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_codegen_faulty_machine_parity(name):
    """The branch-on-mask forcing guard reproduces event-driven faulty traces
    on the whole corpus: VFsim re-runs every fault on this kernel."""
    design, stimulus, _ = _workload(name)
    faults = sample_faults(generate_stuck_at_faults(design), 6, seed=23)
    for fault in faults:

        def hook(signal, value, fault=fault):
            return fault.force(value) if signal is fault.signal else value

        event = EventDrivenEngine(design, force_hook=hook).run(stimulus)
        codegen = CodegenEngine(design, force_hook=hook, use_cache=False).run(stimulus)
        assert event == codegen, fault.name


def test_finished_engines_are_freed_without_the_cycle_collector(monkeypatch):
    """No reference cycle keeps a finished per-fault engine (and its state) alive."""
    design, stimulus, _ = _workload("apb")
    faults = sample_faults(generate_stuck_at_faults(design), 4, seed=23)
    engines = []
    build = VFsimSimulator._make_engine

    def recorded(simulator, force_hook=None):
        engine = build(simulator, force_hook)
        assert isinstance(engine, CodegenEngine)
        engines.append(weakref.ref(engine))
        return engine

    monkeypatch.setattr(VFsimSimulator, "_make_engine", recorded)
    gc.disable()
    try:
        VFsimSimulator(design).run(stimulus, faults)
        # the golden run plus one engine per fault
        assert len(engines) == 5
        assert [engine() for engine in engines] == [None] * 5
    finally:
        gc.enable()


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_codegen_equivalent_on_random_stimuli(seed):
    design = compile_design(MUX_PIPELINE_SRC, top="mux_pipeline")
    stim = RandomStimulus(
        {"sel": 1, "a": 8, "b": 8, "c": 8},
        cycles=15,
        clock="clk",
        per_cycle=lambda c, v: dict(v, rst=1 if c < 1 else 0),
        seed=seed,
    )
    assert (
        EventDrivenEngine(design).run(stim)
        == CodegenEngine(design, use_cache=False).run(stim)
    )


# ------------------------------------------------------------------- the cache
def test_cache_round_trip(tmp_path, monkeypatch, counter_design, counter_stimulus):
    """Second construction hits the disk cache and still matches."""
    monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(tmp_path))
    first = CodegenEngine(counter_design)
    assert not first.cache_hit
    fingerprint = design_fingerprint(counter_design)
    cached = tmp_path / f"{fingerprint}.py"
    assert cached.exists()
    assert cached.read_text() == first.source

    second = CodegenEngine(counter_design)
    assert second.cache_hit
    assert second.source == first.source
    assert first.run(counter_stimulus) == second.run(counter_stimulus)


def test_cache_key_tracks_design_content(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(tmp_path))
    base = compile_design(COUNTER_SRC, top="counter")
    variant_src = COUNTER_SRC.replace("count + 1", "count + 2")
    variant = compile_design(variant_src, top="counter")
    assert design_fingerprint(base) != design_fingerprint(variant)
    CodegenEngine(base)
    CodegenEngine(variant)
    assert len(list(tmp_path.glob("*.py"))) == 2


def test_cache_disabled_writes_nothing(tmp_path, monkeypatch, counter_design):
    monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(tmp_path))
    engine = CodegenEngine(counter_design, use_cache=False)
    assert not engine.cache_hit
    assert list(tmp_path.glob("*.py")) == []


def test_corrupt_cache_entry_regenerates(tmp_path, monkeypatch, counter_design,
                                         counter_stimulus):
    """A truncated/hand-edited cache file degrades to fresh generation."""
    monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(tmp_path))
    good = CodegenEngine(counter_design)
    path = tmp_path / f"{design_fingerprint(counter_design)}.py"
    path.write_text("def comb_pass(:  # truncated mid-write\n")
    recovered = CodegenEngine(counter_design)
    assert not recovered.cache_hit
    assert recovered.run(counter_stimulus) == good.run(counter_stimulus)


def test_generated_source_is_deterministic(counter_design):
    assert generate_source(counter_design) == generate_source(counter_design)


# --------------------------------------------------------- bytecode sidecar
def test_bytecode_sidecar_written_alongside_source(tmp_path, monkeypatch,
                                                   counter_design):
    monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(tmp_path))
    CodegenEngine(counter_design)
    assert len(list(tmp_path.glob("*.py"))) == 1
    assert len(list(tmp_path.glob("*.bc"))) == 1


def test_bytecode_sidecar_round_trip(tmp_path, monkeypatch, counter_design,
                                     counter_stimulus):
    """A later process loads the marshalled code instead of compiling."""
    from repro.sim import codegen as codegen_mod

    monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(tmp_path))
    first = CodegenEngine(counter_design)
    codegen_mod._CODE_MEMO.clear()  # simulate a fresh process

    def fail_compile(*args, **kwargs):  # pragma: no cover - must not be hit
        raise AssertionError("sidecar hit expected; compile() was called")

    monkeypatch.setattr(codegen_mod, "compile", fail_compile, raising=False)
    second = CodegenEngine(counter_design)
    monkeypatch.undo()
    assert second.cache_hit
    assert first.run(counter_stimulus) == second.run(counter_stimulus)


def test_corrupt_bytecode_sidecar_recompiles(tmp_path, monkeypatch,
                                             counter_design, counter_stimulus):
    """A truncated sidecar silently falls back to compiling the source."""
    from repro.sim import codegen as codegen_mod

    monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(tmp_path))
    good = CodegenEngine(counter_design)
    sidecar = next(tmp_path.glob("*.bc"))
    sidecar.write_bytes(b"\x00garbage")
    codegen_mod._CODE_MEMO.clear()
    recovered = CodegenEngine(counter_design)
    assert recovered.cache_hit  # the source cache is still fine
    assert recovered.run(counter_stimulus) == good.run(counter_stimulus)
    # the sidecar was regenerated and is loadable again
    codegen_mod._CODE_MEMO.clear()
    CodegenEngine(counter_design)


def test_stale_bytecode_sidecar_ignored(tmp_path, monkeypatch, counter_design):
    """A sidecar whose digest does not match the source is not trusted."""
    import marshal

    from repro.sim import codegen as codegen_mod

    monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(tmp_path))
    CodegenEngine(counter_design)
    sidecar = next(tmp_path.glob("*.bc"))
    poison = compile("comb_pass = fire_clocked = lambda *a: False", "<p>", "exec")
    sidecar.write_bytes(marshal.dumps(("0" * 64, poison)))
    codegen_mod._CODE_MEMO.clear()
    engine = CodegenEngine(counter_design)
    # the poisoned code was rejected: a real kernel was compiled and runs
    assert engine.peek("count") == 0


# ------------------------------------------------------------- selection seams
def test_make_engine_selector(counter_design, counter_stimulus):
    traces = {
        name: simulate_good(counter_design, counter_stimulus, engine=name)
        for name in ENGINE_SPECS
    }
    reference = traces["event"]
    assert all(trace == reference for trace in traces.values())


def test_make_engine_rejects_unknown_name(counter_design):
    with pytest.raises(SimulationError, match="unknown engine"):
        make_engine(counter_design, "verilator")


def test_codegen_satisfies_kernel_protocol(counter_design):
    assert isinstance(CodegenEngine(counter_design, use_cache=False), SimulationKernel)


def test_registry_spec_engine_selector(counter_design):
    spec = get_benchmark("alu")
    assert spec.default_engine == "codegen"
    assert isinstance(spec.make_engine(counter_design), CodegenEngine)
    event = spec.make_engine(counter_design, engine="event")
    assert isinstance(event, EventDrivenEngine)


def test_serial_baseline_engine_override():
    """``engine=`` swaps a serial baseline's kernel and keeps its verdicts."""
    design, stimulus, _ = _workload("apb")
    faults = sample_faults(generate_stuck_at_faults(design), 15, seed=7)
    ifsim_on_codegen = IFsimSimulator(design, engine="codegen")
    vfsim_on_event = VFsimSimulator(design, engine="event")
    assert isinstance(ifsim_on_codegen._make_engine(), CodegenEngine)
    assert isinstance(vfsim_on_event._make_engine(), EventDrivenEngine)
    reference = IFsimSimulator(design).run(stimulus, faults)
    for swapped in (ifsim_on_codegen, vfsim_on_event):
        assert swapped.run(stimulus, faults).coverage.same_verdicts(reference.coverage)


# ----------------------------------------------------------------- debug seams
def test_codegen_peek_and_memory(memory_design, memory_stimulus):
    engine = CodegenEngine(memory_design, use_cache=False)
    event = EventDrivenEngine(memory_design)
    assert engine.run(memory_stimulus) == event.run(memory_stimulus)
    assert engine.peek("rdata") == event.peek("rdata")
    for word in range(8):
        assert engine.peek_word("mem", word) == event.peek_word("mem", word)


def test_codegen_force_hook_on_fixture(counter_design):
    count = counter_design.signal("count")

    def hook(signal, value):
        return value | 1 if signal is count else value

    base = {"rst": 0, "en": 1, "load": 0, "din": 0}
    vectors = [dict(base, rst=1)] + [dict(base) for _ in range(3)]
    stim = VectorStimulus(vectors, clock="clk")
    trace = CodegenEngine(counter_design, force_hook=hook, use_cache=False).run(stim)
    assert all(cycle[0] & 1 for cycle in trace.cycles)
    assert trace == EventDrivenEngine(counter_design, force_hook=hook).run(stim)
