"""Tests for the bit-parallel (PPSFP) packed codegen engine.

The strongest check is the full-corpus parity sweep: on every one of the ten
benchmark designs, the packed simulator's per-fault detection verdicts *and*
detection cycles must exactly match the serial codegen baseline, across word
widths that exercise the degenerate single-fault case (1), partial last words
(the fault list does not divide the width evenly) and the default width
(``DEFAULT_WORD_WIDTH``).  Retiring detected lanes is checked three times:
its word-level invariants, verdict parity on the memory- and shift-heavy CPUs
with a retirement firing mid-word, and one full default-width word against
8-fault words.  The remaining tests pin the engine seams:
the ``"packed"`` entry in the engine registry, good-machine trace parity, the
lane layout and word-level observation, packed cache keying, word-aligned
sharding, and that a finished word's engine is freed without the cyclic
garbage collector.
"""

import gc
import weakref

import pytest

from fixture_designs import COUNTER_SRC, MEMORY_SRC
from repro.api import ENGINE_SPECS, compile_design, make_engine, simulate_good
from repro.baselines.base import SerialFaultSimulator
from repro.designs.registry import BENCHMARK_NAMES, get_benchmark
from repro.errors import SimulationError
from repro.fault.detection import ObservationManager
from repro.fault.faultlist import generate_stuck_at_faults, sample_faults
from repro.sim.codegen import (
    CodegenEngine,
    PackedLayout,
    design_fingerprint,
    generate_packed_source,
    packed_layout,
    packed_stride,
)
from repro.sim.engine import EventDrivenEngine
from repro.sim.kernel import CycleDriver, SimulationKernel
from repro.sim.packed import (
    DEFAULT_WORD_WIDTH,
    PackedCodegenEngine,
    PackedCodegenSimulator,
    pack_fault_words,
)

#: Cycles per benchmark for the corpus sweep; enough for observable activity.
PARITY_CYCLES = 40

#: Deliberately does not divide 8 evenly (partial last words).
PARITY_FAULTS = 10

#: Word widths: degenerate serial shape, partial words, the default word.
WIDTHS = [1, 8, DEFAULT_WORD_WIDTH]


@pytest.fixture(autouse=True)
def _isolated_codegen_cache(tmp_path, monkeypatch):
    """Keep every test away from the developer's real ~/.cache/repro-codegen."""
    monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(tmp_path / "codegen-cache"))


_workloads = {}


def _workload(name):
    """Compile each benchmark once per session, with its serial reference."""
    if name not in _workloads:
        spec = get_benchmark(name)
        design = spec.compile()
        stimulus = spec.stimulus(cycles=PARITY_CYCLES)
        faults = sample_faults(
            generate_stuck_at_faults(design), PARITY_FAULTS, seed=7
        )
        reference = SerialFaultSimulator(design, engine="codegen").run(
            stimulus, faults
        )
        _workloads[name] = (design, stimulus, faults, reference)
    return _workloads[name]


# ------------------------------------------------------------ the parity sweep
@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_packed_matches_serial_codegen_on_corpus(name, width):
    """Verdicts AND detection cycles must be exact on all ten benchmarks."""
    design, stimulus, faults, reference = _workload(name)
    packed = PackedCodegenSimulator(design, width=width).run(stimulus, faults)
    assert packed.coverage.same_verdicts(reference.coverage), (
        f"{name} w={width}: verdicts disagree on "
        f"{packed.coverage.disagreements(reference.coverage)}"
    )
    assert packed.coverage.detections == reference.coverage.detections, (
        f"{name} w={width}: detection cycles differ"
    )


@pytest.mark.parametrize("name", ["alu", "riscv_mini", "sha256_c2v"])
def test_packed_without_early_exit_matches(name):
    """Lane dropping (early exit) must not change any verdict or cycle."""
    design, stimulus, faults, reference = _workload(name)
    packed = PackedCodegenSimulator(design, width=8, early_exit=False).run(
        stimulus, faults
    )
    assert packed.coverage.detections == reference.coverage.detections


# ------------------------------------------------------------ lane retirement
def _fields(layout, word):
    return [layout.lane_value(word, lane) for lane in range(layout.lanes)]


def _state_words(engine):
    """Every value, memory and edge word of ``engine``, in a fixed order."""
    memories = [word for words in engine.M if words is not None for word in words]
    return list(engine.V) + memories + list(engine.EP)


def test_retire_copies_the_good_lane_and_clears_forcing():
    """Retired lanes become lane 0 everywhere; the other lanes are untouched."""
    design, stimulus, faults, _ = _workload("picorv32")
    word = list(faults)
    engine = PackedCodegenEngine(design, faults=word)
    twin = PackedCodegenEngine(design, faults=word)
    for kernel in (engine, twin):
        kernel.initialize()
        driver = CycleDriver(kernel, stimulus)
        for cycle in range(20):
            driver.step(cycle)
    layout = engine.layout
    retired = [1, 3, 4, 7]
    before = _state_words(engine)
    versions = list(engine.VER)
    engine.retire(retired)
    after = _state_words(engine)
    assert before != after, "no retired lane differed from the good lane"
    for old, new in zip(before, after):
        old_fields, new_fields = _fields(layout, old), _fields(layout, new)
        for lane in range(layout.lanes):
            expected = new_fields[0] if lane in retired else old_fields[lane]
            assert new_fields[lane] == expected
    # a value word that changed carries a fresh stamp; the rest keep theirs
    for sid, (old, new) in enumerate(zip(versions, engine.VER)):
        if engine.M[sid] is None and before[sid] != after[sid]:
            assert new > old
        elif engine.M[sid] is None:
            assert new == old
    ones = layout.lane_ones
    for signal in design.signals:
        sid = signal.sid
        if signal.is_memory:
            assert engine.FB[sid] == 0
            continue
        for lane in retired:
            assert layout.lane_value(engine.FO[sid], lane) == 0
            assert layout.lane_value(engine.FN[sid], lane) == signal.mask
        fresh = int(bool(engine.FO[sid]) or engine.FN[sid] != signal.mask * ones)
        assert engine.FB[sid] == fresh
    # from here on the retired lanes are the good machine, and every other
    # lane computes exactly what it computes in the unretired twin
    for kernel in (engine, twin):
        driver = CycleDriver(kernel, stimulus)
        for cycle in range(20, stimulus.num_cycles()):
            driver.step(cycle)
    for mine, theirs in zip(_state_words(engine), _state_words(twin)):
        mine_fields, their_fields = _fields(layout, mine), _fields(layout, theirs)
        for lane in range(layout.lanes):
            expected = mine_fields[0] if lane in retired else their_fields[lane]
            assert mine_fields[lane] == expected


def test_retire_refuses_the_good_lane(counter_design):
    faults = list(generate_stuck_at_faults(counter_design))[:3]
    engine = PackedCodegenEngine(counter_design, faults=faults, use_cache=False)
    with pytest.raises(SimulationError, match="retire"):
        engine.retire([0])
    with pytest.raises(SimulationError, match="retire"):
        engine.retire([4])


#: (benchmark, cycles): long enough for over half of a 128-fault word to be
#: detected, so a retirement fires with live lanes left in the word.
RETIRE_WORKLOADS = [("picorv32", 300), ("mips", 100), ("sodor", 200)]


@pytest.mark.parametrize("name,cycles", RETIRE_WORKLOADS)
def test_retirement_keeps_verdicts_exact(name, cycles, monkeypatch):
    """Retiring mid-word changes no verdict or detection cycle of the live lanes.

    These CPUs read memories and shift by variable amounts, so an unretired
    detected lane would keep its own addresses and shift amounts.
    """
    spec = get_benchmark(name)
    design = spec.compile()
    stimulus = spec.stimulus(cycles=cycles)
    faults = sample_faults(generate_stuck_at_faults(design), 128, seed=7)
    assert len(faults) <= DEFAULT_WORD_WIDTH  # one word
    batches = []
    retire = PackedCodegenEngine.retire

    def counting(engine, lanes):
        lanes = list(lanes)
        batches.append(lanes)
        # live lanes remain whenever a batch retires
        assert sum(len(batch) for batch in batches) < len(engine.faults)
        retire(engine, lanes)

    monkeypatch.setattr(PackedCodegenEngine, "retire", counting)
    packed = PackedCodegenSimulator(design).run(stimulus, faults)
    reference = SerialFaultSimulator(design, engine="codegen").run(stimulus, faults)
    assert batches, "no retirement fired"
    assert packed.coverage.detections == reference.coverage.detections
    # detections kept arriving after the first retirement
    assert len(packed.coverage.detections) > len(batches[0])


def test_full_default_word_matches_narrow_words(monkeypatch):
    """A full default-width word, retiring mid-word, matches 8-fault words.

    The corpus sweep checks 8-fault words against the serial baseline but
    packs only ``PARITY_FAULTS`` faults, so its default-width case runs an
    11-lane word.  Here one word holds ``DEFAULT_WORD_WIDTH`` faults and a
    partial word follows it.
    """
    spec = get_benchmark("mips")
    design = spec.compile()
    stimulus = spec.stimulus(cycles=100)
    faults = sample_faults(generate_stuck_at_faults(design), DEFAULT_WORD_WIDTH + 88, seed=7)
    full_word_batches = []
    retire = PackedCodegenEngine.retire

    def counting(engine, lanes):
        lanes = list(lanes)
        if engine.layout.lanes == DEFAULT_WORD_WIDTH + 1:
            full_word_batches.append(len(lanes))
        retire(engine, lanes)

    monkeypatch.setattr(PackedCodegenEngine, "retire", counting)
    simulator = PackedCodegenSimulator(design)
    wide = simulator.run(stimulus, faults)
    narrow = PackedCodegenSimulator(design, width=8).run(stimulus, faults)
    assert simulator.passes == 2
    # the observer retires only while live lanes remain in the word
    assert full_word_batches, "no retirement fired in the full word"
    assert wide.coverage.detections == narrow.coverage.detections


def test_finished_words_are_freed_without_the_cycle_collector(monkeypatch):
    """No reference cycle keeps a finished word's engine (and its state) alive."""
    design, stimulus, faults, _ = _workload("apb")
    engines = []

    class Recorded(PackedCodegenEngine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            engines.append(weakref.ref(self))

    monkeypatch.setattr("repro.sim.packed.PackedCodegenEngine", Recorded)
    gc.disable()
    try:
        PackedCodegenSimulator(design, width=4).run(stimulus, faults)
        assert len(engines) == 3
        assert [engine() for engine in engines] == [None] * 3
    finally:
        gc.enable()


def test_packed_word_count_and_partial_last_word(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(tmp_path))
    design, stimulus, faults, _ = _workload("apb")
    words = pack_fault_words(faults, 8)
    assert [len(word) for word in words] == [8, 2]
    sim = PackedCodegenSimulator(design, width=8)
    sim.run(stimulus, faults)
    assert sim.passes == 2
    # the padded last word reuses the full word's kernel: one cached source
    assert len(list(tmp_path.glob("*.py"))) == 1


# ------------------------------------------------------ lane-divergent corners
def test_divergent_memory_addressing(memory_stimulus):
    """Faults on address bits make lanes gather/scatter different words."""
    design = compile_design(MEMORY_SRC, top="scratchpad")
    population = generate_stuck_at_faults(design)
    faults = type(population)(
        [f for f in population if f.signal.name in ("waddr", "raddr", "we", "wdata")]
    )
    reference = SerialFaultSimulator(design, engine="codegen").run(
        memory_stimulus, faults
    )
    packed = PackedCodegenSimulator(design, width=len(faults)).run(
        memory_stimulus, faults
    )
    assert packed.coverage.detections == reference.coverage.detections


_BITSEL_SRC = """
module bitsel(
  input clk,
  input rst,
  input [2:0] idx,
  input bitval,
  input [7:0] base,
  output reg [7:0] q,
  output wire picked
);
  assign picked = q[idx];
  always @(posedge clk) begin
    if (rst) q <= base;
    else q[idx] <= bitval;
  end
endmodule
"""


def test_divergent_dynamic_bit_select():
    """Faults on the select index diverge both the bit read and the bit write."""
    from repro.sim.stimulus import RandomStimulus

    design = compile_design(_BITSEL_SRC, top="bitsel")
    stimulus = RandomStimulus(
        {"idx": 3, "bitval": 1, "base": 8},
        cycles=40,
        clock="clk",
        per_cycle=lambda c, v: dict(v, rst=1 if c < 2 else 0),
        seed=29,
    )
    faults = generate_stuck_at_faults(design)
    reference = SerialFaultSimulator(design, engine="codegen").run(stimulus, faults)
    packed = PackedCodegenSimulator(design, width=16).run(stimulus, faults)
    assert packed.coverage.detections == reference.coverage.detections


_PARITY_SRC = """
module parity5(
  input clk,
  input [4:0] x,
  output reg p,
  output reg q
);
  always @(posedge clk) begin
    p <= ^x;
    q <= ~^x;
  end
endmodule
"""


def test_reduction_parity_with_tight_stride():
    """Regression: the parity fold must not bleed a higher lane's bits.

    With a 5-bit widest value the stride is 6, so a fold step's right shift
    lands lane k+1 bits inside lane k's mask window — a post-xor mask of the
    operand width is not enough (the shiftED operand needs the per-step
    ``mask(width - shift)`` window).
    """
    from repro.sim.stimulus import RandomStimulus

    design = compile_design(_PARITY_SRC, top="parity5")
    assert packed_stride(design) == 6
    stimulus = RandomStimulus({"x": 5}, cycles=30, clock="clk", seed=5)
    reference = EventDrivenEngine(design).run(stimulus)
    faults = generate_stuck_at_faults(design)
    engine = PackedCodegenEngine(design, faults=list(faults)[:6], use_cache=False)
    assert engine.run(stimulus) == reference
    serial = SerialFaultSimulator(design, engine="codegen").run(stimulus, faults)
    packed = PackedCodegenSimulator(design, width=8).run(stimulus, faults)
    assert packed.coverage.detections == serial.coverage.detections


# ----------------------------------------------------------- good-machine seam
def test_packed_engine_in_registry():
    assert "packed" in ENGINE_SPECS


def test_packed_good_machine_trace_parity(counter_design, counter_stimulus):
    reference = simulate_good(counter_design, counter_stimulus, engine="event")
    packed = simulate_good(counter_design, counter_stimulus, engine="packed")
    assert packed == reference


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_packed_good_lane_trace_parity_on_corpus(name):
    """Lane 0 of a multi-lane word is the exact event-driven good machine.

    Detection parity alone could mask an error hitting every lane the same
    way; this pins the good lane's trace directly, with fault lanes active in
    the same word.
    """
    design, stimulus, faults, _ = _workload(name)
    reference = EventDrivenEngine(design).run(stimulus)
    engine = PackedCodegenEngine(design, faults=list(faults)[:5])
    trace = engine.run(stimulus)
    assert trace == reference, (
        f"packed good lane diverges from event-driven on {name} "
        f"at cycle {trace.first_difference(reference)}"
    )


def test_packed_satisfies_kernel_protocol(counter_design):
    engine = PackedCodegenEngine(counter_design, use_cache=False)
    assert isinstance(engine, SimulationKernel)
    assert engine.layout.lanes == 1


def test_packed_force_hook_single_lane(counter_design, counter_stimulus):
    """engine="packed" under a serial force hook matches the other kernels."""
    count = counter_design.signal("count")

    def hook(signal, value):
        return value | 1 if signal is count else value

    forced = make_engine(counter_design, "packed", force_hook=hook)
    trace = forced.run(counter_stimulus)
    assert trace == EventDrivenEngine(counter_design, force_hook=hook).run(
        counter_stimulus
    )


def test_serial_baseline_on_packed_engine():
    design, stimulus, faults, reference = _workload("apb")
    swapped = SerialFaultSimulator(design, engine="packed").run(stimulus, faults)
    assert swapped.coverage.detections == reference.coverage.detections


def test_packed_engine_rejects_faults_plus_hook(counter_design):
    faults = generate_stuck_at_faults(counter_design)
    with pytest.raises(SimulationError, match="not both"):
        PackedCodegenEngine(
            counter_design,
            force_hook=lambda s, v: v,
            faults=[faults[0]],
            use_cache=False,
        )


def test_packed_engine_rejects_too_few_lanes(counter_design):
    faults = list(generate_stuck_at_faults(counter_design))[:4]
    with pytest.raises(SimulationError, match="lanes"):
        PackedCodegenEngine(counter_design, faults=faults, lanes=3, use_cache=False)


# ------------------------------------------------------------- layout plumbing
def test_packed_stride_leaves_a_guard_bit(counter_design):
    stride = packed_stride(counter_design)
    assert stride > max(s.width for s in counter_design.signals)


def test_layout_lane_accessors():
    layout = PackedLayout(4, 8)
    word = layout.replicate(0x5A)
    assert [layout.lane_value(word, lane) for lane in range(4)] == [0x5A] * 4
    assert layout.lane_value(word | (0x01 << 8), 1) == 0x5B


def test_peek_exposes_faulty_lanes(counter_design, counter_stimulus):
    faults = [generate_stuck_at_faults(counter_design).by_name("count[0]:SA1")]
    engine = PackedCodegenEngine(counter_design, faults=faults, use_cache=False)
    engine.run(counter_stimulus)
    assert engine.peek("count", lane=1) & 1 == 1


def test_observe_packed_scans_differing_lanes():
    design = compile_design(COUNTER_SRC, top="counter")
    faults = sample_faults(generate_stuck_at_faults(design), 3, seed=1)
    manager = ObservationManager(design, faults)
    layout = PackedLayout(4, 8)
    good = 0x21
    word = layout.replicate(good)
    word ^= 0x04 << (2 * 8)  # lane 2 differs
    newly = manager.observe_packed(
        [word], [None, 0, 1, 2], cycle=5, layout=layout
    )
    assert newly == [2]
    assert manager.detection_cycle(faults[1].fault_id) == 5
    # already-detected lanes are not re-reported
    assert manager.observe_packed([word], [None, 0, 1, 2], 6, layout) == []
    # a live mask excluding the lane suppresses the scan entirely
    word ^= 0x02 << 8  # lane 1 differs now too
    masked = manager.observe_packed(
        [word], [None, 0, 1, 2], 7, layout, live_mask=0
    )
    assert masked == []


# ------------------------------------------------------------------- the cache
def test_packed_cache_key_distinct_from_serial(tmp_path, monkeypatch, counter_design):
    monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(tmp_path))
    CodegenEngine(counter_design)
    PackedCodegenEngine(counter_design)
    fingerprint = design_fingerprint(counter_design)
    sources = sorted(p.name for p in tmp_path.glob("*.py"))
    assert f"{fingerprint}.py" in sources
    assert len(sources) == 2 and sources[0] != sources[1]


def test_packed_cache_key_tracks_lane_count(tmp_path, monkeypatch, counter_design):
    monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(tmp_path))
    faults = list(generate_stuck_at_faults(counter_design))
    PackedCodegenEngine(counter_design, faults=faults[:2])
    PackedCodegenEngine(counter_design, faults=faults[:5])
    assert len(list(tmp_path.glob("*.py"))) == 2


def test_packed_generated_source_is_deterministic(counter_design):
    layout = packed_layout(counter_design, 5)
    assert generate_packed_source(counter_design, layout) == generate_packed_source(
        counter_design, layout
    )


def test_packed_rejects_narrow_stride(counter_design):
    with pytest.raises(SimulationError, match="too narrow"):
        generate_packed_source(counter_design, PackedLayout(4, 2))
