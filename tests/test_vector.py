"""Tests for the vectorized (NumPy lane array) PPSFP backend.

The strongest check is parity: on corpus benchmarks the vector simulator's
per-fault detection verdicts *and* detection cycles must exactly match both
the serial codegen baseline and the packed-bigint PPSFP campaign, across lane
counts that exercise the degenerate single-fault case (1), partial last words
and 512 lanes, the packed backend's default word.  The remaining tests pin the
seams the vector mode adds: bit-sliced value planes for signals wider than 64
bits, divergent per-lane memory addressing and dynamic bit selects, the
``"packed-numpy"`` registry entry and its missing-NumPy error, the
lane-agnostic cache entry, lane-word sharding, and that a finished word's
engine is freed without the cyclic garbage collector.

The whole module skips without NumPy (the ``vector`` extra).
"""

import gc
import weakref

import pytest

np = pytest.importorskip("numpy")

from fixture_designs import MEMORY_SRC
from repro.api import ENGINE_SPECS, compile_design, make_engine, simulate_good
from repro.baselines.base import SerialFaultSimulator
from repro.designs.registry import get_benchmark
from repro.errors import SimulationError
from repro.fault.faultlist import generate_stuck_at_faults, sample_faults
from repro.sim.codegen import (
    VECTOR_VERSION,
    design_fingerprint,
    generate_vector_source,
    vector_planes,
)
from repro.sim.engine import EventDrivenEngine
from repro.sim.kernel import SimulationKernel
from repro.sim.packed import PackedCodegenSimulator
from repro.sim.stimulus import RandomStimulus
from repro.sim.vector import (
    VectorCodegenEngine,
    VectorFaultSimulator,
)

#: Cycles per benchmark for the corpus parity slice.
PARITY_CYCLES = 40

#: Deliberately does not divide any tested width evenly (partial last words).
PARITY_FAULTS = 10

#: Lane-word widths: degenerate serial shape, partial words, and the packed
#: backend's default word.
WIDTHS = [1, 8, 512]

#: A corpus slice that covers the interesting emitter paths: ``alu`` carries a
#: 65-bit signal (multi-plane values), ``riscv_mini`` is memory-heavy, and
#: ``sha256_c2v`` is the arithmetic-dense perf-gate design.  The full ten-way
#: sweep runs in tests/test_fuzz_parity.py on every engine including this one.
PARITY_BENCHMARKS = ["alu", "riscv_mini", "sha256_c2v"]


@pytest.fixture(autouse=True)
def _isolated_codegen_cache(tmp_path, monkeypatch):
    """Keep every test away from the developer's real ~/.cache/repro-codegen."""
    monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(tmp_path / "codegen-cache"))


_workloads = {}


def _workload(name):
    """Compile each benchmark once per session, with its references."""
    if name not in _workloads:
        spec = get_benchmark(name)
        design = spec.compile()
        stimulus = spec.stimulus(cycles=PARITY_CYCLES)
        faults = sample_faults(
            generate_stuck_at_faults(design), PARITY_FAULTS, seed=7
        )
        serial = SerialFaultSimulator(design, engine="codegen").run(
            stimulus, faults
        )
        packed = PackedCodegenSimulator(design, width=8).run(stimulus, faults)
        _workloads[name] = (design, stimulus, faults, serial, packed)
    return _workloads[name]


# ------------------------------------------------------------ the parity sweep
@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("name", PARITY_BENCHMARKS)
def test_vector_matches_serial_and_packed(name, width):
    """Verdicts AND detection cycles exact vs codegen serial AND packed."""
    design, stimulus, faults, serial, packed = _workload(name)
    vector = VectorFaultSimulator(design, width=width).run(stimulus, faults)
    assert vector.coverage.same_verdicts(serial.coverage), (
        f"{name} w={width}: verdicts disagree on "
        f"{vector.coverage.disagreements(serial.coverage)}"
    )
    assert vector.coverage.detections == serial.coverage.detections, (
        f"{name} w={width}: detection cycles differ from serial codegen"
    )
    assert vector.coverage.detections == packed.coverage.detections, (
        f"{name} w={width}: detection cycles differ from packed-bigint"
    )


def test_vector_without_early_exit_matches():
    """Lane dropping (early exit) must not change any verdict or cycle."""
    design, stimulus, faults, serial, _ = _workload("alu")
    vector = VectorFaultSimulator(design, width=8, early_exit=False).run(
        stimulus, faults
    )
    assert vector.coverage.detections == serial.coverage.detections


def test_vector_partial_last_word_runs_fewer_lanes():
    """A partial final word runs with exactly its own lanes — no padding."""
    design, stimulus, faults, serial, _ = _workload("alu")
    sim = VectorFaultSimulator(design, width=8)
    result = sim.run(stimulus, faults)
    assert sim.passes == 2  # 10 faults at width 8 -> words of 8 and 2
    assert result.coverage.detections == serial.coverage.detections


def test_finished_words_are_freed_without_the_cycle_collector(monkeypatch):
    """No reference cycle keeps a finished word's engine (and its arrays) alive."""
    design, stimulus, faults, _, _ = _workload("alu")
    engines = []

    class Recorded(VectorCodegenEngine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            engines.append(weakref.ref(self))

    monkeypatch.setattr("repro.sim.vector.VectorCodegenEngine", Recorded)
    gc.disable()
    try:
        VectorFaultSimulator(design, width=4).run(stimulus, faults)
        assert len(engines) == 3
        assert [engine() for engine in engines] == [None] * 3
    finally:
        gc.enable()


# -------------------------------------------------------- multi-plane signals
_WIDE_SRC = """
module wide80(
  input clk,
  input rst,
  input [15:0] a,
  input [15:0] b,
  output reg [79:0] acc,
  output wire [15:0] hi,
  output wire flag,
  output wire [79:0] mix
);
  wire [79:0] wide_a;
  assign wide_a = {a, b, a, b, a};
  assign hi = acc[79:64];
  assign flag = acc > wide_a;
  assign mix = (acc << 7) ^ (acc >> 65) ^ {5{b}};
  always @(posedge clk) begin
    if (rst) acc <= 0;
    else acc <= (acc + wide_a) ^ (wide_a << 3);
  end
endmodule
"""


def test_wide_signal_uses_bit_planes_and_matches_serial():
    """An 80-bit datapath (2 value planes) stays exact across plane seams:
    cross-plane add carries, shifts, slices landing on plane boundaries,
    multi-plane compares and concats."""
    design = compile_design(_WIDE_SRC, top="wide80")
    assert vector_planes(design.signal("acc").width) == 2
    stimulus = RandomStimulus(
        {"a": 16, "b": 16},
        cycles=40,
        clock="clk",
        per_cycle=lambda c, v: dict(v, rst=1 if c < 2 else 0),
        seed=23,
    )
    faults = generate_stuck_at_faults(design)
    # includes faults on bits >= 64, i.e. forcing masks in the high plane
    assert any(f.bit >= 64 for f in faults)
    reference = SerialFaultSimulator(design, engine="codegen").run(stimulus, faults)
    vector = VectorFaultSimulator(design, width=48).run(stimulus, faults)
    assert vector.coverage.detections == reference.coverage.detections


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
    vector = VectorFaultSimulator(design, width=len(faults)).run(
        memory_stimulus, faults
    )
    assert vector.coverage.detections == reference.coverage.detections


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
    vector = VectorFaultSimulator(design, width=16).run(stimulus, faults)
    assert vector.coverage.detections == reference.coverage.detections


# ----------------------------------------------------------- good-machine seam
def test_vector_engine_in_registry():
    assert "packed-numpy" in ENGINE_SPECS


def test_vector_good_machine_trace_parity(counter_design, counter_stimulus):
    reference = simulate_good(counter_design, counter_stimulus, engine="event")
    vector = simulate_good(counter_design, counter_stimulus, engine="packed-numpy")
    assert vector == reference


def test_vector_satisfies_kernel_protocol(counter_design):
    engine = VectorCodegenEngine(counter_design, use_cache=False)
    assert isinstance(engine, SimulationKernel)
    assert engine.lanes == 1


def test_vector_force_hook_single_lane(counter_design, counter_stimulus):
    """engine="packed-numpy" under a serial force hook matches the others."""
    count = counter_design.signal("count")

    def hook(signal, value):
        return value | 1 if signal is count else value

    forced = make_engine(counter_design, "packed-numpy", force_hook=hook)
    trace = forced.run(counter_stimulus)
    assert trace == EventDrivenEngine(counter_design, force_hook=hook).run(
        counter_stimulus
    )


def test_serial_baseline_on_vector_engine():
    design, stimulus, faults, serial, _ = _workload("alu")
    swapped = SerialFaultSimulator(design, engine="packed-numpy").run(
        stimulus, faults
    )
    assert swapped.coverage.detections == serial.coverage.detections


def test_vector_engine_rejects_faults_plus_hook(counter_design):
    faults = generate_stuck_at_faults(counter_design)
    with pytest.raises(SimulationError, match="not both"):
        VectorCodegenEngine(
            counter_design,
            force_hook=lambda s, v: v,
            faults=[faults[0]],
            use_cache=False,
        )


def test_vector_engine_rejects_too_few_lanes(counter_design):
    faults = list(generate_stuck_at_faults(counter_design))[:4]
    with pytest.raises(SimulationError, match="lanes"):
        VectorCodegenEngine(counter_design, faults=faults, lanes=3, use_cache=False)


def test_missing_numpy_raises_naming_the_extra(counter_design, monkeypatch):
    """Without NumPy the engine (not the import) fails, naming the extra."""
    import repro.sim.vector as vector_mod

    monkeypatch.setattr(vector_mod, "np", None)
    with pytest.raises(SimulationError, match=r"repro\[vector\]"):
        VectorCodegenEngine(counter_design, use_cache=False)
    with pytest.raises(SimulationError, match=r"repro\[vector\]"):
        VectorFaultSimulator(counter_design)


def test_peek_exposes_faulty_lanes(counter_design, counter_stimulus):
    faults = [generate_stuck_at_faults(counter_design).by_name("count[0]:SA1")]
    engine = VectorCodegenEngine(counter_design, faults=faults, use_cache=False)
    engine.run(counter_stimulus)
    assert engine.peek("count", lane=1) & 1 == 1


# --------------------------------------------------------- the event scheduler
def _settled_counter(design):
    """A 4-fault counter engine, out of reset and counting, fully settled."""
    faults = list(generate_stuck_at_faults(design))[:4]
    engine = VectorCodegenEngine(design, faults=faults, use_cache=False)
    engine.initialize()
    for name, value in (("rst", 0), ("en", 1), ("load", 0), ("din", 5), ("clk", 1)):
        engine.apply_input(design.signal(name), value)
    engine.settle()
    return engine


def test_settle_without_an_input_event_reevaluates_nothing(counter_design):
    """A second settle re-assigns no value: every node sits behind its guard."""
    engine = _settled_counter(counter_design)
    values, stamps = list(engine.V), list(engine.VER)
    engine.settle()
    assert all(after is before for after, before in zip(engine.V, values))
    assert engine.VER == stamps


def test_redriving_an_input_with_its_value_is_no_event(counter_design):
    """Driving an input with the int it holds stamps nothing; a new int does."""
    engine = _settled_counter(counter_design)
    din = counter_design.signal("din")
    stamps, counter = list(engine.VER), engine.GC[0]
    engine.apply_input(din, 5)
    engine.apply_input(din, 5 | 0x10)  # masked to the same 4-bit value
    assert engine.VER == stamps and engine.GC[0] == counter
    engine.apply_input(din, 6)
    assert engine.VER[din.sid] == engine.GC[0] > counter
    assert engine.peek("din") == 6


# ------------------------------------------------------------------- the cache
def test_vector_cache_key_distinct_and_lane_agnostic(
    tmp_path, monkeypatch, counter_design
):
    """One ``vec{N}``-suffixed entry per design, shared by every lane count."""
    monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(tmp_path))
    faults = list(generate_stuck_at_faults(counter_design))
    VectorCodegenEngine(counter_design, faults=faults[:2])
    VectorCodegenEngine(counter_design, faults=faults[:7])
    engine = VectorCodegenEngine(counter_design)
    # unlike the per-geometry packed keys, every width hits the same entry
    assert len(list(tmp_path.glob("*.py"))) == 1
    assert engine.cache_hit
    fingerprint = design_fingerprint(counter_design)
    assert list(tmp_path.glob("*.py"))[0].name.startswith(
        f"{fingerprint}-vec{VECTOR_VERSION}"
    )


def test_vector_generated_source_is_deterministic(counter_design):
    assert generate_vector_source(counter_design) == generate_vector_source(
        counter_design
    )


def test_vector_rejects_wide_memory_words():
    design = compile_design(
        """
        module widemem(
          input clk,
          input [1:0] raddr,
          output wire [64:0] q
        );
          reg [64:0] store [0:3];
          assign q = store[raddr];
          always @(posedge clk) store[0] <= q + 1;
        endmodule
        """,
        top="widemem",
    )
    with pytest.raises(SimulationError, match="> 64"):
        generate_vector_source(design)


def test_multiprocess_vector_runner_inline():
    """The ("vector", ...) runner spec wires up through run_multiprocess
    (single-worker short-circuit: same code path, no pool startup cost)."""
    from repro.sim.parallel import run_multiprocess

    design, stimulus, faults, serial, _ = _workload("alu")
    result = run_multiprocess(
        design,
        stimulus,
        faults,
        workers=1,
        runner=("vector", {"width": 4}),
    )
    assert result.simulator == "VectorPPSFP-MP"
    assert result.coverage.detections == serial.coverage.detections
