"""Tests for the concurrent (Eraser) codegen kernel.

The strongest check is exactness: on every corpus benchmark the generated
concurrent kernel must produce the *identical* verdict AND detection cycle
for every fault the interpreted :class:`EraserSimulator` produces — the
concurrent representation (divergence dicts, holders, follow-the-good
commits) leaves plenty of room for plausible-but-wrong shortcuts, so nothing
short of full detection-dict equality is accepted.  The seam tests cover the
``ENGINE_SPECS["eraser-codegen"]`` registration, the ``EraserSimulator(engine=)``
selector, the shared disk cache and the fault/force_hook exclusivity.
"""

import gc
import random
import weakref

import pytest

from repro.api import ENGINE_SPECS, compile_design, make_engine, simulate_good
from repro.baselines.base import SerialFaultSimulator
from repro.core.framework import EraserMode, EraserSimulator, _BehavioralOutcome
from repro.designs.registry import BENCHMARK_NAMES, get_benchmark
from repro.errors import SimulationError
from repro.fault.faultlist import FaultList, generate_stuck_at_faults, sample_faults
from repro.fault.model import StuckAtFault
from repro.sim.codegen import design_fingerprint
from repro.sim.engine import EventDrivenEngine
from repro.sim.eraser_codegen import (
    EraserCodegenEngine,
    EraserCodegenSimulator,
    generate_eraser_source,
    load_eraser_kernel,
)
from repro.sim.eraser_runtime import _apply_outcomes
from repro.sim.interpreter import NBAUpdate
from repro.sim.stimulus import VectorStimulus

#: Cycles for the corpus exactness sweep (short: the fuzz suite goes longer).
SWEEP_CYCLES = 40
#: Fault sample per benchmark for the sweep.
SWEEP_FAULTS = 24


@pytest.fixture(autouse=True)
def _isolated_codegen_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(tmp_path / "codegen-cache"))


_workloads = {}


def _workload(name):
    """Compile each benchmark once per session (design, stimulus, faults)."""
    if name not in _workloads:
        spec = get_benchmark(name)
        design = spec.compile()
        stimulus = spec.stimulus(cycles=SWEEP_CYCLES, seed=2025)
        faults = sample_faults(
            generate_stuck_at_faults(design), SWEEP_FAULTS, seed=2025
        )
        _workloads[name] = (design, stimulus, faults)
    return _workloads[name]


# ------------------------------------------------------------------ exactness
@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_detection_exactness_on_corpus(name):
    """Verdict- and detection-cycle equality vs the interpreted Eraser."""
    design, stimulus, faults = _workload(name)
    interpreted = EraserSimulator(design).run(stimulus, faults)
    generated = EraserCodegenSimulator(design, use_cache=False).run(stimulus, faults)
    assert generated.coverage.detections == interpreted.coverage.detections, (
        f"{name}: eraser-codegen disagrees with the interpreted Eraser on "
        f"{generated.coverage.disagreements(interpreted.coverage)}"
    )


@pytest.mark.parametrize("name", ["counter", "scratchpad"])
def test_full_fault_list_exactness(name, counter_design, memory_design,
                                   counter_stimulus, memory_stimulus):
    """Every fault of a small design, not a sample (memories included)."""
    design, stimulus = {
        "counter": (counter_design, counter_stimulus),
        "scratchpad": (memory_design, memory_stimulus),
    }[name]
    faults = generate_stuck_at_faults(design)
    interpreted = EraserSimulator(design).run(stimulus, faults)
    generated = EraserCodegenSimulator(design).run(stimulus, faults)
    assert generated.coverage.detections == interpreted.coverage.detections


def test_clock_site_faults_hold_state(counter_design, counter_stimulus):
    """Faults on the clock itself (never-edging machines) match exactly."""
    clk = counter_design.signal("clk")
    faults = FaultList([StuckAtFault(clk, 0, 0), StuckAtFault(clk, 0, 1)])
    interpreted = EraserSimulator(counter_design).run(counter_stimulus, faults)
    generated = EraserCodegenSimulator(counter_design).run(counter_stimulus, faults)
    assert generated.coverage.detections == interpreted.coverage.detections


# ----------------------------------------------------------------- good seam
def test_registered_in_engines():
    assert "eraser-codegen" in ENGINE_SPECS


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_good_machine_trace_parity(name):
    """As a plain good-machine kernel the trace matches the event engine."""
    design, stimulus, _ = _workload(name)
    reference = EventDrivenEngine(design).run(stimulus)
    trace = simulate_good(design, stimulus, engine="eraser-codegen")
    assert trace == reference


def test_serial_baseline_seam(counter_design, counter_stimulus):
    """SerialFaultSimulator(engine="eraser-codegen") = force_hook contract."""
    faults = sample_faults(generate_stuck_at_faults(counter_design), 12, seed=3)
    reference = SerialFaultSimulator(counter_design, engine="event").run(
        counter_stimulus, faults
    )
    result = SerialFaultSimulator(counter_design, engine="eraser-codegen").run(
        counter_stimulus, faults
    )
    assert result.coverage.detections == reference.coverage.detections


def test_peeks_and_snapshot(counter_design, counter_stimulus):
    engine = make_engine(counter_design, "eraser-codegen")
    trace = engine.run(counter_stimulus)
    assert engine.snapshot_outputs() == trace[-1]
    assert (engine.peek("count"), engine.peek("carry")) == trace[-1]
    with pytest.raises(SimulationError, match="memory"):
        engine.peek_word("count", 0)


def test_finished_engine_is_freed_without_the_cycle_collector():
    """No reference cycle keeps a finished campaign's engine (and its state) alive."""
    design, stimulus, faults = _workload("apb")
    gc.disable()
    try:
        simulator = EraserCodegenSimulator(design)
        simulator.run(stimulus, faults)
        engine = weakref.ref(simulator.engine)
        del simulator
        assert engine() is None
    finally:
        gc.enable()


# ------------------------------------------------------------ engine selector
def test_eraser_simulator_engine_selector(counter_design, counter_stimulus):
    faults = generate_stuck_at_faults(counter_design)
    interpreted = EraserSimulator(counter_design, engine="interp").run(
        counter_stimulus, faults
    )
    generated = EraserSimulator(counter_design, engine="codegen").run(
        counter_stimulus, faults
    )
    assert generated.coverage.detections == interpreted.coverage.detections
    # the simulator name survives the delegation (fig6/fig7 rows key on it)
    assert generated.simulator == interpreted.simulator == "Eraser"


@pytest.mark.parametrize("mode", list(EraserMode))
def test_engine_selector_mode_agnostic(mode, counter_design, counter_stimulus):
    """All three ablation modes coincide on the generated kernel."""
    faults = generate_stuck_at_faults(counter_design)
    interpreted = EraserSimulator(counter_design, mode=mode).run(
        counter_stimulus, faults
    )
    generated = EraserSimulator(counter_design, mode=mode, engine="codegen").run(
        counter_stimulus, faults
    )
    assert generated.coverage.detections == interpreted.coverage.detections
    assert generated.simulator == interpreted.simulator


def test_unknown_eraser_engine_rejected(counter_design):
    with pytest.raises(ValueError, match="interp"):
        EraserSimulator(counter_design, engine="jit")


def test_faults_and_force_hook_exclusive(counter_design):
    fault = generate_stuck_at_faults(counter_design)[0]
    with pytest.raises(SimulationError, match="not both"):
        EraserCodegenEngine(
            counter_design,
            force_hook=lambda s, v: v,
            faults=[fault],
        )


# ----------------------------------------------------------------- disk cache
def test_cache_round_trip(counter_design, counter_stimulus, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(tmp_path / "eraser-cache"))
    faults = generate_stuck_at_faults(counter_design)
    first = EraserCodegenSimulator(counter_design)
    r1 = first.run(counter_stimulus, faults)
    assert first.engine.cache_hit is False
    second = EraserCodegenSimulator(counter_design)
    r2 = second.run(counter_stimulus, faults)
    assert second.engine.cache_hit is True
    assert second.engine.source == first.engine.source
    assert r2.coverage.detections == r1.coverage.detections


def test_cache_key_distinct_from_serial(counter_design):
    """Eraser sources never collide with the serial/packed cache entries."""
    _, source, fingerprint, _ = load_eraser_kernel(counter_design, use_cache=False)
    assert fingerprint == design_fingerprint(counter_design)
    assert "comb_once" in source and "_apply_outcomes" in source


def test_corrupt_cache_regenerates(counter_design, tmp_path, monkeypatch):
    cache = tmp_path / "eraser-cache"
    monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(cache))
    EraserCodegenEngine(counter_design)
    [entry] = [p for p in cache.iterdir() if p.suffix == ".py"]
    entry.write_text("this is not python $$$", encoding="utf-8")
    engine = EraserCodegenEngine(counter_design)
    assert engine.cache_hit is False
    assert "comb_once" in engine.source


def test_generated_source_is_deterministic(counter_design):
    assert generate_eraser_source(counter_design) == generate_eraser_source(
        counter_design
    )


# ------------------------------------------- event-scheduler ordering hazards
#: A comb always block feeding an RTL assign: the assign's inputs are
#: committed AFTER the assign evaluates within the same pass, so the change
#: guard must re-fire it on the next pass — with pass-granular version
#: stamps this silently produced stale (wrong) outputs on quiescent cycles.
COMB_FEEDS_ASSIGN_SRC = """
module combfeed(input clk, input [3:0] a, output [3:0] out);
  reg [3:0] y;
  always @(*) y = ~a;
  assign out = y ^ 4'd3;
endmodule
"""

#: A combinational loop the levelizer must break: the lower-level node reads
#: a higher-level node's output, so a commit lands after its reader ran.
BROKEN_LOOP_SRC = """
module latchloop(input en, input [3:0] x, output [3:0] q);
  wire [3:0] a;
  wire [3:0] b;
  assign a = en ? x : b;
  assign b = a;
  assign q = b;
endmodule
"""


def test_comb_always_feeding_rtl_assign():
    """Same-pass late commits re-fire earlier nodes (trace + verdicts)."""
    design = compile_design(COMB_FEEDS_ASSIGN_SRC, top="combfeed")
    # held inputs make the quiescent cycles where stale values would hide
    stimulus = VectorStimulus(
        [{"a": 5}, {"a": 5}, {"a": 9}, {"a": 9}, {"a": 0}, {"a": 0}],
        clock="clk",
    )
    reference = EventDrivenEngine(design).run(stimulus)
    trace = simulate_good(design, stimulus, engine="eraser-codegen")
    assert trace == reference
    faults = generate_stuck_at_faults(design)
    interpreted = EraserSimulator(design).run(stimulus, faults)
    generated = EraserCodegenSimulator(design).run(stimulus, faults)
    assert generated.coverage.detections == interpreted.coverage.detections


def test_broken_combinational_loop():
    design = compile_design(BROKEN_LOOP_SRC, top="latchloop")
    stimulus = VectorStimulus(
        [
            {"en": 1, "x": 7},
            {"en": 0, "x": 2},
            {"en": 0, "x": 9},
            {"en": 1, "x": 4},
            {"en": 0, "x": 1},
        ]
    )
    reference = EventDrivenEngine(design).run(stimulus)
    trace = simulate_good(design, stimulus, engine="eraser-codegen")
    assert trace == reference
    faults = generate_stuck_at_faults(design)
    interpreted = EraserSimulator(design).run(stimulus, faults)
    generated = EraserCodegenSimulator(design).run(stimulus, faults)
    assert generated.coverage.detections == interpreted.coverage.detections


# ------------------------------------------------------------ the two commits
def _random_update(rng, signal, mem):
    """One interpreter update on ``signal`` (whole or part select) or a ``mem`` word."""
    if mem is not None:
        return NBAUpdate(mem, rng.randrange(1 << mem.width), word_index=rng.randrange(mem.depth))
    value = rng.randrange(1 << signal.width)
    if signal.width > 1 and rng.random() < 0.5:
        lsb = rng.randrange(signal.width)
        msb = rng.randrange(lsb, signal.width)
        return NBAUpdate(signal, value & ((1 << (msb - lsb + 1)) - 1), msb=msb, lsb=lsb)
    return NBAUpdate(signal, value)


def _as_tuples(updates):
    return [(u.signal.sid, u.msb, u.lsb, u.word_index, u.value) for u in updates]


def test_interpreted_and_generated_commits_agree(memory_design):
    """Random activations committed by both engines leave the same state.

    The interpreted ``_apply_behavioral_outcome`` and the kernel runtime's
    ``_apply_outcomes`` implement one algorithm.  Each trial draws a random
    concurrent state (good values, divergences, memory overlays, dropped
    faults) and a random outcome (whole, part-select and word updates for the
    good machine and the executed faults, holders), commits it through both
    and compares every value and divergence.  Among other paths this reaches
    a follower replaying part-select good writes, which no corpus campaign
    does: elimination never skips a fault divergent on a part-selected target.
    """
    design = memory_design
    rng = random.Random(5)
    scalars = [s for s in design.signals if not s.is_memory]
    mem = design.signal("mem")
    for _ in range(300):
        sites = rng.choices(scalars, k=6)
        faults = FaultList(
            [StuckAtFault(s, rng.randrange(s.width), rng.randrange(2)) for s in sites]
        )
        sim = EraserSimulator(design)
        sim._prepare(faults)
        store = sim.store
        sim.live = set(rng.sample(range(len(faults)), 4))
        for signal in scalars:
            good = store.values[signal] = rng.randrange(1 << signal.width)
            store.div[signal] = {
                f: v for f in sim.live
                if rng.random() < 0.3 and (v := rng.randrange(1 << signal.width)) != good
            }
        store.memories[mem] = [rng.randrange(256) for _ in range(mem.depth)]
        store.mem_div[mem] = {}
        for f in sim.live:
            for index in rng.sample(range(mem.depth), rng.randrange(3)):
                store.set_fault_word(mem, index, f, rng.randrange(256))

        def updates():
            return [
                _random_update(rng, rng.choice(scalars), mem if rng.random() < 0.2 else None)
                for _ in range(rng.randrange(5))
            ]

        outcome = _BehavioralOutcome(design.behavioral_nodes[0])
        executed = rng.sample(sorted(sim.live), rng.randrange(len(sim.live) + 1))
        outcome.fault_updates = {f: updates() for f in executed}
        if rng.random() < 0.8:
            outcome.good_updates = updates()
            outcome.holders = {f for f in sim.live - set(executed) if rng.random() < 0.3}

        V = [store.values.get(s, 0) for s in design.signals]
        M = [list(store.memories[s]) if s.is_memory else None for s in design.signals]
        D = [dict(store.div.get(s, {})) for s in design.signals]
        MD = [
            {f: dict(words) for f, words in store.mem_div.get(s, {}).items()}
            for s in design.signals
        ]
        SITES = [{} for _ in design.signals]
        for fault in faults:
            if fault.fault_id in sim.live:
                SITES[fault.signal.sid][fault.fault_id] = (
                    fault.force(0), fault.force(fault.signal.mask)
                )
        count = len(design.signals)
        good = None if outcome.good_updates is None else _as_tuples(outcome.good_updates)
        executed_tuples = {f: _as_tuples(u) for f, u in outcome.fault_updates.items()}
        _apply_outcomes(
            [(good, executed_tuples, outcome.holders)],
            V, M, D, MD, SITES, False, [0] * count, [0] * count, [0] * count, [0],
        )
        sim._apply_behavioral_outcome(outcome)

        for signal in scalars:
            assert (V[signal.sid], D[signal.sid]) == (
                store.values[signal], store.div[signal]
            ), signal.name
        assert M[mem.sid] == store.memories[mem]
        assert MD[mem.sid] == store.mem_div[mem]
