"""Tests for the event-driven good-simulation kernel (the reference engine).

The last test holds every registered kernel to this reference under random
stimuli.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import ENGINE_SPECS, compile_design, make_engine
from repro.sim.engine import EventDrivenEngine
from repro.sim.stimulus import RandomStimulus, VectorStimulus
from fixture_designs import COUNTER_SRC, MUX_PIPELINE_SRC


@pytest.fixture(autouse=True)
def _isolated_codegen_cache(tmp_path, monkeypatch):
    """Keep the generated kernels away from the developer's real code cache."""
    monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(tmp_path / "codegen-cache"))


def run_counter(engine_cls, vectors):
    design = compile_design(COUNTER_SRC, top="counter")
    engine = engine_cls(design)
    return design, engine, engine.run(VectorStimulus(vectors, clock="clk"))


BASE = {"rst": 0, "en": 1, "load": 0, "din": 0}


def test_counter_counts(counter_design):
    vectors = [dict(BASE, rst=1)] + [dict(BASE) for _ in range(5)]
    engine = EventDrivenEngine(counter_design)
    trace = engine.run(VectorStimulus(vectors, clock="clk"))
    counts = [cycle[trace.output_names.index("count")] for cycle in trace.cycles]
    assert counts == [0, 1, 2, 3, 4, 5]


def test_counter_load_and_hold(counter_design):
    vectors = [
        dict(BASE, rst=1),
        dict(BASE, load=1, din=9),
        dict(BASE, en=0),
        dict(BASE),
    ]
    engine = EventDrivenEngine(counter_design)
    trace = engine.run(VectorStimulus(vectors, clock="clk"))
    counts = [cycle[0] for cycle in trace.cycles]
    assert counts == [0, 9, 9, 10]


def test_counter_carry_output(counter_design):
    vectors = [dict(BASE, rst=1), dict(BASE, load=1, din=15), dict(BASE)]
    engine = EventDrivenEngine(counter_design)
    trace = engine.run(VectorStimulus(vectors, clock="clk"))
    carry_idx = trace.output_names.index("carry")
    assert trace.cycles[1][carry_idx] == 1  # count==15 and en


def test_reset_is_synchronous(counter_design):
    vectors = [dict(BASE, rst=1), dict(BASE), dict(BASE, rst=1), dict(BASE)]
    engine = EventDrivenEngine(counter_design)
    trace = engine.run(VectorStimulus(vectors, clock="clk"))
    counts = [cycle[0] for cycle in trace.cycles]
    assert counts == [0, 1, 0, 1]


def test_peek_and_poke(counter_design):
    engine = EventDrivenEngine(counter_design)
    engine.initialize()
    engine.poke("count", 14)
    engine.poke("en", 1)
    assert engine.peek("count") == 14
    assert engine.peek("next_value") == 15
    assert engine.peek("carry") == 0
    engine.poke("count", 15)
    assert engine.peek("carry") == 1


def test_comb_always_block_publishes(mux_design, mux_stimulus):
    engine = EventDrivenEngine(mux_design)
    trace = engine.run(mux_stimulus)
    comb_idx = trace.output_names.index("comb_out")
    # comb_out = stage ^ c must follow the registered stage value
    assert any(cycle[comb_idx] != 0 for cycle in trace.cycles)


def test_memory_engine_behavior(memory_design):
    vectors = [
        {"rst": 1, "we": 0, "waddr": 0, "raddr": 0, "wdata": 0},
        {"rst": 0, "we": 1, "waddr": 3, "raddr": 0, "wdata": 0x5A},
        {"rst": 0, "we": 0, "waddr": 0, "raddr": 3, "wdata": 0},
        {"rst": 0, "we": 0, "waddr": 0, "raddr": 3, "wdata": 0},
    ]
    engine = EventDrivenEngine(memory_design)
    trace = engine.run(VectorStimulus(vectors, clock="clk"))
    rdata_idx = trace.output_names.index("rdata")
    assert trace.cycles[3][rdata_idx] == 0x5A
    assert engine.peek_word("mem", 3) == 0x5A


def test_hierarchy_engine(hierarchy_design):
    vectors = [
        {"rst": 1, "a": 0, "b": 0},
        {"rst": 0, "a": 3, "b": 4},
        {"rst": 0, "a": 250, "b": 10},
    ]
    engine = EventDrivenEngine(hierarchy_design)
    trace = engine.run(VectorStimulus(vectors, clock="clk"))
    totals = [cycle[0] for cycle in trace.cycles]
    assert totals == [0, 7, (250 + 10) & 0xFF]


def test_force_hook_applied(counter_design):
    # stuck-at-1 on bit 0 of count
    count = counter_design.signal("count")

    def hook(signal, value):
        return value | 1 if signal is count else value

    vectors = [dict(BASE, rst=1)] + [dict(BASE) for _ in range(3)]
    engine = EventDrivenEngine(counter_design, force_hook=hook)
    trace = engine.run(VectorStimulus(vectors, clock="clk"))
    counts = [cycle[0] for cycle in trace.cycles]
    assert all(c & 1 for c in counts)


def test_trace_first_difference(counter_design):
    vectors = [dict(BASE, rst=1)] + [dict(BASE) for _ in range(4)]
    stim = VectorStimulus(vectors, clock="clk")
    a = EventDrivenEngine(counter_design).run(stim)
    b = EventDrivenEngine(counter_design).run(stim)
    assert a.first_difference(b) is None
    b.cycles[2] = (99, 0)
    assert a.first_difference(b) == 2


def test_trace_length_difference(counter_design):
    vectors = [dict(BASE, rst=1), dict(BASE)]
    a = EventDrivenEngine(counter_design).run(VectorStimulus(vectors, clock="clk"))
    b = EventDrivenEngine(counter_design).run(VectorStimulus(vectors[:1], clock="clk"))
    assert a.first_difference(b) == 1


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_engines_equivalent_on_random_stimuli(seed):
    """Every registered kernel reproduces the event-driven trace."""
    design = compile_design(MUX_PIPELINE_SRC, top="mux_pipeline")
    stim = RandomStimulus(
        {"sel": 1, "a": 8, "b": 8, "c": 8},
        cycles=15,
        clock="clk",
        per_cycle=lambda c, v: dict(v, rst=1 if c < 1 else 0),
        seed=seed,
    )
    reference = EventDrivenEngine(design).run(stim)
    for name in ENGINE_SPECS:
        assert make_engine(design, name).run(stim) == reference, name
