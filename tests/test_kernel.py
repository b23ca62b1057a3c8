"""Tests for the shared cycle-driver kernel layer (repro.sim.kernel)."""

import pytest

from fixture_designs import OSCILLATOR_SRC
from repro.api import ENGINE_SPECS, compile_design, make_engine
from repro.core.framework import EraserSimulator
from repro.errors import ConvergenceError
from repro.sim.codegen import CodegenEngine
from repro.sim.engine import EventDrivenEngine
from repro.sim.kernel import CycleDriver, SimulationKernel
from repro.sim.stimulus import VectorStimulus


def test_every_simulator_implements_the_kernel_protocol(counter_design):
    for kernel in (
        EventDrivenEngine(counter_design),
        CodegenEngine(counter_design, use_cache=False),
        EraserSimulator(counter_design),
    ):
        assert isinstance(kernel, SimulationKernel)
        for method in ("initialize", "apply_input", "settle", "observe"):
            assert callable(getattr(kernel, method)), method


def test_cycle_driver_runs_full_stimulus(counter_design, counter_stimulus):
    engine = EventDrivenEngine(counter_design)
    stopped_at = CycleDriver(engine, counter_stimulus).run()
    assert stopped_at is None  # ran to completion


def test_cycle_driver_observer_stops_early(counter_design, counter_stimulus):
    engine = EventDrivenEngine(counter_design)
    seen = []

    def observer(cycle):
        seen.append(cycle)
        return cycle == 7

    assert CycleDriver(engine, counter_stimulus).run(observer) == 7
    assert seen == list(range(8))


def test_cycle_driver_drives_eraser_simulator_directly(
    counter_design, counter_stimulus
):
    """The framework docstring advertises direct driving: initialize() must
    self-prepare (empty fault list) so the good machine can be advanced
    without going through run()."""
    simulator = EraserSimulator(counter_design)
    assert CycleDriver(simulator, counter_stimulus).run() is None
    assert simulator.stats.cycles == counter_stimulus.num_cycles()
    # the good machine actually advanced: the counter is not stuck at reset
    assert simulator.store.values[counter_design.signal("count")] != 0


def test_cycle_driver_gives_identical_traces_on_both_engines(
    counter_design, counter_stimulus
):
    event = EventDrivenEngine(counter_design).run(counter_stimulus)
    codegen = CodegenEngine(counter_design, use_cache=False).run(counter_stimulus)
    assert event == codegen


@pytest.mark.parametrize("engine", sorted(ENGINE_SPECS))
def test_oscillating_design_raises_convergence_error(engine, tmp_path, monkeypatch):
    """Every kernel bounds its settle loop (MAX_PASSES for generated code,
    MAX_DELTAS for the event scheduler) and reports a design that never
    settles instead of spinning; the same design runs while it holds still."""
    monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(tmp_path))
    design = compile_design(OSCILLATOR_SRC, top="oscillator")
    held = VectorStimulus([{"en": 0}] * 3, clock="clk")
    assert make_engine(design, engine).run(held).cycles == [(0, 0)] * 3
    enabled = VectorStimulus([{"en": 0}, {"en": 1}, {"en": 1}], clock="clk")
    with pytest.raises(ConvergenceError, match="'oscillator' did not"):
        make_engine(design, engine).run(enabled)
