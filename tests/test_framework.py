"""Tests for the Eraser concurrent fault-simulation framework."""

import pytest

from repro.api import compile_design
from repro.baselines.base import SerialFaultSimulator
from repro.baselines.ifsim import IFsimSimulator
from repro.core.framework import EraserMode, EraserSimulator
from repro.fault.faultlist import FaultList, faults_on_signals, generate_stuck_at_faults
from repro.fault.model import StuckAtFault
from repro.sim.stimulus import VectorStimulus
from fixture_designs import COUNTER_SRC


BASE = {"rst": 0, "en": 1, "load": 0, "din": 0}


def counter_vectors(extra=6):
    return [dict(BASE, rst=1)] + [dict(BASE) for _ in range(extra)]


def run_counter(design, vectors, faults, mode=EraserMode.FULL):
    stim = VectorStimulus(vectors, clock="clk")
    return EraserSimulator(design, mode=mode).run(stim, faults)


def test_all_modes_agree_with_serial_reference(counter_design, counter_stimulus):
    faults = generate_stuck_at_faults(counter_design)
    reference = IFsimSimulator(counter_design).run(counter_stimulus, faults)
    for mode in EraserMode:
        result = EraserSimulator(counter_design, mode=mode).run(counter_stimulus, faults)
        assert result.coverage.same_verdicts(reference.coverage), mode
        assert result.fault_coverage == pytest.approx(reference.fault_coverage)


def test_simulator_names():
    src_design = compile_design(COUNTER_SRC, top="counter")
    assert EraserSimulator(src_design).simulator_name == "Eraser"
    assert (
        EraserSimulator(src_design, mode=EraserMode.EXPLICIT_ONLY).simulator_name
        == "Eraser-"
    )
    assert (
        EraserSimulator(src_design, mode=EraserMode.NO_ELIMINATION).simulator_name
        == "Eraser--"
    )


def test_stuck_at_output_detected_immediately(counter_design):
    count = counter_design.signal("count")
    faults = FaultList([StuckAtFault(count, 0, 1)])
    result = run_counter(counter_design, counter_vectors(), faults)
    # count counts 0,1,2,... so bit0 stuck at 1 shows on the first even value
    assert result.fault_coverage == 100.0
    assert result.coverage.detections[faults[0].name] <= 1


def test_undetectable_fault_reported_undetected(counter_design):
    # stuck-at-1 on en while the stimulus always drives en=1: never observable
    en = counter_design.signal("en")
    faults = FaultList([StuckAtFault(en, 0, 1)])
    result = run_counter(counter_design, counter_vectors(), faults)
    assert result.fault_coverage == 0.0


def test_fault_on_stuck_enable_detected(counter_design):
    # stuck-at-0 on en freezes the counter: must be detected once count moves
    en = counter_design.signal("en")
    faults = FaultList([StuckAtFault(en, 0, 0)])
    result = run_counter(counter_design, counter_vectors(), faults)
    assert result.fault_coverage == 100.0


def test_fault_on_clock_handled(counter_design):
    clk = counter_design.signal("clk")
    faults = FaultList([StuckAtFault(clk, 0, 0), StuckAtFault(clk, 0, 1)])
    stim = VectorStimulus(counter_vectors(), clock="clk")
    result = EraserSimulator(counter_design).run(stim, faults)
    reference = IFsimSimulator(counter_design).run(stim, faults)
    assert result.coverage.same_verdicts(reference.coverage)
    # a stuck clock freezes the counter, which differs from the good machine
    assert result.coverage.is_detected("clk[0]:SA0")


def test_detected_faults_are_dropped(counter_design):
    faults = faults_on_signals(generate_stuck_at_faults(counter_design), ["count"])
    simulator = EraserSimulator(counter_design)
    result = simulator.run(VectorStimulus(counter_vectors(10), clock="clk"), faults)
    assert result.fault_coverage == 100.0
    assert not simulator.live  # every detected fault left the live set


def test_statistics_consistency(counter_design, counter_stimulus):
    faults = generate_stuck_at_faults(counter_design)
    result = EraserSimulator(counter_design).run(counter_stimulus, faults)
    stats = result.stats
    assert stats.cycles == counter_stimulus.num_cycles()
    assert stats.bn_good_executions >= stats.cycles - 2
    accounted = (
        stats.bn_explicit_eliminations
        + stats.bn_implicit_eliminations
        + stats.bn_fault_executions
    )
    assert accounted <= stats.bn_potential_executions + stats.bn_fault_only_executions
    assert 0.0 <= stats.explicit_fraction <= 100.0
    assert 0.0 <= stats.implicit_fraction <= 100.0
    assert stats.time_total > 0.0
    assert stats.time_behavioral <= stats.time_total


def test_modes_differ_in_eliminations(counter_design, counter_stimulus):
    faults = generate_stuck_at_faults(counter_design)
    full = EraserSimulator(counter_design, mode=EraserMode.FULL).run(
        counter_stimulus, faults
    )
    explicit = EraserSimulator(counter_design, mode=EraserMode.EXPLICIT_ONLY).run(
        counter_stimulus, faults
    )
    none = EraserSimulator(counter_design, mode=EraserMode.NO_ELIMINATION).run(
        counter_stimulus, faults
    )
    assert none.stats.bn_eliminations == 0
    assert explicit.stats.bn_implicit_eliminations == 0
    assert explicit.stats.bn_explicit_eliminations > 0
    assert full.stats.bn_implicit_eliminations > 0
    # every elimination saves a faulty execution
    assert full.stats.bn_fault_executions <= explicit.stats.bn_fault_executions
    assert explicit.stats.bn_fault_executions <= none.stats.bn_fault_executions


def test_mode_flags():
    assert EraserMode.FULL.eliminates_explicit and EraserMode.FULL.eliminates_implicit
    assert EraserMode.EXPLICIT_ONLY.eliminates_explicit
    assert not EraserMode.EXPLICIT_ONLY.eliminates_implicit
    assert not EraserMode.NO_ELIMINATION.eliminates_explicit


def test_result_speedup_helper(counter_design, counter_stimulus):
    faults = generate_stuck_at_faults(counter_design, max_bits_per_signal=1)
    fast = EraserSimulator(counter_design).run(counter_stimulus, faults)
    slow = IFsimSimulator(counter_design).run(counter_stimulus, faults)
    assert slow.speedup_over(fast) > 0
    assert fast.speedup_over(slow) == pytest.approx(
        slow.wall_time / fast.wall_time
    )


def test_rerunning_simulator_is_reproducible(counter_design, counter_stimulus):
    faults = generate_stuck_at_faults(counter_design)
    a = EraserSimulator(counter_design).run(counter_stimulus, faults)
    b = EraserSimulator(counter_design).run(counter_stimulus, faults)
    assert a.coverage.same_verdicts(b.coverage)


def test_memory_design_parity(memory_design, memory_stimulus):
    faults = generate_stuck_at_faults(memory_design)
    concurrent = EraserSimulator(memory_design).run(memory_stimulus, faults)
    serial = IFsimSimulator(memory_design).run(memory_stimulus, faults)
    assert concurrent.coverage.same_verdicts(serial.coverage)


OOB_MEMORY_SRC = """
module oob_mem(
  input clk,
  input we,
  input [3:0] addr,
  input [3:0] raddr,
  input [7:0] din,
  output reg [7:0] q
);
  reg [7:0] mem [0:9];
  always @(posedge clk) begin
    if (we) mem[addr] <= din;
    q <= mem[raddr];
  end
endmodule
"""


@pytest.mark.parametrize("mode", list(EraserMode), ids=lambda mode: mode.value)
def test_out_of_range_memory_write_is_dropped(mode):
    """A write past the last word is a no-op on every machine.

    ``addr`` is 4 bits wide and sweeps all 16 values, so 10..15 (12 and 15
    among them) address words ``mem`` does not have.  Every mode must match
    the serial event-driven reference, which drops such writes.
    """
    design = compile_design(OOB_MEMORY_SRC, top="oob_mem")
    vectors = [
        {"we": 1, "addr": (5 * i + 2) % 16, "raddr": (3 * i + 1) % 16, "din": (37 * i + 11) & 0xFF}
        for i in range(40)
    ]
    assert {12, 15} <= {vector["addr"] for vector in vectors}
    stimulus = VectorStimulus(vectors, clock="clk")
    faults = generate_stuck_at_faults(design)
    reference = SerialFaultSimulator(design, engine="event").run(stimulus, faults)
    result = EraserSimulator(design, mode=mode).run(stimulus, faults)
    assert result.coverage.detections == reference.coverage.detections


def test_comb_block_design_parity(mux_design, mux_stimulus):
    faults = generate_stuck_at_faults(mux_design)
    concurrent = EraserSimulator(mux_design).run(mux_stimulus, faults)
    serial = IFsimSimulator(mux_design).run(mux_stimulus, faults)
    assert concurrent.coverage.same_verdicts(serial.coverage)


def test_fsm_design_parity(fsm_design, fsm_stimulus):
    faults = generate_stuck_at_faults(fsm_design)
    concurrent = EraserSimulator(fsm_design).run(fsm_stimulus, faults)
    serial = IFsimSimulator(fsm_design).run(fsm_stimulus, faults)
    assert concurrent.coverage.same_verdicts(serial.coverage)


def test_hierarchy_design_parity(hierarchy_design):
    faults = generate_stuck_at_faults(hierarchy_design)
    vectors = [{"rst": 1, "a": 0, "b": 0}] + [
        {"rst": 0, "a": (17 * i) & 0xFF, "b": (5 * i + 3) & 0xFF} for i in range(20)
    ]
    stim = VectorStimulus(vectors, clock="clk")
    concurrent = EraserSimulator(hierarchy_design).run(stim, faults)
    serial = IFsimSimulator(hierarchy_design).run(stim, faults)
    assert concurrent.coverage.same_verdicts(serial.coverage)


def test_unfinalized_design_rejected():
    from repro.ir.design import Design
    from repro.ir.signal import Signal, SignalKind
    from repro.errors import SimulationError

    design = Design("raw")
    design.add_signal(Signal("a", 1, SignalKind.INPUT))
    with pytest.raises(SimulationError):
        EraserSimulator(design)
