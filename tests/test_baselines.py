"""Tests for the IFsim / VFsim / Z01X baseline simulators."""

import pytest

from repro.baselines.base import SerialFaultSimulator
from repro.baselines.ifsim import IFsimSimulator
from repro.baselines.vfsim import VFsimSimulator
from repro.baselines.z01x import Z01XSurrogateSimulator
from repro.core.framework import EraserSimulator
from repro.errors import SimulationError
from repro.fault.faultlist import generate_stuck_at_faults, sample_faults


@pytest.fixture
def counter_workload(counter_design, counter_stimulus):
    faults = generate_stuck_at_faults(counter_design)
    return counter_design, counter_stimulus, faults


def test_ifsim_reports_expected_metadata(counter_workload):
    design, stim, faults = counter_workload
    result = IFsimSimulator(design).run(stim, faults)
    assert result.simulator == "IFsim"
    assert result.coverage.simulator == "IFsim"
    assert result.wall_time > 0
    assert result.coverage.total_faults == len(faults)


def test_vfsim_matches_ifsim_verdicts(counter_workload):
    design, stim, faults = counter_workload
    ifsim = IFsimSimulator(design).run(stim, faults)
    vfsim = VFsimSimulator(design).run(stim, faults)
    assert vfsim.simulator == "VFsim"
    assert vfsim.coverage.same_verdicts(ifsim.coverage)


def test_serial_base_class_needs_an_explicit_engine(counter_workload):
    """The base class names no kernel of its own: it runs only with ``engine=``."""
    design, stim, faults = counter_workload
    with pytest.raises(SimulationError, match="no defining kernel"):
        SerialFaultSimulator(design).run(stim, faults)
    named = SerialFaultSimulator(design, engine="event").run(stim, faults)
    assert named.coverage.same_verdicts(IFsimSimulator(design).run(stim, faults).coverage)


def test_z01x_matches_eraser_verdicts(counter_workload):
    design, stim, faults = counter_workload
    z01x = Z01XSurrogateSimulator(design).run(stim, faults)
    eraser = EraserSimulator(design).run(stim, faults)
    assert z01x.simulator == "Z01X"
    assert z01x.coverage.same_verdicts(eraser.coverage)
    assert z01x.stats.bn_implicit_eliminations == 0  # explicit-only surrogate


def test_serial_early_exit_and_full_run_agree(counter_design, counter_stimulus):
    faults = sample_faults(generate_stuck_at_faults(counter_design), 12, seed=4)
    eager = IFsimSimulator(counter_design, early_exit=True).run(counter_stimulus, faults)
    lazy = IFsimSimulator(counter_design, early_exit=False).run(counter_stimulus, faults)
    assert eager.coverage.same_verdicts(lazy.coverage)


def test_serial_simulators_on_memory_design(memory_design, memory_stimulus):
    faults = sample_faults(generate_stuck_at_faults(memory_design), 16, seed=1)
    ifsim = IFsimSimulator(memory_design).run(memory_stimulus, faults)
    vfsim = VFsimSimulator(memory_design).run(memory_stimulus, faults)
    assert ifsim.coverage.same_verdicts(vfsim.coverage)


def test_eraser_not_slower_than_serial_on_large_fault_count(counter_workload):
    """The headline direction: batched concurrent beats serial re-simulation."""
    design, stim, faults = counter_workload
    eraser = EraserSimulator(design).run(stim, faults)
    ifsim = IFsimSimulator(design).run(stim, faults)
    assert eraser.wall_time < ifsim.wall_time
