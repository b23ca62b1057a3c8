"""ERASER: efficient RTL fault simulation with trimmed execution redundancy.

This package is a from-scratch Python reproduction of the DATE 2025 paper
"ERASER: Efficient RTL FAult Simulation Framework with Trimmed Execution
Redundancy".  It contains:

* a Verilog-subset front end (:mod:`repro.hdl`),
* an RTL graph intermediate representation (:mod:`repro.ir`),
* control-flow / visibility-dependency graph construction (:mod:`repro.cfg`),
* an event-driven good-simulation kernel and generated-code kernels (serial,
  bit-parallel and concurrent; :mod:`repro.sim`),
* stuck-at fault modelling and concurrent fault-simulation machinery
  (:mod:`repro.fault`),
* the ERASER framework itself with explicit and implicit redundancy
  elimination (:mod:`repro.core`),
* baseline fault simulators standing in for IFsim / VFsim / Z01X
  (:mod:`repro.baselines`),
* the benchmark designs and stimuli of the paper's evaluation
  (:mod:`repro.designs`), and
* the experiment harness that regenerates every table and figure
  (:mod:`repro.harness`).

Quickstart
----------

>>> from repro import compile_design, generate_stuck_at_faults, EraserSimulator
>>> design = compile_design(VERILOG_SOURCE, top="counter")
>>> faults = generate_stuck_at_faults(design)
>>> sim = EraserSimulator(design)
>>> result = sim.run(stimulus, faults)
>>> print(result.fault_coverage)
"""

from repro.api import (
    ENGINE_SPECS,
    CampaignConfig,
    CampaignProgress,
    ChaosPlan,
    ChaosRule,
    CycleDriver,
    EraserCodegenSimulator,
    PackedCodegenSimulator,
    ResultCache,
    RetryPolicy,
    WorkloadSpec,
    compile_design,
    compile_file,
    elaborate,
    generate_stuck_at_faults,
    load_benchmark,
    make_engine,
    progress_printer,
    run_multiprocess,
    simulate_good,
    stimulus_hash,
)
from repro.baselines.ifsim import IFsimSimulator
from repro.baselines.vfsim import VFsimSimulator
from repro.baselines.z01x import Z01XSurrogateSimulator
from repro.core.framework import EraserMode, EraserSimulator
from repro.fault.coverage import FaultCoverageReport
from repro.fault.model import StuckAtFault
from repro.sim.stimulus import Stimulus, VectorStimulus

__version__ = "0.1.0"

__all__ = [
    "CampaignConfig",
    "CampaignProgress",
    "ChaosPlan",
    "ChaosRule",
    "CycleDriver",
    "ENGINE_SPECS",
    "EraserCodegenSimulator",
    "EraserMode",
    "EraserSimulator",
    "FaultCoverageReport",
    "IFsimSimulator",
    "PackedCodegenSimulator",
    "ResultCache",
    "RetryPolicy",
    "StuckAtFault",
    "Stimulus",
    "VFsimSimulator",
    "VectorStimulus",
    "WorkloadSpec",
    "Z01XSurrogateSimulator",
    "__version__",
    "compile_design",
    "compile_file",
    "elaborate",
    "generate_stuck_at_faults",
    "load_benchmark",
    "make_engine",
    "progress_printer",
    "run_multiprocess",
    "simulate_good",
    "stimulus_hash",
]
