"""Shared fixtures built on the designs in :mod:`fixture_designs`.

The Verilog sources themselves live in ``fixture_designs.py`` (an importable,
uniquely-named helper) so that test modules never ``from conftest import ...``
— that import resolves to whichever ``conftest.py`` pytest saw first and
breaks when the repo root holds more than one test directory.
"""

from __future__ import annotations

import pytest

from fixture_designs import (  # noqa: F401  (re-exported for older callers)
    CASE_FSM_SRC,
    COUNTER_SRC,
    HIERARCHY_SRC,
    MEMORY_SRC,
    MUX_PIPELINE_SRC,
)
from repro.api import compile_design
from repro.sim.stimulus import RandomStimulus


def pytest_addoption(parser):
    parser.addoption(
        "--fuzz-seed",
        action="store",
        type=int,
        default=None,
        help="override the fixed stimulus seeds of the cross-engine "
        "differential fuzz suite (tests/test_fuzz_parity.py) with one "
        "chosen seed — the nightly CI leg passes a fresh value here",
    )


@pytest.fixture
def counter_design():
    return compile_design(COUNTER_SRC, top="counter")


@pytest.fixture
def mux_design():
    return compile_design(MUX_PIPELINE_SRC, top="mux_pipeline")


@pytest.fixture
def memory_design():
    return compile_design(MEMORY_SRC, top="scratchpad")


@pytest.fixture
def hierarchy_design():
    return compile_design(HIERARCHY_SRC, top="wrapper")


@pytest.fixture
def fsm_design():
    return compile_design(CASE_FSM_SRC, top="fsm")


@pytest.fixture
def counter_stimulus():
    return RandomStimulus(
        {"en": 1, "load": 1, "din": 4},
        cycles=50,
        clock="clk",
        per_cycle=lambda c, v: dict(v, rst=1 if c < 2 else 0),
        seed=7,
    )


@pytest.fixture
def mux_stimulus():
    return RandomStimulus(
        {"sel": 1, "a": 8, "b": 8, "c": 8},
        cycles=50,
        clock="clk",
        per_cycle=lambda c, v: dict(v, rst=1 if c < 2 else 0),
        seed=11,
    )


@pytest.fixture
def memory_stimulus():
    return RandomStimulus(
        {"we": 1, "waddr": 3, "raddr": 3, "wdata": 8},
        cycles=60,
        clock="clk",
        per_cycle=lambda c, v: dict(v, rst=1 if c < 2 else 0),
        seed=13,
    )


@pytest.fixture
def fsm_stimulus():
    return RandomStimulus(
        {"go": 1, "stop": 1},
        cycles=60,
        clock="clk",
        per_cycle=lambda c, v: dict(v, rst=1 if c < 2 else 0),
        seed=17,
    )
