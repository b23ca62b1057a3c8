"""The driver the four generated engines share, held to the reference state.

Serial codegen, the packed and NumPy lane kernels and the concurrent Eraser
kernel run one cycle protocol (:class:`~repro.sim.engine.GeneratedEngine`):
it probes a force hook into per-signal OR/AND masks once, and its peeks read
one machine out of a value word through the layout's ``_lane`` projection.
The corpus trace sweeps elsewhere compare primary outputs only; these tests
compare every scalar signal and every memory word after the run, with and
without a stuck-at force hook, against the event-driven engine.
"""

import pytest

from repro.api import make_engine
from repro.designs.registry import BENCHMARK_NAMES, get_benchmark
from repro.fault.faultlist import generate_stuck_at_faults, sample_faults
from repro.sim.engine import EventDrivenEngine

#: Cycles per benchmark, as in the corpus trace sweep of ``test_codegen.py``.
PARITY_CYCLES = 60

#: The four layouts built on the shared driver, by registry name.
GENERATED = ["codegen", "packed", "packed-numpy", "eraser-codegen"]

#: Stuck-at faults forced through a hook per benchmark.
HOOKED_FAULTS = 2


@pytest.fixture(autouse=True)
def _isolated_codegen_cache(tmp_path, monkeypatch):
    """Keep the generated kernels away from the developer's real code cache."""
    monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(tmp_path / "codegen-cache"))


def _state(engine, design):
    """Every scalar signal's value and every memory word, after a run."""
    state = {}
    for signal in design.signals:
        if signal.is_memory:
            for index in range(signal.depth):
                state[(signal.name, index)] = engine.peek_word(signal.name, index)
        else:
            state[signal.name] = engine.peek(signal.name)
    return state


def _hook(fault):
    def hook(signal, value):
        return fault.force(value) if signal is fault.signal else value

    return hook


_references = {}


def _reference(name):
    """Per benchmark: design, stimulus, then per hook (``None`` first) the
    event-driven trace and final state; computed once per test session."""
    if name not in _references:
        spec = get_benchmark(name)
        design = spec.compile()
        stimulus = spec.stimulus(cycles=PARITY_CYCLES)
        faults = sample_faults(generate_stuck_at_faults(design), HOOKED_FAULTS, seed=29)
        runs = []
        for fault in [None, *faults]:
            event = EventDrivenEngine(design, force_hook=fault and _hook(fault))
            runs.append((fault, event.run(stimulus), _state(event, design)))
        _references[name] = (design, stimulus, runs)
    return _references[name]


def _diverged(state, reference):
    return sorted(str(key) for key in reference if state[key] != reference[key])


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
@pytest.mark.parametrize("engine", GENERATED)
def test_every_signal_and_memory_word_matches_event_engine(name, engine):
    """The lane-0 projection of every value word is the reference's value."""
    if engine == "packed-numpy":
        pytest.importorskip("numpy")
    design, stimulus, runs = _reference(name)
    _, trace, reference = runs[0]
    kernel = make_engine(design, engine)
    assert kernel.run(stimulus) == trace
    diverged = _diverged(_state(kernel, design), reference)
    assert not diverged, f"{engine} diverges from event-driven on {name}: {diverged}"


@pytest.mark.parametrize("engine", GENERATED)
def test_force_hook_matches_event_engine_on_corpus(engine):
    """A stuck-at hook, probed once into per-signal masks, forces what the
    event-driven engine forces write by write: same trace, same final state."""
    if engine == "packed-numpy":
        pytest.importorskip("numpy")
    for name in BENCHMARK_NAMES:
        design, stimulus, runs = _reference(name)
        for fault, trace, reference in runs[1:]:
            kernel = make_engine(design, engine, force_hook=_hook(fault))
            assert kernel.run(stimulus) == trace, f"{engine} on {name}, {fault.name}"
            diverged = _diverged(_state(kernel, design), reference)
            assert not diverged, f"{engine} on {name}, {fault.name}: {diverged}"
