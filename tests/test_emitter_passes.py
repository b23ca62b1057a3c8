"""Pass-level tests for the unified emitter core (``repro.sim.emitter``).

The four generated kernels (serial / packed / vector / Eraser) share one
emitter walk; the three lane layouts are parameterized by
:class:`~repro.sim.emitter.EmitterPasses`.  This module pins the pass
machinery itself:

* the one toggle, the event scheduler, can be turned off and its footprint
  in the generated source disappears with it,
* every kernel ships exactly one settle function, ``comb_once`` or
  ``comb_pass``,
* golden snapshots of the generated source for one tiny design per target,
  keyed by the emitter format version — a version bump re-seeds them,
* each pass configuration owns a distinct cache suffix, and the corrupt/
  stale-entry self-healing of the cache holds for pass variants too.
"""

import os

import pytest

from fixture_designs import COUNTER_SRC  # noqa: F401  (via conftest fixtures)
from repro.api import simulate_good
from repro.errors import SimulationError
from repro.sim import codegen as codegen_mod
from repro.sim.codegen import (
    CODEGEN_VERSION,
    PACKED_VERSION,
    VECTOR_VERSION,
    CodegenEngine,
    PackedLayout,
    design_fingerprint,
    generate_packed_source,
    generate_source,
    generate_vector_source,
    packed_stride,
)
from repro.sim.emitter import (
    DEFAULT_PASSES,
    EmitterPasses,
    coerce_passes,
)
from repro.sim.eraser_codegen import generate_eraser_source
from repro.sim.vector import np as _vector_np


@pytest.fixture(autouse=True)
def _isolated_codegen_cache(tmp_path, monkeypatch):
    """Keep every test away from the developer's real ~/.cache/repro-codegen."""
    monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(tmp_path / "codegen-cache"))


def _packed_layout(design):
    return PackedLayout(4, packed_stride(design))


#: Every pass configuration: the default and the scheduler turned off.
_CONFIGS = (DEFAULT_PASSES, EmitterPasses(event_scheduler=False))


# ------------------------------------------------------------- pass plumbing
def test_default_passes_everything_on():
    assert DEFAULT_PASSES == EmitterPasses()
    assert DEFAULT_PASSES.event_scheduler
    # the default config keeps the historical (suffix-free) cache keys
    assert DEFAULT_PASSES.suffix() == ""


def test_coerce_passes():
    assert coerce_passes(None) is DEFAULT_PASSES
    config = EmitterPasses(event_scheduler=False)
    assert coerce_passes(config) is config
    with pytest.raises(SimulationError, match="EmitterPasses"):
        coerce_passes("event_scheduler=off")


def test_suffixes_unique_across_all_configurations():
    """Each pass configuration owns a distinct cache suffix."""
    assert [config.suffix() for config in _CONFIGS] == ["", "es0"]


# --------------------------------------------------- per-pass source footprint
#: Source generator per target, all taking ``(design, passes)``.
_TARGETS = {
    "serial": generate_source,
    "packed": lambda design, passes=None: generate_packed_source(
        design, _packed_layout(design), passes
    ),
    "vector": generate_vector_source,
}


@pytest.mark.parametrize("target", sorted(_TARGETS))
def test_event_scheduler_toggle_footprint(counter_design, target):
    generate = _TARGETS[target]
    scheduled = generate(counter_design)
    flat = generate(counter_design, EmitterPasses(event_scheduler=False))
    assert "_ls = LS[" in scheduled  # last-scheduled guard reads
    assert "_ls = LS[" not in flat
    assert "VER[" in scheduled


#: Every kernel's default-pass source generator: the targets plus the Eraser kernel.
_KERNELS = {**_TARGETS, "eraser": generate_eraser_source}


@pytest.mark.parametrize("target", sorted(_KERNELS))
def test_comb_once_requires_acyclic_pure_rtl(counter_design, mux_design, target):
    """A kernel ships the single-pass settle or the looped one, never both.

    The feed-forward counter gets ``comb_once``; a design with comb
    behavioral blocks never does.
    """
    once = _KERNELS[target](counter_design)
    assert "def comb_once(" in once
    assert "def comb_pass(" not in once
    source = _KERNELS[target](mux_design)
    assert "def comb_once(" not in source
    assert "def comb_pass(" in source


def test_generation_is_deterministic_per_config(counter_design):
    layout = _packed_layout(counter_design)
    for passes in _CONFIGS:
        assert generate_source(counter_design, passes) == generate_source(
            counter_design, passes
        )
        assert generate_packed_source(
            counter_design, layout, passes
        ) == generate_packed_source(counter_design, layout, passes)
        assert generate_vector_source(counter_design, passes) == generate_vector_source(
            counter_design, passes
        )


# ----------------------------------------------------------- golden snapshots
_GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden", "emitter")

#: The snapshots as committed, listed when this module is collected: a
#: snapshot :func:`_check_golden` seeds later in the run cannot count.
_COMMITTED_GOLDEN = sorted(os.listdir(_GOLDEN_DIR)) if os.path.isdir(_GOLDEN_DIR) else []


@pytest.mark.parametrize(
    "target, version",
    [("serial", CODEGEN_VERSION), ("packed", PACKED_VERSION), ("vector", VECTOR_VERSION)],
)
def test_one_committed_golden_snapshot_per_target(target, version):
    """Each target has exactly one snapshot, and it is at the current version.

    A format-version bump must commit the new snapshot and delete the old
    one; without this check a bump with no committed snapshot would pass as
    the golden test's seed-and-skip.
    """
    names = [name for name in _COMMITTED_GOLDEN if name.startswith(f"counter-{target}-v")]
    assert names == [f"counter-{target}-v{version}.py"]


def _check_golden(filename, source):
    """Compare against the stored snapshot; seed it if the version is new.

    Snapshots are keyed by the emitter format version, so bumping
    ``CODEGEN_VERSION`` / ``PACKED_VERSION`` / ``VECTOR_VERSION`` re-seeds
    them on the next run instead of failing against stale output.  Commit
    the seeded file and delete the old version's in the same commit:
    :func:`test_one_committed_golden_snapshot_per_target` fails until both
    are done.
    """
    path = os.path.join(_GOLDEN_DIR, filename)
    if not os.path.exists(path):
        os.makedirs(_GOLDEN_DIR, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(source)
        pytest.skip(f"seeded new golden snapshot {filename}")
    with open(path, encoding="utf-8") as handle:
        golden = handle.read()
    assert source == golden, (
        f"generated source drifted from {filename} without a version bump"
    )


def test_golden_serial_source(counter_design):
    _check_golden(
        f"counter-serial-v{CODEGEN_VERSION}.py", generate_source(counter_design)
    )


def test_golden_packed_source(counter_design):
    _check_golden(
        f"counter-packed-v{PACKED_VERSION}.py",
        generate_packed_source(counter_design, _packed_layout(counter_design)),
    )


def test_golden_vector_source(counter_design):
    _check_golden(
        f"counter-vector-v{VECTOR_VERSION}.py", generate_vector_source(counter_design)
    )


# -------------------------------------------------------------- cache hygiene
def test_pass_configs_get_distinct_cache_entries(tmp_path, counter_design):
    CodegenEngine(counter_design)
    CodegenEngine(counter_design, passes=EmitterPasses(event_scheduler=False))
    cache = tmp_path / "codegen-cache"
    fingerprint = design_fingerprint(counter_design)
    names = sorted(path.name for path in cache.glob("*.py"))
    assert names == [f"{fingerprint}-es0.py", f"{fingerprint}.py"]


def test_corrupt_pass_variant_cache_entry_regenerates(
    tmp_path, counter_design, counter_stimulus
):
    """The self-healing cache contract holds for pass-variant entries too."""
    passes = EmitterPasses(event_scheduler=False)
    good = CodegenEngine(counter_design, passes=passes)
    path = (
        tmp_path
        / "codegen-cache"
        / f"{design_fingerprint(counter_design)}-{passes.suffix()}.py"
    )
    assert path.exists()
    path.write_text("def comb_pass(:  # truncated mid-write\n")
    recovered = CodegenEngine(counter_design, passes=passes)
    assert not recovered.cache_hit
    assert recovered.run(counter_stimulus) == good.run(counter_stimulus)


def test_stale_pass_variant_sidecar_recompiles(
    tmp_path, counter_design, counter_stimulus
):
    """A corrupt bytecode sidecar under a pass-variant key heals itself."""
    passes = EmitterPasses(event_scheduler=False)
    good = CodegenEngine(counter_design, passes=passes)
    sidecar = next((tmp_path / "codegen-cache").glob(f"*-{passes.suffix()}.*.bc"))
    sidecar.write_bytes(b"\x00garbage")
    codegen_mod._KERNEL_MEMO.clear()
    recovered = CodegenEngine(counter_design, passes=passes)
    assert recovered.cache_hit  # the source cache entry is still fine
    assert recovered.run(counter_stimulus) == good.run(counter_stimulus)


# ------------------------------------------------------------- config parity
def test_all_configurations_trace_parity(counter_design, counter_stimulus):
    """Every pass configuration produces the event-driven reference trace."""
    reference = simulate_good(counter_design, counter_stimulus, engine="event")
    for passes in _CONFIGS:
        engine = CodegenEngine(counter_design, use_cache=False, passes=passes)
        assert engine.run(counter_stimulus) == reference, passes


@pytest.mark.skipif(_vector_np is None, reason="NumPy not installed")
def test_vector_configurations_load(counter_design):
    """Every pass config produces a loadable vector kernel module."""
    from repro.sim.vector import VectorCodegenEngine

    for passes in _CONFIGS:
        VectorCodegenEngine(counter_design, use_cache=False, passes=passes)
