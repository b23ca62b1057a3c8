"""Every corpus design's generated kernels, pinned by source digest.

The counter fixture's kernels are committed in full under
``tests/golden/emitter``; for the ten corpus designs this module pins the
sha256 of each generated source instead: serial (default passes and
``event_scheduler=False``), packed at 9 and 513 lanes, vector and Eraser.
A refactor of an emitter or an engine that changes no format version must
leave every digest as it is.

The table also pins the source of each runtime module the packed, vector
and Eraser kernels import.  A cached kernel imports whatever runtime is
installed, so a runtime edit needs a format bump as an emitter edit does.

The table's file name carries the four format versions, the way the counter
snapshots carry theirs: after a version bump the test seeds a new table and
skips; commit it and delete the old one in the same commit
(:func:`test_one_committed_digest_table` fails until both are done).
"""

import hashlib
import json
import os

import pytest

from repro.designs.registry import BENCHMARK_NAMES, get_benchmark
from repro.sim import codegen
from repro.sim.codegen import (
    CODEGEN_VERSION,
    PACKED_VERSION,
    VECTOR_VERSION,
    PackedLayout,
    generate_packed_source,
    generate_source,
    generate_vector_source,
    packed_stride,
)
from repro.sim.emitter import EmitterPasses
from repro.sim.eraser_codegen import ERASER_VERSION, generate_eraser_source

_GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
_PREFIX = "corpus-kernels-"
_TABLE = (
    f"{_PREFIX}s{CODEGEN_VERSION}-p{PACKED_VERSION}"
    f"-v{VECTOR_VERSION}-e{ERASER_VERSION}.json"
)

#: Source generator per pinned variant, each taking the compiled design.
_VARIANTS = {
    "serial": generate_source,
    "serial-es0": lambda design: generate_source(
        design, EmitterPasses(event_scheduler=False)
    ),
    "packed-9": lambda design: generate_packed_source(
        design, PackedLayout(9, packed_stride(design))
    ),
    "packed-513": lambda design: generate_packed_source(
        design, PackedLayout(513, packed_stride(design))
    ),
    "vector": generate_vector_source,
    "eraser": generate_eraser_source,
}


def corpus_digests():
    """``{benchmark: {variant: sha256 of the generated source}}``, plus the runtimes.

    The ``runtime`` row maps ``packed``, ``vector`` and ``eraser`` to the
    sha256 of the runtime module that kernel imports (read as a file, so
    NumPy stays unloaded).
    """
    table = {}
    for name in BENCHMARK_NAMES:
        design = get_benchmark(name).compile()
        table[name] = {
            variant: hashlib.sha256(generate(design).encode("utf-8")).hexdigest()
            for variant, generate in _VARIANTS.items()
        }
    sim_dir = os.path.dirname(codegen.__file__)
    table["runtime"] = {}
    for kernel in ("packed", "vector", "eraser"):
        with open(os.path.join(sim_dir, f"{kernel}_runtime.py"), "rb") as handle:
            table["runtime"][kernel] = hashlib.sha256(handle.read()).hexdigest()
    return table


@pytest.fixture(scope="module")
def digests():
    return corpus_digests()


def test_one_committed_digest_table():
    """Exactly one digest table is committed, at the current versions."""
    names = [name for name in os.listdir(_GOLDEN_DIR) if name.startswith(_PREFIX)]
    assert names == [_TABLE]


def test_corpus_kernel_sources_match_their_digests(digests):
    path = os.path.join(_GOLDEN_DIR, _TABLE)
    if not os.path.exists(path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(digests, handle, indent=1, sort_keys=True)
            handle.write("\n")
        pytest.skip(f"seeded new digest table {_TABLE}")
    with open(path, encoding="utf-8") as handle:
        golden = json.load(handle)
    drifted = sorted(
        f"{name}/{variant}"
        for name in golden.keys() | digests.keys()
        for variant in golden.get(name, {}).keys() | digests.get(name, {}).keys()
        if golden.get(name, {}).get(variant) != digests.get(name, {}).get(variant)
    )
    assert not drifted, f"generated sources drifted without a version bump: {drifted}"


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_every_corpus_kernel_ships_one_settle_function(name):
    """Each pinned variant defines ``comb_once`` or ``comb_pass``, never both.

    The engines call ``comb_once`` when a kernel defines it, so a
    ``comb_pass`` beside it is dead code every kernel compiles.
    """
    design = get_benchmark(name).compile()
    settles = {}
    for variant, generate in _VARIANTS.items():
        source = generate(design)
        settles[variant] = [fn for fn in ("comb_once", "comb_pass") if f"\ndef {fn}(" in source]
    assert all(len(fns) == 1 for fns in settles.values()), settles


def test_packed_sources_carry_their_geometry(digests):
    """A 9-lane and a 513-lane kernel of one design are different texts.

    The in-process kernel memo is keyed by source digest: two layouts with
    one text would share one namespace, and with it one lane geometry.
    """
    same = [
        name
        for name in BENCHMARK_NAMES
        if digests[name]["packed-9"] == digests[name]["packed-513"]
    ]
    assert not same
