"""Every corpus design's generated kernels, pinned by source digest.

The counter fixture's kernels are committed in full under
``tests/golden/emitter``; for the ten corpus designs this module pins the
sha256 of each generated source instead: serial (default passes and
``event_scheduler=False``), packed at 9 and 513 lanes, vector and Eraser.
A refactor of an emitter or an engine that changes no format version must
leave every digest as it is.

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
    """``{benchmark: {variant: sha256 of the generated source}}``."""
    table = {}
    for name in BENCHMARK_NAMES:
        design = get_benchmark(name).compile()
        table[name] = {
            variant: hashlib.sha256(generate(design).encode("utf-8")).hexdigest()
            for variant, generate in _VARIANTS.items()
        }
    return table


def test_one_committed_digest_table():
    """Exactly one digest table is committed, at the current versions."""
    names = [name for name in os.listdir(_GOLDEN_DIR) if name.startswith(_PREFIX)]
    assert names == [_TABLE]


def test_corpus_kernel_sources_match_their_digests():
    digests = corpus_digests()
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
