"""Helper-level tests of the vector (NumPy) runtime's ``_publish``.

The runtime is source text pasted into every vector kernel, so these tests
take ``_publish`` from a loaded kernel's namespace, the way
``tests/test_packed_runtime.py`` takes the packed helpers.  ``_publish`` is
the commit step of the NBA region.  Under the event scheduler a commit that
changes a value must stamp that signal's ``VER`` slot (a missed stamp leaves
a reader un-evaluated: a wrong verdict), and a commit that changes nothing
must leave it alone (a spurious stamp re-evaluates the reader's whole cone).
Each update shape the emitter produces is checked both ways.
"""

import pytest

np = pytest.importorskip("numpy")

from fixture_designs import MEMORY_SRC
from repro.api import compile_design
from repro.sim import codegen

LANES = 5
DEPTH = 8

#: Signal ids in the hand-built state: one scalar and one memory.
SCALAR, MEMORY = 0, 1

#: The value every scalar lane starts with.
HELD = 0b1010


@pytest.fixture(scope="module")
def publish():
    """``_publish`` from a loaded vector kernel."""
    design = compile_design(MEMORY_SRC, top="scratchpad")
    namespace, *_ = codegen.load_vector_kernel(design, use_cache=False)
    return namespace["_publish"]


def _lanes(*values):
    return np.array([values], np.uint64)


def _memory():
    mem = np.zeros((DEPTH, LANES), np.uint64)
    mem[3] = 7
    return mem


def _commit(publish, update):
    """Apply one update tuple; return (change flag, scalar, memory, VER, GC)."""
    V = [np.full((1, LANES), HELD, np.uint64), None]
    M = [None, _memory()]
    VER, GC = [4, 4], [9]
    changed = publish([update], V, M, [0, 0], [None, None], [None, None], VER, GC)
    return changed, V[SCALAR], M[MEMORY], VER, GC[0]


def _held():
    return np.full((1, LANES), HELD, np.uint64)


#: (update tuple, whether it changes a value), one pair per shape and outcome.
CASES = {
    "replace-same": ((SCALAR, None, None, _held()), False),
    "replace-new": ((SCALAR, None, None, _lanes(HELD, 0, HELD, HELD, HELD)), True),
    "lane-blend-masked-off": (
        (SCALAR, _lanes(1, 0, 0, 0, 1).astype(bool), None, _lanes(HELD, 3, 3, 3, HELD)),
        False,
    ),
    "lane-blend-new": (
        (SCALAR, _lanes(0, 0, 1, 0, 0).astype(bool), None, _lanes(0, 0, 3, 0, 0)),
        True,
    ),
    "bit-blend-masked-off": ((SCALAR, np.uint64(0b0011), None, _lanes(*[0b0110] * 5)), False),
    "bit-blend-new": ((SCALAR, np.uint64(0b0011), None, _lanes(*[0b0001] * 5)), True),
    "scatter-held-word": ((MEMORY, None, _lanes(3, 3, 0, 0, 0), _lanes(7, 7, 0, 0, 0)), False),
    "scatter-out-of-range": ((MEMORY, None, _lanes(*[DEPTH] * 5), _lanes(*[1] * 5)), False),
    "scatter-predicated-off": (
        (MEMORY, _lanes(0, 0, 0, 0, 0).astype(bool), _lanes(*[2] * 5), _lanes(*[1] * 5)),
        False,
    ),
    "scatter-new": ((MEMORY, None, _lanes(3, 3, 5, 0, 0), _lanes(7, 7, 2, 0, 0)), True),
    "overlay-same": ((MEMORY, None, True, _memory()), False),
    "overlay-new": ((MEMORY, None, True, _memory() + np.uint64(1)), True),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_publish_stamps_exactly_the_changing_commits(publish, case):
    update, changes = CASES[case]
    changed, scalar, memory, VER, GC = _commit(publish, update)
    sid = update[0]
    other = MEMORY if sid == SCALAR else SCALAR
    assert changed is changes
    assert VER[other] == 4
    if changes:
        assert VER[sid] == GC == 10
    else:
        assert VER[sid] == 4 and GC == 9
        assert np.array_equal(scalar, _held()) and np.array_equal(memory, _memory())


def test_publish_commits_the_blended_values(publish):
    """The stamped commits really land (the values the VER bump announces)."""
    _, scalar, _, _, _ = _commit(publish, CASES["lane-blend-new"][0])
    assert scalar.tolist() == [[HELD, HELD, 3, HELD, HELD]]
    _, scalar, _, _, _ = _commit(publish, CASES["bit-blend-new"][0])
    assert scalar.tolist() == [[0b1001] * LANES]
    _, _, memory, _, _ = _commit(publish, CASES["scatter-new"][0])
    assert memory[5].tolist() == [0, 0, 2, 0, 0]
