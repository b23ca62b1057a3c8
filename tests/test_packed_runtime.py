"""Helper-level tests of the packed (bigint PPSFP) runtime.

Kernels reach a helper only through the operators that need it, so no other
test sees one helper on its own.  These tests build the helpers with
:func:`~repro.sim.packed_runtime.packed_runtime` and compare the
lane-0-sharing ones (``_mrd``, ``_pshl``, ``_pshr``, ``_pmul`` and the
gathered memory write of ``_publish``) with a per-lane reference loop kept
here: every lane computed on its own, as the runtime did before lanes that
agree with lane 0 shared its result.

Words honour the emitter's invariant: each lane field is truncated to its
value's width, so the guard bit at the top of every field is clear.
"""

import random

import pytest

from repro.sim.packed_runtime import packed_runtime

#: A 4-word memory: addresses 4 and up are out of range.
DEPTH = 4
WIDTH = 12

#: The lane stride: room for 32-bit values plus the guard bit, wider than
#: WIDTH as in a kernel whose design also has 32-bit signals.
STRIDE = 33


@pytest.fixture(scope="module", params=[9, 65], ids=lambda n: f"{n}lanes")
def rt(request):
    """The constants and helpers of a packed kernel with 9 or 65 lanes."""
    return packed_runtime(request.param, STRIDE)


# ---------------------------------------------------------- word building
def _pack(rt, fields):
    return sum(value << (lane * rt["_S"]) for lane, value in enumerate(fields))


def _divergent_lanes(rt, pattern, rng):
    """The lanes (of 1.._W-1) whose deciding operand differs from lane 0's."""
    faulty = list(range(1, rt["_W"]))
    if pattern == "none":
        return set()
    if pattern == "one":
        return {rng.choice(faulty)}
    if pattern == "several":
        return set(rng.sample(faulty, min(3, len(faulty))))
    if pattern == "top8":
        # the top eight adjacent plus one low lane: the dense lane walk also
        # rewrites the lanes in between, which share lane 0's result
        return set(faulty[-8:]) | {1}
    return set(faulty)  # "all"


PATTERNS = ["none", "one", "several", "top8", "all"]


def _operand(rt, pattern, rng, lane0, draw):
    """A word whose lanes equal ``lane0`` except the pattern's, which differ."""
    divergent = _divergent_lanes(rt, pattern, rng)
    fields = []
    for lane in range(rt["_W"]):
        value = lane0
        if lane in divergent:
            while value == lane0:
                value = draw()
        fields.append(value)
    return _pack(rt, fields)


def _random_word(rt, rng, width=WIDTH):
    return _pack(rt, [rng.getrandbits(width) for _ in range(rt["_W"])])


def _lane_fields(rt, word):
    return [(word >> off) & rt["_SM"] for off in range(0, rt["_W"] * rt["_S"], rt["_S"])]


# ------------------------------------------------- per-lane reference loops
def _ref_mrd(rt, mem, ovl, ix):
    r = 0
    for off in range(0, rt["_W"] * rt["_S"], rt["_S"]):
        a = (ix >> off) & rt["_SM"]
        if a < len(mem):
            wv = ovl.get(a, mem[a]) if ovl is not None else mem[a]
            r |= wv & (rt["_SM"] << off)
    return r


def _ref_pshl(rt, a, b, w, m):
    r = 0
    for off in range(0, rt["_W"] * rt["_S"], rt["_S"]):
        s = (b >> off) & rt["_SM"]
        if s < w:
            r |= ((((a >> off) & rt["_SM"]) << s) & m) << off
    return r


def _ref_pshr(rt, a, b, w):
    r = 0
    for off in range(0, rt["_W"] * rt["_S"], rt["_S"]):
        s = (b >> off) & rt["_SM"]
        if s < w:
            r |= (((a >> off) & rt["_SM"]) >> s) << off
    return r


def _ref_pmul(rt, a, b, m):
    r = 0
    for off in range(0, rt["_W"] * rt["_S"], rt["_S"]):
        r |= ((((a >> off) & rt["_SM"]) * ((b >> off) & rt["_SM"])) & m) << off
    return r


def _ref_gathered_write(rt, mem, wm, wi, val):
    mem = list(mem)
    changed = False
    for off in range(0, rt["_W"] * rt["_S"], rt["_S"]):
        lanebits = wm & (rt["_SM"] << off)
        if lanebits:
            a = (wi >> off) & rt["_SM"]
            if a < len(mem):
                old = mem[a]
                nv = (old & ~lanebits) | (val & lanebits)
                if old != nv:
                    mem[a] = nv
                    changed = True
    return mem, changed


# ------------------------------------------------------------------ tests
def test_lanes_walks_flagged_lanes_top_down(rt):
    S, W = rt["_S"], rt["_W"]
    assert rt["_lanes"](0) == []
    flagged = [W - 1, 3, 1]
    rest = sum(1 << (lane * S) for lane in flagged)
    assert rt["_lanes"](rest) == [lane * S for lane in flagged]
    # eight adjacent flags at the top: every lane below is listed too
    top8 = sum(1 << (lane * S) for lane in range(W - 8, W))
    assert rt["_lanes"](top8) == [lane * S for lane in range(W - 1, -1, -1)]
    if W > 9:  # eight flags with a gap among them: only the flagged lanes
        gapped = list(range(W - 1, W - 8, -1)) + [W - 9, 1]
        rest = sum(1 << (lane * S) for lane in gapped)
        assert rt["_lanes"](rest) == [lane * S for lane in gapped]


@pytest.mark.parametrize("pattern", PATTERNS)
@pytest.mark.parametrize("overlay", [False, True], ids=["plain", "overlay"])
@pytest.mark.parametrize("lane0", [1, DEPTH + 2], ids=["in-range", "out-of-range"])
def test_mrd_matches_per_lane_reference(rt, pattern, overlay, lane0):
    rng = random.Random(f"mrd-{pattern}-{overlay}-{lane0}")
    mem = [_random_word(rt, rng) for _ in range(DEPTH)]
    ovl = {1: _random_word(rt, rng), 3: _random_word(rt, rng)} if overlay else None
    for _ in range(4):
        # divergent addresses span in-range and out-of-range words
        ix = _operand(rt, pattern, rng, lane0, lambda: rng.randrange(2 * DEPTH))
        assert rt["_mrd"](mem, ovl, ix) == _ref_mrd(rt, mem, ovl, ix)


@pytest.mark.parametrize("pattern", PATTERNS)
@pytest.mark.parametrize("lane0", [0, 5, WIDTH, WIDTH + 3], ids=lambda s: f"s0={s}")
def test_shifts_match_per_lane_reference(rt, pattern, lane0):
    rng = random.Random(f"shift-{pattern}-{lane0}")
    m = (1 << WIDTH) - 1
    for _ in range(4):
        a = _random_word(rt, rng)
        # divergent amounts include ones at and past the width
        b = _operand(rt, pattern, rng, lane0, lambda: rng.randrange(WIDTH + 4))
        assert rt["_pshl"](a, b, WIDTH, m) == _ref_pshl(rt, a, b, WIDTH, m)
        assert rt["_pshr"](a, b, WIDTH) == _ref_pshr(rt, a, b, WIDTH)


@pytest.mark.parametrize("pattern", PATTERNS)
@pytest.mark.parametrize("diverging", ["a", "b", "both"])
def test_pmul_matches_per_lane_reference(rt, pattern, diverging):
    rng = random.Random(f"pmul-{pattern}-{diverging}")
    m = (1 << WIDTH) - 1
    for _ in range(4):
        a0, b0 = rng.getrandbits(WIDTH), rng.getrandbits(WIDTH)
        a = _pack(rt, [a0] * rt["_W"])
        b = _pack(rt, [b0] * rt["_W"])
        draw = lambda: rng.getrandbits(WIDTH)  # noqa: E731
        if diverging in ("a", "both"):
            a = _operand(rt, pattern, rng, a0, draw)
        if diverging in ("b", "both"):
            b = _operand(rt, pattern, rng, b0, draw)
        assert rt["_pmul"](a, b, m) == _ref_pmul(rt, a, b, m)


@pytest.mark.parametrize("pattern", PATTERNS)
@pytest.mark.parametrize("lane0", [2, DEPTH + 1], ids=["in-range", "out-of-range"])
@pytest.mark.parametrize("predicate", ["all", "some"])
def test_publish_gathered_write_matches_per_lane_reference(
    rt, pattern, lane0, predicate
):
    rng = random.Random(f"publish-{pattern}-{lane0}-{predicate}")
    W = rt["_W"]
    for attempt in range(4):
        mem = [_random_word(rt, rng) for _ in range(DEPTH)]
        wi = _operand(rt, pattern, rng, lane0, lambda: rng.randrange(2 * DEPTH))
        active = [predicate == "all" or rng.random() < 0.5 for _ in range(W)]
        p = _pack(rt, [int(flag) for flag in active])
        wm = (p << WIDTH) - p
        # the last attempt writes back what every lane already holds
        val = _random_word(rt, rng) if attempt < 3 else _ref_mrd(rt, mem, None, wi)
        expected_mem, expected_changed = _ref_gathered_write(rt, mem, wm, wi, val)
        M, VER, GC = [list(mem)], [1], [1]
        changed = rt["_publish"]([(0, wm, wi, val)], [0], M, [0], [0], [0], VER, GC)
        assert M[0] == expected_mem
        assert changed == expected_changed
        assert (VER[0] > 1) == expected_changed
        if attempt == 3:
            assert not changed


def test_reference_words_exercise_every_pattern(rt):
    """The operand builder really yields 0, 1, several and all divergent lanes."""
    rng = random.Random(0)
    counts = {}
    for pattern in PATTERNS:
        word = _operand(rt, pattern, rng, 3, lambda: rng.randrange(8))
        counts[pattern] = sum(1 for value in _lane_fields(rt, word)[1:] if value != 3)
    W = rt["_W"]
    assert counts == {
        "none": 0,
        "one": 1,
        "several": 3,
        "top8": min(9, W - 1),
        "all": W - 1,
    }
