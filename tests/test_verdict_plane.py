"""Tests for the shared-memory verdict plane (repro.sim.verdict_plane).

These pin the wire format itself — magic, header, byte-per-fault flags,
padded uint32 cycle table — plus the create/attach lifecycle, the read/write
API (mark, seed, the drop-consult snapshots, named_detections), the
corruption checks on attach, and mapping cleanup.  Cross-process behaviour
(streaming, dropping, salvage) lives in test_parallel.py; everything here is
single-process on purpose so a failure names the plane, not the pool.
"""

import struct

import pytest

from repro.errors import SimulationError
from repro.fault.faultlist import generate_stuck_at_faults
from repro.sim.verdict_plane import MAGIC, VerdictPlane, _cycles_offset, _segment_size


# ------------------------------------------------------------------ lifecycle
def test_create_attach_roundtrip():
    with VerdictPlane.create(10) as plane:
        assert plane.owner and plane.n_faults == 10
        plane.mark(3, 17)
        other = VerdictPlane.attach(plane.name)
        try:
            assert not other.owner
            assert other.n_faults == 10
            assert other.is_detected(3) and other.cycle(3) == 17
            assert not other.is_detected(4) and other.cycle(4) is None
            # writes through either mapping land in the same physical bytes
            other.mark(7, 5)
            assert plane.is_detected(7) and plane.cycle(7) == 5
        finally:
            other.close()
    with pytest.raises(FileNotFoundError):
        VerdictPlane.attach(plane.name)  # the owner's __exit__ unlinked it


def test_create_rejects_empty():
    with pytest.raises(SimulationError, match="at least one fault"):
        VerdictPlane.create(0)


def test_close_is_idempotent_and_repr_survives_it():
    plane = VerdictPlane.create(4)
    name = plane.name
    assert name in repr(plane) and "0 detected" in repr(plane)
    plane.close()
    plane.close()  # second close must be a no-op, not a BufferError
    assert "closed" in repr(plane)
    # the segment still exists until the owner unlinks
    attached = VerdictPlane.attach(name)
    attached.close()
    plane.unlink()


# ---------------------------------------------------------------- wire format
def test_segment_layout_is_the_documented_wire_format():
    n = 5
    with VerdictPlane.create(n) as plane:
        plane.mark(0, 9)
        plane.mark(4, 0x1234)
        buf = plane._shm.buf
        assert bytes(buf[0:4]) == MAGIC == b"RVP1"
        assert struct.unpack_from("<I", buf, 4) == (n,)
        assert bytes(buf[8 : 8 + n]) == b"\x01\x00\x00\x00\x01"
        offset = _cycles_offset(n)
        assert offset % 4 == 0 and offset >= 8 + n
        cycles = buf[offset : offset + 4 * n].cast("I")
        assert cycles[0] == 9 and cycles[4] == 0x1234
        cycles.release()
        assert plane._shm.size >= _segment_size(n)


def test_cycle_values_are_truncated_to_uint32():
    with VerdictPlane.create(1) as plane:
        plane.mark(0, 2**40 + 3)
        assert plane.cycle(0) == 3


def test_attach_rejects_bad_magic():
    from multiprocessing import shared_memory

    shm = shared_memory.SharedMemory(create=True, size=64)
    try:
        shm.buf[0:4] = b"NOPE"
        with pytest.raises(SimulationError, match="bad magic"):
            VerdictPlane.attach(shm.name)
    finally:
        shm.close()
        shm.unlink()


def test_attach_rejects_truncated_segment():
    from multiprocessing import shared_memory

    shm = shared_memory.SharedMemory(create=True, size=16)
    try:
        shm.buf[0:4] = MAGIC
        struct.pack_into("<I", shm.buf, 4, 10_000)  # promises far more faults
        with pytest.raises(SimulationError, match="truncated"):
            VerdictPlane.attach(shm.name)
    finally:
        shm.close()
        shm.unlink()


# ------------------------------------------------------------------ reads/API
def test_mark_is_idempotent_and_counts_are_monotone():
    with VerdictPlane.create(6) as plane:
        assert plane.detected_count() == 0
        plane.mark(2, 11)
        plane.mark(2, 11)  # deterministic cycles: re-marks write the same bytes
        plane.seed(5, 4)  # the resume path is a plain mark
        assert plane.detected_count() == 2
        assert plane.cycle(2) == 11 and plane.cycle(5) == 4


def test_drop_consult_snapshots():
    with VerdictPlane.create(8) as plane:
        for index in (1, 3, 6):
            plane.mark(index, index * 10)
        assert plane.detected_among(range(0, 4)) == [1, 3]
        assert plane.detected_among(range(4, 8)) == [6]
        assert plane.detected_among([0, 1, 2, 3, 6, 7]) == [1, 3, 6]


def test_named_detections_maps_global_indexes_to_fault_names(counter_design):
    faults = generate_stuck_at_faults(counter_design)
    with VerdictPlane.create(len(faults)) as plane:
        assert plane.named_detections(faults) == {}
        plane.mark(0, 7)
        plane.mark(len(faults) - 1, 21)
        named = plane.named_detections(faults)
        assert named == {faults[0].name: 7, faults[len(faults) - 1].name: 21}


# ---------------------------------------------------------------- checkpoints
def test_checkpoint_save_load_roundtrip(tmp_path):
    path = str(tmp_path / "campaign.ckpt")
    with VerdictPlane.create(10) as plane:
        plane.mark(2, 19)
        plane.mark(9, 3)
        plane.save(path, "fp-abc")
    loaded = VerdictPlane.load(path, expect_fingerprint="fp-abc")
    try:
        assert loaded.fingerprint == "fp-abc"
        assert loaded.n_faults == 10
        assert loaded.detected_count() == 2
        assert loaded.cycle(2) == 19 and loaded.cycle(9) == 3
        assert not loaded.is_detected(0)
    finally:
        loaded.close()
    # no temp file left behind by the atomic write
    assert [p.name for p in tmp_path.iterdir()] == ["campaign.ckpt"]


def test_checkpoint_load_rejects_wrong_fingerprint(tmp_path):
    from repro.errors import CheckpointError

    path = str(tmp_path / "campaign.ckpt")
    with VerdictPlane.create(4) as plane:
        plane.save(path, "fp-one")
    with pytest.raises(CheckpointError, match="different campaign"):
        VerdictPlane.load(path, expect_fingerprint="fp-two")
    # without an expectation the stamp is surfaced, not checked
    loaded = VerdictPlane.load(path)
    assert loaded.fingerprint == "fp-one"
    loaded.close()


def test_checkpoint_load_rejects_garbage(tmp_path):
    from repro.errors import CheckpointError

    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"not a checkpoint at all")
    with pytest.raises(CheckpointError, match="bad magic"):
        VerdictPlane.load(str(bad))
    with pytest.raises(CheckpointError, match="cannot read"):
        VerdictPlane.load(str(tmp_path / "missing.ckpt"))


def test_checkpoint_load_rejects_truncation(tmp_path):
    from repro.errors import CheckpointError

    path = tmp_path / "campaign.ckpt"
    with VerdictPlane.create(8) as plane:
        plane.mark(1, 5)
        plane.save(str(path), "fp")
    blob = path.read_bytes()
    path.write_bytes(blob[:-10])
    with pytest.raises(CheckpointError, match="truncated"):
        VerdictPlane.load(str(path))


def test_checkpoint_save_cleans_its_temp_on_failure(tmp_path):
    target_dir = tmp_path / "gone"
    with VerdictPlane.create(4) as plane:
        with pytest.raises(OSError):
            plane.save(str(target_dir / "campaign.ckpt"), "fp")
    assert list(tmp_path.iterdir()) == []


def test_campaign_fingerprint_tracks_design_stimulus_and_fault_order(
    counter_design, counter_stimulus
):
    from repro.fault.faultlist import FaultList
    from repro.sim.stimulus import truncated
    from repro.sim.verdict_plane import campaign_fingerprint

    faults = generate_stuck_at_faults(counter_design)
    fp = campaign_fingerprint(counter_design, counter_stimulus, faults)
    # deterministic
    assert fp == campaign_fingerprint(counter_design, counter_stimulus, faults)
    fewer = FaultList(list(faults)[:-1])
    assert fp != campaign_fingerprint(counter_design, counter_stimulus, fewer)
    reordered = FaultList(list(faults)[::-1])
    assert fp != campaign_fingerprint(counter_design, counter_stimulus, reordered)
    shorter = truncated(counter_stimulus, counter_stimulus.num_cycles() - 1)
    assert fp != campaign_fingerprint(counter_design, shorter, faults)
