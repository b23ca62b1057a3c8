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
