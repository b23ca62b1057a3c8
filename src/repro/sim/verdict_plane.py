"""The shared-memory verdict plane: zero-copy fault verdicts across processes.

A one-worker campaign of :func:`repro.sim.parallel.run_multiprocess` learns
its verdicts from the pickled ``name -> cycle`` dict its one chunk returns.  A
pooled campaign also keeps one :mod:`multiprocessing.shared_memory` segment
every process maps: workers write each detection the moment their observation
drops the lane, and the parent reads the same bytes zero-copy — for live
progress streaming, for skipping what a failed chunk attempt already
detected, and for salvaging partial verdicts when a worker dies mid-campaign.

Wire format
-----------

Faults are addressed by their *global index* — their position in the
campaign's :class:`~repro.fault.faultlist.FaultList`; every chunk carries the
positions of its faults.  The segment layout is::

    offset 0      4 bytes   magic b"RVP1" (layout version stamp)
    offset 4      4 bytes   uint32 fault count N (little-endian)
    offset 8      N bytes   detection flags, one BYTE per fault (0/1)
    (pad to a 4-byte boundary)
    ...           4*N bytes uint32 detection cycles, native-endian

Two deliberate choices make the plane lock-free:

* **One byte per fault, not one bit.**  Chunk boundaries do not respect byte
  boundaries, so a bit-packed table would need read-modify-write on bytes two
  workers share — a lost-update race.  Whole-byte stores never read, so each
  flag has exactly one writer and plain stores are race-free.  The 8x size
  cost is noise: the full sha256_c2v fault population costs ~70 KiB.
* **The cycle is written before the flag.**  Concurrent readers (the parent's
  progress poll and proven-chunk check, a retried chunk's start filter) only
  ever act on the *flags*; cycles are read for verdicts only after the
  writing process has exited (pool shutdown or death are both full
  barriers), so a reordered or torn cycle store can never reach a verdict.
  Detection cycles are deterministic per fault, so even the one multi-writer
  case — re-marking an already-seeded fault — writes identical bytes.

Lifecycle: the campaign parent :meth:`~VerdictPlane.create`\\ s the segment,
named after its pid (:func:`segment_prefix`), and is the only process that
:meth:`~VerdictPlane.unlink`\\ s it (in a ``finally``, so crashed campaigns
do not leak ``/dev/shm`` entries); workers
:meth:`~VerdictPlane.attach` by name and are detached from the
``resource_tracker`` so a worker's exit cannot tear the segment down under the
rest of the fleet.
"""

from __future__ import annotations

import os
import secrets
import struct
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.errors import SimulationError

if TYPE_CHECKING:  # imported lazily at runtime: an import cycle, or shared memory
    from multiprocessing.shared_memory import SharedMemory

    from repro.fault.faultlist import FaultList

#: Layout version stamp at offset 0; bump when the wire format changes.
MAGIC = b"RVP1"

#: Bytes before the flag table: the magic plus the uint32 fault count.
_HEADER_BYTES = 8


def segment_prefix(pid: Optional[int] = None) -> str:
    """Name prefix of the segments process ``pid`` (default: this one) creates.

    A plane's segment is named ``rvp<pid>_<8 hex digits>``, so a leak check
    can tell the planes one process created from other processes' planes,
    and the name stays under macOS's 31-character limit.
    """
    return f"rvp{os.getpid() if pid is None else pid}_"


def _cycles_offset(n_faults: int) -> int:
    """Start of the uint32 cycle table: the flag table padded to 4 bytes."""
    return (_HEADER_BYTES + n_faults + 3) & ~3


def _segment_size(n_faults: int) -> int:
    """Total segment size for ``n_faults`` (header + flags + pad + cycles)."""
    return _cycles_offset(n_faults) + 4 * n_faults


def _open_untracked(name: str) -> "SharedMemory":
    """Map an existing segment WITHOUT registering it for cleanup.

    Every ``SharedMemory`` constructor call registers the segment with the
    ``multiprocessing.resource_tracker``, which unlinks anything still
    registered when the owning process tree winds down — correct for the
    creating parent, wrong for attaching workers: their registrations would
    tear the segment down under the rest of the campaign, and duplicate
    register/unregister pairs from sibling workers race in the shared
    tracker daemon (spurious ``KeyError`` noise on stderr).  Python 3.13
    grew ``track=False`` for exactly this; on older versions the only seam
    is suppressing the constructor's ``register`` call.
    """
    from multiprocessing.shared_memory import SharedMemory

    try:
        return SharedMemory(name=name, track=False)  # type: ignore[call-arg]
    except TypeError:  # pragma: no cover - Python < 3.13
        pass
    from multiprocessing import resource_tracker

    original_register = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None  # type: ignore[assignment]
    try:
        return SharedMemory(name=name)
    finally:
        resource_tracker.register = original_register


class VerdictPlane:
    """A shared detection-flag + detection-cycle table over one fault list.

    See the module docstring for the wire format and the lock-free write
    discipline.  The parent constructs with :meth:`create`, ships
    :attr:`name` to workers through the pool initializer, and workers map the
    same physical memory with :meth:`attach`.
    """

    def __init__(
        self, shm: "SharedMemory", n_faults: int, owner: bool
    ) -> None:
        """Wrap an already-open segment; use :meth:`create`/:meth:`attach`."""
        self._shm = shm
        self.n_faults = n_faults
        self.owner = owner
        self._closed = False
        buf = shm.buf
        self._flags = buf[_HEADER_BYTES : _HEADER_BYTES + n_faults]
        start = _cycles_offset(n_faults)
        self._cycles = buf[start : start + 4 * n_faults].cast("I")

    # -------------------------------------------------------------- lifecycle
    @classmethod
    def create(cls, n_faults: int) -> "VerdictPlane":
        """Create (and zero) a fresh plane sized for ``n_faults`` verdicts.

        Raises ``OSError`` where POSIX shared memory is unavailable (e.g. a
        container without ``/dev/shm``); :func:`repro.sim.parallel.run_multiprocess`
        catches that and falls back to the pickled-dict result path.
        """
        if n_faults < 1:
            raise SimulationError("a verdict plane needs at least one fault")
        from multiprocessing.shared_memory import SharedMemory

        size = _segment_size(n_faults)
        while True:
            name = segment_prefix() + secrets.token_hex(4)
            try:
                shm = SharedMemory(name=name, create=True, size=size)
                break
            except FileExistsError:  # a clash with a live name: draw another
                continue
        # shm segments are zero-filled on every platform CI covers, but the
        # spec does not promise it — and a stale flag IS a wrong verdict
        shm.buf[:size] = b"\x00" * size
        shm.buf[0:4] = MAGIC
        struct.pack_into("<I", shm.buf, 4, n_faults)
        return cls(shm, n_faults, owner=True)

    @classmethod
    def attach(cls, name: str) -> "VerdictPlane":
        """Map an existing plane by segment name (the worker side).

        The fault count is read back from the header, which is also the
        cheap corruption check: a segment without the magic is refused.
        Attached segments are never resource-tracked — only the creating
        parent may unlink (see :func:`_open_untracked`).
        """
        shm = _open_untracked(name)
        if bytes(shm.buf[0:4]) != MAGIC:
            shm.close()
            raise SimulationError(
                f"shared-memory segment {name!r} is not a verdict plane "
                f"(bad magic; expected {MAGIC!r})"
            )
        (n_faults,) = struct.unpack_from("<I", shm.buf, 4)
        if shm.size < _segment_size(n_faults):
            shm.close()
            raise SimulationError(
                f"verdict plane {name!r} is truncated: header promises "
                f"{n_faults} faults but the segment holds {shm.size} bytes"
            )
        return cls(shm, n_faults, owner=False)

    @property
    def name(self) -> str:
        """The segment name workers attach by."""
        return self._shm.name

    def close(self) -> None:
        """Release this process's mapping (the segment itself survives)."""
        if self._closed:
            return
        self._closed = True
        self._flags.release()
        self._cycles.release()
        self._shm.close()

    def unlink(self) -> None:
        """Destroy the segment system-wide; only the creating parent calls this."""
        self._shm.unlink()

    def __enter__(self) -> "VerdictPlane":
        """Context-manager entry: the plane itself."""
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Close the mapping and, for the owner, unlink the segment."""
        self.close()
        if self.owner:
            self.unlink()

    # ----------------------------------------------------------------- writes
    def mark(self, index: int, cycle: int) -> None:
        """Record fault ``index`` as detected at ``cycle`` (idempotent).

        The cycle store precedes the flag store — the ordering that keeps
        concurrent flag readers from ever acting on a half-written record
        (see the module docstring).  Cycles are stored as uint32.
        """
        self._cycles[index] = cycle & 0xFFFFFFFF
        self._flags[index] = 1

    def seed(self, index: int, cycle: int) -> None:
        """Pre-mark a verdict known before the campaign starts (a seed)."""
        self.mark(index, cycle)

    # ------------------------------------------------------------------ reads
    def is_detected(self, index: int) -> bool:
        """Has fault ``index`` been marked detected (by any process)?"""
        return self._flags[index] != 0

    def cycle(self, index: int) -> Optional[int]:
        """Detection cycle of fault ``index``, or ``None`` while undetected."""
        if self._flags[index] == 0:
            return None
        return self._cycles[index]

    def detected_count(self) -> int:
        """Total detections so far — the live progress counter (monotone)."""
        return bytes(self._flags).count(1)

    def detected_among(self, indexes: List[int]) -> List[int]:
        """Subset of ``indexes`` whose faults are flagged.

        A chunk whose positions are all flagged is proven and need not run.
        """
        flags = self._flags
        return [index for index in indexes if flags[index]]

    def named_detections(self, faults: "FaultList") -> Dict[str, int]:
        """The merged campaign verdict: ``fault name -> detection cycle``.

        ``faults`` must be the fault list the plane was created over (global
        index ``i`` names ``faults[i]``).  Only call once the writers are
        done or dead — cycle reads are only barrier-safe then.
        """
        flags = bytes(self._flags)
        cycles = self._cycles
        return {
            faults[index].name: cycles[index]
            for index in range(self.n_faults)
            if flags[index]
        }

    def __repr__(self) -> str:
        """Segment name, capacity and current detection count."""
        state = "closed" if self._closed else f"{self.detected_count()} detected"
        return f"VerdictPlane({self.name}, {self.n_faults} faults, {state})"


__all__ = ["MAGIC", "VerdictPlane"]
