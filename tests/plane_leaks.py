"""The verdict-plane leak check behind the suite's autouse fixture.

An importable, uniquely-named helper (like :mod:`fixture_designs`), so the
check itself can be tested without ``from conftest import ...``.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, Optional, Set

from repro.sim.verdict_plane import MAGIC, segment_prefix

#: Where Linux exposes POSIX shared-memory segments as files.  The verdict
#: plane's magic is at offset 0 of every segment, so a scan is a 4-byte read
#: per candidate.
SHM_DIR = "/dev/shm"


def verdict_plane_segments(pid: Optional[int] = None) -> Set[str]:
    """Names of live segments stamped with the plane magic.

    With ``pid``, only the segments that process created (their names carry
    it, see :func:`~repro.sim.verdict_plane.segment_prefix`).
    """
    try:
        entries = os.listdir(SHM_DIR)
    except OSError:  # non-Linux / no shm mount: the scan degrades to a no-op
        return set()
    prefix = "" if pid is None else segment_prefix(pid)
    found = set()
    for entry in entries:
        if not entry.startswith(prefix):
            continue
        try:
            with open(os.path.join(SHM_DIR, entry), "rb") as handle:
                if handle.read(4) == MAGIC:
                    found.add(entry)
        except OSError:  # raced with deletion, or unreadable — not a leak
            continue
    return found


@contextmanager
def no_leaked_verdict_planes() -> Iterator[None]:
    """Fail if the block strands a verdict plane this process created.

    Campaigns promise to unlink their plane on *every* exit path (success,
    salvage, KeyboardInterrupt).  Only the planes this process created during
    the block count: pool workers only attach to the parent's plane, and
    another process's campaign (a benchmark, a second test run) running
    meanwhile is not this process's leak.
    """
    pid = os.getpid()
    before = verdict_plane_segments(pid)
    yield
    leaked = verdict_plane_segments(pid) - before
    assert not leaked, (
        f"test leaked verdict-plane shared-memory segment(s): {sorted(leaked)}"
    )
