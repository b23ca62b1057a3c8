"""Persistent campaign result cache keyed by (design, stimulus, fault).

Fault-simulation verdicts are pure functions of three inputs: the design (its
content fingerprint, the same sha256 the codegen disk cache keys kernels on),
the stimulus (every per-cycle input vector plus the clock name), and the fault
itself.  That makes campaign results perfectly cacheable — the heavy-traffic
case for a fault-simulation service is *repeated or overlapping* campaigns
over the same (design, stimulus) pair, and every repeated fault is an
expensive upstream computation with a cheap replay.

:class:`ResultCache` stores per-fault verdicts in a content-addressed on-disk
layout mirroring the codegen cache conventions
(:data:`~repro.sim.codegen.CACHE_ENV_VAR` / ``~/.cache/repro-codegen``):

* root: ``~/.cache/repro-results`` unless :data:`CACHE_ENV_VAR`
  (``REPRO_RESULT_CACHE``) overrides it;
* one directory per design fingerprint, one JSON shard per stimulus hash:
  ``<root>/<design_fingerprint>/<stimulus_hash>.json``;
* inside a shard, one entry per fault name mapping to its detection cycle —
  or ``null`` for a fault *proven undetected* over the full stimulus, so a
  warm replay does not re-simulate the undetected tail (usually the most
  expensive faults of a campaign).

Shards are written read-merge-replace atomically (temp file in the target
directory, fsync, ``os.replace``), so a crashed writer can never leave a
torn shard, and overlapping campaigns over the same pair accumulate into one
shard instead of clobbering each other.  All cache I/O is best-effort: an
unreadable shard is an empty one and a failed write is a skipped write —
a broken disk may cost speed, never a verdict.

Invalidation is purely structural: any change to the design source, the
stimulus vectors, the clock, or the cycle count changes the key, which
changes the path, which misses.  Nothing is ever consulted across a changed
key, so stale entries cannot leak — they only age until :meth:`ResultCache.gc`
(or ``tools/result_cache_ctl.py``) reclaims them by age or total size.

:func:`stimulus_hash` is the stimulus half of the key: a stable sha256 over
the flattened per-cycle vectors plus the clock name, independent of *how* the
stimulus was built (a registry builder, raw vectors, or a
:class:`~repro.sim.parallel.WorkloadSpec` round-trip all hash identically as
long as the cycles agree).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from typing import Dict, Iterable, List, NamedTuple, Optional

from repro.errors import SimulationError
from repro.sim.stimulus import Stimulus

#: Environment variable overriding the default on-disk cache location.
CACHE_ENV_VAR = "REPRO_RESULT_CACHE"

#: Shard format version: bump on any layout/semantics change so older shards
#: are ignored rather than misread.
CACHE_VERSION = 1

#: The ``cache_mode=`` values campaigns accept: ``read`` consults the cache
#: without writing (useful for timing runs and read-only filesystems),
#: ``readwrite`` is the default.  A campaign without ``cache=`` uses none.
CACHE_MODES = ("read", "readwrite")

#: Hard default for the ``cache_mode`` campaign knob.
DEFAULT_CACHE_MODE = "readwrite"

#: Domain separator baked into every stimulus hash; bumping it invalidates
#: every cached campaign at once (use when vector semantics change).
_STIMULUS_HASH_DOMAIN = b"repro-stimulus-v1"


def cache_dir() -> str:
    """The result-cache root: ``$REPRO_RESULT_CACHE`` or ``~/.cache/repro-results``."""
    override = os.environ.get(CACHE_ENV_VAR)
    if override:
        return override
    return os.path.join(os.path.expanduser("~"), ".cache", "repro-results")


def stimulus_hash(stimulus: Stimulus) -> str:
    """A stable content hash of a stimulus: every vector plus the clock name.

    The digest covers the clock name, the cycle count and, for every cycle,
    the ``(input name, value)`` pairs in sorted-name order — exactly the
    information :meth:`WorkloadSpec.with_stimulus` flattens, so a stimulus
    and its vector-flattened round-trip hash identically while *any* change
    to a vector value, the clock, or the number of cycles produces a
    different hash.
    """
    digest = hashlib.sha256()
    digest.update(_STIMULUS_HASH_DOMAIN)
    digest.update(b"\x00clock=")
    digest.update(repr(stimulus.clock).encode("utf-8"))
    for cycle in range(stimulus.num_cycles()):
        digest.update(b"\x00cycle\x00")
        vector = stimulus.vector(cycle)
        for name in sorted(vector):
            digest.update(f"{name}={vector[name]:x};".encode("utf-8"))
    return digest.hexdigest()


def _check_key(kind: str, value: str) -> str:
    """Reject key halves that are not plain hex digests (they become paths)."""
    if not value or not all(c in "0123456789abcdef" for c in value):
        raise SimulationError(f"result-cache {kind} must be a hex digest, got {value!r}")
    return value


class CacheEntry(NamedTuple):
    """One on-disk shard: a (design fingerprint, stimulus hash) verdict set."""

    path: str
    design_fingerprint: str
    stimulus_hash: str
    design_name: str
    cycles: int
    faults: int
    detected: int
    size: int
    mtime: float


class ResultCache:
    """Content-addressed persistent store of per-fault campaign verdicts.

    One instance wraps one cache root directory (created lazily on the first
    write).  ``lookup``/``store`` are the campaign-facing API;
    ``entries``/``status``/``gc`` back the ``tools/result_cache_ctl.py``
    maintenance CLI.  Instances hold no open files and may be shared freely.
    """

    __slots__ = ("root",)

    def __init__(self, root: Optional[str] = None) -> None:
        """Wrap ``root`` (default: :func:`cache_dir`); nothing touches disk yet."""
        self.root = os.path.abspath(root if root is not None else cache_dir())

    @classmethod
    def coerce(cls, value: object) -> Optional["ResultCache"]:
        """Normalize a ``cache=`` argument: None, True, a path, or an instance.

        ``None`` means "no cache" (returns ``None``), ``True`` opens the
        default directory, a string/path opens that directory, and an
        existing :class:`ResultCache` passes through.  Anything else is a
        configuration error worth failing loudly on.
        """
        if value is None:
            return None
        if isinstance(value, cls):
            return value
        if value is True:
            return cls()
        if isinstance(value, (str, os.PathLike)):
            return cls(os.fspath(value))
        raise SimulationError(
            f"cache= expects a ResultCache, a directory path or True, got {value!r}"
        )

    # ---------------------------------------------------------------- layout
    def entry_path(self, design_fingerprint: str, stim_hash: str) -> str:
        """The shard path for one (design fingerprint, stimulus hash) pair."""
        _check_key("design fingerprint", design_fingerprint)
        _check_key("stimulus hash", stim_hash)
        return os.path.join(self.root, design_fingerprint, f"{stim_hash}.json")

    def _read_shard(self, path: str) -> Dict[str, object]:
        """Parse one shard; any I/O or format problem reads as an empty shard."""
        try:
            with open(path, "r", encoding="utf-8") as handle:
                shard = json.load(handle)
        except (OSError, ValueError):
            return {}
        if not isinstance(shard, dict) or shard.get("version") != CACHE_VERSION:
            return {}
        verdicts = shard.get("verdicts")
        if not isinstance(verdicts, dict):
            return {}
        return shard

    # ----------------------------------------------------------- campaign API
    def load(self, design_fingerprint: str, stim_hash: str) -> Dict[str, Optional[int]]:
        """Every cached verdict for one campaign key: ``name -> cycle | None``."""
        shard = self._read_shard(self.entry_path(design_fingerprint, stim_hash))
        verdicts = shard.get("verdicts", {})
        return {
            name: cycle
            for name, cycle in verdicts.items()
            if cycle is None or isinstance(cycle, int)
        }

    def lookup(
        self, design_fingerprint: str, stim_hash: str, names: Iterable[str]
    ) -> Dict[str, Optional[int]]:
        """The subset of ``names`` with cached verdicts (``None`` = undetected)."""
        verdicts = self.load(design_fingerprint, stim_hash)
        return {name: verdicts[name] for name in names if name in verdicts}

    def store(
        self,
        design_fingerprint: str,
        stim_hash: str,
        verdicts: Dict[str, Optional[int]],
        design_name: str = "",
        clock: Optional[str] = None,
        cycles: int = 0,
    ) -> bool:
        """Merge ``verdicts`` into the shard and rewrite it atomically.

        Read-merge-replace: existing entries survive, new entries win on
        overlap (verdicts are deterministic, so an overlap can only rewrite
        the same value).  The replacement is atomic — temp file next to the
        target, fsync, ``os.replace`` — and best-effort: on any ``OSError``
        (read-only filesystem, disk full) the write is skipped and ``False``
        is returned rather than failing the campaign that produced the
        verdicts.
        """
        path = self.entry_path(design_fingerprint, stim_hash)
        merged = self.load(design_fingerprint, stim_hash)
        merged.update(verdicts)
        shard = {
            "version": CACHE_VERSION,
            "design": design_name,
            "design_fingerprint": design_fingerprint,
            "stimulus_hash": stim_hash,
            "clock": clock,
            "cycles": cycles,
            "updated": time.time(),
            "verdicts": merged,
        }
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            fd, temp = tempfile.mkstemp(
                dir=os.path.dirname(path), prefix=".shard-", suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    json.dump(shard, handle, sort_keys=True)
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(temp, path)
            except BaseException:
                try:
                    os.unlink(temp)
                except OSError:
                    pass
                raise
        except OSError:
            return False
        return True

    # -------------------------------------------------------- maintenance API
    def entries(self) -> List[CacheEntry]:
        """Every shard under the root, sorted oldest-first (unreadable: skipped)."""
        found: List[CacheEntry] = []
        try:
            fingerprints = sorted(os.listdir(self.root))
        except OSError:
            return found
        for fingerprint in fingerprints:
            directory = os.path.join(self.root, fingerprint)
            try:
                names = sorted(os.listdir(directory))
            except OSError:
                continue
            for name in names:
                if not name.endswith(".json"):
                    continue
                path = os.path.join(directory, name)
                try:
                    info = os.stat(path)
                except OSError:
                    continue
                shard = self._read_shard(path)
                verdicts = shard.get("verdicts", {})
                found.append(
                    CacheEntry(
                        path=path,
                        design_fingerprint=fingerprint,
                        stimulus_hash=name[: -len(".json")],
                        design_name=str(shard.get("design", "")),
                        cycles=int(shard.get("cycles", 0) or 0),
                        faults=len(verdicts),
                        detected=sum(1 for c in verdicts.values() if c is not None),
                        size=info.st_size,
                        mtime=info.st_mtime,
                    )
                )
        found.sort(key=lambda entry: (entry.mtime, entry.path))
        return found

    def status(self) -> Dict[str, object]:
        """Aggregate dashboard numbers over every shard (for the ctl CLI)."""
        entries = self.entries()
        return {
            "root": self.root,
            "entries": len(entries),
            "designs": len({entry.design_fingerprint for entry in entries}),
            "faults": sum(entry.faults for entry in entries),
            "detected": sum(entry.detected for entry in entries),
            "size_bytes": sum(entry.size for entry in entries),
            "oldest": entries[0].mtime if entries else None,
            "newest": entries[-1].mtime if entries else None,
        }

    def gc(
        self,
        max_age_days: Optional[float] = None,
        max_size_mb: Optional[float] = None,
        now: Optional[float] = None,
    ) -> List[CacheEntry]:
        """Reclaim shards by age, then oldest-first until the size budget fits.

        ``max_age_days`` drops every shard whose mtime is older than the
        cutoff; ``max_size_mb`` then evicts the oldest survivors until the
        total on-disk size is within budget.  Returns the evicted entries.
        Verdicts are pure, so eviction can never make a later campaign wrong
        — only cold.
        """
        entries = self.entries()
        now = time.time() if now is None else now
        removed: List[CacheEntry] = []
        kept: List[CacheEntry] = []
        cutoff = None if max_age_days is None else now - max_age_days * 86400.0
        for entry in entries:
            if cutoff is not None and entry.mtime < cutoff:
                removed.append(entry)
            else:
                kept.append(entry)
        if max_size_mb is not None:
            budget = max_size_mb * 1024.0 * 1024.0
            total = sum(entry.size for entry in kept)
            survivors: List[CacheEntry] = []
            for index, entry in enumerate(kept):
                if total > budget:
                    removed.append(entry)
                    total -= entry.size
                else:
                    survivors.extend(kept[index:])
                    break
            kept = survivors
        for entry in removed:
            try:
                os.unlink(entry.path)
            except OSError:
                continue
            directory = os.path.dirname(entry.path)
            try:
                os.rmdir(directory)  # only succeeds once the fingerprint is empty
            except OSError:
                pass
        return removed

    def __repr__(self) -> str:
        """The root directory this instance wraps."""
        return f"ResultCache({self.root!r})"


__all__ = [
    "CACHE_ENV_VAR",
    "CACHE_MODES",
    "CACHE_VERSION",
    "CacheEntry",
    "DEFAULT_CACHE_MODE",
    "ResultCache",
    "cache_dir",
    "stimulus_hash",
]
