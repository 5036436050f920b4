"""Two-tier compiled-artifact store: in-memory LRU over a disk tier.

The batch runner's disk memoization (one JSON file per content-hash key)
grew into the serving layer's hot path, so it lives here as a
first-class store with the properties a long-lived service needs:

* **memory tier** — :class:`MemoryLRU`, a bounded LRU over
  deserialized artifacts, so a hot circuit costs a dict lookup instead
  of a disk read + JSON parse;
* **disk tier** — :class:`DiskTier`, one ``<key>.json`` file per
  artifact.  Writes are atomic (serialize to a unique temp file in the
  same directory, then ``os.replace``), so concurrent readers — other
  worker processes, other server instances sharing the cache
  directory — always see either the previous complete artifact or the
  new complete artifact, never a torn file;
* **corruption tolerance** — a truncated/garbage file or a malformed
  envelope is a *miss* (counted in :attr:`StoreStats.corrupt_reads`),
  never an exception: a torn cache file must not poison a worker;
* **accounting** — :class:`StoreStats` counts hits per tier, misses,
  evictions, corrupt reads and puts; the ``stats`` protocol op reads
  it.

Artifacts are JSON-serializable dicts.  On disk each is wrapped in an
envelope ``{"schema_version", "created_at", "artifact"}``; a schema
mismatch is a miss (stale entries age out instead of crashing a newer
reader), and ``created_at`` lets callers surface the artifact's age
(the run table's ``cache_age_seconds`` column).

A store is not thread-safe and needs no lock: the batch runner uses it
from one thread, and the compile service from its event loop.  There
the disk tier's reads and writes (envelopes of ~1.5 KB) run on the
loop itself: tens to hundreds of microseconds each, against a ~40 ms
cold compile (``docs/serving.md`` has the measurement).

This module is dependency-free (stdlib only) so both the eval layer and
the serving layer can import it without cycles.
"""

from __future__ import annotations

import json
import os
import pathlib
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

#: artifact tiers a hit can come from (``None`` means miss)
MEMORY_TIER = "memory"
DISK_TIER = "disk"


def atomic_write_json(
    path: pathlib.Path,
    payload: Any,
    indent: int = 1,
) -> pathlib.Path:
    """Serialize *payload* to *path* atomically (tmp + ``os.replace``).

    The canonical JSON-publish path for every artifact the repo writes:
    serialize to a pid/thread-unique temp file in the destination
    directory, then ``os.replace`` it into place, so a concurrent
    reader sees either the old complete file or the new complete file,
    never a torn one.  The concurrency linter (CC402) flags raw
    ``json.dump``/``write_text(json.dumps(...))`` sites that bypass it.
    """
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / (
        f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp"
    )
    try:
        tmp.write_text(json.dumps(payload, indent=indent, default=str))
        os.replace(tmp, path)
    except BaseException:
        # a failed write (a full disk, say) must not strand its temp file
        tmp.unlink(missing_ok=True)
        raise
    return path


@dataclass
class StoreStats:
    """Hit/miss/eviction counters for one :class:`ArtifactStore`."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    evictions: int = 0
    corrupt_reads: int = 0
    puts: int = 0

    @property
    def lookups(self) -> int:
        return self.memory_hits + self.disk_hits + self.misses

    @property
    def hit_rate(self) -> Optional[float]:
        """Fraction of lookups served from either tier (None: no lookups)."""
        if self.lookups == 0:
            return None
        return (self.memory_hits + self.disk_hits) / self.lookups

    def as_dict(self) -> Dict[str, Any]:
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "corrupt_reads": self.corrupt_reads,
            "puts": self.puts,
            "lookups": self.lookups,
            "hit_rate": self.hit_rate,
        }


class MemoryLRU:
    """Bounded LRU map: key -> artifact.

    ``get`` refreshes recency; ``put`` of an existing key refreshes and
    overwrites; inserting past ``capacity`` evicts the least recently
    used entry.  ``capacity=0`` disables the tier (every get misses,
    every put is dropped).
    """

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[str, Any]" = OrderedDict()
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def get(self, key: str) -> Optional[Any]:
        if key not in self._entries:
            return None
        self._entries.move_to_end(key)
        return self._entries[key]

    def put(self, key: str, value: Any) -> None:
        if self.capacity == 0:
            return
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = value
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def keys(self) -> Tuple[str, ...]:
        """Current keys, least recently used first."""
        return tuple(self._entries.keys())

    def clear(self) -> None:
        self._entries.clear()


class DiskTier:
    """One ``<key>.json`` envelope file per artifact, written atomically.

    The temp-file name embeds pid and thread id, so concurrent writers
    in any mix of threads and processes never collide on the temp path;
    ``os.replace`` makes the publish atomic on POSIX and Windows alike.
    """

    def __init__(self, directory: pathlib.Path) -> None:
        self.directory = pathlib.Path(directory)

    def path(self, key: str) -> pathlib.Path:
        return self.directory / f"{key}.json"

    def load(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored envelope, or ``None`` on missing/corrupt files.

        Raises nothing: unreadable or non-JSON content reports as
        ``None`` with ``was_corrupt`` queryable via :meth:`load_checked`.
        """
        envelope, _ = self.load_checked(key)
        return envelope

    def load_checked(self, key: str) -> Tuple[Optional[Dict[str, Any]], bool]:
        """``(envelope, was_corrupt)``: distinguish corrupt from absent."""
        path = self.path(key)
        try:
            text = path.read_text()
        except OSError:
            return None, False
        try:
            envelope = json.loads(text)
        except ValueError:
            return None, True
        if not isinstance(envelope, dict):
            return None, True
        return envelope, False

    def store(self, key: str, envelope: Dict[str, Any]) -> pathlib.Path:
        return atomic_write_json(self.path(key), envelope)


@dataclass
class StoreHit:
    """One successful :meth:`ArtifactStore.get`."""

    artifact: Dict[str, Any]
    tier: str
    #: seconds since the artifact was first stored (0.0 when the
    #: envelope predates age tracking)
    age_seconds: float = 0.0


@dataclass
class ArtifactStore:
    """Memory-LRU-over-disk artifact store with hit/miss accounting.

    ``cache_dir=None`` runs memory-only (useful for pure in-process
    serving); ``memory_capacity=0`` runs disk-only (the batch runner's
    historical behaviour).  ``schema_version`` guards the disk tier:
    envelopes written under a different version read as misses.
    """

    cache_dir: Optional[pathlib.Path] = None
    memory_capacity: int = 128
    schema_version: Optional[int] = None
    stats: StoreStats = field(default_factory=StoreStats)

    def __post_init__(self) -> None:
        self._memory = MemoryLRU(self.memory_capacity)
        self._disk = (
            DiskTier(pathlib.Path(self.cache_dir))
            if self.cache_dir is not None
            else None
        )

    # -- lookup --------------------------------------------------------
    def get(self, key: str) -> Optional[StoreHit]:
        """The artifact under *key*, or ``None`` (counted as a miss)."""
        value = self._memory.get(key)
        if value is not None:
            artifact, created_at = value
            self.stats.memory_hits += 1
            return StoreHit(artifact, MEMORY_TIER, self._age(created_at))
        if self._disk is not None:
            envelope, corrupt = self._disk.load_checked(key)
            artifact = self._unwrap(envelope)
            created_at = 0.0
            if envelope is not None and artifact is not None:
                stamp = envelope.get("created_at")
                if isinstance(stamp, (int, float)):
                    created_at = float(stamp)
                elif stamp is not None:  # not a JSON number: corrupt
                    artifact, corrupt = None, True
            if corrupt:
                self.stats.corrupt_reads += 1
            if artifact is not None:
                self._memory.put(key, (artifact, created_at))
                self.stats.disk_hits += 1
                self.stats.evictions = self._memory.evictions
                return StoreHit(artifact, DISK_TIER, self._age(created_at))
        self.stats.misses += 1
        return None

    def _age(self, created_at: float) -> float:
        if created_at <= 0.0:
            return 0.0
        return max(0.0, time.time() - created_at)

    def _unwrap(
        self, envelope: Optional[Dict[str, Any]]
    ) -> Optional[Dict[str, Any]]:
        if envelope is None:
            return None
        if (
            self.schema_version is not None
            and envelope.get("schema_version") != self.schema_version
        ):
            return None
        artifact = envelope.get("artifact")
        if not isinstance(artifact, dict):
            return None
        return artifact

    # -- publish -------------------------------------------------------
    def put(self, key: str, artifact: Dict[str, Any]) -> None:
        """Publish *artifact* to both tiers (disk write is atomic)."""
        created_at = time.time()
        self._memory.put(key, (artifact, created_at))
        if self._disk is not None:
            self._disk.store(
                key,
                {
                    "schema_version": self.schema_version,
                    "created_at": created_at,
                    "artifact": artifact,
                },
            )
        self.stats.puts += 1
        self.stats.evictions = self._memory.evictions

    # -- maintenance ---------------------------------------------------
    def disk_path(self, key: str) -> Optional[pathlib.Path]:
        """Where *key*'s disk entry lives (None when disk tier is off)."""
        if self._disk is None:
            return None
        return self._disk.path(key)

    def clear_memory(self) -> None:
        """Drop the memory tier (disk entries survive)."""
        self._memory.clear()
