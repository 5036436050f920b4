"""Tests for the two-tier artifact store.

Covers the ISSUE-8 store contract: LRU capacity bounds and eviction
order (property-tested against a dict+deque model), hit/miss/eviction
accounting, atomic writes (no torn files when threads or processes
share a cache directory), and corruption-tolerant reads.
"""

import errno
import hashlib
import json
import multiprocessing
import pathlib
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.store import (
    ArtifactStore,
    DiskTier,
    MemoryLRU,
    atomic_write_json,
)


class TestMemoryLRU:
    def test_basic_roundtrip(self):
        lru = MemoryLRU(capacity=2)
        lru.put("a", 1)
        assert lru.get("a") == 1
        assert lru.get("missing") is None

    def test_capacity_bound_and_eviction_order(self):
        lru = MemoryLRU(capacity=2)
        lru.put("a", 1)
        lru.put("b", 2)
        lru.put("c", 3)  # evicts a (least recently used)
        assert lru.get("a") is None
        assert lru.get("b") == 2
        assert lru.get("c") == 3
        assert lru.evictions == 1

    def test_get_refreshes_recency(self):
        lru = MemoryLRU(capacity=2)
        lru.put("a", 1)
        lru.put("b", 2)
        lru.get("a")      # a becomes most recent
        lru.put("c", 3)   # evicts b
        assert lru.get("a") == 1
        assert lru.get("b") is None

    def test_put_overwrites_and_refreshes(self):
        lru = MemoryLRU(capacity=2)
        lru.put("a", 1)
        lru.put("b", 2)
        lru.put("a", 10)  # refresh a
        lru.put("c", 3)   # evicts b
        assert lru.get("a") == 10
        assert lru.get("b") is None

    def test_zero_capacity_disables_tier(self):
        lru = MemoryLRU(capacity=0)
        lru.put("a", 1)
        assert lru.get("a") is None
        assert len(lru) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            MemoryLRU(capacity=-1)

    @settings(max_examples=200, deadline=None)
    @given(
        capacity=st.integers(min_value=1, max_value=5),
        ops=st.lists(
            st.tuples(
                st.sampled_from(["put", "get"]),
                st.integers(min_value=0, max_value=7),
            ),
            max_size=60,
        ),
    )
    def test_matches_model(self, capacity, ops):
        """LRU behaviour equals a dict + recency-list reference model
        over arbitrary get/put interleavings."""
        lru = MemoryLRU(capacity=capacity)
        model = {}
        recency = []  # least recent first

        def touch(key):
            if key in recency:
                recency.remove(key)
            recency.append(key)

        for op, raw in ops:
            key = f"k{raw}"
            if op == "put":
                lru.put(key, raw)
                model[key] = raw
                touch(key)
                while len(model) > capacity:
                    evicted = recency.pop(0)
                    del model[evicted]
            else:
                got = lru.get(key)
                assert got == model.get(key)
                if key in model:
                    touch(key)
            assert len(lru) == len(model)
            assert len(lru) <= capacity
        # full state + recency order must match the model exactly
        assert list(lru.keys()) == recency


def _artifact(tag: str) -> dict:
    """A payload carrying its own checksum, so torn reads are provable."""
    body = {"tag": tag, "data": tag * 50}
    body["checksum"] = hashlib.sha1(
        json.dumps(body, sort_keys=True).encode()
    ).hexdigest()
    return body


def _verify_artifact(artifact: dict) -> None:
    body = {k: v for k, v in artifact.items() if k != "checksum"}
    expected = hashlib.sha1(
        json.dumps(body, sort_keys=True).encode()
    ).hexdigest()
    assert artifact["checksum"] == expected, "torn or corrupt artifact"


class TestArtifactStore:
    def test_miss_then_memory_hit(self, tmp_path):
        store = ArtifactStore(cache_dir=tmp_path, schema_version=1)
        assert store.get("k") is None
        store.put("k", _artifact("k"))
        hit = store.get("k")
        assert hit.tier == "memory"
        _verify_artifact(hit.artifact)
        assert store.stats.misses == 1
        assert store.stats.memory_hits == 1
        assert store.stats.puts == 1

    def test_disk_hit_after_memory_clear(self, tmp_path):
        store = ArtifactStore(cache_dir=tmp_path, schema_version=1)
        store.put("k", _artifact("k"))
        store.clear_memory()
        hit = store.get("k")
        assert hit.tier == "disk"
        _verify_artifact(hit.artifact)
        # the disk hit repopulates the memory tier
        assert store.get("k").tier == "memory"
        assert store.stats.disk_hits == 1
        assert store.stats.memory_hits == 1

    def test_fresh_store_instance_reads_disk(self, tmp_path):
        first = ArtifactStore(cache_dir=tmp_path, schema_version=1)
        first.put("k", _artifact("k"))
        second = ArtifactStore(cache_dir=tmp_path, schema_version=1)
        hit = second.get("k")
        assert hit.tier == "disk"
        assert hit.artifact == first.get("k").artifact

    def test_memory_only_mode(self):
        store = ArtifactStore(cache_dir=None, schema_version=1)
        store.put("k", _artifact("k"))
        assert store.get("k").tier == "memory"
        assert store.disk_path("k") is None

    def test_disk_only_mode(self, tmp_path):
        store = ArtifactStore(
            cache_dir=tmp_path, memory_capacity=0, schema_version=1
        )
        store.put("k", _artifact("k"))
        assert store.get("k").tier == "disk"

    def test_corrupt_file_is_a_miss_and_counted(self, tmp_path):
        store = ArtifactStore(cache_dir=tmp_path, schema_version=1)
        store.put("k", _artifact("k"))
        store.clear_memory()
        path = store.disk_path("k")
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        assert store.get("k") is None
        assert store.stats.corrupt_reads == 1
        # a re-put repairs the entry
        store.put("k", _artifact("k"))
        store.clear_memory()
        assert store.get("k").tier == "disk"

    def test_garbage_file_is_a_miss(self, tmp_path):
        store = ArtifactStore(cache_dir=tmp_path, schema_version=1)
        store.disk_path("k").parent.mkdir(parents=True, exist_ok=True)
        store.disk_path("k").write_text("\x00\xff not json")
        assert store.get("k") is None
        assert store.stats.corrupt_reads == 1

    def test_schema_mismatch_is_a_silent_miss(self, tmp_path):
        old = ArtifactStore(cache_dir=tmp_path, schema_version=1)
        old.put("k", _artifact("k"))
        new = ArtifactStore(cache_dir=tmp_path, schema_version=2)
        assert new.get("k") is None
        assert new.stats.corrupt_reads == 0  # stale, not corrupt
        assert new.stats.misses == 1

    @pytest.mark.parametrize(
        "created_at", ["abc", [1], {}], ids=["string", "list", "object"]
    )
    def test_malformed_created_at_is_a_corrupt_miss(
        self, tmp_path, created_at
    ):
        store = ArtifactStore(cache_dir=tmp_path, schema_version=1)
        store.put("k", _artifact("k"))
        store.clear_memory()
        path = store.disk_path("k")
        envelope = json.loads(path.read_text())
        envelope["created_at"] = created_at
        path.write_text(json.dumps(envelope))
        assert store.get("k") is None
        assert store.stats.corrupt_reads == 1
        assert store.stats.misses == 1

    def test_eviction_counter_tracks_lru(self, tmp_path):
        store = ArtifactStore(
            cache_dir=tmp_path, memory_capacity=2, schema_version=1
        )
        for tag in ("a", "b", "c"):
            store.put(tag, _artifact(tag))
        assert store.stats.evictions == 1
        # evicted key still hits via disk
        assert store.get("a").tier == "disk"

    def test_hit_rate_accounting(self, tmp_path):
        store = ArtifactStore(cache_dir=tmp_path, schema_version=1)
        assert store.stats.hit_rate is None
        store.get("missing")
        store.put("k", _artifact("k"))
        store.get("k")
        assert store.stats.lookups == 2
        assert store.stats.hit_rate == pytest.approx(0.5)

    def test_no_temp_files_left_behind(self, tmp_path):
        store = ArtifactStore(cache_dir=tmp_path, schema_version=1)
        for tag in "abcdef":
            store.put(tag, _artifact(tag))
        leftovers = list(tmp_path.glob("*.tmp")) + list(
            tmp_path.glob(".*.tmp")
        )
        assert leftovers == []

    def test_age_seconds_nonnegative(self, tmp_path):
        store = ArtifactStore(cache_dir=tmp_path, schema_version=1)
        store.put("k", _artifact("k"))
        assert store.get("k").age_seconds >= 0.0
        store.clear_memory()
        assert store.get("k").age_seconds >= 0.0


class TestDiskTierAtomicity:
    def test_store_replaces_atomically(self, tmp_path):
        tier = DiskTier(tmp_path)
        tier.store("k", {"artifact": {"v": 1}})
        tier.store("k", {"artifact": {"v": 2}})
        assert tier.load("k") == {"artifact": {"v": 2}}
        assert list(tmp_path.iterdir()) == [tier.path("k")]

    def test_load_checked_distinguishes_absent_from_corrupt(self, tmp_path):
        tier = DiskTier(tmp_path)
        assert tier.load_checked("nope") == (None, False)
        tier.path("bad").parent.mkdir(parents=True, exist_ok=True)
        tier.path("bad").write_text("{truncated")
        assert tier.load_checked("bad") == (None, True)

    def test_failed_write_removes_its_temp_file(self, tmp_path, monkeypatch):
        path = tmp_path / "k.json"
        atomic_write_json(path, {"v": 1})
        real_write_text = pathlib.Path.write_text

        def write_half_then_fail(self, text, *args, **kwargs):
            real_write_text(self, text[: len(text) // 2], *args, **kwargs)
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(pathlib.Path, "write_text", write_half_then_fail)
        with pytest.raises(OSError, match="No space left"):
            atomic_write_json(path, {"v": 2, "pad": "x" * 1000})
        monkeypatch.undo()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["k.json"]
        assert json.loads(path.read_text()) == {"v": 1}


# -- concurrency stress -------------------------------------------------
_KEYS = [f"key{i}" for i in range(4)]


def _hammer_process(args):
    """Worker-process body: write and read shared keys, verify payloads."""
    directory, worker_id, rounds = args
    store = ArtifactStore(
        cache_dir=directory, memory_capacity=2, schema_version=1
    )
    bad = 0
    for round_index in range(rounds):
        for key in _KEYS:
            store.put(key, _artifact(f"{key}-w{worker_id}-r{round_index}"))
            hit = store.get(key)
            if hit is not None:
                try:
                    _verify_artifact(hit.artifact)
                except AssertionError:
                    bad += 1
    return bad


class TestConcurrentAccess:
    def test_threads_hammering_one_cache_dir(self, tmp_path):
        """Threads with a disk-only store each share one cache directory:
        every read parses a file other threads may be replacing, and
        none of them is torn or missing once written."""
        errors = []

        def worker(worker_id):
            store = ArtifactStore(
                cache_dir=tmp_path, memory_capacity=0, schema_version=1
            )
            try:
                for round_index in range(30):
                    for index, key in enumerate(_KEYS):
                        store.put(
                            key,
                            _artifact(f"{key}-t{worker_id}-{round_index}"),
                        )
                        for other_index, other in enumerate(_KEYS):
                            hit = store.get(other)
                            if round_index > 0 or other_index <= index:
                                assert hit is not None, other
                            if hit is not None:
                                assert hit.tier == "disk"
                                _verify_artifact(hit.artifact)
                assert store.stats.corrupt_reads == 0
                assert store.stats.memory_hits == 0
            except Exception as exc:  # surfaced after join
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []

    def test_processes_hammering_one_cache_dir(self, tmp_path):
        """Separate processes share the disk tier without torn reads."""
        with multiprocessing.Pool(3) as pool:
            torn_counts = pool.map(
                _hammer_process, [(str(tmp_path), i, 15) for i in range(3)]
            )
        assert torn_counts == [0, 0, 0]
        # the final state of every key parses and verifies
        store = ArtifactStore(
            cache_dir=tmp_path, memory_capacity=0, schema_version=1
        )
        for key in _KEYS:
            hit = store.get(key)
            assert hit is not None
            _verify_artifact(hit.artifact)
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []
