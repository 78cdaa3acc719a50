"""Tests for the two-tier result store (hot LRU over one cold file)."""

import os

import pytest

from repro.daemon.tiers import HotTier, TieredStore
from repro.service.store import ResultStore


def _digest(n: int) -> str:
    # Vary the leading hex digits: a digest-sharded store would put
    # these records in different files.
    return f"{n:04x}" + "0" * 12


class TestHotTier:
    def test_hit_miss_counters(self):
        hot = HotTier(capacity=4)
        assert hot.get("d") is None
        hot.put("d", {"v": 1})
        assert hot.get("d") == {"v": 1}
        assert (hot.hits, hot.misses) == (1, 1)

    def test_lru_eviction_order(self):
        hot = HotTier(capacity=2)
        hot.put("a", {})
        hot.put("b", {})
        hot.get("a")          # refresh a: b is now least-recent
        hot.put("c", {})      # evicts b
        assert "a" in hot and "c" in hot and "b" not in hot
        assert hot.evictions == 1

    def test_put_existing_refreshes_not_grows(self):
        hot = HotTier(capacity=2)
        hot.put("a", {"v": 1})
        hot.put("a", {"v": 2})
        assert len(hot) == 1
        assert hot.get("a") == {"v": 2}

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            HotTier(capacity=0)


class TestTieredStore:
    def test_miss_then_cold_then_hot(self, tmp_path):
        store = TieredStore(directory=str(tmp_path), hot_capacity=8)
        assert store.lookup(_digest(1)) == (None, "")
        store.put(_digest(1), {"v": 1})

        # A fresh store over the same directory: first lookup is cold
        # (and promotes), the second is hot.
        fresh = TieredStore(directory=str(tmp_path), hot_capacity=8)
        record, tier = fresh.lookup(_digest(1))
        assert (record, tier) == ({"v": 1}, "cold")
        record, tier = fresh.lookup(_digest(1))
        assert (record, tier) == ({"v": 1}, "hot")
        assert fresh.cold_hits == 1

    def test_put_is_visible_in_both_tiers(self, tmp_path):
        store = TieredStore(directory=str(tmp_path))
        store.put(_digest(2), {"v": 2})
        assert store.lookup(_digest(2))[1] == "hot"
        assert store.cold.get(_digest(2)) == {"v": 2}  # durably cold too

    def test_eviction_falls_back_to_cold(self, tmp_path):
        store = TieredStore(directory=str(tmp_path), hot_capacity=2)
        for n in range(5):
            store.put(_digest(n), {"n": n})
        # Oldest digests were evicted from the hot tier but still hit.
        record, tier = store.lookup(_digest(0))
        assert (record, tier) == ({"n": 0}, "cold")

    def test_memory_only_without_directory(self):
        store = TieredStore()
        store.put("d", {"v": 1})
        assert store.get("d") == {"v": 1}
        assert "d" in store

    def test_stats_shape(self, tmp_path):
        store = TieredStore(directory=str(tmp_path), hot_capacity=2)
        store.put(_digest(1), {})
        store.get(_digest(1))
        store.get("missing")
        stats = store.stats()
        assert stats["hot_hits"] == 1
        assert stats["cold_size"] == 1
        assert stats["lookups"] == stats["hot_hits"] + stats["hot_misses"]

    def test_one_cold_file(self, tmp_path):
        store = TieredStore(directory=str(tmp_path))
        for n in range(16):
            store.put(_digest(n), {"n": n})
        store.close()
        assert os.listdir(tmp_path) == ["shard-00.jsonl"]

    def test_sharded_layout_folds_into_one_file(self, tmp_path):
        for n in (0, 3, 5):
            ResultStore(os.path.join(str(tmp_path), f"shard-{n:02d}.jsonl")
                        ).put(_digest(n), {"n": n})

        store = TieredStore(directory=str(tmp_path))
        assert os.listdir(tmp_path) == ["shard-00.jsonl"]
        for n in (0, 3, 5):
            assert store.lookup(_digest(n)) == ({"n": n}, "cold")
        assert len(store) == 3
        store.close()
