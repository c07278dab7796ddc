"""Tests for the shared bounded-LRU mapping."""

import pytest

from repro.utils import LruDict


class TestLruDict:
    def test_put_get_roundtrip(self):
        lru = LruDict(capacity=3)
        lru.put("a", 1)
        assert lru.get("a") == 1
        assert lru.get("missing") is None
        assert lru.get("missing", 42) == 42
        assert "a" in lru and len(lru) == 1

    def test_eviction_is_least_recently_used(self):
        lru = LruDict(capacity=2)
        lru.put("a", 1)
        lru.put("b", 2)
        assert lru.get("a") == 1  # refresh a's recency
        lru.put("c", 3)  # evicts b, not a
        assert "a" in lru and "c" in lru
        assert "b" not in lru

    def test_overwrite_does_not_evict(self):
        lru = LruDict(capacity=2)
        lru.put("a", 1)
        lru.put("b", 2)
        lru.put("a", 10)  # replace, still 2 entries
        assert len(lru) == 2
        assert lru.get("a") == 10
        assert lru.get("b") == 2

    def test_unbounded_when_capacity_none(self):
        lru = LruDict(capacity=None)
        for i in range(100):
            lru.put(i, i)
        assert len(lru) == 100

    def test_clear(self):
        lru = LruDict(capacity=2)
        lru.put("a", 1)
        lru.clear()
        assert len(lru) == 0

    def test_invalid_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            LruDict(capacity=0)

    @pytest.mark.parametrize(
        "bound", [float("nan"), float("inf"), 2.5, True, -1, "3"], ids=repr
    )
    @pytest.mark.parametrize("name", ["capacity", "max_bytes"])
    def test_bound_must_be_a_positive_int(self, name, bound):
        """A NaN bound compared false against every size: 1 000 puts of
        10**6 bytes under ``max_bytes=nan`` left all 1 000 resident."""
        with pytest.raises(ValueError, match=name):
            LruDict(**{name: bound})


class TestByteBudget:
    def test_budget_evicts_oldest_first(self):
        lru = LruDict(max_bytes=100)
        assert lru.put("a", 1, size=40)
        assert lru.put("b", 2, size=40)
        assert lru.put("c", 3, size=40)  # evicts a (40+40+40 > 100)
        assert "a" not in lru
        assert "b" in lru and "c" in lru
        assert lru.total_bytes == 80

    def test_recency_protects_under_budget_pressure(self):
        lru = LruDict(max_bytes=100)
        lru.put("a", 1, size=40)
        lru.put("b", 2, size=40)
        assert lru.get("a") == 1  # refresh a
        lru.put("c", 3, size=40)  # evicts b, the least recent
        assert "a" in lru and "c" in lru
        assert "b" not in lru

    def test_oversized_entry_rejected(self):
        lru = LruDict(max_bytes=50)
        lru.put("a", 1, size=30)
        assert not lru.put("big", 2, size=51)
        assert "big" not in lru
        assert "a" in lru  # nothing was evicted for a hopeless insert
        assert lru.total_bytes == 30
        # A rejected oversized update leaves the old value in place.
        assert not lru.put("a", 99, size=51)
        assert lru.get("a") == 1
        assert lru.total_bytes == 30

    def test_overwrite_replaces_size(self):
        lru = LruDict(max_bytes=100)
        lru.put("a", 1, size=60)
        lru.put("a", 2, size=20)
        assert lru.total_bytes == 20
        assert lru.get("a") == 2

    def test_clear_resets_bytes(self):
        lru = LruDict(max_bytes=100)
        lru.put("a", 1, size=60)
        lru.clear()
        assert lru.total_bytes == 0
        assert lru.put("b", 2, size=100)

    def test_capacity_and_bytes_compose(self):
        lru = LruDict(capacity=2, max_bytes=100)
        lru.put("a", 1, size=10)
        lru.put("b", 2, size=10)
        lru.put("c", 3, size=10)  # capacity bound evicts a
        assert len(lru) == 2
        assert "a" not in lru
        assert lru.total_bytes == 20

    def test_invalid_max_bytes(self):
        with pytest.raises(ValueError, match="max_bytes"):
            LruDict(max_bytes=0)
