"""Tests for the shared bounded-LRU mapping and its single-flight slot."""

import sys
import threading
import time

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


def run_threads(count, target):
    threads = [threading.Thread(target=target, daemon=True) for _ in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive(), "a single_flight caller hung"


class TestSingleFlight:
    def test_concurrent_callers_compute_once_and_share_the_value(self):
        lru = LruDict(capacity=4)
        computed, got = [], []
        start = threading.Barrier(8)

        def call():
            start.wait()
            with lru.single_flight("k") as slot:
                if not slot.hit:
                    time.sleep(0.05)  # keep the others waiting on the owner
                    computed.append(1)
                    slot.store("value")
                    got.append("value")
                else:
                    got.append(slot.value)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            run_threads(8, call)
        finally:
            sys.setswitchinterval(interval)
        assert len(computed) == 1
        assert got == ["value"] * 8
        assert lru.in_flight == 0

    def test_an_owner_that_raises_stores_nothing_and_one_waiter_takes_over(self):
        lru = LruDict()
        owner_in = threading.Event()
        release = threading.Event()
        owners, hits = [], []

        def failing_owner():
            with pytest.raises(RuntimeError):
                with lru.single_flight("k") as slot:
                    assert not slot.hit
                    owner_in.set()
                    release.wait(timeout=30)
                    raise RuntimeError("build failed")

        def waiter():
            with lru.single_flight("k") as slot:
                if slot.hit:
                    hits.append(slot.value)
                else:
                    owners.append(1)
                    time.sleep(0.02)
                    slot.store("rebuilt")

        first = threading.Thread(target=failing_owner, daemon=True)
        first.start()
        assert owner_in.wait(timeout=30)
        waiters = [threading.Thread(target=waiter, daemon=True) for _ in range(4)]
        for thread in waiters:
            thread.start()
        time.sleep(0.05)
        assert "k" not in lru and lru.in_flight == 1
        release.set()
        for thread in [first, *waiters]:
            thread.join(timeout=30)
            assert not thread.is_alive()
        assert owners == [1]  # exactly one waiter became the next owner
        assert hits == ["rebuilt"] * 3
        assert lru.get("k") == "rebuilt"

    def test_an_owner_that_stores_nothing_hands_over(self):
        lru = LruDict()
        with lru.single_flight("k") as slot:
            assert not slot.hit  # leaves without storing
        with lru.single_flight("k") as slot:
            assert not slot.hit
            slot.store(1)
        with lru.single_flight("k") as slot:
            assert slot.hit and slot.value == 1

    def test_disjoint_keys_do_not_wait_for_each_other(self):
        lru = LruDict()
        release = threading.Event()
        holding = threading.Event()

        def hold_a():
            with lru.single_flight("a") as slot:
                holding.set()
                release.wait(timeout=30)
                slot.store("A")

        owner = threading.Thread(target=hold_a, daemon=True)
        owner.start()
        assert holding.wait(timeout=30)
        try:
            claimed = threading.Event()

            def claim_b():
                with lru.single_flight("b") as slot:
                    assert not slot.hit
                    slot.store("B")
                claimed.set()

            threading.Thread(target=claim_b, daemon=True).start()
            assert claimed.wait(timeout=5)  # "a" is still owned
            assert lru.in_flight == 1
        finally:
            release.set()
            owner.join(timeout=30)
        assert lru.get("a") == "A" and lru.get("b") == "B"

    def test_in_flight_returns_to_zero_after_release(self):
        lru = LruDict()
        with lru.single_flight("a"):
            with lru.single_flight("b"):
                assert lru.in_flight == 2
            assert lru.in_flight == 1
        assert lru.in_flight == 0
        with pytest.raises(KeyError):
            with lru.single_flight("c"):
                raise KeyError("c")
        assert lru.in_flight == 0

    def test_a_hit_takes_no_per_key_lock(self):
        """A stored value is a hit even while its owner still holds the
        slot: the hit path reads under the guard and never waits."""
        lru = LruDict()
        with lru.single_flight("k") as owner:
            owner.store("v")
            hit = lru.single_flight("k")
            with hit:
                assert hit.hit and hit.value == "v"
            assert lru.in_flight == 1

    def test_a_hit_refreshes_recency(self):
        lru = LruDict(capacity=2)
        lru.put("a", 1)
        lru.put("b", 2)
        with lru.single_flight("a") as slot:
            assert slot.hit
        lru.put("c", 3)  # evicts b, not the just-hit a
        assert "a" in lru and "b" not in lru

    def test_store_evicts_by_capacity(self):
        lru = LruDict(capacity=2)
        for key in "abc":
            with lru.single_flight(key) as slot:
                assert slot.store(key)
        assert len(lru) == 2 and "a" not in lru

    def test_store_evicts_by_bytes_and_rejects_an_oversized_value(self):
        lru = LruDict(max_bytes=100)
        for key in "ab":
            with lru.single_flight(key) as slot:
                assert slot.store(key, size=60)
        assert "a" not in lru and lru.total_bytes == 60
        with lru.single_flight("big") as slot:
            assert not slot.store("big", size=101)
        assert "big" not in lru and "b" in lru
        with lru.single_flight("big") as slot:
            assert not slot.hit  # nothing was admitted: a fresh owner

    def test_clear_keeps_owners_in_flight(self):
        lru = LruDict()
        with lru.single_flight("k") as slot:
            lru.clear()
            assert lru.in_flight == 1
            slot.store(1)
        assert lru.get("k") == 1 and lru.in_flight == 0
