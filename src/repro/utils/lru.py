"""A small bounded, thread-safe mapping with least-recently-used eviction.

Shared by every engine cache (prepared candidate sets, recorded runs,
the utility memos) and the catalog's streaming stats pass, so the
eviction policy (dict insertion order as recency, refresh on read,
evict the oldest at capacity) and the get-or-build protocol
(:meth:`LruDict.single_flight`) each exist exactly once.
"""

from __future__ import annotations

import numbers
import threading


def _bound(name: str, value):
    """``value`` as an LRU bound: ``None`` or an int ``>= 1`` (a
    ``bool`` is not a count).  Anything else is a ``ValueError`` naming
    the argument — a NaN bound compares false against every size and
    would admit everything."""
    if value is None or (
        isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= 1
    ):
        return value
    raise ValueError(f"{name} must be None or an int >= 1, got {value!r}")


class LruDict:
    """Mapping bounded to ``capacity`` entries, LRU-evicted.

    Reads refresh recency; putting a new key at capacity evicts the
    least recently touched entry.  ``capacity=None`` disables entry
    counting (an ordinary dict with recency tracking).

    ``max_bytes`` adds an independent size budget: every :meth:`put`
    may carry a ``size`` (the entry's cost in bytes), and entries are
    evicted oldest-first until the total cost fits the budget.  An entry
    whose own size exceeds the budget is not stored at all — admitting
    it would evict the entire cache and still not fit.

    Every method holds the dict's own guard lock, so threads may share
    one instance; :meth:`single_flight` adds get-or-build with one
    builder per key.
    """

    def __init__(self, capacity: int = None, max_bytes: int = None):
        self.capacity = _bound("capacity", capacity)
        self.max_bytes = _bound("max_bytes", max_bytes)
        self._entries = {}  # insertion order = recency (moved on touch)
        self._sizes = {}
        self.total_bytes = 0
        self._guard = threading.Lock()
        self._released = threading.Condition(self._guard)
        self._owners = set()  # keys a single_flight owner is building

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key) -> bool:
        return key in self._entries

    @property
    def in_flight(self) -> int:
        """Keys whose :meth:`single_flight` owner has not yet left."""
        return len(self._owners)

    def values(self) -> list:
        """Every value, least recently touched first (recency unchanged)."""
        with self._guard:
            return list(self._entries.values())

    def get(self, key, default=None):
        """Value for ``key`` (refreshes its recency), or ``default``."""
        with self._guard:
            if key not in self._entries:
                return default
            return self._touch(key)

    def put(self, key, value, size: int = 0) -> bool:
        """Insert ``key``; returns ``False`` when the entry alone
        overflows ``max_bytes`` and was therefore not stored (an
        existing value under ``key`` is left untouched — a hopeless
        insert must not destroy data either)."""
        with self._guard:
            return self._put(key, value, size)

    def single_flight(self, key) -> "Slot":
        """Get-or-build ``key``: ``with lru.single_flight(key) as slot:``.

        On a hit, ``slot.hit`` is true and ``slot.value`` holds the
        value (found under the guard lock; no per-key lock is taken).
        On a miss the caller becomes the key's only owner: it builds the
        value and may admit it with ``slot.store(value, size=...)``.
        Other callers for the key wait until the owner leaves the block,
        then see what it stored — or, if it stored nothing (it raised,
        was cancelled, or chose not to admit the value), one of them
        becomes the next owner.  Whether a value is admitted is the
        caller's rule; a caller that finds a value it cannot use may
        store a replacement from its hit slot.
        """
        return Slot(self, key)

    def clear(self) -> None:
        """Drop every entry (owners in flight keep their claims)."""
        with self._guard:
            self._entries.clear()
            self._sizes.clear()
            self.total_bytes = 0

    # Callers hold the guard.
    def _touch(self, key):
        value = self._entries.pop(key)
        self._entries[key] = value
        return value

    def _put(self, key, value, size: int) -> bool:
        if self.max_bytes is not None and size > self.max_bytes:
            return False
        self._evict_key(key)
        if self.capacity is not None and len(self._entries) >= self.capacity:
            self._evict_key(next(iter(self._entries)))
        if self.max_bytes is not None:
            while self._entries and self.total_bytes + size > self.max_bytes:
                self._evict_key(next(iter(self._entries)))
        self._entries[key] = value
        if size:
            self._sizes[key] = size
            self.total_bytes += size
        return True

    def _evict_key(self, key) -> None:
        self._entries.pop(key, None)
        self.total_bytes -= self._sizes.pop(key, 0)


class Slot:
    """One caller's claim on a key of an :class:`LruDict`; see
    :meth:`LruDict.single_flight`."""

    __slots__ = ("_lru", "_key", "_owner", "hit", "value")

    def __init__(self, lru: LruDict, key):
        self._lru = lru
        self._key = key
        self._owner = False
        self.hit = False
        self.value = None

    def __enter__(self) -> "Slot":
        lru, key = self._lru, self._key
        with lru._guard:
            while True:
                if key in lru._entries:
                    self.hit = True
                    self.value = lru._touch(key)
                    return self
                if key not in lru._owners:
                    lru._owners.add(key)
                    self._owner = True
                    return self
                lru._released.wait()

    def store(self, value, size: int = 0) -> bool:
        """Admit ``value`` under the slot's key (see :meth:`LruDict.put`)."""
        return self._lru.put(self._key, value, size)

    def __exit__(self, *exc_info):
        if self._owner:
            lru = self._lru
            with lru._guard:
                lru._owners.discard(self._key)
                lru._released.notify_all()
        return False
