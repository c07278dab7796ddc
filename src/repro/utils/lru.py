"""A small bounded mapping with least-recently-used eviction.

Shared by the serving engine's prepared-candidate cache, its result
cache, and the catalog's streaming stats pass, so the eviction policy
(dict insertion order as recency, refresh on read, evict the oldest at
capacity) exists exactly once.
"""

from __future__ import annotations

import numbers


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
    """

    def __init__(self, capacity: int = None, max_bytes: int = None):
        self.capacity = _bound("capacity", capacity)
        self.max_bytes = _bound("max_bytes", max_bytes)
        self._entries = {}  # insertion order = recency (moved on touch)
        self._sizes = {}
        self.total_bytes = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key) -> bool:
        return key in self._entries

    def values(self) -> list:
        """Every value, least recently touched first (recency unchanged)."""
        return list(self._entries.values())

    def get(self, key, default=None):
        """Value for ``key`` (refreshes its recency), or ``default``."""
        if key not in self._entries:
            return default
        value = self._entries.pop(key)
        self._entries[key] = value
        return value

    def put(self, key, value, size: int = 0) -> bool:
        """Insert ``key``; returns ``False`` when the entry alone
        overflows ``max_bytes`` and was therefore not stored (an
        existing value under ``key`` is left untouched — a hopeless
        insert must not destroy data either)."""
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

    def clear(self) -> None:
        self._entries.clear()
        self._sizes.clear()
        self.total_bytes = 0
