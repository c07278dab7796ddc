"""Banded LSH over MinHash signatures for sub-linear candidate lookup."""

from __future__ import annotations

from itertools import compress
from operator import is_not

import numpy as np

from repro.utils.validation import check_positive_int


class LshIndex:
    """Split signatures into ``bands`` bands; items sharing any band bucket
    are returned as join candidates.

    With ``num_perm = bands * rows_per_band`` the standard S-curve applies:
    more bands → higher recall, lower precision.
    """

    def __init__(self, num_perm: int = 64, bands: int = 16):
        check_positive_int(num_perm, "num_perm")
        check_positive_int(bands, "bands")
        if num_perm % bands != 0:
            raise ValueError(
                f"num_perm ({num_perm}) must be divisible by bands ({bands})"
            )
        self.num_perm = num_perm
        self.bands = bands
        self.rows_per_band = num_perm // bands
        # Bucket keys are the bands' raw uint64 bytes: the mapping
        # band-values → bytes is bijective (fixed width), so bucketing is
        # identical to keying on value tuples, and viewing each band as
        # one void scalar turns a whole signature matrix into its keys in
        # one C call.  Keys never leave the process, so platform byte
        # order is fine.
        self._band = np.dtype((np.void, self.rows_per_band * 8))
        self._buckets = [dict() for _ in range(bands)]
        self._items = {}
        # Batches recorded in ``_items`` but not yet in any bucket:
        # bucketed together on the first read, so a warm start's many
        # one-table inserts cost one bulk pass.
        self._pending = []

    def __len__(self) -> int:
        return len(self._items)

    def _matrix_keys(self, signatures: np.ndarray) -> np.ndarray:
        """Band keys as a void array: one per band of a signature, or per
        row and band of a matrix."""
        return np.ascontiguousarray(signatures, dtype=np.uint64).view(self._band)

    def _band_keys(self, signature: np.ndarray) -> list:
        if signature.shape != (self.num_perm,):
            raise ValueError(
                f"signature must have shape ({self.num_perm},), got {signature.shape}"
            )
        return self._matrix_keys(signature).tolist()

    def insert(self, item, signature: np.ndarray) -> None:
        """Index ``item`` (hashable id) under its signature."""
        self.insert_many([item], np.asarray(signature)[None])

    def insert_many(self, items, signatures: np.ndarray) -> None:
        """Index each of ``items`` under its row of the stacked
        ``(len(items), num_perm)`` signature matrix — the hot path of
        warm-start hydration (:meth:`insert` is the one-row case).

        Validates the batch and records it at once (``len``,
        :meth:`signature_of` and the duplicate check see it); its
        buckets are built on the next :meth:`query` or :meth:`remove`,
        together with every other batch inserted since.
        """
        items = list(items)
        if signatures.shape != (len(items), self.num_perm):
            raise ValueError(
                f"signatures must have shape ({len(items)}, {self.num_perm}), "
                f"got {signatures.shape}"
            )
        duplicates = [item for item in items if item in self._items]
        if duplicates:
            raise ValueError(f"items already indexed: {duplicates!r}")
        if len(set(items)) != len(items):
            raise ValueError("duplicate items within batch")
        self._items.update(zip(items, signatures, strict=True))
        self._pending.append((items, signatures))

    def _bucket_pending(self) -> None:
        """Bucket every pending batch, band by band, in C: a copy of each
        item's one-element set per key (a copy reuses the element's
        stored hash), then one merge pass over the items a later item
        with the same key displaced.  A band that already holds buckets
        merges the batch's buckets into its own."""
        if not self._pending:
            return
        batches, self._pending = self._pending, []
        singletons = [{item} for batch, _ in batches for item in batch]
        columns = np.concatenate(
            [self._matrix_keys(signatures) for _, signatures in batches]
        )
        for band, buckets in enumerate(self._buckets):
            keys = columns[:, band].tolist()
            copies = list(map(set.copy, singletons))
            fresh = dict(zip(keys, copies))
            if len(fresh) < len(keys):
                displaced = map(is_not, map(fresh.__getitem__, keys), copies)
                for key, singleton in compress(zip(keys, singletons), displaced):
                    fresh[key] |= singleton
            if not buckets:
                self._buckets[band] = fresh
                continue
            for key, bucket in fresh.items():
                if key in buckets:
                    buckets[key] |= bucket
                else:
                    buckets[key] = bucket

    def remove(self, item) -> None:
        """Drop ``item`` from the index (inverse of :meth:`insert`).

        Only the buckets the item's stored signature hashes to are
        touched, and buckets are sets, so removal is O(bands) even when
        many items share a bucket (e.g. the all-empty-column signature).
        """
        if item not in self._items:
            raise KeyError(f"item {item!r} not indexed")
        self._bucket_pending()
        signature = self._items.pop(item)
        for buckets, key in zip(self._buckets, self._band_keys(signature), strict=True):
            bucket = buckets.get(key)
            if bucket is None:
                continue
            bucket.discard(item)
            if not bucket:
                del buckets[key]

    def query(self, signature: np.ndarray) -> set:
        """All items sharing at least one band bucket with ``signature``."""
        keys = self._band_keys(signature)
        self._bucket_pending()
        out = set()
        for buckets, key in zip(self._buckets, keys, strict=True):
            out.update(buckets.get(key, ()))
        return out

    def signature_of(self, item) -> np.ndarray:
        """Stored signature of an indexed item."""
        if item not in self._items:
            raise KeyError(f"item {item!r} not indexed")
        return self._items[item]
