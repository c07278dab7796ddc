"""Golden byte-identity for stored artifacts.

The v2 binary encoding of a fixed object is pinned by digest — any
codec or hash-kernel drift that would silently re-fingerprint stored
catalogs breaks here first.
"""

import hashlib

from repro.catalog import BinaryCodec
from repro.discovery import MinHasher
from repro.discovery.index import ColumnEntry

#: sha256 of the v2 BinaryCodec encoding of :func:`golden_object` —
#: pinned bytes, not just pinned structure.
V2_GOLDEN_SHA256 = (
    "3d5aff9e562eead0f640ec88f94fda05b606734ef29a9af9211bbf440743cd38"
)


def golden_object():
    """A fixed object whose signatures come from the pinned v1 hash."""
    hasher = MinHasher(num_perm=16, seed=0)
    meta = {"rows": 4, "source": "golden", "hash_version": 1}
    entries = {}
    for name, values in (
        ("city", {"paris", "tokyo", "café"}),
        ("empty", set()),
        ("ids", {"1", "2", "3", ""}),
    ):
        distinct = frozenset(values)
        entries[name] = ColumnEntry(
            distinct=distinct,
            normalized=frozenset(v.strip().lower() for v in distinct),
            signature=hasher.signature(values),
        )
    return meta, entries


class TestGoldenBytes:
    def test_v2_encoding_pinned(self):
        meta, entries = golden_object()
        blob = BinaryCodec().encode(meta, entries)
        assert hashlib.sha256(blob).hexdigest() == V2_GOLDEN_SHA256
