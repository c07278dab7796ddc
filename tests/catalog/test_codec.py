"""Round-trip and corruption properties of the column-entry codec.

The one codec (version 2, packed binary) must round-trip arbitrary
ColumnEntry contents exactly, encode canonically (equal input ⇒
identical bytes), and reject malformed input with
:class:`CatalogStoreError` rather than returning partial entries.
"""

import numpy as np
import pytest

from repro.catalog import BinaryCodec, CatalogStoreError
from repro.discovery.index import ColumnEntry

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

CODEC = BinaryCodec()
ALL_CODECS = [CODEC]


def entry_of(values, normalized=None, signature=None, num_perm=8):
    distinct = frozenset(values)
    if normalized is None:
        normalized = frozenset(v.strip().lower() for v in distinct)
    if signature is None:
        from repro.discovery.minhash import MinHasher

        signature = MinHasher(num_perm=num_perm).signature(distinct)
    return ColumnEntry(
        distinct=distinct,
        normalized=frozenset(normalized),
        signature=np.asarray(signature, dtype=np.uint64),
    )


# Value strategy: arbitrary unicode (no surrogates — not UTF-8
# encodable), including empties, whitespace, quotes, and control chars.
_values = st.sets(st.text(max_size=24), max_size=12)
_signatures = st.lists(
    st.integers(min_value=0, max_value=(1 << 64) - 1), min_size=1, max_size=16
)


@st.composite
def _entries(draw):
    columns = draw(st.sets(st.text(min_size=1, max_size=16), max_size=4))
    out = {}
    for column in columns:
        values = draw(_values)
        # Half the time force an independent normalized set, so the
        # "derived" fast path of the binary codec never leaks into
        # entries whose normalized form was not actually derived.
        if draw(st.booleans()):
            normalized = None
        else:
            normalized = draw(_values)
        out[column] = entry_of(
            values, normalized=normalized, signature=draw(_signatures)
        )
    return out


@st.composite
def _metas(draw):
    return draw(
        st.dictionaries(
            st.text(max_size=12),
            st.one_of(
                st.none(),
                st.integers(min_value=-(10**9), max_value=10**9),
                st.text(max_size=16),
                st.lists(st.text(max_size=8), max_size=4),
            ),
            max_size=4,
        )
    )


class TestRoundTripProperties:
    @pytest.mark.parametrize("codec", ALL_CODECS, ids=lambda c: f"v{c.version}")
    @settings(max_examples=60, deadline=None)
    @given(meta=_metas(), entries=_entries())
    def test_encode_decode_identity(self, codec, meta, entries):
        blob = codec.encode(meta, entries)
        decoded_meta, decoded = codec.decode(blob)
        assert decoded_meta == meta
        assert decoded == entries
        for column, entry in decoded.items():
            assert entry.distinct == entries[column].distinct
            assert entry.normalized == entries[column].normalized
            assert np.array_equal(entry.signature, entries[column].signature)
            assert entry.signature.dtype == np.uint64

    @pytest.mark.parametrize("codec", ALL_CODECS, ids=lambda c: f"v{c.version}")
    @settings(max_examples=30, deadline=None)
    @given(meta=_metas(), entries=_entries())
    def test_encoding_is_canonical(self, codec, meta, entries):
        blob = codec.encode(meta, entries)
        decoded_meta, decoded = codec.decode(blob)
        assert codec.encode(decoded_meta, decoded) == blob

    @settings(max_examples=30, deadline=None)
    @given(meta=_metas(), entries=_entries())
    def test_meta_only_read_matches_full_decode(self, meta, entries):
        codec = CODEC
        blob = codec.encode(meta, entries)
        assert codec.decode_meta(blob) == codec.decode(blob)[0]

    def test_seeded_random_loop_round_trip(self):
        # Deterministic non-hypothesis sweep, so round-trip coverage
        # survives environments without hypothesis installed.
        rng = np.random.default_rng(7)
        alphabet = list("abcXYZ 0159_é中\n\"'\\")
        for trial in range(50):
            entries = {}
            for c in range(int(rng.integers(0, 4))):
                values = {
                    "".join(
                        rng.choice(alphabet, size=int(rng.integers(0, 9)))
                    )
                    for _ in range(int(rng.integers(0, 10)))
                }
                entries[f"col{c}"] = entry_of(
                    values,
                    signature=rng.integers(
                        0, 1 << 63, size=int(rng.integers(1, 12))
                    ).astype(np.uint64),
                )
            meta = {"trial": trial, "name": f"t{trial}"}
            for codec in ALL_CODECS:
                decoded_meta, decoded = codec.decode(codec.encode(meta, entries))
                assert decoded_meta == meta
                assert decoded == entries


class TestBinaryCorruption:
    def blob(self):
        entries = {
            "key": entry_of({"a", "b", "c"}),
            "value": entry_of({" X ", "y"}, normalized={"explicit"}),
        }
        return CODEC.encode({"name": "t", "num_rows": 3}, entries)

    def test_truncation_at_every_length_rejected(self):
        blob = self.blob()
        for cut in range(len(blob)):
            with pytest.raises(CatalogStoreError):
                CODEC.decode(blob[:cut])

    def test_trailing_garbage_rejected(self):
        with pytest.raises(CatalogStoreError):
            CODEC.decode(self.blob() + b"\x00")

    def test_bad_magic_rejected(self):
        blob = bytearray(self.blob())
        blob[:4] = b"NOPE"
        with pytest.raises(CatalogStoreError):
            CODEC.decode(bytes(blob))

    def test_unknown_codec_version_rejected(self):
        blob = bytearray(self.blob())
        blob[4:6] = (99).to_bytes(2, "little")
        with pytest.raises(CatalogStoreError):
            CODEC.decode(bytes(blob))

    def test_garbled_body_rejected_or_decodes_cleanly(self):
        # Flipping any single byte must never crash with a non-store
        # error or return half-decoded entries: either the codec detects
        # the corruption, or (e.g. a flipped signature bit) the blob
        # still decodes into complete, well-formed entries.
        blob = self.blob()
        for position in range(6, len(blob)):
            mutated = bytearray(blob)
            mutated[position] ^= 0xFF
            try:
                _meta, entries = CODEC.decode(bytes(mutated))
            except CatalogStoreError:
                continue
            for entry in entries.values():
                assert isinstance(entry.distinct, frozenset)
                assert isinstance(entry.normalized, frozenset)
                assert entry.signature.dtype == np.uint64

    def test_oversized_column_name_raises_store_error(self):
        entries = {"x" * 70_000: entry_of({"a"})}
        with pytest.raises(CatalogStoreError, match="64KiB name field"):
            CODEC.encode({}, entries)

    def test_json_blob_rejected_by_binary_codec(self):
        json_blob = b'{"columns": {"c": {"distinct": ["a"]}}, "meta": {}}'
        with pytest.raises(CatalogStoreError):
            CODEC.decode(json_blob)
