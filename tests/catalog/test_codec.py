"""Round-trip and corruption properties of the column-entry codec.

The one codec (version 2, packed binary) must round-trip arbitrary
ColumnEntry contents exactly, encode canonically (equal input ⇒
identical bytes), decode any column subset as exactly the restriction of
the whole, and reject malformed input — column sections out of order,
garbled UTF-8 even in a column nobody asked for — with
:class:`CatalogStoreError` rather than returning partial entries.
"""

import json
import struct

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


def _strings_block(lengths, blob: bytes) -> bytes:
    """A string-set block with arbitrary lengths and bytes."""
    return (
        struct.pack("<II", len(lengths), len(blob))
        + np.array(lengths, dtype="<u4").tobytes()
        + blob
    )


def craft(sections, meta=None) -> bytes:
    """A raw-body object with column sections in the order given;
    ``sections`` holds ``(name, entry)`` or ``(name, distinct block
    bytes)`` pairs."""
    body = bytearray(struct.pack("<I", len(sections)))
    for name, entry in sections:
        raw = name.encode("utf-8")
        body += struct.pack("<H", len(raw)) + raw
        body += struct.pack("<I", 2) + np.arange(2, dtype="<u8").tobytes()
        body += struct.pack("<B", 0)
        if isinstance(entry, bytes):
            body += entry
        else:
            body += BinaryCodec._pack_strings(entry.distinct)
    meta_blob = json.dumps(meta or {}).encode("utf-8")
    return (
        CODEC.MAGIC
        + struct.pack("<H", CODEC.version)
        + struct.pack("<I", len(meta_blob))
        + meta_blob
        + struct.pack("<BI", CODEC._BODY_RAW, len(body))
        + bytes(body)
    )


class TestColumnRestriction:
    @settings(max_examples=80, deadline=None)
    @given(meta=_metas(), entries=_entries(), data=st.data())
    def test_restricted_decode_is_the_restriction(self, meta, entries, data):
        blob = CODEC.encode(meta, entries)
        full_meta, full = CODEC.decode(blob)
        subset = data.draw(st.sets(st.sampled_from(sorted(entries)))) if entries else set()
        got_meta, got = CODEC.decode(blob, subset)
        assert got_meta == full_meta
        assert got == {column: full[column] for column in subset}
        assert list(got) == [column for column in full if column in subset]

    @pytest.mark.parametrize("request_columns", [None, ["a"], ["b"], []], ids=repr)
    def test_garbled_utf8_raises_whether_requested_or_not(self, request_columns):
        bad = _strings_block([1], b"\xff")
        with pytest.raises(CatalogStoreError, match="invalid UTF-8"):
            CODEC.decode(craft([("a", entry_of({"x"})), ("b", bad)]), request_columns)

    @pytest.mark.parametrize("request_columns", [None, ["a"], ["b"]], ids=repr)
    def test_value_split_inside_a_character_raises(self, request_columns):
        """b"\\xc3\\xa9" is valid UTF-8 as one value ("é"), not as two."""
        split = _strings_block([1, 1], "é".encode("utf-8"))
        with pytest.raises(CatalogStoreError, match="invalid UTF-8"):
            CODEC.decode(craft([("a", entry_of({"x"})), ("b", split)]), request_columns)

    def test_multibyte_values_decode(self):
        values = {"é", "中文", "", "a\x00b", "Ωmega ", "x"}
        entries = {"a": entry_of(values), "b": entry_of({"ÿ"}, normalized={"Ÿ"})}
        blob = CODEC.encode({}, entries)
        assert CODEC.decode(blob)[1] == entries
        assert CODEC.decode(blob, ["b"])[1] == {"b": entries["b"]}

    def test_crafted_blob_matches_the_codec(self):
        entries = {"a": entry_of({"x", "y"}), "b": entry_of({"z"})}
        _meta, decoded = CODEC.decode(craft(sorted(entries.items())))
        assert {c: e.distinct for c, e in decoded.items()} == {
            c: e.distinct for c, e in entries.items()
        }

    def test_missing_requested_column_raises(self):
        blob = CODEC.encode({}, {"a": entry_of({"x"})})
        with pytest.raises(CatalogStoreError, match="no column"):
            CODEC.decode(blob, ["a", "ghost"])


class TestColumnOrder:
    @pytest.mark.parametrize(
        "names", [["a", "a"], ["b", "a"], ["a", "c", "b"]], ids=repr
    )
    def test_sections_not_strictly_ascending_rejected(self, names):
        blob = craft([(name, entry_of({name + str(i)})) for i, name in enumerate(names)])
        for request_columns in (None, names[:1]):
            with pytest.raises(CatalogStoreError, match="strictly ascending"):
                CODEC.decode(blob, request_columns)

    def test_duplicate_column_no_longer_overwrites(self):
        """Before the order check the second "a" silently won and the
        table lost a column."""
        blob = craft([("a", entry_of({"first"})), ("a", entry_of({"second"}))])
        with pytest.raises(CatalogStoreError):
            CODEC.decode(blob)
