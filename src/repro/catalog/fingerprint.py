"""Content fingerprints: the staleness test of the persistent catalog.

A table fingerprint digests the table's identity (name, source) and every
cell, so any change to schema or data produces a new fingerprint and the
catalog knows its persisted signatures/profiles for that table are stale.
Fingerprints also address the on-disk object store: derived artifacts are
stored under the fingerprint of the table they were computed from.
"""

from __future__ import annotations

import hashlib
import json
import struct

import numpy as np

from repro import kernels

_FLOAT_OR_NONE = frozenset({float, type(None)})
#: One tag per column encoding (see :func:`table_fingerprint`).
_FLOAT_TAG = b"f"
_STR_TAG = b"s"
_REPR_TAG = b"r"


def shard_of(key: str) -> str:
    """Two-hex-digit shard prefix for an on-disk artifact key.

    Hashes the whole key instead of slicing it: object ids are
    ``<config fp>-<table fp>`` strings whose leading characters are
    identical for every object of one catalog, so a naive prefix would
    put the entire store in a single shard.  256 shards keep directory
    sizes and per-shard manifests bounded at any corpus scale.
    """
    return hashlib.blake2b(key.encode("utf-8"), digest_size=1).hexdigest()


def _text(value: str) -> bytes:
    """Length-prefixed UTF-8 (lone surrogates pass through)."""
    data = value.encode("utf-8", "surrogatepass")
    return struct.pack("<Q", len(data)) + data


def _digest_column(digest, cells: list) -> None:
    """Feed one column's cells to ``digest``, columnar where the cell
    types allow it: a type census picks one of three encodings, each
    under its own tag, followed by the row count and a payload whose
    length those two fix."""
    census = kernels.type_census(cells)
    n_rows = struct.pack("<Q", len(cells))
    if census and census <= _FLOAT_OR_NONE:
        # None becomes NaN in the array and is told apart by the mask
        # (and zeroed, so the bytes do not depend on numpy's NaN).
        values = np.array(cells, dtype="<f8")
        missing = np.zeros(len(cells), dtype=np.bool_)
        if type(None) in census:
            nan_rows = np.flatnonzero(values != values).tolist()
            missing[[i for i in nan_rows if cells[i] is None]] = True
            values[missing] = 0.0
        digest.update(_FLOAT_TAG + n_rows)
        digest.update(missing.tobytes())
        digest.update(values.tobytes())
    elif census == {str}:
        blob = "".join(cells).encode("utf-8", "surrogatepass")
        digest.update(_STR_TAG + n_rows + struct.pack("<Q", len(blob)))
        digest.update(np.fromiter(map(len, cells), "<i8", len(cells)).tobytes())
        digest.update(blob)
    else:
        # Everything else (int, bool, numpy scalars, Decimal, subclasses,
        # mixed types): repr() of the cell list, which is type-faithful
        # (1 vs 1.0 vs '1' vs True digest differently).
        blob = repr(cells).encode("utf-8")
        digest.update(_REPR_TAG + n_rows + struct.pack("<Q", len(blob)))
        digest.update(blob)


def table_fingerprint(table) -> str:
    """Hex digest of a table's full content (name, source, schema, cells).

    The name participates because derived artifacts are name-dependent
    (LSH keys are (table, column) pairs and the down-sampling seed mixes
    in the table name), so two identical tables under different names do
    not share catalog objects.

    Every field is length-prefixed or fixed-width, so the digested bytes
    parse back unambiguously.  Per column, after its name:

    * cells exactly ``float`` / ``None``: tag ``f``, the row count, the
      None mask (one byte per row), then the values as ``<f8`` with
      None rows zeroed;
    * cells exactly ``str``: tag ``s``, the row count and the UTF-8 byte
      count, the code-point lengths as ``<i8``, then the UTF-8 bytes
      (``surrogatepass``, so a lone surrogate digests);
    * anything else: tag ``r``, the row count and byte count, then the
      UTF-8 ``repr()`` of the cell list.

    Two tables whose cell lists differ in ``repr()`` therefore always
    digest differently; the converse fails only where splitting is
    harmless (NaN payloads, a ``str`` subclass versus ``str``).  Byte
    orders are explicit, so stores copied between machines keep their
    addresses.
    """
    digest = hashlib.blake2b(digest_size=16)
    digest.update(_text(table.name))
    digest.update(_text(table.source))
    for column in table.column_names:
        digest.update(_text(column))
        _digest_column(digest, table.column(column))
    return digest.hexdigest()


def config_fingerprint(config: dict) -> str:
    """Hex digest of an index/catalog configuration dict."""
    canonical = json.dumps(config, sort_keys=True, default=str)
    return hashlib.blake2b(canonical.encode("utf-8"), digest_size=8).hexdigest()


def _profile_identity(obj) -> str:
    """Recursive identity of a profile (or nested helper object): class
    name plus every public attribute.  Private attributes are skipped —
    they hold memoization caches, not configuration."""
    parts = [type(obj).__name__]
    for attr, value in sorted(vars(obj).items()):
        if attr.startswith("_"):
            continue
        if hasattr(value, "__dict__"):
            parts.append(f"{attr}=<{_profile_identity(value)}>")
        else:
            parts.append(f"{attr}={value!r}")
    return ";".join(parts)


def registry_fingerprint(registry) -> str:
    """Hex digest of a profile registry's full configuration.

    Profile *names* are fixed class attributes, so two registries can
    share names while computing different vectors (different ``dim``,
    ``bins``, seeds, …).  Cached profile vectors must therefore be keyed
    by this digest, which covers every public constructor parameter, in
    registry order.
    """
    digest = hashlib.blake2b(digest_size=8)
    for profile in registry:
        digest.update(_profile_identity(profile).encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


def profile_key(
    base_fingerprint: str,
    aug_id: str,
    table_fingerprints,
    registry_names,
    sample_size: int,
    seed: int,
) -> str:
    """Cache key of one candidate's profile vector.

    Mixes in the fingerprints of every table on the candidate's join path:
    profile vectors derive deterministically from the base table plus those
    tables, so matching keys imply identical vectors.
    """
    digest = hashlib.blake2b(digest_size=16)
    parts = (
        [base_fingerprint, aug_id]
        + list(table_fingerprints)
        + list(registry_names)
        + [str(sample_size), str(seed)]
    )
    for part in parts:
        digest.update(part.encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()
