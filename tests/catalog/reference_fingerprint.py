"""Executable spec of the table fingerprint: the ``repr()``-per-column
digest that ``repro.catalog.fingerprint.table_fingerprint`` replaced,
kept verbatim below this paragraph.  ``test_fingerprint_diff.py`` holds
the columnar digest to it: any two tables this digest tells apart, the
columnar one tells apart too.  Nothing in ``src/`` imports it.
"""

from __future__ import annotations

import hashlib

_MISSING = b"\x00\x00"


def table_fingerprint(table) -> str:
    """Hex digest of a table's full content (name, source, schema, cells).

    The name participates because derived artifacts are name-dependent
    (LSH keys are (table, column) pairs and the down-sampling seed mixes
    in the table name), so two identical tables under different names do
    not share catalog objects.
    """
    digest = hashlib.blake2b(digest_size=16)
    digest.update(table.name.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(table.source.encode("utf-8"))
    for column in table.column_names:
        digest.update(b"\x00col\x00")
        digest.update(column.encode("utf-8"))
        digest.update(_MISSING)
        # repr() of the whole cell list runs in C and is type-faithful
        # (1 vs 1.0 vs '1' vs None all digest differently); hashing one
        # blob per column keeps fingerprinting out of the warm-start
        # critical path.
        digest.update(repr(table.column(column)).encode("utf-8"))
    return digest.hexdigest()
