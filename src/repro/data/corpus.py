"""Whole-corpus generation and the Table I characteristics report."""

from __future__ import annotations

from repro.dataframe.noise import (
    drop_headers,
    duplicate_rows,
    inject_missing_values,
)
from repro.dataframe.table import Table
from repro.data.generator import make_keys
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_in_choices, check_positive_int

_WORDS = [
    "crime", "taxi", "income", "school", "health", "permit", "budget",
    "housing", "transit", "park", "census", "election", "inspection",
    "license", "energy", "water", "traffic", "zoning", "payroll", "grant",
]


def generate_corpus(
    n_tables: int,
    style: str = "open_data",
    n_key_pools: int = 8,
    seed: int = 0,
) -> list:
    """A repository of noisy tables sharing key populations.

    ``style`` tweaks the shape statistics: ``open_data`` yields many small
    portal-style tables; ``kaggle`` yields fewer, wider competition-style
    tables.  Tables within the same key pool are joinable, so the corpus
    has realistic join structure for Table I's '#Joinable Columns'.
    """
    check_positive_int(n_tables, "n_tables")
    check_in_choices(style, "style", {"open_data", "kaggle"})
    rng = ensure_rng(seed)
    if style == "open_data":
        rows_range, cols_range = (30, 300), (2, 6)
        source = "open-data-portal"
    else:
        rows_range, cols_range = (100, 800), (4, 12)
        source = "kaggle"

    pools = [
        make_keys(int(rng.integers(50, 400)), prefix=f"k{p}_", start=0)
        for p in range(n_key_pools)
    ]
    corpus = []
    for t in range(n_tables):
        pool = pools[int(rng.integers(0, n_key_pools))]
        n_rows = min(int(rng.integers(*rows_range)), len(pool))
        keys = list(rng.choice(pool, size=n_rows, replace=False))
        n_cols = int(rng.integers(*cols_range))
        word_a = _WORDS[int(rng.integers(0, len(_WORDS)))]
        word_b = _WORDS[int(rng.integers(0, len(_WORDS)))]
        columns = {"key": keys}
        for c in range(n_cols):
            columns[f"{word_b}_metric_{c}"] = rng.normal(size=n_rows).tolist()
        table = Table(f"{source}_{word_a}_{t:05d}", columns, source=source)
        # Definition 1 noise: missing cells, duplicate tuples, lost headers.
        table = inject_missing_values(table, float(rng.uniform(0, 0.15)), seed=int(rng.integers(1 << 30)))
        if rng.uniform() < 0.3:
            table = duplicate_rows(table, float(rng.uniform(0, 0.1)), seed=int(rng.integers(1 << 30)))
        if rng.uniform() < 0.2:
            table = drop_headers(table, 0.25, seed=int(rng.integers(1 << 30)))
        corpus.append(table)
    return corpus


def corpus_characteristics(
    corpus=None, index=None, size_sample: int = 1000, catalog=None
) -> dict:
    """The four Table I columns for a corpus.

    ``#Joinable Columns`` counts indexed columns participating in at least
    one joinable pair (requires ``index``; reported as 0 without one).
    Size is the in-memory cell estimate in bytes, sampled via
    :meth:`Table.estimated_byte_size`.

    ``catalog`` (a :class:`repro.catalog.Catalog`) switches the report to
    the disk-artifact path: every statistic — including the joinable
    count — is served from persisted catalog objects, so no corpus needs
    to be loaded or re-signed and ``corpus`` may be ``None`` (see
    :meth:`~repro.catalog.Catalog.corpus_stats` for the memory profile).
    """
    if catalog is not None:
        return catalog.corpus_stats(size_sample=size_sample)
    if corpus is None:
        raise ValueError("corpus_characteristics needs a corpus or a catalog")
    n_tables = len(corpus)
    n_columns = sum(t.num_columns for t in corpus)
    size_bytes = sum(t.estimated_byte_size(size_sample) for t in corpus)
    joinable = 0
    if index is not None:
        seen = set()
        for table in corpus:
            for column in table.column_names:
                for ref, _score in index.joinable(table, column, exclude_table=table.name):
                    seen.add(ref)
        joinable = len(seen)
    return {
        "tables": n_tables,
        "columns": n_columns,
        "joinable_columns": joinable,
        "size_bytes": size_bytes,
    }
