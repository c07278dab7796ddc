"""Containment is one set intersection: every ``joinable`` answer of the
discovery index equals a brute-force ``len(Q & C.normalized) / |Q|`` over
the columns whose MinHash signature shares an LSH band with the query's.

The oracle signs every column itself and takes distinct values and
normalization from ``repro.kernels.reference``.  Values mix NUL bytes,
non-ASCII text and case/whitespace variants — the inputs a numpy unicode
array path once had to route around.  The claim is checked on a cold
index (lazy signing) and on the same corpus hydrated from a saved
catalog (bulk LSH bucketing, paged entries).  String narrowing and the
LSH collision merge read in-process hashes, so this file runs under
several ``PYTHONHASHSEED`` values in CI.
"""

import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import Catalog
from repro.dataframe import Table
from repro.discovery import DiscoveryIndex
from repro.discovery.index import ColumnRef
from repro.discovery.minhash import MinHasher
from repro.kernels import reference

#: Values whose normalized forms collide across case and whitespace,
#: NUL-bearing strings (numpy's unicode dtype drops trailing NULs),
#: non-ASCII text whose case mapping changes its length, and blanks.
VALUES = (
    "a", "A", " a ", "a\t", "b", "B ", "é", "É", "É ", "ß", "SS", "İ", "ǅ",
    "x\x00", "X\x00 ", "\x00", "\x00a", "日本", " 日本", "k1", "K1", " k1",
    "", "  ",
)  # fmt: skip
CELLS = st.one_of(st.sampled_from(VALUES), st.text(max_size=3))
NUM_PERM, BANDS = 16, 8


@st.composite
def tables(draw, name):
    rows = draw(st.integers(min_value=0, max_value=10))
    columns = draw(
        st.lists(st.sampled_from(("k", "v")), min_size=1, max_size=2, unique=True)
    )
    return Table(
        name,
        {c: draw(st.lists(CELLS, min_size=rows, max_size=rows)) for c in columns},
    )


@st.composite
def setups(draw):
    corpus = [draw(tables(f"t{i}")) for i in range(draw(st.integers(1, 5)))]
    theta = draw(st.sampled_from([0.0, 0.2, 0.5, 1.0]))
    seed = draw(st.integers(0, 3))
    return corpus, draw(tables("probe")), theta, seed


def _bands(signature):
    return signature.reshape(BANDS, -1)


def brute_force(corpus, query_values, theta, seed, exclude_table=None) -> list:
    """``(ref, containment)`` of every column colliding with the query in
    some band, at containment >= ``theta``, best-first."""
    hasher = MinHasher(num_perm=NUM_PERM, seed=seed)
    probe = _bands(hasher.signature(query_values))
    out = []
    for table in corpus:
        if table.name == exclude_table:
            continue
        for column in table.column_names:
            distinct = reference.distinct_strings(table.column(column))
            bands = _bands(hasher.signature(distinct))
            if not (bands == probe).all(axis=1).any():
                continue
            normalized = reference.normalize_strings(distinct)
            containment = len(query_values & normalized) / len(query_values)
            if containment >= theta:
                out.append((ColumnRef(table.name, column), containment))
    out.sort(key=lambda item: (-item[1], str(item[0])))
    return out


def check(index, corpus, probe, theta, seed) -> None:
    """Hold every probe column and every corpus column (self-joins
    excluded) to the oracle."""
    queries = [(probe, None)] + [(table, table.name) for table in corpus]
    for table, exclude in queries:
        for column in table.column_names:
            query = reference.normalize_strings(
                reference.distinct_strings(table.column(column))
            )
            got = index.joinable(table, column, exclude_table=exclude)
            if not query:
                assert got == []
                continue
            assert got == brute_force(corpus, query, theta, seed, exclude)


@settings(max_examples=80, deadline=None)
@given(setup=setups())
def test_cold_index_containment_is_set_intersection(setup):
    corpus, probe, theta, seed = setup
    index = DiscoveryIndex(
        num_perm=NUM_PERM, bands=BANDS, min_containment=theta, seed=seed
    ).build(corpus)
    check(index, corpus, probe, theta, seed)


@settings(max_examples=40, deadline=None)
@given(setup=setups())
def test_hydrated_index_containment_is_set_intersection(setup):
    corpus, probe, theta, seed = setup
    config = dict(num_perm=NUM_PERM, bands=BANDS, min_containment=theta, seed=seed)
    with tempfile.TemporaryDirectory() as root:
        Catalog.open(root, corpus=corpus, **config).save()
        catalog = Catalog.load(root, corpus=corpus)
        assert catalog.computed_columns == 0  # every column came from disk
        check(catalog.index, corpus, probe, theta, seed)


def test_nul_and_case_variants_count_once():
    """Normalization merges case and outer whitespace; NUL bytes stay
    significant.  One row per band makes both columns collide."""
    corpus = [
        Table("t0", {"k": ["a", "B ", "x\x00", "é"]}),
        Table("t1", {"k": [" A", "b", "x", "É"]}),
    ]
    probe = Table("probe", {"k": ["a", "b", "x\x00", "É ", "z"]})
    index = DiscoveryIndex(num_perm=16, bands=16, min_containment=0.0).build(corpus)
    assert index.joinable(probe, "k") == [
        (ColumnRef("t0", "k"), 4 / 5),
        (ColumnRef("t1", "k"), 3 / 5),
    ]
