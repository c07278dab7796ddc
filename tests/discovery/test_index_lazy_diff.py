"""Differential suite: the lazily signing discovery index against the
eager index it replaced (``reference_index.EagerIndex``).

A cold index signs a column only when a query could return it, so the
two differ in *when* columns are MinHashed — and must not differ in
anything a caller can see: ``joinable`` / ``joinable_for_entry`` lists
(refs, containments, order), join paths, candidates, joinable counts,
signatures, stored entries and the indexed-column count, under any
interleaving of queries, removals and re-adds.  Corpora mix ``str``,
``int``, ``float`` and ``None`` cells, case and whitespace variants,
NUL-bearing strings and empty columns; a small ``max_distinct`` makes
down-sampling fire.  Narrowing reads in-process ``str`` hashes, so this
file runs under several ``PYTHONHASHSEED`` values in CI.
"""

import sys
import threading
from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.api import CandidateSpec, DiscoveryEngine
from repro.data import generate_corpus, housing_scenario
from repro.dataframe import Table
from repro.discovery import DiscoveryIndex, enumerate_join_paths, generate_candidates
from repro.discovery.minhash import MinHasher
from tests.discovery.reference_index import EagerIndex

#: Cells whose normalized forms collide across case, whitespace and
#: type, plus NUL-bearing strings (outside the unicode array fast path)
#: and every missing spelling.
CELLS = (
    "a", "A", " a ", "b", "B ", "c", "d", "é", "É ",
    "x\x00", "x", "\x00", "", "  ",
    1, 2, 3, 1.0, 2.5, -0.0, "1", "2", " 2 ", "2.5", "-0.0",
    None, float("nan"),
)  # fmt: skip
COLUMNS = ("k", "v", "w")
THETAS = st.one_of(
    st.sampled_from([0, 0.3, 1]),
    st.floats(min_value=0, max_value=1, allow_nan=False),
)


@st.composite
def tables(draw, name):
    names = draw(st.lists(st.sampled_from(COLUMNS), min_size=1, max_size=3, unique=True))
    rows = draw(st.integers(min_value=0, max_value=8))
    cells = st.lists(st.sampled_from(CELLS), min_size=rows, max_size=rows)
    return Table(name, {column: draw(cells) for column in names})


@st.composite
def setups(draw):
    corpus = [draw(tables(f"t{i}")) for i in range(draw(st.integers(1, 5)))]
    config = dict(
        min_containment=draw(THETAS),
        max_distinct=draw(st.sampled_from([2, 3, 5000])),
        seed=draw(st.integers(0, 3)),
        **draw(st.sampled_from([{}, {"num_perm": 16, "bands": 8}])),
    )
    return corpus, draw(tables("probe")), config


def table_refs(corpus):
    return st.sampled_from([(t.name, c) for t in corpus for c in t.column_names])


def operations(corpus):
    names = st.sampled_from([t.name for t in corpus])
    return st.lists(
        st.one_of(
            st.tuples(st.just("joinable"), table_refs(corpus), st.booleans()),
            st.tuples(st.just("probe"), st.sampled_from(COLUMNS)),
            st.tuples(st.just("entry"), table_refs(corpus), st.booleans()),
            st.tuples(st.just("remove"), names),
            st.tuples(st.just("add"), names),
            st.tuples(st.just("paths"), st.integers(1, 2), st.integers(1, 4)),
            st.tuples(st.just("count"), names, st.booleans()),
            st.tuples(st.just("signature"), table_refs(corpus)),
        ),
        max_size=12,
    )


def paths(index, base, max_hops, max_fanout):
    return [str(p) for p in enumerate_join_paths(base, index, max_hops, max_fanout)]


def candidates(index, base, max_hops, max_fanout):
    augmentations = generate_candidates(base, index, max_hops, max_fanout)
    return [aug.aug_id for aug in augmentations]


def step(op, lazy, eager, by_name, probe):
    """Apply ``op`` to both indexes; assert they answer alike."""
    kind = op[0]
    if kind == "probe":
        if op[1] in probe.column_names:
            assert lazy.joinable(probe, op[1]) == eager.joinable(probe, op[1])
        return
    if kind == "paths":
        _, hops, fanout = op
        assert paths(lazy, probe, hops, fanout) == paths(eager, probe, hops, fanout)
        assert candidates(lazy, probe, hops, fanout) == candidates(
            eager, probe, hops, fanout
        )
        return
    name = op[1][0] if isinstance(op[1], tuple) else op[1]
    if kind == "add":
        if name not in eager:
            lazy.add_table(by_name[name])
            eager.add_table(by_name[name])
        return
    if name not in eager:
        return
    if kind == "remove":
        lazy.remove_table(name)
        eager.remove_table(name)
    elif kind == "joinable":
        (_, column), exclude = op[1], op[2]
        table = by_name[name]
        exclude = name if exclude else None
        assert lazy.joinable(table, column, exclude) == eager.joinable(
            table, column, exclude
        )
    elif kind == "entry":
        (_, column), exclude = op[1], op[2]
        # The eager index's entry: querying with it leaves the lazy
        # index's own columns unsigned, so narrowing is what is tested.
        entry = eager.column_entries(name)[column]
        exclude = name if exclude else None
        assert lazy.joinable_for_entry(entry, exclude) == eager.joinable_for_entry(
            entry, exclude
        )
    elif kind == "count":
        target = name if op[2] else by_name[name]
        assert lazy.joinable_count(target) == eager.joinable_count(target)
    elif kind == "signature":
        ref = next(r for r in eager._entries if (r.table, r.column) == op[1])
        assert np.array_equal(lazy.signature_of(ref), eager.signature_of(ref))
        assert lazy.column_entries(name) == eager.column_entries(name)


class TestLazyMatchesEager:
    @settings(max_examples=250, deadline=None)
    @given(data=st.data(), setup=setups())
    def test_any_interleaving_answers_alike(self, data, setup):
        corpus, probe, config = setup
        lazy = DiscoveryIndex(**config).build(corpus)
        eager = EagerIndex(**config).build(corpus)
        by_name = {t.name: t for t in corpus}
        for op in data.draw(operations(corpus)):
            step(op, lazy, eager, by_name, probe)
            assert lazy.num_indexed_columns == eager.num_indexed_columns
            assert set(lazy.tables) == set(eager.tables)
        # Whatever stayed unsigned, every entry reads back identical.
        for name in eager.tables:
            assert lazy.column_entries(name) == eager.column_entries(name)
        assert not lazy._unsigned

    @settings(max_examples=100, deadline=None)
    @given(setup=setups(), hops=st.integers(1, 2))
    def test_cold_paths_and_candidates(self, setup, hops):
        """The cold prepare's shape: build, then enumerate from a base
        outside the corpus with every column still unsigned."""
        corpus, probe, config = setup
        lazy = DiscoveryIndex(**config).build(corpus)
        eager = EagerIndex(**config).build(corpus)
        assert lazy.num_indexed_columns == eager.num_indexed_columns
        assert paths(lazy, probe, hops, 50) == paths(eager, probe, hops, 50)
        assert candidates(lazy, probe, hops, 50) == candidates(eager, probe, hops, 50)

    @settings(max_examples=100, deadline=None)
    @given(setup=setups())
    def test_theta_zero_signs_every_column(self, setup):
        corpus, _probe, config = setup
        lazy = DiscoveryIndex(**{**config, "min_containment": 0}).build(corpus)
        probe = Table("probe", {"k": ["a"]})
        lazy.joinable(probe, "k")
        assert not lazy._unsigned
        assert len(lazy._lsh) == sum(t.num_columns for t in corpus)

    @settings(max_examples=100, deadline=None)
    @given(setup=setups())
    def test_tables_added_after_a_query_are_narrowed(self, setup):
        """Narrowing state built by one query must cover tables added
        after it."""
        corpus, probe, config = setup
        lazy, eager = DiscoveryIndex(**config), EagerIndex(**config)
        for table in corpus:
            lazy.add_table(table)
            eager.add_table(table)
            for column in probe.column_names:
                assert lazy.joinable(probe, column) == eager.joinable(probe, column)

    def test_all_pairs_on_a_portal_corpus(self):
        """Real join structure: every column of a 40-table portal corpus
        queried against the rest (the all-pairs callers' shape)."""
        corpus = generate_corpus(40, seed=3)
        lazy = DiscoveryIndex(min_containment=0.3).build(corpus)
        eager = EagerIndex(min_containment=0.3).build(corpus)
        for table in corpus:
            for column in table.column_names:
                assert lazy.joinable(table, column, table.name) == eager.joinable(
                    table, column, table.name
                )
        assert lazy.num_indexed_columns == eager.num_indexed_columns


def survivors(index, queries):
    """Refs of the columns some recorded query could return: exact
    containment >= min_containment, outside the query's excluded table."""
    out = set()
    for table, column, exclude in queries:
        query = kernels.normalize_strings(table.distinct_values(column))
        if not query:
            continue
        for ref, entry in index._entries.items():
            share = len(query & entry.normalized) / len(query)
            if ref.table != exclude and share >= index.min_containment:
                out.add(ref)
    return out


class TestSigningWork:
    def test_cold_prepare_signs_only_survivors(self, monkeypatch):
        """The work cap: a cold prepare MinHashes exactly the distinct
        values of the columns that pass containment for some query —
        each once — and nothing else."""
        scenario = housing_scenario(seed=0)
        spec = CandidateSpec(max_hops=2)
        signed, queries = [], []
        sign, joinable = MinHasher.signatures, DiscoveryIndex.joinable

        def record_sign(self, value_sets):
            value_sets = list(value_sets)
            signed.extend(frozenset(values) for values in value_sets)
            return sign(self, value_sets)

        def record_query(self, table, column, exclude_table=None):
            queries.append((table, column, exclude_table))
            return joinable(self, table, column, exclude_table)

        monkeypatch.setattr(MinHasher, "signatures", record_sign)
        monkeypatch.setattr(DiscoveryIndex, "joinable", record_query)
        DiscoveryEngine(corpus=scenario.corpus).prepare(scenario.base, spec=spec)
        monkeypatch.undo()

        eager = EagerIndex(min_containment=spec.min_containment).build(
            scenario.corpus.values()
        )
        expected = [eager._entries[ref].distinct for ref in survivors(eager, queries)]
        assert queries and expected
        assert Counter(signed) == Counter(expected)
        assert len(signed) < eager.num_indexed_columns

    def test_shared_cold_index_is_thread_safe(self):
        """Eight threads query one cold index at once: identical answers,
        each column signed once (no "items already indexed")."""
        corpus = generate_corpus(30, seed=1)
        eager = EagerIndex(min_containment=0.3).build(corpus)
        expected = {
            (t.name, c): eager.joinable(t, c, t.name)
            for t in corpus
            for c in t.column_names
        }
        shared = DiscoveryIndex(min_containment=0.3).build(corpus)
        start = threading.Barrier(8)
        results, errors = [], []

        def worker(offset):
            try:
                start.wait()
                order = corpus[offset:] + corpus[:offset]
                results.append(
                    {
                        (t.name, c): shared.joinable(t, c, t.name)
                        for t in order
                        for c in t.column_names
                    }
                )
            except Exception as error:  # surfaced below, with its type
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(3 * i,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave as finely as possible
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert len(results) == 8
        assert all(result == expected for result in results)
        assert shared.num_indexed_columns == eager.num_indexed_columns
