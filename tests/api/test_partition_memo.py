"""The engine's partition memo: one ε-cover per prepared set, ε and first
center.

CLUSTER-PARTITION's only random input is its first center, drawn once
from the run's generator.  A plain METAM run over a prepared set's own
candidates draws that center exactly as ``cluster_partition`` would and
takes the cover from the set's memo, keyed ``(ε, first center)``; only
the first run to need a key computes it.  A warm engine's run therefore
equals a fresh engine's, and the generator leaves the partition in the
state the unmemoized partition leaves it in.
"""

import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import DiscoveryEngine, DiscoveryRequest
from repro.api import engine as engine_module
from repro.core import Metam
from repro.core.config import MetamConfig
from repro.data import clustering_scenario
from repro.utils.rng import ensure_rng

from tests.api.test_base_utility_memo import comparable
from tests.core import reference_clustering

EPSILONS = [0.05, 0.1, 0.25]


@pytest.fixture(scope="module")
def scenario():
    return clustering_scenario(seed=0)


def request_for(scenario, searcher="metam", seed=1, epsilon=0.1,
                prepare_seed=0, candidates=None):
    return DiscoveryRequest(
        base=scenario.base,
        task=scenario.task,
        searcher=searcher,
        seed=seed,
        prepare_seed=prepare_seed,
        candidates=candidates,
        config=MetamConfig(theta=0.9, query_budget=6, epsilon=epsilon, seed=seed),
    )


def partition_counts(engine):
    stats = engine.stats()
    return (
        stats["partition_hits"],
        stats["partition_misses"],
        stats["partition_entries"],
    )


def first_center(engine, scenario, prepare_seed, seed):
    """The first center a run with ``seed`` draws: the reference
    partition's one ``rng.integers(0, n)``."""
    n = len(engine.prepare(scenario.base, seed=prepare_seed))
    return int(ensure_rng(seed).integers(0, n))


def memoized_covers(engine):
    return [
        cover
        for prepared in engine._prepared.values()
        for cover in prepared.partitions.values()
    ]


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    requests=st.lists(
        st.tuples(
            st.sampled_from(["metam", "eq", "nc"]),
            st.integers(min_value=0, max_value=30),
            st.sampled_from(EPSILONS),
            st.sampled_from([0, 1]),  # prepare seed: one prepared set each
        ),
        min_size=2,
        max_size=6,
    )
)
def test_warm_engine_equals_fresh_engines_and_misses_each_key_once(
    scenario, requests
):
    warm = DiscoveryEngine(corpus=scenario.corpus)
    seen = set()
    for searcher, seed, epsilon, prepare_seed in requests:
        request = request_for(scenario, searcher, seed, epsilon, prepare_seed)
        fresh = DiscoveryEngine(corpus=scenario.corpus)
        fresh.prepare(scenario.base, seed=prepare_seed)
        warm.prepare(scenario.base, seed=prepare_seed)  # same provenance
        reference = fresh.discover(request)
        hits, misses, _ = partition_counts(warm)
        served = warm.discover(request)
        assert served.completed and reference.completed
        assert comparable(served) == comparable(reference)
        if searcher == "nc":  # singletons: no CLUSTER-PARTITION at all
            assert partition_counts(warm)[:2] == (hits, misses)
            continue
        key = (prepare_seed, epsilon,
               first_center(warm, scenario, prepare_seed, seed))
        # A miss is exactly the first occurrence of its key.
        expected = (hits, misses + 1) if key not in seen else (hits + 1, misses)
        assert partition_counts(warm)[:2] == expected
        seen.add(key)
    hits, misses, entries = partition_counts(warm)
    assert misses == entries == len(seen)


@pytest.mark.parametrize("epsilon", EPSILONS)
def test_generator_leaves_the_partition_in_the_reference_state(
    scenario, monkeypatch, epsilon
):
    """Miss and hit alike draw exactly one first center from the run's
    generator and return the reference partition."""
    served = []
    memo_partition = engine_module.DiscoveryEngine._memo_partition

    def spy(self, prepared, vectors, epsilon, seed=None):
        clusters = memo_partition(self, prepared, vectors, epsilon, seed=seed)
        served.append((np.array(vectors), clusters, seed.bit_generator.state))
        return clusters

    monkeypatch.setattr(engine_module.DiscoveryEngine, "_memo_partition", spy)
    engine = DiscoveryEngine(corpus=scenario.corpus)
    for _ in range(2):
        engine.discover(request_for(scenario, seed=3, epsilon=epsilon))
    assert partition_counts(engine) == (1, 1, 1)
    assert len(served) == 2
    for vectors, clusters, state in served:
        rng = np.random.default_rng(3)
        reference = reference_clustering.cluster_partition(vectors, epsilon, seed=rng)
        assert state == rng.bit_generator.state
        assert clusters.centers == reference.centers
        assert np.array_equal(clusters.assignment, reference.assignment)


def test_racing_runs_compute_one_key_once(scenario, monkeypatch):
    computed = []
    cover = engine_module.greedy_cover

    def slow_cover(vectors, epsilon, start):
        computed.append(start)
        time.sleep(0.2)  # hold the key while the other racers ask for it
        return cover(vectors, epsilon, start)

    monkeypatch.setattr(engine_module, "greedy_cover", slow_cover)
    engine = DiscoveryEngine(corpus=scenario.corpus)
    engine.prepare(scenario.base, seed=0)
    request = request_for(scenario, seed=5)
    fresh = DiscoveryEngine(corpus=scenario.corpus)
    fresh.prepare(scenario.base, seed=0)  # same provenance as the racers
    expected = comparable(fresh.discover(request))
    computed.clear()
    runs = [None] * 4
    start = threading.Barrier(4)

    def serve(i):
        start.wait()
        runs[i] = engine.discover(request)

    threads = [threading.Thread(target=serve, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(computed) == 1
    assert partition_counts(engine) == (3, 1, 1)
    assert [comparable(run) for run in runs] == [expected] * 4


def test_request_supplied_candidates_never_memoize(scenario):
    engine = DiscoveryEngine(corpus=scenario.corpus)
    candidates = engine.prepare(scenario.base, seed=0)
    for _ in range(2):
        engine.discover(request_for(scenario, candidates=candidates))
    assert partition_counts(engine) == (0, 0, 0)


class _PluginMetam(Metam):
    """A plug-in searcher class: it may cluster however it likes."""


def test_plugin_searchers_never_memoize(scenario):
    engine = DiscoveryEngine(corpus=scenario.corpus)
    engine.searchers.register(
        "plugin",
        lambda candidates, base, corpus, task, *, config, **_kwargs:
            _PluginMetam(candidates, base, corpus, task, config),
    )

    def own_partition(candidates, base, corpus, task, *, config, **_kwargs):
        searcher = Metam(candidates, base, corpus, task, config)
        searcher.partition = reference_clustering.cluster_partition
        return searcher

    engine.searchers.register("own_partition", own_partition)
    for searcher in ("plugin", "own_partition"):
        for _ in range(2):
            assert engine.discover(request_for(scenario, searcher)).completed
    assert partition_counts(engine) == (0, 0, 0)


def test_reused_searcher_is_refused(scenario):
    """A factory that returns one plain ``Metam`` twice: the first run
    clusters through the memo; the second fails before its first query
    and leaves the first run's record and the memo as they were."""
    engine = DiscoveryEngine(corpus=scenario.corpus)
    seen = []

    def keep(candidates, base, corpus, task, *, config, **_kwargs):
        if not seen:
            seen.append(Metam(candidates, base, corpus, task, config))
        return seen[0]

    engine.searchers.register("keep", keep)
    first = engine.discover(request_for(scenario, "keep"))
    assert partition_counts(engine)[1] == 1
    record = comparable(first)
    queries = seen[0].engine.queries
    with pytest.raises(TypeError, match="on_query"):
        engine.discover(request_for(scenario, "keep"))
    assert seen[0].engine.queries == queries
    assert comparable(first) == record
    assert partition_counts(engine)[1] == 1
    assert engine.stats()["runs_failed"] == 1


@pytest.mark.parametrize("drop", ["eviction", "attach_corpus"])
def test_a_dropped_or_reprepared_set_starts_empty(scenario, drop):
    engine = DiscoveryEngine(corpus=scenario.corpus, max_prepared_sets=1)
    request = request_for(scenario, seed=2)
    engine.discover(request)
    engine.discover(request)
    assert partition_counts(engine) == (1, 1, 1)
    if drop == "eviction":
        engine.prepare(scenario.base, seed=1)  # a second key evicts the first
    else:
        engine.attach_corpus(scenario.corpus)  # same content, re-prepared
    assert partition_counts(engine)[2] == 0
    engine.discover(request)  # the re-prepared set computes its cover again
    assert partition_counts(engine) == (1, 2, 1)


def test_a_memoized_partition_is_read_only(scenario):
    engine = DiscoveryEngine(corpus=scenario.corpus)
    for epsilon in (0.05, 0.25):
        engine.discover(request_for(scenario, epsilon=epsilon))
    covers = memoized_covers(engine)
    assert len(covers) == 2
    for clusters in covers:
        centers = list(clusters.centers)
        assignment = clusters.assignment.copy()
        for array in (clusters.assignment, clusters._order, clusters._starts,
                      clusters.vectors):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = array[0]
        dissolved = clusters.dissolve(clusters.cluster_of(0))
        assert dissolved is not clusters
        assert clusters.centers == centers
        assert np.array_equal(clusters.assignment, assignment)


def test_partition_metric_family_is_exposed(scenario):
    engine = DiscoveryEngine(corpus=scenario.corpus)
    text = engine.metrics_prometheus()
    for event in ("hit", "miss"):
        assert f'repro_engine_partition_events_total{{event="{event}"}} 0' in text
    for _ in range(3):
        engine.discover(request_for(scenario, seed=4))
    text = engine.metrics_prometheus()
    assert 'repro_engine_partition_events_total{event="hit"} 2' in text
    assert 'repro_engine_partition_events_total{event="miss"} 1' in text
