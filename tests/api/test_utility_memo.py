"""The engine's utility memo on augmented sets: a task fit that an earlier
request on the same prepared candidate set paid for is never paid again.

Entries are keyed by (base-table content, task content key, frozenset of
aug ids) inside the prepared set they were charged on, so they live and
die with that set.  Every hit is still a charged query: a warm engine's
run equals a fresh engine's, and only the number of fits differs — by
exactly the sets some earlier request already fitted.
"""

import sys
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import CancellationToken, DiscoveryEngine, DiscoveryRequest
from repro.api.registries import default_searchers
from repro.data import clustering_scenario
from repro.discovery import Augmentation
from repro.tasks import ClusteringTask
from repro.tasks.base import content_key

from tests.api.test_base_utility_memo import comparable, recorded_fits, request_for


@pytest.fixture(scope="module")
def scenario():
    return clustering_scenario(seed=0)


def set_counts(engine):
    stats = engine.stats()
    return (
        stats["set_utility_hits"],
        stats["set_utility_misses"],
        stats["set_utility_entries"],
    )


def fresh_run(scenario, request):
    """``request`` on a fresh engine (same prepare-cache provenance as a
    warm one) → (run, fitted column sets)."""
    engine = DiscoveryEngine(corpus=scenario.corpus)
    engine.prepare(scenario.base, seed=0)
    with recorded_fits() as fits:
        run = engine.discover(request)
    assert len(fits) == len(set(fits)) == run.queries
    return run, fits


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    requests=st.lists(
        st.tuples(
            st.sampled_from(default_searchers().names()),
            st.integers(min_value=0, max_value=40),
            st.integers(min_value=1, max_value=10),
            st.sampled_from([0, 1]),  # the task's seed: its content key
        ),
        min_size=2,
        max_size=4,
    )
)
def test_warm_engine_equals_fresh_engines_and_fits_each_set_once(scenario, requests):
    warm = DiscoveryEngine(corpus=scenario.corpus)
    warm.prepare(scenario.base, seed=0)
    seen = {0: set(), 1: set()}  # fitted column sets by task seed
    for searcher, seed, budget, task_seed in requests:
        task = ClusteringTask(
            "satiety_score", exclude_columns=("ingredient_id",), seed=task_seed
        )
        request = request_for(scenario, searcher, seed, task, budget)
        reference, fresh_fits = fresh_run(scenario, request)
        with recorded_fits() as warm_fits:
            served = warm.discover(request)
        assert served.completed and reference.completed
        assert comparable(served) == comparable(reference)
        assert sorted(warm_fits, key=sorted) == sorted(
            set(fresh_fits) - seen[task_seed], key=sorted
        )
        seen[task_seed] |= set(fresh_fits)
    stats = warm.stats()
    base = frozenset(scenario.base.column_names)
    augmented = sum(len(sets - {base}) for sets in seen.values())
    assert stats["set_utility_entries"] == stats["set_utility_misses"] == augmented
    assert stats["base_utility_misses"] == sum(1 for sets in seen.values() if sets)


def test_attach_corpus_with_changed_content_refits(scenario):
    request = request_for(scenario, "uniform", seed=1, budget=6)
    engine = DiscoveryEngine(corpus=scenario.corpus)
    first = engine.discover(request)
    hits, misses, entries = set_counts(engine)
    assert misses == entries > 0

    changed = reversed_column(scenario.corpus)
    engine.attach_corpus(changed)
    assert set_counts(engine)[2] == 0
    with recorded_fits() as fits:
        served = engine.discover(request)
    reference = DiscoveryEngine(corpus=changed).discover(request)
    assert comparable(served) == comparable(reference)
    assert comparable(served) != comparable(first)
    # Only u(Din) survives a corpus change; every augmented set refits.
    assert len(fits) == served.queries - 1
    assert set_counts(engine)[:2] == (hits, misses + served.queries - 1)


@pytest.mark.parametrize("drop", ["eviction", "attach_corpus"])
def test_a_dropped_prepared_set_takes_its_entries_along(scenario, drop):
    engine = DiscoveryEngine(corpus=scenario.corpus, max_prepared_sets=1)
    request = request_for(scenario, "metam", seed=1, budget=6)
    engine.discover(request)
    assert set_counts(engine)[2] > 0
    if drop == "eviction":
        engine.prepare(scenario.base, seed=1)  # a second key evicts the first
    else:
        engine.attach_corpus(scenario.corpus)  # same content, re-prepared
    assert set_counts(engine)[2] == 0
    with recorded_fits() as fits:
        served = engine.discover(request)
    assert len(fits) == served.queries - 1  # everything but u(Din)
    assert set_counts(engine)[0] == 0


class _UserTask(ClusteringTask):
    """A user subclass: no content key, so nothing about it is memoized."""


def test_request_supplied_candidates_and_user_tasks_are_never_memoized(scenario):
    engine = DiscoveryEngine(corpus=scenario.corpus)
    candidates = engine.prepare(scenario.base, seed=0)
    supplied = DiscoveryRequest(
        base=scenario.base, task=scenario.task, searcher="uniform",
        theta=0.9, query_budget=6, seed=1, candidates=candidates,
    )
    task = _UserTask("satiety_score", exclude_columns=("ingredient_id",))
    assert content_key(task) is None
    base = frozenset(scenario.base.column_names)
    for _ in range(2):
        with recorded_fits() as fits:
            run = engine.discover(supplied)
        # u(Din) alone is memoized: every augmented set refits.
        assert len([f for f in fits if f != base]) == run.queries - 1
        with recorded_fits() as fits:
            run = engine.discover(request_for(scenario, "uniform", 1, task, 6))
        assert len(fits) == run.queries
    assert set_counts(engine) == (0, 0, 0)


def reversed_column(corpus):
    """``corpus`` with one joinable table's value column reversed."""
    changed = dict(corpus)
    name = "nutrition_db"
    table = changed[name]
    changed[name] = table.with_column("oni_score", table.column("oni_score")[::-1])
    return changed


def test_a_searcher_over_another_corpus_is_never_memoized(scenario):
    """A plug-in searcher may build its augmented tables from tables of
    its own: their utilities are not the prepared set's to share."""
    changed = reversed_column(scenario.corpus)
    uniform = default_searchers().get("uniform")

    def own_corpus(candidates, base, corpus, task, **kwargs):
        return uniform(candidates, base, changed, task, **kwargs)

    engines = []
    for _ in range(2):
        engine = DiscoveryEngine(corpus=scenario.corpus)
        engine.searchers.register("own_corpus", own_corpus)
        engines.append(engine)
    warm, fresh = engines
    warm.discover(request_for(scenario, "uniform", seed=1, budget=6))
    request = request_for(scenario, "own_corpus", seed=1, budget=6)
    fitted = []
    with recorded_fits(fitted.append):
        served = warm.discover(request)
    fresh.prepare(scenario.base, seed=0)
    assert comparable(served) == comparable(fresh.discover(request))
    assert set_counts(warm)[0] == 0
    # The fits saw the searcher's own tables, not the prepared corpus's.
    def cells(aug, corpus):  # a fresh Augmentation: no cached cells
        fresh_aug = Augmentation(aug.path, aug.output_column)
        return fresh_aug.materialize(scenario.base, corpus)

    oni = [
        c.aug
        for c in warm.prepare(scenario.base, seed=0)
        if c.aug.final_table == "nutrition_db" and c.aug.output_column == "oni_score"
    ]
    checked = 0
    for table in fitted:
        for aug in oni:
            if aug.aug_id in table.column_names:
                own = cells(aug, changed)
                assert own != cells(aug, scenario.corpus)
                assert table.column(aug.aug_id) == own
                checked += 1
    assert checked > 0


def test_a_cancelled_or_failing_fit_stores_nothing(scenario):
    engine = DiscoveryEngine(corpus=scenario.corpus)
    base = frozenset(scenario.base.column_names)
    request = request_for(scenario, "uniform", seed=1, budget=6)
    token = CancellationToken()

    def cancel_mid_fit(table):
        if frozenset(table.column_names) != base:
            token.cancel()
            token.raise_if_cancelled()

    with recorded_fits(cancel_mid_fit):
        assert engine.discover(request, cancel=token).cancelled
    assert set_counts(engine) == (0, 1, 0)

    def explode(table):
        if frozenset(table.column_names) != base:
            raise RuntimeError("fit failed")

    with recorded_fits(explode), pytest.raises(RuntimeError, match="fit failed"):
        engine.discover(request)
    assert set_counts(engine) == (0, 2, 0)

    served = engine.discover(request)
    reference, _ = fresh_run(scenario, request)
    assert comparable(served) == comparable(reference)
    assert set_counts(engine) == (0, 2 + served.queries - 1, served.queries - 1)


def test_threaded_runs_share_entries(scenario):
    seeds = [1, 2, 1, 2, 3, 1]
    expected = {}
    charged = {}
    for seed in set(seeds):
        run, fits = fresh_run(scenario, request_for(scenario, "uniform", seed, budget=6))
        expected[seed] = comparable(run)
        charged[seed] = set(fits)
    engine = DiscoveryEngine(corpus=scenario.corpus)
    engine.prepare(scenario.base, seed=0)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # hand the GIL over mid-lookup
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            runs = list(
                pool.map(
                    lambda seed: engine.discover(
                        request_for(scenario, "uniform", seed, budget=6)
                    ),
                    seeds,
                    timeout=60,
                )
            )
    finally:
        sys.setswitchinterval(interval)
    assert [comparable(run) for run in runs] == [expected[seed] for seed in seeds]
    base = frozenset(scenario.base.column_names)
    distinct = set().union(*charged.values()) - {base}
    hits, misses, entries = set_counts(engine)
    assert hits + misses == sum(len(charged[seed] - {base}) for seed in seeds)
    assert entries == len(distinct)
    assert misses == entries  # a racing miss waits for the fit in flight


def test_set_utility_metric_family_is_exposed(scenario):
    engine = DiscoveryEngine(corpus=scenario.corpus)
    text = engine.metrics_prometheus()
    for event in ("hit", "miss"):
        assert f'repro_engine_set_utility_events_total{{event="{event}"}} 0' in text
    for _ in range(2):
        engine.discover(request_for(scenario, "uniform", seed=1, budget=6))
    hits, misses, _ = set_counts(engine)
    assert hits == misses > 0
    text = engine.metrics_prometheus()
    assert f'repro_engine_set_utility_events_total{{event="hit"}} {hits}' in text
