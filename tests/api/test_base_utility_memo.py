"""The engine's base-utility memo: ``u(Din)`` fitted once per (base, task).

Every searcher's first query is the unaugmented base table.  The engine
serves it from a memo keyed by base-table content and the task's content
key; the query is still charged, so a memo-hit run is indistinguishable
from a fresh engine's run except that the task is asked fewer times.
Augmented sets share the same get-or-compute path through their prepared
set's memo (``tests/api/test_utility_memo.py``).
"""

import copy
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import pytest

from repro.api import CancellationToken, DiscoveryEngine, DiscoveryRequest
from repro.api.registries import default_searchers
from repro.core.config import MetamConfig
from repro.data import clustering_scenario, entity_linking_scenario
from repro.tasks import ClusteringTask, EntityLinkingTask, RegressionTask
from repro.tasks.base import content_key

from tests.server.conftest import ServerHarness

BUDGET = 6


@pytest.fixture(scope="module")
def scenario():
    return clustering_scenario(seed=0)


@contextmanager
def recorded_fits(fail_on=None):
    """Patches ``ClusteringTask.utility`` on the class (the tasks stay
    library objects with a content key) to record the column set of
    every fit; a column set names the augmentation set fitted.
    ``fail_on(table)`` may raise instead of fitting."""
    calls = []
    original = ClusteringTask.utility

    def counted(self, table):
        if fail_on is not None:
            fail_on(table)
        calls.append(frozenset(table.column_names))
        return original(self, table)

    ClusteringTask.utility = counted
    try:
        yield calls
    finally:
        ClusteringTask.utility = original


@pytest.fixture
def fits():
    with recorded_fits() as calls:
        yield calls


def request_for(scenario, searcher="metam", seed=1, task=None, budget=BUDGET):
    metam = searcher in ("metam", "eq", "nc", "nceq")
    return DiscoveryRequest(
        base=scenario.base,
        task=task if task is not None else scenario.task,
        searcher=searcher,
        theta=0.9,
        query_budget=budget,
        seed=seed,
        prepare_seed=0,
        config=(
            MetamConfig(theta=0.9, query_budget=budget, epsilon=0.1, seed=seed)
            if metam
            else None
        ),
        options=(
            {"target_column": "satiety_score", "mode": "regression"}
            if searcher == "iarda"
            else {}
        ),
    )


def comparable(run) -> dict:
    """The run record without what differs between two servings of the
    same request: ids, wall-clock timings and the span tree."""
    record = run.to_record()
    for key in ("run_id", "timings", "trace"):
        record.pop(key)
    for event in record["events"]:
        event.pop("seconds", None)
        event.pop("run_id", None)
    return record


def memo_counts(engine):
    stats = engine.stats()
    return stats["base_utility_hits"], stats["base_utility_misses"]


@pytest.mark.parametrize("searcher", default_searchers().names())
def test_second_request_equals_a_fresh_engine_and_fits_only_its_new_sets(
    scenario, fits, searcher
):
    warm = DiscoveryEngine(corpus=scenario.corpus)
    warm.discover(request_for(scenario, searcher, seed=1))
    first_sets = set(fits)
    before = len(fits)
    served = warm.discover(request_for(scenario, searcher, seed=2))
    warm_fits = fits[before:]

    fresh = DiscoveryEngine(corpus=scenario.corpus)
    fresh.prepare(scenario.base, seed=0)  # same prepare-cache provenance
    before = len(fits)
    reference = fresh.discover(request_for(scenario, searcher, seed=2))
    fresh_fits = fits[before:]

    assert served.completed and reference.completed
    assert comparable(served) == comparable(reference)
    assert served.result.queries == reference.result.queries
    assert served.result.trace == reference.result.trace
    assert served.events_of("query-issued") == reference.events_of("query-issued")
    # A fresh engine fits every set it charges, once; the warm engine
    # fits exactly the sets request 2 queries that request 1 did not.
    assert len(fresh_fits) == len(set(fresh_fits)) == reference.result.queries
    assert sorted(warm_fits, key=sorted) == sorted(
        set(fresh_fits) - first_sets, key=sorted
    )
    assert memo_counts(warm) == (1, 1)
    assert memo_counts(fresh) == (0, 1)


def test_mutated_task_is_refitted(scenario, fits):
    task = copy.copy(scenario.task)
    engine = DiscoveryEngine(corpus=scenario.corpus)
    engine.discover(request_for(scenario, task=task))
    task.seed = 7
    engine.discover(request_for(scenario, task=task))
    assert memo_counts(engine) == (0, 2)
    engine.discover(request_for(scenario, task=task, seed=3))
    assert memo_counts(engine) == (1, 2)


class _UserTask(RegressionTask):
    """A user subclass: same attributes, but code the library cannot vouch
    for, so it never gets a content key."""


def test_user_subclass_is_never_memoized(scenario):
    task = _UserTask("satiety_score", exclude_columns=("ingredient_id",))
    assert content_key(task) is None
    engine = DiscoveryEngine(corpus=scenario.corpus)
    for seed in (1, 2):
        assert engine.discover(request_for(scenario, "uniform", seed, task)).completed
    assert memo_counts(engine) == (0, 0)
    assert len(engine._base_utilities) == 0


def test_entity_linking_is_never_memoized():
    scenario = entity_linking_scenario(seed=0)
    assert isinstance(scenario.task, EntityLinkingTask)
    assert content_key(scenario.task) is None
    engine = DiscoveryEngine(corpus=scenario.corpus)
    for seed in (1, 2):
        assert engine.discover(request_for(scenario, "uniform", seed)).completed
    assert memo_counts(engine) == (0, 0)


def test_a_failing_fit_stores_nothing(scenario, monkeypatch):
    def explode(self, table):
        raise RuntimeError("fit failed")

    engine = DiscoveryEngine(corpus=scenario.corpus)
    with monkeypatch.context() as patch:
        patch.setattr(ClusteringTask, "utility", explode)
        with pytest.raises(RuntimeError, match="fit failed"):
            engine.discover(request_for(scenario))
    assert len(engine._base_utilities) == 0
    # The next request fits again and is served normally.
    assert engine.discover(request_for(scenario)).completed
    assert memo_counts(engine) == (0, 2)
    assert len(engine._base_utilities) == 1


def test_a_run_cancelled_before_its_first_query_stores_nothing(scenario, fits):
    engine = DiscoveryEngine(corpus=scenario.corpus)
    token = CancellationToken()
    token.cancel()
    assert engine.discover(request_for(scenario), cancel=token).cancelled
    assert fits == []
    assert memo_counts(engine) == (0, 0)
    assert len(engine._base_utilities) == 0


def test_concurrent_discovers_share_one_entry(scenario):
    seeds = range(1, 9)
    sequential = DiscoveryEngine(corpus=scenario.corpus)
    sequential.prepare(scenario.base, seed=0)
    expected = [
        comparable(sequential.discover(request_for(scenario, seed=seed)))
        for seed in seeds
    ]

    engine = DiscoveryEngine(corpus=scenario.corpus)
    engine.prepare(scenario.base, seed=0)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # hand the GIL over mid-lookup
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            runs = list(
                pool.map(
                    lambda seed: engine.discover(request_for(scenario, seed=seed)),
                    seeds,
                )
            )
    finally:
        sys.setswitchinterval(interval)
    # Run ids follow thread scheduling; everything else matches run by run.
    assert [comparable(run) for run in runs] == expected
    hits, misses = memo_counts(engine)
    assert hits + misses == 8
    assert misses >= 1
    assert len(engine._base_utilities) == 1


def test_memo_is_bounded_by_max_prepared_sets(scenario):
    engine = DiscoveryEngine(corpus=scenario.corpus, max_prepared_sets=1)
    for seed in (0, 1):
        task = ClusteringTask(
            "satiety_score", exclude_columns=("ingredient_id",), seed=seed
        )
        engine.discover(request_for(scenario, task=task))
    assert len(engine._base_utilities) == 1


def test_base_utility_metric_family_is_exposed(scenario):
    engine = DiscoveryEngine(corpus=scenario.corpus)
    text = engine.metrics_prometheus()
    assert 'repro_engine_base_utility_events_total{event="hit"} 0' in text
    assert 'repro_engine_base_utility_events_total{event="miss"} 0' in text
    for seed in (1, 2):
        engine.discover(request_for(scenario, seed=seed))
    text = engine.metrics_prometheus()
    assert 'repro_engine_base_utility_events_total{event="hit"} 1' in text


def test_stub_searcher_with_a_bare_hook_object_still_serves():
    harness = ServerHarness()
    try:
        sid = harness.session()
        payload = harness.payload(queries=2)
        # A library task by name: it has a content key, but the stub's
        # engine is a bare hook object with no task or base to key on.
        payload["task"] = "clustering"
        payload["task_options"] = {"score_column": "x"}
        run = harness.service.submit(sid, payload)
        status = harness.wait_terminal(run["run_id"])
        assert status["state"] == "completed"
        text = harness.service.metrics_prometheus()
        for event in ("hit", "miss"):
            assert f'repro_engine_base_utility_events_total{{event="{event}"}} 0' in text
    finally:
        harness.close()
