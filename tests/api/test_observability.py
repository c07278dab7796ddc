"""Engine/catalog telemetry: metrics, traces, and stats().

The golden rule under test: observability is *passive*.  Results must
be byte-identical with a private registry or a shared one; every counter the
engine reports must reconcile with what actually happened; and the
engine wires a run's observers only into a searcher its factory has just
built, refusing one that arrives already wired.
"""

import json

import pytest

from repro.api import DiscoveryEngine, DiscoveryRequest
from repro.catalog import Catalog, CatalogStore
from repro.core.config import MetamConfig
from repro.core.serialization import result_to_dict
from repro.data import clustering_scenario
from repro.obs.metrics import MetricsRegistry
from repro.tasks.base import Task

CONFIG = dict(theta=0.6, query_budget=25, epsilon=0.1, seed=0)


@pytest.fixture(scope="module")
def scenario():
    return clustering_scenario(seed=0)


def request_for(scenario, **overrides):
    fields = dict(
        base=scenario.base,
        task=scenario.task,
        searcher="metam",
        config=MetamConfig(**CONFIG),
    )
    fields.update(overrides)
    return DiscoveryRequest(**fields)


def cacheable_request(engine, scenario, seed=0, searcher="metam"):
    """A request the result cache can key (task by registry name)."""
    try:
        engine.tasks.register("obs-task", lambda **_options: scenario.task)
    except Exception:
        pass  # already registered on this engine
    return DiscoveryRequest(
        base=scenario.base,
        task="obs-task",
        searcher=searcher,
        config=MetamConfig(**{**CONFIG, "seed": seed}),
        seed=seed,
    )


class TestGoldenResults:
    def test_results_identical_with_private_and_shared_registry(self, scenario):
        """Metrics and tracing must never perturb the search: a private
        registry, a fresh shared one and the same shared one already
        holding another engine's series give one result."""
        shared = MetricsRegistry()
        outcomes = []
        for metrics in (None, shared, shared):
            engine = DiscoveryEngine(corpus=scenario.corpus, metrics=metrics)
            run = engine.discover(request_for(scenario))
            assert run.trace is not None and run.trace["name"] == "discover"
            outcomes.append(result_to_dict(run.result))
        assert outcomes[0] == outcomes[1] == outcomes[2]
        assert shared.value("repro_engine_runs_total", status="completed") == 2.0

    @pytest.mark.parametrize("metrics", [False, True, 0, "shared", {}])
    def test_metrics_takes_only_none_or_a_registry(self, metrics):
        with pytest.raises(TypeError, match="MetricsRegistry"):
            DiscoveryEngine(metrics=metrics)


class TestTraces:
    def test_run_carries_a_trace_tree(self, scenario):
        engine = DiscoveryEngine(corpus=scenario.corpus)
        run = engine.discover(request_for(scenario))
        trace = run.trace
        assert trace["name"] == "discover"
        assert trace["attrs"]["run_id"] == run.run_id
        assert trace["attrs"]["searcher"] == "metam"
        names = [child["name"] for child in trace["children"]]
        assert names[:2] == ["prepare", "search"]
        search = trace["children"][1]
        kinds = {child["name"] for child in search["children"]}
        assert "query" in kinds and "round" in kinds

    def test_trace_round_trips_through_run_record(self, scenario):
        from repro.api.run import DiscoveryRun

        engine = DiscoveryEngine(corpus=scenario.corpus)
        run = engine.discover(request_for(scenario))
        record = json.loads(json.dumps(run.to_record()))
        rebuilt = DiscoveryRun.from_record(record, run.request, run_id=99)
        assert rebuilt.trace == run.trace
        assert rebuilt.cache_info == run.cache_info


class TestStats:
    def test_stats_reports_telemetry_keys(self, scenario):
        engine = DiscoveryEngine(
            corpus=scenario.corpus, result_cache_bytes=8 << 20
        )
        request = cacheable_request(engine, scenario)
        engine.discover(request)
        engine.discover(request)  # replay
        stats = engine.stats()
        # Legacy keys survive the rewrite...
        assert stats["runs_started"] == 2
        assert stats["runs_completed"] == 2
        assert stats["result_cache_hits"] == 1
        assert stats["prepared_candidate_sets"] == 1
        # ...and the telemetry-backed ones arrive.
        assert stats["result_cache_reserved"] == 0
        assert stats["prepare_cache_misses"] == 1
        assert stats["result_cache_misses"] == 1
        assert stats["result_cache_hit_rate"] == 0.5

    def test_stats_counters_back_onto_registry(self, scenario):
        engine = DiscoveryEngine(corpus=scenario.corpus)
        engine.discover(request_for(scenario))
        stats, value = engine.stats(), engine.metrics.value
        assert stats["runs_started"] == value("repro_engine_runs_started_total") == 1
        for status in ("completed", "cancelled", "failed"):
            assert stats[f"runs_{status}"] == value(
                "repro_engine_runs_total", status=status
            )
        assert stats["runs_completed"] == 1
        assert stats["queries_served"] == value("repro_engine_queries_served_total")
        assert stats["queries_served"] > 0
        assert stats["result_cache_hits"] == value(
            "repro_engine_result_cache_events_total", event="hit"
        )

    def test_failed_run_counted(self, scenario):
        class FailingTask(Task):
            def utility(self, table):
                raise RuntimeError("utility failed")

        engine = DiscoveryEngine(corpus=scenario.corpus)
        with pytest.raises(RuntimeError, match="utility failed"):
            engine.discover(request_for(scenario, task=FailingTask()))
        assert (
            engine.metrics.value("repro_engine_runs_total", status="failed")
            == 1.0
        )


class TestMetricsExports:
    def test_prometheus_exposition_covers_acceptance_metrics(self, scenario):
        engine = DiscoveryEngine(
            corpus=scenario.corpus, result_cache_bytes=8 << 20
        )
        request = cacheable_request(engine, scenario)
        engine.discover(request)
        engine.discover(request)
        text = engine.metrics_prometheus()
        for family in (
            "repro_engine_result_cache_reserved",
            "repro_engine_result_cache_events_total",
            "repro_engine_prepare_cache_events_total",
            "repro_engine_run_seconds",
            "repro_engine_run_rounds",
            "repro_engine_round_utility_gain",
            "repro_store_lock_wait_seconds",
        ):
            assert f"# TYPE {family}" in text, f"{family} missing"
        assert 'repro_engine_result_cache_events_total{event="hit"} 1' in text

    def test_snapshot_quantiles_present(self, scenario):
        engine = DiscoveryEngine(corpus=scenario.corpus)
        engine.discover(request_for(scenario))
        snapshot = engine.metrics_snapshot()
        series = snapshot["repro_engine_run_seconds"]["series"]
        completed = [s for s in series if ("completed",) == tuple(s["labels"].values())]
        assert completed and completed[0]["count"] == 1
        assert "p99" in completed[0]

    def test_shared_registry_collects_engine_and_store(self, scenario, tmp_path):
        """A store-backed catalog records into the engine's registry: the
        warm-start refresh + save of the first request puts store writes
        and shard-lock waits beside the engine's own run counters."""
        registry = MetricsRegistry()
        engine = DiscoveryEngine(
            corpus=scenario.corpus,
            catalog=Catalog(CatalogStore(str(tmp_path / "cat")), seed=0),
            metrics=registry,
        )
        engine.discover(request_for(scenario))
        assert registry.value("repro_engine_runs_total", status="completed") == 1.0
        assert registry.value("repro_store_writes_total", section="objects") > 0
        lock_series = registry.get("repro_store_lock_wait_seconds").series()
        assert lock_series, "no shard lock waits recorded"


class TestHookHygiene:
    def test_prewired_searcher_is_refused(self, scenario):
        """A factory that sets an observer itself hands the engine a
        wired searcher: the run fails naming the attribute, is counted
        as failed, and the engine serves the next request."""
        engine = DiscoveryEngine(corpus=scenario.corpus)
        original_factory = engine.searchers.get("metam")

        def prewired_factory(*args, **kwargs):
            searcher = original_factory(*args, **kwargs)
            searcher.on_round = lambda *_args: None
            return searcher

        engine.searchers.register("metam-prewired", prewired_factory)
        with pytest.raises(TypeError, match="on_round"):
            engine.discover(request_for(scenario, searcher="metam-prewired"))
        stats = engine.stats()
        assert stats["runs_failed"] == 1
        assert stats["queries_served"] == 0
        assert engine.discover(request_for(scenario)).completed

    def test_reused_searcher_is_refused(self, scenario):
        """A factory that returns one instance twice: the second run
        fails before its first query (the instance still holds the
        first run's query engine), and the first run's record and
        events are unchanged."""
        engine = DiscoveryEngine(corpus=scenario.corpus)
        original_factory = engine.searchers.get("metam")
        kept = []

        def reusing_factory(*args, **kwargs):
            if not kept:
                kept.append(original_factory(*args, **kwargs))
            return kept[0]

        engine.searchers.register("metam-reused", reusing_factory)
        first = engine.discover(request_for(scenario, searcher="metam-reused"))
        record = json.dumps(first.to_record(), sort_keys=True)
        events = list(first.events)
        queries = kept[0].engine.queries
        seen = []
        with pytest.raises(TypeError, match="on_query"):
            engine.discover(
                request_for(scenario, searcher="metam-reused"),
                progress=seen.append,
            )
        assert [event.kind for event in seen] == [
            "run-started", "candidates-prepared",
        ]
        assert kept[0].engine.queries == queries
        assert json.dumps(first.to_record(), sort_keys=True) == record
        assert first.events == events
        assert engine.stats()["runs_failed"] == 1


class TestRecordCacheInfo:
    def test_cache_info_lifecycle(self, scenario):
        engine = DiscoveryEngine(
            corpus=scenario.corpus, result_cache_bytes=8 << 20
        )
        request = cacheable_request(engine, scenario)
        cold = engine.discover(request)
        assert cold.cache_info == {
            "prepare_source": "prepared",
            "prepare_cache_hit": False,
            "result_cache_hit": False,
        }
        warm = engine.discover(request)
        assert warm.cache_info["result_cache_hit"] is True
        assert "result_cache_tier" not in warm.cache_info  # one tier
        # The replay's record still knows how its original prepared.
        assert warm.cache_info["prepare_source"] == "prepared"
        assert warm.to_record()["caches"] == warm.cache_info

    def test_from_record_defaults_empty_caches(self, scenario):
        from repro.api.run import DiscoveryRun

        engine = DiscoveryEngine(corpus=scenario.corpus)
        run = engine.discover(request_for(scenario))
        record = run.to_record()
        del record["caches"]  # a pre-PR-6 archived record
        rebuilt = DiscoveryRun.from_record(record, run.request, run_id=1)
        assert rebuilt.cache_info == {}
