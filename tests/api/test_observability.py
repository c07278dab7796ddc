"""Engine/catalog telemetry: metrics, traces, and stats().

The golden rule under test: observability is *passive*.  Results must
be byte-identical with a private registry or a shared one; every counter the
engine reports must reconcile with what actually happened; and the
searcher hooks the engine borrows for a run must be chained and
restored, never clobbered.
"""

import json

import pytest

from repro.api import DiscoveryEngine, DiscoveryRequest
from repro.catalog import Catalog, CatalogStore
from repro.core.config import MetamConfig
from repro.core.metam import Metam
from repro.core.serialization import result_to_dict
from repro.data import clustering_scenario
from repro.obs.metrics import MetricsRegistry

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
        assert trace in engine.recent_traces

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

    def test_counter_properties_back_onto_registry(self, scenario):
        engine = DiscoveryEngine(corpus=scenario.corpus)
        engine.discover(request_for(scenario))
        assert engine.runs_started == 1
        assert engine.runs_completed == 1
        assert (
            engine.metrics.value("repro_engine_runs_total", status="completed")
            == 1.0
        )
        assert engine.queries_served == engine.metrics.value(
            "repro_engine_queries_served_total"
        )

    def test_failed_run_counted(self, scenario):
        engine = DiscoveryEngine(corpus=scenario.corpus)
        with pytest.raises(ValueError):
            engine.discover(request_for(scenario, searcher="iarda"))
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
    def test_on_round_callback_chained_and_restored(self, scenario):
        """Regression: the engine used to overwrite a caller's on_round
        permanently; it must chain to it and put it back after the run."""
        calls = []

        def mine(rounds, utility, queries, committed):
            calls.append(rounds)

        engine = DiscoveryEngine(corpus=scenario.corpus)
        captured = {}
        original_factory = engine.searchers.get("metam")

        def capturing_factory(*args, **kwargs):
            searcher = original_factory(*args, **kwargs)
            searcher.on_round = mine
            captured["searcher"] = searcher
            return searcher

        engine.searchers.register(
            "metam-hooked", capturing_factory, overwrite=False
        )
        run = engine.discover(request_for(scenario, searcher="metam-hooked"))
        assert run.completed
        # The caller's callback saw every round the event stream did...
        assert len(calls) == len(run.events_of("round-completed"))
        assert calls, "caller's on_round never invoked"
        # ...and the instance attribute is back to exactly the caller's.
        assert captured["searcher"].on_round is mine

    def test_on_round_restored_to_class_default(self, scenario):
        """A searcher with no instance-level on_round must come back
        with the class default visible again (no stale shadow)."""
        engine = DiscoveryEngine(corpus=scenario.corpus)
        captured = {}
        original_factory = engine.searchers.get("metam")

        def capturing_factory(*args, **kwargs):
            searcher = original_factory(*args, **kwargs)
            captured["searcher"] = searcher
            return searcher

        engine.searchers.register("metam-capture", capturing_factory)
        engine.discover(request_for(scenario, searcher="metam-capture"))
        searcher = captured["searcher"]
        assert "on_round" not in searcher.__dict__
        assert searcher.on_round is Metam.on_round is None


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
