"""Tests for the session-oriented DiscoveryEngine API."""

import json

import numpy as np
import pytest

from repro.api import (
    CancellationToken,
    CandidateSpec,
    DiscoveryEngine,
    DiscoveryRequest,
    EngineStateError,
    InvalidRequest,
    RegistryError,
)
from repro.core.config import MetamConfig
from repro.core.metam import Metam
from repro.data import clustering_scenario, housing_scenario

CONFIG = dict(theta=0.6, query_budget=25, epsilon=0.1, seed=0)


@pytest.fixture(scope="module")
def scenario():
    return clustering_scenario(seed=0)


@pytest.fixture(scope="module")
def engine(scenario):
    return DiscoveryEngine(corpus=scenario.corpus)


def request_for(scenario, **overrides):
    fields = dict(
        base=scenario.base,
        task=scenario.task,
        searcher="metam",
        config=MetamConfig(**CONFIG),
    )
    fields.update(overrides)
    return DiscoveryRequest(**fields)


class TestEngineState:
    def test_corpus_required(self, scenario):
        engine = DiscoveryEngine()
        with pytest.raises(EngineStateError, match="attach_corpus"):
            engine.discover(request_for(scenario))

    def test_attach_corpus_accepts_iterable_and_dict(self, scenario):
        tables = list(scenario.corpus.values())
        from_iterable = DiscoveryEngine().attach_corpus(tables)
        from_dict = DiscoveryEngine().attach_corpus(scenario.corpus)
        assert from_iterable.corpus == from_dict.corpus

    def test_attach_corpus_rejects_duplicates(self, scenario):
        tables = list(scenario.corpus.values())
        clone = tables[0].with_column("extra", [0] * tables[0].num_rows)
        with pytest.raises(ValueError, match="duplicate"):
            DiscoveryEngine().attach_corpus(tables + [clone])

    def test_open_creates_and_reopens_catalog(self, tmp_path, scenario):
        root = str(tmp_path / "cat")
        engine = DiscoveryEngine.open(root, corpus=scenario.corpus, seed=0)
        engine.prepare(scenario.base)
        assert engine.catalog is not None
        engine.catalog.save()
        reopened = DiscoveryEngine.open(root, corpus=scenario.corpus)
        assert reopened.catalog.config == engine.catalog.config

    def test_open_create_false_requires_catalog(self, tmp_path):
        from repro.catalog import CatalogStoreError

        with pytest.raises(CatalogStoreError):
            DiscoveryEngine.open(str(tmp_path / "absent"), create=False)


class TestPrepare:
    def test_prepare_matches_transient_engine(self, engine, scenario):
        transient = DiscoveryEngine(corpus=scenario.corpus).prepare(
            scenario.base, seed=0
        )
        shared = engine.prepare(scenario.base, seed=0)
        assert [c.aug_id for c in shared] == [c.aug_id for c in transient]
        for a, b in zip(shared, transient, strict=True):
            assert np.array_equal(a.profile_vector, b.profile_vector)

    def test_prepare_cached_across_calls(self, scenario):
        engine = DiscoveryEngine(corpus=scenario.corpus)
        first = engine.prepare(scenario.base, seed=0)
        second = engine.prepare(scenario.base, seed=0)
        # Same Candidate objects (served from cache), fresh list shells.
        assert [id(c) for c in first] == [id(c) for c in second]
        assert first is not second
        assert engine.stats()["prepared_candidate_sets"] == 1

    def test_prepare_cache_keyed_by_seed_and_spec(self, scenario):
        engine = DiscoveryEngine(corpus=scenario.corpus)
        engine.prepare(scenario.base, seed=0)
        engine.prepare(scenario.base, seed=1)
        engine.prepare(
            scenario.base, spec=CandidateSpec(min_containment=0.5), seed=0
        )
        assert engine.stats()["prepared_candidate_sets"] == 3

    def test_attach_corpus_drops_prepared_cache(self, scenario):
        engine = DiscoveryEngine(corpus=scenario.corpus)
        engine.prepare(scenario.base, seed=0)
        engine.attach_corpus(scenario.corpus)
        assert engine.stats()["prepared_candidate_sets"] == 0

    def test_prepared_cache_lru_bounded(self, scenario):
        engine = DiscoveryEngine(corpus=scenario.corpus, max_prepared_sets=2)
        engine.prepare(scenario.base, seed=0)
        engine.prepare(scenario.base, seed=1)
        engine.prepare(scenario.base, seed=0)  # refresh seed 0's recency
        engine.prepare(scenario.base, seed=2)  # evicts seed 1, not seed 0
        assert engine.stats()["prepared_candidate_sets"] == 2
        _, from_cache, _ = engine._prepare_cached(scenario.base, None, None, 0)
        assert from_cache
        _, from_cache, _ = engine._prepare_cached(scenario.base, None, None, 1)
        assert not from_cache  # seed 1 was the LRU victim

    @pytest.mark.parametrize("name", ["max_prepared_sets", "max_workers"])
    def test_bounds_must_be_positive(self, scenario, name):
        with pytest.raises(ValueError, match=name):
            DiscoveryEngine(corpus=scenario.corpus, **{name: 0})

    @pytest.mark.parametrize(
        "bound", [float("nan"), float("inf"), 2.5, True, -1], ids=repr
    )
    @pytest.mark.parametrize(
        "name", ["max_prepared_sets", "result_cache_bytes", "max_workers"]
    )
    def test_cache_bounds_must_be_ints(self, scenario, name, bound):
        """``max_workers`` too: a NaN pool size never spawns a thread, so
        every run the service dispatched used to hang."""
        with pytest.raises(ValueError, match=name):
            DiscoveryEngine(corpus=scenario.corpus, **{name: bound})

    @pytest.mark.parametrize(
        ("name", "value"),
        [
            ("max_fanout", -1),
            ("max_hops", 0),
            ("max_hops", False),
            ("sample_size", -5),
            ("sample_size", 100.0),
            ("min_containment", float("nan")),
            ("min_containment", 1.5),
            ("min_containment", True),
            ("min_union_shared", float("nan")),
            ("min_union_shared", -0.5),
        ],
        ids=repr,
    )
    def test_candidate_spec_rejects_values_that_change_the_result(self, name, value):
        """Each of these used to run: a negative fanout sliced off every
        column's last joinable, a NaN, bool or above-one containment gave
        no candidates, a negative sample size failed deep in numpy."""
        with pytest.raises(ValueError, match=name):
            CandidateSpec(**{name: value})

    @pytest.mark.parametrize("disabled", [0, None])
    def test_zero_or_none_disables_result_cache(self, scenario, disabled):
        engine = DiscoveryEngine(corpus=scenario.corpus, result_cache_bytes=disabled)
        assert engine._results is None

    def test_persist_results_is_not_a_parameter(self, scenario):
        with pytest.raises(TypeError, match="persist_results"):
            DiscoveryEngine(
                corpus=scenario.corpus, result_cache_bytes=1 << 20, persist_results=True
            )

    @pytest.mark.parametrize("name", ["refresher", "staleness_budget"])
    def test_refresher_arguments_are_gone(self, scenario, name):
        with pytest.raises(TypeError, match=name):
            DiscoveryEngine(corpus=scenario.corpus, **{name: None})
        assert not hasattr(DiscoveryEngine, "attach_refresher")

    def test_staleness_budget_is_not_a_request_argument(self, engine, scenario):
        with pytest.raises(TypeError, match="staleness_budget"):
            engine.discover(request_for(scenario), staleness_budget=5.0)

    def test_the_engine_has_no_scheduler(self, scenario):
        """``discover`` is the only way to serve a request: ``submit``,
        its pool and ``DiscoveryFuture`` are gone, and ``shutdown`` and
        the context manager are no-ops that leave the engine usable."""
        import importlib

        import repro.api

        assert not hasattr(DiscoveryEngine, "submit")
        assert not hasattr(repro.api, "DiscoveryFuture")
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.api.futures")
        with pytest.raises(TypeError, match="wait"):
            DiscoveryEngine().shutdown(wait=True)
        with DiscoveryEngine(corpus=scenario.corpus, max_workers=1) as engine:
            assert engine.discover(request_for(scenario)).completed
        engine.shutdown()
        assert engine.discover(request_for(scenario)).completed
        families = engine.metrics_snapshot()
        for family in (
            "repro_engine_submit_queue_depth",
            "repro_engine_pool_active_workers",
            "repro_engine_pool_max_workers",
        ):
            assert family not in families

    def test_metrics_carry_no_refresher_families(self, scenario):
        snapshot = DiscoveryEngine(corpus=scenario.corpus).metrics_snapshot()
        assert "repro_engine_runs_total" in snapshot
        for family in snapshot:
            assert "staleness" not in family and "refresher" not in family

    def test_stats_keys(self, scenario):
        engine = DiscoveryEngine(corpus=scenario.corpus, result_cache_bytes=1 << 20)
        assert set(engine.stats()) == {
            "runs_started",
            "runs_completed",
            "runs_cancelled",
            "runs_failed",
            "queries_served",
            "prepared_candidate_sets",
            "active_prepares",
            "prepare_cache_hits",
            "prepare_cache_misses",
            "prepare_cache_hit_rate",
            "base_utility_hits",
            "base_utility_misses",
            "set_utility_hits",
            "set_utility_misses",
            "set_utility_entries",
            "partition_hits",
            "partition_misses",
            "partition_entries",
            "result_cache_hits",
            "result_cache_misses",
            "result_cache_hit_rate",
            "result_cache_entries",
            "result_cache_bytes",
            "result_cache_reserved",
            "corpus_tables",
            "searchers",
        }
        assert not hasattr(engine, "result_store_hits")


class TestDiscover:
    def test_metam_run_matches_supplied_candidates(self, engine, scenario):
        transient = DiscoveryEngine(corpus=scenario.corpus)
        candidates = transient.prepare(scenario.base, seed=0)
        supplied = transient.discover(
            request_for(scenario, candidates=candidates)
        ).result
        run = engine.discover(request_for(scenario))
        assert run.completed
        assert run.result.selected == supplied.selected
        assert run.result.utility == supplied.utility
        assert run.result.trace == supplied.trace

    @pytest.mark.parametrize("searcher", ["mw", "overlap", "uniform", "eq", "nc"])
    def test_registered_searchers_run(self, engine, scenario, searcher):
        run = engine.discover(
            request_for(
                scenario,
                searcher=searcher,
                config=None,
                theta=0.6,
                query_budget=20,
            )
        )
        assert run.completed
        assert run.result.searcher == searcher
        assert run.result.queries <= 20

    def test_unknown_searcher_fails_before_work(self, engine, scenario):
        with pytest.raises(RegistryError, match="unknown searcher"):
            engine.discover(request_for(scenario, searcher="greedy"))
        # The failed request must not count as started; accounting
        # stays balanced across every outcome.
        stats = engine.stats()
        assert stats["runs_started"] == (
            stats["runs_completed"]
            + stats["runs_cancelled"]
            + stats["runs_failed"]
        )

    def test_task_by_registry_name(self, engine):
        housing = housing_scenario(
            seed=0, n_irrelevant=4, n_erroneous=2, n_traps=2
        )
        engine = DiscoveryEngine(corpus=housing.corpus)
        run = engine.discover(
            DiscoveryRequest(
                base=housing.base,
                task="classification",
                task_options={
                    "target_column": "price_label",
                    "exclude_columns": ("zipcode",),
                },
                searcher="uniform",
                theta=0.9,
                query_budget=15,
            )
        )
        assert run.completed
        assert run.request.task_name() == "classification"

    def test_metam_config_conflicts_with_options(self, engine, scenario):
        # A full MetamConfig plus loose knobs must fail loudly, not
        # silently drop the knobs — and the failed run is accounted.
        failed_before = engine.stats()["runs_failed"]
        with pytest.raises(InvalidRequest, match="conflict with an explicit"):
            engine.discover(
                request_for(scenario, options={"epsilon": 0.2})
            )
        assert engine.stats()["runs_failed"] == failed_before + 1

    def test_task_options_require_task_name(self, engine, scenario):
        with pytest.raises(ValueError, match="task_options"):
            engine.discover(
                request_for(scenario, task_options={"target_column": "x"})
            )

    def test_precomputed_candidates_skip_prepare(self, scenario):
        engine = DiscoveryEngine(corpus=scenario.corpus)
        candidates = engine.prepare(scenario.base, seed=0)
        engine.attach_corpus(scenario.corpus)  # drop the cache
        run = engine.discover(request_for(scenario, candidates=candidates))
        assert run.candidate_source == "request"
        assert engine.stats()["prepared_candidate_sets"] == 0

    def test_candidate_source_prepared_then_cache(self, scenario):
        engine = DiscoveryEngine(corpus=scenario.corpus)
        first = engine.discover(request_for(scenario))
        second = engine.discover(request_for(scenario))
        assert first.candidate_source == "prepared"
        assert second.candidate_source == "cache"
        assert first.result.trace == second.result.trace

    def test_accounting(self, scenario):
        engine = DiscoveryEngine(corpus=scenario.corpus)
        runs = [engine.discover(request_for(scenario)) for _ in range(2)]
        stats = engine.stats()
        assert stats["runs_started"] == 2
        assert stats["runs_completed"] == 2
        assert stats["queries_served"] == sum(r.result.queries for r in runs)
        assert [r.run_id for r in runs] == [1, 2]


class TestEventsAndRecords:
    def test_event_stream_shape(self, engine, scenario):
        run = engine.discover(request_for(scenario))
        kinds = [e.kind for e in run.events]
        assert kinds[0] == "run-started"
        assert kinds[1] == "candidates-prepared"
        assert kinds[-1] == "run-completed"
        assert len(run.events_of("query-issued")) == run.result.queries
        accepted = run.events_of("augmentation-accepted")
        assert [e.aug_id for e in accepted] == run.result.selected
        assert run.events_of("round-completed")  # metam emits rounds

    def test_progress_callback_streams_all_events(self, engine, scenario):
        seen = []
        run = engine.discover(request_for(scenario), progress=seen.append)
        assert seen == run.events

    def test_record_is_json_serializable(self, engine, scenario, tmp_path):
        run = engine.discover(request_for(scenario))
        payload = json.loads(json.dumps(run.to_record()))
        assert payload["status"] == "completed"
        assert payload["request"]["searcher"] == "metam"
        assert payload["result"]["utility"] == run.result.utility
        assert payload["events"][0]["kind"] == "run-started"
        path = str(tmp_path / "run.json")
        run.save(path)
        assert json.load(open(path))["run_id"] == run.run_id


class TestCancellation:
    def test_cancel_before_start_yields_cancelled_run(self, engine, scenario):
        token = CancellationToken()
        token.cancel()
        run = engine.discover(request_for(scenario), cancel=token)
        assert run.cancelled
        assert run.result is None
        assert run.events_of("run-completed")[0].status == "cancelled"

    def test_cancel_mid_run_stops_at_next_query(self, scenario):
        engine = DiscoveryEngine(corpus=scenario.corpus)
        token = CancellationToken()

        def progress(event):
            if event.kind == "query-issued" and event.query_index >= 3:
                token.cancel()

        run = engine.discover(
            request_for(scenario), progress=progress, cancel=token
        )
        assert run.cancelled
        assert len(run.events_of("query-issued")) == 3
        assert engine.stats()["runs_cancelled"] == 1
        # The engine stays serviceable after a cancelled run.
        assert engine.discover(request_for(scenario)).completed

    def test_hooks_do_not_leak_into_plain_searchers(self, engine, scenario):
        engine.discover(request_for(scenario))
        candidates = engine.prepare(scenario.base, seed=0)
        searcher = Metam(
            candidates,
            scenario.base,
            scenario.corpus,
            scenario.task,
            MetamConfig(**CONFIG),
        )
        assert searcher.engine.pre_query is None
        assert searcher.engine.on_query is None
        assert searcher.on_round is None
