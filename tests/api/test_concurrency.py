"""Thread-safety of one shared engine serving concurrent requests."""

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import DiscoveryEngine, DiscoveryRequest
from repro.core.config import MetamConfig
from repro.data import clustering_scenario

N_WORKERS = 4


@pytest.fixture(scope="module")
def scenario():
    return clustering_scenario(seed=0)


def request_for(scenario, seed, searcher="metam"):
    config = (
        MetamConfig(theta=0.6, query_budget=25, epsilon=0.1, seed=seed)
        if searcher == "metam"
        else None
    )
    return DiscoveryRequest(
        base=scenario.base,
        task=scenario.task,
        searcher=searcher,
        theta=0.6,
        query_budget=25,
        seed=seed,
        prepare_seed=0,
        config=config,
    )


class TestConcurrentDiscover:
    def test_concurrent_runs_match_sequential(self, scenario):
        sequential_engine = DiscoveryEngine(corpus=scenario.corpus)
        reference = {
            seed: sequential_engine.discover(request_for(scenario, seed)).result
            for seed in range(N_WORKERS)
        }

        shared = DiscoveryEngine(corpus=scenario.corpus)
        shared.prepare(scenario.base, seed=0)  # warm the shared spec
        with ThreadPoolExecutor(max_workers=N_WORKERS) as pool:
            futures = {
                seed: pool.submit(shared.discover, request_for(scenario, seed))
                for seed in range(N_WORKERS)
            }
            runs = {seed: f.result() for seed, f in futures.items()}

        for seed, run in runs.items():
            assert run.completed
            # Per-run RNG and accounting: concurrent results are exactly
            # the sequential results, run by run.
            assert run.result.selected == reference[seed].selected
            assert run.result.trace == reference[seed].trace
        stats = shared.stats()
        # prepare_seed pins the prep: one shared candidate set for all.
        assert stats["prepared_candidate_sets"] == 1
        assert stats["runs_started"] == N_WORKERS
        assert stats["runs_completed"] == N_WORKERS
        assert stats["queries_served"] == sum(
            r.result.queries for r in runs.values()
        )
        assert sorted(r.run_id for r in runs.values()) == list(
            range(1, N_WORKERS + 1)
        )

    def test_concurrent_same_request_shares_one_prepare(self, scenario):
        shared = DiscoveryEngine(corpus=scenario.corpus)
        with ThreadPoolExecutor(max_workers=N_WORKERS) as pool:
            futures = [
                pool.submit(shared.discover, request_for(scenario, seed=0))
                for _ in range(N_WORKERS)
            ]
            runs = [f.result() for f in futures]
        assert shared.stats()["prepared_candidate_sets"] == 1
        traces = {tuple(r.result.trace) for r in runs}
        assert len(traces) == 1  # identical requests, identical runs

    def test_a_prepare_racing_attach_corpus_is_not_served_after_it(
        self, scenario, monkeypatch
    ):
        """The prepare key carries the corpus epoch: a set prepared from
        the old corpus while ``attach_corpus`` swapped it is never a hit
        for the new corpus."""
        changed = dict(scenario.corpus)
        table = changed["nutrition_db"]
        changed["nutrition_db"] = table.with_column(
            "oni_score", table.column("oni_score")[::-1]
        )
        engine = DiscoveryEngine(corpus=scenario.corpus)
        started, release = threading.Event(), threading.Event()
        original = engine._prepare_uncached

        def parked(*args):
            started.set()
            assert release.wait(timeout=60)
            return original(*args)

        monkeypatch.setattr(engine, "_prepare_uncached", parked)
        with ThreadPoolExecutor(max_workers=1) as pool:
            old = pool.submit(engine.prepare, scenario.base)
            assert started.wait(timeout=60)
            engine.attach_corpus(changed)
            release.set()
            old_candidates = old.result(timeout=120)
        served = engine.prepare(scenario.base)
        want = DiscoveryEngine(corpus=changed).prepare(scenario.base)
        assert [c.values for c in served] == [c.values for c in want]
        assert [c.values for c in served] != [c.values for c in old_candidates]
        assert engine.stats()["prepare_cache_misses"] == 2
