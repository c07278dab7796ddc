"""Async serving: ``engine.submit``, futures, and striped preparation."""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.api import (
    CancellationToken,
    DiscoveryEngine,
    DiscoveryRequest,
    RunCancelled,
)
from repro.core.config import MetamConfig
from repro.data import clustering_scenario


@pytest.fixture(scope="module")
def scenario():
    return clustering_scenario(seed=0)


def request_for(scenario, seed=0):
    return DiscoveryRequest(
        base=scenario.base,
        task=scenario.task,
        searcher="metam",
        seed=seed,
        prepare_seed=0,
        config=MetamConfig(theta=0.6, query_budget=25, epsilon=0.1, seed=seed),
    )


class TestSubmit:
    def test_submit_matches_discover(self, scenario):
        sync_engine = DiscoveryEngine(corpus=scenario.corpus)
        reference = sync_engine.discover(request_for(scenario))

        engine = DiscoveryEngine(corpus=scenario.corpus)
        future = engine.submit(request_for(scenario))
        run = future.result(timeout=120)
        assert future.done()
        assert run.completed
        assert run.result.selected == reference.result.selected
        assert run.result.trace == reference.result.trace
        engine.shutdown()

    def test_concurrent_submits_share_prepare(self, scenario):
        engine = DiscoveryEngine(corpus=scenario.corpus, max_workers=4)
        futures = [
            engine.submit(request_for(scenario, seed=seed)) for seed in range(4)
        ]
        runs = [f.result(timeout=300) for f in futures]
        assert all(run.completed for run in runs)
        stats = engine.stats()
        assert stats["prepared_candidate_sets"] == 1  # prepare_seed pinned
        assert stats["runs_completed"] == 4
        assert stats["async_pool_active"]
        engine.shutdown()
        assert not engine.stats()["async_pool_active"]

    def test_queued_submit_cancelled_before_start(self, scenario):
        engine = DiscoveryEngine(corpus=scenario.corpus, max_workers=1)
        engine.prepare(scenario.base, seed=0)
        gate = threading.Event()
        release = threading.Event()

        def blocking_progress(event):
            gate.set()
            release.wait(timeout=60)

        first = engine.submit(request_for(scenario), progress=blocking_progress)
        queued = engine.submit(request_for(scenario, seed=1))
        assert gate.wait(timeout=60)  # first run occupies the only worker
        queued.cancel()
        release.set()
        with pytest.raises(RunCancelled):
            queued.result(timeout=60)
        assert first.result(timeout=120).completed
        engine.shutdown()

    def test_cancel_mid_run_resolves_to_cancelled_run(self, scenario):
        engine = DiscoveryEngine(corpus=scenario.corpus)
        token = CancellationToken()
        seen = []

        def progress(event):
            seen.append(event)
            if event.kind == "query-issued" and event.query_index >= 2:
                token.cancel()

        future = engine.submit(
            request_for(scenario), progress=progress, cancel=token
        )
        run = future.result(timeout=120)
        assert run.cancelled
        assert run.result is None
        assert future.cancel_token is token
        engine.shutdown()

    def test_done_callback_fires(self, scenario):
        engine = DiscoveryEngine(corpus=scenario.corpus)
        resolved = []
        future = engine.submit(request_for(scenario))
        future.add_done_callback(lambda f: resolved.append(f.result().status))
        future.result(timeout=120)
        engine.shutdown()  # drains the pool; callback has run by now
        assert resolved == ["completed"]

    def test_context_manager_shuts_down(self, scenario):
        with DiscoveryEngine(corpus=scenario.corpus) as engine:
            run = engine.submit(request_for(scenario)).result(timeout=120)
            assert run.completed
        assert not engine.stats()["async_pool_active"]
        # The engine stays usable after shutdown: a new submit lazily
        # rebuilds the pool.
        assert engine.submit(request_for(scenario)).result(timeout=120).completed
        engine.shutdown()

    def test_max_workers_validated(self, scenario):
        with pytest.raises(ValueError, match="max_workers"):
            DiscoveryEngine(corpus=scenario.corpus, max_workers=0)


CACHE = 8 << 20

TASK_OPTIONS = {
    "score_column": "satiety_score",
    "n_clusters": 3,
    "exclude_columns": ("ingredient_id",),
    "seed": 0,
}


def cacheable_request(scenario, seed=0):
    """A request with a canonical identity (name-based task), so the
    engine's result cache — and submit's in-flight reservations —
    apply."""
    return DiscoveryRequest(
        base=scenario.base,
        task="clustering",
        task_options=dict(TASK_OPTIONS),
        searcher="metam",
        seed=seed,
        prepare_seed=0,
        config=MetamConfig(theta=0.6, query_budget=25, epsilon=0.1, seed=seed),
    )


class TestReservations:
    """Result-cache slot reservations for in-flight submits."""

    def _blocked_engine(self, scenario):
        """An engine whose single worker is pinned by a long run,
        so further submissions stay queued."""
        engine = DiscoveryEngine(
            corpus=scenario.corpus, max_workers=1, result_cache_bytes=CACHE
        )
        engine.prepare(scenario.base, seed=0)
        gate = threading.Event()
        release = threading.Event()

        def blocking_progress(event):
            gate.set()
            release.wait(timeout=60)

        blocker = engine.submit(
            request_for(scenario, seed=7), progress=blocking_progress
        )
        assert gate.wait(timeout=60)
        return engine, blocker, release

    def test_cancelled_queued_future_releases_reservation(self, scenario):
        """The regression: a cacheable submit cancelled while still
        queued never executes, so its reservation must be released by
        the future's done callback — anything else leaks the slot until
        shutdown (and strands any follower waiting on it)."""
        engine, blocker, release = self._blocked_engine(scenario)
        queued = engine.submit(cacheable_request(scenario))
        assert engine.stats()["result_cache_reserved"] == 1
        queued.cancel()
        # Cancellation of a queued future resolves it immediately; the
        # done callback must have dropped the reservation right here,
        # not at shutdown.
        assert engine.stats()["result_cache_reserved"] == 0
        release.set()
        with pytest.raises(RunCancelled):
            queued.result(timeout=60)
        assert blocker.result(timeout=120).completed
        engine.shutdown()
        assert engine.stats()["result_cache_reserved"] == 0

    def test_follower_not_stranded_by_cancelled_owner(self, scenario):
        """A follower waiting on a reservation whose owner is cancelled
        while queued must run its own search, not wait forever."""
        engine, blocker, release = self._blocked_engine(scenario)
        owner = engine.submit(cacheable_request(scenario))
        follower = engine.submit(cacheable_request(scenario))
        assert engine.stats()["result_cache_reserved"] == 1
        owner.cancel()
        assert engine.stats()["result_cache_reserved"] == 0
        release.set()
        run = follower.result(timeout=120)
        assert run.completed
        assert not run.cached  # the owner never populated the cache
        assert blocker.result(timeout=120).completed
        engine.shutdown()

    def test_identical_inflight_submits_run_once(self, scenario):
        """Single-flight: an identical request submitted while one is
        in flight waits for the owner and replays its record instead of
        searching twice."""
        engine = DiscoveryEngine(
            corpus=scenario.corpus, max_workers=2, result_cache_bytes=CACHE
        )
        engine.prepare(scenario.base, seed=0)
        owner = engine.submit(cacheable_request(scenario))
        follower = engine.submit(cacheable_request(scenario))
        first = owner.result(timeout=120)
        second = follower.result(timeout=120)
        assert first.completed and not first.cached
        assert second.cached
        assert second.result.selected == first.result.selected
        stats = engine.stats()
        assert stats["result_cache_hits"] == 1
        assert stats["result_cache_reserved"] == 0
        engine.shutdown()

    def test_racing_identical_submits_never_deadlock(self, scenario):
        """Reservation registration and enqueueing are atomic: across
        many racing identical submits on a single worker, a follower
        can never land in the queue ahead of its owner (which would
        park the only worker on wait() forever)."""
        engine = DiscoveryEngine(
            corpus=scenario.corpus, max_workers=1, result_cache_bytes=CACHE
        )
        engine.prepare(scenario.base, seed=0)
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = list(
                pool.map(
                    lambda _: engine.submit(cacheable_request(scenario)),
                    range(4),
                )
            )
        runs = [f.result(timeout=300) for f in futures]
        assert all(run.completed for run in runs)
        first = [run for run in runs if not run.cached]
        assert len(first) == 1  # the search executed exactly once
        assert engine.stats()["result_cache_reserved"] == 0
        engine.shutdown()

    def test_reservation_released_after_normal_completion(self, scenario):
        engine = DiscoveryEngine(
            corpus=scenario.corpus, result_cache_bytes=CACHE
        )
        future = engine.submit(cacheable_request(scenario))
        assert future.result(timeout=120).completed
        assert engine.stats()["result_cache_reserved"] == 0
        engine.shutdown()

    def test_uncacheable_submits_take_no_reservation(self, scenario):
        engine, blocker, release = self._blocked_engine(scenario)
        # Task objects have no canonical identity — uncacheable.
        queued = engine.submit(request_for(scenario, seed=3))
        assert engine.stats()["result_cache_reserved"] == 0
        queued.cancel()
        release.set()
        assert blocker.result(timeout=120).completed
        engine.shutdown()


class TestStripedPrepare:
    def test_disjoint_keys_match_sequential(self, scenario):
        reference = {}
        for seed in range(3):
            engine = DiscoveryEngine(corpus=scenario.corpus)
            reference[seed] = engine.prepare(scenario.base, seed=seed)

        shared = DiscoveryEngine(corpus=scenario.corpus)
        with ThreadPoolExecutor(max_workers=3) as pool:
            futures = {
                seed: pool.submit(shared.prepare, scenario.base, seed=seed)
                for seed in range(3)
            }
            prepared = {seed: f.result() for seed, f in futures.items()}
        for seed, got in prepared.items():
            want = reference[seed]
            assert [c.aug_id for c in got] == [c.aug_id for c in want]
            for a, b in zip(got, want, strict=True):
                assert np.array_equal(a.profile_vector, b.profile_vector)
        assert shared.stats()["prepared_candidate_sets"] == 3
        assert shared.stats()["active_prepares"] == 0  # key locks cleaned up

    def test_same_key_still_prepared_once(self, scenario):
        engine = DiscoveryEngine(corpus=scenario.corpus)
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(
                pool.map(
                    lambda _: engine.prepare(scenario.base, seed=0), range(4)
                )
            )
        assert engine.stats()["prepared_candidate_sets"] == 1
        first = [c.aug_id for c in results[0]]
        assert all([c.aug_id for c in r] == first for r in results)

    def test_warm_catalog_prepare_concurrent(self, scenario, tmp_path):
        """Striped prepare with a catalog attached: catalog mutations are
        internally serialized, results stay byte-identical."""
        root = str(tmp_path / "cat")
        cold = DiscoveryEngine.open(root, corpus=scenario.corpus)
        reference = {
            seed: cold.prepare(scenario.base, seed=seed) for seed in range(3)
        }
        warm = DiscoveryEngine.open(root, corpus=scenario.corpus)
        with ThreadPoolExecutor(max_workers=3) as pool:
            futures = {
                seed: pool.submit(warm.prepare, scenario.base, seed=seed)
                for seed in range(3)
            }
            prepared = {seed: f.result() for seed, f in futures.items()}
        for seed, got in prepared.items():
            want = reference[seed]
            assert [c.aug_id for c in got] == [c.aug_id for c in want]
            for a, b in zip(got, want, strict=True):
                assert np.array_equal(a.profile_vector, b.profile_vector)
