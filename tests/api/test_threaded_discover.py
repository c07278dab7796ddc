"""Threaded ``discover()``: single-flight through result-cache
reservations, and striped candidate preparation.

The engine is synchronous; callers (the service's workers, or any other
threads) share it by calling ``discover`` concurrently.  A cacheable run
that misses reserves its cache slot while it executes, so an identical
run arriving meanwhile waits and replays the owner's record instead of
searching twice.
"""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np
import pytest

from repro.api import CancellationToken, DiscoveryEngine, DiscoveryRequest
from repro.core.config import MetamConfig
from repro.data import clustering_scenario

CACHE = 8 << 20

TASK_OPTIONS = {
    "score_column": "satiety_score",
    "n_clusters": 3,
    "exclude_columns": ("ingredient_id",),
    "seed": 0,
}


@pytest.fixture(scope="module")
def scenario():
    return clustering_scenario(seed=0)


def config(seed):
    return MetamConfig(theta=0.6, query_budget=25, epsilon=0.1, seed=seed)


def request_for(scenario, seed=0, prepare_seed=0):
    """Uncacheable: the task is an object, which has no canonical form."""
    return DiscoveryRequest(
        base=scenario.base,
        task=scenario.task,
        searcher="metam",
        seed=seed,
        prepare_seed=prepare_seed,
        config=config(seed),
    )


def cacheable_request(scenario, seed=0):
    """The same run with the task named, so the result cache applies."""
    return DiscoveryRequest(
        base=scenario.base,
        task="clustering",
        task_options=dict(TASK_OPTIONS),
        searcher="metam",
        seed=seed,
        prepare_seed=0,
        config=config(seed),
    )


class Background(threading.Thread):
    """One call on its own thread; :meth:`result` joins and returns it."""

    def __init__(self, call, *args, **kwargs):
        super().__init__(daemon=True)
        self._call = partial(call, *args, **kwargs)
        self._value = self._error = None
        self.start()

    def run(self):
        try:
            self._value = self._call()
        except BaseException as error:  # noqa: BLE001 - re-raised by result()
            self._error = error

    def result(self, timeout=120):
        self.join(timeout)
        assert not self.is_alive(), "call did not finish"
        if self._error is not None:
            raise self._error
        return self._value


class Parked:
    """A progress callback that parks the run on its first event — the
    run is executing and holds its reservation — until :meth:`release`.
    With ``fail=True`` the run then raises."""

    def __init__(self, fail=False):
        self.started = threading.Event()
        self._release = threading.Event()
        self._fail = fail

    def __call__(self, event):
        if event.kind == "run-started":
            self.started.set()
            assert self._release.wait(timeout=60)
            if self._fail:
                raise RuntimeError("owner failed")

    def release(self):
        self._release.set()


def start_owner(engine, request, **kwargs):
    parked = Parked(**kwargs.pop("park", {}))
    owner = Background(engine.discover, request, progress=parked, **kwargs)
    assert parked.started.wait(timeout=60)
    return owner, parked


def assert_waiting(follower):
    follower.join(timeout=0.2)
    assert follower.is_alive(), "the follower did not wait for the owner"


class TestSingleFlight:
    def test_identical_inflight_runs_search_once(self, scenario):
        engine = DiscoveryEngine(corpus=scenario.corpus, result_cache_bytes=CACHE)
        owner, parked = start_owner(engine, cacheable_request(scenario))
        assert engine.stats()["result_cache_reserved"] == 1
        follower = Background(engine.discover, cacheable_request(scenario))
        assert_waiting(follower)
        parked.release()
        first, second = owner.result(), follower.result()
        assert first.completed and not first.cached
        assert second.cached
        assert second.result.selected == first.result.selected
        assert second.result.trace == first.result.trace
        stats = engine.stats()
        assert stats["result_cache_hits"] == 1
        assert stats["result_cache_misses"] == 1
        assert stats["result_cache_reserved"] == 0

    def test_racing_identical_runs_never_deadlock(self, scenario):
        """More threads than cores, switching mid-lookup: a lost update
        of the reservation map would let two runs search."""
        engine = DiscoveryEngine(corpus=scenario.corpus, result_cache_bytes=CACHE)
        engine.prepare(scenario.base, seed=0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                runs = list(
                    pool.map(
                        lambda _: engine.discover(cacheable_request(scenario)),
                        range(8),
                        timeout=120,
                    )
                )
        finally:
            sys.setswitchinterval(interval)
        assert all(run.completed for run in runs)
        assert len([run for run in runs if not run.cached]) == 1  # searched once
        stats = engine.stats()
        assert stats["result_cache_hits"] == 7
        assert stats["result_cache_reserved"] == 0

    def test_reservation_released_after_completion(self, scenario):
        engine = DiscoveryEngine(corpus=scenario.corpus, result_cache_bytes=CACHE)
        held = []
        run = engine.discover(
            cacheable_request(scenario),
            progress=lambda _: held.append(engine.stats()["result_cache_reserved"]),
        )
        assert run.completed
        assert set(held) == {1}  # held for the whole run...
        assert engine.stats()["result_cache_reserved"] == 0  # ...and no longer

    def test_follower_of_failed_owner_runs_its_own_search(self, scenario):
        engine = DiscoveryEngine(corpus=scenario.corpus, result_cache_bytes=CACHE)
        owner, parked = start_owner(
            engine, cacheable_request(scenario), park={"fail": True}
        )
        follower = Background(engine.discover, cacheable_request(scenario))
        assert_waiting(follower)
        parked.release()
        with pytest.raises(RuntimeError, match="owner failed"):
            owner.result()
        run = follower.result()
        assert run.completed
        assert not run.cached  # the owner never populated the cache
        assert engine.stats()["runs_failed"] == 1
        assert engine.stats()["result_cache_reserved"] == 0

    def test_follower_of_cancelled_owner_runs_its_own_search(self, scenario):
        engine = DiscoveryEngine(corpus=scenario.corpus, result_cache_bytes=CACHE)
        token = CancellationToken()
        owner, parked = start_owner(engine, cacheable_request(scenario), cancel=token)
        follower = Background(engine.discover, cacheable_request(scenario))
        assert_waiting(follower)
        token.cancel()
        parked.release()
        assert owner.result().cancelled
        run = follower.result()
        assert run.completed
        assert not run.cached
        assert engine.stats()["result_cache_reserved"] == 0

    def test_follower_cancelled_while_waiting_does_not_replay(self, scenario):
        engine = DiscoveryEngine(corpus=scenario.corpus, result_cache_bytes=CACHE)
        owner, parked = start_owner(engine, cacheable_request(scenario))
        token = CancellationToken()
        follower = Background(
            engine.discover, cacheable_request(scenario), cancel=token
        )
        assert_waiting(follower)
        token.cancel()
        parked.release()
        assert owner.result().completed
        run = follower.result()
        assert run.cancelled
        assert not run.cached

    @pytest.mark.parametrize(
        ("cache_bytes", "make_request"),
        [(CACHE, request_for), (None, cacheable_request)],
        ids=["task-object", "cache-disabled"],
    )
    def test_uncacheable_runs_take_no_reservation(
        self, scenario, cache_bytes, make_request
    ):
        """A task object has no canonical form; an engine without a
        result cache has nothing to reserve."""
        engine = DiscoveryEngine(
            corpus=scenario.corpus, result_cache_bytes=cache_bytes
        )
        request = make_request(scenario)
        held = []
        run = engine.discover(
            request,
            progress=lambda _: held.append(engine.stats()["result_cache_reserved"]),
        )
        assert run.completed
        assert set(held) == {0}


class TestStripedPrepare:
    """Preparation is locked per key: concurrent runs on one key share a
    preparation, runs on disjoint keys prepare in parallel, and either
    way the candidates equal a sequential preparation's."""

    @staticmethod
    def assert_same_candidates(got, want):
        assert [c.aug_id for c in got] == [c.aug_id for c in want]
        for a, b in zip(got, want, strict=True):
            assert np.array_equal(a.profile_vector, b.profile_vector)

    @staticmethod
    def discover_all(engine, requests):
        with ThreadPoolExecutor(max_workers=len(requests)) as pool:
            return list(pool.map(engine.discover, requests, timeout=120))

    def test_disjoint_keys_match_sequential(self, scenario):
        seeds = range(3)
        reference = {}
        for seed in seeds:
            engine = DiscoveryEngine(corpus=scenario.corpus)
            run = engine.discover(request_for(scenario, seed, prepare_seed=seed))
            reference[seed] = (run, engine.prepare(scenario.base, seed=seed))

        shared = DiscoveryEngine(corpus=scenario.corpus)
        runs = self.discover_all(
            shared, [request_for(scenario, s, prepare_seed=s) for s in seeds]
        )
        for seed, run in zip(seeds, runs):
            want_run, want_candidates = reference[seed]
            assert run.result.selected == want_run.result.selected
            assert run.result.trace == want_run.result.trace
            self.assert_same_candidates(
                shared.prepare(scenario.base, seed=seed), want_candidates
            )
        stats = shared.stats()
        assert stats["prepared_candidate_sets"] == 3
        assert stats["prepare_cache_misses"] == 3
        assert stats["active_prepares"] == 0  # key locks cleaned up

    def test_same_key_still_prepared_once(self, scenario):
        engine = DiscoveryEngine(corpus=scenario.corpus)
        runs = self.discover_all(
            engine, [request_for(scenario, seed) for seed in range(4)]
        )
        assert all(run.completed for run in runs)
        stats = engine.stats()
        assert stats["prepared_candidate_sets"] == 1
        assert stats["prepare_cache_misses"] == 1

    def test_warm_catalog_prepare_concurrent(self, scenario, tmp_path):
        """With a catalog attached, catalog mutations are serialized
        internally and the candidates stay identical to a cold engine's."""
        root = str(tmp_path / "cat")
        cold = DiscoveryEngine.open(root, corpus=scenario.corpus)
        reference = {
            seed: cold.prepare(scenario.base, seed=seed) for seed in range(3)
        }
        warm = DiscoveryEngine.open(root, corpus=scenario.corpus)
        runs = self.discover_all(
            warm, [request_for(scenario, s, prepare_seed=s) for s in range(3)]
        )
        assert all(run.completed for run in runs)
        assert warm.stats()["prepare_cache_misses"] == 3
        for seed, want in reference.items():
            self.assert_same_candidates(warm.prepare(scenario.base, seed=seed), want)
