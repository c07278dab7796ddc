"""Shared harness for the server tests: a controllable stub engine.

The server's semantics (admission, fairness, cancellation, streaming)
are independent of what a searcher computes, so these tests drive a
stub searcher whose behavior is scripted per-request through
``DiscoveryRequest.options``:

``tag``
    Name recorded in ``harness.run_log`` when the searcher executes —
    execution order is what the fairness tests assert on.
``queries``
    Utility queries to issue (each one is a cancellation point).
``hold``
    Name of a gate the searcher parks on before its first query;
    ``harness.release(name)`` lets it proceed.  While parked the run
    occupies a service worker, which is how tests fill the pool
    deterministically.
``explode``
    Raise ``RuntimeError`` instead of returning a result.
"""

import threading

import pytest

from repro.api import DiscoveryEngine
from repro.core.result import SearchResult
from repro.data import generate_corpus
from repro.server import DiscoveryService, ServiceConfig


class StubTask:
    name = "stub-task"


class _Hooks:
    """Minimal query-engine hook surface the engine wires events into."""

    def __init__(self):
        self.pre_query = None
        self.on_query = None
        self.on_accept = None
        self.queries = 0


class StubSearcher:
    def __init__(self, harness, *, tag=None, queries=1, hold=None, explode=False):
        self.engine = _Hooks()
        self._harness = harness
        self._tag = tag
        self._queries = int(queries)
        self._hold = hold
        self._explode = explode

    def run(self):
        if self._tag is not None:
            self._harness.run_log.append(self._tag)
        if self._hold is not None:
            started = self._harness.gate(f"{self._hold}:started")
            started.set()
            assert self._harness.gate(self._hold).wait(timeout=60), (
                f"gate {self._hold!r} never released"
            )
        if self._explode:
            raise RuntimeError("stub searcher exploded on request")
        best = 0.0
        for index in range(1, self._queries + 1):
            if self.engine.pre_query is not None:
                self.engine.pre_query()  # the cancellation point
            self.engine.queries += 1
            value = 0.5 + 0.4 * index / self._queries
            best = max(best, value)
            if self.engine.on_query is not None:
                self.engine.on_query(index, value, best)
        return SearchResult(
            searcher="stub",
            selected=["aug-1"],
            utility=best,
            base_utility=0.5,
            queries=self._queries,
            trace=[(self._queries, best)],
        )


class ServerHarness:
    """One stub-backed service plus the knobs tests steer it with."""

    def __init__(
        self,
        *,
        max_workers=1,
        result_cache_bytes=0,
        config=None,
        metrics=None,
        clock=None,
        catalogs=("default",),
    ):
        self.corpus = generate_corpus(3, seed=0)
        self.base_name = self.corpus[0].name
        self.run_log = []
        self.factory_calls = 0
        self._gates = {}
        self._gates_lock = threading.Lock()
        self.max_workers = max_workers
        self.result_cache_bytes = result_cache_bytes
        kwargs = {}
        if metrics is not None:
            kwargs["metrics"] = metrics
        if clock is not None:
            kwargs["clock"] = clock
        self.service = DiscoveryService(
            {name: self._factory for name in catalogs},
            config=config
            or ServiceConfig(tenant_rate=0.0, tenant_burst=10_000.0),
            **kwargs,
        )

    def _factory(self, metrics=None):
        self.factory_calls += 1
        engine = DiscoveryEngine(
            corpus=self.corpus,
            metrics=metrics,
            max_workers=self.max_workers,
            result_cache_bytes=self.result_cache_bytes,
        )
        engine.tasks.register("stub-task", lambda **_options: StubTask())
        engine.searchers.register(
            "stub",
            lambda candidates, base, corpus, task, *, theta, query_budget,
            seed, config=None, **options: StubSearcher(self, **options),
        )
        return engine

    def gate(self, name) -> threading.Event:
        with self._gates_lock:
            event = self._gates.get(name)
            if event is None:
                event = self._gates[name] = threading.Event()
            return event

    def release(self, name) -> None:
        self.gate(name).set()

    def wait_started(self, hold_name, timeout=60) -> None:
        assert self.gate(f"{hold_name}:started").wait(timeout=timeout), (
            f"run holding {hold_name!r} never started"
        )

    def payload(self, *, tag=None, queries=1, hold=None, explode=False, seed=0):
        options = {"queries": queries}
        if tag is not None:
            options["tag"] = tag
        if hold is not None:
            options["hold"] = hold
        if explode:
            options["explode"] = True
        return {
            "base": self.base_name,
            "task": "stub-task",
            "searcher": "stub",
            "seed": seed,
            "options": options,
        }

    def session(self, tenant="acme", catalog=None) -> str:
        return self.service.create_session(tenant, catalog)["session_id"]

    def engine(self, catalog="default"):
        return self.service._engine_for(catalog)

    def wait_terminal(self, run_id, timeout=60) -> dict:
        """Block until the run is terminal (via its event stream), then
        return its status."""
        for _ in self.service.events(run_id, timeout=timeout):
            pass
        status = self.service.status(run_id)
        assert status["state"] in ("completed", "cancelled", "failed")
        return status

    def close(self) -> None:
        # Release every gate so no parked searcher outlives the test.
        with self._gates_lock:
            for event in self._gates.values():
                event.set()
        self.service.shutdown(timeout=10)


@pytest.fixture
def harness():
    h = ServerHarness()
    yield h
    h.close()


@pytest.fixture
def make_harness():
    made = []

    def _make(**kwargs):
        h = ServerHarness(**kwargs)
        made.append(h)
        return h

    yield _make
    for h in made:
        h.close()
