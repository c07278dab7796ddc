"""DiscoveryService semantics: admission, quotas, fairness, lifecycle,
drain — everything the HTTP layer relies on, tested without a socket."""

import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import DiscoveryEngine, DiscoveryRequest
from repro.api.errors import Internal, InvalidRequest, NotFound, Overloaded
from repro.api.wire import run_to_wire
from repro.core.config import MetamConfig
from repro.data import clustering_scenario, generate_corpus
from repro.server import DiscoveryService, ServiceConfig, TokenBucket
from repro.server import service as service_module

from tests.server.conftest import ServerHarness, StubSearcher


class TestSessions:
    def test_create_get_close(self, harness):
        created = harness.service.create_session("acme")
        sid = created["session_id"]
        assert created["tenant"] == "acme"
        assert created["catalog"] == "default"
        assert harness.service.get_session(sid) == created
        assert harness.service.close_session(sid)["session_id"] == sid
        with pytest.raises(NotFound):
            harness.service.get_session(sid)

    def test_sessions_share_one_engine_per_catalog(self, harness):
        harness.session("acme")
        harness.session("globex")
        assert harness.factory_calls == 1
        assert harness.service.stats()["catalogs"]["default"]["engine_built"]

    def test_invalid_tenant_rejected(self, harness):
        for bad in ("", None, "a b", "x" * 65, "sneaky\n"):
            with pytest.raises(InvalidRequest):
                harness.service.create_session(bad)

    def test_unknown_catalog_rejected(self, harness):
        with pytest.raises(NotFound):
            harness.service.create_session("acme", "nope")

    def test_multi_catalog_requires_explicit_name(self, make_harness):
        h = make_harness(catalogs=("red", "blue"))
        with pytest.raises(InvalidRequest):
            h.service.create_session("acme")
        assert h.service.create_session("acme", "blue")["catalog"] == "blue"

    def test_session_cap(self, make_harness):
        h = make_harness(
            config=ServiceConfig(
                tenant_rate=0.0, tenant_burst=100.0, max_sessions=2
            )
        )
        h.session("a")
        h.session("b")
        with pytest.raises(Overloaded):
            h.session("c")


class TestAdmission:
    def test_quota_exhausted_gets_overloaded(self, make_harness):
        h = make_harness(
            config=ServiceConfig(tenant_rate=0.0, tenant_burst=2.0)
        )
        sid = h.session("acme")
        h.service.submit(sid, h.payload())
        h.service.submit(sid, h.payload(seed=1))
        with pytest.raises(Overloaded) as exc:
            h.service.submit(sid, h.payload(seed=2))
        assert exc.value.http_status == 429
        assert exc.value.retry_after >= 0.0

    def test_quota_refills_with_clock(self, make_harness):
        clock = [0.0]
        h = make_harness(
            config=ServiceConfig(tenant_rate=1.0, tenant_burst=1.0),
            clock=lambda: clock[0],
        )
        sid = h.session("acme")
        h.service.submit(sid, h.payload())
        with pytest.raises(Overloaded) as exc:
            h.service.submit(sid, h.payload(seed=1))
        assert exc.value.retry_after == pytest.approx(1.0)
        clock[0] = 1.5
        h.service.submit(sid, h.payload(seed=2))

    def test_quotas_are_per_tenant(self, make_harness):
        h = make_harness(
            config=ServiceConfig(tenant_rate=0.0, tenant_burst=1.0)
        )
        acme, globex = h.session("acme"), h.session("globex")
        h.service.submit(acme, h.payload())
        with pytest.raises(Overloaded):
            h.service.submit(acme, h.payload(seed=1))
        h.service.submit(globex, h.payload(seed=2))  # unaffected

    def test_queue_budget_rejects_with_429(self, make_harness):
        h = make_harness(
            config=ServiceConfig(
                tenant_rate=0.0, tenant_burst=100.0, max_queue_depth=2
            )
        )
        sid = h.session("acme")
        h.service.submit(sid, h.payload(hold="g", tag="running"))
        h.wait_started("g")  # occupies the single worker
        h.service.submit(sid, h.payload(seed=1))
        h.service.submit(sid, h.payload(seed=2))
        with pytest.raises(Overloaded) as exc:
            h.service.submit(sid, h.payload(seed=3))
        assert exc.value.http_status == 429

    def test_quota_refusal_never_consumes_queue(self, make_harness):
        """A rate-limited tenant must not eat the queue budget others
        share (quota gate fires before the queue gate)."""
        h = make_harness(
            config=ServiceConfig(
                tenant_rate=0.0, tenant_burst=1.0, max_queue_depth=1
            )
        )
        noisy, quiet = h.session("noisy"), h.session("quiet")
        h.service.submit(noisy, h.payload(hold="g"))
        h.wait_started("g")
        for seed in range(5):
            with pytest.raises(Overloaded):
                h.service.submit(noisy, h.payload(seed=seed + 1))
        # The queue is still empty: the quiet tenant gets the slot.
        run = h.service.submit(quiet, h.payload(seed=99))
        assert run["state"] == "queued"

    def test_invalid_request_never_queued(self, harness):
        sid = harness.session()
        with pytest.raises(InvalidRequest):
            harness.service.submit(sid, {"base": "no-such-table", "task": "t"})
        with pytest.raises(InvalidRequest):
            harness.service.submit(sid, harness.payload(), priority="high")
        assert harness.service.list_runs() == []

    @pytest.mark.parametrize(
        "field, name", [("searcher", "greedy"), ("task", "no-such-task")]
    )
    def test_unknown_name_is_invalid_before_queueing(self, harness, field, name):
        """An unknown searcher or task used to be admitted and then fail
        the run as ``internal``; it is the caller's error, refused at
        submit and counted as an invalid request."""
        sid = harness.session()
        with pytest.raises(InvalidRequest, match=f"unknown {field} {name!r}") as info:
            harness.service.submit(sid, {**harness.payload(), field: name})
        assert info.value.details == {"field": field, field: name}
        assert harness.service.list_runs() == []
        snapshot = harness.service.metrics_snapshot()
        outcomes = {
            series["labels"]["outcome"]: series["value"]
            for series in snapshot["repro_server_requests_total"]["series"]
        }
        assert outcomes == {"invalid": 1.0}

    def test_unknown_session_rejected(self, harness):
        with pytest.raises(NotFound):
            harness.service.submit("s-999999", harness.payload())


class TestFairness:
    def test_round_robin_across_tenants(self, make_harness):
        """With one worker and two backlogged tenants, dispatch must
        interleave — a tenant that queued first does not drain first."""
        h = make_harness()
        acme, globex = h.session("acme"), h.session("globex")
        h.service.submit(acme, h.payload(tag="a1", hold="g"))
        h.wait_started("g")
        ids = [
            h.service.submit(acme, h.payload(tag="a2", seed=1))["run_id"],
            h.service.submit(acme, h.payload(tag="a3", seed=2))["run_id"],
            h.service.submit(globex, h.payload(tag="b1", seed=3))["run_id"],
            h.service.submit(globex, h.payload(tag="b2", seed=4))["run_id"],
        ]
        h.release("g")
        for run_id in ids:
            h.wait_terminal(run_id)
        assert h.run_log == ["a1", "b1", "a2", "b2", "a3"]

    def test_priority_within_tenant(self, make_harness):
        h = make_harness()
        sid = h.session("acme")
        h.service.submit(sid, h.payload(tag="first", hold="g"))
        h.wait_started("g")
        low = h.service.submit(sid, h.payload(tag="low", seed=1), priority=0)
        high = h.service.submit(
            sid, h.payload(tag="high", seed=2), priority=5
        )
        h.release("g")
        h.wait_terminal(low["run_id"])
        h.wait_terminal(high["run_id"])
        assert h.run_log == ["first", "high", "low"]


class _EchoSearcher(StubSearcher):
    """A stub run that logs its dispatch and, while ``left`` > 0,
    resubmits for its own session from inside the run — before the
    single worker can dispatch anything else."""

    def __init__(self, harness, log, *, session, tenant, left):
        super().__init__(harness)
        self._log = log
        self._session, self._tenant, self._left = session, tenant, left

    def run(self):
        self._log.append(("dispatch", self._tenant))
        if self._left > 0:
            self._harness.service.submit(
                self._session, echo_payload(self._harness, self._session,
                                            self._tenant, self._left - 1)
            )
            self._log.append(("submit", self._tenant))
        return super().run()


def echo_payload(harness, session, tenant, left):
    payload = harness.payload()
    payload["searcher"] = "echo"
    payload["options"] = {"session": session, "tenant": tenant, "left": left}
    return payload


def wait_idle(service, timeout=60):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        stats = service.stats()["catalogs"]["default"]
        if stats["queued"] == 0 and stats["active"] == 0:
            return
        time.sleep(0.01)
    raise AssertionError("service never went idle")


class TestSchedulerChurn:
    """The scheduler forgets a tenant whose queue empties, and a tenant
    that comes back does not jump the rotation."""

    def test_one_shot_tenants_leave_nothing_behind(self, make_harness):
        h = make_harness(config=ServiceConfig(
            tenant_rate=0.0, tenant_burst=10_000.0, max_queue_depth=1_000
        ))
        h.service.submit(h.session("holder"), h.payload(tag="hold", hold="g"))
        h.wait_started("g")
        tenants = [f"t{i}" for i in range(1_000)]
        ids = [
            h.service.submit(h.session(t), h.payload(tag=t))["run_id"]
            for t in tenants
        ]
        entry = h.service._entries["default"]
        assert len(entry.queues) == len(entry.rr) == entry.queued_count() == 1_000
        h.release("g")
        for run_id in ids:
            h.wait_terminal(run_id)
        assert entry.queues == {} and not entry.rr
        assert entry.queued_count() == 0
        assert len(entry.served) <= 1
        # Tenants new to the cycle take their turns in arrival order.
        assert h.run_log == ["hold"] + tenants

    def test_churn_under_load_keeps_the_scheduler_bounded(self, harness):
        """Two chains of one-shot tenants: each run admits its chain's
        next new tenant while it runs, so the queue never empties and no
        cycle ends on its own.  The scheduler must still forget the
        tenants it has served."""
        entry = harness.service._entries["default"]
        remembered = []

        def relay(candidates, base, corpus, task, *, theta, query_budget,
                  seed, config=None, chain, hop):
            remembered.append(len(entry.served) + len(entry.rr))
            if hop < 150:
                submit(chain, hop + 1)
            return StubSearcher(harness)

        def submit(chain, hop):
            payload = harness.payload()
            payload["searcher"] = "relay"
            payload["options"] = {"chain": chain, "hop": hop}
            harness.service.submit(harness.session(f"c{chain}-{hop}"), payload)

        harness.engine().searchers.register("relay", relay)
        submit(0, 0)
        submit(1, 0)
        wait_idle(harness.service)
        assert len(remembered) == 302
        assert max(remembered) <= 4
        assert entry.queues == {} and not entry.rr

    def test_cancelling_a_tenants_last_run_drops_the_tenant(self, harness):
        harness.service.submit(harness.session("acme"), harness.payload(hold="g"))
        harness.wait_started("g")
        queued = harness.service.submit(harness.session("globex"), harness.payload())
        entry = harness.service._entries["default"]
        assert list(entry.rr) == ["globex"]
        harness.service.cancel(queued["run_id"])
        assert entry.queues == {} and not entry.rr and entry.queued_count() == 0
        harness.release("g")

    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        submissions=st.lists(
            # (tenant, resubmissions): tenant 0 is the one under test.
            st.tuples(st.integers(1, 3), st.integers(0, 2)),
            max_size=8,
        ),
        position=st.integers(0, 8),
        loops=st.integers(1, 4),
    )
    def test_a_resubmitting_tenant_never_jumps_a_waiting_one(
        self, submissions, position, loops
    ):
        """One worker; the tenant under test resubmits each time it is
        dispatched.  Between two of its dispatches, every other tenant
        that had a run queued at the first one is dispatched too."""
        h = ServerHarness()
        try:
            log = []
            engine = h.engine()
            engine.searchers.register(
                "echo",
                lambda candidates, base, corpus, task, *, theta, query_budget,
                seed, config=None, **options: _EchoSearcher(h, log, **options),
            )
            h.service.submit(h.session("gate"), h.payload(hold="g"))
            h.wait_started("g")
            plan = list(submissions)
            plan.insert(min(position, len(plan)), (0, loops))
            sessions = {}
            for tenant_no, left in plan:
                tenant = f"tenant{tenant_no}"
                if tenant not in sessions:
                    sessions[tenant] = h.session(tenant)
                h.service.submit(
                    sessions[tenant],
                    echo_payload(h, sessions[tenant], tenant, left),
                )
                log.append(("submit", tenant))
            h.release("g")
            wait_idle(h.service)
        finally:
            h.close()
        mine = [i for i, (kind, tenant) in enumerate(log)
                if kind == "dispatch" and tenant == "tenant0"]
        assert len(mine) == loops + 1
        for first, second in zip(mine, mine[1:]):
            for other in {tenant for _kind, tenant in log} - {"tenant0"}:
                before = log[:first]
                waiting = before.count(("submit", other)) > before.count(
                    ("dispatch", other)
                )
                if waiting:
                    assert ("dispatch", other) in log[first:second], (other, log)
        entry = h.service._entries["default"]
        assert entry.queues == {} and not entry.rr


class TestLifecycle:
    def test_run_completes_with_record(self, harness):
        sid = harness.session()
        run = harness.service.submit(sid, harness.payload(queries=3))
        status = harness.wait_terminal(run["run_id"])
        assert status["state"] == "completed"
        record = status["record"]
        assert record["status"] == "completed"
        assert record["result"]["utility"] == pytest.approx(0.9)
        kinds = [e["kind"] for e in record["events"]]
        assert kinds[0] == "run-started"
        assert kinds[-1] == "run-completed"
        assert kinds.count("query-issued") == 3

    def test_events_stream_in_order_with_terminal(self, harness):
        sid = harness.session()
        run = harness.service.submit(sid, harness.payload(queries=2))
        events = list(harness.service.events(run["run_id"], timeout=60))
        kinds = [e.kind for e in events]
        assert kinds[0] == "run-started"
        assert kinds[-1] == "run-completed"
        indexes = [e.query_index for e in events if e.kind == "query-issued"]
        assert indexes == sorted(indexes)

    def test_cancel_queued_run_synthesizes_terminal_event(self, harness):
        sid = harness.session()
        harness.service.submit(sid, harness.payload(hold="g"))
        harness.wait_started("g")
        queued = harness.service.submit(sid, harness.payload(seed=1))
        cancelled = harness.service.cancel(queued["run_id"])
        assert cancelled["state"] == "cancelled"
        events = list(harness.service.events(queued["run_id"], timeout=10))
        assert [e.kind for e in events] == ["run-completed"]
        assert events[0].status == "cancelled"
        harness.release("g")
        harness.service.shutdown(timeout=10)
        # The cancelled run never reached the engine.
        assert harness.engine().stats()["runs_started"] == 1

    def test_cancel_running_run(self, harness):
        sid = harness.session()
        run = harness.service.submit(
            sid, harness.payload(hold="g", queries=5)
        )
        harness.wait_started("g")
        harness.service.cancel(run["run_id"])
        harness.release("g")  # searcher proceeds into its cancel point
        status = harness.wait_terminal(run["run_id"])
        assert status["state"] == "cancelled"
        # The engine recorded the cancelled run itself — no synthesis.
        assert status["record"]["status"] == "cancelled"
        assert status["record"]["result"] is None

    def test_cancel_is_idempotent(self, harness):
        sid = harness.session()
        run = harness.service.submit(sid, harness.payload())
        harness.wait_terminal(run["run_id"])
        again = harness.service.cancel(run["run_id"])
        assert again["state"] == "completed"  # terminal states stick

    def test_failed_run_reports_typed_error(self, harness):
        sid = harness.session()
        run = harness.service.submit(sid, harness.payload(explode=True))
        status = harness.wait_terminal(run["run_id"])
        assert status["state"] == "failed"
        assert status["error"]["code"] == "internal"
        assert "exploded" in status["error"]["message"]

    def test_string_exclude_columns_fails_like_an_unknown_task_option(self, harness):
        """A bare string used to be split into one-letter columns and
        served a different result; now the run fails with the task's
        ``ValueError``, exactly as an unknown task option fails it: as
        the caller's error, not the server's."""
        sid = harness.session()

        def serve(task_options):
            payload = harness.payload()
            payload["task"] = "regression"
            payload["task_options"] = task_options
            run = harness.service.submit(sid, payload)
            return harness.wait_terminal(run["run_id"])

        unknown = serve({"target_column": "rent", "bogus": 1})
        string = serve({"target_column": "rent", "exclude_columns": "zipcode"})
        listed = serve({"target_column": "rent", "exclude_columns": ["zipcode"]})
        for status in (unknown, string):
            assert status["state"] == "failed"
            assert status["error"]["code"] == "invalid-request"
            assert status["error"]["http_status"] == 400
            assert status["error"]["details"] == {"field": "task_options"}
        assert "task_options: TypeError:" in unknown["error"]["message"]
        assert "task_options: ValueError: exclude_columns" in string["error"]["message"]
        assert listed["state"] == "completed"

    def test_unknown_run_ids(self, harness):
        with pytest.raises(NotFound):
            harness.service.status("run-424242")
        with pytest.raises(NotFound):
            harness.service.cancel("run-424242")
        with pytest.raises(NotFound):
            list(harness.service.events("run-424242"))

    def test_only_the_newest_finished_runs_are_kept(self, harness, monkeypatch):
        """Beyond the bound the oldest finished run goes, and its id
        answers NotFound; queued and running runs always stay."""
        monkeypatch.setattr(service_module, "MAX_FINISHED_RUNS", 2)
        sid = harness.session()
        held = harness.service.submit(sid, harness.payload(hold="g"))["run_id"]
        harness.wait_started("g")
        queued = harness.service.submit(sid, harness.payload(seed=1))["run_id"]
        cancelled = []
        for seed in range(2, 5):
            run_id = harness.service.submit(sid, harness.payload(seed=seed))["run_id"]
            harness.service.cancel(run_id)  # finishes at once
            cancelled.append(run_id)
        for call in (
            harness.service.status,
            harness.service.cancel,
            lambda run_id: list(harness.service.events(run_id)),
        ):
            with pytest.raises(NotFound):
                call(cancelled[0])
        kept = {run["run_id"] for run in harness.service.list_runs()}
        assert kept == {held, queued, *cancelled[1:]}
        harness.release("g")
        harness.wait_terminal(queued)
        kept = {run["run_id"] for run in harness.service.list_runs()}
        assert kept == {held, queued}
        assert harness.service.stats()["runs"] == 2

    def test_subscriber_timeout_raises(self, harness):
        sid = harness.session()
        run = harness.service.submit(sid, harness.payload(hold="g"))
        harness.wait_started("g")
        stream = harness.service.events(run["run_id"], timeout=0.05)
        with pytest.raises(TimeoutError):
            # run-started arrives, then the held run goes quiet.
            for _ in stream:
                pass
        harness.release("g")


class TestSingleFlight:
    """Identical cacheable runs through the service search once, however
    many workers the catalog has: with one, the follower queues behind
    its owner and then hits the cache; with two, it waits inside
    ``discover`` on the owner's reservation."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_identical_runs_search_once(self, make_harness, workers):
        h = make_harness(max_workers=workers, result_cache_bytes=1 << 20)
        sid = h.session()
        payload = h.payload(tag="search", hold="g")
        owner = h.service.submit(sid, payload)
        h.wait_started("g")
        follower = h.service.submit(sid, payload)
        h.release("g")
        first = h.wait_terminal(owner["run_id"])
        second = h.wait_terminal(follower["run_id"])
        assert h.run_log == ["search"]
        assert not first["record"]["cached"]
        assert second["record"]["cached"]
        assert second["record"]["result"] == first["record"]["result"]
        assert h.engine().stats()["result_cache_reserved"] == 0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_racing_identical_runs_never_deadlock(self, make_harness, workers):
        h = make_harness(max_workers=workers, result_cache_bytes=1 << 20)
        sid = h.session()
        ids = [
            h.service.submit(sid, h.payload(tag="search"))["run_id"]
            for _ in range(4)
        ]
        states = [h.wait_terminal(run_id)["state"] for run_id in ids]
        assert states == ["completed"] * 4
        assert h.run_log == ["search"]
        assert h.engine().stats()["result_cache_reserved"] == 0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_follower_of_cancelled_owner_runs_its_own_search(
        self, make_harness, workers
    ):
        h = make_harness(max_workers=workers, result_cache_bytes=1 << 20)
        sid = h.session()
        payload = h.payload(tag="search", hold="g", queries=3)
        owner = h.service.submit(sid, payload)
        h.wait_started("g")
        follower = h.service.submit(sid, payload)
        h.service.cancel(owner["run_id"])
        h.release("g")
        assert h.wait_terminal(owner["run_id"])["state"] == "cancelled"
        status = h.wait_terminal(follower["run_id"])
        assert status["state"] == "completed"
        assert not status["record"]["cached"]
        assert h.run_log == ["search", "search"]
        assert h.engine().stats()["result_cache_reserved"] == 0


class TestCatalogFactory:
    def test_factory_error_is_internal_and_called_once(self):
        """A factory that takes ``metrics`` and raises ``TypeError``
        inside used to be called a second time without arguments, and
        that call's ``TypeError`` escaped untyped."""
        calls = []

        def factory(metrics=None):
            calls.append(metrics)
            raise TypeError("bad corpus")

        service = DiscoveryService({"c": factory})
        with pytest.raises(Internal, match="catalog 'c' failed to open: bad corpus"):
            service.create_session("acme")
        assert calls == [service.metrics]
        # The engine is built before the session exists: a failed factory
        # leaves no session holding a slot of the cap.
        assert service.stats()["sessions"] == 0

    @pytest.mark.parametrize("kind", ["none", "kwargs"])
    def test_metrics_passed_only_when_accepted(self, kind):
        seen = []

        def plain():
            seen.append(None)
            return DiscoveryEngine(corpus=generate_corpus(2, seed=0))

        def open_ended(**kwargs):
            seen.append(kwargs["metrics"])
            return DiscoveryEngine(corpus=generate_corpus(2, seed=0), **kwargs)

        factory = plain if kind == "none" else open_ended
        service = DiscoveryService({"c": factory})
        service.create_session("acme")
        service.shutdown(timeout=5)
        assert seen == [None if kind == "none" else service.metrics]


class TestRealEngine:
    """The service over a real METAM engine serves exactly what a direct
    ``discover`` does."""

    @pytest.fixture(scope="class")
    def scenario(self):
        return clustering_scenario(seed=0)

    @staticmethod
    def serve(scenario, payloads, workers):
        from repro.cli import _scenario_service

        service = _scenario_service("clustering", scenario, workers=workers)
        try:
            sid = service.create_session("acme")["session_id"]
            ids = [service.submit(sid, p)["run_id"] for p in payloads]
            for run_id in ids:
                for _ in service.events(run_id, timeout=120):
                    pass
            records = [service.status(run_id)["record"] for run_id in ids]
            return records, service._engine_for("clustering").stats()
        finally:
            service.shutdown()

    @staticmethod
    def payload(scenario, seed):
        return {
            "base": scenario.base.name,
            "task": "scenario-task",
            "searcher": "metam",
            "seed": seed,
            "prepare_seed": 0,
            "config": {"theta": 0.6, "query_budget": 25, "epsilon": 0.1, "seed": seed},
        }

    def test_served_runs_match_discover_and_share_prepare(self, scenario):
        seeds = range(4)
        records, stats = self.serve(
            scenario, [self.payload(scenario, s) for s in seeds], workers=4
        )
        engine = DiscoveryEngine(corpus=scenario.corpus)
        for seed, record in zip(seeds, records):
            local = engine.discover(
                DiscoveryRequest(
                    base=scenario.base,
                    task=scenario.task,
                    searcher="metam",
                    seed=seed,
                    prepare_seed=0,
                    config=MetamConfig(
                        theta=0.6, query_budget=25, epsilon=0.1, seed=seed
                    ),
                )
            )
            assert record["status"] == "completed"
            assert record["result"] == run_to_wire(local)["result"]
        assert stats["prepared_candidate_sets"] == 1  # prepare_seed pinned
        assert stats["prepare_cache_misses"] == 1
        assert stats["runs_completed"] == 4


class TestDrain:
    def test_drain_cancels_queued_and_waits_for_running(self, make_harness):
        h = make_harness()
        sid = h.session("acme")
        running = h.service.submit(sid, h.payload(hold="g"))
        h.wait_started("g")
        queued = h.service.submit(sid, h.payload(seed=1))
        verdict = []
        drainer = threading.Thread(
            target=lambda: verdict.append(h.service.shutdown(timeout=30))
        )
        drainer.start()
        # The queued run is cancelled immediately, before the wait.
        status = h.wait_terminal(queued["run_id"], timeout=10)
        assert status["state"] == "cancelled"
        h.release("g")
        drainer.join(timeout=30)
        assert verdict == [True]
        assert h.service.status(running["run_id"])["state"] == "completed"

    def test_drain_refuses_new_work(self, harness):
        sid = harness.session()
        harness.service.shutdown(timeout=5)
        with pytest.raises(Overloaded):
            harness.service.submit(sid, harness.payload())
        with pytest.raises(Overloaded):
            harness.service.create_session("late")

    def test_submit_racing_drain_is_refused(self, harness, monkeypatch):
        """A drain that lands while a submission is parsed closes the
        worker pools; the run must be refused, not dispatched onto a
        closed pool."""
        import repro.server.service as service_module

        sid = harness.session()
        parse = service_module.request_from_wire

        def parse_then_drain(payload, lookup):
            request = parse(payload, lookup)
            harness.service.shutdown(timeout=5)
            return request

        monkeypatch.setattr(service_module, "request_from_wire", parse_then_drain)
        with pytest.raises(Overloaded, match="draining"):
            harness.service.submit(sid, harness.payload())
        assert harness.service.list_runs() == []

    def test_drain_timeout_reports_unclean(self, make_harness):
        h = make_harness()
        sid = h.session("acme")
        h.service.submit(sid, h.payload(hold="g"))
        h.wait_started("g")
        assert h.service.shutdown(timeout=0.1) is False
        h.release("g")


class TestServiceConfig:
    @pytest.mark.parametrize(
        ("name", "value"),
        [
            ("tenant_rate", float("nan")),
            ("tenant_rate", float("inf")),
            ("tenant_rate", True),
            ("tenant_burst", float("nan")),
            ("tenant_burst", float("inf")),
            ("tenant_burst", True),
            ("tenant_burst", 0.0),
            ("tenant_burst", -1.0),
            ("overload_retry_after", float("nan")),
            ("overload_retry_after", float("inf")),
            ("overload_retry_after", -1.0),
            ("drain_timeout", float("nan")),
            ("drain_timeout", float("inf")),
            ("drain_timeout", -1.0),
        ],
        ids=repr,
    )
    def test_values_that_break_admission_are_refused(self, name, value):
        """A NaN burst refused every request with ``Retry-After: nan``,
        an infinite one admitted everything, and a NaN rate silently
        disabled refill."""
        with pytest.raises(ValueError, match=name):
            ServiceConfig(**{name: value})

    @pytest.mark.parametrize("rate", [0.0, -1.0])
    def test_non_positive_rate_still_means_no_refill(self, rate):
        assert ServiceConfig(tenant_rate=rate, tenant_burst=1.0).tenant_rate == rate


class TestTokenBucket:
    def test_burst_then_deny(self):
        clock = [0.0]
        bucket = TokenBucket(rate=2.0, burst=3.0, clock=lambda: clock[0])
        assert all(bucket.try_acquire()[0] for _ in range(3))
        ok, retry = bucket.try_acquire()
        assert not ok
        assert retry == pytest.approx(0.5)
        clock[0] = 0.5
        assert bucket.try_acquire()[0]

    def test_refill_caps_at_burst(self):
        clock = [0.0]
        bucket = TokenBucket(rate=10.0, burst=2.0, clock=lambda: clock[0])
        clock[0] = 100.0
        assert bucket.try_acquire()[0]
        assert bucket.try_acquire()[0]
        assert not bucket.try_acquire()[0]

    def test_zero_rate_never_refills(self):
        clock = [0.0]
        bucket = TokenBucket(rate=0.0, burst=1.0, clock=lambda: clock[0])
        assert bucket.try_acquire()[0]
        clock[0] = 1e9
        ok, retry = bucket.try_acquire()
        assert not ok
        assert retry == float("inf")

    def test_oversized_request_is_unservable(self):
        bucket = TokenBucket(rate=1.0, burst=2.0)
        ok, retry = bucket.try_acquire(5.0)
        assert not ok
        assert retry == float("inf")
