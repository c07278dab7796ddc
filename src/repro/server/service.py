"""The multi-tenant discovery service: admission, fairness, lifecycle.

:class:`DiscoveryService` is the transport-agnostic core of
discovery-as-a-service — everything the HTTP layer does that is not
sockets lives here, so tests drive the full serving semantics without a
port.  It fronts one :class:`~repro.api.engine.DiscoveryEngine` per
catalog (sessions naming the same catalog share the engine — that is
the "engine-per-catalog reuse" of the session lifecycle) and adds what
the engine deliberately does not have:

* **Admission control.**  Every submission passes three gates before it
  touches an engine: the service must not be draining, the tenant's
  token bucket (:mod:`repro.server.quota`) must admit it, and the
  catalog's queue of undispatched runs must be under budget.  A refusal
  is a typed :class:`~repro.api.errors.Overloaded` carrying
  ``retry_after`` — the HTTP layer turns it into 429 + ``Retry-After``.
  Quota refusals never consume queue capacity, so a noisy tenant cannot
  starve the queue for the others.
* **Fair scheduling with priorities.**  The engine is synchronous; the
  service keeps per-tenant queues and dispatches round-robin across
  tenants (highest ``priority`` first within a tenant, FIFO within a
  priority) onto the catalog's own worker pool, whose size is the
  engine's ``max_workers``.  Each worker runs ``engine.discover``.  Two
  tenants at full blast each get half the pool.
* **Run lifecycle and event fan-in.**  Each accepted submission becomes
  a service-scoped run handle (``run-000001``-style ids) whose state
  moves ``queued → running → completed|cancelled|failed``.  The
  engine's typed event stream is buffered per run and re-served to any
  number of watchers (:meth:`DiscoveryService.subscribe`, the SSE source;
  ``events`` wraps one) — a subscriber that disconnects affects nothing, and a run
  cancelled before the engine ever saw it gets a synthesized terminal
  ``run-completed(status="cancelled")`` event so streams always end
  with a terminal event.
* **Graceful drain.**  :meth:`shutdown` stops admitting (new
  submissions get ``Overloaded``), cancels still-queued runs, waits for
  executing runs to finish, and shuts the worker pools down.

All service metrics are stamped with a ``tenant`` label on the shared
registry; tenant names pass through a validity gate at session creation
and the registry's per-family cardinality guardrail bounds the series
count under tenant churn (overflow collapses into ``_other_``).
"""

from __future__ import annotations

import inspect
import itertools
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, Optional

from repro.api.errors import Internal, InvalidRequest, NotFound, Overloaded
from repro.api.events import CancellationToken, RunCompleted
from repro.api.wire import request_from_wire, run_to_wire
from repro.obs.logcfg import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.server.quota import TenantQuotas
from repro.utils.validation import check_finite, check_non_negative, check_positive

_log = get_logger("server")

#: Finished runs whose records the service keeps; when one more
#: finishes, the oldest finished run is dropped (its id then answers
#: ``NotFound``).  Queued and running runs are never dropped.
MAX_FINISHED_RUNS = 1024

#: Characters allowed in tenant names (they become metric label values
#: and appear in URLs; keep them boring).
_TENANT_CHARS = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_."
)


def _report_crash(future) -> None:
    """Log a pool worker that raised: ``_execute`` records every run's
    own failure, so an exception here is a service bug that the
    discarded future would otherwise hide."""
    if future.exception() is not None:
        _log.error("service worker crashed", error=repr(future.exception()))


@dataclass(frozen=True)
class ServiceConfig:
    """Admission and scheduling knobs of one :class:`DiscoveryService`.

    Attributes
    ----------
    max_queue_depth:
        Maximum *undispatched* runs per catalog; submissions beyond it
        are refused with :class:`~repro.api.errors.Overloaded`.
    tenant_rate / tenant_burst:
        Token-bucket refill rate (requests/second) and capacity shared
        by every tenant's bucket.  ``rate <= 0`` disables refill; the
        burst must be > 0.  Both must be finite: a NaN burst refuses
        every request, an infinite one turns admission control off,
        and a NaN rate silently disables refill.
    overload_retry_after:
        ``Retry-After`` seconds suggested when the refusal has no
        natural deadline (queue full, draining).
    max_sessions:
        Cap on concurrently open sessions across all tenants.
    drain_timeout:
        Default seconds :meth:`DiscoveryService.shutdown` waits for
        executing runs before giving up on a clean drain.
    """

    max_queue_depth: int = 32
    tenant_rate: float = 50.0
    tenant_burst: float = 100.0
    overload_retry_after: float = 1.0
    max_sessions: int = 1024
    drain_timeout: float = 30.0

    def __post_init__(self):
        check_finite(self.tenant_rate, "tenant_rate")
        check_finite(self.tenant_burst, "tenant_burst")
        check_positive(self.tenant_burst, "tenant_burst")
        check_non_negative(self.overload_retry_after, "overload_retry_after")
        check_non_negative(self.drain_timeout, "drain_timeout")


@dataclass
class _Session:
    session_id: str
    tenant: str
    catalog: str
    created_at: float

    def describe(self) -> dict:
        return {
            "session_id": self.session_id,
            "tenant": self.tenant,
            "catalog": self.catalog,
        }


@dataclass
class _ServiceRun:
    """Service-side record of one submitted run (all mutable state is
    guarded by the service lock; the event buffer by its own condition)."""

    run_id: str
    session_id: str
    tenant: str
    catalog: str
    priority: int
    request: object
    state: str = "queued"  # queued | running | completed | cancelled | failed
    token: CancellationToken = field(default_factory=CancellationToken)
    record: Optional[dict] = None
    error: Optional[BaseException] = None
    submitted_at: float = field(default_factory=time.monotonic)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    # Event fan-in buffer: the engine's progress callback appends, any
    # number of subscribers read, woken by their watchers (called with
    # no lock held).  `events_done` marks the stream terminal.
    events: list = field(default_factory=list)
    events_lock: threading.Lock = field(default_factory=threading.Lock)
    events_done: bool = False
    watchers: set = field(default_factory=set)

    TERMINAL = frozenset({"completed", "cancelled", "failed"})

    @property
    def terminal(self) -> bool:
        return self.state in self.TERMINAL

    def push_event(self, event) -> None:
        with self.events_lock:
            if self.events_done:
                return
            self.events.append(event)
            watchers = list(self.watchers)
        for watcher in watchers:
            watcher()

    def close_events(self) -> None:
        with self.events_lock:
            self.events_done = True
            watchers = list(self.watchers)
        for watcher in watchers:
            watcher()

    def events_since(self, index: int) -> tuple:
        """``(events[index:], done)``, read together."""
        with self.events_lock:
            return self.events[index:], self.events_done

    def unwatch(self, watcher: Callable[[], None]) -> None:
        with self.events_lock:
            self.watchers.discard(watcher)

    def describe(self) -> dict:
        out = {
            "run_id": self.run_id,
            "session_id": self.session_id,
            "tenant": self.tenant,
            "catalog": self.catalog,
            "priority": self.priority,
            "state": self.state,
            "events_seen": len(self.events),
        }
        if self.record is not None:
            out["record"] = self.record
        if self.error is not None:
            from repro.api.wire import error_to_wire

            out["error"] = error_to_wire(self.error)["error"]
        return out


class _CatalogEntry:
    """One served catalog: its (lazily built) engine, the worker pool
    that runs ``engine.discover``, and the fair scheduler.

    The scheduler holds only tenants with queued runs.  It serves them
    in cycles: ``rr[:fresh]`` have not had a turn this cycle and go
    first, in arrival order; ``rr[fresh:]`` have, in the order of their
    turns.  A tenant whose queue empties leaves ``queues`` and ``rr`` at
    once; if it had a turn this cycle it is remembered in ``served``,
    and a return rejoins behind every tenant still waiting instead of
    jumping them.  A cycle ends when every queued tenant has had its
    turn or nothing is queued, and also as soon as ``served`` outgrows
    the rotation by more than one tenant — which bounds what the entry
    remembers by its queue, whatever the tenant churn.  Ending a cycle
    reorders nobody: it only forgets ``served``.  Every method runs
    under the service lock.
    """

    def __init__(
        self, name: str, factory: Callable[[], object], bases: dict = None
    ):
        self.name = name
        self.factory = factory
        # Extra request-base tables by name (scenario bases are not part
        # of the served corpus; candidates never join against them).
        self.bases = dict(bases or {})
        self.engine = None
        self.pool = None  # ThreadPoolExecutor, built with the engine
        # tenant -> deque of its queued _ServiceRun (never empty).
        self.queues: Dict[str, deque] = {}
        self.rr: deque = deque()  # tenants with queued runs, in turn order
        self.fresh = 0  # rr[:fresh] have not had a turn this cycle
        self.served: set = set()  # had a turn this cycle, queue since emptied
        self.slots = 0  # free pool workers (set when engine is built)
        self.active = 0  # dispatched, not yet resolved

    def queued_count(self) -> int:
        return sum(len(q) for q in self.queues.values())

    def enqueue(self, run) -> None:
        """Queue ``run`` behind its tenant's other runs."""
        tenant = run.tenant
        queue = self.queues.get(tenant)
        if queue is None:
            queue = self.queues[tenant] = deque()
            if tenant in self.served:
                self.served.discard(tenant)
                self.rr.append(tenant)
            else:
                self.rr.insert(self.fresh, tenant)
                self.fresh += 1
        queue.append(run)

    def pick(self):
        """Take the next run to dispatch (highest priority of the next
        tenant's runs, FIFO within a priority), or ``None``."""
        if not self.rr or not self.fresh:
            self._new_cycle()
        if not self.rr:
            return None
        tenant = self.rr.popleft()
        self.fresh -= 1
        queue = self.queues[tenant]
        run = max(queue, key=lambda r: r.priority)
        queue.remove(run)
        if queue:
            self.rr.append(tenant)
        else:
            self._leave(tenant, had_turn=True)
        return run

    def remove(self, run) -> None:
        """Withdraw a queued run (a cancel)."""
        queue = self.queues.get(run.tenant)
        if queue is None or run not in queue:
            return
        queue.remove(run)
        if not queue:
            position = self.rr.index(run.tenant)
            del self.rr[position]
            had_turn = position >= self.fresh
            if not had_turn:
                self.fresh -= 1
            self._leave(run.tenant, had_turn)

    def drain(self) -> list:
        """Take every queued run, leaving the scheduler empty."""
        runs = [run for queue in self.queues.values() for run in queue]
        self.queues.clear()
        self.rr.clear()
        self.served.clear()
        self.fresh = 0
        return runs

    def _leave(self, tenant: str, had_turn: bool) -> None:
        """Forget a tenant whose queue emptied (already out of ``rr``)."""
        del self.queues[tenant]
        if had_turn:
            self.served.add(tenant)
            if len(self.served) > len(self.rr) + 1:
                self._new_cycle()

    def _new_cycle(self) -> None:
        self.served.clear()
        self.fresh = len(self.rr)


class DiscoveryService:
    """Session, run, and admission manager over one or more engines.

    Parameters
    ----------
    catalogs:
        ``name -> factory`` of the catalogs this service may serve; the
        factory is called at most once (on the first session naming the
        catalog) and must return a ready
        :class:`~repro.api.engine.DiscoveryEngine` with a corpus
        attached; its ``max_workers`` is how many runs the service
        executes on it at once.  Factories receive the service's shared
        ``MetricsRegistry`` via the ``metrics`` keyword when their
        signature accepts one (a ``metrics`` parameter or
        ``**kwargs``), so ``/metrics`` exposes engine and service
        families together.  Any exception a factory raises reaches the
        caller as :class:`~repro.api.errors.Internal`.
    bases:
        Optional ``catalog name -> {table name -> Table}`` of extra
        tables requests may name as their base without the table being
        part of the served corpus (a scenario's input dataset is not a
        join candidate).  The served corpus always resolves first.
    config:
        :class:`ServiceConfig` admission/scheduling knobs.
    metrics:
        Shared registry (``None`` creates a private one).  Pass the
        registry engines were built on to merge expositions.
    clock:
        Injectable monotonic clock for quota buckets (tests).
    """

    def __init__(
        self,
        catalogs: Dict[str, Callable[..., object]],
        *,
        bases: Dict[str, dict] = None,
        config: ServiceConfig = None,
        metrics: MetricsRegistry = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if not catalogs:
            raise ValueError("a service needs at least one catalog factory")
        self.config = config or ServiceConfig()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        bases = bases or {}
        self._entries = {
            name: _CatalogEntry(name, factory, bases.get(name))
            for name, factory in catalogs.items()
        }
        self._quotas = TenantQuotas(
            self.config.tenant_rate, self.config.tenant_burst, clock
        )
        self._sessions: Dict[str, _Session] = {}
        self._runs: Dict[str, _ServiceRun] = {}
        self._finished: deque = deque()  # finished run ids, oldest first
        self._session_seq = itertools.count(1)
        self._run_seq = itertools.count(1)
        self._draining = False
        self._lock = threading.RLock()
        self._idle = threading.Condition(self._lock)
        self._init_metrics()

    def _init_metrics(self) -> None:
        registry = self.metrics
        self._m_requests = registry.counter(
            "repro_server_requests_total",
            "Run submissions by admission outcome",
            labels=("tenant", "outcome"),
        )
        self._m_runs = registry.counter(
            "repro_server_runs_total",
            "Service runs resolved, by terminal state",
            labels=("tenant", "status"),
        )
        self._m_queue_depth = registry.gauge(
            "repro_server_queue_depth",
            "Undispatched runs held by the fair scheduler",
            labels=("catalog",),
        )
        self._m_active = registry.gauge(
            "repro_server_active_runs",
            "Runs dispatched to an engine and not yet resolved",
            labels=("catalog",),
        )
        self._m_sessions = registry.gauge(
            "repro_server_sessions", "Open sessions"
        )
        self._m_queue_wait = registry.histogram(
            "repro_server_queue_wait_seconds",
            "Time from admission to dispatch",
            labels=("tenant",),
            buckets=(0.001, 0.01, 0.1, 0.5, 1.0, 5.0, 30.0),
        )

    # ------------------------------------------------------------------
    # Sessions
    # ------------------------------------------------------------------
    def create_session(self, tenant: str, catalog: str = None) -> dict:
        """Open a session for ``tenant`` against ``catalog`` (default:
        the sole catalog when only one is served).

        Sessions naming the same catalog share one engine.  Raises
        :class:`InvalidRequest` on a bad tenant/catalog name and
        :class:`Overloaded` at the session cap or while draining.
        """
        tenant = self._validate_tenant(tenant)
        if catalog is None:
            if len(self._entries) == 1:
                catalog = next(iter(self._entries))
            else:
                raise InvalidRequest(
                    "this service hosts several catalogs; the session "
                    "must name one (field 'catalog')",
                    details={"catalogs": sorted(self._entries)},
                )
        if catalog not in self._entries:
            raise NotFound(
                f"unknown catalog {catalog!r}",
                details={"catalogs": sorted(self._entries)},
            )
        # Build the engine first, outside the lock: catalog factories may
        # do real I/O, and a session then always has its engine (submit
        # never waits on a factory; one that fails leaves no session).
        self._engine_for(catalog)
        with self._lock:
            if self._draining:
                raise Overloaded(
                    "service is draining; no new sessions",
                    retry_after=self.config.overload_retry_after,
                )
            if len(self._sessions) >= self.config.max_sessions:
                raise Overloaded(
                    f"session cap reached ({self.config.max_sessions})",
                    retry_after=self.config.overload_retry_after,
                )
            session = _Session(
                session_id=f"s-{next(self._session_seq):06d}",
                tenant=tenant,
                catalog=catalog,
                created_at=time.monotonic(),
            )
            self._sessions[session.session_id] = session
            self._m_sessions.set(float(len(self._sessions)))
        return session.describe()

    def close_session(self, session_id: str) -> dict:
        """Close one session (its already-submitted runs keep running)."""
        with self._lock:
            session = self._sessions.pop(session_id, None)
            if session is None:
                raise NotFound(f"unknown session {session_id!r}")
            self._m_sessions.set(float(len(self._sessions)))
        return session.describe()

    def get_session(self, session_id: str) -> dict:
        with self._lock:
            session = self._sessions.get(session_id)
            if session is None:
                raise NotFound(f"unknown session {session_id!r}")
            return session.describe()

    def _validate_tenant(self, tenant) -> str:
        if not isinstance(tenant, str) or not tenant:
            raise InvalidRequest(
                "session must name its tenant (field 'tenant')",
                details={"field": "tenant"},
            )
        if len(tenant) > 64 or not set(tenant) <= _TENANT_CHARS:
            raise InvalidRequest(
                f"invalid tenant name {tenant!r} (<= 64 chars from "
                "[A-Za-z0-9._-])",
                details={"field": "tenant"},
            )
        return tenant

    def _engine_for(self, catalog: str):
        entry = self._entries[catalog]
        with self._lock:
            engine = entry.engine
        if engine is not None:
            return engine
        # Factory call outside the service lock (it may open stores,
        # generate corpora, ...); first-build races are settled under
        # the lock below and the loser's engine is dropped.
        try:
            inspect.signature(entry.factory).bind_partial(metrics=self.metrics)
            kwargs = {"metrics": self.metrics}
        except (TypeError, ValueError):  # no such parameter / no signature
            kwargs = {}
        try:
            built = entry.factory(**kwargs)
        except Exception as error:
            raise Internal(
                f"catalog {catalog!r} failed to open: {error}"
            ) from error
        with self._lock:
            if entry.engine is None:
                entry.engine = built
                entry.slots = built.max_workers
                entry.pool = ThreadPoolExecutor(
                    max_workers=built.max_workers,
                    thread_name_prefix="repro-service",
                )
            return entry.engine

    # ------------------------------------------------------------------
    # Run lifecycle
    # ------------------------------------------------------------------
    def submit(self, session_id: str, payload: dict, priority: int = 0) -> dict:
        """Admit, queue, and (when a slot is free) dispatch one run.

        Returns the run's description (``state`` is ``queued`` or
        ``running``).  Raises :class:`NotFound` for a bad session,
        :class:`Overloaded` on any admission refusal, and
        :class:`InvalidRequest` when the payload does not parse against
        the session's corpus or names an unregistered searcher or task.
        """
        with self._lock:
            session = self._sessions.get(session_id)
            if session is None:
                raise NotFound(f"unknown session {session_id!r}")
        tenant, catalog = session.tenant, session.catalog
        try:
            priority = int(priority)
        except (TypeError, ValueError):
            raise InvalidRequest(
                f"priority must be an int, got {priority!r}",
                details={"field": "priority"},
            ) from None
        engine = self._engine_for(catalog)
        entry = self._entries[catalog]
        with self._lock:
            self._refuse_if_draining_locked(tenant)
        # Quota gate first: a rate-limited tenant must be refused before
        # it can occupy queue capacity (never queue starvation).
        admitted, retry_after = self._quotas.try_acquire(tenant)
        if not admitted:
            self._m_requests.labels(tenant=tenant, outcome="rejected_quota").inc()
            raise Overloaded(
                f"tenant {tenant!r} is over its request quota",
                retry_after=(
                    retry_after
                    if retry_after != float("inf")
                    else self.config.overload_retry_after
                ),
                details={"tenant": tenant},
            )
        # Parse before taking a queue slot: a malformed request must
        # never count against the backpressure budget.  The base table
        # resolves against the served corpus first, then the catalog's
        # registered extra bases (scenario inputs).
        lookup = dict(engine.corpus)
        for base_name, table in entry.bases.items():
            lookup.setdefault(base_name, table)
        try:
            request = request_from_wire(payload, lookup)
            # Unknown names are the caller's error: refuse them here,
            # not as a failed run after the request took a slot.
            for name, registry in (
                (request.searcher, engine.searchers),
                (request.task, engine.tasks),
            ):
                if name not in registry:
                    raise InvalidRequest(
                        f"unknown {registry.kind} {name!r}; choose from "
                        f"{registry.names()}",
                        details={"field": registry.kind, registry.kind: name},
                    )
        except InvalidRequest:
            self._m_requests.labels(tenant=tenant, outcome="invalid").inc()
            raise
        with self._lock:
            # Again: a shutdown() that raced the parse may have closed
            # the pools already.
            self._refuse_if_draining_locked(tenant)
            if entry.queued_count() >= self.config.max_queue_depth:
                self._m_requests.labels(
                    tenant=tenant, outcome="rejected_queue"
                ).inc()
                raise Overloaded(
                    f"catalog {catalog!r} queue is full "
                    f"({self.config.max_queue_depth} runs waiting)",
                    retry_after=self.config.overload_retry_after,
                    details={"catalog": catalog},
                )
            run = _ServiceRun(
                run_id=f"run-{next(self._run_seq):06d}",
                session_id=session_id,
                tenant=tenant,
                catalog=catalog,
                priority=priority,
                request=request,
            )
            self._runs[run.run_id] = run
            entry.enqueue(run)
            self._m_requests.labels(tenant=tenant, outcome="accepted").inc()
            self._m_queue_depth.labels(catalog=catalog).set(
                float(entry.queued_count())
            )
        _log.info(
            "run admitted", run_id=run.run_id, tenant=tenant, catalog=catalog
        )
        self._pump(entry)
        with self._lock:
            return run.describe()

    def _refuse_if_draining_locked(self, tenant: str) -> None:
        if self._draining:
            self._m_requests.labels(tenant=tenant, outcome="rejected_draining").inc()
            raise Overloaded(
                "service is draining; run not admitted",
                retry_after=self.config.overload_retry_after,
            )

    def status(self, run_id: str) -> dict:
        """Current description of one run (terminal states carry the
        full wire run record)."""
        with self._lock:
            run = self._runs.get(run_id)
            if run is None:
                raise NotFound(f"unknown run {run_id!r}")
            return run.describe()

    def cancel(self, run_id: str) -> dict:
        """Cooperatively cancel one run at whatever stage it is in.

        Still-queued runs never reach an engine (their event stream gets
        a synthesized terminal cancelled event); executing runs stop at
        their next utility query and resolve through the normal path.
        A run dispatched but not yet inside ``discover`` starts with its
        token already cancelled and stops at its first query.
        """
        with self._lock:
            run = self._runs.get(run_id)
            if run is None:
                raise NotFound(f"unknown run {run_id!r}")
            if run.terminal:
                return run.describe()
            entry = self._entries[run.catalog]
            if run.state == "queued":
                entry.remove(run)
                self._finalize_locked(run, "cancelled", synthesize=True)
                self._m_queue_depth.labels(catalog=run.catalog).set(
                    float(entry.queued_count())
                )
                return run.describe()
            run.token.cancel()
            _log.info("run cancel requested", run_id=run_id)
            return run.describe()

    # ------------------------------------------------------------------
    # Fair dispatch
    # ------------------------------------------------------------------
    def _pump(self, entry: _CatalogEntry) -> None:
        """Dispatch queued runs onto free pool workers, fairly.

        Tenants are served round-robin, in cycles (see
        :class:`_CatalogEntry`); within a tenant the highest priority
        wins, FIFO inside a priority level.
        """
        with self._lock:
            while True:
                run = self._pick_locked(entry)
                if run is None:
                    return
                entry.slots -= 1
                entry.active += 1
                run.state = "running"
                run.started_at = time.monotonic()
                self._m_queue_depth.labels(catalog=entry.name).set(
                    float(entry.queued_count())
                )
                self._m_active.labels(catalog=entry.name).set(
                    float(entry.active)
                )
                self._m_queue_wait.labels(tenant=run.tenant).observe(
                    run.started_at - run.submitted_at
                )
                entry.pool.submit(self._execute, entry, run).add_done_callback(
                    _report_crash
                )

    def _pick_locked(self, entry: _CatalogEntry):
        """Next run to dispatch, or ``None`` (lock held by caller)."""
        if entry.slots <= 0 or entry.engine is None:
            return None
        return entry.pick()

    def _execute(self, entry: _CatalogEntry, run: _ServiceRun) -> None:
        """Serve one dispatched run on a pool worker, then resolve it."""
        record = None
        error: Optional[BaseException] = None
        try:
            result = entry.engine.discover(
                run.request, progress=run.push_event, cancel=run.token
            )
            status = "cancelled" if result.cancelled else "completed"
            record = run_to_wire(result)
        except Exception as exc:  # noqa: BLE001 - recorded, not swallowed
            status = "failed"
            error = exc
            _log.error("run failed", run_id=run.run_id, error=repr(exc))
        with self._lock:
            entry.slots += 1
            entry.active -= 1
            run.record = record
            run.error = error
            self._finalize_locked(run, status, synthesize=record is None)
            self._m_active.labels(catalog=entry.name).set(float(entry.active))
        self._pump(entry)

    def _finalize_locked(
        self, run: _ServiceRun, status: str, synthesize: bool
    ) -> None:
        """Move a run to its terminal state (lock held by caller)."""
        run.state = status
        run.finished_at = time.monotonic()
        self._m_runs.labels(tenant=run.tenant, status=status).inc()
        if synthesize and status != "completed":
            run.push_event(
                RunCompleted(status=status, utility=0.0, queries=0, seconds=0.0)
            )
        run.close_events()
        self._finished.append(run.run_id)
        while len(self._finished) > MAX_FINISHED_RUNS:
            del self._runs[self._finished.popleft()]
        self._idle.notify_all()

    # ------------------------------------------------------------------
    # Event streaming
    # ------------------------------------------------------------------
    def events(self, run_id: str, timeout: float = None) -> Iterator:
        """Iterate one run's typed events, blocking for new ones until
        the stream is terminal.

        Yields every buffered event from the beginning (late subscribers
        replay the history), then live events as they arrive, and
        returns once the run's stream closes — the last yielded event is
        always terminal (``run-completed``).  ``timeout`` bounds each
        wait; expiry raises ``TimeoutError`` so a serving layer never
        blocks forever on a wedged run.
        """
        wake = threading.Event()
        run = self.subscribe(run_id, wake.set)
        try:
            index = 0
            while True:
                wake.clear()  # before the read, so no wake-up is lost
                batch, done = run.events_since(index)
                for event in batch:
                    yield event
                index += len(batch)
                if done:
                    return
                if not batch and not wake.wait(timeout=timeout):
                    raise TimeoutError(f"no event from {run_id} within {timeout}s")
        finally:
            run.unwatch(wake.set)

    def subscribe(self, run_id: str, watcher: Callable[[], None]) -> _ServiceRun:
        """Add ``watcher`` (called on the appending thread, no lock held:
        it must only hand off) to a run's event buffer; return the run."""
        with self._lock:
            run = self._runs.get(run_id)
            if run is None:
                raise NotFound(f"unknown run {run_id!r}")
        with run.events_lock:
            run.watchers.add(watcher)
        return run

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def list_runs(self, session_id: str = None) -> list:
        with self._lock:
            runs = [
                run.describe()
                for run in self._runs.values()
                if session_id is None or run.session_id == session_id
            ]
        return runs

    def metrics_prometheus(self) -> str:
        """Prometheus exposition of the shared registry (service and
        engine families together; engine gauges refreshed first)."""
        self._refresh_engine_gauges()
        return self.metrics.to_prometheus()

    def metrics_snapshot(self) -> dict:
        """JSON snapshot of the shared registry (what
        :meth:`metrics_prometheus` exposes, quantile estimates included)."""
        self._refresh_engine_gauges()
        return self.metrics.snapshot()

    def _refresh_engine_gauges(self) -> None:
        with self._lock:
            engines = [
                e.engine for e in self._entries.values() if e.engine is not None
            ]
        for engine in engines:
            if engine.metrics is self.metrics:
                engine.metrics_snapshot()  # refresh derived gauges

    def stats(self) -> dict:
        with self._lock:
            return {
                "sessions": len(self._sessions),
                "runs": len(self._runs),
                "draining": self._draining,
                "catalogs": {
                    name: {
                        "engine_built": entry.engine is not None,
                        "queued": entry.queued_count(),
                        "active": entry.active,
                        "free_slots": entry.slots,
                    }
                    for name, entry in self._entries.items()
                },
            }

    # ------------------------------------------------------------------
    # Drain
    # ------------------------------------------------------------------
    def shutdown(self, timeout: Optional[float] = None) -> bool:
        """Graceful drain: refuse new work, cancel queued runs, wait for
        executing runs, shut the worker pools down.

        Returns ``True`` when every run reached a terminal state within
        ``timeout`` (default :attr:`ServiceConfig.drain_timeout`).
        Idempotent.
        """
        timeout = self.config.drain_timeout if timeout is None else timeout
        with self._lock:
            self._draining = True
            # Queued runs never got a slot; they end here, cancelled.
            for entry in self._entries.values():
                for run in entry.drain():
                    self._finalize_locked(run, "cancelled", synthesize=True)
                self._m_queue_depth.labels(catalog=entry.name).set(0.0)
            deadline = time.monotonic() + max(0.0, timeout)
            clean = True
            while any(e.active for e in self._entries.values()):
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not self._idle.wait(timeout=remaining):
                    clean = False
                    break
            pools = [e.pool for e in self._entries.values() if e.pool is not None]
        for pool in pools:
            pool.shutdown(wait=clean)
        _log.info("service drained", clean=clean)
        return clean
