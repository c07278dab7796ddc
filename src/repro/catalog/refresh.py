"""Background catalog maintenance: :class:`CatalogRefresher`.

Metam's goal-oriented loop assumes discovery artifacts (signatures,
profiles, join index) reflect the current corpus.  Without background
maintenance any table change forces a synchronous re-fingerprint on the
query path — exactly the stall a serving engine cannot afford.  The
refresher moves that work off the request path:

- a **watch loop** (a daemon thread, or explicit :meth:`refresh_now`
  calls) polls a *corpus source* and detects change by identity, then
  fingerprint: Tables are immutable by library convention, so a table
  object already published is known-unchanged without touching its
  cells, and only genuinely new objects are fingerprinted;
- a **changed cycle** re-signs exactly the changed or new tables into
  the shared :class:`~repro.catalog.store.CatalogStore` (warm-starting
  everything else from disk), drops removed ones (their objects are
  reclaimed by the store's gc), saves, and publishes a fresh
  immutable :class:`CatalogSnapshot`;
- an **unchanged cycle** republishes the previous snapshot object and
  touches nothing on disk — manifest and packed snapshot stay
  byte-identical, so caches keyed on snapshot identity or corpus
  content are never spuriously invalidated.

Readers never block on refresh: :meth:`CatalogRefresher.current` is a
plain attribute read, and the serving engine swaps the published
snapshot in atomically *between* requests.  ``staleness_budget`` bounds
how old a served snapshot may be — :meth:`ensure_fresh` returns the
current snapshot when it was verified within the budget and otherwise
runs (or waits out) one synchronous cycle.

Each published snapshot owns its own :class:`~repro.catalog.Catalog`
instance, hydrated from the shared store; the refresher never mutates a
catalog it has published, so in-flight discovery runs keep a consistent
view for as long as they hold their snapshot.
"""

from __future__ import annotations

import threading
import time
from types import MappingProxyType

from repro.catalog.catalog import Catalog
from repro.catalog.fingerprint import table_fingerprint
from repro.catalog.store import CatalogStore
from repro.dataframe.table import normalize_corpus
from repro.obs.logcfg import get_logger

_log = get_logger(__name__)

#: Cycle-duration buckets: a quiet cycle is sub-millisecond (identity
#: scan only); a full re-sign of a large corpus runs into the seconds.
CYCLE_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)


def register_refresher_metrics(registry):
    """Get-or-create the refresher's metric families on ``registry``
    (shared with the engine's pre-registration pass)."""
    return {
        "cycles": registry.counter(
            "repro_refresher_cycles_total",
            "Refresh cycles completed, by whether the corpus changed.",
            labels=("changed",),
        ),
        "cycle_seconds": registry.histogram(
            "repro_refresher_cycle_seconds",
            "Wall time of one scan/refresh/publish cycle.",
            buckets=CYCLE_BUCKETS,
        ),
        "tables_resigned": registry.counter(
            "repro_refresher_tables_resigned_total",
            "Tables re-signed (added or updated) by changed cycles.",
        ),
        "errors": registry.counter(
            "repro_refresher_errors_total",
            "Cycles that failed (the last good snapshot keeps serving).",
        ),
    }


class CatalogSnapshot:
    """One immutable published view of the corpus + its catalog.

    Attributes
    ----------
    catalog:
        A hydrated :class:`~repro.catalog.Catalog` consistent with
        ``corpus``.  The refresher never mutates it after publication.
    corpus:
        Read-only ``{name: Table}`` mapping the catalog was synced to.
    fingerprints:
        Read-only ``{name: content fingerprint}`` of every table.
    epoch:
        Monotone publication counter (1 for the first snapshot).  Equal
        epochs imply the identical snapshot object.
    diff:
        The :class:`~repro.catalog.CatalogDiff` of the cycle that built
        this snapshot.
    created_at:
        Wall-clock publication time.
    """

    __slots__ = (
        "catalog",
        "corpus",
        "fingerprints",
        "epoch",
        "diff",
        "created_at",
    )

    def __init__(self, catalog, corpus, fingerprints, epoch, diff):
        self.catalog = catalog
        self.corpus = MappingProxyType(dict(corpus))
        self.fingerprints = MappingProxyType(dict(fingerprints))
        self.epoch = epoch
        self.diff = diff
        self.created_at = time.time()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CatalogSnapshot(epoch={self.epoch}, "
            f"tables={len(self.corpus)})"
        )


class CatalogRefresher:
    """Watches a corpus source and publishes fresh catalog snapshots.

    Parameters
    ----------
    source:
        The corpus to watch: a callable returning ``{name: Table}`` (or
        an iterable of Tables) — polled every cycle — or a static
        dict/iterable, wrapped into a constant callable.
    store:
        Optional store root (path or :class:`CatalogStore`).  With a
        store, changed cycles re-sign only changed tables (everything
        else warm-starts from disk) and persist the result, so restarts
        and concurrent processes share the work.  Without one, every
        changed cycle signs the full corpus in memory — fine for small
        corpora, documented as the trade-off.
    interval:
        Poll period of the background thread (seconds).
    staleness_budget:
        Default bound for :meth:`ensure_fresh` (seconds); ``None``
        means callers accept whatever snapshot is current.
    on_cycle:
        Optional observer ``callback(snapshot, changed)`` invoked after
        every completed cycle (exceptions are swallowed — observers
        must not kill the maintenance loop).
    config:
        :class:`~repro.catalog.Catalog` constructor keywords, applied
        when the cycle has to create a catalog (an existing saved
        catalog keeps its stored config, exactly like ``Catalog.open``).
    """

    def __init__(
        self,
        source,
        store=None,
        interval: float = 1.0,
        staleness_budget: float = None,
        on_cycle=None,
        **config,
    ):
        if callable(source):
            self._source = source
        else:
            static = source
            self._source = lambda: static
        if store is None or isinstance(store, CatalogStore):
            self.store = store
        else:
            self.store = CatalogStore(str(store))
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval}")
        self.interval = float(interval)
        self.staleness_budget = (
            float(staleness_budget) if staleness_budget is not None else None
        )
        self.on_cycle = on_cycle
        self._config = dict(config)
        self._snapshot = None
        self._checked_at = None  # monotonic scan-start of the last cycle
        self._refresh_lock = threading.Lock()  # one cycle at a time
        self._state_lock = threading.Lock()  # snapshot/clock publication
        self._thread = None
        self._stop = threading.Event()
        self.cycles = 0
        self.changed_cycles = 0
        self.errors = 0
        self.last_error = None
        #: Metric family handles (see :meth:`attach_metrics`).
        self.obs = None

    def attach_metrics(self, registry) -> "CatalogRefresher":
        """Record cycle durations, change counts, re-signed tables, and
        loop errors on ``registry``; a store is instrumented along with
        it.  Returns ``self``."""
        self.obs = register_refresher_metrics(registry)
        if self.store is not None:
            self.store.attach_metrics(registry)
        return self

    # ------------------------------------------------------------------
    # Reading (never blocks on refresh)
    # ------------------------------------------------------------------
    def current(self) -> CatalogSnapshot:
        """The latest published snapshot (``None`` before the first
        cycle).  A plain read — never waits for an in-flight cycle."""
        return self._snapshot

    def staleness(self) -> float:
        """Seconds since the current snapshot was last *verified* against
        the source (``inf`` before the first cycle).  Unchanged cycles
        refresh this clock without republishing, so a quiet corpus stays
        'fresh' for free."""
        with self._state_lock:
            checked = self._checked_at
        if checked is None:
            return float("inf")
        return time.monotonic() - checked

    def ensure_fresh(self, budget: float = None) -> CatalogSnapshot:
        """A snapshot no staler than ``budget`` seconds (default: the
        refresher's ``staleness_budget``).

        Returns the current snapshot immediately when it qualifies;
        otherwise runs one synchronous cycle (waiting out an in-flight
        background cycle first — the wait usually *is* the refresh).
        ``budget=None`` with no default accepts any published snapshot,
        only blocking when none exists yet.
        """
        budget = budget if budget is not None else self.staleness_budget
        snapshot = self.current()
        if snapshot is not None and (
            budget is None or self.staleness() <= budget
        ):
            return snapshot
        with self._refresh_lock:
            # Re-check: the cycle we queued behind may have done the work.
            snapshot = self.current()
            if snapshot is not None and (
                budget is None or self.staleness() <= budget
            ):
                return snapshot
            return self._cycle()

    # ------------------------------------------------------------------
    # Refreshing
    # ------------------------------------------------------------------
    def refresh_now(self) -> CatalogSnapshot:
        """Run one synchronous refresh cycle (serialized with the
        background thread) and return the resulting snapshot."""
        with self._refresh_lock:
            return self._cycle()

    def _scan_fingerprints(self, corpus: dict, previous) -> dict:
        """Content fingerprints of ``corpus``, reusing the previous
        snapshot's digests for identity-matched tables — the cheap part
        of the mtime/fingerprint scan (Tables are immutable, so an
        already-published object is known-unchanged without rereading
        its cells)."""
        fingerprints = {}
        for name, table in corpus.items():
            if previous is not None and previous.corpus.get(name) is table:
                fingerprints[name] = previous.fingerprints[name]
            else:
                fingerprints[name] = table_fingerprint(table)
        return fingerprints

    def _cycle(self) -> CatalogSnapshot:
        """One full scan/refresh/publish cycle (caller holds the
        refresh lock)."""
        started = time.monotonic()
        corpus = normalize_corpus(self._source())
        previous = self._snapshot
        fingerprints = self._scan_fingerprints(corpus, previous)
        if previous is not None and fingerprints == dict(previous.fingerprints):
            # Unchanged corpus: republish the very same snapshot object
            # and leave the store untouched (byte-identical manifest and
            # packed snapshot — no cache above us sees a change), just
            # refresh the staleness clock.
            with self._state_lock:
                self._checked_at = started
            self.cycles += 1
            if self.obs is not None:
                self.obs["cycles"].labels(changed="false").inc()
                self.obs["cycle_seconds"].observe(time.monotonic() - started)
            self._observe(previous, changed=False)
            return previous
        catalog = self._build_catalog(corpus, fingerprints)
        diff = catalog.refresh(corpus, fingerprints=fingerprints)
        if self.store is not None:
            catalog.save()
            if diff.removed:
                # Removed tables' objects are reclaimed by gc, which
                # un-records each before removing its file: a crash here
                # leaves at most an unreferenced object the next gc
                # reclaims, never an unverifiable store.
                catalog.gc()
        snapshot = CatalogSnapshot(
            catalog=catalog,
            corpus=corpus,
            fingerprints=fingerprints,
            epoch=(previous.epoch + 1) if previous is not None else 1,
            diff=diff,
        )
        with self._state_lock:
            self._snapshot = snapshot
            self._checked_at = started
        self.cycles += 1
        self.changed_cycles += 1
        if self.obs is not None:
            self.obs["cycles"].labels(changed="true").inc()
            self.obs["cycle_seconds"].observe(time.monotonic() - started)
            resigned = len(diff.added) + len(diff.updated)
            if resigned:
                self.obs["tables_resigned"].inc(resigned)
        _log.debug(
            "refresh cycle published snapshot",
            epoch=snapshot.epoch,
            added=len(diff.added),
            updated=len(diff.updated),
            removed=len(diff.removed),
            seconds=round(time.monotonic() - started, 6),
        )
        self._observe(snapshot, changed=True)
        return snapshot

    def _build_catalog(self, corpus: dict, fingerprints: dict) -> Catalog:
        """A fresh catalog instance for one changed cycle.

        Store-backed: opened on the shared store, so unchanged tables
        hydrate from the packed snapshot and only changed content is
        re-signed.  The previous snapshot's catalog is never reused —
        published snapshots stay immutable.
        """
        if self.store is None:
            return Catalog(**self._config)
        if self.store.exists():
            return Catalog.load(self.store)
        return Catalog(store=self.store, **self._config)

    def _observe(self, snapshot, changed: bool) -> None:
        if self.on_cycle is None:
            return
        try:
            self.on_cycle(snapshot, changed)
        except Exception:  # observers must not kill maintenance
            pass

    # ------------------------------------------------------------------
    # Background thread
    # ------------------------------------------------------------------
    def start(self) -> "CatalogRefresher":
        """Run the watch loop on a daemon thread; returns ``self``.

        The first cycle runs immediately (so ``current()`` is usable as
        soon as it completes); subsequent cycles poll every
        ``interval`` seconds.  Idempotent while running.
        """
        with self._state_lock:
            if self._thread is not None and self._thread.is_alive():
                return self
            # A fresh stop event per start: a previous loop stopped with
            # ``wait=False`` may still be mid-cycle, and it must keep
            # observing its own (already set) event — clearing a shared
            # one would resurrect it next to the new thread.
            self._stop = threading.Event()
            self._thread = threading.Thread(
                target=self._loop,
                args=(self._stop,),
                name="repro-catalog-refresh",
                daemon=True,
            )
            self._thread.start()
        return self

    def _loop(self, stop: threading.Event) -> None:
        while True:
            try:
                with self._refresh_lock:
                    if stop.is_set():
                        return
                    self._cycle()
                self.last_error = None
            except Exception as error:
                # A failing source or store must degrade to serving the
                # last good snapshot, never kill the maintenance loop.
                self.errors += 1
                self.last_error = error
                if self.obs is not None:
                    self.obs["errors"].inc()
                _log.debug(
                    "refresh cycle failed; serving last good snapshot",
                    error=repr(error),
                    consecutive_errors=self.errors,
                )
            if stop.wait(self.interval):
                return

    def stop(self, wait: bool = True) -> None:
        """Stop the background thread (no-op when none is running)."""
        with self._state_lock:
            self._stop.set()
            thread, self._thread = self._thread, None
        if thread is not None and wait:
            thread.join()

    @property
    def running(self) -> bool:
        thread = self._thread
        return thread is not None and thread.is_alive()

    def __enter__(self) -> "CatalogRefresher":
        return self.start()

    def __exit__(self, *exc_info):
        self.stop(wait=True)
        return False

    def stats(self) -> dict:
        snapshot = self.current()
        return {
            "running": self.running,
            "cycles": self.cycles,
            "changed_cycles": self.changed_cycles,
            "errors": self.errors,
            "last_error": repr(self.last_error) if self.last_error else None,
            "epoch": snapshot.epoch if snapshot is not None else 0,
            "tables": len(snapshot.corpus) if snapshot is not None else 0,
            "staleness": self.staleness(),
        }
