"""The :class:`DiscoveryEngine`: a stateful, serving-oriented facade.

One engine owns the expensive shared state of goal-oriented discovery —
an optional persistent :class:`~repro.catalog.Catalog`, the corpus, the
warm discovery index, prepared-candidate caches, and the searcher/task/
scenario registries — and serves many :class:`DiscoveryRequest`s against
it::

    engine = DiscoveryEngine.open("my_catalog").attach_corpus(corpus)
    run = engine.discover(DiscoveryRequest(base=din, task=task,
                                           searcher="metam",
                                           config=MetamConfig(theta=0.8)))
    print(run.result.summary())

``discover`` is thread-safe and synchronous — it is the engine's only
way to serve a request; :class:`~repro.server.DiscoveryService` runs it
on its own workers when callers need queueing, fairness or
non-blocking submission.  Every engine cache is an
:class:`~repro.utils.lru.LruDict` read through its single-flight slot:
the first request for a ``(base content, spec, seed, registry, corpus
epoch)`` key prepares it, concurrent requests for the same key wait
and share the result, and requests for *disjoint* keys prepare fully
in parallel (catalog mutations are serialized internally, and the
on-disk store is concurrency-safe in its own right).  Each run gets its
own searcher, query accounting, and RNG — so N callers can serve
requests against one warm engine concurrently.

An optional in-memory result cache (``result_cache_bytes``) serves
repeated identical requests from their recorded runs without
re-searching; it lives as long as the engine, and the catalog store
never holds run records.  A cacheable request that misses while an
identical one is executing waits for that owner and replays its
recorded run instead of searching twice.
Independently of that cache, runs on the same base table and built-in
task share every task fit they have in common (the utility memo): one
fit of the base utility ``u(Din)`` engine-wide, and one fit of each
augmentation set per prepared candidate set; a run that misses on a
utility another run is fitting waits for that fit.  Each run is still
charged the query.  METAM runs on a prepared set likewise share its
CLUSTER-PARTITION: one ε-cover per ``(ε, first center)`` (the partition
memo).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import operator
import threading
import time
from dataclasses import replace
from functools import partial

from repro.api.events import (
    AugmentationAccepted,
    CancellationToken,
    CandidatesPrepared,
    QueryIssued,
    RoundCompleted,
    RunCancelled,
    RunCompleted,
    RunStarted,
)
from repro.api.errors import InvalidRequest
from repro.api.registries import default_searchers, default_tasks
from repro.api.request import CandidateSpec, DiscoveryRequest
from repro.api.run import DiscoveryRun
from repro.catalog import Catalog
from repro.catalog.store import register_store_metrics
from repro.catalog.fingerprint import registry_fingerprint, table_fingerprint
from repro.core.clustering import draw_first_center, greedy_cover
from repro.core.metam import Metam
from repro.dataframe.table import Table, normalize_corpus
from repro.discovery.candidates import (
    Candidate,
    generate_candidates,
    materialize_candidates,
    profile_candidates,
)
from repro.discovery.index import DiscoveryIndex
from repro.discovery.unions import find_union_candidates
from repro.obs.logcfg import get_logger, log_context
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer, mark, span
from repro.profiles.registry import default_registry
from repro.tasks.base import Task, content_key
from repro.utils.lru import LruDict
from repro.utils.validation import check_positive_int

_log = get_logger(__name__)


#: Entries the utility memo keeps per prepared candidate set (LRU-evicted
#: beyond it).  An entry is one float under a (base digest, task-key
#: digest, frozenset of aug ids) key, about 0.5 KB for the small sets a
#: search charges, so a full set's memo is ~0.5 MB and the default 32
#: prepared sets hold ~16 MB at most.
SET_UTILITY_MEMO_ENTRIES = 1024

#: ε-covers the partition memo keeps per prepared candidate set
#: (LRU-evicted beyond it).  A cover is keyed (ε, first center), so one ε
#: needs at most one entry per candidate.  An entry is the cover's index
#: arrays — about 16 bytes per candidate plus 16 per cluster, ~3 KB at 80
#: candidates — and the set's entries share one read-only profile matrix.
PARTITION_MEMO_ENTRIES = 128


def _table_digest(table: Table) -> str:
    """Content fingerprint of ``table``, kept with the (immutable) table
    so a request's cache keys hash its base once per object."""
    return table.derived(("fingerprint",), partial(table_fingerprint, table))


class EngineStateError(RuntimeError):
    """The engine is missing state a call needs (usually a corpus)."""


class _PreparedSet:
    """One prepared candidate set, the utilities of the augmentation sets
    charged on it and the ε-covers METAM drew on it.  The memos live and
    die with the set: eviction, ``attach_corpus`` or a re-prepare starts
    a new, empty one."""

    __slots__ = ("candidates", "utilities", "partitions", "_profiles")

    def __init__(self, candidates: list):
        self.candidates = candidates
        self.utilities = LruDict(capacity=SET_UTILITY_MEMO_ENTRIES)
        self.partitions = LruDict(capacity=PARTITION_MEMO_ENTRIES)
        self._profiles = None

    def profiles(self, vectors):
        """The set's profile matrix, read-only, for its memoized covers to
        share: adopted from the first run that clusters the set (every
        run's matrix is built from the same candidates, so all are
        equal).  Two first runs racing may each keep their own copy."""
        if self._profiles is None:
            profiles = vectors.copy()
            profiles.flags.writeable = False
            self._profiles = profiles
        return self._profiles


class DiscoveryEngine:
    """Serves goal-oriented discovery requests over one corpus + catalog.

    Parameters
    ----------
    corpus:
        Repository tables (dict by name, or an iterable of Tables); may
        also be attached later with :meth:`attach_corpus`.
    catalog:
        Optional persistent :class:`~repro.catalog.Catalog` — switches
        candidate preparation to warm-start mode (incremental refresh +
        profile-vector cache).
    max_prepared_sets:
        Bound on cached prepared-candidate sets (LRU-evicted beyond it;
        ``None`` disables eviction).  A long-lived serving engine sees
        many (base, spec, seed) combinations, and each set holds every
        candidate's materialized values — without a bound the cache
        grows with the request history instead of the working set.
        A set prepared under a corpus that ``attach_corpus`` replaced
        meanwhile is unreachable (its key carries the old corpus epoch)
        and ages out like any other entry.  The same bound caps the
        utility memo's ``u(Din)`` entries (one float per base table and
        task); each prepared set carries its own memo of augmented-set
        utilities, capped at ``SET_UTILITY_MEMO_ENTRIES``.
    max_workers:
        Runs the service executes concurrently on this engine (a
        per-catalog setting, read by
        :class:`~repro.server.DiscoveryService`; direct ``discover``
        callers bring their own threads).
    result_cache_bytes:
        Byte budget of the engine-level result cache (measured as the
        JSON run-record size, LRU-evicted).  ``0``/``None`` (default)
        disables it.  Cached runs are exact replays — the recorded
        result, events, and timings — keyed by a canonical request
        fingerprint, and the cache is invalidated whenever the corpus
        or catalog content changes.  Must be ``None`` or an int (not a
        ``bool``), like ``max_prepared_sets``.
    metrics:
        Telemetry registry: ``None`` (default) gives the engine its own
        private :class:`~repro.obs.MetricsRegistry`; pass a registry to
        share one across engines (the service passes its own).  The
        attached catalog store records into the same registry, and
        :meth:`stats` reads its serving counters from it.

    ``engine.searchers`` / ``engine.tasks`` carry every built-in; register
    on them to plug in strategies without touching core code.  Requests
    without a ``registry`` profile with the default one.  Every live run
    records a trace tree (request → prepare → per-round query
    evaluation) into its :class:`DiscoveryRun`.
    """

    def __init__(
        self,
        corpus=None,
        catalog: Catalog = None,
        max_prepared_sets: int = 32,
        max_workers: int = 4,
        result_cache_bytes: int = None,
        metrics: MetricsRegistry = None,
    ):
        try:
            prepared = LruDict(capacity=max_prepared_sets)
        except ValueError:
            raise ValueError(
                f"max_prepared_sets must be None or an int >= 1, got "
                f"{max_prepared_sets!r}"
            ) from None
        check_positive_int(max_workers, "max_workers")
        if metrics is not None and not isinstance(metrics, MetricsRegistry):
            raise TypeError(
                f"metrics must be None or a MetricsRegistry, got {metrics!r}"
            )
        if result_cache_bytes in (None, 0) and not isinstance(
            result_cache_bytes, (bool, float)
        ):
            results = None  # disabled
        else:
            try:
                results = LruDict(max_bytes=result_cache_bytes)
            except ValueError:
                raise ValueError(
                    "result_cache_bytes (the result cache's max_bytes) must be "
                    f"None, 0 or an int >= 1, got {result_cache_bytes!r}"
                ) from None
        self.catalog = catalog
        self.searchers = default_searchers()
        self.tasks = default_tasks()
        self._profile_registry = None
        self._corpus = None
        self._corpus_epoch = 0
        self._lock = threading.RLock()
        # Catalog mutations (refresh/save, lazy index paging, profile
        # cache construction) stay serialized even though preparation is
        # single-flight per key: the in-memory index is shared mutable
        # state.
        self._catalog_lock = threading.RLock()
        self._prepared = prepared  # prepare key -> _PreparedSet (LRU-bounded)
        #: ``u(Din)`` by (base-table content, task content-key digest),
        #: shared by every run: the unaugmented table is the base itself,
        #: so no corpus, catalog or registry change can move the value.
        self._base_utilities = LruDict(capacity=max_prepared_sets)
        self.max_workers = max_workers
        #: Result-cache key -> (catalog mutation count, recorded run).
        self._results = results
        self._run_ids = itertools.count(1)  # next() is atomic
        registry = metrics if metrics is not None else MetricsRegistry()
        self._init_metrics(registry)
        self.tracer = Tracer()
        if self.catalog is not None and self.catalog.store is not None:
            self.catalog.store.attach_metrics(registry)
        if corpus is not None:
            self.attach_corpus(corpus)

    def _init_metrics(self, registry) -> None:
        """Register (get-or-create) every engine family on ``registry``,
        plus the store families — so a metrics snapshot names the full
        catalog of series even before a catalog is attached.  Every child
        the serving path writes is resolved here, once (zero shows as
        zero): label-less families as their one child, labeled counters
        as ``{label value: child}`` maps.  The two histograms labeled by
        status or source grow a series at its first observation."""
        self.metrics = registry

        def events(name, help_text, values=("hit", "miss")):
            family = registry.counter(name, help_text, labels=("event",))
            return {event: family.labels(event=event) for event in values}

        self._m_runs_started = registry.counter(
            "repro_engine_runs_started_total",
            "Runs started, live executions and cache replays alike.",
        ).labels()
        runs = registry.counter(
            "repro_engine_runs_total",
            "Runs finished, by terminal status.",
            labels=("status",),
        )
        self._m_runs = {
            status: runs.labels(status=status)
            for status in ("completed", "cancelled", "failed")
        }
        self._m_queries = registry.counter(
            "repro_engine_queries_served_total",
            "Utility queries charged across all served runs.",
        ).labels()
        self._m_result_cache = events(
            "repro_engine_result_cache_events_total",
            "Result-cache activity (a spill admits a completed run).",
            ("hit", "miss", "spill"),
        )
        self._m_prepare_cache = events(
            "repro_engine_prepare_cache_events_total",
            "Prepared-candidate cache activity.",
        )
        self._m_base_utility = events(
            "repro_engine_base_utility_events_total",
            "Base-utility memo activity (a hit skips one task fit).",
        )
        self._m_set_utility = events(
            "repro_engine_set_utility_events_total",
            "Utility-memo activity on augmented sets (a hit skips one task fit).",
        )
        self._m_partition = events(
            "repro_engine_partition_events_total",
            "Partition-memo activity (a hit skips one CLUSTER-PARTITION).",
        )
        self._m_prepared_sets = registry.gauge(
            "repro_engine_prepared_sets",
            "Prepared-candidate sets resident in the LRU cache.",
        ).labels()
        self._m_cache_entries = registry.gauge(
            "repro_engine_result_cache_entries",
            "Recorded runs resident in the result cache.",
        ).labels()
        self._m_cache_bytes = registry.gauge(
            "repro_engine_result_cache_bytes",
            "Result-cache footprint (JSON run-record bytes).",
        ).labels()
        self._m_cache_reserved = registry.gauge(
            "repro_engine_result_cache_reserved",
            "In-flight reservations of result-cache slots.",
        ).labels()
        self._m_run_seconds = registry.histogram(
            "repro_engine_run_seconds",
            "End-to-end wall time of live runs, by terminal status.",
            labels=("status",),
        )
        self._m_prepare_seconds = registry.histogram(
            "repro_engine_prepare_seconds",
            "Candidate-preparation wall time, by provenance.",
            labels=("source",),
        )
        self._m_search_seconds = registry.histogram(
            "repro_engine_search_seconds",
            "Searcher wall time of live runs.",
        ).labels()
        self._m_run_rounds = registry.histogram(
            "repro_engine_run_rounds",
            "Search rounds per live run.",
            buckets=(1, 2, 3, 5, 8, 13, 21, 34, 55, 89),
        ).labels()
        self._m_round_gain = registry.histogram(
            "repro_engine_round_utility_gain",
            "Utility gained per completed search round.",
            buckets=(0.0, 0.01, 0.02, 0.05, 0.1, 0.15, 0.25, 0.5, 0.75, 1.0),
        ).labels()
        # Pre-register the families instrumented layers record into.
        register_store_metrics(registry)

    # ------------------------------------------------------------------
    # Construction / state
    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls,
        catalog_dir,
        corpus=None,
        create: bool = True,
        **config,
    ) -> "DiscoveryEngine":
        """Engine backed by the persistent catalog at ``catalog_dir``.

        ``create=True`` (default) creates the catalog when none exists
        (``config`` — the :class:`~repro.catalog.Catalog` parameters —
        applies only then); ``create=False`` requires a saved catalog
        and raises :class:`~repro.catalog.CatalogStoreError` otherwise.
        ``corpus`` is attached when given.
        """
        from repro.catalog.store import CatalogStore

        root = (
            catalog_dir
            if isinstance(catalog_dir, CatalogStore)
            else CatalogStore(catalog_dir)
        )
        if create:
            catalog = Catalog.open(root, **config)
        else:
            catalog = Catalog.load(root)
        return cls(corpus=corpus, catalog=catalog)

    def attach_corpus(self, corpus) -> "DiscoveryEngine":
        """Attach (or replace) the repository; returns ``self``.

        Accepts a ``{name: Table}`` dict or an iterable of Tables.
        Replacing the corpus drops the prepared-candidate cache, and with
        it the utility memo of every augmented set — cached candidate
        sets are only valid for the corpus they were built on.
        """
        normalized = normalize_corpus(corpus)
        with self._lock:
            self._corpus = normalized
            self._corpus_epoch += 1
            self._prepared.clear()
            self._invalidate_results()
        return self

    def shutdown(self) -> None:
        """A no-op: the engine serves on its callers' threads and holds
        nothing to release.  Kept so ``with DiscoveryEngine(...)`` and
        existing ``shutdown()`` calls keep working."""

    def __enter__(self) -> "DiscoveryEngine":
        return self

    def __exit__(self, *exc_info):
        return False

    @property
    def corpus(self) -> dict:
        """The attached repository (raises until :meth:`attach_corpus`)."""
        if self._corpus is None:
            raise EngineStateError(
                "no corpus attached; call engine.attach_corpus(corpus) first"
            )
        return self._corpus

    def profile_registry(self):
        """The engine's default profile registry (built lazily)."""
        with self._lock:
            if self._profile_registry is None:
                self._profile_registry = default_registry()
            return self._profile_registry

    # ------------------------------------------------------------------
    # Candidate preparation (single-flight per key, cached)
    # ------------------------------------------------------------------
    def prepare(
        self,
        base: Table,
        spec: CandidateSpec = None,
        registry=None,
        seed: int = 0,
    ) -> list:
        """Discovery + materialization + profiling for one base table.

        Returns profiled :class:`~repro.discovery.candidates.Candidate`
        objects — the common input of METAM and every baseline.  Results
        are cached by (base content, spec, seed, profile registry, corpus
        epoch), and preparation is single-flight per key: concurrent
        requests for the same key share one preparation, while disjoint
        keys prepare in parallel (catalog mutations are serialized
        internally, and the catalog store's own writes are
        concurrency-safe).
        """
        prepared, _from_cache, _corpus = self._prepare_cached(
            base, spec, registry, seed
        )
        return list(prepared.candidates)

    def _prepare_cached(
        self, base, spec, registry, seed,
        base_fingerprint=None, registry_fp=None,
    ):
        """Single-flight prepare.

        Returns ``(prepared, from_cache, corpus)``: the
        :class:`_PreparedSet` and the corpus snapshot its candidates
        were prepared from, taken with the corpus epoch that keys them,
        so callers run their searcher against exactly the tables the
        candidates reference even if ``attach_corpus`` races (a prepare
        that overlaps a corpus swap lands under the old epoch, where no
        request of the new corpus looks).

        ``base_fingerprint``/``registry_fp`` let callers that already
        fingerprinted those inputs (the result-cache path) skip the
        second hash of each.
        """
        spec = spec or CandidateSpec()
        registry = registry if registry is not None else self.profile_registry()
        with self._lock:
            corpus, epoch = self.corpus, self._corpus_epoch
        key = (
            base_fingerprint or _table_digest(base),
            spec,
            int(seed),
            registry_fp or registry_fingerprint(registry),
            epoch,
        )
        with self._prepared.single_flight(key) as slot:
            if slot.hit:
                self._m_prepare_cache["hit"].inc()
                return slot.value, True, corpus
            self._m_prepare_cache["miss"].inc()
            prepared = _PreparedSet(
                self._prepare_uncached(base, spec, registry, seed, corpus)
            )
            slot.store(prepared)
            return prepared, False, corpus

    def _prepare_uncached(self, base, spec, registry, seed, corpus) -> list:
        """The discovery front-end: index (or catalog) → join paths →
        materialise → profile.  Warm and cold paths are byte-identical.

        Runs outside the engine lock.  With a catalog attached, the
        catalog-touching section (refresh/save, index queries with their
        lazy entry paging, profile-cache construction) holds the
        engine's catalog lock; materialization and profiling — the
        dominant cost — run in parallel across keys either way."""
        cache = None
        if self.catalog is not None:
            with self._catalog_lock:
                catalog = self.catalog
                overridden = []
                if catalog.config["min_containment"] != spec.min_containment:
                    overridden.append(
                        f"min_containment={catalog.config['min_containment']} "
                        f"(requested {spec.min_containment})"
                    )
                if catalog.config["seed"] != seed:
                    overridden.append(
                        f"index seed={catalog.config['seed']} (requested {seed}; "
                        f"the requested seed still governs profile sampling)"
                    )
                if overridden:
                    import warnings

                    warnings.warn(
                        "catalog config overrides the requested values for "
                        "discovery in warm-start mode: " + ", ".join(overridden),
                        stacklevel=3,
                    )
                diff = catalog.refresh(corpus)
                if diff.changed:
                    # Changed catalog content means previously recorded
                    # results may no longer reproduce.
                    self._invalidate_results()
                if (
                    catalog.store is not None
                    and (diff.added or diff.updated)
                    and not catalog.removed_since_save
                ):
                    # Keep the on-disk manifest/snapshot current, so the
                    # next process warm-starts from the packed snapshot.
                    # Only additive changes are persisted implicitly: a
                    # partial corpus must not silently shrink the saved
                    # catalog.
                    catalog.save()
                cache = catalog.profile_cache(
                    base, registry, sample_size=spec.sample_size, seed=seed
                )
                augmentations = generate_candidates(
                    base,
                    catalog.index,
                    max_hops=spec.max_hops,
                    max_fanout=spec.max_fanout,
                )
        else:
            index = DiscoveryIndex(
                min_containment=spec.min_containment, seed=seed
            )
            index.build(corpus.values())
            augmentations = generate_candidates(
                base, index, max_hops=spec.max_hops, max_fanout=spec.max_fanout
            )
        candidates = materialize_candidates(base, augmentations, corpus)
        if spec.include_unions:
            for union in find_union_candidates(
                base, corpus, min_shared=spec.min_union_shared
            ):
                candidates.append(
                    Candidate(
                        aug=union,
                        values=union.materialize(base, corpus),
                        overlap=union.shared_fraction,
                    )
                )
        return profile_candidates(
            candidates,
            base,
            corpus,
            registry,
            sample_size=spec.sample_size,
            seed=seed,
            cache=cache,
        )

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def discover(
        self,
        request: DiscoveryRequest,
        progress=None,
        cancel: CancellationToken = None,
    ) -> DiscoveryRun:
        """Serve one request; returns the completed :class:`DiscoveryRun`.

        ``progress`` (a callable taking one
        :class:`~repro.api.events.RunEvent`) streams every event as it
        happens; ``cancel`` stops the run cooperatively at its next
        utility query (the run then finishes with status
        ``"cancelled"`` and ``result=None``).

        With the result cache enabled, a request identical to a
        previously completed one is served as an exact replay: the
        recorded run comes back under a fresh ``run_id`` with
        ``cached=True``, and its recorded events are re-streamed to
        ``progress`` (they carry the original run's id).  A cacheable
        request that misses while an identical run is executing waits
        for that run and replays it; only when the owner fails or is
        cancelled does it search on its own.
        """
        task = self._resolve_task(request)
        factory = self.searchers.get(request.searcher)  # fail before any work
        self.corpus  # fail fast when none is attached
        cache_key = self._result_cache_key(request)
        if cache_key is None or (cancel is not None and cancel.cancelled):
            # An already-cancelled token must yield a cancelled run, not
            # a completed replay (the run stops at its first query).
            return self._run_live(request, task, factory, progress, cancel)[0]
        with self._results.single_flight(cache_key) as slot:
            if cancel is not None and cancel.cancelled:  # while waiting
                return self._run_live(request, task, factory, progress, cancel)[0]
            # A hit recorded under another catalog mutation count is a
            # miss: out-of-band catalog changes (engine.catalog.add/...)
            # shift the count.
            if slot.hit and slot.value[0] == self._catalog_mutations():
                return self._replay(slot.value[1], request, progress)
            self._m_result_cache["miss"].inc()
            run, mutations = self._run_live(
                request, task, factory, progress, cancel, cache_key
            )
            if run.completed:
                # Size by the JSON run record — the serializable
                # footprint the LRU budget is defined over.  The key
                # embeds the corpus epoch this run was requested under,
                # so a run that raced attach_corpus lands where no
                # request of the new corpus looks.
                size = len(json.dumps(run.to_record()).encode("utf-8"))
                slot.store((mutations, run), size=size)
                self._m_result_cache["spill"].inc()
            return run

    def _run_live(self, request, task, factory, progress, cancel, cache_key=None):
        """Execute one traced run; returns ``(run, catalog mutation
        count stamped after its prepare)``, the count ``None`` for an
        uncacheable run (no ``cache_key``)."""
        run_id = next(self._run_ids)
        self._m_runs_started.inc()
        try:
            with self.tracer.trace(
                "discover",
                run_id=run_id,
                searcher=request.searcher,
                task=request.task_name(),
                base=request.base.name,
            ) as trace_root:
                # Ambient run/searcher fields: every log line emitted below
                # this frame (query engine, tasks, catalog) carries them.
                with log_context(run_id=run_id, searcher=request.searcher):
                    run, mutations = self._serve(
                        request, task, factory, run_id, progress, cancel,
                        cache_key,
                    )
        except BaseException:
            # Anything that escapes (bad searcher options, a task that
            # raises, a progress callback bug) still balances the books.
            self._m_runs["failed"].inc()
            raise
        _log.debug(
            "run served",
            run_id=run_id,
            searcher=request.searcher,
            status=run.status,
            utility=run.utility,
            queries=run.queries,
            prepare_seconds=round(run.prepare_seconds, 6),
            search_seconds=round(run.search_seconds, 6),
        )
        return replace(run, trace=trace_root.to_record()), mutations

    def _replay(self, hit: DiscoveryRun, request, progress):
        """Serve a recorded run as an exact replay (fresh ``run_id``,
        ``cached=True``, recorded events re-streamed to ``progress``)."""
        run_id = next(self._run_ids)
        self._m_runs_started.inc()
        try:
            if progress is not None:
                for event in hit.events:
                    progress(event)
        except BaseException:
            # A progress callback bug during a replay still balances the
            # books, exactly like a live run's.
            self._m_runs["failed"].inc()
            raise
        self._m_runs["completed"].inc()
        self._m_result_cache["hit"].inc()
        # The replayed result's queries count as served: accounting
        # stays comparable whether a run executed or replayed.
        self._m_queries.inc(hit.queries)
        _log.debug(
            "run replayed from result cache",
            run_id=run_id,
            searcher=request.searcher,
            original_run_id=hit.run_id,
        )
        return replace(
            hit,
            run_id=run_id,
            request=request,
            events=list(hit.events),
            cached=True,
            cache_info={**hit.cache_info, "result_cache_hit": True},
        )

    def _catalog_mutations(self) -> int:
        """The attached catalog's structural mutation count (``-1``
        without one) — the cache-key component that makes entries
        recorded before any catalog change unreachable."""
        return self.catalog.mutations if self.catalog is not None else -1

    def _result_cache_key(self, request: DiscoveryRequest):
        """Result-cache key for ``request``, or ``None`` when uncacheable
        (cache disabled, candidates supplied, task given as an object, or
        options without a canonical form).

        The key embeds the current corpus epoch: entries recorded under
        a previous corpus are unreachable by construction, so a run that
        races an ``attach_corpus`` can never be replayed against the new
        corpus (the explicit clear then just reclaims the memory).  The
        catalog mutation count is not part of the key but of the entry:
        a run's own prepare may legitimately refresh the catalog, so the
        count is stamped after it."""
        if self._results is None:
            return None
        descriptor = request.cache_descriptor()
        if descriptor is None:
            return None
        registry = (
            request.registry
            if request.registry is not None
            else self.profile_registry()
        )
        return (
            _table_digest(request.base),
            # Registry fingerprints are deliberately not memoized:
            # ProfileRegistry mutates in place (``add``/``remove``).
            registry_fingerprint(registry),
            descriptor,
            self._corpus_epoch,
            # Re-registering a searcher or task under the same name
            # (overwrite=True) must not replay runs of the old factory.
            self.searchers.mutations,
            self.tasks.mutations,
        )

    def _invalidate_results(self) -> None:
        """Drop every cached run (corpus or catalog content changed)."""
        if self._results is not None:
            self._results.clear()

    def _serve(
        self, request, task, factory, run_id, progress, cancel, cache_key,
    ):
        events = []

        def emit(event):
            events.append(event)
            if progress is not None:
                progress(event)

        emit(
            RunStarted(
                run_id=run_id,
                searcher=request.searcher,
                base_table=request.base.name,
                task=request.task_name(),
            )
        )

        # The corpus snapshot travels with the candidates: prepared runs
        # use the snapshot their prepare key's epoch names, so a concurrent
        # attach_corpus() can never pair one corpus's candidates with
        # another corpus's tables.
        start = time.perf_counter()
        with span("prepare"):
            if request.candidates is not None:
                # Request-supplied candidates have no prepared set, so
                # their augmented sets are never memoized.
                candidates = list(request.candidates)
                prepared = None
                source = "request"
                corpus = self.corpus
            else:
                prepare_seed = (
                    request.seed
                    if request.prepare_seed is None
                    else request.prepare_seed
                )
                prepared, from_cache, corpus = self._prepare_cached(
                    request.base,
                    request.spec,
                    request.registry,
                    prepare_seed,
                    # The cache key leads with the base-table and
                    # registry fingerprints: hash each input once.
                    base_fingerprint=cache_key and cache_key[0],
                    registry_fp=cache_key and cache_key[1],
                )
                candidates = list(prepared.candidates)
                source = "cache" if from_cache else "prepared"
        mutations = None
        if cache_key is not None:
            # Stamp the catalog state the run's inputs reflect *before*
            # the search: a catalog mutated while the search runs must
            # not get this run replayed under the post-mutation count.
            with self._catalog_lock:
                mutations = self._catalog_mutations()
        prepare_seconds = time.perf_counter() - start
        self._m_prepare_seconds.labels(source=source).observe(prepare_seconds)
        emit(
            CandidatesPrepared(
                n_candidates=len(candidates),
                source=source,
                seconds=prepare_seconds,
            )
        )

        searcher = factory(
            candidates,
            request.base,
            corpus,
            task,
            theta=request.theta,
            query_budget=request.query_budget,
            seed=request.seed,
            config=request.config,
            **request.options,
        )
        rounds_box = [0]
        self._attach_hooks(searcher, emit, cancel, rounds_box, prepared, corpus)

        start = time.perf_counter()
        status = "completed"
        result = None
        try:
            with span("search", n_candidates=len(candidates)):
                result = searcher.run()
            # Label the result with the name it was requested under: an
            # ablation such as ``eq`` runs METAM's class, which calls
            # itself ``metam``.
            result = replace(result, searcher=request.searcher)
        except RunCancelled:
            status = "cancelled"
        search_seconds = time.perf_counter() - start

        query_engine = getattr(searcher, "engine", None)
        queries = query_engine.queries if query_engine is not None else 0
        emit(
            RunCompleted(
                status=status,
                utility=result.utility if result is not None else 0.0,
                queries=result.queries if result is not None else queries,
                seconds=search_seconds,
            )
        )
        self._m_queries.inc(queries)
        self._m_runs[status].inc()
        self._m_run_seconds.labels(status=status).observe(
            prepare_seconds + search_seconds
        )
        self._m_search_seconds.observe(search_seconds)
        if rounds_box[0]:
            self._m_run_rounds.observe(rounds_box[0])
        run = DiscoveryRun(
            run_id=run_id,
            request=request,
            status=status,
            result=result,
            events=events,
            n_candidates=len(candidates),
            candidate_source=source,
            prepare_seconds=prepare_seconds,
            search_seconds=search_seconds,
            cache_info={
                "prepare_source": source,
                "prepare_cache_hit": source == "cache",
                "result_cache_hit": False,
            },
        )
        return run, mutations

    def _resolve_task(self, request: DiscoveryRequest) -> Task:
        if isinstance(request.task, str):
            try:
                return self.tasks.create(request.task, **request.task_options)
            except (TypeError, ValueError) as error:
                raise InvalidRequest(
                    f"task {request.task!r} rejects its task_options: "
                    f"{type(error).__name__}: {error}",
                    details={"field": "task_options"},
                ) from error
        if request.task_options:
            raise ValueError(
                "task_options only apply when the task is given by name"
            )
        return request.task

    def _utility_key(self, query_engine):
        """Memo key prefix of the run's queries: (base-table content
        digest, task content-key digest), or ``None`` when the task has
        no content key.  Each run builds its own task key, so entries
        hold a fixed-size digest of it rather than the nested tuple."""
        task_key = content_key(getattr(query_engine, "task", None))
        base = getattr(query_engine, "base", None)
        if task_key is None or not isinstance(base, Table):
            return None
        task_digest = hashlib.blake2b(
            repr(task_key).encode("utf-8"), digest_size=16
        ).hexdigest()
        return (_table_digest(base), task_digest)

    def _attach_hooks(self, searcher, emit, cancel, rounds_box, prepared, corpus) -> None:
        """Wire the run's event stream, once, into the searcher its
        factory has just built; nothing is chained or restored.  A
        searcher that arrives wired (its factory set an observer, or it
        served an earlier run and holds that run's query engine) fails
        with a :class:`TypeError` naming the attribute.

        For a task with a content key, ``evaluate`` serves utilities
        from the utility memo: ``u(Din)`` from the engine-wide memo, and
        an augmented set from the memo of ``prepared`` (the run's
        prepared candidate set; ``None`` for request-supplied
        candidates, which are never memoized).  The query is still
        charged, so budgets, traces and events are those of a fresh
        engine.

        A plain :class:`~repro.core.metam.Metam` over ``prepared``'s own
        candidates has its CLUSTER-PARTITION served from the set's
        partition memo (:meth:`_memo_partition`); plug-in searcher
        classes, a ``partition`` the factory chose and request-supplied
        candidates cluster as usual.
        """
        query_engine = getattr(searcher, "engine", None)
        hooks = ("pre_query", "on_query", "on_accept", "evaluate")
        wired = [name for name in hooks if getattr(query_engine, name, None) is not None]
        if getattr(searcher, "__dict__", {}).get("on_round") is not None:
            wired.append("on_round")
        if wired:
            raise TypeError(
                f"{type(searcher).__name__} arrived with {', '.join(wired)} "
                "already set; a searcher factory must return a new, unwired "
                "searcher for every run"
            )
        if query_engine is not None:
            memo_key = self._utility_key(query_engine)
            if memo_key is not None:
                # Augmented tables are built from the corpus the query
                # engine holds; only over the set's own corpus snapshot
                # is a set's utility a function of the memo key.
                set_memo = (
                    prepared.utilities
                    if prepared is not None
                    and getattr(query_engine, "corpus", None) is corpus
                    else None
                )

                def evaluate(aug_ids, compute):
                    if not aug_ids:
                        memo, counter, key = (
                            self._base_utilities, self._m_base_utility, memo_key
                        )
                    elif set_memo is None:
                        return compute()
                    else:
                        memo, counter, key = (
                            set_memo, self._m_set_utility, memo_key + (aug_ids,)
                        )
                    # A fit that raises (or is cancelled) stores nothing,
                    # and the next caller for the key fits instead.
                    with memo.single_flight(key) as slot:
                        if slot.hit:
                            counter["hit"].inc()
                            return slot.value
                        counter["miss"].inc()
                        value = float(compute())
                        slot.store(value)
                        return value

                query_engine.evaluate = evaluate
            if cancel is not None:
                query_engine.pre_query = cancel.raise_if_cancelled

            def on_query(index, value, best):
                mark("query", index=index, utility=value, best=best)
                emit(QueryIssued(query_index=index, utility=value, best_utility=best))

            query_engine.on_query = on_query
            query_engine.on_accept = lambda aug_id, utility, n_selected: emit(
                AugmentationAccepted(aug_id=aug_id, utility=utility, n_selected=n_selected)
            )
        if hasattr(searcher, "on_round"):
            prev_utility = [None]

            def on_round(index, utility, queries, committed):
                prev = prev_utility[0]
                if prev is None and query_engine is not None:
                    # The base (unaugmented) utility is the first query
                    # every searcher issues, so it is always cached by
                    # round one — the natural zero of per-round gain.
                    prev = query_engine.cached_utility(frozenset())
                if prev is not None:
                    self._m_round_gain.observe(max(0.0, utility - prev))
                prev_utility[0] = utility
                rounds_box[0] = index
                fields = dict(utility=utility, queries=queries, committed=committed)
                mark("round", index=index, **fields)
                emit(RoundCompleted(round_index=index, **fields))

            searcher.on_round = on_round
        if (
            prepared is not None
            and type(searcher) is Metam
            and "partition" not in searcher.__dict__
            and len(searcher.candidates) == len(prepared.candidates)
            and all(map(operator.is_, searcher.candidates, prepared.candidates))
        ):
            # Only over the set's own candidates, in the set's order, is
            # the cover a function of (ε, first center).
            searcher.partition = partial(self._memo_partition, prepared)

    def _memo_partition(self, prepared, vectors, epsilon, seed=None):
        """CLUSTER-PARTITION through ``prepared``'s partition memo: the
        first center is drawn from the run's generator exactly as
        :func:`~repro.core.clustering.cluster_partition` draws it, and the
        cover from that center is computed once per ``(ε, center)``.  A
        cover that raises stores nothing."""
        vectors, start = draw_first_center(vectors, epsilon, seed)
        with prepared.partitions.single_flight((epsilon, start)) as slot:
            if slot.hit:
                self._m_partition["hit"].inc()
                return slot.value
            self._m_partition["miss"].inc()
            clusters = greedy_cover(prepared.profiles(vectors), epsilon, start)
            slot.store(clusters)
            return clusters

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def corpus_stats(self, seed: int = 0) -> dict:
        """Table-I corpus characteristics.

        Served from the catalog's disk artifacts when one is attached
        (the stored config's seed applies); otherwise computed from the
        live corpus with a transient index seeded by ``seed``.  Both run
        :meth:`DiscoveryIndex.joinable_columns`, so they agree.
        """
        if self.catalog is not None and self.catalog.store is not None:
            # A corrupt object heals through the catalog — shared
            # mutable state, serialized against concurrent prepares.
            with self._catalog_lock:
                return self.catalog.corpus_stats()
        from repro.data import corpus_characteristics

        corpus = list(self.corpus.values())
        index = DiscoveryIndex(min_containment=0.3, seed=seed).build(corpus)
        return corpus_characteristics(corpus, index)

    def _refresh_gauges(self) -> None:
        """Bring the derived gauges (cache occupancy, reservations) up to
        date with the engine's live state — counters and histograms are
        written at the event sites and never need this."""
        results = self._results if self._results is not None else LruDict()
        self._m_prepared_sets.set(len(self._prepared))
        self._m_cache_entries.set(len(results))
        self._m_cache_bytes.set(results.total_bytes)
        self._m_cache_reserved.set(results.in_flight)

    def stats(self) -> dict:
        """Engine-level serving statistics (registry-backed)."""
        self._refresh_gauges()
        results = self._results if self._results is not None else LruDict()

        def rate(hits, misses):
            return hits / (hits + misses) if hits + misses else 0.0

        result_hits = int(self._m_result_cache["hit"].value)
        result_misses = int(self._m_result_cache["miss"].value)
        prepare_hits = int(self._m_prepare_cache["hit"].value)
        prepare_misses = int(self._m_prepare_cache["miss"].value)
        base_hits = int(self._m_base_utility["hit"].value)
        base_misses = int(self._m_base_utility["miss"].value)
        set_hits = int(self._m_set_utility["hit"].value)
        set_misses = int(self._m_set_utility["miss"].value)
        partition_hits = int(self._m_partition["hit"].value)
        partition_misses = int(self._m_partition["miss"].value)
        prepared_sets = self._prepared.values()
        out = {
            "runs_started": int(self._m_runs_started.value),
            "runs_completed": int(self._m_runs["completed"].value),
            "runs_cancelled": int(self._m_runs["cancelled"].value),
            "runs_failed": int(self._m_runs["failed"].value),
            "queries_served": int(self._m_queries.value),
            "prepared_candidate_sets": len(self._prepared),
            "active_prepares": self._prepared.in_flight,
            "prepare_cache_hits": prepare_hits,
            "prepare_cache_misses": prepare_misses,
            "prepare_cache_hit_rate": rate(prepare_hits, prepare_misses),
            "base_utility_hits": base_hits,
            "base_utility_misses": base_misses,
            "set_utility_hits": set_hits,
            "set_utility_misses": set_misses,
            "set_utility_entries": sum(
                len(prepared.utilities) for prepared in prepared_sets
            ),
            "partition_hits": partition_hits,
            "partition_misses": partition_misses,
            "partition_entries": sum(
                len(prepared.partitions) for prepared in prepared_sets
            ),
            "result_cache_hits": result_hits,
            "result_cache_misses": result_misses,
            "result_cache_hit_rate": rate(result_hits, result_misses),
            "result_cache_entries": len(results),
            "result_cache_bytes": results.total_bytes,
            "result_cache_reserved": results.in_flight,
            "corpus_tables": len(self._corpus) if self._corpus else 0,
            "searchers": self.searchers.names(),
        }
        # A catalog mid-refresh must not leak a half-applied view into
        # stats.
        if self.catalog is not None:
            with self._catalog_lock:
                out["catalog"] = self.catalog.stats()
        return out

    def metrics_snapshot(self) -> dict:
        """JSON-safe snapshot of every registered metric family (derived
        gauges refreshed first)."""
        self._refresh_gauges()
        return self.metrics.snapshot()

    def metrics_prometheus(self) -> str:
        """Prometheus text exposition of the engine's registry (derived
        gauges refreshed first)."""
        self._refresh_gauges()
        return self.metrics.to_prometheus()
