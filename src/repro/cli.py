"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list-scenarios``
    Show the built-in evaluation scenarios.
``run``
    Run METAM (and optionally baselines) on a scenario and print the
    utility-vs-queries chart; ``--save`` archives results as JSON.
    ``--async`` serves every searcher concurrently through the engine's
    worker pool (identical results, overlapped wall-clock);
    ``--no-result-cache`` disables the engine's result cache.  Ctrl-C
    cancels the comparison cooperatively and exits with status 130.
``stats``
    Run one small discovery twice on a telemetry-instrumented engine
    (store-backed catalog attached, second request served from the
    result cache) and print the engine's metrics in Prometheus text
    exposition format (``--json`` for the JSON snapshot).  ``repro run
    --metrics-out/--trace-out`` capture the same telemetry from a real
    comparison; the top-level ``--log-level``/``--log-json`` flags
    control the structured log stream on stderr.
``serve``
    Serve discovery over HTTP (see :mod:`repro.server`): session
    lifecycle, run submit/status/cancel, typed event streams as SSE,
    and Prometheus ``/metrics`` with per-tenant labels — against a
    built-in scenario (``--scenario``, its pre-configured task
    registered as ``scenario-task``) or a saved catalog directory
    (``--catalog``).  Admission control is on by default: per-tenant
    token buckets (``--tenant-rate``/``--tenant-burst``) and a queue
    budget (``--max-queue-depth``) answer overload with HTTP 429 +
    ``Retry-After``.  Ctrl-C drains gracefully (exit 1 when the drain
    times out).
``corpus-stats``
    Generate a synthetic corpus and print its Table-I characteristics —
    or, with ``--catalog DIR``, serve the report straight from a saved
    catalog's disk artifacts (no corpus generation, no column
    re-signing).
``catalog build|update|stats|gc``
    Maintain a persistent discovery catalog on disk: ``build`` indexes a
    corpus into a catalog directory, ``update`` incrementally refreshes
    it (only new/changed tables are re-signed; run it on whatever
    schedule keeps the catalog fresh enough), ``stats`` reports its
    contents and footprint, and ``gc`` reclaims unreferenced objects
    and (with ``--profile-budget``) evicts least-recently-used cached
    profile groups.
``lint``
    Run reprolint, the repo's invariant-aware static analysis pass
    (see :mod:`repro.analysis`): lock-order inversions and bare
    ``acquire()``, blocking calls under in-process mutexes, raw I/O
    bypassing the store backend, non-atomic writes to durable
    files, and metrics hygiene.  ``--json``/``--json-out`` emit the
    machine-readable report, ``--baseline``/``--update-baseline``
    manage the ratchet-down debt baseline, and ``--check-baseline``
    (CI mode) also fails on stale baseline entries.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading

from repro.api import (
    CancellationToken,
    DiscoveryEngine,
    RunCancelled,
    default_scenarios,
)
from repro.core.config import MetamConfig
from repro.core.plotting import render_traces
from repro.core.runner import compare_searchers, validate_comparison
from repro.core.serialization import save_results
from repro.obs.logcfg import _ensure_default_handler, configure_logging, get_logger

_SCENARIO_REGISTRY = default_scenarios()

#: name -> scenario factory: an import-time snapshot of the built-in
#: scenario registry (kept as a plain dict for backward compatibility).
#: To serve a custom scenario, register it on an engine's ``scenarios``
#: registry and drive discovery through the library API; the CLI's
#: choices are fixed at import.
SCENARIOS = {
    name: _SCENARIO_REGISTRY.get(name) for name in _SCENARIO_REGISTRY.names()
}


#: CLI diagnostics go through the structured "repro" logger: the text
#: formatter keeps the exact ``error: ...`` / ``warning: ...`` stderr
#: shapes the tests (and shell users) expect, while ``--log-json``
#: upgrades the same stream to machine-readable lines for free.
_log = get_logger("cli")


def _error(message: str) -> None:
    _ensure_default_handler()
    _log.error(message)


def _warn(message: str) -> None:
    _ensure_default_handler()
    _log.warning(message)


def _byte_count(text: str) -> int:
    """argparse type for a byte budget: an integer ``>= 0``."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return value


def _table_count(text: str) -> int:
    """argparse type for a corpus size: an integer ``>= 1`` (a
    non-positive count would build, or shrink a catalog to, nothing)."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="METAM: goal-oriented data discovery (ICDE 2023 reproduction)",
    )
    parser.add_argument(
        "--log-level",
        choices=["debug", "info", "warning", "error"],
        default="warning",
        help="threshold for the structured log stream on stderr "
        "(default warning; debug narrates runs, queries, and refresh "
        "cycles)",
    )
    parser.add_argument(
        "--log-json",
        action="store_true",
        help="emit log lines as one JSON object per line instead of "
        "'level: message [k=v ...]' text",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-scenarios", help="list built-in scenarios")

    run = sub.add_parser("run", help="run METAM + baselines on a scenario")
    run.add_argument("scenario", choices=sorted(SCENARIOS))
    run.add_argument("--budget", type=int, default=150, help="query budget")
    run.add_argument("--theta", type=float, default=1.0, help="target utility")
    run.add_argument("--epsilon", type=float, default=0.1, help="cluster radius")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--baselines",
        default="mw,overlap,uniform",
        help="comma-separated baselines to run next to METAM — any "
        "registered searcher except metam itself (built-ins: mw, "
        "overlap, uniform, join_everything, and the ablations eq, nc, "
        "nceq; iarda needs a target column and is library-API only) — "
        "or 'none'",
    )
    run.add_argument("--save", default=None, help="write results JSON here")
    run.add_argument("--no-chart", action="store_true", help="skip ASCII chart")
    run.add_argument(
        "--async",
        dest="use_async",
        action="store_true",
        help="serve METAM and the baselines concurrently through the "
        "engine's worker pool (engine.submit); results are identical to "
        "the sequential path",
    )
    run.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="after the comparison, write the serving engine's metrics "
        "here: Prometheus text exposition format, or a JSON snapshot "
        "when PATH ends in .json",
    )
    run.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="after the comparison, write the engine's recent per-run "
        "trace trees here as a JSON list (one tree per served run: "
        "prepare/search spans with per-round and per-query marks)",
    )
    run.add_argument(
        "--no-result-cache",
        action="store_true",
        help="build the serving engine without its result cache.  The "
        "cache replays repeated identical requests on a long-lived "
        "engine; a single comparison issues each searcher once with "
        "pre-prepared candidates (which bypass the cache by design), "
        "so for 'repro run' itself this only pins down the engine "
        "configuration",
    )

    telemetry = sub.add_parser(
        "stats",
        help="run a small instrumented discovery and print the "
        "engine's metrics (Prometheus text, or --json)",
    )
    telemetry.add_argument(
        "--scenario", choices=sorted(SCENARIOS), default="clustering"
    )
    telemetry.add_argument("--budget", type=int, default=20, help="query budget")
    telemetry.add_argument("--theta", type=float, default=0.6, help="target utility")
    telemetry.add_argument("--seed", type=int, default=0)
    telemetry.add_argument(
        "--json",
        dest="as_json",
        action="store_true",
        help="print the JSON metrics snapshot (quantile estimates "
        "included) instead of Prometheus text",
    )

    serve = sub.add_parser(
        "serve",
        help="serve discovery over HTTP: sessions, run submit/status/"
        "cancel, SSE progress, /metrics (see repro.server)",
    )
    serve.add_argument(
        "--scenario",
        choices=sorted(SCENARIOS),
        default=None,
        help="serve this built-in scenario's corpus (default: "
        "clustering when --catalog is not given); its pre-configured "
        "task is registered as 'scenario-task'",
    )
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--catalog",
        metavar="DIR",
        default=None,
        help="serve a saved catalog directory instead (warm artifacts; "
        "the corpus is regenerated from the catalog's recorded "
        "parameters)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=8765,
        help="TCP port (0 = pick a free ephemeral port; the bound "
        "address is printed on stdout)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=4,
        help="engine worker pool size (= concurrent runs per catalog)",
    )
    serve.add_argument(
        "--max-queue-depth",
        type=int,
        default=32,
        help="undispatched runs held before submissions get 429",
    )
    serve.add_argument(
        "--tenant-rate",
        type=float,
        default=50.0,
        help="per-tenant token-bucket refill, requests/second "
        "(<= 0 disables refill: each tenant gets --tenant-burst "
        "requests ever)",
    )
    serve.add_argument(
        "--tenant-burst",
        type=float,
        default=100.0,
        help="per-tenant token-bucket capacity",
    )
    serve.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="how long a shutdown waits for executing runs to finish",
    )

    stats = sub.add_parser("corpus-stats", help="Table-I style corpus stats")
    stats.add_argument("--tables", type=_table_count, default=100)
    stats.add_argument("--style", choices=["open_data", "kaggle"], default="open_data")
    stats.add_argument("--seed", type=int, default=0)
    stats.add_argument(
        "--catalog",
        default=None,
        metavar="DIR",
        help="serve the report from a saved catalog's disk artifacts "
        "(no corpus generation or column re-signing — a transient LSH "
        "is rebuilt from stored signatures; the corpus flags are "
        "ignored)",
    )
    stats.add_argument(
        "--batch-tables",
        type=int,
        default=None,
        metavar="N",
        help="tables resident per batch during the catalog-backed "
        "joinable pass (bounds peak memory; default 256; 0 = hold "
        "everything in memory, the pre-streaming behavior; only "
        "meaningful with --catalog)",
    )

    catalog = sub.add_parser("catalog", help="persistent discovery catalog")
    catsub = catalog.add_subparsers(dest="catalog_command", required=True)

    build = catsub.add_parser(
        "build", help="index a (synthetic) corpus into a catalog directory"
    )
    build.add_argument("dir", help="catalog directory")
    build.add_argument("--tables", type=_table_count, default=100)
    build.add_argument("--style", choices=["open_data", "kaggle"], default="open_data")
    build.add_argument("--seed", type=int, default=0)
    build.add_argument("--num-perm", type=int, default=64)
    build.add_argument("--bands", type=int, default=16)
    build.add_argument("--min-containment", type=float, default=0.3)

    update = catsub.add_parser(
        "update", help="incrementally refresh a catalog against a corpus"
    )
    update.add_argument("dir", help="catalog directory")
    # Default to the corpus parameters recorded at build time, so a bare
    # 'catalog update DIR' refreshes the same corpus instead of silently
    # regenerating a different one and re-signing everything.
    update.add_argument("--tables", type=_table_count, default=None)
    update.add_argument(
        "--style", choices=["open_data", "kaggle"], default=None
    )
    update.add_argument("--seed", type=int, default=None)
    update.add_argument(
        "--gc", action="store_true", help="drop objects no table references"
    )

    cat_stats = catsub.add_parser("stats", help="catalog contents and footprint")
    cat_stats.add_argument("dir", help="catalog directory")

    gc = catsub.add_parser(
        "gc", help="reclaim unreferenced objects and enforce profile budget"
    )
    gc.add_argument("dir", help="catalog directory")
    gc.add_argument(
        "--profile-budget",
        type=_byte_count,
        default=None,
        metavar="BYTES",
        help="evict least-recently-used cached profile groups until the "
        "profile section fits this many bytes",
    )

    lint = sub.add_parser(
        "lint",
        help="run reprolint, the invariant-aware static analysis pass "
        "(lock discipline, blocking-under-lock, store-VFS boundary, "
        "atomic writes, metrics hygiene)",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: ./src)",
    )
    lint.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable JSON report on stdout",
    )
    lint.add_argument(
        "--json-out",
        metavar="FILE",
        default=None,
        help="also write the JSON report to FILE (the CI artifact)",
    )
    lint.add_argument(
        "--baseline",
        metavar="FILE",
        default=None,
        help="baseline file of accepted pre-existing findings "
        "(default: ./reprolint-baseline.json when present)",
    )
    lint.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline to exactly the current findings "
        "(the only way the baseline grows)",
    )
    lint.add_argument(
        "--check-baseline",
        action="store_true",
        help="also fail on stale baseline entries (fixed findings "
        "whose entries were not removed) — what CI runs",
    )
    lint.add_argument(
        "--select",
        metavar="CHECKS",
        default=None,
        help="comma-separated checker names to run (default: all)",
    )
    lint.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="parallel parse/check workers (default: auto)",
    )
    lint.add_argument(
        "--list-checks",
        action="store_true",
        help="list registered checkers and exit",
    )
    return parser


def _cmd_list(_args) -> int:
    for name in sorted(SCENARIOS):
        factory = SCENARIOS[name]
        doc = (factory.__doc__ or "").strip().splitlines()[0]
        print(f"{name:16s} {doc}")
    return 0


#: Result-cache budget for CLI-built engines (``--no-result-cache`` = 0).
_RESULT_CACHE_BYTES = 8 << 20


def _cancel_on_sigint(token: CancellationToken):
    """Install a SIGINT handler that fires ``token`` (cooperative cancel
    instead of a mid-run traceback); returns a restore callable.

    Cancellation is observed at utility queries, so a run deep in
    candidate preparation takes a moment to stop — a *second* Ctrl-C
    therefore restores the previous handler and raises
    ``KeyboardInterrupt``, so the user is never trapped behind a
    cooperative flag.  In environments without signal support (non-main
    thread, embedded interpreters) cancellation stays caller-driven."""

    def handler(signum, frame):
        if token.cancelled:
            signal.signal(signal.SIGINT, previous)
            raise KeyboardInterrupt
        token.cancel()

    try:
        previous = signal.signal(signal.SIGINT, handler)
    except ValueError:
        return lambda: None
    return lambda: signal.signal(signal.SIGINT, previous)


def _cmd_run(args) -> int:
    scenario = SCENARIOS[args.scenario](seed=args.seed)
    baselines = () if args.baselines == "none" else tuple(
        b.strip() for b in args.baselines.split(",") if b.strip()
    )
    query_points = tuple(
        sorted({max(1, args.budget // 10), args.budget // 4, args.budget // 2, args.budget})
    )
    # One engine serves every searcher of the run: all of them share the
    # prepared candidate set (and a warm catalog, if one is ever wired in).
    engine = DiscoveryEngine(
        corpus=scenario.corpus,
        result_cache_bytes=0 if args.no_result_cache else _RESULT_CACHE_BYTES,
    )
    if "iarda" in baselines:
        _error(
            "the 'iarda' baseline needs a target column and is not "
            "available from the CLI; use the library API "
            "(DiscoveryRequest with options={'target_column': ...})"
        )
        return 2
    try:
        # Validated separately so bad flags fail fast with a clean usage
        # error, while genuine runtime failures keep their traceback.
        validate_comparison(engine, baselines)
    except ValueError as error:
        _error(str(error))
        return 2
    cancel = CancellationToken()
    restore_sigint = _cancel_on_sigint(cancel)
    try:
        report = compare_searchers(
            scenario,
            budget=args.budget,
            theta=args.theta,
            epsilon=args.epsilon,
            seeds=(args.seed,),
            baselines=baselines,
            query_points=query_points,
            metam_config=MetamConfig(
                theta=args.theta,
                query_budget=args.budget,
                epsilon=args.epsilon,
                seed=args.seed,
            ),
            engine=engine,
            parallel=args.use_async,
            cancel=cancel,
        )
    except RunCancelled:
        # A cancelled comparison must be distinguishable from success:
        # exit like an interrupted process (128 + SIGINT).
        _error("run cancelled before completion")
        return 130
    finally:
        restore_sigint()
        engine.shutdown()
    print(f"Scenario: {scenario.name} "
          f"({scenario.base.num_rows} rows, {len(scenario.corpus)} repo tables)\n")
    print(report.table())
    print()
    for name, result in report.runs[0].items():
        print(result.summary())
    if not args.no_chart:
        print()
        print(render_traces(report.runs[0], max_queries=args.budget))
    if args.save:
        save_results(report.runs[0], args.save)
        print(f"\nResults written to {args.save}")
    # Telemetry outlives shutdown(): the registry and the trace ring
    # are plain in-memory state, so exporting after the pool is gone is
    # safe (and captures the final gauge values).
    if args.metrics_out:
        _write_metrics(engine, args.metrics_out)
        print(f"Metrics written to {args.metrics_out}")
    if args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as handle:
            json.dump(list(engine.recent_traces), handle, indent=2)
        print(f"Traces written to {args.trace_out}")
    return 0


def _write_metrics(engine: DiscoveryEngine, path: str) -> None:
    payload = (
        engine.metrics_snapshot()
        if path.endswith(".json")
        else engine.metrics_prometheus()
    )
    with open(path, "w", encoding="utf-8") as handle:
        if isinstance(payload, str):
            handle.write(payload)
        else:
            json.dump(payload, handle, indent=2)


def _cmd_stats(args) -> int:
    """One small discovery on a fully instrumented engine.

    The engine serves from a store-backed catalog (its warm-start
    refresh + save put shard-lock and store read/write samples on the
    board), the first request goes through ``submit()`` (queue/pool
    gauges move), and the second identical
    ``discover()`` replays from the result cache — so the exposition
    covers every subsystem with real, nonzero samples.
    """
    import tempfile

    from repro.api.request import DiscoveryRequest
    from repro.catalog import Catalog, CatalogStore

    scenario = SCENARIOS[args.scenario](seed=args.seed)
    with tempfile.TemporaryDirectory() as tmp:
        # The catalog seed matches the run seed so warm-start discovery
        # reproduces the cold path exactly.
        engine = DiscoveryEngine(
            corpus=scenario.corpus,
            catalog=Catalog(
                CatalogStore(os.path.join(tmp, "catalog")), seed=args.seed
            ),
            result_cache_bytes=_RESULT_CACHE_BYTES,
        )
        # The task goes in by registry *name*: task objects are
        # uncacheable by design, and the second request must replay
        # from the result cache to put a hit on the board.
        engine.tasks.register(
            "cli-stats-task", lambda **_options: scenario.task
        )
        request = DiscoveryRequest(
            base=scenario.base,
            task="cli-stats-task",
            searcher="metam",
            config=MetamConfig(
                theta=args.theta,
                query_budget=args.budget,
                epsilon=0.1,
                seed=args.seed,
            ),
        )
        try:
            engine.submit(request).result()
            engine.discover(request)
        finally:
            engine.shutdown()
    if args.as_json:
        print(json.dumps(engine.metrics_snapshot(), indent=2, sort_keys=True))
    else:
        print(engine.metrics_prometheus())
    return 0


def _cmd_serve(args) -> int:
    from repro.api.errors import InvalidRequest, NotFound
    from repro.server import DiscoveryService, ServiceConfig
    from repro.server.http import serve as serve_http

    if args.scenario is not None and args.catalog is not None:
        raise InvalidRequest("--scenario and --catalog are mutually exclusive")
    if args.workers < 1:
        raise InvalidRequest(f"--workers must be >= 1, got {args.workers}")
    try:
        config = ServiceConfig(
            max_queue_depth=args.max_queue_depth,
            tenant_rate=args.tenant_rate,
            tenant_burst=args.tenant_burst,
            drain_timeout=args.drain_timeout,
        )
    except ValueError as error:
        raise InvalidRequest(str(error)) from None

    if args.catalog is not None:
        catalog_dir = args.catalog
        name = os.path.basename(os.path.normpath(catalog_dir)) or "catalog"

        def factory(metrics=None):
            from repro.catalog import Catalog, CatalogStore
            from repro.data import generate_corpus

            store = CatalogStore(catalog_dir)
            if not store.exists():
                raise NotFound(f"no catalog at {catalog_dir}")
            params = _load_corpus_args(catalog_dir)
            if not params:
                raise NotFound(
                    f"catalog at {catalog_dir!r} has no recorded corpus "
                    "parameters (was it built outside the CLI?); serve a "
                    "--scenario instead"
                )
            corpus = generate_corpus(
                params["tables"], style=params["style"], seed=params["seed"]
            )
            return DiscoveryEngine(
                corpus=corpus,
                catalog=Catalog.load(store),
                metrics=metrics,
                max_workers=args.workers,
                result_cache_bytes=_RESULT_CACHE_BYTES,
            )

    else:
        scenario_name = args.scenario or "clustering"
        name = scenario_name
        # Built eagerly: the scenario's base table must be registered as
        # a request base (it is the run's input, not a join candidate,
        # so it is not part of the served corpus).
        scenario = SCENARIOS[scenario_name](seed=args.seed)
        bases = {name: {scenario.base.name: scenario.base}}

        def factory(metrics=None):
            engine = DiscoveryEngine(
                corpus=scenario.corpus,
                metrics=metrics,
                max_workers=args.workers,
                result_cache_bytes=_RESULT_CACHE_BYTES,
            )
            # Wire requests name tasks by registry entry; the scenario's
            # pre-configured task object goes in under a stable name.
            engine.tasks.register(
                "scenario-task", lambda **_options: scenario.task
            )
            return engine

    service = DiscoveryService(
        {name: factory},
        bases=bases if args.catalog is None else None,
        config=config,
    )
    server = serve_http(service, host=args.host, port=args.port)
    # The bound address goes on stdout (port 0 picks a free one): the
    # line scripts and the CI smoke job parse for readiness.
    print(f"serving catalog {name!r} on {server.url}", flush=True)
    if args.catalog is None:
        print(
            f"scenario base table: {scenario.base.name} "
            "(task name: scenario-task)",
            flush=True,
        )
    print("Ctrl-C drains and exits", flush=True)
    stop = threading.Event()

    def _request_stop(signum, frame):
        stop.set()

    previous = {}
    for signame in ("SIGINT", "SIGTERM"):
        signum = getattr(signal, signame, None)
        if signum is not None:
            try:
                previous[signum] = signal.signal(signum, _request_stop)
            except ValueError:
                pass  # non-main thread: caller drives server.drain()
    try:
        stop.wait()
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    clean = server.drain(timeout=args.drain_timeout)
    if not clean:
        _warn(f"drain timed out after {args.drain_timeout}s")
    print("drained" if clean else "drain timed out", flush=True)
    return 0 if clean else 1


def _cmd_corpus_stats(args) -> int:
    from repro.catalog import CatalogStoreError
    from repro.data import generate_corpus

    if args.batch_tables is not None and args.batch_tables < 0:
        _error(
            f"--batch-tables must be >= 0 (0 = hold everything in "
            f"memory), got {args.batch_tables}"
        )
        return 2
    if args.batch_tables is not None and args.catalog is None:
        # The in-memory path has no streaming pass; a silent no-op would
        # read as "memory is bounded" when it is not.
        _warn("--batch-tables only applies with --catalog; ignored")
    batch_tables = args.batch_tables if args.batch_tables is not None else 256
    batch = batch_tables if batch_tables > 0 else None
    try:
        if args.catalog is not None:
            engine = DiscoveryEngine.open(args.catalog, create=False)
        else:
            corpus = generate_corpus(
                args.tables, style=args.style, seed=args.seed
            )
            engine = DiscoveryEngine(corpus=corpus)
        stats = engine.corpus_stats(batch_tables=batch, seed=args.seed)
    except CatalogStoreError as error:
        _error(str(error))
        return 1
    print(f"{'#Tables':>10} {'#Columns':>10} {'#Joinable':>10} {'Size':>12}")
    print(
        f"{stats['tables']:10d} {stats['columns']:10d} "
        f"{stats['joinable_columns']:10d} {stats['size_bytes']:11d}B"
    )
    return 0


def _cmd_catalog(args) -> int:
    from repro.catalog import CatalogStoreError

    try:
        return _run_catalog_command(args)
    except CatalogStoreError as error:
        _error(str(error))
        return 1


def _run_catalog_command(args) -> int:
    import time

    from repro.catalog import Catalog, CatalogStore
    from repro.data import generate_corpus

    if args.catalog_command == "stats":
        store = CatalogStore(args.dir)
        if not store.exists():
            _error(f"no catalog at {args.dir}")
            return 1
        stats = store.stats()
        print(f"catalog at {args.dir} (layout v{stats['version']})")
        print(f"  tables          {stats['tables']}")
        print(f"  active leases   {stats['leases']}")
        print(f"  objects         {stats['objects']}")
        print(f"  profile groups  {stats['profile_groups']}")
        print(f"  profile entries {stats['profile_entries']}")
        print(f"  profile bytes   {stats['profile_bytes']}B")
        print(f"  disk            {stats['disk_bytes']}B")
        print(f"  config          {stats['config']}")
        return 0

    if args.catalog_command == "gc":
        catalog = Catalog.load(args.dir)
        dropped = catalog.gc()
        print(f"gc: dropped {dropped} orphaned objects")
        preserved = catalog.store.last_gc
        if preserved["skipped_leased"] or preserved["skipped_live"]:
            print(
                f"gc: preserved {preserved['skipped_leased']} objects under "
                f"active writer leases and {preserved['skipped_live']} "
                "re-referenced by a concurrent save"
            )
        if args.profile_budget is not None:
            evicted, freed = catalog.evict_profiles(args.profile_budget)
            print(
                f"gc: evicted {evicted} profile groups ({freed}B freed, "
                f"budget {args.profile_budget}B)"
            )
        return 0

    # Open/validate the catalog before the (potentially expensive) corpus
    # generation, so bad paths and bad parameters fail fast.
    if args.catalog_command == "build":
        import warnings

        store = CatalogStore(args.dir)
        if store.exists():
            # Surface manifest corruption first (raises CatalogStoreError,
            # handled by the command wrapper).
            store.read_manifest()
            # Re-building over an existing catalog with a different — or
            # unknown — corpus definition would silently replace every
            # table right after the "config ignored" warning; direct the
            # user to 'update', which handles corpus changes explicitly.
            stored = _load_corpus_args(args.dir)
            requested = {
                "tables": args.tables,
                "style": args.style,
                "seed": args.seed,
            }
            if not stored:
                _error(
                    f"catalog at {args.dir!r} exists but has no "
                    "recorded corpus parameters (was it built outside the "
                    "CLI?); refusing to replace its tables — use 'catalog "
                    "update' with explicit flags"
                )
                return 1
            if stored != requested:
                _error(
                    f"catalog at {args.dir!r} was built from corpus "
                    f"{stored}, which differs from the requested {requested}; "
                    "use 'catalog update' with explicit flags to change the "
                    "corpus"
                )
                return 1

        # Catalog.open warns when an existing catalog overrides the
        # requested config; surface that on stdout for CLI users.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                catalog = Catalog.open(
                    store,
                    num_perm=args.num_perm,
                    bands=args.bands,
                    min_containment=args.min_containment,
                    seed=args.seed,
                )
            except ValueError as error:
                # Invalid index parameters (e.g. --num-perm not divisible
                # by --bands); only construction gets this treatment so
                # unrelated internal ValueErrors still surface loudly.
                _error(str(error))
                return 1
        for warning in caught:
            print(f"warning: {warning.message}")
    else:
        catalog = Catalog.load(args.dir)
    corpus_args = _effective_corpus_args(args)
    corpus = generate_corpus(
        corpus_args["tables"],
        style=corpus_args["style"],
        seed=corpus_args["seed"],
    )
    start = time.perf_counter()
    diff = catalog.refresh(corpus)
    catalog.save()
    _save_corpus_args(args.dir, corpus_args)
    if args.catalog_command == "update" and args.gc:
        dropped = catalog.gc()
        if dropped:
            print(f"gc: dropped {dropped} orphaned objects")
    elapsed = time.perf_counter() - start
    print(f"catalog at {args.dir}: {diff.summary()}")
    print(
        f"  {catalog.computed_columns} columns signed, "
        f"{catalog.loaded_columns} loaded from disk, {elapsed:.2f}s"
    )
    return 0


_CORPUS_ARGS_FILE = "cli_corpus.json"


def _load_corpus_args(catalog_dir: str) -> dict:
    from repro.catalog import CatalogStore

    return CatalogStore(catalog_dir).read_aux(_CORPUS_ARGS_FILE) or {}


def _effective_corpus_args(args) -> dict:
    """Corpus-generation parameters for a catalog command.

    ``build`` always uses the flags; ``update`` falls back per-flag to the
    parameters recorded by the previous build/update, so a bare update
    refreshes the same synthetic corpus.
    """
    from repro.catalog import CatalogStoreError

    stored = {}
    if args.catalog_command == "update":
        stored = _load_corpus_args(args.dir)
        missing = [
            flag
            for flag, value in (
                ("--tables", args.tables),
                ("--style", args.style),
                ("--seed", args.seed),
            )
            if value is None and flag.lstrip("-") not in stored
        ]
        if missing:
            # Guessing defaults here would regenerate a different corpus
            # and (with --gc) destroy the catalog's objects — refuse.
            raise CatalogStoreError(
                f"catalog at {args.dir!r} has no recorded corpus parameters "
                f"(was it built outside the CLI?); pass {', '.join(missing)} "
                "explicitly"
            )
    return {
        "tables": args.tables if args.tables is not None else stored["tables"],
        "style": args.style if args.style is not None else stored["style"],
        "seed": args.seed if args.seed is not None else stored["seed"],
    }


def _save_corpus_args(catalog_dir: str, corpus_args: dict) -> None:
    from repro.catalog import CatalogStore

    CatalogStore(catalog_dir).write_aux(_CORPUS_ARGS_FILE, corpus_args)


def _cmd_lint(args) -> int:
    from pathlib import Path

    from repro.analysis import (
        checker_catalogue,
        default_baseline_path,
        lint_paths,
        load_baseline,
        render_json,
        render_text,
        write_baseline,
    )

    if args.list_checks:
        for name, description in checker_catalogue():
            print(f"{name}: {description}")
        return 0

    root = Path.cwd()
    paths = [Path(p) for p in args.paths] if args.paths else [root / "src"]
    missing = [p for p in paths if not p.exists()]
    if missing:
        _error(f"no such path: {missing[0]}")
        return 2
    checks = None
    if args.select:
        checks = [c.strip() for c in args.select.split(",") if c.strip()]

    baseline_path = (
        Path(args.baseline)
        if args.baseline
        else default_baseline_path(root)
    )
    entries = []
    if not args.update_baseline:
        try:
            entries = load_baseline(baseline_path)
        except ValueError as error:
            _error(str(error))
            return 2

    try:
        result = lint_paths(
            paths,
            root=root,
            checks=checks,
            jobs=args.jobs,
            baseline_entries=entries,
        )
    except KeyError as error:
        _error(str(error.args[0]) if error.args else str(error))
        return 2

    if args.update_baseline:
        count = write_baseline(
            baseline_path,
            [f for f in result.findings if f.severity == "error"],
            result.sources,
        )
        print(
            f"reprolint: baselined {count} finding(s) in {baseline_path}"
        )
        return 0

    report = render_json(result)
    if args.json_out:
        Path(args.json_out).write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_text(result))
    return 0 if result.ok(check_stale=args.check_baseline) else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # (Re)configure on every entry so repeated in-process invocations
    # (the test suite, notebooks) pick up the current flags and the
    # current stderr.
    configure_logging(
        level=args.log_level, fmt="json" if args.log_json else "text"
    )
    from repro.api.errors import ReproError

    try:
        if args.command == "list-scenarios":
            return _cmd_list(args)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "stats":
            return _cmd_stats(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "corpus-stats":
            return _cmd_corpus_stats(args)
        if args.command == "catalog":
            return _cmd_catalog(args)
        if args.command == "lint":
            return _cmd_lint(args)
    except ReproError as error:
        # One taxonomy, one mapping: the same typed errors the HTTP
        # layer turns into statuses exit here with their pinned codes
        # (invalid-request=2, overloaded=75, cancelled=130, else 1).
        _error(error.message)
        return error.exit_code
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
