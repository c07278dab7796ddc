"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list-scenarios``
    Show the built-in evaluation scenarios.
``run``
    Run METAM (and optionally baselines) on a scenario and print the
    utility-vs-queries chart; ``--save`` archives results as JSON.  The
    command is a client of an in-process :mod:`repro.server` service
    (one service worker): each searcher is a wire payload submitted
    through the same admission path an HTTP client uses, so unknown
    names and failed runs come back as the same typed errors.  Ctrl-C
    cancels every run and exits with status 130.
``stats``
    Submit one small discovery twice through an in-process service
    whose engine has a store-backed catalog attached (the second
    request replays from the result cache) and print the shared
    metrics registry in Prometheus text exposition format (``--json``
    for the JSON snapshot).  ``repro run --metrics-out/--trace-out``
    capture the same telemetry from a real comparison; the top-level
    ``--log-level``/``--log-json`` flags control the structured log
    stream on stderr.
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
    re-signing; every stored entry is read once into a transient
    index).  Both count joinable columns with the same pass.
``catalog build|update|stats|gc``
    Maintain a persistent discovery catalog on disk: ``build`` indexes a
    corpus into a catalog directory, ``update`` incrementally refreshes
    it (only new/changed tables are re-signed; run it on whatever
    schedule keeps the catalog fresh enough), ``stats`` reports its
    contents and footprint, and ``gc`` reclaims unreferenced objects
    and (with ``--profile-budget``) evicts least-recently-used cached
    profile groups.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading

from repro.api import CancellationToken, DiscoveryEngine
from repro.api.errors import Cancelled, InvalidRequest
from repro.api.wire import error_from_wire
from repro.core.plotting import render_traces
from repro.core.serialization import result_from_dict, save_results
from repro.data import SCENARIOS
from repro.obs.logcfg import _ensure_default_handler, configure_logging, get_logger

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


def _int_in(low: int, high=None):
    """argparse type for an integer in ``[low, high]`` (no upper bound
    when ``high`` is None)."""
    bound = f">= {low}" if high is None else f"in {low}..{high}"

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < low or (high is not None and value > high):
            raise argparse.ArgumentTypeError(f"expected an integer {bound}, got {text!r}")
        return value

    return parse


#: Byte budgets; table counts (a non-positive corpus size would build,
#: or shrink a catalog to, nothing; a non-positive batch would hold no
#: table); TCP ports (0 picks a free one).
_byte_count, _table_count, _port = _int_in(0), _int_in(1), _int_in(0, 65535)


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
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="after the comparison, write the serving metrics registry "
        "(engine and service families) here: Prometheus text exposition "
        "format, or a JSON snapshot when PATH ends in .json",
    )
    run.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="after the comparison, write the per-run trace trees here "
        "as a JSON list (one tree per searcher: prepare/search spans "
        "with per-round and per-query marks)",
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
        type=_port,
        default=8765,
        help="TCP port (0 = pick a free ephemeral port; the bound "
        "address is printed on stdout)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=4,
        help="concurrent runs per catalog",
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
        "(no corpus generation or column re-signing — every stored "
        "entry is read once into a transient index; the corpus flags "
        "are ignored)",
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

    return parser


def _cmd_list(_args) -> int:
    for name in sorted(SCENARIOS):
        factory = SCENARIOS[name]
        doc = (factory.__doc__ or "").strip().splitlines()[0]
        print(f"{name:16s} {doc}")
    return 0


#: Result-cache budget of CLI-built engines.
_RESULT_CACHE_BYTES = 8 << 20

#: Service workers behind ``run`` and ``stats``: a comparison's runs share
#: one prepared candidate set and the GIL, so one worker is the fastest
#: (four were 1.7x slower on 2 vCPUs) and runs them in submission order.
_CLI_WORKERS = 1


def _scenario_service(name, scenario, *, workers, catalog=None, config=None):
    """A :class:`~repro.server.DiscoveryService` serving one built-in
    scenario as catalog ``name``: its base table is a registered request
    base (the run's input, not a join candidate) and its pre-configured
    task is registered as ``scenario-task``."""
    from repro.server import DiscoveryService

    def factory(metrics=None):
        engine = DiscoveryEngine(
            corpus=scenario.corpus,
            catalog=catalog,
            metrics=metrics,
            max_workers=workers,
            result_cache_bytes=_RESULT_CACHE_BYTES,
        )
        engine.tasks.register("scenario-task", lambda **_options: scenario.task)
        return engine

    return DiscoveryService(
        {name: factory},
        bases={name: {scenario.base.name: scenario.base}},
        config=config,
    )


def _payload(scenario, searcher: str, seed: int, **fields) -> dict:
    """Wire payload of one run on ``scenario``; the top-level ``seed``
    also seeds candidate preparation."""
    return {
        "base": scenario.base.name,
        "task": "scenario-task",
        "searcher": searcher,
        "seed": seed,
        **fields,
    }


def _metam_payload(scenario, args, epsilon: float) -> dict:
    config = {
        "theta": args.theta,
        "query_budget": args.budget,
        "epsilon": epsilon,
        "seed": args.seed,
    }
    return _payload(scenario, "metam", args.seed, config=config)


def _cancel_on_sigint(token: CancellationToken):
    """Install a SIGINT handler that fires ``token`` and returns a
    restore callable.  The handler only sets the flag; the waiting main
    thread cancels the runs.  Cancellation is observed at utility
    queries, so a second Ctrl-C restores the previous handler and raises
    ``KeyboardInterrupt``: the user is never trapped behind a cooperative
    flag.  Without signal support (non-main thread) it does nothing."""

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


def _await_record(service, run_id: str, interrupted: CancellationToken) -> dict:
    """Wait on ``run_id``'s event stream and return its wire record.

    A failed run raises its wire error (what an HTTP client reads); a
    cancelled run, or ``interrupted`` firing first, raises ``Cancelled``.
    """
    while not interrupted.cancelled:
        try:
            for _event in service.events(run_id, timeout=0.1):
                if interrupted.cancelled:
                    break
            else:
                break  # the stream closed: the run is terminal
        except TimeoutError:
            pass  # nothing new within the poll: look at the flag again
    status = service.status(run_id)
    if status["state"] == "failed":
        raise error_from_wire({"error": status["error"]})
    if status["state"] != "completed":
        raise Cancelled("run cancelled before completion")
    return status["record"]


def _cmd_run(args) -> int:
    baselines = () if args.baselines == "none" else tuple(
        dict.fromkeys(b.strip() for b in args.baselines.split(",") if b.strip())
    )
    # CLI-only rules; the service checks every other name.
    if "metam" in baselines:
        # METAM always runs with the flags' config; as a baseline it
        # would run again under the same key.
        raise InvalidRequest("'metam' always runs; don't list it as a baseline")
    if "iarda" in baselines:
        raise InvalidRequest(
            "the 'iarda' baseline needs a target column and is not "
            "available from the CLI; use the library API "
            "(DiscoveryRequest with options={'target_column': ...})"
        )
    # A bad destination fails now, not after every searcher has run.
    for flag, path in (
        ("--save", args.save),
        ("--metrics-out", args.metrics_out),
        ("--trace-out", args.trace_out),
    ):
        folder = os.path.dirname(os.path.abspath(path or "."))
        if path and (os.path.isdir(path) or not os.path.isdir(folder)):
            raise InvalidRequest(f"{flag} {path}: not a file in an existing directory")
    scenario = SCENARIOS[args.scenario](seed=args.seed)
    query_points = tuple(
        sorted({max(1, args.budget // 10), args.budget // 4, args.budget // 2, args.budget})
    )
    # METAM first, then the baselines in flag order: one worker serves
    # them in that order from one prepared candidate set.
    payloads = {"metam": _metam_payload(scenario, args, args.epsilon)}
    for name in baselines:
        payloads[name] = _payload(
            scenario, name, args.seed, theta=args.theta, query_budget=args.budget
        )
    service = _scenario_service(args.scenario, scenario, workers=_CLI_WORKERS)
    interrupted = CancellationToken()
    restore_sigint = _cancel_on_sigint(interrupted)
    run_ids = {}
    try:
        session = service.create_session("cli")["session_id"]
        for name, payload in payloads.items():
            run_ids[name] = service.submit(session, payload)["run_id"]
        records = {
            name: _await_record(service, run_id, interrupted)
            for name, run_id in run_ids.items()
        }
    finally:
        restore_sigint()
        # A no-op on finished runs; an error or Ctrl-C above must not
        # leave the others running.
        for run_id in run_ids.values():
            service.cancel(run_id)
        service.shutdown()
    results = {
        name: result_from_dict(record["result"]) for name, record in records.items()
    }
    print(f"Scenario: {scenario.name} "
          f"({scenario.base.num_rows} rows, {len(scenario.corpus)} repo tables)\n")
    print("searcher    " + "".join(f"{q:>8}" for q in query_points))
    for name, result in results.items():
        print(f"{name:12s}" + "".join(f"{result.utility_at(q):8.3f}" for q in query_points))
    print()
    for result in results.values():
        print(result.summary())
    if not args.no_chart:
        print()
        print(render_traces(results, max_queries=args.budget))
    if args.save:
        save_results(results, args.save)
        print(f"\nResults written to {args.save}")
    # The registry and the records are in-memory state: exporting them
    # after shutdown is safe and captures the final gauge values.
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            if args.metrics_out.endswith(".json"):
                json.dump(service.metrics_snapshot(), handle, indent=2)
            else:
                handle.write(service.metrics_prometheus())
        print(f"Metrics written to {args.metrics_out}")
    if args.trace_out:
        traces = [record.get("trace") for record in records.values()]
        with open(args.trace_out, "w", encoding="utf-8") as handle:
            json.dump(traces, handle, indent=2)
        print(f"Traces written to {args.trace_out}")
    return 0


def _cmd_stats(args) -> int:
    """Submit one small discovery twice through a service whose engine
    serves from a store-backed catalog (refresh + save put shard-lock
    and store samples on the board); the second submit replays from the
    result cache, so every subsystem shows real, nonzero samples."""
    import tempfile

    from repro.catalog import Catalog, CatalogStore

    scenario = SCENARIOS[args.scenario](seed=args.seed)
    with tempfile.TemporaryDirectory() as tmp:
        # The catalog seed matches the run seed so warm-start discovery
        # reproduces the cold path exactly.
        catalog = Catalog(CatalogStore(os.path.join(tmp, "catalog")), seed=args.seed)
        service = _scenario_service(
            args.scenario, scenario, workers=_CLI_WORKERS, catalog=catalog
        )
        try:
            session = service.create_session("cli")["session_id"]
            for _ in range(2):
                run = service.submit(session, _metam_payload(scenario, args, 0.1))
                _await_record(service, run["run_id"], CancellationToken())
        finally:
            service.shutdown()
    if args.as_json:
        print(json.dumps(service.metrics_snapshot(), indent=2, sort_keys=True))
    else:
        print(service.metrics_prometheus())
    return 0


def _cmd_serve(args) -> int:
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
        from repro.catalog import Catalog, CatalogStore
        from repro.data import generate_corpus

        catalog_dir = args.catalog
        name = os.path.basename(os.path.normpath(catalog_dir)) or "catalog"
        # Checked before binding, as `catalog stats` does: a server that
        # announced itself must be able to answer its first request.
        if not CatalogStore(catalog_dir).exists():
            _error(f"no catalog at {catalog_dir}")
            return 1
        params = _load_corpus_args(catalog_dir)
        if not params:
            _error(
                f"catalog at {catalog_dir!r} has no recorded corpus "
                "parameters (was it built outside the CLI?); serve a "
                "--scenario instead"
            )
            return 1

        def factory(metrics=None):
            corpus = generate_corpus(
                params["tables"], style=params["style"], seed=params["seed"]
            )
            return DiscoveryEngine(
                corpus=corpus,
                catalog=Catalog.load(catalog_dir),
                metrics=metrics,
                max_workers=args.workers,
                result_cache_bytes=_RESULT_CACHE_BYTES,
            )

        service = DiscoveryService({name: factory}, config=config)
    else:
        name = args.scenario or "clustering"
        scenario = SCENARIOS[name](seed=args.seed)
        service = _scenario_service(
            name, scenario, workers=args.workers, config=config
        )
    try:
        server = serve_http(service, host=args.host, port=args.port)
    except OSError as error:  # unresolvable host, port in use, ...
        service.shutdown()
        _error(f"cannot serve on {args.host}:{args.port}: {error}")
        return 1
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
    # The handlers stay installed through the drain: a second Ctrl-C (or
    # a supervisor forwarding one twice) must not interrupt it.
    try:
        stop.wait()
        clean = server.drain(timeout=args.drain_timeout)
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    if not clean:
        _warn(f"drain timed out after {args.drain_timeout}s")
    print("drained" if clean else "drain timed out", flush=True)
    return 0 if clean else 1


def _cmd_corpus_stats(args) -> int:
    from repro.catalog import CatalogStoreError
    from repro.data import generate_corpus

    try:
        if args.catalog is not None:
            engine = DiscoveryEngine.open(args.catalog, create=False)
        else:
            corpus = generate_corpus(
                args.tables, style=args.style, seed=args.seed
            )
            engine = DiscoveryEngine(corpus=corpus)
        stats = engine.corpus_stats(seed=args.seed)
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
    except ReproError as error:
        # One taxonomy, one mapping: the same typed errors the HTTP
        # layer turns into statuses exit here with their pinned codes
        # (invalid-request=2, overloaded=75, cancelled=130, else 1).
        _error(error.message)
        return error.exit_code
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
