"""Which ``src/repro`` functions the repository's entry points enter.

Usage, from the repository root::

    python -m tools.reachability                           # rewrite REACHABILITY.md
    python -m tools.reachability --trace OUT.json -- ARGV  # one traced entry point

The entry points are the five spine workloads (``--smoke``, untraced
and traced), the five ``examples/``, every CLI command (``repro run`` on
every scenario with every registered searcher the CLI offers, ``repro
serve`` on a scenario and on a catalog, driven over HTTP), and the
twelve ``benchmarks/bench_*.py`` scripts.  Each runs in a fresh interpreter
under ``sys.setprofile`` and ``threading.setprofile`` (``--trace``),
which records the code object of every Python function entered on any
thread; the run maps those back to the ``def`` statements of
``src/repro`` by file and qualified name.

A function that no entry point enters must carry a reason in
:data:`KEEP`, one of:

(a) a paper section names it;
(b) tests use it to drive or observe a mechanism that is kept;
(c) it validates outside input;
(d) deleting it would move a result;
(e) ``benchmarks/spine/`` or ``examples/`` imports it.

The run exits 1 when an entry point fails, when an unreached function
has no reason, or when a reason names a function that an entry point
now enters or that no longer exists.
"""

from __future__ import annotations

import ast
import http.client
import json
import os
import runpy
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
RECORD = ROOT / "REACHABILITY.md"

#: Every unreached function, by ``path::qualname`` under ``src/``, with
#: the reason it stays.
KEEP: dict = {
    "repro/api/engine.py::DiscoveryEngine.metrics_prometheus":
        "(b) tests read the engine's counters (utility memo, partition memo, runs) from its exposition",
    "repro/api/events.py::CancellationToken.cancel":
        "(c) a caller's request to stop a run; tests cancel runs to observe cooperative cancellation",
    "repro/api/registries.py::_invalid_options":
        "(c) turns a searcher's rejection of request `options` into `invalid-request`",
    "repro/api/run.py::DiscoveryRun.events_of":
        "(b) tests inspect a run's event stream by kind",
    "repro/api/run.py::DiscoveryRun.selected":
        "(b) tests read a run's selected augmentations",
    "repro/api/wire.py::error_from_wire":
        "(c) `repro run` re-raises a failed run's typed error through it; tests round-trip `error_to_wire`",
    "repro/api/wire.py::event_from_wire":
        "(b) the decoder tests round-trip `event_to_wire` through",
    "repro/api/wire.py::run_from_wire":
        "(b) the decoder tests round-trip run records (`run_to_wire`) through",
    "repro/api/wire.py::spec_from_wire":
        "(b) the decoder tests round-trip `CandidateSpec` wire forms through",
    "repro/baselines/base.py::RankingSearcher.rank":
        "(c) the hook a plug-in ranking searcher must override; without one it fails naming the hook",
    "repro/catalog/catalog.py::Catalog.__len__":
        "(b) tests count a catalog's tables",
    "repro/catalog/catalog.py::Catalog._changed_fingerprint":
        "(b) `Catalog.update`'s change test; tests drive the incremental catalog through it",
    "repro/catalog/catalog.py::Catalog.add":
        "(b) tests build catalogs table by table to inspect the store, save, gc and warm start",
    "repro/catalog/catalog.py::Catalog.is_stale":
        "(b) tests check the fingerprint view of a catalog against live tables",
    "repro/catalog/catalog.py::Catalog.remove":
        "(b) tests remove tables to inspect incremental LSH removal and gc",
    "repro/catalog/catalog.py::Catalog.update":
        "(b) tests re-catalog changed tables to inspect re-signing and fingerprints",
    "repro/catalog/catalog.py::ProfileCache.__len__":
        "(b) tests count cached profile groups",
    "repro/catalog/store.py::CatalogStore.delete_object":
        "(b) tests delete one object under the shard lock to inspect deletion, save's re-derive and gc races",
    "repro/catalog/store.py::CatalogStore.delete_profiles":
        "(b) tests drop a profile group to inspect the profile cache's recompute path",
    "repro/cli.py::_cancel_on_sigint.<locals>.handler":
        "(c) turns the user's Ctrl-C during `repro run` into a cooperative cancel",
    "repro/cli.py::_error":
        "(c) prints a refused CLI input as one `error:` line",
    "repro/core/bandit.py::ThompsonGroupSelector.posterior_mean":
        "(a) §IV-C: the Beta posterior of a cluster arm; tests read it",
    "repro/core/clustering.py::Clusters.dissolve":
        "(a) §IV-B: splits a non-homogeneous cluster (the P2 fallback) for `Metam._active_homogeneity`",
    "repro/core/clustering.py::Clusters.distance":
        "(b) tests check the ε-cover of CLUSTER-PARTITION with it",
    "repro/core/clustering.py::Clusters.radius":
        "(b) tests check cluster radii stay within ε",
    "repro/core/clustering.py::chebyshev":
        "(b) the distance the clustering tests and the quality reference measure profiles with",
    "repro/core/metam.py::Metam._active_homogeneity":
        "(a) §IV-B: the paper's up-front cluster homogeneity test (`MetamConfig.homogeneity` = `active`)",
    "repro/core/quality.py::QualityScorer.best_unqueried":
        "(a) §IV-C: arg-max of the quality score over unqueried candidates; the differential tests compare it",
    "repro/core/quality.py::QualityScorer.profile_score":
        "(a) §IV-C: the profile-based term of the quality score; tests read it",
    "repro/core/quality.py::QualityScorer.quality":
        "(a) §IV-C: the quality score of one candidate; tests read it",
    "repro/core/quality.py::QualityScorer.utility_score":
        "(a) §IV-C: the utility-based term of the quality score; tests read it",
    "repro/core/querying.py::QueryEngine.best_utility":
        "(b) tests read the best utility seen so far",
    "repro/core/querying.py::QueryEngine.utility_at":
        "(b) tests read the anytime utility curve",
    "repro/core/result.py::SearchResult.gain":
        "(b) tests compare utility gains over Din",
    "repro/dataframe/table.py::Table.__eq__":
        "(b) tests compare tables (copies, joins, warm vs cold)",
    "repro/dataframe/table.py::Table.__repr__":
        "(b) pytest prints tables through it when a table assertion fails",
    "repro/dataframe/table.py::Table.drop_columns":
        "(b) tests drop a column to build task inputs with and without it",
    "repro/discovery/index.py::ColumnEntry.__eq__":
        "(b) tests compare warm-started and cold column entries",
    "repro/discovery/index.py::ColumnEntry.__hash__":
        "(b) pairs with `__eq__`, which tests compare entries with",
    "repro/discovery/index.py::DiscoveryIndex.__contains__":
        "(b) tests check which tables an index holds",
    "repro/discovery/index.py::DiscoveryIndex.column_entries":
        "(b) tests read an index's signed entries to compare warm and cold starts",
    "repro/discovery/index.py::DiscoveryIndex.get_table":
        "(b) `Catalog._changed_fingerprint` reads the indexed table with it",
    "repro/discovery/index.py::DiscoveryIndex.rebind_table":
        "(b) `Catalog.update` keeps an unchanged table's entries with it",
    "repro/discovery/index.py::DiscoveryIndex.remove_table":
        "(b) `Catalog.remove`'s incremental removal; tests inspect the index after it",
    "repro/discovery/index.py::_sample_seed":
        "(d) seeds the down-sampling of a column over `max_distinct` values; removing it moves signatures",
    "repro/discovery/join_path.py::Augmentation.__eq__":
        "(b) tests compare augmentations",
    "repro/discovery/join_path.py::Augmentation.__hash__":
        "(b) pairs with `__eq__`, which tests compare augmentations with",
    "repro/discovery/join_path.py::Augmentation.__repr__":
        "(b) pytest prints augmentations through it when an assertion fails",
    "repro/discovery/join_path.py::JoinPath.length":
        "(b) tests check the hop count of enumerated paths",
    "repro/discovery/join_path.py::UnionAugmentation.__eq__":
        "(b) tests compare union candidates",
    "repro/discovery/join_path.py::UnionAugmentation.__hash__":
        "(b) pairs with `__eq__`, which tests compare union candidates with",
    "repro/discovery/join_path.py::UnionAugmentation.__repr__":
        "(b) pytest prints union candidates through it when an assertion fails",
    "repro/discovery/lsh.py::LshIndex.insert":
        "(b) tests insert single signatures to inspect LSH bucketing",
    "repro/discovery/lsh.py::LshIndex.remove":
        "(b) `DiscoveryIndex.remove_table`'s bucket removal; tests inspect it",
    "repro/kernels/hashing.py::stable_hash":
        "(b) the scalar oracle `tests/kernels/test_hashing_diff.py` checks `hash_strings` against",
    "repro/kernels/minhash.py::empty_signature":
        "(c) the signature of a column with no values in a caller's table",
    "repro/kernels/reference.py::count_non_missing":
        "(b) the scalar reference the join oracle (`tests/discovery/reference_join.py`) counts with",
    "repro/kernels/reference.py::encode_categorical":
        "(b) the scalar reference the coercion differential tests compare with",
    "repro/kernels/reference.py::stable_hash_v1":
        "(b) the scalar reference hash behind `stable_hash`",
    "repro/ml/forest.py::RandomForestClassifier.predict_proba":
        "(b) the CART differential tests compare leaf class distributions through it",
    "repro/ml/knn.py::KNeighborsClassifier.__init__":
        "(d) in MiniAutoML's classifier space; removing it changes what AutoML searches",
    "repro/ml/knn.py::KNeighborsClassifier.fit":
        "(d) in MiniAutoML's classifier space; removing it changes what AutoML searches",
    "repro/ml/knn.py::KNeighborsClassifier.predict":
        "(d) in MiniAutoML's classifier space; removing it changes what AutoML searches",
    "repro/ml/linear.py::RidgeRegression.__init__":
        "(b) the refit of the quality reference (`tests/core/reference_quality.py`)",
    "repro/ml/linear.py::RidgeRegression.fit":
        "(b) the refit of the quality reference (`tests/core/reference_quality.py`)",
    "repro/ml/linear.py::RidgeRegression.predict":
        "(b) the refit of the quality reference (`tests/core/reference_quality.py`)",
    "repro/ml/naive_bayes.py::GaussianNB.__init__":
        "(d) in MiniAutoML's classifier space; removing it changes what AutoML searches",
    "repro/ml/naive_bayes.py::GaussianNB._joint_log_likelihood":
        "(d) in MiniAutoML's classifier space; removing it changes what AutoML searches",
    "repro/ml/naive_bayes.py::GaussianNB.fit":
        "(d) in MiniAutoML's classifier space; removing it changes what AutoML searches",
    "repro/ml/naive_bayes.py::GaussianNB.predict":
        "(d) in MiniAutoML's classifier space; removing it changes what AutoML searches",
    "repro/ml/naive_bayes.py::GaussianNB.predict_proba":
        "(d) in MiniAutoML's classifier space; removing it changes what AutoML searches",
    "repro/ml/tree.py::DecisionTreeClassifier.predict_proba":
        "(b) the CART differential tests compare leaf class distributions through it",
    "repro/ml/tree.py::_BaseDecisionTree.depth":
        "(b) tests check `max_depth` holds on built trees",
    "repro/obs/logcfg.py::StructuredLogger.error":
        "(c) logs a run, worker or request that failed",
    "repro/obs/logcfg.py::StructuredLogger.warning":
        "(c) logs a drain that timed out",
    "repro/obs/logcfg.py::_ensure_default_handler":
        "(c) makes a CLI refusal visible when nothing configured logging",
    "repro/obs/logcfg.py::context_fields":
        "(b) tests read the bound log context",
    "repro/obs/metrics.py::MetricFamily.inc":
        "(b) tests count into unlabelled families",
    "repro/obs/metrics.py::MetricFamily.observe":
        "(b) tests observe into unlabelled families",
    "repro/obs/metrics.py::MetricFamily.quantile":
        "(b) tests read quantile estimates",
    "repro/obs/metrics.py::MetricFamily.state":
        "(b) tests read a family's state",
    "repro/obs/metrics.py::MetricsRegistry.to_json":
        "(b) tests read the JSON snapshot",
    "repro/obs/metrics.py::MetricsRegistry.value":
        "(b) tests read metric values",
    "repro/obs/tracing.py::Span.annotate":
        "(c) marks a span with the error a failed request or task raised",
    "repro/obs/tracing.py::_NullSpanCtx.__enter__":
        "(b) `span()` outside a trace; tests call traced functions directly",
    "repro/obs/tracing.py::_NullSpanCtx.__exit__":
        "(b) `span()` outside a trace; tests call traced functions directly",
    "repro/obs/tracing.py::active_span":
        "(b) tests read the active span",
    "repro/profiles/base.py::Profile.__repr__":
        "(b) pytest prints profiles through it when an assertion fails",
    "repro/profiles/base.py::Profile.compute":
        "(c) the hook a plug-in profile must override; without one it fails naming the hook",
    "repro/profiles/embedding.py::TokenEmbedder.embed_token":
        "(b) the per-token oracle of the batched embedding tests",
    "repro/server/service.py::DiscoveryService.list_runs":
        "(b) tests inspect the service's run map",
    "repro/server/service.py::DiscoveryService.stats":
        "(b) tests read the service's counters",
    "repro/server/service.py::_CatalogEntry.remove":
        "(c) withdraws a queued run a client cancelled",
    "repro/tasks/base.py::Task.__repr__":
        "(b) pytest prints tasks through it when an assertion fails",
    "repro/tasks/base.py::Task.utility":
        "(c) the hook a plug-in task must override; without one it fails naming the hook",
    "repro/utils/lru.py::LruDict.__contains__":
        "(b) tests check what a cache holds",
    "repro/utils/lru.py::LruDict.get":
        "(b) tests read cache entries without filling them",
}


# ----------------------------------------------------------------------
# One entry point, traced in this interpreter
# ----------------------------------------------------------------------
def trace(out: str, argv: list) -> int:
    """Run ``argv`` (``-m module args…`` or ``script.py args…``) as
    ``__main__`` under the profiler and write the ``src/repro``
    functions it entered to ``out`` as ``{path: [qualname, …]}``."""
    seen = set()

    def profile(frame, event, _arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.argv = list(argv[1:] if argv[0] == "-m" else argv)
    code = 0
    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        if argv[0] == "-m":
            runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
        else:
            sys.path.insert(0, os.path.dirname(os.path.abspath(argv[0])))
            runpy.run_path(argv[0], run_name="__main__")
    except SystemExit as stop:
        code = stop.code if isinstance(stop.code, int) else (stop.code is not None)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    entered: dict = {}
    for found in list(seen):
        path = Path(os.path.abspath(found.co_filename))
        if path.is_relative_to(PACKAGE):
            entered.setdefault(str(path.relative_to(SRC)), set()).add(found.co_qualname)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump({path: sorted(names) for path, names in entered.items()}, handle)
    return code


# ----------------------------------------------------------------------
# The entry points
# ----------------------------------------------------------------------
def _env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED="1")
    for inherited in ("PYTHONHASHSEED", "REPRO_SCALE"):
        env.pop(inherited, None)
    return env


def _traced(out: str, argv: list) -> list:
    return [sys.executable, "-m", "tools.reachability", "--trace", out, "--", *argv]


def _searchers_and_scenarios():
    sys.path.insert(0, str(SRC))
    from repro.api.registries import default_searchers
    from repro.data import SCENARIOS

    return default_searchers().names(), sorted(SCENARIOS)


def entry_points(work: str) -> list:
    """``(name, argv)`` of every entry point but ``repro serve``."""
    searchers, scenarios = _searchers_and_scenarios()
    # iarda needs a target column, which the CLI cannot pass: the bench
    # scripts run it through the library.
    baselines = ",".join(name for name in searchers if name not in ("metam", "iarda"))
    catalog = os.path.join(work, "catalog")
    points = []
    for workload in ("cold-prepare", "warm-discover", "search-scale",
                     "catalog-churn", "serve-mixed"):
        for traced in ("0", "1"):
            points.append((
                f"spine {workload} --trace {traced}",
                ["benchmarks/spine/run.py", "--workload", workload, "--seed", "0",
                 "--trace", traced, "--smoke"],
            ))
    for example in sorted((ROOT / "examples").glob("*.py")):
        points.append((f"examples/{example.name}", [str(example.relative_to(ROOT))]))
    cli = ["-m", "repro"]
    points.append(("repro list-scenarios", [*cli, "list-scenarios"]))
    for scenario in scenarios:
        points.append((
            f"repro run {scenario}",
            [*cli, "--log-level", "debug", "run", scenario, "--budget", "12",
             "--theta", "0.6", "--baselines", baselines,
             "--save", os.path.join(work, f"{scenario}.json"),
             "--metrics-out", os.path.join(work, f"{scenario}.prom"),
             "--trace-out", os.path.join(work, f"{scenario}-trace.json")],
        ))
    points += [
        ("repro run --baselines none",
         [*cli, "--log-json", "--log-level", "debug", "run", "housing", "--budget", "8",
          "--baselines", "none", "--no-chart",
          "--metrics-out", os.path.join(work, "metrics.json")]),
        ("repro stats", [*cli, "stats", "--budget", "8"]),
        ("repro stats --json", [*cli, "stats", "--budget", "8", "--json"]),
        ("repro corpus-stats", [*cli, "corpus-stats", "--tables", "12"]),
        ("repro catalog build", [*cli, "catalog", "build", catalog, "--tables", "12"]),
        ("repro catalog update", [*cli, "catalog", "update", catalog]),
        ("repro catalog update --tables --gc",
         [*cli, "catalog", "update", catalog, "--tables", "14", "--gc"]),
        ("repro catalog stats", [*cli, "catalog", "stats", catalog]),
        ("repro catalog gc", [*cli, "catalog", "gc", catalog, "--profile-budget", "0"]),
        ("repro corpus-stats --catalog", [*cli, "corpus-stats", "--catalog", catalog]),
    ]
    for bench in sorted((ROOT / "benchmarks").glob("bench_*.py")):
        points.append((
            f"benchmarks/{bench.name}",
            # pytest-benchmark pauses sys.setprofile around a timed call;
            # disabled, it calls the function once, in the open.
            ["-m", "pytest", "-q", "-p", "no:cacheprovider", "--benchmark-disable",
             str(bench.relative_to(ROOT))],
        ))
    return points


def _call(port: int, method: str, path: str, body=None):
    """One HTTP exchange; a JSON answer comes back parsed."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        conn.request(method, path, body=None if body is None else json.dumps(body),
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        raw = response.read()
        if response.getheader("Content-Type", "").startswith("application/json"):
            return json.loads(raw)
        return raw
    finally:
        conn.close()


#: The one run ``repro serve --scenario clustering`` is asked for.
SERVE_REQUEST = {"base": "raw_materials", "task": "scenario-task", "searcher": "metam",
                 "theta": 0.6, "query_budget": 12, "seed": 0}


def serve(out: str, flags: list, request=None) -> int:
    """``repro serve FLAGS`` over HTTP: health, one session, ``request``
    as one run and its event stream, metrics, the session closed, then
    a SIGINT drain."""
    process = subprocess.Popen(
        _traced(out, ["-m", "repro", "serve", "--port", "0", *flags]),
        cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True,
    )
    try:
        line = ""
        while " on http://" not in line:
            line = process.stdout.readline()
            if not line:
                raise RuntimeError("repro serve exited before announcing its address")
        port = int(line.rsplit(":", 1)[1])
        _call(port, "GET", "/healthz")
        body = _call(port, "POST", "/v1/sessions", {"tenant": "reachability"})
        session = body["session"]["session_id"]
        if request is not None:
            body = _call(port, "POST", "/v1/runs", {"session": session, "request": request})
            run = f"/v1/runs/{body['run']['run_id']}"
            while _call(port, "GET", run)["run"]["state"] not in ("completed", "failed"):
                time.sleep(0.2)
            _call(port, "GET", f"{run}/events")
        _call(port, "GET", f"/v1/sessions/{session}")
        _call(port, "GET", "/metrics")
        _call(port, "DELETE", f"/v1/sessions/{session}")
    finally:
        process.send_signal(signal.SIGINT)
        code = process.wait(timeout=120)
        process.stdout.close()
    return code


# ----------------------------------------------------------------------
# The functions of src/repro
# ----------------------------------------------------------------------
def functions() -> dict:
    """``{path::qualname: (first line, last line)}`` of every ``def``
    under ``src/repro``, qualified as ``co_qualname`` qualifies them."""
    found = {}

    def visit(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                start, end = found.get(f"{path}::{name}", (first, child.end_lineno))
                found[f"{path}::{name}"] = (min(start, first), max(end, child.end_lineno))
                visit(child, name + ".<locals>.", path)
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".", path)
            else:
                visit(child, prefix, path)

    for file in sorted(PACKAGE.rglob("*.py")):
        visit(ast.parse(file.read_text(encoding="utf-8")), "", str(file.relative_to(SRC)))
    return found


def _outermost(names, spans) -> list:
    """``names`` without the ones nested in another of ``names``."""
    chosen = set(names)
    return [
        name for name in names
        if not any(
            other != name and other.split("::")[0] == name.split("::")[0]
            and spans[other][0] <= spans[name][0] and spans[name][1] <= spans[other][1]
            for other in chosen
        )
    ]


def render(entered: dict, spans: dict) -> str:
    """The record: per entry point, the functions it entered; then every
    function none entered, with its keep reason."""
    reached = set().union(*entered.values())
    unreached = sorted(set(spans) - reached)
    lines = lambda names: sum(spans[n][1] - spans[n][0] + 1 for n in _outermost(names, spans))
    out = [
        "# Reachability of `src/repro`",
        "",
        "Generated by `python -m tools.reachability`, which runs each entry point",
        "below in a fresh interpreter under `sys.setprofile` and",
        "`threading.setprofile` and records every `src/repro` function it enters.",
        "Do not edit by hand; rerun it after a change that adds, removes or",
        "reroutes code.",
        "",
        f"`src/repro` defines {len(spans)} functions over {lines(list(spans))} lines;",
        f"the entry points enter {len(reached & set(spans))} of them.  The other",
        f"{len(unreached)} ({lines(unreached)} lines) are listed below, each with",
        "the reason it stays: (a) a paper section names it, (b) tests use it to",
        "drive or observe a mechanism that is kept, (c) it validates outside",
        "input, (d) deleting it would move a result, (e) `benchmarks/spine/` or",
        "`examples/` imports it.",
        "",
        "## Entry points",
        "",
        "| entry point | `src/repro` functions entered |",
        "|---|---|",
    ]
    for name in entered:
        out.append(f"| `{name}` | {len(entered[name] & set(spans))} |")
    out += ["", "## Functions no entry point enters", "",
            "| function | lines | kept because |", "|---|---|---|"]
    for name in unreached:
        first, last = spans[name]
        out.append(f"| `{name}` | {last - first + 1} | {KEEP.get(name, '**no reason**')} |")
    return "\n".join(out) + "\n"


def problems(entered: dict, spans: dict) -> list:
    """Unreached functions without a keep reason, and stale reasons."""
    reached = set().union(*entered.values())
    unreached = set(spans) - reached
    found = [f"{name}: no entry point enters it and it has no keep reason"
             for name in sorted(unreached - set(KEEP))]
    found += [f"{name}: has a keep reason but an entry point enters it"
              for name in sorted(set(KEEP) & reached)]
    found += [f"{name}: has a keep reason but no longer exists"
              for name in sorted(set(KEEP) - set(spans))]
    return found


def _run(name: str, argv: list, out: str) -> str:
    """Run one entry point traced; ``None`` or what went wrong."""
    started = time.monotonic()
    done = subprocess.run(_traced(out, argv), cwd=ROOT, env=_env(), text=True,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    print(f"{name}: exit {done.returncode}, {time.monotonic() - started:.1f} s",
          file=sys.stderr)
    if done.returncode != 0:
        return f"{name}: exit {done.returncode}\n{done.stderr[-2000:]}"
    return None


def _read(out: str) -> set:
    with open(out, encoding="utf-8") as handle:
        return {f"{path}::{name}" for path, names in json.load(handle).items()
                for name in names}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--trace"] and argv[2:3] == ["--"]:
        return trace(argv[1], argv[3:])
    if argv:
        print(__doc__, file=sys.stderr)
        return 2
    entered = {}
    found = []
    with tempfile.TemporaryDirectory(prefix="reachability-") as work:
        out = os.path.join(work, "entered.json")
        for name, command in entry_points(work):
            failure = _run(name, command, out)
            if failure:
                found.append(failure)
            entered[name] = _read(out)
        served = [
            ("repro serve --scenario clustering, one session and one run over HTTP",
             ["--scenario", "clustering"], SERVE_REQUEST),
            ("repro serve --catalog, one session over HTTP",
             ["--catalog", os.path.join(work, "catalog")], None),
        ]
        for name, flags, request in served:
            code = serve(out, flags, request)
            if code != 0:
                found.append(f"{name}: exit {code}")
            entered[name] = _read(out)
    spans = functions()
    RECORD.write_text(render(entered, spans), encoding="utf-8")
    found += problems(entered, spans)
    for problem in found:
        print(problem, file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
