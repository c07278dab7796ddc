"""warm-discover: one closed-loop client against a warm, catalog-backed engine.

The request shape of the ROADMAP's warm ``discover()`` figure: the
prepared candidate set is cached, so ``discovery`` and ``catalog`` are
bypassed and a request is four utility queries, each a forest fit in the
pure-python ``repro.ml``.  A gain in ``ml``/``tasks`` shows here and
nowhere else; a gain in ``core`` or ``dataframe`` is predicted not to.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import statistics

import numpy as np

from repro import (
    Catalog,
    CatalogStore,
    DiscoveryEngine,
    DiscoveryRequest,
    Metam,
    MetamConfig,
)
from repro.api.wire import request_from_wire, run_to_wire
from repro.core.clustering import cluster_partition
from repro.dataframe.types import to_float_array
from repro.ml import RandomForestRegressor, mean_absolute_error, prepare_features, train_test_split
from repro.tasks import Task

from benchmarks.spine import inputs
from benchmarks.spine.proxies import TracedTask, digest_result, traced_candidates
from benchmarks.spine.harness import now

BUDGET = 4
#: Requests whose utilities make up ``core.final_utility_mean`` and whose
#: results the traced pass must reproduce; every pass runs at least these.
FIXED = 8


def config(i: int) -> MetamConfig:
    return MetamConfig(theta=0.9, query_budget=BUDGET, epsilon=0.1, seed=i)


def request(state, i: int, task=None, candidates=None) -> DiscoveryRequest:
    return DiscoveryRequest(
        base=state["base"], task=task or state["task"], searcher="metam",
        config=config(i), prepare_seed=0, candidates=candidates,
    )


class SkewedTask(Task):
    """The injected fault: a task that reports a utility it did not earn."""

    name = "skewed"

    def __init__(self, inner):
        self.inner = inner

    def utility(self, table) -> float:
        return min(1.0, self.inner.utility(table) + 0.05)


def setup(run) -> dict:
    scenario = inputs.rental_scenario(run.seed, run.scaled(120, 12))
    run.digests["inputs"] = inputs.digest_recipes(
        scenario["corpus"] + [scenario["base"]]
    )
    corpus = inputs.make_tables(scenario["corpus"])
    store_dir = os.path.join(run.workdir, "warm-discover-store")
    shutil.rmtree(store_dir, ignore_errors=True)
    catalog = Catalog(CatalogStore(store_dir))
    catalog.refresh(corpus)
    catalog.save()
    engine = DiscoveryEngine.open(store_dir, create=False).attach_corpus(corpus)
    true_task = inputs.rental_task(small=run.smoke)
    state = {
        "fixed": run.scaled(FIXED, 2),
        "engine": engine, "store_dir": store_dir,
        "base": inputs.make_table(scenario["base"]),
        "true_task": true_task,
        "task": SkewedTask(true_task) if run.inject == "wrong-utility" else true_task,
    }
    # The first request pays the prepare; it is excluded from the loop.
    start = now()
    first = engine.discover(request(state, 0))
    state["first_s"] = (start, now())
    state["n_candidates"] = first.n_candidates
    return state


def teardown(run, state) -> None:
    state["engine"].shutdown()
    shutil.rmtree(state["store_dir"], ignore_errors=True)


def check_run(run, state, served, i: int, verify: bool) -> None:
    result = served.result
    steps = [best for _step, best in result.trace]
    run.op(
        served.completed
        and result.queries <= BUDGET
        and steps == sorted(steps)
        and 0.0 <= result.utility <= 1.0,
        f"request {i}: budget, monotone trace or utility range violated",
    )
    if verify:
        # Independent of the search: re-apply the selection and ask the
        # task itself.
        by_id = {c.aug_id: c for c in state["engine"].prepare(state["base"], seed=0)}
        table = state["base"]
        for aug_id in sorted(result.selected):
            table = by_id[aug_id].aug.apply(table, state["base"], state["engine"].corpus)
        run.op(
            abs(state["true_task"].utility(table) - result.utility) < 1e-9,
            f"request {i}: reported utility is not the task's utility of "
            "the selected augmentations",
        )


def untraced_loop(run, state, seconds: float) -> dict:
    """Requests 1..FIXED round and round until the time is up (a request's
    cost depends on its search seed, so every run must time the same mix;
    nothing caches a result — the task is an object); returns the result
    digests by request."""
    fixed = state["fixed"]
    engine = state["engine"]
    digests = {}
    deadline = now() + seconds
    k = 0
    while k < fixed or now() < deadline:
        i = 1 + k % fixed
        served = run.timed("discover", engine.discover, request(state, i))
        run.samples["discover.key"].append(i)
        run.samples["discover.raw.key"].append(i)
        with run.tracer.span("bench.check"):
            check_run(run, state, served, i, verify=k < 4)
        run.counts["core.queries"] += served.result.queries
        if k < fixed:
            run.samples["utility"].append(served.result.utility)
            digests[i] = digest_result(served.result)
        else:
            run.op(digest_result(served.result) == digests[i],
                   f"request {i}: the same request gave a different result")
        k += 1
    return digests


def measure(run, state) -> None:
    untraced_loop(run, state, run.seconds)
    finish(run, state)


def finish(run, state) -> None:
    typical = run.put_median("op_p50_ms", "discover", 1e3)
    run.put_median("obs.raw_op_p50_ms", "discover.raw", 1e3)
    times = run.samples["discover"]
    run.put("work_per_s", run.counts["core.queries"] / len(times) / typical,
            len(times))
    run.digests["result"] = hashlib.blake2b(
        repr(run.samples["utility"]).encode("utf-8"), digest_size=12
    ).hexdigest()


# ----------------------------------------------------------------------
# Traced pass
# ----------------------------------------------------------------------
def replay_utility(run, task, table) -> float:
    """``RegressionTask.utility`` re-enacted with a span around each call
    into ``repro.ml`` (public functions only; must return the task's own
    value, which the caller checks)."""
    span = run.tracer.span
    with span("tasks.utility_replay", "tasks"):
        features = [
            c for c in table.column_names
            if c != task.target_column and c not in task.exclude_columns
        ]
        with span("ml.prepare_features"):
            x = prepare_features(table, features)
        y = to_float_array(table.column(task.target_column))
        mask = ~np.isnan(y)
        x, y = x[mask], y[mask]
        lo, hi = float(y.min()), float(y.max())
        y_norm = (y - lo) / (hi - lo)
        ratios = []
        for split in range(task.n_splits):
            x_tr, x_te, y_tr, y_te = train_test_split(
                x, y_norm, test_fraction=task.test_fraction, seed=task.seed + split
            )
            model = RandomForestRegressor(
                n_estimators=task.n_estimators, max_depth=task.max_depth,
                seed=task.seed + split,
            )
            with span("ml.forest_fit"):
                model.fit(x_tr, y_tr)
            with span("ml.forest_predict"):
                predicted = model.predict(x_te)
            mae = mean_absolute_error(y_te, predicted)
            baseline = mean_absolute_error(y_te, np.full_like(y_te, float(y_tr.mean())))
            ratios.append(mae / baseline if baseline > 0 else 1.0)
        value = 1.0 - sum(ratios) / len(ratios)
        return round(round(min(1.0, max(0.0, value)) / task.quantum) * task.quantum, 10)


def trace(run, state) -> None:
    fixed = state["fixed"]
    engine, base, tracer = state["engine"], state["base"], run.tracer
    span = tracer.span
    with span("bench.untraced_pass"):
        reference = untraced_loop(run, state, run.seconds / 3)

    # (a) the same requests through engine.discover with the task behind
    # a proxy, each followed by (b) the search alone — Metam.run on the
    # same prepared set, augmentations behind proxies too — so that the
    # difference of the pair is what the engine adds.
    proxy = TracedTask(state["task"], run)
    prepared = engine.prepare(base, seed=0)
    proxied = traced_candidates(prepared, run)
    rounds = []
    deadline = now() + run.seconds / 2
    k = 0
    while k < fixed or now() < deadline:
        i = 1 + k % fixed
        run.probe(force=False)
        with span("api.discover"):
            served = engine.discover(request(state, i, task=proxy))
        run.probe()
        run.op(digest_result(served.result) == reference[i],
               f"request {i}: traced result differs from untraced")
        if k < fixed:
            search = Metam(proxied, base, engine.corpus, proxy, config(i))
            search.on_round = lambda *_args: rounds.append(1)
            with span("core.metam_run"):
                result = search.run()
            run.probe()
            run.op(digest_result(result) == reference[i],
                   f"request {i}: direct Metam.run differs from engine.discover")
        k += 1
    traced_requests = k
    profiles = np.vstack([c.profile_vector for c in prepared])
    with span("core.cluster_partition"):
        clusters = cluster_partition(profiles, 0.1, seed=inputs.stream(1, 5))

    # (c) the task alone: captured tables through the ml layer's calls.
    true_task = state["true_task"]
    for table, value in proxy.captured:
        run.probe(force=False)
        replayed = replay_utility(run, true_task, table)
        run.probe()
        if run.inject != "wrong-utility":
            run.op(abs(replayed - value) < 1e-9,
                   "ml replay does not reproduce the task's utility")

    # (d) small API costs, timed one by one.
    run.micro("prepare_hit", lambda: engine.prepare(base, seed=0), 200)
    last = engine.discover(request(state, 1))
    lookup = dict(engine.corpus)
    lookup[base.name] = base
    payload = {
        "base": base.name, "task": "regression",
        "task_options": {"target_column": "rent", "exclude_columns": ["zipcode"]},
        "searcher": "metam", "prepare_seed": 0,
        "config": {"theta": 0.9, "query_budget": BUDGET, "epsilon": 0.1, "seed": 1},
    }
    run.micro("wire_encode", lambda: run_to_wire(last), 50)
    run.micro("wire_decode", lambda: request_from_wire(payload, lookup), 50)

    finish(run, state)
    discovers = tracer.durations("api.discover")
    run.samples["traced_main"] = discovers
    run.samples["traced_main.key"] = [1 + k % fixed for k in range(traced_requests)]
    run.samples["untraced_main"] = run.samples["discover"]
    run.samples["untraced_main.key"] = run.samples["discover.key"]
    first = state["first_s"]
    run.put("api.first_discover_ms",
            (first[1] - first[0]) * run.speed.factor(*first) * 1e3)
    direct = tracer.durations("core.metam_run")
    run.put("api.discover_overhead_ms",
            statistics.median(
                a - b for a, b in zip(discovers[:fixed], direct, strict=True)
            ) * 1e3, fixed)
    run.put_median("api.prepare_hit_p50_us", "prepare_hit", 1e6)
    run.put_median("api.wire_encode_p50_ms", "wire_encode", 1e3)
    run.put_median("api.wire_decode_p50_ms", "wire_decode", 1e3)
    stats = engine.stats()
    run.put("api.prepare_cache_hits", stats["prepare_cache_hits"])
    run.put("api.prepare_cache_misses", stats["prepare_cache_misses"])
    run.put("api.result_cache_hits", stats["result_cache_hits"])
    run.put("discovery.candidates", state["n_candidates"])

    utility_calls = tracer.calls("tasks.utility")
    run.put("tasks.utility_s", tracer.total("tasks.utility") / (traced_requests + fixed),
            utility_calls)
    run.put("tasks.utility_calls", utility_calls / (traced_requests + fixed))
    values = tracer.durations("tasks.utility")
    run.put("tasks.utility_p50_ms", statistics.median(values) * 1e3, len(values))
    replays = max(1, tracer.calls("tasks.utility_replay"))
    run.put_span("ml.prepare_features_s", "ml.prepare_features", per=replays)
    run.put_span("ml.forest_fit_s", "ml.forest_fit", per=replays)
    run.put_span("ml.forest_predict_s", "ml.forest_predict", per=replays)
    run.put("tasks.utility_unattributed_s",
            tracer.self_total("tasks.utility_replay") / replays, replays)
    run.put_span("dataframe.apply_s", "dataframe.apply", per=fixed)
    run.put("dataframe.apply_calls", tracer.calls("dataframe.apply") / fixed)
    run.put("core.search_self_s", tracer.self_total("core.metam_run") / fixed, fixed)
    queries = BUDGET * fixed
    run.put("core.self_us_per_query",
            tracer.self_total("core.metam_run") * 1e6 / queries, queries)
    run.put_span("core.cluster_partition_s", "core.cluster_partition")
    run.put("core.clusters", clusters.n_clusters)
    run.put("core.queries", BUDGET)
    run.put("core.rounds", len(rounds) / fixed)
    run.put("core.final_utility_mean", statistics.mean(run.samples["utility"]), fixed)
