"""search-scale: the searcher alone, over a large profiled candidate set.

Fig. 6's axis.  The oracle is an O(#columns) set-membership test, so all
of a run's time is ``repro.core`` (quality scoring, clustering, lazy
homogeneity, Thompson groups).  The only workload where a ``core`` change
is visible; ``ml``, ``discovery`` and ``catalog`` changes must predict
"no change" here.
"""

from __future__ import annotations

import hashlib
import statistics

import numpy as np

from repro import DiscoveryEngine, DiscoveryRequest, Metam, MetamConfig
from repro.core.clustering import cluster_partition

from benchmarks.spine import inputs
from benchmarks.spine.harness import now
from benchmarks.spine.proxies import TracedTask, digest_result, traced_candidates

FIXED = 6
#: Cluster radius.  At the paper's 0.05 to 0.1 these uniform profiles
#: fall into ~660 near-singleton clusters, a round (one query per
#: cluster) outlasts the budget and nothing is ever committed; at 0.25
#: there are ~60 clusters, rounds complete and the planted set is found.
EPSILON = 0.25


def config(state, i: int) -> MetamConfig:
    return MetamConfig(theta=1.0, query_budget=state["budget"], epsilon=EPSILON,
                       run_minimality=False, seed=i)


def search(state, i: int):
    return state["engine"].discover(
        DiscoveryRequest(
            base=state["base"], task=state["task"], searcher="metam",
            config=config(state, i), candidates=state["candidates"],
        )
    ).result


def setup(run) -> dict:
    state = inputs.planted_search(run.seed, run.scaled(600, 60))
    state["budget"] = run.scaled(200, 30)
    state["fixed"] = run.scaled(FIXED, 2)
    h = hashlib.blake2b(digest_size=12)
    for c in state["candidates"]:
        h.update(c.aug_id.encode("utf-8"))
        h.update(repr(c.overlap).encode("utf-8"))
        h.update(c.profile_vector.tobytes())
    run.digests["inputs"] = h.hexdigest()
    state["engine"] = DiscoveryEngine(corpus=state["corpus"])
    search(state, 0)  # discarded first run
    return state


def teardown(run, state) -> None:
    state["engine"].shutdown()


def check(run, state, result, i: int) -> None:
    steps = [best for _step, best in result.trace]
    run.op(
        result.queries <= state["budget"]
        and steps == sorted(steps)
        and 0.0 <= result.utility <= 0.75,
        f"seed {i}: budget, monotone trace or reachable utility violated",
    )


def untraced_loop(run, state, seconds: float) -> dict:
    """Search seeds 1..FIXED round and round until the time is up (the
    cost of a search depends on its seed, so every run must time the same
    mix); returns the result digests by seed."""
    fixed = state["fixed"]
    digests = {}
    deadline = now() + seconds
    k = 0
    while k < fixed or now() < deadline:
        i = 1 + k % fixed
        result = run.timed("search", search, state, i)
        run.samples["search.key"].append(i)
        run.samples["search.raw.key"].append(i)
        check(run, state, result, i)
        run.counts["core.queries"] += result.queries
        if k < fixed:
            run.samples["utility"].append(result.utility)
            digests[i] = digest_result(result)
        else:
            run.op(digest_result(result) == digests[i],
                   f"seed {i}: the same search gave a different result")
        k += 1
    return digests


def measure(run, state) -> None:
    untraced_loop(run, state, run.seconds)
    finish(run, state)


def finish(run, state) -> None:
    typical = run.put_median("op_p50_ms", "search", 1e3)
    run.put_median("obs.raw_op_p50_ms", "search.raw", 1e3)
    times = run.samples["search"]
    run.put("work_per_s", run.counts["core.queries"] / len(times) / typical,
            len(times))
    run.digests["result"] = hashlib.blake2b(
        repr(run.samples["utility"]).encode("utf-8"), digest_size=12
    ).hexdigest()


def trace(run, state) -> None:
    fixed = state["fixed"]
    tracer = run.tracer
    span = tracer.span
    with span("bench.untraced_pass"):
        reference = untraced_loop(run, state, run.seconds / 3)
    proxy = TracedTask(state["task"], run, keep=0)
    proxied = traced_candidates(state["candidates"], run)
    rounds = []
    queries = 0
    deadline = now() + run.seconds * 2 / 3
    runs = 0
    while runs < fixed or now() < deadline:
        i = 1 + runs % fixed
        searcher = Metam(proxied, state["base"], state["corpus"], proxy, config(state, i))
        searcher.on_round = lambda *_args: rounds.append(1)
        run.probe(force=False)
        with span("core.metam_run"):
            result = searcher.run()
        run.probe()
        queries += result.queries
        run.op(digest_result(result) == reference[i],
               f"seed {i}: traced result differs from untraced")
        runs += 1
    profiles = np.vstack([c.profile_vector for c in state["candidates"]])
    with span("core.cluster_partition"):
        clusters = cluster_partition(profiles, EPSILON, seed=inputs.stream(1, 5))

    finish(run, state)
    run.samples["traced_main"] = tracer.durations("core.metam_run")
    run.samples["traced_main.key"] = [1 + k % fixed for k in range(runs)]
    run.samples["untraced_main"] = run.samples["search"]
    run.samples["untraced_main.key"] = run.samples["search.key"]
    run.put("core.search_self_s", tracer.self_total("core.metam_run") / runs, runs)
    run.put("core.self_us_per_query",
            tracer.self_total("core.metam_run") * 1e6 / queries, queries)
    run.put_span("core.cluster_partition_s", "core.cluster_partition")
    run.put("core.clusters", clusters.n_clusters)
    run.put("core.queries", queries / runs)
    run.put("core.rounds", len(rounds) / runs)
    run.put("core.final_utility_mean", statistics.mean(run.samples["utility"]), fixed)
    run.put("discovery.candidates", len(state["candidates"]))
    run.put_span("tasks.utility_s", "tasks.utility", per=runs)
    run.put("tasks.utility_calls", tracer.calls("tasks.utility") / runs)
    values = tracer.durations("tasks.utility")
    run.put("tasks.utility_p50_ms", statistics.median(values) * 1e3, len(values))
    run.put_span("dataframe.apply_s", "dataframe.apply", per=runs)
    run.put("dataframe.apply_calls", tracer.calls("dataframe.apply") / runs)
