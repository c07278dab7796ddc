"""serve-mixed: two tenants against the HTTP service, novel runs and replays.

``server`` + ``api`` under concurrency: admission, fair dispatch, event
fan-in, wire encoding, result-cache replay, quota refusal.  Half the
terminal runs are replays, whose whole cost is the service path, so a
``server``/``api.wire`` change shows in the replay latency and a lock or
GIL change in the served-runs rate.  Closed loop, two clients (= nproc),
one connection each at a time.

The quota is a burst with no refill, so a tenant can make exactly its
legitimate submissions; the time-bounded loop therefore runs in rounds,
each with two fresh tenants that end by being refused three times each.

The interpreter is pinned to one CPU (see :func:`pin_to_one_cpu`).
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import re
import statistics
import threading
import time

from repro import DiscoveryEngine
from repro.api.wire import request_from_wire, run_to_wire
from repro.server import DiscoveryService, ServiceConfig, serve

from benchmarks.spine import inputs
from benchmarks.spine.harness import now, peak_rss_mb

TRACE_ROOT = "tenant"
TENANTS = ("acme", "globex")
RUNS = 3           # novel runs per tenant and round, each followed by a replay
OVER_QUOTA = 3     # refused submissions per tenant and round
BUDGET = 3
CHECKED = 4        # served records compared with in-process discover()
RSS_ROUNDS = 20    # peak RSS is read after this many rounds; every run makes them


def payload(base_name: str, seed: int) -> dict:
    return {
        "base": base_name, "task": "regression",
        # A small forest: the novel runs are there to load the service
        # with concurrent work, not to measure the fit (warm-discover does).
        "task_options": {"target_column": "rent", "exclude_columns": ["zipcode"],
                         "n_estimators": 3, "max_depth": 4, "n_splits": 1},
        "searcher": "metam", "theta": 0.9, "query_budget": BUDGET,
        "seed": seed, "prepare_seed": 0,
    }


def call(state, method: str, path: str, body=None):
    """One request on its own connection → (status, json or text, headers)."""
    conn = http.client.HTTPConnection(state["host"], state["port"], timeout=60)
    try:
        data = None if body is None else json.dumps(body)
        headers = {"Content-Type": "application/json"} if data else {}
        conn.request(method, path, body=data, headers=headers)
        response = conn.getresponse()
        raw = response.read()
        if response.headers.get("Content-Type", "").startswith("application/json"):
            raw = json.loads(raw)
        return response.status, raw, response.headers
    finally:
        conn.close()


def stream_to_end(state, run_id: str):
    """Read a run's SSE stream → (last event kind, seconds to first event)."""
    conn = http.client.HTTPConnection(state["host"], state["port"], timeout=60)
    start = now()
    first = None
    last = None
    try:
        conn.request("GET", f"/v1/runs/{run_id}/events")
        response = conn.getresponse()
        for line in response:
            if line.startswith(b"event:"):
                last = line[6:].strip().decode("utf-8")
                if first is None:
                    first = now() - start
    finally:
        conn.close()
    return last, first


def pin_to_one_cpu() -> None:
    """Keep this interpreter, server and load threads alike, on one CPU.

    Clients, connection handlers and engine workers are eight threads
    taking turns at one interpreter lock.  Spread over two CPUs every
    hand-over of the lock crosses to the other CPU, and how the scheduler
    places the threads from second to second decides what is measured:
    a round took 0.19 to 0.54 s within one run and its median moved by
    0.15 between identical runs.  On one CPU the same round takes 0.18 s,
    0.04 apart within a run and 0.03 between runs.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def setup(run) -> dict:
    pin_to_one_cpu()
    scenario = inputs.rental_scenario(run.seed, run.scaled(60, 10))
    run.digests["inputs"] = inputs.digest_recipes(
        scenario["corpus"] + [scenario["base"]]
    )
    corpus = inputs.make_tables(scenario["corpus"])
    base = inputs.make_table(scenario["base"])

    def factory(metrics=None):
        engine = DiscoveryEngine(corpus=corpus, metrics=metrics, max_workers=2,
                                 result_cache_bytes=8 << 20)
        engine.prepare(base, seed=0)  # every run shares this prepared set
        return engine

    service = DiscoveryService(
        {"bench": factory},
        bases={"bench": {base.name: base}},
        config=ServiceConfig(tenant_rate=0.0, tenant_burst=float(2 * RUNS),
                             max_queue_depth=64),
    )
    server = serve(service)
    host, port = server.server_address[:2]
    state = {
        "server": server, "host": host, "port": port, "corpus": corpus,
        "base": base, "round": 0, "served": {}, "lock": threading.Lock(),
    }
    # The discarded first run: builds the engine, warms every code path.
    _, body, _ = call(state, "POST", "/v1/sessions", {"tenant": "warmup"})
    _, body, _ = call(state, "POST", "/v1/runs", {
        "session": body["session"]["session_id"],
        "request": payload(base.name, 999_999),
    })
    stream_to_end(state, body["run"]["run_id"])
    return state


def teardown(run, state) -> None:
    state["server"].drain(timeout=30)


def tenant_round(run, state, round_no: int, tenant_no: int, poll: bool) -> None:
    """One tenant's share of a round (runs on its own thread)."""
    span = run.tracer.span
    samples = state["round_samples"]
    base_name = state["base"].name
    with span("tenant", "bench"):
        _, body, _ = call(state, "POST", "/v1/sessions",
                          {"tenant": f"{TENANTS[tenant_no]}-{round_no}"})
        session = body["session"]["session_id"]

        def submit(seed: int):
            start = now()
            with span("server.submit"):
                status, body, headers = call(
                    state, "POST", "/v1/runs",
                    {"session": session, "request": payload(base_name, seed)},
                )
            samples.append(("submit", start, now()))
            return start, status, body, headers

        def finish_run(kind: str, start: float, run_id: str, polled: bool):
            if polled:
                state_name = None
                while state_name not in ("completed", "cancelled", "failed"):
                    t0 = now()
                    with span("server.status"):
                        _, body, _ = call(state, "GET", f"/v1/runs/{run_id}")
                    samples.append(("status", t0, now()))
                    state_name = body["run"]["state"]
                    time.sleep(0.002)
                terminal = state_name == "completed"
            else:
                with span("server.sse"):
                    last, first = stream_to_end(state, run_id)
                terminal = last == "run-completed"
                if first is not None:
                    samples.append(("sse_first", start, start + first))
            samples.append((kind, start, now()))
            run.op(terminal, f"{kind} run {run_id}: no terminal event")
            t0 = now()
            with span("server.status"):
                status, body, _ = call(state, "GET", f"/v1/runs/{run_id}")
            samples.append(("status", t0, now()))
            return body["run"].get("record") if status == 200 else None

        for j in range(RUNS):
            seed = 100_000 * round_no + 1_000 * tenant_no + j
            start, status, body, _ = submit(seed)
            if not run.op(status == 202, f"novel submission refused: {status}"):
                continue
            polled = poll and j % 2 == 1
            record = finish_run("novel_polled" if polled else "novel", start,
                                body["run"]["run_id"], polled)
            run.op(record is not None and record["cached"] is False,
                   "novel run has no record or was served from the cache")
            if record is not None and round_no == 0 and tenant_no == 0:
                with state["lock"]:
                    state["served"][seed] = record["result"]
            start, status, body, _ = submit(seed)
            if not run.op(status == 202, f"replay submission refused: {status}"):
                continue
            record = finish_run("replay", start, body["run"]["run_id"], polled=False)
            run.op(record is not None and record["cached"] is True,
                   "replayed run is not flagged cached")
        for k in range(OVER_QUOTA):
            _, status, _, headers = submit(900_000 + k)
            ok = status == 429 and "Retry-After" in headers
            run.op(ok, f"over-quota submission got {status}, not 429 + Retry-After")
            if ok:
                with state["lock"]:
                    run.counts["server.rejected_429"] += 1


def one_round(run, state, poll: bool = False) -> None:
    round_no = state["round"]
    state["round"] += 1
    state["round_samples"] = []
    run.probe(force=False)
    start = now()
    threads = [
        threading.Thread(target=tenant_round, args=(run, state, round_no, t, poll))
        for t in range(len(TENANTS))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    end = now()
    # The server is idle again: probes taken here bracket the round, and
    # one factor serves every operation in it.  On a quiet box that costs
    # nothing (rounds within a run spread 0.04 raw and normalised); on a
    # drifting one it is what works: 0.07 to 0.21 against 0.19 to 0.30 raw.
    run.probe()
    factor = run.speed.factor(start, end)
    run.samples["round"].append((end - start) * factor)
    run.samples["round.raw"].append(end - start)
    for kind, t0, t1 in state["round_samples"]:
        run.samples[kind].append((t1 - t0) * factor)
        if kind == "novel":
            run.samples["novel.raw"].append(t1 - t0)
    run.counts["rounds"] += 1


def check_fidelity(run, state) -> None:
    """Served records against a fresh in-process engine, byte for byte."""
    engine = DiscoveryEngine(corpus=state["corpus"])
    lookup = dict(engine.corpus)
    lookup[state["base"].name] = state["base"]
    try:
        for seed, served in sorted(state["served"].items())[:CHECKED]:
            local = run_to_wire(
                engine.discover(request_from_wire(
                    payload(state["base"].name, seed), lookup))
            )["result"]
            run.op(
                json.dumps(served, sort_keys=True) == json.dumps(local, sort_keys=True),
                f"served record for seed {seed} differs from in-process discover()",
            )
    finally:
        engine.shutdown()
    run.digests["result"] = hashlib.blake2b(
        json.dumps(state["served"], sort_keys=True).encode("utf-8"), digest_size=12
    ).hexdigest()


def measure(run, state) -> None:
    deadline = now() + run.seconds
    fixed = run.scaled(RSS_ROUNDS, 1)
    while state["round"] < fixed or now() < deadline:
        one_round(run, state)
        if state["round"] == fixed:
            # The service keeps every run's record and the result cache
            # fills, so memory grows with the runs served — with the speed
            # of the box (95.6 MB after 1392 operations, 104.4 MB after
            # 3282).  Read after a fixed amount of work instead.
            run.put("peak_rss_mb", peak_rss_mb())
    check_fidelity(run, state)
    finish(run, state)


def served_per_s(run) -> float:
    """Terminal runs (novel + replay) per second of a round's wall clock."""
    return 2 * RUNS * len(TENANTS) / statistics.median(run.samples["round"])


def finish(run, state) -> None:
    run.put_median("op_p50_ms", "novel", 1e3)
    run.put_median("obs.raw_op_p50_ms", "novel.raw", 1e3)
    run.put("work_per_s", served_per_s(run), len(run.samples["round"]))
    expected = OVER_QUOTA * len(TENANTS) * run.counts["rounds"]
    run.op(run.counts["server.rejected_429"] == expected,
           f"{run.counts['server.rejected_429']:.0f} refusals, expected {expected:.0f}")


def trace(run, state) -> None:
    with run.tracer.span("bench.untraced_pass"):
        deadline = now() + run.seconds / 3
        while state["round"] < 1 or now() < deadline:
            one_round(run, state)
    untraced = list(run.samples["novel"])
    deadline = now() + run.seconds * 2 / 3
    first = True
    while first or now() < deadline:
        one_round(run, state, poll=True)
        first = False
    with run.tracer.span("bench.check"):
        check_fidelity(run, state)
    finish(run, state)

    run.samples["untraced_main"] = untraced
    run.samples["traced_main"] = run.samples["novel"][len(untraced):]
    run.put("server.served_runs_per_s", served_per_s(run),
            len(run.samples["round"]))
    run.put_median("server.run_latency_p50_ms", "novel", 1e3)
    run.put_median("server.replay_latency_p50_ms", "replay", 1e3)
    run.put_median("server.submit_p50_ms", "submit", 1e3)
    run.put_median("server.status_p50_ms", "status", 1e3)
    run.put_percentile("server.status_p95_ms", "status", 0.95, 1e3)
    run.put_median("server.sse_first_event_p50_ms", "sse_first", 1e3)
    # Six per round; per round so that runs of different length compare.
    run.put("server.rejected_429",
            run.counts["server.rejected_429"] / run.counts["rounds"])
    _, text, _ = call(state, "GET", "/metrics")
    text = text.decode("utf-8") if isinstance(text, bytes) else str(text)
    total = sum(float(v) for v in re.findall(
        r"^repro_server_queue_wait_seconds_sum\{[^}]*\} (\S+)$", text, re.M))
    count = sum(float(v) for v in re.findall(
        r"^repro_server_queue_wait_seconds_count\{[^}]*\} (\S+)$", text, re.M))
    run.put("server.queue_wait_mean_ms", 1e3 * total / count if count else 0.0,
            int(count))
    hits = sum(float(v) for v in re.findall(
        r'^repro_engine_result_cache_events_total\{[^}]*event="hit"[^}]*\} (\S+)$', text, re.M))
    run.put("api.result_cache_hits", hits)
    run.put("core.queries", BUDGET)
    run.put("core.final_utility_mean", statistics.mean(
        record["utility"] for record in state["served"].values()
    ), len(state["served"]))
