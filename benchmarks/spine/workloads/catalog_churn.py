"""catalog-churn: build a store, churn the corpus, refresh it, warm-start from it.

Uses the ``catalog`` layer both ways — writes (sign, encode, shard
manifests, leases) beside reads (load, snapshot hydrate, lazy entry
paging, profile-cache hits) — so a codec or layout change that buys
reads at the cost of writes, or either at the cost of bytes, shows in one
place.  Default backend, codec and hash only.
"""

from __future__ import annotations

import os
import shutil
import statistics

from repro import Catalog, CatalogStore, DiscoveryEngine
from repro.catalog import table_fingerprint
from repro.discovery.candidates import (
    generate_candidates,
    materialize_candidates,
    profile_candidates,
)
from repro.obs.metrics import MetricsRegistry
from repro.profiles.registry import default_registry

from benchmarks.spine import inputs
from benchmarks.spine.harness import now
from benchmarks.spine.workloads.cold_prepare import SPEC, digest_candidates

#: The round after which the store is verified and the warm start is
#: compared with a cold prepare; every pass runs at least this many.
FIXED = 3


class Churn:
    """The corpus round by round: each round replaces 2 % of the tables,
    removes 1 % and adds 1 %.

    Which tables are touched is the same for every seed (a table's shape
    goes with its index, so the seed must not choose the indices); the
    seed decides what the replaced and added tables contain.
    """

    def __init__(self, n_tables: int, seed: int):
        self.seed = seed
        self.share = lambda pct: max(1, n_tables * pct // 100)
        self.current = {i: inputs.portal_table(i, seed) for i in range(n_tables)}
        self.next_index = n_tables
        self.round = 0
        self._rng = inputs.stream(0, 6)

    def recipes(self) -> list:
        return list(self.current.values())

    def advance(self) -> list:
        self.round += 1
        picks = self._rng.permutation(sorted(self.current)).tolist()
        replaced = picks[: self.share(2)]
        removed = picks[self.share(2): self.share(2) + self.share(1)]
        for index in replaced:
            self.current[index] = inputs.portal_table(index, self.seed, self.round)
        for index in removed:
            del self.current[index]
        for _ in range(self.share(1)):
            self.current[self.next_index] = inputs.portal_table(
                self.next_index, self.seed
            )
            self.next_index += 1
        return self.recipes()


def build(store_dir: str, tables) -> Catalog:
    catalog = Catalog(CatalogStore(store_dir))
    catalog.refresh(tables)
    catalog.save()
    return catalog


def incremental(store_dir: str, tables):
    catalog = Catalog.load(store_dir)
    diff = catalog.refresh(tables)
    catalog.save()
    return catalog, diff


def warm_start(store_dir: str, tables, base) -> list:
    """What a new process does first: open the store, attach the corpus
    (fresh ``Table`` objects), prepare."""
    engine = DiscoveryEngine.open(store_dir, create=False).attach_corpus(tables)
    try:
        return engine.prepare(base, SPEC)
    finally:
        engine.shutdown()


def store_bytes(store_dir: str) -> int:
    return sum(
        os.path.getsize(os.path.join(folder, name))
        for folder, _dirs, names in os.walk(store_dir)
        for name in names
    )


def corrupt_one_object(store_dir: str) -> None:
    """The injected fault: overwrite the middle of one stored object."""
    objects = os.path.join(store_dir, "objects")
    for folder, _dirs, names in sorted(os.walk(objects)):
        for name in sorted(names):
            if name.endswith(".bin"):
                path = os.path.join(folder, name)
                size = os.path.getsize(path)
                with open(path, "r+b") as handle:
                    handle.seek(size // 2)
                    handle.write(b"\xff" * 16)
                return


def setup(run) -> dict:
    n_tables = run.scaled(80, 16)
    churn = Churn(n_tables, run.seed)
    base = inputs.join_base(run.seed)
    preview = Churn(n_tables, run.seed)
    run.digests["inputs"] = inputs.digest_recipes(
        preview.recipes()
        + [r for _ in range(2 * FIXED) for r in preview.advance()]
        + [base]
    )
    store_dir = os.path.join(run.workdir, "churn-store")
    shutil.rmtree(store_dir, ignore_errors=True)
    start = now()
    catalog = build(store_dir, inputs.make_tables(churn.recipes()))
    state = {
        "fixed": run.scaled(FIXED, 1),
        "n_tables": n_tables, "churn": churn, "base": base,
        "store_dir": store_dir, "build_s": (start, now()),
        "columns_signed": catalog.computed_columns,
    }
    if run.inject == "corrupt-store":
        corrupt_one_object(store_dir)
    # The first prepare fills the profile cache (and is the discarded
    # first repetition); the warm starts of the rounds are steady state.
    start = now()
    warm_start(store_dir, inputs.make_tables(churn.recipes()),
               inputs.make_table(base))
    state["first_prepare_s"] = (start, now())
    return state


def teardown(run, state) -> None:
    shutil.rmtree(state["store_dir"], ignore_errors=True)


def one_round(run, state) -> None:
    """Two churn steps (churn → load+refresh+save → gc), then a warm
    start on a fresh engine.  Two writes per read, because a write takes a
    third of a read's time and needs as many samples to be as steady."""
    store_dir, churn = state["store_dir"], state["churn"]
    for _ in range(2):
        recipes = churn.advance()
        catalog, diff = run.timed(
            "refresh", incremental, store_dir, inputs.make_tables(recipes)
        )
        run.op(
            (len(diff.updated), len(diff.added), len(diff.removed))
            == (churn.share(2), churn.share(1), churn.share(1)),
            f"step {churn.round}: refresh saw {diff.summary()}, not the planned churn",
        )
        run.timed("gc", catalog.gc)
    candidates = run.timed(
        "warm_start", warm_start, store_dir, inputs.make_tables(recipes),
        inputs.make_table(state["base"]),
    )
    run.counts["live_tables"] = len(recipes)
    if churn.round == 2 * state["fixed"]:
        with run.tracer.span("bench.check"):
            check_store(run, state, recipes, candidates)


def check_store(run, state, recipes, candidates) -> None:
    store_dir = state["store_dir"]
    run.counts["store_bytes_per_table"] = store_bytes(store_dir) / len(recipes)
    report = run.timed("verify", lambda: Catalog.load(store_dir).verify())
    run.op(report["problems"] == [],
           f"verify reported {len(report['problems'])} problem(s): "
           f"{report['problems'][:1]}")
    reopened = run.timed("refresh_noop", Catalog.load, store_dir,
                         inputs.make_tables(recipes))
    run.op(reopened.computed_columns == 0,
           f"no-op refresh signed {reopened.computed_columns} column(s)")
    state["cold_reference"] = digest_candidates(
        DiscoveryEngine(inputs.make_tables(recipes)).prepare(
            inputs.make_table(state["base"]), SPEC
        )
    )
    run.op(digest_candidates(candidates) == state["cold_reference"],
           "warm-start candidates differ from a catalog-less cold prepare")


def untraced_loop(run, state, seconds: float) -> None:
    deadline = now() + seconds
    while state["churn"].round < 2 * state["fixed"] or now() < deadline:
        one_round(run, state)


def measure(run, state) -> None:
    untraced_loop(run, state, run.seconds)
    finish(run, state)


def finish(run, state) -> None:
    run.put_median("op_p50_ms", "warm_start", 1e3)
    run.put_median("obs.raw_op_p50_ms", "warm_start.raw", 1e3)
    # Tables served by a warm start per second.  The write path is not in
    # an end-to-end metric of its own: it is mostly file-system calls (a
    # shard-manifest rewrite per table, changed or not) whose cost on
    # this box varies by a factor of two between runs (spread 0.3, over
    # the cap on bounds); it is reported per layer
    # (catalog.refresh_p50_ms) and, as the store build, is most of
    # setup_s.
    run.put("work_per_s",
            run.counts["live_tables"] / statistics.median(run.samples["warm_start"]),
            len(run.samples["warm_start"]))
    run.digests["result"] = state["cold_reference"]


# ----------------------------------------------------------------------
# Traced pass
# ----------------------------------------------------------------------
def staged_warm_start(run, state, store_dir: str) -> None:
    """A warm start replayed through the layers' public functions — what
    ``engine.prepare`` does with a catalog attached."""
    span = run.tracer.span
    tables = inputs.make_tables(state["churn"].recipes())
    by_name = {t.name: t for t in tables}
    base = inputs.make_table(state["base"])
    registry = default_registry()
    run.probe(force=False)
    with span("catalog.warm_start_staged", "trace"):
        with span("catalog.load"):
            catalog = Catalog.load(store_dir)
        with span("catalog.refresh_noop"):
            catalog.refresh(by_name)
        with span("profiles.cache_open"):
            cache = catalog.profile_cache(base, registry,
                                          sample_size=SPEC.sample_size, seed=0)
        with span("discovery.generate_candidates"):
            augmentations = generate_candidates(
                base, catalog.index, max_hops=SPEC.max_hops,
                max_fanout=SPEC.max_fanout,
            )
        with span("dataframe.materialize"):
            candidates = materialize_candidates(base, augmentations, by_name)
        with span("profiles.compute"):
            profile_candidates(candidates, base, by_name, registry,
                               sample_size=SPEC.sample_size, seed=0, cache=cache)
    run.probe()
    run.counts["profiles.cache_hits"] = cache.hits
    run.counts["profiles.cache_misses"] = cache.misses
    run.counts["profiles.vectors"] = len(candidates)
    run.counts["discovery.candidates"] = len(candidates)
    run.counts["dataframe.materialize_calls"] = len(augmentations)
    run.counts["discovery.join_paths"] = len({str(a.path) for a in augmentations})
    run.counts["discovery.columns_indexed"] = catalog.index.num_indexed_columns
    with span("bench.check"):
        run.op(digest_candidates(candidates) == digest_candidates(
            warm_start(store_dir, inputs.make_tables(state["churn"].recipes()),
                       inputs.make_table(state["base"]))),
            "staged warm start differs from engine.prepare on the same store")


def staged_catalog_ops(run, state) -> dict:
    """Every catalog operation once more, one span each, on a second
    store whose public metrics registry is attached and read afterwards."""
    span = run.tracer.span
    store_dir = os.path.join(run.workdir, "staged-store")
    registry = MetricsRegistry()
    churn = Churn(state["n_tables"], run.seed)
    tables = inputs.make_tables(churn.recipes())
    run.probe(force=False)
    with span("catalog.fingerprint"):
        for table in tables:
            table_fingerprint(table)
    store = CatalogStore(store_dir).attach_metrics(registry)
    catalog = Catalog(store)
    with span("catalog.refresh_full"):
        catalog.refresh(tables)
    with span("catalog.save"):
        catalog.save()
    run.probe()
    for _ in range(2 * state["fixed"]):
        tables = inputs.make_tables(churn.advance())
        store = CatalogStore(store_dir).attach_metrics(registry)
        with span("catalog.load"):
            catalog = Catalog.load(store)
        with span("catalog.refresh_incremental"):
            catalog.refresh(tables)
        with span("catalog.save"):
            catalog.save()
        with span("catalog.gc"):
            catalog.gc()
        run.probe()
    object_ids = store.list_objects()
    remaining = iter(object_ids)
    run.micro("read_object", lambda: store.read_object(next(remaining)),
              len(object_ids))
    with span("store.read_snapshot"):
        store.read_snapshot()
    with span("catalog.verify"):
        catalog.verify()
    run.probe()

    def total(name):
        family = registry.get(name)
        return sum(i.value for _labels, i in family.series()) if family else 0.0

    waits = registry.get("repro_store_lock_wait_seconds")
    counts = {
        "store.reads": total("repro_store_reads_total"),
        "store.writes": total("repro_store_writes_total"),
        "store.read_bytes": total("repro_store_read_bytes_total"),
        "store.write_bytes": total("repro_store_write_bytes_total"),
        "store.manifest_replays": total("repro_store_manifest_replays_total"),
        "store.lock_wait_s": (
            sum(i.sum for _labels, i in waits.series()) if waits else 0.0
        ),
    }
    disk = store_bytes(store_dir)
    counts["store.write_bytes_per_disk_byte"] = (
        counts["store.write_bytes"] / disk if disk else 0.0
    )
    shutil.rmtree(store_dir, ignore_errors=True)
    return counts


def trace(run, state) -> None:
    tracer = run.tracer
    # Untraced rounds first: end-to-end numbers, the reference digest,
    # and the store the staged warm starts read.
    with tracer.span("bench.untraced_pass"):
        untraced_loop(run, state, run.seconds / 2)
    deadline = now() + run.seconds / 4
    first = True
    while first or now() < deadline:
        staged_warm_start(run, state, state["store_dir"])
        first = False
    store_counts = staged_catalog_ops(run, state)
    finish(run, state)

    run.samples["traced_main"] = tracer.durations("catalog.warm_start_staged")
    run.samples["untraced_main"] = run.samples["warm_start"]
    staged = max(1, tracer.calls("catalog.warm_start_staged"))
    build_s = (state["build_s"][1] - state["build_s"][0]) * run.speed.factor(*state["build_s"])
    run.put("catalog.build_tables_per_s", state["n_tables"] / build_s)
    first_s = state["first_prepare_s"]
    run.put("api.first_discover_ms",
            (first_s[1] - first_s[0]) * run.speed.factor(*first_s) * 1e3)
    run.put_median("catalog.refresh_p50_ms", "refresh", 1e3)
    run.put_median("catalog.warm_start_p50_ms", "warm_start", 1e3)
    run.put("catalog.store_bytes_per_table", run.counts["store_bytes_per_table"])
    run.put_span("catalog.fingerprint_s", "catalog.fingerprint")
    run.put_span("catalog.refresh_full_s", "catalog.refresh_full")
    run.put_median("catalog.refresh_noop_ms", "refresh_noop", 1e3)
    for metric, name in (("catalog.save_ms", "catalog.save"),
                         ("catalog.load_ms", "catalog.load"),
                         ("catalog.gc_ms", "catalog.gc")):
        run.put_span(metric, name, per=tracer.calls(name), scale=1e3)
    run.put_span("catalog.verify_s", "catalog.verify")
    run.put("catalog.columns_signed", state["columns_signed"])
    run.put("catalog.warm_start_unattributed_s",
            tracer.self_total("catalog.warm_start_staged") / staged, staged)
    run.put_median("store.read_object_p50_us", "read_object", 1e6)
    run.put_span("store.read_snapshot_ms", "store.read_snapshot", scale=1e3)
    for name, value in store_counts.items():
        run.put(name, value)
    for metric, name in (
        ("discovery.generate_candidates_s", "discovery.generate_candidates"),
        ("dataframe.materialize_s", "dataframe.materialize"),
        ("profiles.compute_s", "profiles.compute"),
    ):
        run.put_span(metric, name, per=staged)
    for count in (
        "profiles.cache_hits", "profiles.cache_misses", "profiles.vectors",
        "discovery.candidates", "discovery.join_paths",
        "discovery.columns_indexed", "dataframe.materialize_calls",
    ):
        run.put_count(count)
