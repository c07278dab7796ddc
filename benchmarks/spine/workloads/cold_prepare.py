"""cold-prepare: index a portal corpus from nothing and prepare candidates.

``discovery`` + ``kernels`` + ``dataframe`` + ``profiles`` do all the
work; ``catalog``, ``ml``, ``core`` and ``server`` do none.  Every
repetition gets fresh ``Table`` objects: a reused corpus is about 40 %
faster because ``Table`` caches distinct sets on the object, and a user's
first prepare never has that cache.
"""

from __future__ import annotations

import hashlib
import statistics

import numpy as np

from repro import CandidateSpec, DiscoveryEngine, kernels
from repro.discovery.candidates import (
    generate_candidates,
    materialize_candidates,
    profile_candidates,
)
from repro.discovery.index import ColumnEntry, DiscoveryIndex
from repro.discovery.minhash import MinHasher
from repro.profiles.registry import default_registry

from benchmarks.spine import inputs
from benchmarks.spine.harness import now

SPEC = CandidateSpec(min_containment=0.3, max_hops=1, max_fanout=500)


def digest_candidates(candidates) -> str:
    """Digest of a prepared set: ids, overlaps, values, profile vectors."""
    h = hashlib.blake2b(digest_size=12)
    for c in candidates:
        h.update(repr((c.aug_id, c.overlap, c.values)).encode("utf-8"))
        h.update(np.asarray(c.profile_vector, dtype=float).tobytes())
    return h.hexdigest()


def fresh(state) -> tuple:
    return inputs.make_tables(state["corpus"]), inputs.make_table(state["base"])


def setup(run) -> dict:
    n_tables = run.scaled(150, 24)
    state = {
        "n_tables": n_tables,
        "corpus": inputs.portal_corpus(n_tables, run.seed),
        "base": inputs.join_base(run.seed),
    }
    run.digests["inputs"] = inputs.digest_recipes(
        state["corpus"] + [state["base"]]
    )
    # The discarded first repetition (imports, allocator, numpy set-up);
    # its result is the reference every later repetition must equal.
    corpus, base = fresh(state)
    state["reference"] = digest_candidates(
        DiscoveryEngine(corpus).prepare(base, SPEC)
    )
    return state


def teardown(run, state) -> None:
    pass


def one_prepare(run, state) -> None:
    corpus, base = fresh(state)
    candidates = run.timed(
        "prepare", lambda: DiscoveryEngine(corpus).prepare(base, SPEC)
    )
    run.counts["discovery.candidates"] = len(candidates)
    with run.tracer.span("bench.check"):
        run.op(
            digest_candidates(candidates) == state["reference"],
            "cold prepare result differs between repetitions",
        )


def measure(run, state) -> None:
    deadline = now() + run.seconds
    while len(run.samples["prepare"]) < 3 or now() < deadline:
        one_prepare(run, state)
    finish(run, state)


def finish(run, state) -> None:
    times = run.samples["prepare"]
    run.put_median("op_p50_ms", "prepare", 1e3)
    run.put_median("obs.raw_op_p50_ms", "prepare.raw", 1e3)
    run.put("work_per_s", state["n_tables"] / statistics.median(times), len(times))
    run.digests["result"] = state["reference"]


# ----------------------------------------------------------------------
# Traced pass: the same prepare, taken apart through public functions
# ----------------------------------------------------------------------
def staged_index(run, corpus) -> DiscoveryIndex:
    """``DiscoveryIndex.build`` replayed stage by stage.

    Same granularity as the library (one signing batch per table) and the
    same result: entries go in through ``add_table(entries=...)``, so the
    index is the real one, not a model of it.
    """
    span = run.tracer.span
    index = DiscoveryIndex(min_containment=SPEC.min_containment, seed=0)
    hasher = MinHasher(num_perm=index.num_perm, seed=0)
    for table in corpus:
        columns = table.column_names
        with span("discovery.distinct"):
            distincts = [table.distinct_values(c) for c in columns]
        with span("discovery.sign"):
            signatures = hasher.signatures(distincts)
        with span("discovery.normalize"):
            normalized = kernels.normalize_many(distincts)
        entries = {
            column: ColumnEntry(
                distinct=frozenset(distincts[i]),
                normalized=frozenset(normalized[i]),
                signature=signatures[i],
            )
            for i, column in enumerate(columns)
        }
        with span("discovery.lsh_insert"):
            index.add_table(table, entries=entries)
    return index


def traced_rep(run, state) -> None:
    span = run.tracer.span
    probe = run.probe
    with span("rep", "trace"):
        # (a) the engine's own prepare, one opaque span.
        corpus, base = fresh(state)
        probe()
        with span("api.prepare"):
            DiscoveryEngine(corpus).prepare(base, SPEC)
        probe()
        # (b) the same pipeline through the layers' public functions.
        corpus, base = fresh(state)
        by_name = {t.name: t for t in corpus}
        with span("prepare.staged", "trace"):
            with span("discovery.index_build"):
                index = DiscoveryIndex(
                    min_containment=SPEC.min_containment, seed=0
                ).build(corpus)
            with span("discovery.generate_candidates"):
                augmentations = generate_candidates(
                    base, index, max_hops=SPEC.max_hops, max_fanout=SPEC.max_fanout
                )
            with span("dataframe.materialize"):
                candidates = materialize_candidates(base, augmentations, by_name)
            with span("profiles.compute"):
                profile_candidates(
                    candidates, base, by_name, default_registry(),
                    sample_size=SPEC.sample_size, seed=0,
                )
        run.counts["discovery.join_paths"] = len(
            {str(a.path) for a in augmentations}
        )
        run.counts["dataframe.materialize_calls"] = len(augmentations)
        run.counts["profiles.vectors"] = len(candidates)
        run.counts["discovery.columns_indexed"] = index.num_indexed_columns
        with span("bench.check"):
            run.op(
                digest_candidates(candidates) == state["reference"],
                "staged prepare differs from engine.prepare",
            )
        # (c) the index build once more, stage by stage.
        corpus, _base = fresh(state)
        probe()
        with span("discovery.index_build_staged", "trace"):
            staged = staged_index(run, corpus)
        probe()
        run.op(
            staged.num_indexed_columns == index.num_indexed_columns,
            "staged index build indexed a different column count",
        )


def kernel_probes(run, state) -> None:
    """The four hot kernels, called directly on this workload's columns."""
    corpus, _base = fresh(state)
    columns = [t.column(c) for t in corpus for c in t.column_names]
    values = sum(len(c) for c in columns)
    distincts = run.timed(
        "k.distinct", lambda: [kernels.distinct_strings(c) for c in columns]
    )
    run.timed("k.infer", lambda: [kernels.infer_column_type(c) for c in columns])
    strings = [[str(v) for v in d] for d in distincts]
    hashes = run.timed("k.hash", lambda: [kernels.hash_strings(s, 1) for s in strings])
    rng = inputs.stream(0, 9)
    a = rng.integers(1, kernels.MERSENNE, size=64, dtype=np.uint64)
    b = rng.integers(0, kernels.MERSENNE, size=64, dtype=np.uint64)
    run.timed("k.minhash", kernels.minhash_many, hashes, a, b)
    seconds = lambda name: run.samples[name][-1]  # noqa: E731
    run.put("kernels.values", values)
    run.put("kernels.columns", len(columns))
    run.put("kernels.distinct_strings_ns_per_value", seconds("k.distinct") * 1e9 / values)
    run.put("kernels.infer_column_type_us_per_column",
            seconds("k.infer") * 1e6 / len(columns))
    run.put("kernels.hash_strings_ns_per_value",
            seconds("k.hash") * 1e9 / sum(len(s) for s in strings))
    run.put("kernels.minhash_many_us_per_column",
            seconds("k.minhash") * 1e6 / len(columns))


def trace(run, state) -> None:
    # A third of the time untraced, for the overhead comparison.
    deadline = now() + run.seconds / 3
    with run.tracer.span("bench.untraced_pass"):
        while len(run.samples["prepare"]) < 2 or now() < deadline:
            one_prepare(run, state)
    deadline = now() + run.seconds * 2 / 3
    reps = 0
    while reps < 1 or now() < deadline:
        run.tracer.rep = reps
        traced_rep(run, state)
        reps += 1
    with run.tracer.span("kernels.direct_calls"):
        kernel_probes(run, state)
    finish(run, state)

    per_rep = lambda name: run.tracer.total(name) / reps  # noqa: E731
    for metric, name in (
        ("discovery.index_build_s", "discovery.index_build"),
        ("discovery.distinct_s", "discovery.distinct"),
        ("discovery.sign_s", "discovery.sign"),
        ("discovery.normalize_s", "discovery.normalize"),
        ("discovery.lsh_insert_s", "discovery.lsh_insert"),
        ("discovery.generate_candidates_s", "discovery.generate_candidates"),
        ("dataframe.materialize_s", "dataframe.materialize"),
        ("profiles.compute_s", "profiles.compute"),
    ):
        run.put_span(metric, name, per=reps)
    for count in (
        "discovery.columns_indexed", "discovery.join_paths",
        "discovery.candidates", "dataframe.materialize_calls",
        "profiles.vectors",
    ):
        run.put_count(count)
    run.put("profiles.cache_misses", run.counts["profiles.vectors"])
    staged = sum(
        per_rep(f"discovery.{stage}")
        for stage in ("distinct", "sign", "normalize", "lsh_insert")
    )
    run.put(
        "discovery.index_build_unattributed_s",
        per_rep("discovery.index_build_staged") - staged, reps,
    )
    run.put(
        "discovery.prepare_unattributed_s",
        per_rep("api.prepare") - per_rep("prepare.staged"), reps,
    )
    run.samples["traced_main"] = run.tracer.durations("api.prepare")
    run.samples["untraced_main"] = run.samples["prepare"]
