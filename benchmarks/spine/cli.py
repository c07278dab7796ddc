"""Command line of the measurement spine.

Three uses, one program:

``--workload NAME --seed N --seconds S --trace 0|1``
    One run of one workload in this interpreter — the call the driver
    makes.  The last line of standard output is the result object.
no ``--workload``
    The whole benchmark: every workload, each run in its own fresh
    interpreter (an untraced pass, then a traced one), tables printed,
    results optionally written with ``--out``.
``compare A.json B.json``
    Verdict per (workload, end-to-end metric) between two ``--out`` files.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

from benchmarks.spine import harness
from benchmarks.spine.harness import Run

#: Checkout root: the directory that holds ``BENCHMARK.json``.
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

def load_workload(name: str):
    """``cold-prepare`` lives in ``workloads/cold_prepare.py``, and so on."""
    return importlib.import_module(
        f"benchmarks.spine.workloads.{name.replace('-', '_')}"
    )


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def run_workload(args) -> int:
    spec = harness.read_benchmark_json(ROOT)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"spine: no workload {args.workload!r} in BENCHMARK.json",
              file=sys.stderr)
        return 2
    module = load_workload(args.workload)
    os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="spine-", dir=os.path.join(ROOT, ".bench_build"))
    run = Run(
        args.workload, args.seed, args.seconds, args.trace, args.smoke,
        args.inject, workdir,
    )
    # A workload with several load threads accounts per thread: its table
    # sums to the threads' wall clocks, not to the main thread's.
    run.trace_root = getattr(module, "TRACE_ROOT", "wall")
    try:
        execute(module, run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wanted = spec["per_layer"] if run.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    declared = {m["name"] for m in spec["per_layer"] + spec["end_to_end"]}
    for name in sorted(set(run.metrics) - declared):
        run.op(False, f"metric {name!r} is not declared in BENCHMARK.json")
    # A layer this workload bypasses did no work: report that as 0.
    absent = {"value": 0.0, "n": 0, "spread": 0.0}
    metrics = {
        name: {**run.metrics.get(name, absent), "unit": unit}
        for name, unit in units.items()
    }
    correct = run.failed == 0
    report(run, units)
    if args.trace_out and run.trace:
        os.makedirs(args.trace_out, exist_ok=True)
        path = os.path.join(args.trace_out, f"trace-{run.workload}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(run.tracer.records(), handle)
    if args.detail_out:
        with open(args.detail_out, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "workload": run.workload, "seed": run.seed,
                    "trace": int(run.trace), "correct": correct,
                    "attempted": run.attempted, "failed": run.failed,
                    "failures": run.failures, "digests": run.digests,
                    "metrics": metrics,
                },
                handle,
            )
    if not correct:
        for failure in run.failures:
            print(f"FAILED: {failure}", file=sys.stderr)
        print(
            f"failed_ops_share {run.failed / max(1, run.attempted):.4f} "
            f"({run.failed} of {run.attempted})", file=sys.stderr,
        )
    print(json.dumps({
        "correct": correct, "attempted": max(1, run.attempted),
        "failed": run.failed,
        "metrics": {
            name: {"value": m["value"], "unit": m["unit"]}
            for name, m in metrics.items()
        },
    }))
    return 0 if correct else 1


def execute(module, run: Run) -> None:
    """Set up (three times in a full untraced run, for a median and to
    check that a seed fixes the inputs), run one pass, tear down."""
    state = None
    seen = None
    for _ in range(1 if run.trace or run.smoke else 3):
        if state is not None:
            module.teardown(run, state)
        state = run.timed("setup", module.setup, run)
        if seen is not None:
            run.op(seen == run.digests["inputs"],
                   "same seed generated different inputs")
        seen = run.digests["inputs"]
    try:
        if run.trace:
            with run.tracer.span("wall", "trace"):
                module.trace(run, state)
            finish_trace(run)
        else:
            module.measure(run, state)
            run.put_median("setup_s", "setup")
            if "peak_rss_mb" not in run.metrics:  # else read at a fixed amount of work
                run.put("peak_rss_mb", harness.peak_rss_mb())
    finally:
        module.teardown(run, state)


def finish_trace(run: Run) -> None:
    """The per-layer metrics every workload shares."""
    wall, rows = run.tracer.table(run.trace_root)
    unattributed = rows[-1][2]
    run.put("trace.unattributed_share", unattributed / wall if wall else 0.0)
    run.put("trace.spans", len(run.tracer.spans))
    traced = run.samples.get("traced_main")
    untraced = run.samples.get("untraced_main")
    if traced and untraced:
        base = harness.typical(untraced, run.samples.get("untraced_main.key"))
        with_spans = harness.typical(traced, run.samples.get("traced_main.key"))
        run.put("obs.trace_overhead_pct", 100.0 * (with_spans - base) / base,
                len(traced))
    probes = run.speed.cost
    run.put("obs.probe_ms", statistics.median(probes) * 1e3, len(probes),
            harness.spread(probes))


def report(run: Run, units: dict) -> None:
    """Human-readable lines (everything but the last line of output)."""
    kind = "traced" if run.trace else "untraced"
    print(f"== {run.workload}  seed {run.seed}  {kind}  "
          f"ops {run.attempted} failed {run.failed}")
    for name, value in sorted(run.digests.items()):
        print(f"   digest {name:<10} {value}")
    for name in units:
        m = run.metrics.get(name)
        if m is None:
            continue
        print(f"   {name:<44} {m['value']:>14.4f} {units[name]:<8} "
              f"n={m['n']:<5} spread={m['spread']:.3f}")
    if run.trace:
        wall, rows = run.tracer.table(run.trace_root)
        print(f"   -- where the traced wall clock went ({wall:.3f} s under "
              f"'{run.trace_root}' spans; self times, children excluded)")
        for name, layer, self_s, calls in rows:
            if self_s >= 0.0005 * wall or name == "unattributed":
                print(f"   {name:<36} {layer:<10} {self_s:>9.4f} s "
                      f"{100 * self_s / wall if wall else 0:>5.1f} %  calls {calls}")
        print(f"   {'sum':<36} {'':<10} {sum(r[2] for r in rows):>9.4f} s")


# ----------------------------------------------------------------------
# The whole benchmark
# ----------------------------------------------------------------------
def run_suite(args) -> int:
    spec = harness.read_benchmark_json(ROOT)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="suite-", dir=os.path.join(ROOT, ".bench_build"))
    results = []
    status = 0
    try:
        for name in names:
            for k in range(args.runs):
                for trace in (0, 1):
                    detail = os.path.join(scratch, "detail.json")
                    command = [
                        sys.executable, os.path.join(ROOT, *spec["command"][1].split("/")),
                        "--workload", name, "--seed", str(args.seed + k),
                        "--seconds", str(seconds), "--trace", str(trace),
                        "--detail-out", detail,
                    ]
                    if args.smoke:
                        command.append("--smoke")
                    if args.trace_out:
                        command += ["--trace-out", args.trace_out]
                    # One workload per interpreter: Table's per-object
                    # caches, module caches and peak RSS never leak.
                    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                                          text=True, check=False)
                    sys.stdout.write("\n".join(done.stdout.splitlines()[:-1]) + "\n")
                    if done.returncode != 0:
                        status = 1
                    if os.path.exists(detail):
                        with open(detail, encoding="utf-8") as handle:
                            results.append(json.load(handle))
                        os.remove(detail)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    share = sum(r["failed"] for r in results) / max(1, sum(r["attempted"] for r in results))
    print(f"failed_ops_share {share:.4f} over {len(results)} runs")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"seed": args.seed, "seconds": seconds, "runs": results}, handle)
    return status


# ----------------------------------------------------------------------
def parse(argv):
    parser = argparse.ArgumentParser(prog="benchmarks.spine", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="a workload named in BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1,
                        help="suite only: runs per workload and pass, on "
                             "consecutive seeds")
    parser.add_argument("--out", help="suite only: write every run's metrics here")
    parser.add_argument("--trace-out", help="directory for trace-<workload>.json")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs (the self-tests)")
    parser.add_argument("--inject", choices=("wrong-utility", "corrupt-store"),
                        help="self-test only: plant a fault the checks must catch")
    parser.add_argument("--detail-out", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        from benchmarks.spine import compare

        return compare.main(argv[1:])
    args = parse(argv)
    if args.workload is None:
        return run_suite(args)
    if args.seconds is None:
        args.seconds = harness.read_benchmark_json(ROOT)["run_seconds"]
    return run_workload(args)
