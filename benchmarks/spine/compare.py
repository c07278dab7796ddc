"""``compare A.json B.json``: did B change anything A measured?

Both files come from ``python -m benchmarks.spine --runs N --out FILE``.
One row per (workload, end-to-end metric): both medians with their
quartiles, the ratio B/A (A is the base), the bound from
``BENCHMARK.json`` and a verdict:

``ok``          B is within the bound of A
``regressed``   B is worse than A by more than the bound
``improved``    B is better than A by more than the bound
``unresolved``  either side's run-to-run spread (quartile distance over
                median) exceeds the bound, so the comparison cannot tell
                (not applied to ``setup_s``: a run holds three set-ups, and
                the driver too judges it by its medians alone)

Exit status 1 when any row is ``regressed`` or ``unresolved``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict

from benchmarks.spine import harness
from benchmarks.spine.cli import ROOT


def collect(path: str) -> dict:
    """``(workload, metric) -> [value per untraced run]``."""
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    values = defaultdict(list)
    for run in document["runs"]:
        if run["trace"]:
            continue
        for name, metric in run["metrics"].items():
            values[(run["workload"], name)].append(metric["value"])
    return values


def quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def verdict(a, b, better: str, bound: float, spread_matters: bool = True) -> str:
    """Verdict for B's values against A's."""
    if spread_matters and max(harness.spread(a), harness.spread(b)) > bound:
        return "unresolved"
    base, new = statistics.median(a), statistics.median(b)
    change = (new - base) / base if base else 0.0
    worse = change if better == "lower" else -change
    if worse > bound:
        return "regressed"
    if worse < -bound:
        return "improved"
    return "ok"


def main(argv) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.spine compare",
                                     description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("a", help="base results (--out file)")
    parser.add_argument("b", help="results to judge against the base")
    args = parser.parse_args(argv)
    spec = harness.read_benchmark_json(ROOT)
    a, b = collect(args.a), collect(args.b)
    status = 0
    print(f"{'workload':<14} {'metric':<12} {'A median [q1, q3]':<34} "
          f"{'B median [q1, q3]':<34} {'B/A':>7} {'bound':>6}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if not a.get(key) or not b.get(key):
                print(f"{workload:<14} {metric['name']:<12} missing on one side")
                status = 1
                continue
            cells = []
            for values in (a[key], b[key]):
                q1, _q2, q3 = quartiles(values)
                cells.append(f"{statistics.median(values):.4g} [{q1:.4g}, {q3:.4g}] "
                             f"n={len(values)}")
            base = statistics.median(a[key])
            ratio = statistics.median(b[key]) / base if base else float("nan")
            result = verdict(a[key], b[key], metric["better"], metric["bound"],
                             spread_matters=metric["name"] != "setup_s")
            if result in ("regressed", "unresolved"):
                status = 1
            print(f"{workload:<14} {metric['name']:<12} {cells[0]:<34} "
                  f"{cells[1]:<34} {ratio:>7.3f} {metric['bound']:>6.2f}  {result}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
