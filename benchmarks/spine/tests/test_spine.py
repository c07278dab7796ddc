"""Self-tests of the measurement spine (tiny ``--smoke`` sizes).

They check the benchmark, not the program: that every workload emits
exactly the metric names ``BENCHMARK.json`` declares, that a seed fixes
the inputs and the exact metrics, that a planted fault is caught and
turns into a non-zero exit, and that ``compare`` reaches the right
verdicts.
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(HERE)))
RUN = os.path.join(ROOT, "benchmarks", "spine", "run.py")
sys.path[:0] = [p for p in (ROOT, os.path.join(ROOT, "src")) if p not in sys.path]

from benchmarks.spine import compare, inputs  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def spine(*args):
    return subprocess.run(
        [sys.executable, RUN, *args], cwd=ROOT, capture_output=True, text=True,
        timeout=120, check=False,
    )


def last_json(done):
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    """One smoke run of the whole benchmark: all workloads, both passes."""
    out = tmp_path_factory.mktemp("spine") / "smoke.json"
    traces = tmp_path_factory.mktemp("spine-traces")
    done = spine("--smoke", "--seconds", "0.05", "--seed", "3",
                 "--out", str(out), "--trace-out", str(traces))
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)["runs"], done.stdout, traces


def test_benchmark_json_obeys_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/spine"]
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_every_workload_emits_exactly_the_declared_metrics(suite):
    runs, _stdout, _traces = suite
    seen = {(r["workload"], r["trace"]) for r in runs}
    assert seen == {(w["name"], t) for w in SPEC["workloads"] for t in (0, 1)}
    for run in runs:
        declared = SPEC["per_layer"] if run["trace"] else SPEC["end_to_end"]
        assert list(run["metrics"]) == [m["name"] for m in declared]
        assert run["correct"] and run["failed"] == 0 and run["attempted"] >= 1
        for metric in run["metrics"].values():
            assert set(metric) == {"value", "unit", "n", "spread"}
        if not run["trace"]:
            # End-to-end metrics are never 0, on any workload.
            assert all(m["value"] > 0 for m in run["metrics"].values()), run


def test_every_layer_metric_is_produced_by_some_workload(suite):
    runs, _stdout, _traces = suite
    produced = {
        name
        for run in runs if run["trace"]
        for name, metric in run["metrics"].items() if metric["n"] > 0
    }
    assert produced == {m["name"] for m in SPEC["per_layer"]}


def test_traced_pass_writes_spans_and_a_table_that_sums(suite):
    _runs, stdout, traces = suite
    for workload in SPEC["workloads"]:
        with open(traces / f"trace-{workload['name']}.json", encoding="utf-8") as handle:
            spans = json.load(handle)
        assert spans and set(spans[0]) == {"name", "layer", "start", "end",
                                           "parent", "rep"}
    tables = re.findall(
        r"where the traced wall clock went \(([\d.]+) s.*?\n((?:   .*\n)+?)   sum +([\d.]+) s",
        stdout,
    )
    assert len(tables) == len(SPEC["workloads"])
    for wall, rows, total in tables:
        assert "unattributed" in rows
        assert abs(float(wall) - float(total)) <= 0.002


def test_seed_fixes_inputs_and_exact_metrics(suite):
    assert inputs.digest_recipes(inputs.portal_corpus(12, 5)) == \
        inputs.digest_recipes(inputs.portal_corpus(12, 5))
    assert inputs.digest_recipes(inputs.portal_corpus(12, 5)) != \
        inputs.digest_recipes(inputs.portal_corpus(12, 6))
    runs, _stdout, _traces = suite
    first = next(r for r in runs if r["workload"] == "search-scale" and r["trace"])
    args = ("--workload", "search-scale", "--smoke", "--seconds", "0.05", "--trace", "1")
    again, other = (spine(*args, "--seed", seed) for seed in ("3", "4"))
    digest = lambda done: re.search(r"digest inputs +(\w+)", done.stdout).group(1)  # noqa: E731
    assert first["digests"]["inputs"] == digest(again) != digest(other)
    for name in ("core.final_utility_mean", "core.clusters", "discovery.candidates"):
        assert first["metrics"][name]["value"] == last_json(again)["metrics"][name]["value"]


@pytest.mark.parametrize("workload, fault", [
    ("warm-discover", "wrong-utility"),
    ("catalog-churn", "corrupt-store"),
])
def test_a_planted_fault_fails_the_run(workload, fault):
    done = spine("--workload", workload, "--smoke", "--seconds", "0.05",
                 "--inject", fault)
    assert done.returncode != 0
    result = last_json(done)
    assert result["correct"] is False and result["failed"] > 0
    share = re.search(r"failed_ops_share ([\d.]+)", done.stderr)
    assert share and float(share.group(1)) > 0


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(steady, [v * 1.02 for v in steady], "lower", 0.1) == "ok"
    assert compare.verdict(steady, [v * 1.3 for v in steady], "lower", 0.1) == "regressed"
    assert compare.verdict(steady, [v * 0.7 for v in steady], "lower", 0.1) == "improved"
    assert compare.verdict(steady, [v * 0.7 for v in steady], "higher", 0.1) == "regressed"
    noisy = [100.0, 140.0, 70.0, 120.0, 90.0]
    assert compare.verdict(steady, noisy, "lower", 0.1) == "unresolved"
