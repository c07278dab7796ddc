"""Tests for ASCII plotting and result serialization."""

import pytest

from repro.core.plotting import render_traces
from repro.core.result import SearchResult
import json

from repro.core.serialization import result_from_dict, result_to_dict, save_results


def make_result(name="metam", utility=0.8, trace=None):
    return SearchResult(
        searcher=name,
        selected=["a", "b"],
        utility=utility,
        base_utility=0.2,
        queries=10,
        trace=trace or [(1, 0.2), (5, 0.5), (10, utility)],
        extras={"n_clusters": 3},
    )


class TestSerialization:
    def test_round_trip(self):
        result = make_result()
        back = result_from_dict(result_to_dict(result))
        assert back.searcher == result.searcher
        assert back.selected == result.selected
        assert back.utility == result.utility
        assert back.trace == result.trace

    def test_missing_keys_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            result_from_dict({"searcher": "x"})

    def test_file_round_trip(self, tmp_path):
        path = str(tmp_path / "results.json")
        results = {"metam": make_result(), "mw": make_result("mw", 0.6)}
        save_results(results, path)
        with open(path, encoding="utf-8") as handle:
            back = {k: result_from_dict(v) for k, v in json.load(handle).items()}
        assert set(back) == {"metam", "mw"}
        assert back["mw"].utility == 0.6

    def test_numpy_extras_jsonable(self, tmp_path):
        import numpy as np

        result = make_result()
        result.extras["weights"] = np.array([0.5, 0.5])
        path = str(tmp_path / "r.json")
        save_results({"m": result}, path)
        with open(path, encoding="utf-8") as handle:
            assert json.load(handle)["m"]["extras"]["weights"] == [0.5, 0.5]


class TestPlotting:
    def test_renders_all_searchers(self):
        results = {"metam": make_result(), "mw": make_result("mw", 0.5)}
        chart = render_traces(results, width=40, height=10)
        assert "*=metam" in chart
        assert "o=mw" in chart
        assert chart.count("\n") >= 10

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            render_traces({})

    def test_higher_utility_higher_row(self):
        high = make_result("high", 0.9, trace=[(1, 0.9)])
        low = make_result("low", 0.3, trace=[(1, 0.3)])
        chart = render_traces({"high": high, "low": low}, width=30, height=12)
        lines = chart.splitlines()
        first_star = next(i for i, row in enumerate(lines) if "*" in row)
        first_o = next(
            i for i, row in enumerate(lines) if "o" in row and "o=" not in row
        )
        assert first_star < first_o  # higher utility drawn nearer the top
