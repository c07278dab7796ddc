"""Tests for CI tests, dependence screening and what-if/how-to tasks."""

import numpy as np
import pytest

from repro.dataframe import Table
from repro.tasks import HowToTask, WhatIfTask
from repro.tasks.causal import dependent_columns, fisher_z_independence


class TestCiTest:
    def test_dependent_detected(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=400)
        data = np.column_stack([x, x + rng.normal(scale=0.2, size=400)])
        independent, p = fisher_z_independence(data, 0, 1)
        assert not independent
        assert p < 0.01

    def test_independent_detected(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(400, 2))
        independent, _ = fisher_z_independence(data, 0, 1)
        assert independent

    def test_conditioning_removes_confounding(self):
        rng = np.random.default_rng(2)
        z = rng.normal(size=500)
        data = np.column_stack(
            [z + rng.normal(scale=0.1, size=500), z + rng.normal(scale=0.1, size=500), z]
        )
        dependent_raw, _ = fisher_z_independence(data, 0, 1)
        independent_cond, _ = fisher_z_independence(data, 0, 1, cond=(2,))
        assert not dependent_raw
        assert independent_cond

    def test_nan_rows_dropped(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=100)
        y = x + rng.normal(scale=0.1, size=100)
        x[:5] = np.nan
        independent, _ = fisher_z_independence(np.column_stack([x, y]), 0, 1)
        assert not independent

    def test_tiny_sample_conservative(self):
        data = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
        independent, p = fisher_z_independence(data, 0, 1)
        assert independent and p == 1.0


class TestDependentColumns:
    def test_finds_direct_dependence(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=400)
        data = np.column_stack([x, x + rng.normal(scale=0.2, size=400), rng.normal(size=400)])
        found = dependent_columns(data, 0, [1, 2])
        assert found == {1}

    def test_conditioning_pool_separates(self):
        rng = np.random.default_rng(1)
        z = rng.normal(size=500)
        x = z + rng.normal(scale=0.1, size=500)
        y = z + rng.normal(scale=0.1, size=500)
        data = np.column_stack([x, y, z])
        # Without the pool, y looks dependent on x; with z it separates.
        assert dependent_columns(data, 0, [1]) == {1}
        assert dependent_columns(data, 0, [1], cond_pool=[2], max_cond=1) == set()


def build_whatif_table(n=300, seed=0):
    rng = np.random.default_rng(seed)
    reading = rng.normal(size=n)
    writing = 0.8 * reading + rng.normal(scale=0.3, size=n)
    noise = rng.normal(size=n)
    return Table(
        "sat",
        {
            "reading": reading.tolist(),
            "writing": writing.tolist(),
            "unrelated": noise.tolist(),
        },
    )


class TestWhatIfTask:
    def test_utility_rises_with_true_effect(self):
        table = build_whatif_table()
        task = WhatIfTask("reading", truth_affected={"writing", "ghost"})
        no_writing = table.drop_columns(["writing"])
        assert task.utility(no_writing) == 0.0
        assert task.utility(table) == 0.5  # 1 of 2 truths found

    def test_augmented_column_canonicalized(self):
        full = build_whatif_table()
        table = full.drop_columns(["writing"]).with_column("path#writing", full.column("writing"))
        task = WhatIfTask("reading", truth_affected={"writing"})
        assert task.utility(table) == 1.0

    def test_empty_truth_rejected(self):
        with pytest.raises(ValueError):
            WhatIfTask("x", truth_affected=set())

    def test_missing_treatment_raises(self):
        task = WhatIfTask("nope", truth_affected={"writing"})
        with pytest.raises(KeyError):
            task.utility(build_whatif_table())

    def test_unrelated_column_not_counted(self):
        table = build_whatif_table()
        task = WhatIfTask("reading", truth_affected={"unrelated"})
        assert task.utility(table) == 0.0


class TestHowToTask:
    def test_finds_causes(self):
        rng = np.random.default_rng(0)
        study = rng.normal(size=300)
        outcome = 1.5 * study + rng.normal(scale=0.3, size=300)
        table = Table(
            "t",
            {
                "outcome": outcome.tolist(),
                "study": study.tolist(),
                "noise": rng.normal(size=300).tolist(),
            },
        )
        task = HowToTask("outcome", truth_causes={"study"})
        assert task.utility(table) == 1.0

    def test_monotone_in_true_causes(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=300)
        b = rng.normal(size=300)
        outcome = a + b + rng.normal(scale=0.3, size=300)
        full = Table(
            "t", {"outcome": outcome.tolist(), "a": a.tolist(), "b": b.tolist()}
        )
        partial = full.drop_columns(["b"])
        task = HowToTask("outcome", truth_causes={"a", "b"})
        assert task.utility(partial) == 0.5
        assert task.utility(full) == 1.0

    def test_empty_truth_rejected(self):
        with pytest.raises(ValueError):
            HowToTask("x", truth_causes=[])
