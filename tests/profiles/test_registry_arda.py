"""Tests for the profile registry and the ARDA scorer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataframe import Table
from repro.profiles import (
    ArdaImportanceProfile,
    ArdaScorer,
    ProfileContext,
    ProfileRegistry,
    RandomProfile,
    default_registry,
)


@pytest.fixture
def base():
    rng = np.random.default_rng(0)
    signal = rng.normal(size=150)
    label = (signal > 0).astype(int)
    return Table(
        "schools",
        {
            "id": [str(i) for i in range(150)],
            "noise_feature": rng.normal(size=150).tolist(),
            "signal": signal.tolist(),
            "passed": label.tolist(),
        },
    )


def make_context(base, values, name="aug"):
    return ProfileContext(
        base=base,
        column_name=name,
        column_values=list(values),
        candidate_table=Table("cand", {name: list(values)}),
        overlap_fraction=1.0,
    )


class TestRegistry:
    def test_default_has_five_profiles(self):
        reg = default_registry()
        assert len(reg) == 5
        assert reg.names == [
            "correlation",
            "mutual_information",
            "semantic_embedding",
            "metadata",
            "overlap",
        ]

    def test_vector_in_unit_cube(self, base):
        reg = default_registry()
        rng = np.random.default_rng(0)
        vec = reg.compute_vector(make_context(base, rng.normal(size=150).tolist()))
        assert vec.shape == (5,)
        assert np.all(vec >= 0.0) and np.all(vec <= 1.0)

    def test_add_duplicate_rejected(self):
        reg = default_registry()
        with pytest.raises(ValueError):
            reg.add(reg._profiles[0])

    def test_subset_order(self):
        reg = default_registry().subset(["overlap", "correlation"])
        assert reg.names == ["overlap", "correlation"]

    def test_subset_unknown(self):
        with pytest.raises(KeyError):
            default_registry().subset(["nope"])

    def test_with_random_profiles(self):
        reg = default_registry().with_random_profiles(3, seed=1)
        assert len(reg) == 8
        assert "random_2" in reg.names

    def test_empty_registry_rejects_compute(self, base):
        with pytest.raises(RuntimeError):
            ProfileRegistry([]).compute_vector(make_context(base, [1.0] * 150))

    def test_duplicate_at_construction(self):
        with pytest.raises(ValueError):
            ProfileRegistry([RandomProfile(0), RandomProfile(0)])

    @given(st.integers(0, 5))
    @settings(max_examples=10, deadline=None)
    def test_random_profile_count(self, n):
        assert len(default_registry().with_random_profiles(n)) == 5 + n


class TestArda:
    def test_informative_scores_higher_than_noise(self, base):
        rng = np.random.default_rng(1)
        signal = np.array(base.column("signal"))
        informative = (signal * 3.0 + rng.normal(scale=0.05, size=150)).tolist()
        junk = rng.normal(size=150).tolist()
        scorer = ArdaScorer(base.drop_columns(["signal"]), "passed", seed=0)
        scores = scorer.score_columns({"good": informative, "junk": junk})
        assert scores["good"] > scores["junk"]

    def test_scores_in_unit_interval(self, base):
        rng = np.random.default_rng(2)
        columns = {f"c{i}": rng.normal(size=150).tolist() for i in range(5)}
        scores = ArdaScorer(base, "passed", seed=0).score_columns(columns)
        assert all(0.0 <= s <= 1.0 for s in scores.values())

    def test_regression_mode(self, base):
        rng = np.random.default_rng(3)
        scorer = ArdaScorer(base, "signal", mode="regression", seed=0)
        scores = scorer.score_columns({"c": rng.normal(size=150).tolist()})
        assert "c" in scores

    def test_unknown_target_rejected(self, base):
        with pytest.raises(KeyError):
            ArdaScorer(base, "nope")

    def test_profile_lookup(self, base):
        profile = ArdaImportanceProfile({"aug": 0.8})
        assert profile.compute(make_context(base, [1.0] * 150, name="aug")) == 0.8

    def test_profile_missing_key_zero(self, base):
        profile = ArdaImportanceProfile({})
        assert profile.compute(make_context(base, [1.0] * 150, name="aug")) == 0.0
