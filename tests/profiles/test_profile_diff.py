"""Differential suite: the batched profile arithmetic against the earlier
code kept in ``tests/profiles/reference_profiles.py``.

Every assertion is bit equality (the bytes of the results, so -0.0 is
not 0.0):

* equal-frequency bins and mutual information on drawn arrays with ties
  at bin edges, ±0.0, subnormals, ±inf, NaN masks, ``n < 4`` and
  ``bins`` 2–12 (numpy's ``linear`` quantile, reimplemented on one sort);
* Pearson, whose moments are ``np.add.reduce`` in ``np.mean``/``np.std``
  order, on the finite rows the rewrite keeps;
* the seeding kernel against ``np.random.default_rng(seed)`` at the edge
  seeds, and token embeddings (unicode, empty, long) against per-token
  seeding;
* whole ``profile_candidates`` vectors on ``repro.data`` corpora against
  the reference registry, and the registry's NaN-and-clip step.

The suite rides the CI ``stress`` job's hash-seed matrix: dict and set
order feeding a batch must never change what it computes.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.data import (
    clustering_scenario,
    collisions_scenario,
    fairness_scenario,
    housing_scenario,
    schools_scenario,
)
from repro.discovery.candidates import (
    generate_candidates,
    materialize_candidates,
    profile_candidates,
)
from repro.discovery.index import DiscoveryIndex
from repro.profiles.embedding import TokenEmbedder
from repro.profiles.base import Profile
from repro.profiles.registry import ProfileRegistry, default_registry
from repro.utils import stats
from repro.utils.rng import pcg64_seed_states, standard_normal_rows
from tests.profiles import reference_profiles as reference

SUBNORMAL = 5e-324
#: Values that sit on numeric edges: signed zeros, subnormals, infinities
#: and the extremes of the finite range.
EDGE_FLOATS = [0.0, -0.0, SUBNORMAL, -SUBNORMAL, 2.2250738585072014e-308,
               np.inf, -np.inf, 1.7976931348623157e308, -1.7976931348623157e308,
               1.0, -1.0, 0.5]  # fmt: skip
#: A small pool so that draws tie, at bin edges and elsewhere.
TIE_POOL = [float(v) for v in range(-3, 4)] + [0.1, 0.2, 0.30000000000000004]

cell = st.one_of(
    st.sampled_from(EDGE_FLOATS),
    st.sampled_from(TIE_POOL),
    st.floats(allow_nan=False, allow_infinity=True, width=64),
)
maybe_nan = st.one_of(cell, st.just(np.nan))
bins_count = st.integers(min_value=2, max_value=12)

#: Seeds at every width boundary of numpy's SeedSequence entropy.
EDGE_SEEDS = (0, 1, 2, 2**32 - 1, 2**32, 2**64 - 1)


def same_bits(got, expected) -> bool:
    """Bit equality: unlike ``==``, tells -0.0 from 0.0."""
    return np.asarray(got).tobytes() == np.asarray(expected).tobytes()


def columns(elements, max_size=64):
    return st.lists(elements, max_size=max_size).map(
        lambda cells: np.array(cells, dtype=float)
    )


def column_pairs(elements, max_size=64):
    return st.lists(st.tuples(elements, elements), max_size=max_size).map(
        lambda rows: (
            np.array([r[0] for r in rows], dtype=float),
            np.array([r[1] for r in rows], dtype=float),
        )
    )


# ----------------------------------------------------------------------
# Equal-frequency bins and mutual information
# ----------------------------------------------------------------------
@given(columns(cell), bins_count)
@settings(max_examples=300, deadline=None)
# Neighbours -inf and 5.0 at gamma == 0.5: numpy interpolates back from
# the upper neighbour (edge -inf); from the lower one the edge is NaN.
@example(np.array([-np.inf, -np.inf, 5.0, 7.0]), 2)
@example(np.array([1.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 3.0, 4.0, 5.0]), 3)
@example(np.array([0.0, -0.0, 0.0, -0.0, 1.0, 2.0]), 2)
def test_bins_match_reference(values, bins):
    got = stats._equal_frequency_bins(values, bins)
    expected = reference._equal_frequency_bins(values.copy(), bins)
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected)


def test_bins_at_gamma_one_half_interpolate_from_the_upper_neighbour():
    values = np.array([-np.inf, -np.inf, 5.0, 7.0])
    assert np.array_equal(stats._equal_frequency_bins(values, 2), [1, 1, 1, 1])


@given(column_pairs(maybe_nan), bins_count)
@settings(max_examples=300, deadline=None)
@example((np.array([0.0, 1.0, 2.0]), np.array([2.0, 1.0, 0.0])), 2)
@example(
    (np.array([-np.inf, -np.inf, 5.0, 7.0, np.nan]),
     np.array([1.0, 2.0, 3.0, 4.0, 5.0])),
    2,
)  # fmt: skip
def test_mutual_information_matches_reference(pair, bins):
    x, y = pair
    assert same_bits(
        stats.mutual_information(x, y, bins=bins),
        reference.mutual_information(x, y, bins=bins),
    )


@given(column_pairs(maybe_nan, max_size=40), column_pairs(maybe_nan, max_size=40))
@settings(max_examples=100, deadline=None)
def test_mutual_information_with_shared_x_bins_matches_reference(first, second):
    """Calls sharing an ``x_bins_cache`` reuse x's bins across y columns."""
    x, y1 = first
    y2 = np.resize(second[1], x.size)
    got_cache, expected_cache = {}, {}
    for y in (y1, y2, y1):
        got = stats.mutual_information(x, y, bins=8, x_bins_cache=got_cache)
        expected = reference.mutual_information(
            x, y, bins=8, x_bins_cache=expected_cache
        )
        assert same_bits(got, expected)


# ----------------------------------------------------------------------
# Pearson
# ----------------------------------------------------------------------
def reference_pearson_on_finite_rows(x, y) -> float:
    """The old Pearson on the rows the rewrite keeps.  Where its moments
    are undefined (an invalid operation: overflow to ``inf - inf``, or
    ``0/0`` from underflow) the rewrite returns 0.0 instead of letting the
    NaN clamp to 1.0."""
    keep = np.isfinite(x) & np.isfinite(y)
    try:
        with np.errstate(invalid="raise"):
            return reference.pearson(x[keep], y[keep])
    except FloatingPointError:
        return 0.0


@given(column_pairs(maybe_nan))
@settings(max_examples=300, deadline=None)
@example((np.array([1.0, 2.0, np.inf, 4.0]), np.array([3.0, 1.0, 2.0, np.nan])))
@example((np.array([1e-170, 0.0, 1e-170]), np.array([0.0, 1e-170, 1e-170])))
@example((np.array([1e308, -1e308, 1e308]), np.array([1.0, 2.0, 3.0])))
def test_pearson_matches_reference_on_finite_rows(pair):
    x, y = pair
    with np.errstate(all="ignore"):
        assert same_bits(stats.pearson(x, y), reference_pearson_on_finite_rows(x, y))


# ----------------------------------------------------------------------
# Seeding and token embeddings
# ----------------------------------------------------------------------
@pytest.mark.parametrize("dim", [2, 32, 33])
def test_rows_equal_default_rng_at_edge_seeds(dim):
    rows = standard_normal_rows(np.array(EDGE_SEEDS, dtype=np.uint64), dim)
    for row, seed in zip(rows, EDGE_SEEDS, strict=True):
        assert same_bits(row, np.random.default_rng(seed).standard_normal(dim))


def test_seed_states_equal_pcg64_at_edge_seeds():
    states = pcg64_seed_states(np.array(EDGE_SEEDS, dtype=np.uint64))
    for (state, inc), seed in zip(states, EDGE_SEEDS, strict=True):
        expected = np.random.PCG64(seed).state["state"]
        assert (state, inc) == (expected["state"], expected["inc"])


@given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=40))
@settings(max_examples=100, deadline=None)
def test_rows_equal_default_rng(seeds):
    rows = standard_normal_rows(np.array(seeds, dtype=np.uint64), 8)
    assert rows.shape == (len(seeds), 8)
    for row, seed in zip(rows, seeds, strict=True):
        assert same_bits(row, np.random.default_rng(seed).standard_normal(8))


EDGE_TOKENS = ["", "a", "taxi", "ß", "東京", "naïve", "\x00", "🚕🚕", "a" * 10_000,
               "Ǆ", "x" * 63 + "é"]  # fmt: skip


@pytest.mark.parametrize("dim", [2, 32])
def test_token_vectors_equal_reference(dim):
    got, expected = TokenEmbedder(dim), reference.TokenEmbedder(dim)
    for token in EDGE_TOKENS:
        assert same_bits(got.embed_token(token), expected.embed_token(token))


@given(st.lists(st.lists(st.one_of(st.text(max_size=30), st.sampled_from(EDGE_TOKENS)),
                         max_size=25), max_size=5))  # fmt: skip
@settings(max_examples=100, deadline=None)
def test_token_averages_equal_reference(batches):
    """Each call embeds its fresh tokens as one batch; later calls mix
    cached and fresh tokens, repeats included."""
    got, expected = TokenEmbedder(), reference.TokenEmbedder()
    for tokens in batches + batches[::-1]:
        assert same_bits(got.embed_tokens(tokens), expected.embed_tokens(tokens))


# ----------------------------------------------------------------------
# Whole profile vectors
# ----------------------------------------------------------------------
SCENARIOS = {
    "housing": housing_scenario,
    "schools": schools_scenario,
    "collisions": collisions_scenario,
    "fairness": fairness_scenario,
    "clustering": clustering_scenario,
}


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_profile_vectors_equal_reference_registry(name, seed):
    scenario = SCENARIOS[name](seed=seed)
    base, corpus = scenario.base, scenario.corpus
    index = DiscoveryIndex(min_containment=0.3, seed=0).build(corpus.values())
    augmentations = generate_candidates(base, index, max_hops=1, max_fanout=500)
    candidates = materialize_candidates(base, augmentations, corpus)
    assert candidates
    old = [dataclasses.replace(c) for c in candidates]
    profile_candidates(candidates, base, corpus, default_registry(), seed=seed)
    profile_candidates(old, base, corpus, reference.ReferenceRegistry(), seed=seed)
    for new_candidate, old_candidate in zip(candidates, old, strict=True):
        assert same_bits(new_candidate.profile_vector, old_candidate.profile_vector)


class Constant(Profile):
    def __init__(self, index, value):
        self.name = f"constant_{index}"
        self.value = value

    def compute(self, context):
        return self.value


def test_vector_clipping_equals_reference():
    """NaN reads 0, the rest is clipped into [0, 1]; -0.0 and subnormals
    pass through unchanged."""
    values = [np.nan, np.inf, -np.inf, -0.0, 0.0, 2.0, -1.0, 0.5, SUBNORMAL, 1e308]
    registry = ProfileRegistry([Constant(i, v) for i, v in enumerate(values)])
    expected = reference.ReferenceRegistry.compute_vector(registry, None)
    assert same_bits(registry.compute_vector(None), expected)
