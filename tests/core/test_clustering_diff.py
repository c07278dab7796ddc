"""Differential suite: profile-major CLUSTER-PARTITION against its oracle.

``repro.core.clustering.cluster_partition`` takes Chebyshev distances over
a ``(p, n)`` transpose; the row-major loop it replaced lives on verbatim in
``tests/core/reference_clustering.py``.  Centers, assignments, every
cluster's members, the random generator's final state and every error
message must be identical — a single flipped ``<`` against ε changes the
partition, and with it every query of the search.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import cluster_partition
from tests.core import reference_clustering
from tests.core.search_cases import EPSILONS, profile_matrices

relaxed = settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def assert_same_partition(profiles, epsilon, seed, as_generator=False):
    """Cluster with both from an int seed, or from two equal Generators
    (the form ``Metam.run`` passes), whose final states must then agree."""
    new_seed, old_seed = (
        np.random.default_rng(seed) if as_generator else seed for _ in range(2)
    )
    new = cluster_partition(profiles, epsilon, seed=new_seed)
    old = reference_clustering.cluster_partition(profiles, epsilon, seed=old_seed)
    assert new.centers == old.centers
    assert all(type(center) is int for center in new.centers)
    assert new.assignment.dtype == old.assignment.dtype
    assert np.array_equal(new.assignment, old.assignment)
    assert np.array_equal(new.vectors, old.vectors)
    for cluster_id in range(old.n_clusters):
        assert np.array_equal(new.member_array(cluster_id), old.member_array(cluster_id))
    if as_generator:
        assert new_seed.bit_generator.state == old_seed.bit_generator.state


@relaxed
@given(
    profiles=profile_matrices(max_rows=60),
    epsilon=st.sampled_from(EPSILONS),
    seed=st.integers(0, 2**32 - 1),
    as_generator=st.booleans(),
)
def test_partition_matches_reference(profiles, epsilon, seed, as_generator):
    assert_same_partition(profiles, epsilon, seed, as_generator)


@relaxed
@given(
    rows=st.lists(
        st.lists(st.floats(-1e300, 1e300, allow_nan=False, allow_subnormal=True),
                 min_size=3, max_size=3),
        min_size=1, max_size=20,
    ),
    epsilon=st.sampled_from(EPSILONS + [1e-300, 1e300]),
    seed=st.integers(0, 99),
)
def test_partition_matches_reference_on_any_finite_floats(rows, epsilon, seed):
    """Signed zeros, subnormal gaps and gaps that overflow to inf."""
    assert_same_partition(np.array(rows), epsilon, seed)


@pytest.mark.parametrize("epsilon", EPSILONS)
@pytest.mark.parametrize("width", [1, 13, 33])
def test_spine_sized_inputs(epsilon, width):
    profiles = np.random.default_rng(width).uniform(0.0, 1.0, size=(600, width))
    for seed in (0, 1):
        assert_same_partition(profiles, epsilon, seed, as_generator=bool(seed))


@pytest.mark.parametrize(
    "vectors, epsilon",
    [
        (np.zeros((5, 0)), 0.1),  # zero width: numpy's empty-reduction error
        (np.empty((0, 3)), 0.1),
        (np.zeros(4), 0.1),
        (np.zeros((3, 2)), 0.0),
        (np.zeros((3, 2)), float("nan")),
        (np.array([[0.1, 0.2], [0.3, float("inf")]]), 0.1),
        (np.array([[0.1, float("nan")], [0.3, 0.2]]), 0.1),
    ],
)
def test_same_error_on_unusable_input(vectors, epsilon):
    with pytest.raises(ValueError) as expected:
        reference_clustering.cluster_partition(vectors, epsilon, seed=0)
    with pytest.raises(ValueError) as raised:
        cluster_partition(vectors, epsilon, seed=0)
    assert str(raised.value) == str(expected.value)
