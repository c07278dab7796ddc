"""A NaN must get a typed error, never a hang.

CLUSTER-PARTITION adds centers until the farthest point is within ε; with
a NaN ε or a NaN coordinate that is never true and the loop ran until
killed.  Every case here runs under a wall-clock guard, so a
reintroduced hang fails the test instead of stalling the suite.
"""

import contextlib
import signal

import numpy as np
import pytest

from repro.core import Metam, MetamConfig, cluster_partition
from repro.dataframe import Table
from repro.discovery import Candidate
from repro.tasks.base import Task
from tests.core.search_cases import ColumnAug

NAN, INF = float("nan"), float("inf")


@contextlib.contextmanager
def within(seconds: float):
    """Raise ``TimeoutError`` in the test if the block outlives its budget."""
    if not hasattr(signal, "SIGALRM"):  # pragma: no cover - non-POSIX
        yield
        return

    def expired(_signum, _frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class HalfTask(Task):
    def utility(self, table):
        return 0.5


def candidates_with(vectors):
    return [
        Candidate(aug=ColumnAug(f"aug{i}"), values=[1.0, 1.0], overlap=1.0,
                  profile_vector=np.asarray(vector, dtype=float))
        for i, vector in enumerate(vectors)
    ]


@pytest.mark.parametrize("epsilon", [NAN, INF, -INF, 0.0, -0.1])
def test_config_rejects_unusable_epsilon(epsilon):
    with within(1.0), pytest.raises(ValueError, match="epsilon"):
        MetamConfig(epsilon=epsilon)


@pytest.mark.parametrize(
    "field, value",
    [("max_group_size", 0), ("max_group_size", -3),
     ("groups_per_size", 0), ("groups_per_size", -1)],
)
def test_config_rejects_empty_groups(field, value):
    with pytest.raises(ValueError, match=field):
        MetamConfig(**{field: value})
    MetamConfig(max_group_size=1, groups_per_size=1)


@pytest.mark.parametrize("epsilon", [NAN, INF, -INF])
def test_cluster_partition_rejects_nonfinite_epsilon(epsilon):
    vectors = np.random.default_rng(0).uniform(size=(20, 3))
    with within(1.0), pytest.raises(ValueError, match="epsilon"):
        cluster_partition(vectors, epsilon, seed=0)


@pytest.mark.parametrize("bad", [NAN, INF, -INF])
def test_cluster_partition_rejects_nonfinite_vectors(bad):
    vectors = np.random.default_rng(0).uniform(size=(20, 3))
    vectors[7, 1] = bad
    with within(1.0), pytest.raises(ValueError, match="row 7"):
        cluster_partition(vectors, 0.1, seed=0)


@pytest.mark.parametrize("bad", [NAN, INF])
def test_metam_names_the_first_nonfinite_candidate(bad):
    candidates = candidates_with([[0.1, 0.2], [0.3, bad], [bad, 0.5], [0.2, 0.2]])
    base = Table("b", {"x": [1.0, 2.0]})
    with within(1.0), pytest.raises(ValueError, match="2 candidates.*'aug1'"):
        Metam(candidates, base, {}, HalfTask(), MetamConfig(query_budget=5))


def test_finite_search_still_terminates():
    candidates = candidates_with([[0.1, 0.2], [0.3, 0.4], [0.9, 0.5]])
    base = Table("b", {"x": [1.0, 2.0]})
    with within(5.0):
        result = Metam(candidates, base, {}, HalfTask(), MetamConfig(query_budget=5)).run()
    assert result.utility == 0.5
