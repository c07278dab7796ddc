"""Shared fixtures for the differential kernel suite."""

import pytest

#: The seed matrix every hash-sensitive differential test runs across.
HASH_SEEDS = (0, 1, 2)


@pytest.fixture(params=HASH_SEEDS)
def hash_seed(request):
    """One seed of the 3-seed differential matrix."""
    return request.param
