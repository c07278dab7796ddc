"""Regression: the semantic-embedding profile scores the base table it is
given, not whichever table last lived at the same address.

The profile object outlives every request (the engine keeps its registry),
while base tables come and go; CPython hands a freed table's address to
the next one allocated.  A base-vector cache keyed by ``id(base)`` then
answers for the wrong table — and grows by a vector per base ever served.
Embeddings are kept on the table they describe instead, so they die with it.
"""

import pytest

from repro.dataframe import Table
from repro.profiles import EmbeddingSimilarityProfile, ProfileContext

CANDIDATE = Table(
    "crime_reports",
    {"zipcode": ["60601", "60602"], "crime_count": [12.0, 7.0]},
    source="open-data",
)


def housing_base():
    return Table(
        "housing_prices", {"zipcode": ["60601", "60602"], "price": [310.0, 275.0]}
    )


def payroll_base():
    return Table(
        "city_payroll", {"employee": ["ana", "raj"], "salary": [5100.0, 4800.0]}
    )


def score(profile, base, candidate=CANDIDATE):
    context = ProfileContext(
        base=base,
        column_name="crime_count",
        column_values=[None] * base.num_rows,
        candidate_table=candidate,
        overlap_fraction=1.0,
    )
    return profile.compute(context)


def test_create_score_delete_loop_scores_each_base_as_itself():
    expected = {
        make: score(EmbeddingSimilarityProfile(), make())
        for make in (housing_base, payroll_base)
    }
    assert expected[housing_base] != expected[payroll_base]

    profile = EmbeddingSimilarityProfile()  # one registry, many requests
    for _ in range(200):
        for make in (housing_base, payroll_base):
            base = make()
            assert score(profile, base) == expected[make]
            del base  # the next table may be allocated at this address


def test_no_per_base_state_on_the_profile():
    profile = EmbeddingSimilarityProfile()
    before = dict(vars(profile))
    for make in (housing_base, payroll_base):
        score(profile, make())
    assert vars(profile) == before


def test_table_embedding_is_computed_once_and_read_only():
    base = housing_base()
    embedder = EmbeddingSimilarityProfile().embedder
    vector = embedder.embed_table(base)
    assert embedder.embed_table(base) is vector
    assert embedder.embed_table(base, max_cells=1) is not vector
    with pytest.raises(ValueError):
        vector[0] = 0.0
