"""Per-query search overhead scales with clusters, not candidates.

METAM counts *queries* because the bookkeeping between two queries is
meant to be negligible beside a model retrain.  This guard holds the
search core to that without reading a clock: it counts Python-level
function calls per charged query of one search over the measurement
spine's planted-search input, at 150 and at 600 candidates.  Four times
the candidates (and 1.7× the clusters) may cost at most 1.5× the calls;
a scorer that rescans candidates in the interpreter costs ~4.4×.

An absolute cap holds the refit to its wrapper-free form: 66.4 calls per
query at 600 candidates (numpy 2.4; 78.8 before), capped 4.6 % above.
Putting ``np.var`` back as the variance guard makes it 69.9; a
``RidgeRegression`` per refit, ~75.
"""

#: Python calls per charged query at 600 candidates.
MAX_CALLS_PER_QUERY = 69.5

import sys

from benchmarks.spine import inputs
from repro.core import Metam, MetamConfig


def calls_per_query(n_candidates: int):
    state = inputs.planted_search(10, n_candidates)
    searcher = Metam(
        state["candidates"], state["base"], state["corpus"], state["task"],
        MetamConfig(theta=1.0, query_budget=200, epsilon=0.25,
                    run_minimality=False, seed=1),
    )
    calls = 0

    def count(_frame, event, _arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        result = searcher.run()
    finally:
        sys.setprofile(None)
    assert result.queries == 200
    return calls / result.queries, result.extras["n_clusters"]


def test_calls_per_query_do_not_grow_with_candidates():
    small, small_clusters = calls_per_query(150)
    large, large_clusters = calls_per_query(600)
    assert small_clusters < large_clusters < 150
    assert large <= 1.5 * small, (small, large)
    assert large <= MAX_CALLS_PER_QUERY, large
