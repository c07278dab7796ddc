"""Seeded input generation for the measurement spine.

Every workload's inputs derive from ``--seed`` here and nowhere else.
Shapes (row counts, column counts, key coverage, which tables are noisy)
are functions of a table's *index*; the seed drives only the values.  The
driver judges a metric by its spread over runs with different seeds, so
a seed must change the content a run sees without changing how much work
the run is — ``repro.data.generate_corpus`` draws its shapes from the seed
(31 to 117 join candidates over six seeds of one size), which is why the
spine owns its generators.  Where the values themselves decide the work
(the rows a regression tree is grown on) they do not follow the seed
either: see :func:`rental_scenario`.

Tables are produced as *recipes* — ``(name, columns, source)`` tuples —
and turned into :class:`~repro.dataframe.table.Table` objects by
:func:`make_tables`.  A ``Table`` caches distinct sets, numeric arrays
and join lookups on the object, so a cold measurement needs fresh objects
every repetition; recipes make that a list copy instead of a regenerate.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.dataframe.table import Table
from repro.discovery.candidates import Candidate
from repro.tasks import RegressionTask, Task

_WORDS = (
    "crime", "taxi", "income", "school", "health", "permit", "budget",
    "housing", "transit", "park", "census", "election", "inspection",
    "license", "energy", "water", "traffic", "zoning", "payroll", "grant",
)

#: Key pools of the portal corpus; the join base draws from the first
#: ``JOIN_POOLS`` of them, the rest only load the index.
N_POOLS = 8
JOIN_POOLS = 4
POOL_SIZE = 300
#: Share of its pool a table's key column covers, cycled by index.  The
#: values stay clear of both the 0.3 containment threshold and the LSH
#: banding's recall knee (Jaccard 0.65 collides with probability 0.96),
#: so the seed cannot tip many tables in or out of the candidate set.
_COVERAGE = (0.12, 0.65, 0.8, 0.9, 1.0)


def stream(seed: int, *path: int) -> np.random.Generator:
    """Independent generator for one named part of one seed's inputs."""
    return np.random.default_rng([int(seed), *(int(p) for p in path)])


def pool_keys(pool: int) -> list:
    return [f"k{pool}_{i:05d}" for i in range(POOL_SIZE)]


def portal_table(index: int, seed: int, version: int = 0) -> tuple:
    """Recipe of portal table ``index``; ``version`` re-draws its values
    (a changed table under the same name, for the churn workload)."""
    rng = stream(seed, 1, index, version)
    group = index // N_POOLS
    keys = pool_keys(index % N_POOLS)
    n_rows = int(_COVERAGE[group % len(_COVERAGE)] * POOL_SIZE)
    rows = [keys[i] for i in rng.permutation(POOL_SIZE)[:n_rows]]
    n_values = 1 + group % 4
    word = _WORDS[(index // 3) % len(_WORDS)]
    columns = {"key": rows}
    for c in range(n_values):
        cells = rng.normal(size=n_rows).tolist()
        # Definition-1 noise, in fixed amounts at seeded positions.
        for i in rng.permutation(n_rows)[: int(0.03 * (index % 5) * n_rows)]:
            cells[i] = None
        header = f"{word}_metric_{c}"
        if index % 5 == 0 and c == n_values - 1:
            header = None  # a lost header
        columns[header] = cells
    if index % 3 == 0:  # duplicated tuples
        extra = rng.integers(0, n_rows, size=n_rows // 20).tolist()
        columns = {
            name: cells + [cells[i] for i in extra]
            for name, cells in columns.items()
        }
    name = f"portal_{_WORDS[index % len(_WORDS)]}_{index:05d}"
    return name, columns, "open-data-portal"


def portal_corpus(n_tables: int, seed: int) -> list:
    return [portal_table(index, seed) for index in range(n_tables)]


def join_base(seed: int) -> tuple:
    """The 4-key input dataset of the prepare workloads: one row per key
    of each joinable pool, in seeded order."""
    rng = stream(seed, 2)
    columns = {}
    for pool in range(JOIN_POOLS):
        keys = pool_keys(pool)
        columns[f"key{pool}"] = [keys[i] for i in rng.permutation(POOL_SIZE)]
    columns["target"] = rng.normal(size=POOL_SIZE).tolist()
    return "spine_base", columns, ""


def make_table(recipe: tuple) -> Table:
    name, columns, source = recipe
    return Table(name, columns, source=source)


def make_tables(recipes) -> list:
    """Fresh Table objects (empty per-object caches) from recipes."""
    return [make_table(recipe) for recipe in recipes]


# ----------------------------------------------------------------------
# The model-backed scenario (warm-discover, serve-mixed)
# ----------------------------------------------------------------------
def rental_scenario(
    seed: int,
    n_irrelevant: int,
    n_erroneous: int = 12,
    n_traps: int = 8,
    n_keys: int = 80,
    n_rows: int = 320,
) -> dict:
    """A rent-regression information need over a zip-keyed repository.

    Same anatomy as the paper's housing example (five relevant tables,
    many irrelevant ones, mis-keyed ones, look-alike traps), but the
    target is continuous: a CART regressor rarely reaches a pure node, so
    the trees do not stop growing where the labels happen to agree.  The
    classification variant varied by 13 % between seeds for that reason
    alone.

    The listings (the base table) are the same for every seed; the seed
    makes the repository around them.  The rows decide how a tree grows —
    a branch ends early where a split isolates a few rows — and with the
    rows drawn from the seed a request built 21.6 to 26.3 thousand tree
    nodes over ten seeds (the same seeds cheap whatever else varied),
    against 24.6 to 26.4 thousand now.
    """
    listings = stream(0, 3)
    rng = stream(seed, 3)
    zips = [f"{60601 + i}" for i in range(n_keys)]
    quality = listings.normal(size=n_keys)
    lot = listings.normal(size=n_keys)
    assignment = listings.integers(0, n_keys, size=n_rows)
    sqft = listings.uniform(600, 4200, size=n_rows)
    rent = (
        2.4 * quality[assignment]
        + 0.8 * (sqft - sqft.mean()) / sqft.std()
        + listings.normal(scale=0.5, size=n_rows)
    )
    base = (
        "rental_listings",
        {
            "zipcode": [zips[i] for i in assignment],
            "sqft": sqft.tolist(),
            "rooms": listings.integers(1, 7, size=n_rows).tolist(),
            "age": listings.uniform(0, 90, size=n_rows).tolist(),
            "avg_lot_size": lot[assignment].tolist(),
            "rent": rent.tolist(),
        },
        "open-data",
    )

    def keyed(name, column, values, coverage, shuffled=False):
        kept = int(round(coverage * n_keys))
        rows = sorted(rng.permutation(n_keys)[:kept].tolist())
        key_rows = rng.permutation(rows).tolist() if shuffled else rows
        return (
            name,
            {
                "zipcode": [zips[i] for i in key_rows],
                column: [float(values[i]) for i in rows],
            },
            "open-data",
        )

    corpus = []
    relevant = (
        ("acs_income", "median_income", 1.6, 0.5),
        ("police_reports", "crime_count", -1.6, 0.5),
        ("retail_locations", "big_box_presence", 1.0, 0.8),
        ("tlc_trips", "taxi_trips", 1.2, 0.6),
        ("business_licenses", "grocery_stores", 1.2, 0.6),
    )
    for i, (name, column, slope, noise) in enumerate(relevant):
        values = slope * quality + rng.normal(scale=noise, size=n_keys)
        corpus.append(keyed(name, column, values, 0.6 + 0.06 * i))
    for i in range(n_irrelevant):
        values = rng.normal(loc=10 + i % 90, scale=1 + i % 9, size=n_keys)
        word = _WORDS[i % len(_WORDS)]
        corpus.append(
            keyed(f"{word}_{i:04d}", f"{word}_count_{i}", values, 0.5 + 0.05 * (i % 10))
        )
    for i in range(n_erroneous):
        corpus.append(
            keyed(f"misjoined_{i}", f"badcol_{i}", 1.5 * quality, 1.0, shuffled=True)
        )
    for i in range(n_traps):
        values = lot + rng.normal(scale=0.3 * lot.std(), size=n_keys)
        corpus.append(keyed(f"lookalike_{i}", f"shadow_metric_{i}", values, 1.0))
    return {"base": base, "corpus": corpus}


def rental_task(small: bool = False) -> RegressionTask:
    """The task behind the rental scenario (``small``: a forest that fits
    in milliseconds, for the self-tests)."""
    size = {"n_estimators": 2, "max_depth": 3, "n_splits": 1} if small else {}
    return RegressionTask("rent", exclude_columns=("zipcode",), **size)


# ----------------------------------------------------------------------
# The cheap-oracle search space (search-scale)
# ----------------------------------------------------------------------
class ColumnAug:
    """Minimal augmentation: appends a small constant column."""

    def __init__(self, aug_id: str):
        self.aug_id = aug_id

    def apply(self, table: Table, base: Table, corpus: dict) -> Table:
        if self.aug_id in table:
            return table
        return table.with_column(self.aug_id, [1.0] * table.num_rows)


class PlantedSetTask(Task):
    """Utility = share of the planted augmentations present in the table.

    An O(#columns) oracle, so a run's time is the searcher's own.
    """

    name = "planted_set"

    def __init__(self, planted):
        self.planted = frozenset(planted)

    def utility(self, table: Table) -> float:
        present = sum(1 for c in table.column_names if c in self.planted)
        return self._clip(present / len(self.planted))


def planted_search(
    seed: int, n_candidates: int, n_profiles: int = 5, n_planted: int = 3
) -> dict:
    """Profiled candidates with ``n_planted`` useful ones among them.

    The planted ids get a boost on profile 0 (signal for a profile-driven
    searcher); a never-offered ``aug_ghost`` keeps the reachable utility
    below 1.0, so a θ=1 search spends its whole query budget.
    """
    rng = stream(seed, 4)
    planted = [f"aug_{i:05d}" for i in range(n_planted)]
    candidates = []
    for i in range(n_candidates):
        vector = rng.uniform(0.0, 0.7, size=n_profiles)
        if i < n_planted:
            vector[0] = float(rng.uniform(0.8, 1.0))
        candidates.append(
            Candidate(
                aug=ColumnAug(f"aug_{i:05d}"),
                values=[1.0] * 4,
                overlap=float(rng.uniform(0.4, 1.0)),
                profile_vector=vector,
            )
        )
    return {
        "candidates": candidates,
        "base": Table("synthetic_base", {"x": [1.0, 2.0, 3.0, 4.0]}),
        "corpus": {},
        "task": PlantedSetTask(planted + ["aug_ghost"]),
    }


# ----------------------------------------------------------------------
# Digests
# ----------------------------------------------------------------------
def digest_recipes(recipes) -> str:
    """Content digest of generated tables (the determinism self-test and
    every result record carry it, so two runs can prove they saw the
    same inputs)."""
    h = hashlib.blake2b(digest_size=12)
    for name, columns, source in recipes:
        h.update(repr((name, source, list(columns.items()))).encode("utf-8"))
    return h.hexdigest()
