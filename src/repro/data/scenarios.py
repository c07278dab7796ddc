"""Scenario generators reproducing the paper's evaluation workloads.

Each function returns a :class:`Scenario`: the input dataset ``Din``, a
repository of candidate tables, the downstream task, and the planted
ground-truth augmentations.  The statistical structure mirrors the paper's
anecdotes — e.g., housing prices are driven by a latent neighborhood
quality that income/crime/Walmart/taxi/grocery tables reveal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.generator import RepositoryBuilder, make_keys
from repro.dataframe.table import Table
from repro.tasks.base import Task
from repro.tasks.classification import ClassificationTask
from repro.tasks.clustering_task import ClusteringTask
from repro.tasks.entity_linking import EntityLinkingTask, KnowledgeBase
from repro.tasks.fairness import FairClassificationTask
from repro.tasks.regression import RegressionTask
from repro.tasks.causal.howto import HowToTask
from repro.tasks.causal.whatif import WhatIfTask
from repro.utils.rng import ensure_rng


@dataclass
class Scenario:
    """A complete experimental setting: Din + repository + task + truth."""

    name: str
    base: Table
    corpus: dict
    task: Task
    truth_columns: set
    key_columns: tuple
    extras: dict = field(default_factory=dict)

    @property
    def n_candidates_hint(self) -> int:
        """Rough candidate count: non-key columns across the repository."""
        return sum(t.num_columns - 1 for t in self.corpus.values())


def _standardize(values: np.ndarray) -> np.ndarray:
    std = values.std()
    return (values - values.mean()) / (std if std > 0 else 1.0)


# ---------------------------------------------------------------------------
# Predictive analytics
# ---------------------------------------------------------------------------
def housing_scenario(
    seed: int = 0,
    n_keys: int = 80,
    n_rows: int = 320,
    n_irrelevant: int = 15,
    n_erroneous: int = 8,
    n_traps: int = 6,
) -> Scenario:
    """Housing-price classification (§VI-A, Fig. 3a).

    A latent neighborhood quality per zipcode drives prices; the repository
    carries income, crime, Walmart-presence, taxi-trip and grocery-store
    tables that reveal it — the paper's own anecdote set.
    """
    rng = ensure_rng(seed)
    zips = make_keys(n_keys, prefix="", start=60601)
    quality = rng.normal(size=n_keys)
    assignment = rng.integers(0, n_keys, size=n_rows)

    sqft = rng.uniform(600, 4200, size=n_rows)
    rooms = rng.integers(1, 7, size=n_rows)
    age = rng.uniform(0, 90, size=n_rows)
    # Zip-level attribute independent of quality: the decoy trap columns
    # correlate with it (high profile value) but carry no label signal.
    lot_size = rng.normal(size=n_keys)
    price_score = (
        2.4 * quality[assignment]
        + 0.8 * _standardize(sqft)
        + rng.normal(scale=0.5, size=n_rows)
    )
    label = np.where(price_score > np.median(price_score), "high", "low")

    base = Table(
        "redfin_houses",
        {
            "zipcode": [zips[i] for i in assignment],
            "sqft": sqft.tolist(),
            "rooms": rooms.tolist(),
            "age": age.tolist(),
            "avg_lot_size": lot_size[assignment].tolist(),
            "price_label": label.tolist(),
        },
        source="open-data",
    )

    builder = RepositoryBuilder(zips, key_column="zipcode", seed=seed)
    noise = lambda scale: rng.normal(scale=scale, size=n_keys)
    builder.add_relevant(
        "acs_income", "median_income", (1.6 * quality + noise(0.5)).tolist()
    )
    builder.add_relevant(
        "police_reports", "crime_count", (-1.6 * quality + noise(0.5)).tolist()
    )
    builder.add_relevant(
        "retail_locations", "walmart_presence", (quality > 0).astype(float).tolist()
    )
    builder.add_relevant(
        "tlc_trips", "taxi_trips", (1.2 * quality + noise(0.6)).tolist()
    )
    builder.add_relevant(
        "business_licenses", "grocery_stores", (1.2 * quality + noise(0.6)).tolist()
    )
    builder.add_irrelevant(n_irrelevant)
    builder.add_erroneous(n_erroneous, signal_values=(1.5 * quality).tolist())
    builder.add_traps(n_traps, lot_size.tolist())

    return Scenario(
        name="housing_classification",
        base=base,
        corpus=builder.build(),
        task=ClassificationTask(
            "price_label",
            metric="accuracy",
            exclude_columns=("zipcode",),
            group_column="zipcode",
            seed=seed,
        ),
        truth_columns={
            "median_income",
            "crime_count",
            "walmart_presence",
            "taxi_trips",
            "grocery_stores",
        },
        key_columns=("zipcode",),
    )


def schools_scenario(
    seed: int = 0,
    n_keys: int = 260,
    n_irrelevant: int = 15,
    n_erroneous: int = 8,
    n_traps: int = 6,
) -> Scenario:
    """School-performance classification (§VI-A, ARDA's schools workload)."""
    rng = ensure_rng(seed)
    schools = make_keys(n_keys, prefix="sch", start=100)
    quality = rng.normal(size=n_keys)

    budget = 0.5 * quality + rng.normal(scale=1.0, size=n_keys)
    students = rng.uniform(100, 2000, size=n_keys)
    passed = np.where(
        quality + rng.normal(scale=0.6, size=n_keys) > 0, "pass", "fail"
    )

    base = Table(
        "school_performance",
        {
            "school_id": schools,
            "n_students": students.tolist(),
            "budget_per_student": budget.tolist(),
            "outcome": passed.tolist(),
        },
        source="open-data",
    )

    builder = RepositoryBuilder(schools, key_column="school_id", seed=seed)
    noise = lambda scale: rng.normal(scale=scale, size=n_keys)
    builder.add_relevant(
        "attendance_records", "attendance_rate", (1.5 * quality + noise(0.4)).tolist()
    )
    builder.add_relevant(
        "staffing", "teacher_ratio", (-1.3 * quality + noise(0.5)).tolist()
    )
    builder.add_relevant(
        "programs", "tutoring_hours", (1.2 * quality + noise(0.5)).tolist()
    )
    builder.add_irrelevant(n_irrelevant)
    builder.add_erroneous(n_erroneous, signal_values=(1.5 * quality).tolist())
    builder.add_traps(n_traps, students.tolist())

    return Scenario(
        name="schools_classification",
        base=base,
        corpus=builder.build(),
        task=ClassificationTask(
            "outcome", metric="f1", exclude_columns=("school_id",), seed=seed
        ),
        truth_columns={"attendance_rate", "teacher_ratio", "tutoring_hours"},
        key_columns=("school_id",),
    )


def collisions_scenario(
    seed: int = 0,
    n_keys: int = 240,
    n_irrelevant: int = 15,
    n_erroneous: int = 8,
    n_traps: int = 6,
) -> Scenario:
    """NYC collisions regression (§VI-A, Fig. 3b): collisions from taxi
    trips, traffic volume and road miles."""
    rng = ensure_rng(seed)
    regions = make_keys(n_keys, prefix="rgn", start=1000)

    taxi = rng.normal(size=n_keys)
    traffic = rng.normal(size=n_keys)
    roads = rng.normal(size=n_keys)
    population = rng.normal(size=n_keys)
    collisions = (
        2.0 * taxi
        + 1.5 * traffic
        + 0.8 * roads
        + 0.3 * population
        + rng.normal(scale=0.5, size=n_keys)
    )

    base = Table(
        "nyc_collisions",
        {
            "region": regions,
            "population": population.tolist(),
            "area_sq_km": rng.uniform(1, 50, size=n_keys).tolist(),
            "collisions": collisions.tolist(),
        },
        source="open-data",
    )

    builder = RepositoryBuilder(regions, key_column="region", seed=seed)
    noise = lambda scale: rng.normal(scale=scale, size=n_keys)
    builder.add_relevant("tlc_daily", "taxi_trips", (taxi + noise(0.2)).tolist())
    builder.add_relevant(
        "dot_counts", "traffic_volume", (traffic + noise(0.2)).tolist()
    )
    builder.add_relevant("street_network", "road_miles", (roads + noise(0.2)).tolist())
    builder.add_irrelevant(n_irrelevant)
    builder.add_erroneous(n_erroneous, signal_values=taxi.tolist())
    builder.add_traps(n_traps, population.tolist())

    return Scenario(
        name="collisions_regression",
        base=base,
        corpus=builder.build(),
        task=RegressionTask("collisions", exclude_columns=("region",), seed=seed),
        truth_columns={"taxi_trips", "traffic_volume", "road_miles"},
        key_columns=("region",),
    )


# ---------------------------------------------------------------------------
# Prescriptive analytics (causal)
# ---------------------------------------------------------------------------
def sat_whatif_scenario(
    seed: int = 0,
    n_keys: int = 300,
    n_irrelevant: int = 15,
    n_erroneous: int = 8,
    n_traps: int = 6,
) -> Scenario:
    """SAT what-if analysis (§VI-A, Fig. 3c): what is causally affected if
    the critical reading score is updated?

    Ground truth: writing/essay/verbal scores are descendants of reading;
    the math score is confounded via latent ability but *not* affected.
    """
    rng = ensure_rng(seed)
    students = make_keys(n_keys, prefix="stu", start=5000)
    ability = rng.normal(size=n_keys)
    reading = ability + rng.normal(scale=0.5, size=n_keys)
    household_income = rng.normal(size=n_keys)

    base = Table(
        "sat_scores",
        {
            "student_id": students,
            "critical_reading_score": reading.tolist(),
            "household_income": household_income.tolist(),
            "commute_minutes": rng.uniform(5, 90, size=n_keys).tolist(),
        },
        source="open-data",
    )

    noise = lambda scale: rng.normal(scale=scale, size=n_keys)
    builder = RepositoryBuilder(students, key_column="student_id", seed=seed)
    builder.add_relevant(
        "writing_results", "writing_score", (0.8 * reading + noise(0.4)).tolist()
    )
    builder.add_relevant(
        "essay_results", "essay_score", (0.7 * reading + noise(0.5)).tolist()
    )
    builder.add_relevant(
        "verbal_results", "verbal_score", (0.9 * reading + noise(0.3)).tolist()
    )
    # Confounded distractor: depends on ability, not on reading.
    builder.add_relevant(
        "math_results", "math_score", (ability + noise(0.5)).tolist()
    )
    builder.add_irrelevant(n_irrelevant)
    builder.add_erroneous(n_erroneous, signal_values=reading.tolist())
    builder.add_traps(n_traps, household_income.tolist())

    return Scenario(
        name="sat_what_if",
        base=base,
        corpus=builder.build(),
        task=WhatIfTask(
            "critical_reading_score",
            truth_affected={"writing_score", "essay_score", "verbal_score"},
            base_columns=("household_income", "commute_minutes"),
            exclude_columns=("student_id",),
        ),
        truth_columns={"writing_score", "essay_score", "verbal_score"},
        key_columns=("student_id",),
    )


def sat_howto_scenario(
    seed: int = 0,
    n_keys: int = 300,
    n_irrelevant: int = 12,
    n_erroneous: int = 6,
    n_traps: int = 6,
) -> Scenario:
    """SAT how-to analysis (§VI-A, Fig. 3d): what to update to raise the
    total SAT score?  Ground truth: study/tutoring/attendance drive it."""
    rng = ensure_rng(seed)
    students = make_keys(n_keys, prefix="stu", start=7000)

    study = rng.normal(size=n_keys)
    tutoring = rng.normal(size=n_keys)
    attendance = rng.normal(size=n_keys)
    sat_total = (
        1.2 * study
        + 1.0 * tutoring
        + 0.8 * attendance
        + rng.normal(scale=0.5, size=n_keys)
    )

    base = Table(
        "sat_totals",
        {
            "student_id": students,
            "sat_total": sat_total.tolist(),
            "extracurriculars": rng.normal(size=n_keys).tolist(),
            "siblings": rng.integers(0, 5, size=n_keys).tolist(),
        },
        source="open-data",
    )

    noise = lambda scale: rng.normal(scale=scale, size=n_keys)
    builder = RepositoryBuilder(students, key_column="student_id", seed=seed)
    builder.add_relevant(
        "study_logs", "study_hours", (study + noise(0.2)).tolist()
    )
    builder.add_relevant(
        "tutoring_records", "tutoring_hours", (tutoring + noise(0.2)).tolist()
    )
    builder.add_relevant(
        "attendance_log", "attendance_rate", (attendance + noise(0.2)).tolist()
    )
    # Descendant distractor: scholarships follow the SAT score.
    builder.add_relevant(
        "scholarships", "scholarship_offer", (sat_total + noise(0.4)).tolist()
    )
    builder.add_irrelevant(n_irrelevant)
    builder.add_erroneous(n_erroneous, signal_values=study.tolist())
    builder.add_traps(n_traps, base.numeric("extracurriculars").tolist())

    return Scenario(
        name="sat_how_to",
        base=base,
        corpus=builder.build(),
        task=HowToTask(
            "sat_total",
            truth_causes={"study_hours", "tutoring_hours", "attendance_rate"},
            base_columns=("extracurriculars", "siblings"),
            exclude_columns=("student_id",),
        ),
        truth_columns={"study_hours", "tutoring_hours", "attendance_rate"},
        key_columns=("student_id",),
    )


# ---------------------------------------------------------------------------
# Generalization tasks (§VI-A.4)
# ---------------------------------------------------------------------------
_STATES = ["alabama", "illinois", "california", "texas", "ohio", "georgia"]
_AMBIGUOUS_CITIES = ["springfield", "birmingham", "columbus", "aurora", "franklin"]
_UNIQUE_CITIES = ["chicago", "houston", "atlanta", "cleveland", "sacramento"]


def entity_linking_scenario(
    seed: int = 0,
    n_rows: int = 120,
    n_irrelevant: int = 15,
) -> Scenario:
    """CDC-cities entity linking (§VI-A.4): ambiguous city names resolve
    once a state column is augmented."""
    rng = ensure_rng(seed)
    kb = KnowledgeBase()
    for city in _AMBIGUOUS_CITIES:
        for state in _STATES[:3]:
            kb.add_entity(city, f"{city}_{state}", {state})
    for city in _UNIQUE_CITIES:
        kb.add_entity(city, f"{city}_{_STATES[0]}", {_STATES[0]})

    keys = make_keys(n_rows, prefix="city", start=1)
    cities, states, entities = [], [], []
    for _ in range(n_rows):
        if rng.uniform() < 0.5:
            city = _AMBIGUOUS_CITIES[int(rng.integers(0, len(_AMBIGUOUS_CITIES)))]
            state = _STATES[int(rng.integers(0, 3))]
        else:
            city = _UNIQUE_CITIES[int(rng.integers(0, len(_UNIQUE_CITIES)))]
            state = _STATES[0]
        cities.append(city)
        states.append(state)
        entities.append(f"{city}_{state}")

    base = Table(
        "cdc_city_stats",
        {
            "city_key": keys,
            "city_name": cities,
            "obesity_rate": rng.uniform(10, 40, size=n_rows).tolist(),
            "entity_id": entities,
        },
        source="kaggle",
    )

    builder = RepositoryBuilder(keys, key_column="city_key", source="kaggle", seed=seed)
    builder.add_relevant("city_geography", "state", states, coverage=1.0)
    builder.add_irrelevant(n_irrelevant)

    return Scenario(
        name="entity_linking",
        base=base,
        corpus=builder.build(),
        task=EntityLinkingTask(
            "city_name",
            "entity_id",
            kb,
            exclude_columns=("city_key",),
        ),
        truth_columns={"state"},
        key_columns=("city_key",),
        extras={"knowledge_base": kb},
    )


def fairness_scenario(
    seed: int = 0,
    n_rows: int = 300,
    n_irrelevant: int = 10,
) -> Scenario:
    """Fair classification on a credit-style dataset (§VI-A.4).

    The repository contains a highly predictive but age-correlated feature
    (dropped by the fairness filter) and a fair merit feature (the planted
    truth) — reproducing the paper's single-profile failure mode.
    """
    rng = ensure_rng(seed)
    people = make_keys(n_rows, prefix="p", start=1)
    age = rng.uniform(20, 70, size=n_rows)
    age_norm = _standardize(age)
    merit = rng.normal(size=n_rows)
    score = 1.5 * merit + 0.8 * age_norm + rng.normal(scale=0.5, size=n_rows)
    label = np.where(score > np.median(score), "high", "low")

    base = Table(
        "credit_records",
        {
            "person_id": people,
            "age": age.tolist(),
            "savings_hint": (0.4 * merit + rng.normal(scale=1.0, size=n_rows)).tolist(),
            "income_label": label.tolist(),
        },
        source="kaggle",
    )

    noise = lambda scale: rng.normal(scale=scale, size=n_rows)
    builder = RepositoryBuilder(people, key_column="person_id", source="kaggle", seed=seed)
    # Unfair but predictive: correlated with both target and age.
    builder.add_relevant(
        "credit_bureau", "credit_history", (0.9 * age_norm + 0.5 * merit).tolist()
    )
    # Fair and predictive: the planted ground truth.
    builder.add_relevant(
        "education_records", "education_score", (merit + noise(0.3)).tolist()
    )
    # Unfair and useless: age proxy only.
    builder.add_relevant(
        "tenure_records", "tenure_years", (age_norm + noise(0.2)).tolist()
    )
    builder.add_irrelevant(n_irrelevant)

    return Scenario(
        name="fair_classification",
        base=base,
        corpus=builder.build(),
        task=FairClassificationTask(
            "income_label",
            "age",
            fairness_threshold=0.3,
            exclude_columns=("person_id",),
            seed=seed,
        ),
        truth_columns={"education_score"},
        key_columns=("person_id",),
    )


def clustering_scenario(
    seed: int = 0,
    n_rows: int = 120,
    n_irrelevant: int = 7,
) -> Scenario:
    """Satiety clustering of raw materials (§VI-A.4): 8 candidate
    augmentations, one (the ONI score) aligned with the true categories."""
    rng = ensure_rng(seed)
    items = make_keys(n_rows, prefix="ing", start=1)
    category = rng.integers(0, 3, size=n_rows)
    satiety = np.array([2.0, 5.0, 8.0])[category] + rng.normal(
        scale=0.3, size=n_rows
    )

    base = Table(
        "raw_materials",
        {
            "ingredient_id": items,
            "satiety_score": satiety.tolist(),
            "price_per_kg": rng.uniform(0.5, 30, size=n_rows).tolist(),
        },
        source="kaggle",
    )

    builder = RepositoryBuilder(items, key_column="ingredient_id", source="kaggle", seed=seed)
    oni = np.array([0.0, 4.0, 8.0])[category] + rng.normal(scale=0.15, size=n_rows)
    builder.add_relevant("nutrition_db", "oni_score", oni.tolist(), coverage=1.0)
    builder.add_irrelevant(n_irrelevant)

    return Scenario(
        name="satiety_clustering",
        base=base,
        corpus=builder.build(),
        task=ClusteringTask(
            "satiety_score",
            n_clusters=3,
            exclude_columns=("ingredient_id",),
            seed=seed,
        ),
        truth_columns={"oni_score"},
        key_columns=("ingredient_id",),
    )


def unions_scenario(
    seed: int = 0,
    n_rows: int = 80,
    n_good_unions: int = 6,
    n_bad_unions: int = 6,
) -> Scenario:
    """NYC-rent unions (Fig. 4b): row-addition candidates; good unions add
    in-distribution training rows, bad unions add mislabeled rows."""
    rng = ensure_rng(seed)

    def make_rent_table(name: str, rows: int, flip: bool, table_seed: int) -> Table:
        local = ensure_rng(table_seed)
        sqft = local.uniform(300, 2500, size=rows)
        boro = local.integers(0, 5, size=rows)
        score = (
            1.5 * _standardize(sqft)
            + 0.8 * (boro - 2)
            + local.normal(scale=0.8, size=rows)
        )
        label = np.where(score > 0, "high", "low")
        if flip:
            label = np.where(label == "high", "low", "high")
        return Table(
            name,
            {
                "sqft": sqft.tolist(),
                "borough": boro.tolist(),
                "rent_label": label.tolist(),
            },
            source="open-data",
        )

    base = make_rent_table("nyc_rents", n_rows, flip=False, table_seed=seed)
    corpus = {}
    for i in range(n_good_unions):
        t = make_rent_table(f"rents_batch_{i}", 60, flip=False, table_seed=seed + 100 + i)
        corpus[t.name] = t
    for i in range(n_bad_unions):
        t = make_rent_table(
            f"rents_scraped_{i}", 60, flip=True, table_seed=seed + 200 + i
        )
        corpus[t.name] = t

    return Scenario(
        name="nyc_rent_unions",
        base=base,
        corpus=corpus,
        task=ClassificationTask("rent_label", metric="accuracy", seed=seed),
        truth_columns={f"rents_batch_{i}" for i in range(n_good_unions)},
        key_columns=(),
    )


# ---------------------------------------------------------------------------
# Themed scenarios for Table II
# ---------------------------------------------------------------------------
_THEMES = {
    "schools": {
        "kind": "causal",
        "key": "school_id",
        "outcome": "test_score",
        "causes": [("attendance_rate", 1.2), ("tutoring_hours", 1.0), ("library_visits", 0.8)],
        "base_noise": ["n_students", "building_age"],
    },
    "taxi": {
        "kind": "causal",
        "key": "zone_id",
        "outcome": "trip_revenue",
        "causes": [("tourist_visits", 1.2), ("hotel_occupancy", 1.0)],
        "base_noise": ["zone_area", "meter_count"],
    },
    "crime": {
        "kind": "causal",
        "key": "district_id",
        "outcome": "incident_count",
        "causes": [("unemployment_rate", 1.2), ("vacant_buildings", 1.0), ("street_light_outages", 0.7)],
        "base_noise": ["district_area", "population_density"],
    },
    "housing": {
        "kind": "causal",
        "key": "zipcode",
        "outcome": "price_index",
        "causes": [("median_income", 1.3), ("school_rating", 1.0), ("transit_access", 0.8)],
        "base_noise": ["housing_stock", "avg_lot_size"],
    },
    "pharmacy": {
        "kind": "analytics",
        "key": "store_id",
        "target": "high_volume",
        "signals": [("prescriptions_filled", 1.5), ("nearby_clinics", 1.1), ("senior_population", 0.9)],
        "base_noise": ["floor_area", "parking_spots"],
    },
    "grocery": {
        "kind": "analytics",
        "key": "store_id",
        "target": "high_revenue",
        "signals": [("foot_traffic", 1.5), ("median_income", 1.1), ("competitor_distance", 0.9)],
        "base_noise": ["floor_area", "checkout_lanes"],
    },
}


def themed_scenario(
    theme: str,
    seed: int = 0,
    n_keys: int = 220,
    n_irrelevant: int = 12,
    n_erroneous: int = 6,
    n_traps: int = 5,
) -> Scenario:
    """One of the Table II datasets: causal themes run how-to analysis,
    analytics themes run classification (paper's (C) annotation)."""
    if theme not in _THEMES:
        raise ValueError(f"unknown theme {theme!r}; choose from {sorted(_THEMES)}")
    spec = _THEMES[theme]
    rng = ensure_rng(seed)
    keys = make_keys(n_keys, prefix=theme[:3], start=100)
    noise = lambda scale: rng.normal(scale=scale, size=n_keys)
    builder = RepositoryBuilder(keys, key_column=spec["key"], seed=seed)

    if spec["kind"] == "causal":
        causes = {}
        outcome = rng.normal(scale=0.5, size=n_keys)
        for column, weight in spec["causes"]:
            values = rng.normal(size=n_keys)
            causes[column] = values
            outcome = outcome + weight * values
            builder.add_relevant(f"{column}_records", column, (values + noise(0.2)).tolist())
        base_cols = {spec["key"]: keys, spec["outcome"]: outcome.tolist()}
        for col in spec["base_noise"]:
            base_cols[col] = rng.normal(size=n_keys).tolist()
        base = Table(f"{theme}_base", base_cols, source="open-data")
        task = HowToTask(
            spec["outcome"],
            truth_causes={c for c, _ in spec["causes"]},
            base_columns=tuple(spec["base_noise"]),
            exclude_columns=(spec["key"],),
        )
        truth = {c for c, _ in spec["causes"]}
    else:
        latent = rng.normal(size=n_keys)
        score = rng.normal(scale=0.5, size=n_keys)
        for column, weight in spec["signals"]:
            values = weight * latent + noise(0.5)
            builder.add_relevant(f"{column}_records", column, values.tolist())
            score = score + 0.5 * weight * latent
        label = np.where(score > np.median(score), "yes", "no")
        base_cols = {spec["key"]: keys, spec["target"]: label.tolist()}
        for col in spec["base_noise"]:
            base_cols[col] = rng.normal(size=n_keys).tolist()
        base = Table(f"{theme}_base", base_cols, source="open-data")
        task = ClassificationTask(
            spec["target"], metric="accuracy", exclude_columns=(spec["key"],), seed=seed
        )
        truth = {c for c, _ in spec["signals"]}

    builder.add_irrelevant(n_irrelevant)
    builder.add_erroneous(n_erroneous)
    builder.add_traps(n_traps, base_cols[spec["base_noise"][0]])
    return Scenario(
        name=f"{theme}_{spec['kind']}",
        base=base,
        corpus=builder.build(),
        task=task,
        truth_columns=truth,
        key_columns=(spec["key"],),
    )


#: The built-in evaluation scenarios by name: the CLI's ``run`` and
#: ``serve --scenario`` choices.
SCENARIOS = {
    "housing": housing_scenario,
    "schools": schools_scenario,
    "collisions": collisions_scenario,
    "sat-whatif": sat_whatif_scenario,
    "sat-howto": sat_howto_scenario,
    "entity-linking": entity_linking_scenario,
    "fairness": fairness_scenario,
    "clustering": clustering_scenario,
}
