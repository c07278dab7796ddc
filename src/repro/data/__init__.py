"""Synthetic open-data corpus generators (DESIGN.md §4 substitution).

Each *scenario* packages an input dataset ``Din``, a repository of
joinable tables (relevant / irrelevant / erroneous candidates), a task,
and the planted ground truth — everything an experiment needs.
"""

from repro.data.generator import RepositoryBuilder, make_keys
from repro.data.scenarios import (
    SCENARIOS,
    Scenario,
    housing_scenario,
    schools_scenario,
    collisions_scenario,
    sat_whatif_scenario,
    sat_howto_scenario,
    entity_linking_scenario,
    fairness_scenario,
    clustering_scenario,
    unions_scenario,
    themed_scenario,
)
from repro.data.semisynthetic import semisynthetic_scenario
from repro.data.corpus import generate_corpus, corpus_characteristics

__all__ = [
    "RepositoryBuilder",
    "make_keys",
    "SCENARIOS",
    "Scenario",
    "housing_scenario",
    "schools_scenario",
    "collisions_scenario",
    "sat_whatif_scenario",
    "sat_howto_scenario",
    "entity_linking_scenario",
    "fairness_scenario",
    "clustering_scenario",
    "unions_scenario",
    "themed_scenario",
    "semisynthetic_scenario",
    "generate_corpus",
    "corpus_characteristics",
]
