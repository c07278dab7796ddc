"""METAM: Goal-Oriented Data Discovery (ICDE 2023) — full reproduction.

Quickstart::

    from repro import DiscoveryEngine, DiscoveryRequest, MetamConfig
    from repro.data import housing_scenario

    scenario = housing_scenario(seed=0)
    engine = DiscoveryEngine(corpus=scenario.corpus)
    run = engine.discover(DiscoveryRequest(
        base=scenario.base, task=scenario.task, searcher="metam",
        config=MetamConfig(theta=0.8)))
    print(run.result.summary())
"""

from repro.api import (
    CancellationToken,
    CandidateSpec,
    DiscoveryEngine,
    DiscoveryRequest,
    DiscoveryRun,
)
from repro.catalog import Catalog, CatalogStore
from repro.core.config import MetamConfig
from repro.core.metam import Metam
from repro.core.result import SearchResult

__version__ = "2.6.0"

__all__ = [
    "DiscoveryEngine",
    "DiscoveryRequest",
    "DiscoveryRun",
    "CandidateSpec",
    "CancellationToken",
    "Catalog",
    "CatalogStore",
    "MetamConfig",
    "Metam",
    "SearchResult",
    "__version__",
]
