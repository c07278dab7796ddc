"""Pluggable registries: searchers and tasks by name.

The engine never hard-codes a strategy list.  Its searchers and tasks
live in :class:`Registry` instances (``engine.searchers``,
``engine.tasks``) with entry-point-style registration, so a new
baseline or workload plugs in without touching core code (evaluation
scenarios are a plain dict, :data:`repro.data.SCENARIOS`)::

    engine = DiscoveryEngine(corpus=corpus)

    @engine.searchers.register("my_ranker")
    def build(candidates, base, corpus, task, *, theta, query_budget,
              seed, config=None, **options):
        return MyRanker(candidates, base, corpus, task, theta=theta,
                        query_budget=query_budget, seed=seed, **options)

    engine.discover(DiscoveryRequest(base=b, task=t, searcher="my_ranker"))

Searcher factories receive ``(candidates, base, corpus, task)`` plus the
request's keyword knobs and must return a new, unwired searcher for
every run: an object with ``run() -> SearchResult`` and an ``engine``
attribute holding the :class:`~repro.core.querying.QueryEngine` it
spends queries through (the engine wires the run's observers into it
once).  Options a constructor rejects raise
:class:`~repro.api.errors.InvalidRequest`.
"""

from __future__ import annotations

import inspect
from dataclasses import replace

from repro.api.errors import InvalidRequest
from repro.baselines.arda import IArdaSearcher
from repro.baselines.join_everything import JoinEverythingSearcher
from repro.baselines.mw import MultiplicativeWeightsSearcher
from repro.baselines.overlap_ranking import OverlapSearcher
from repro.baselines.uniform import UniformSearcher
from repro.core.config import MetamConfig
from repro.core.metam import Metam


class RegistryError(LookupError):
    """Unknown name, or a name collision without ``overwrite=True``."""


class Registry:
    """A name → factory map with decorator-style registration."""

    def __init__(self, kind: str, entries: dict = None):
        self.kind = kind
        self._entries = dict(entries or {})
        #: Monotone count of (re-)registrations.  Cheap
        #: change detection for caches keyed on registry contents (the
        #: engine's result cache must not replay a run recorded under a
        #: factory that has since been replaced).
        self.mutations = 0

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def names(self) -> list:
        return sorted(self._entries)

    def register(self, name: str, factory=None, overwrite: bool = False):
        """Register ``factory`` under ``name``.

        Usable directly (``registry.register("x", build_x)``) or as a
        decorator (``@registry.register("x")``).  Re-registering an
        existing name raises unless ``overwrite=True`` — silent
        replacement of a built-in is how plug-in bugs hide.
        """
        if factory is None:
            return lambda f: self.register(name, f, overwrite=overwrite)
        if name in self._entries and not overwrite:
            raise RegistryError(
                f"{self.kind} {name!r} is already registered; pass "
                "overwrite=True to replace it"
            )
        self._entries[name] = factory
        self.mutations += 1
        return factory

    def get(self, name: str):
        """The factory for ``name``; unknown names fail with the choices."""
        try:
            return self._entries[name]
        except KeyError:
            raise RegistryError(
                f"unknown {self.kind} {name!r}; choose from {self.names()}"
            ) from None

    def create(self, name: str, *args, **kwargs):
        """Look up ``name`` and call its factory."""
        return self.get(name)(*args, **kwargs)


# ---------------------------------------------------------------------------
# Built-in searchers
# ---------------------------------------------------------------------------
#: METAM and its Fig. 11b ablations: searcher name -> MetamConfig
#: overrides.  ``eq`` ranks clusters with equal importance (no
#: Thompson sampling), ``nc`` makes every augmentation its own cluster
#: (no clustering), ``nceq`` applies both.
_METAM_VARIANTS = {
    "metam": {},
    "eq": {"use_thompson": False},
    "nc": {"use_clustering": False},
    "nceq": {"use_thompson": False, "use_clustering": False},
}


def _invalid_options(searcher: str, error: Exception) -> InvalidRequest:
    """A searcher's rejection of the request's ``options``, as the
    caller's error."""
    return InvalidRequest(
        f"searcher {searcher!r} rejects its options: {type(error).__name__}: {error}",
        details={"field": "options"},
    )


def _metam_factory(variant: str):
    overrides = _METAM_VARIANTS[variant]

    def build(
        candidates,
        base,
        corpus,
        task,
        *,
        theta: float = 1.0,
        query_budget: int = 1000,
        seed: int = 0,
        config: MetamConfig = None,
        **options,
    ):
        if config is None:
            try:
                config = MetamConfig(
                    theta=theta, query_budget=query_budget, seed=seed, **options
                )
            except (TypeError, ValueError) as error:
                raise _invalid_options(variant, error) from error
        elif options:
            # A full config and loose knobs together is ambiguous — the
            # knobs would be silently ignored in favor of the config.
            raise InvalidRequest(
                f"searcher options {sorted(options)} conflict with an "
                "explicit MetamConfig; set them on the config instead",
                details={"field": "options"},
            )
        # replace() copies even without overrides: the searcher never
        # shares a config object with its caller.
        return Metam(candidates, base, corpus, task, replace(config, **overrides))

    build.__name__ = f"build_{variant}"
    return build


def _ranking_factory(searcher_class):
    signature = inspect.signature(searcher_class)

    def build(
        candidates,
        base,
        corpus,
        task,
        *,
        theta: float = 1.0,
        query_budget: int = 1000,
        seed: int = 0,
        config: MetamConfig = None,
        **options,
    ):
        if config is not None:
            raise InvalidRequest(
                f"{searcher_class.__name__} takes no MetamConfig; pass "
                "theta/query_budget/seed directly",
                details={"field": "config"},
            )
        args = (candidates, base, corpus, task)
        knobs = dict(theta=theta, query_budget=query_budget, seed=seed, **options)
        try:
            signature.bind(*args, **knobs)
        except TypeError as error:
            raise _invalid_options(searcher_class.__name__, error) from error
        return searcher_class(*args, **knobs)

    build.__name__ = f"build_{searcher_class.__name__}"
    return build


def default_searchers() -> Registry:
    """All built-in searchers: METAM, its ablations, and the baselines."""
    registry = Registry("searcher")
    for variant in _METAM_VARIANTS:
        registry.register(variant, _metam_factory(variant))
    for name, cls in (
        ("mw", MultiplicativeWeightsSearcher),
        ("overlap", OverlapSearcher),
        ("uniform", UniformSearcher),
        ("iarda", IArdaSearcher),
        ("join_everything", JoinEverythingSearcher),
    ):
        registry.register(name, _ranking_factory(cls))
    return registry


# ---------------------------------------------------------------------------
# Built-in tasks (imported lazily: the task layer pulls in the ml/
# package, which engine users may never need)
# ---------------------------------------------------------------------------
def default_tasks() -> Registry:
    """Built-in downstream tasks, constructible by name."""
    from repro.tasks import (
        AutoMLTask,
        ClassificationTask,
        ClusteringTask,
        EntityLinkingTask,
        FairClassificationTask,
        HowToTask,
        RegressionTask,
        WhatIfTask,
    )

    registry = Registry("task")
    for name, cls in (
        ("classification", ClassificationTask),
        ("regression", RegressionTask),
        ("automl", AutoMLTask),
        ("clustering", ClusteringTask),
        ("entity_linking", EntityLinkingTask),
        ("fairness", FairClassificationTask),
        ("whatif", WhatIfTask),
        ("howto", HowToTask),
    ):
        registry.register(name, cls)
    return registry
