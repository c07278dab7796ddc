"""Session-oriented discovery API: one engine, many requests.

The serving layer of this reproduction: a stateful
:class:`DiscoveryEngine` that owns the catalog, corpus, and registries,
and answers declarative :class:`DiscoveryRequest`s with fully recorded
:class:`DiscoveryRun` handles (final result + typed event stream + JSON
run record).  See the module docstrings of :mod:`repro.api.engine`,
:mod:`repro.api.request`, and :mod:`repro.api.registries` for usage.

Everything that crosses a process boundary — requests, run records,
events, errors — has its versioned JSON schema in :mod:`repro.api.wire`,
and every user-facing failure is one of the typed
:class:`~repro.api.errors.ReproError` kinds.
"""

from repro.api.engine import DiscoveryEngine, EngineStateError
from repro.api.errors import (
    Cancelled,
    Internal,
    InvalidRequest,
    NotFound,
    Overloaded,
    ReproError,
)
from repro.api.events import (
    AugmentationAccepted,
    CancellationToken,
    CandidatesPrepared,
    QueryIssued,
    RoundCompleted,
    RunCancelled,
    RunCompleted,
    RunEvent,
    RunStarted,
)
from repro.api.registries import (
    Registry,
    RegistryError,
    default_searchers,
    default_tasks,
)
from repro.api.request import CandidateSpec, DiscoveryRequest
from repro.api.run import DiscoveryRun
from repro.api.wire import SCHEMA_VERSION

__all__ = [
    "SCHEMA_VERSION",
    "ReproError",
    "InvalidRequest",
    "NotFound",
    "Overloaded",
    "Cancelled",
    "Internal",
    "DiscoveryEngine",
    "EngineStateError",
    "DiscoveryRequest",
    "CandidateSpec",
    "DiscoveryRun",
    "RunEvent",
    "RunStarted",
    "CandidatesPrepared",
    "QueryIssued",
    "AugmentationAccepted",
    "RoundCompleted",
    "RunCompleted",
    "RunCancelled",
    "CancellationToken",
    "Registry",
    "RegistryError",
    "default_searchers",
    "default_tasks",
]
