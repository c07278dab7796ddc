"""Typed events of a discovery run, plus cooperative cancellation.

Every :meth:`DiscoveryEngine.discover` call records the milestones of its
run — candidates prepared, queries issued, augmentations accepted, rounds
committed — as immutable event objects.  The same events drive the
``progress`` callback (streaming observation while the run executes) and
the run's JSON record (archival after it completes), so a serving layer
never has to scrape logs to know what a search did.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass


class RunCancelled(RuntimeError):
    """Raised inside a searcher when its run's cancellation token fires.

    Cooperative: the search is interrupted at the next utility query, so
    a cancelled run stops within one task evaluation.
    """


class CancellationToken:
    """Thread-safe cancel flag shared between a caller and one run.

    Pass as ``cancel=`` to :meth:`DiscoveryEngine.discover`; calling
    :meth:`cancel` from any thread stops the run at its next query and
    the run completes with ``status == "cancelled"``.
    """

    def __init__(self):
        self._event = threading.Event()

    def cancel(self) -> None:
        self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()

    def raise_if_cancelled(self) -> None:
        if self._event.is_set():
            raise RunCancelled("discovery run cancelled")


@dataclass(frozen=True)
class RunEvent:
    """Base class of all run events (``kind`` names the concrete type)."""

    kind = "event"

@dataclass(frozen=True)
class RunStarted(RunEvent):
    """The engine accepted the request and began serving it."""

    kind = "run-started"

    run_id: int
    searcher: str
    base_table: str
    task: str


@dataclass(frozen=True)
class CandidatesPrepared(RunEvent):
    """The candidate set is ready (discovered, materialized, profiled)."""

    kind = "candidates-prepared"

    n_candidates: int
    source: str  # "prepared" | "cache" | "request"
    seconds: float


@dataclass(frozen=True)
class QueryIssued(RunEvent):
    """One utility-function query was spent (Definition 5 accounting)."""

    kind = "query-issued"

    query_index: int
    utility: float
    best_utility: float


@dataclass(frozen=True)
class AugmentationAccepted(RunEvent):
    """The monotone solution grew by one certified augmentation."""

    kind = "augmentation-accepted"

    aug_id: str
    utility: float
    n_selected: int


@dataclass(frozen=True)
class RoundCompleted(RunEvent):
    """One METAM outer-loop round finished (lines 7-22 of Algorithm 1)."""

    kind = "round-completed"

    round_index: int
    utility: float
    queries: int
    committed: bool


@dataclass(frozen=True)
class RunCompleted(RunEvent):
    """The run finished (successfully, cancelled, or budget-exhausted)."""

    kind = "run-completed"

    status: str
    utility: float
    queries: int
    seconds: float


#: Concrete event classes by their ``kind`` tag (the inverse of
#: :func:`repro.api.wire.event_to_wire`'s discriminator).
EVENT_TYPES = {
    cls.kind: cls
    for cls in (
        RunStarted,
        CandidatesPrepared,
        QueryIssued,
        AugmentationAccepted,
        RoundCompleted,
        RunCompleted,
    )
}
