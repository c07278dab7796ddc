"""The :class:`DiscoveryRun` handle: one served request, fully recorded.

A run bundles the final :class:`~repro.core.result.SearchResult` with the
typed event stream that produced it and the timings of each phase, and
serializes the whole thing to a JSON-safe record for archival.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.api.request import DiscoveryRequest
from repro.core.result import SearchResult


@dataclass
class DiscoveryRun:
    """Outcome of one :meth:`DiscoveryEngine.discover` call.

    Attributes
    ----------
    run_id:
        Engine-scoped sequential id (unique per engine instance).
    request:
        The request this run served.
    status:
        ``"completed"`` or ``"cancelled"``.
    result:
        The search result; ``None`` when the run was cancelled before a
        result existed.
    events:
        Ordered :class:`~repro.api.events.RunEvent` stream.
    n_candidates / candidate_source:
        Size and provenance (``prepared``/``cache``/``request``) of the
        candidate set the searcher saw.
    prepare_seconds / search_seconds:
        Wall-clock of the two phases.
    cached:
        ``True`` when the engine served this run from its result cache —
        result, events, and timings are those of the original execution;
        only ``run_id`` (and this flag) are fresh.
    cache_info:
        Cache behavior of this serving, recorded explicitly so archived
        records (and benchmarks) can assert on it instead of inferring
        from timings: ``prepare_source`` / ``prepare_cache_hit`` for the
        prepared-candidate cache, ``result_cache_hit`` for a replay from
        the engine's in-memory result cache.
    trace:
        Serialized per-run trace tree (``Span.to_record()`` form), or
        ``None`` when tracing was disabled; replays carry the original
        execution's trace.
    """

    run_id: int
    request: DiscoveryRequest
    status: str
    result: SearchResult = None
    events: list = field(default_factory=list)
    n_candidates: int = 0
    candidate_source: str = "prepared"
    prepare_seconds: float = 0.0
    search_seconds: float = 0.0
    cached: bool = False
    cache_info: dict = field(default_factory=dict)
    trace: dict = None

    @property
    def completed(self) -> bool:
        return self.status == "completed"

    @property
    def cancelled(self) -> bool:
        return self.status == "cancelled"

    @property
    def selected(self) -> list:
        """Selected augmentation ids (empty when no result exists)."""
        return list(self.result.selected) if self.result is not None else []

    @property
    def utility(self) -> float:
        return self.result.utility if self.result is not None else 0.0

    @property
    def queries(self) -> int:
        return self.result.queries if self.result is not None else 0

    def events_of(self, kind: str) -> list:
        """Events of one kind, in emission order."""
        return [e for e in self.events if e.kind == kind]

    def to_record(self) -> dict:
        """JSON-serializable record of the full run (the wire schema;
        see :func:`repro.api.wire.run_to_wire`)."""
        from repro.api import wire

        return wire.run_to_wire(self)
