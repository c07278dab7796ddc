"""The reified information need: what one discovery run should do.

A :class:`DiscoveryRequest` packages everything METAM's pipeline used to
take as loose function arguments — the input dataset, the task, the
searcher, the candidate-generation knobs — into one declarative object
the :class:`~repro.api.engine.DiscoveryEngine` can serve, record, and
replay.  Requests are cheap to construct and JSON-describable
(:meth:`DiscoveryRequest.to_wire`, schema in :mod:`repro.api.wire`), so
a serving layer can log every information need it answered — and
:meth:`DiscoveryRequest.from_wire` rebuilds one from a wire payload
against a served corpus.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

from repro.core.config import MetamConfig
from repro.dataframe.table import Table


@dataclass(frozen=True)
class CandidateSpec:
    """Candidate-generation knobs (discovery + materialization + profiling).

    Two equal specs against the same base/corpus/seed yield
    byte-identical candidate sets, which is what lets the engine cache
    prepared candidates across runs.  ``min_containment`` only governs
    the cold path — with a catalog attached, the catalog's own index
    config applies.
    """

    min_containment: float = 0.3
    max_hops: int = 1
    max_fanout: int = 500
    include_unions: bool = False
    min_union_shared: float = 0.5
    sample_size: int = 100

    def to_record(self) -> dict:
        return asdict(self)


@dataclass
class DiscoveryRequest:
    """One goal-oriented discovery request.

    Attributes
    ----------
    base:
        The input dataset ``Din``.
    task:
        The downstream task — a :class:`~repro.tasks.base.Task` instance,
        or the name of a task registered with the engine's task registry
        (constructed with ``task_options``).
    searcher:
        Name of a searcher registered with the engine (``metam``, ``mw``,
        ``overlap``, ``uniform``, ``iarda``, ``join_everything``, the
        ablation variants, or any plug-in).
    theta / query_budget / seed:
        The shared searcher knobs: target utility, query cap, and the
        run's RNG seed (also governs profile sampling during prepare
        unless ``prepare_seed`` overrides it).
    prepare_seed:
        Seed for candidate preparation only (``None`` = use ``seed``).
        Setting it lets many runs with different search seeds share one
        cached candidate set on a warm engine.
    spec:
        Candidate-generation parameters (see :class:`CandidateSpec`).
    config:
        Full :class:`~repro.core.config.MetamConfig` for METAM-family
        searchers; overrides ``theta``/``query_budget``/``seed`` when
        given.
    options:
        Extra searcher-specific keyword arguments (e.g. iARDA's
        ``target_column``), passed through to the searcher factory.
    task_options:
        Constructor keyword arguments when ``task`` is a registry name.
    registry:
        Profile registry override for candidate preparation (``None`` =
        the engine's default).
    candidates:
        Pre-prepared candidate list; skips the engine's prepare step
        entirely (the legacy two-phase calling convention).
    label:
        Free-form tag recorded with the run (for experiment bookkeeping).
    """

    base: Table
    task: object
    searcher: str = "metam"
    theta: float = 1.0
    query_budget: int = 1000
    seed: int = 0
    prepare_seed: int = None
    spec: CandidateSpec = field(default_factory=CandidateSpec)
    config: MetamConfig = None
    options: dict = field(default_factory=dict)
    task_options: dict = field(default_factory=dict)
    registry: object = None
    candidates: list = None
    label: str = None

    def task_name(self) -> str:
        """Human-readable task identifier for records and events."""
        if isinstance(self.task, str):
            return self.task
        return getattr(self.task, "name", type(self.task).__name__)

    def to_wire(self) -> dict:
        """JSON-serializable description of this request (the versioned
        wire schema; see :func:`repro.api.wire.request_to_wire`).

        Tables and task objects are described, not embedded — a record
        identifies what was asked, it does not re-ship the data.
        """
        from repro.api import wire

        return wire.request_to_wire(self)

    @classmethod
    def from_wire(cls, payload: dict, corpus: dict) -> "DiscoveryRequest":
        """Build a request from a wire payload served over ``corpus``
        (see :func:`repro.api.wire.request_from_wire`; raises
        :class:`~repro.api.errors.InvalidRequest` on bad payloads)."""
        from repro.api import wire

        return wire.request_from_wire(payload, corpus)

    def cache_descriptor(self) -> str | None:
        """Canonical description of everything (besides engine state)
        that determines this request's result — the engine's result
        cache combines it with the base table's content fingerprint and
        the profile registry's fingerprint to form the cache key.

        ``None`` marks the request uncacheable: pre-supplied candidate
        lists and task *objects* carry arbitrary state the descriptor
        cannot canonicalize, and options that are not plain JSON values
        have no stable identity.  Cacheable requests serialize
        deterministically (sorted keys, primitives only), so equal
        descriptors imply equal results on an unchanged engine.
        """
        if self.candidates is not None or not isinstance(self.task, str):
            return None
        try:
            return json.dumps(
                {
                    "task": self.task,
                    "task_options": _canonical(self.task_options),
                    "searcher": self.searcher,
                    "theta": self.theta,
                    "query_budget": self.query_budget,
                    "seed": self.seed,
                    "prepare_seed": self.prepare_seed,
                    "spec": self.spec.to_record(),
                    "config": (
                        asdict(self.config) if self.config is not None else None
                    ),
                    "options": _canonical(self.options),
                },
                sort_keys=True,
            )
        except (TypeError, ValueError):
            return None


def _canonical(value):
    """Strictly canonical form of a user-supplied option value.

    Unlike :func:`repro.api.wire.jsonable` there is no ``repr`` fallback
    — an object without a stable JSON identity raises ``TypeError``,
    which marks the whole request uncacheable rather than risking a
    false cache hit.
    """
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise TypeError(f"no canonical form for {type(value).__name__}")
