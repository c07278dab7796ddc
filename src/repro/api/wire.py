"""The versioned wire model: every dict that crosses a process boundary.

Requests, run records, events, and errors have their single home
here: one explicit dataclass↔JSON schema per payload kind, shared by
the HTTP server, the engine's result cache, and the CLI.

Two layers, deliberately separate:

* The **record forms** (:func:`request_to_wire`, :func:`run_to_wire`,
  :func:`event_to_wire` and their inverses) are the record shapes —
  served run records, golden tests, and the result cache's size budget
  all read and write exactly these dicts.
* The **envelope** (:func:`envelope` / :func:`open_envelope`) stamps
  ``schema_version`` onto a payload for transport.  Everything the HTTP
  server sends is enveloped; everything it accepts is version-checked.
  Bumping :data:`SCHEMA_VERSION` is the explicit, reviewable act of
  changing the protocol.

:func:`request_from_wire` is the server-side constructor: it builds a
live :class:`~repro.api.request.DiscoveryRequest` from a JSON payload,
resolving the base table against a corpus and validating every field —
raising :class:`~repro.api.errors.InvalidRequest` (never a bare
``KeyError``) so the HTTP layer can map failures to statuses.
"""

from __future__ import annotations

import json
from dataclasses import asdict, fields
from typing import Any, Dict

from repro.api.errors import ERROR_CODES, Internal, InvalidRequest, Overloaded, ReproError

#: Version of every wire payload this build speaks.  Consumers reject
#: payloads from a different major version instead of misreading them.
SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# Envelope
# ---------------------------------------------------------------------------
def envelope(payload: Dict[str, Any]) -> Dict[str, Any]:
    """``payload`` stamped with the wire schema version (a shallow copy;
    the input dict is never mutated)."""
    return {"schema_version": SCHEMA_VERSION, **payload}


def open_envelope(payload: Any) -> Dict[str, Any]:
    """Validate an incoming enveloped payload and return it.

    A missing ``schema_version`` is accepted as the current version
    (bare payloads predate the envelope); a *different* version is
    rejected — misreading a future schema is worse than refusing it.
    """
    if not isinstance(payload, dict):
        raise InvalidRequest(
            f"payload must be a JSON object, got {type(payload).__name__}"
        )
    version = payload.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise InvalidRequest(
            f"unsupported schema_version {version!r} (this build speaks "
            f"{SCHEMA_VERSION})",
            details={"schema_version": version},
        )
    return payload


# ---------------------------------------------------------------------------
# Requests
# ---------------------------------------------------------------------------
def request_to_wire(request) -> dict:
    """JSON-safe description of a request (golden-pinned).

    Tables and task objects are described, not embedded — a record
    identifies what was asked, it does not re-ship the data.
    """
    return {
        "base_table": request.base.name,
        "base_rows": request.base.num_rows,
        "base_columns": request.base.num_columns,
        "task": request.task_name(),
        "task_options": jsonable(request.task_options),
        "searcher": request.searcher,
        "theta": request.theta,
        "query_budget": request.query_budget,
        "seed": request.seed,
        "prepare_seed": request.prepare_seed,
        "spec": spec_to_wire(request.spec),
        "config": (
            asdict(request.config) if request.config is not None else None
        ),
        "options": jsonable(request.options),
        "candidates_supplied": request.candidates is not None,
        "label": request.label,
    }


#: Wire fields `request_from_wire` accepts, with coercion functions.
_REQUEST_SCALARS = {
    "searcher": str,
    "theta": float,
    "query_budget": int,
    "seed": int,
    "label": str,
}

_REQUEST_KEYS = frozenset(
    {
        "schema_version",
        "base",
        "base_table",
        "task",
        "task_options",
        "searcher",
        "theta",
        "query_budget",
        "seed",
        "prepare_seed",
        "spec",
        "config",
        "options",
        "label",
    }
)


def request_from_wire(payload: Any, corpus: Dict[str, Any]):
    """Build a live :class:`~repro.api.request.DiscoveryRequest` from a
    wire payload served over ``corpus``.

    The payload names the base table (``base`` or ``base_table``) and
    the task (registry name + ``task_options``); ``spec`` and ``config``
    are plain dicts validated field-by-field.  Unknown keys, missing
    keys, and type mismatches raise
    :class:`~repro.api.errors.InvalidRequest` with the offending field
    in ``details`` — a serving layer maps that straight to HTTP 400.
    """
    from repro.api.request import DiscoveryRequest

    payload = open_envelope(payload)
    unknown = sorted(set(payload) - _REQUEST_KEYS)
    if unknown:
        raise InvalidRequest(
            f"unknown request field(s): {', '.join(unknown)}",
            details={"fields": unknown},
        )
    base_name = payload.get("base", payload.get("base_table"))
    if not isinstance(base_name, str) or not base_name:
        raise InvalidRequest(
            "request must name its base table (field 'base')",
            details={"field": "base"},
        )
    base = corpus.get(base_name)
    if base is None:
        raise InvalidRequest(
            f"unknown base table {base_name!r} (not in the served corpus)",
            details={"field": "base", "base": base_name},
        )
    task = payload.get("task")
    if not isinstance(task, str) or not task:
        raise InvalidRequest(
            "request must name its task (field 'task'); tasks go by "
            "registry name on the wire",
            details={"field": "task"},
        )
    kwargs: Dict[str, Any] = {"base": base, "task": task}
    for key, coerce in _REQUEST_SCALARS.items():
        if key in payload and payload[key] is not None:
            try:
                kwargs[key] = coerce(payload[key])
            except (TypeError, ValueError):
                raise InvalidRequest(
                    f"field {key!r} must be a {coerce.__name__}, got "
                    f"{payload[key]!r}",
                    details={"field": key},
                ) from None
    if payload.get("prepare_seed") is not None:
        try:
            kwargs["prepare_seed"] = int(payload["prepare_seed"])
        except (TypeError, ValueError):
            raise InvalidRequest(
                f"field 'prepare_seed' must be an int, got "
                f"{payload['prepare_seed']!r}",
                details={"field": "prepare_seed"},
            ) from None
    for key in ("task_options", "options"):
        value = payload.get(key)
        if value is not None:
            if not isinstance(value, dict):
                raise InvalidRequest(
                    f"field {key!r} must be an object",
                    details={"field": key},
                )
            kwargs[key] = dict(value)
    if payload.get("spec") is not None:
        kwargs["spec"] = spec_from_wire(payload["spec"])
    if payload.get("config") is not None:
        kwargs["config"] = config_from_wire(payload["config"])
    return DiscoveryRequest(**kwargs)


def spec_to_wire(spec) -> dict:
    """JSON-safe form of a :class:`~repro.api.request.CandidateSpec`."""
    return asdict(spec)


def spec_from_wire(payload: Any):
    """Rebuild a :class:`~repro.api.request.CandidateSpec` from its wire
    dict (unknown fields raise :class:`InvalidRequest`)."""
    from repro.api.request import CandidateSpec

    return _dataclass_from_wire(CandidateSpec, payload, "spec")


def config_from_wire(payload: Any):
    """Rebuild a :class:`~repro.core.config.MetamConfig` from its wire
    dict (unknown fields and invalid values raise
    :class:`InvalidRequest` — ``MetamConfig.__post_init__`` validation
    included)."""
    from repro.core.config import MetamConfig

    return _dataclass_from_wire(MetamConfig, payload, "config")


def _dataclass_from_wire(cls, payload: Any, field_name: str):
    if not isinstance(payload, dict):
        raise InvalidRequest(
            f"field {field_name!r} must be an object, got "
            f"{type(payload).__name__}",
            details={"field": field_name},
        )
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(payload) - known)
    if unknown:
        raise InvalidRequest(
            f"unknown {field_name} field(s): {', '.join(unknown)}",
            details={"field": field_name, "fields": unknown},
        )
    try:
        return cls(**payload)
    except (TypeError, ValueError) as error:
        raise InvalidRequest(
            f"invalid {field_name}: {error}", details={"field": field_name}
        ) from error


# ---------------------------------------------------------------------------
# Events
# ---------------------------------------------------------------------------
def event_to_wire(event) -> dict:
    """JSON-safe form of one run event: ``kind`` plus the event's
    fields (what ``RunEvent.to_record`` returns).  Events are flat
    frozen dataclasses of scalars, so their instance dict is exactly
    their fields (``asdict`` would deep-copy every scalar)."""
    return {"kind": event.kind, **vars(event)}


def event_from_wire(record: Any):
    """Rebuild one event from its :func:`event_to_wire` form.

    Raises ``ValueError`` on an unknown kind or mismatched fields — a
    run record from a future (or corrupt) writer must fail the
    reconstruction loudly, never half-build an event."""
    from repro.api.events import EVENT_TYPES

    if not isinstance(record, dict):
        raise ValueError(
            f"event record must be a dict, got {type(record).__name__}"
        )
    kind = record.get("kind")
    cls = EVENT_TYPES.get(kind)
    if cls is None:
        raise ValueError(f"unknown event kind {kind!r}")
    event_fields = {key: value for key, value in record.items() if key != "kind"}
    try:
        return cls(**event_fields)
    except TypeError as error:
        raise ValueError(f"bad {kind!r} event record: {error}") from error


# ---------------------------------------------------------------------------
# Run records
# ---------------------------------------------------------------------------
def run_to_wire(run) -> dict:
    """JSON-serializable record of a full run (what
    ``DiscoveryRun.to_record`` returns)."""
    from repro.core.serialization import result_to_dict

    return {
        "run_id": run.run_id,
        "status": run.status,
        "request": request_to_wire(run.request),
        "result": (
            result_to_dict(run.result) if run.result is not None else None
        ),
        "n_candidates": run.n_candidates,
        "candidate_source": run.candidate_source,
        "cached": run.cached,
        "caches": dict(run.cache_info),
        "timings": {
            "prepare_seconds": run.prepare_seconds,
            "search_seconds": run.search_seconds,
        },
        "events": [event_to_wire(event) for event in run.events],
        **({"trace": run.trace} if run.trace is not None else {}),
    }


def run_from_wire(record: dict, request, run_id: int):
    """Rebuild a :class:`~repro.api.run.DiscoveryRun` from its
    :func:`run_to_wire` form.

    The record describes (not embeds) the original request, so the
    caller supplies the live ``request`` it matched against the
    record's key.  Raises ``ValueError``/``KeyError`` on malformed
    records.
    """
    from repro.api.run import DiscoveryRun
    from repro.core.serialization import result_from_dict

    result = record.get("result")
    return DiscoveryRun(
        run_id=run_id,
        request=request,
        status=str(record["status"]),
        result=result_from_dict(result) if result is not None else None,
        events=[event_from_wire(e) for e in record.get("events", [])],
        n_candidates=int(record.get("n_candidates", 0)),
        candidate_source=str(record.get("candidate_source", "prepared")),
        prepare_seconds=float(
            record.get("timings", {}).get("prepare_seconds", 0.0)
        ),
        search_seconds=float(
            record.get("timings", {}).get("search_seconds", 0.0)
        ),
        cache_info=dict(record.get("caches") or {}),
        trace=record.get("trace"),
    )


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------
def error_to_wire(error: BaseException) -> dict:
    """Enveloped wire form of any exception.

    Typed :class:`~repro.api.errors.ReproError`\\ s keep their code and
    details; anything else is wrapped as ``internal`` (message included
    — the server never leaks a traceback, only the summary line).
    """
    if not isinstance(error, ReproError):
        error = Internal(f"{type(error).__name__}: {error}")
    body: Dict[str, Any] = {
        "code": error.code,
        "message": error.message,
        "http_status": error.http_status,
    }
    if error.details:
        body["details"] = jsonable(error.details)
    if isinstance(error, Overloaded):
        body["retry_after"] = error.retry_after
    return envelope({"error": body})


def error_from_wire(payload: Any) -> ReproError:
    """Rebuild the typed error from its :func:`error_to_wire` form
    (unknown codes come back as :class:`~repro.api.errors.Internal`)."""
    payload = open_envelope(payload)
    body = payload.get("error")
    if not isinstance(body, dict):
        raise InvalidRequest("payload carries no 'error' object")
    cls = ERROR_CODES.get(body.get("code"), Internal)
    message = str(body.get("message", "unknown error"))
    details = body.get("details") or None
    if cls is Overloaded:
        return Overloaded(
            message,
            retry_after=float(body.get("retry_after", 1.0)),
            details=details,
        )
    return cls(message, details=details)


# ---------------------------------------------------------------------------
# Shared coercion helpers
# ---------------------------------------------------------------------------
def jsonable(value: Any) -> Any:
    """Best-effort JSON coercion for user-supplied option dicts."""
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if hasattr(value, "tolist"):
        return value.tolist()
    return repr(value)


def dumps(payload: Dict[str, Any]) -> bytes:
    """Canonical UTF-8 JSON bytes of one wire payload (compact
    separators, sorted keys — what the HTTP layer puts on the socket)."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def loads(raw: bytes) -> Any:
    """Parse one wire payload, mapping JSON syntax errors to
    :class:`InvalidRequest` (the server's 400, never a 500)."""
    try:
        return json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise InvalidRequest(f"request body is not valid JSON: {error}") from None


__all__ = [
    "SCHEMA_VERSION",
    "envelope",
    "open_envelope",
    "request_to_wire",
    "request_from_wire",
    "spec_to_wire",
    "spec_from_wire",
    "config_from_wire",
    "event_to_wire",
    "event_from_wire",
    "run_to_wire",
    "run_from_wire",
    "error_to_wire",
    "error_from_wire",
    "jsonable",
    "dumps",
    "loads",
]
