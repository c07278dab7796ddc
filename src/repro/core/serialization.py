"""JSON (de)serialization of search results for experiment archival."""

from __future__ import annotations

import json

from repro.core.result import SearchResult


def result_to_dict(result: SearchResult) -> dict:
    """Plain-dict form of a SearchResult (JSON-safe)."""
    return {
        "searcher": result.searcher,
        "selected": list(result.selected),
        "utility": result.utility,
        "base_utility": result.base_utility,
        "queries": result.queries,
        "trace": [[int(q), float(u)] for q, u in result.trace],
        "extras": _jsonable(result.extras),
    }


def result_from_dict(payload: dict) -> SearchResult:
    """Inverse of :func:`result_to_dict`."""
    required = {"searcher", "selected", "utility", "base_utility", "queries"}
    missing = required - set(payload)
    if missing:
        raise ValueError(f"payload missing keys: {sorted(missing)}")
    return SearchResult(
        searcher=payload["searcher"],
        selected=list(payload["selected"]),
        utility=float(payload["utility"]),
        base_utility=float(payload["base_utility"]),
        queries=int(payload["queries"]),
        trace=[(int(q), float(u)) for q, u in payload.get("trace", [])],
        extras=dict(payload.get("extras", {})),
    )


def save_results(results: dict, path: str) -> None:
    """Write ``{name: SearchResult}`` to a JSON file."""
    payload = {name: result_to_dict(r) for name, r in results.items()}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)


def _jsonable(value):
    """Coerce numpy scalars/arrays inside extras into JSON-safe types."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "tolist"):
        return value.tolist()  # numpy arrays and numpy scalars
    return value
