"""Committed-baseline support: pre-existing findings ratchet down.

A baseline entry fingerprints a finding by **what** it is, not where it
currently sits: ``(check, path, hash of the stripped source line,
occurrence index among identical triples)``.  Line numbers are left out
on purpose — unrelated edits that shift a finding up or down must not
invalidate the baseline — while any edit to the offending line itself
does invalidate it, forcing a fresh look.

Semantics are strictly ratchet-down:

* A finding matching a baseline entry is reported as ``baselined`` and
  does not fail the run.
* A *new* finding (no matching entry) fails the run — the baseline
  never grows implicitly; ``--update-baseline`` is an explicit act.
* A baseline entry with no matching finding is **stale**: the debt was
  paid, so the entry must be deleted (``--update-baseline``).  The
  ``check_stale`` mode turns stale entries into failures, which is what
  CI runs — deleting a baseline entry while the violation still exists
  simply resurfaces the violation as a new finding, so both directions
  of drift fail.

A scoped run (``--select`` or a narrower path) only sees part of the
baseline: entries whose check did not run or whose file was not linted
are neither matched nor stale.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.analysis.core import Finding

BASELINE_VERSION = 1


def _line_text(lines: List[str], lineno: int) -> str:
    if 1 <= lineno <= len(lines):
        return lines[lineno - 1].strip()
    return ""


def _content_hash(check: str, path: str, line_text: str) -> str:
    digest = hashlib.sha256(
        f"{check}\x00{path}\x00{line_text}".encode("utf-8")
    ).hexdigest()
    return digest[:16]


def finding_keys(
    findings: List[Finding], sources: Dict[str, List[str]]
) -> List[Tuple[str, str, str, int]]:
    """Stable keys, one per finding (ordered like ``findings``):
    ``(check, path, content_hash, occurrence_index)``.  ``sources`` maps
    repo-relative path → source lines."""
    seen: Dict[Tuple[str, str, str], int] = {}
    keys = []
    for finding in findings:
        text = _line_text(sources.get(finding.path, []), finding.line)
        digest = _content_hash(finding.check, finding.path, text)
        triple = (finding.check, finding.path, digest)
        index = seen.get(triple, 0)
        seen[triple] = index + 1
        keys.append((finding.check, finding.path, digest, index))
    return keys


def load_baseline(path: Path) -> List[dict]:
    """Entries from a baseline file; a missing file is an empty
    baseline.  Raises ``ValueError`` on malformed content, including
    any entry without string ``check``/``path``/``hash`` and an int
    ``index``."""
    if not path.exists():
        return []
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as error:
        raise ValueError(f"unreadable baseline {path}: {error}") from error
    if (
        not isinstance(payload, dict)
        or payload.get("version") != BASELINE_VERSION
        or not isinstance(payload.get("entries"), list)
    ):
        raise ValueError(
            f"baseline {path} is not a version-{BASELINE_VERSION} reprolint "
            "baseline"
        )
    for entry in payload["entries"]:
        if not (
            isinstance(entry, dict)
            and all(
                isinstance(entry.get(key), str)
                for key in ("check", "path", "hash")
            )
            and type(entry.get("index")) is int
        ):
            raise ValueError(f"baseline {path} has a malformed entry: {entry!r}")
    return payload["entries"]


def write_baseline(
    path: Path, findings: List[Finding], sources: Dict[str, List[str]]
) -> int:
    """Rewrite ``path`` to baseline exactly ``findings``; returns the
    entry count."""
    entries = [
        {"check": check, "path": rel, "hash": digest, "index": index}
        for check, rel, digest, index in sorted(
            finding_keys(findings, sources)
        )
    ]
    payload = {"version": BASELINE_VERSION, "entries": entries}
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return len(entries)


def apply_baseline(
    findings: List[Finding],
    entries: List[dict],
    sources: Dict[str, List[str]],
) -> Tuple[List[Finding], List[dict]]:
    """Mark findings covered by ``entries`` (as validated by
    :func:`load_baseline`) as baselined.

    Returns ``(findings, stale_entries)`` where ``findings`` preserves
    order (covered ones flagged ``baselined=True``) and
    ``stale_entries`` are baseline entries that matched nothing — fixed
    debt whose entries should be removed.
    """
    available: Dict[Tuple[str, str, str, int], dict] = {
        (entry["check"], entry["path"], entry["hash"], entry["index"]): entry
        for entry in entries
    }
    out: List[Finding] = []
    for finding, key in zip(
        findings, finding_keys(findings, sources), strict=True
    ):
        if key in available:
            del available[key]
            out.append(finding.with_baselined())
        else:
            out.append(finding)
    stale = sorted(
        available.values(),
        key=lambda entry: (entry["path"], entry["check"], entry["index"]),
    )
    return out, stale


def default_baseline_path(root: Optional[Path] = None) -> Path:
    return (root or Path.cwd()) / "reprolint-baseline.json"
