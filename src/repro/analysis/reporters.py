"""Text and JSON reporters for reprolint results."""

from __future__ import annotations

from typing import List

from repro.analysis.driver import LintResult


def render_text(result: LintResult) -> str:
    """Human-readable report: one line per active finding, then a
    summary.  Baselined findings are folded into the summary."""
    active = result.active
    lines: List[str] = [
        f"{finding.path}:{finding.line}:{finding.col}: "
        f"[{finding.check}] {finding.message}"
        for finding in active
    ]
    summary = (
        f"reprolint: {len(active)} finding(s) in "
        f"{result.files_checked} file(s)"
    )
    extras = []
    if result.baselined:
        extras.append(f"{len(result.baselined)} baselined")
    if result.suppressed:
        extras.append(f"{result.suppressed} suppressed inline")
    if result.stale_baseline:
        extras.append(
            f"{len(result.stale_baseline)} stale baseline entr"
            + ("y" if len(result.stale_baseline) == 1 else "ies")
        )
    if extras:
        summary += " (" + ", ".join(extras) + ")"
    lines.append(summary)
    for entry in result.stale_baseline:
        lines.append(
            f"stale baseline entry: {entry.get('path')} "
            f"[{entry.get('check')}] — the finding is gone; run "
            "--update-baseline to drop it"
        )
    return "\n".join(lines)


def render_json(result: LintResult) -> dict:
    """Machine-readable report (the CI artifact)."""
    return {
        "version": 1,
        "files_checked": result.files_checked,
        "suppressed": result.suppressed,
        "findings": [f.as_dict() for f in result.findings],
        "stale_baseline": list(result.stale_baseline),
        "summary": {
            "active": len(result.active),
            "baselined": len(result.baselined),
        },
    }


__all__ = ["render_json", "render_text"]
