"""Text and JSON reporters for reprolint results."""

from __future__ import annotations

from tools.reprolint.driver import LintResult


def render_text(result: LintResult) -> str:
    """Human-readable report: one line per finding, then a summary."""
    lines = [
        f"{finding.path}:{finding.line}:{finding.col}: "
        f"[{finding.check}] {finding.message}"
        for finding in result.findings
    ]
    summary = (
        f"reprolint: {len(result.findings)} finding(s) in "
        f"{result.files_checked} file(s)"
    )
    if result.suppressed:
        summary += f" ({result.suppressed} suppressed inline)"
    lines.append(summary)
    return "\n".join(lines)


def render_json(result: LintResult) -> dict:
    """Machine-readable report (the CI artifact); version 2 dropped the
    baseline keys."""
    return {
        "version": 2,
        "files_checked": result.files_checked,
        "suppressed": result.suppressed,
        "findings": [f.as_dict() for f in result.findings],
        "summary": {"active": len(result.findings)},
    }


__all__ = ["render_json", "render_text"]
