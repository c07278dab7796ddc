"""The reprolint driver: collect files, parse each one, run every
checker, apply suppressions and the baseline."""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Union

from repro.analysis import baseline as baseline_mod
from repro.analysis.checkers import all_checkers
from repro.analysis.core import FileContext, Finding, ProjectContext

_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", "node_modules"}


@dataclass
class LintResult:
    """Outcome of one lint run."""

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    suppressed: int = 0
    stale_baseline: List[dict] = field(default_factory=list)
    #: repo-relative path → source lines (for baseline fingerprints).
    sources: Dict[str, List[str]] = field(default_factory=dict)

    @property
    def active(self) -> List[Finding]:
        """Findings that fail the run (not baselined)."""
        return [f for f in self.findings if not f.baselined]

    @property
    def baselined(self) -> List[Finding]:
        return [f for f in self.findings if f.baselined]

    def ok(self, check_stale: bool = False) -> bool:
        if self.active:
            return False
        if check_stale and self.stale_baseline:
            return False
        return True


def collect_files(paths: Iterable[Path], root: Path) -> List[Path]:
    """All ``.py`` files under ``paths`` (files pass through, dirs
    recurse; cache/VCS directories skipped), sorted by path."""
    out = []
    for path in paths:
        path = Path(path)
        if path.is_file():
            if path.suffix == ".py":
                out.append(path)
            continue
        for candidate in sorted(path.rglob("*.py")):
            if any(part in _SKIP_DIRS for part in candidate.parts):
                continue
            out.append(candidate)
    return sorted(set(out))


def _relative(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root).as_posix()
    except ValueError:
        return path.as_posix()


def _parse_one(path: Path, rel: str) -> Union[FileContext, Finding]:
    try:
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
    except (OSError, SyntaxError, ValueError) as error:
        return Finding(
            check="parse-error",
            path=rel,
            line=getattr(error, "lineno", 1) or 1,
            col=0,
            message=f"could not parse: {error}",
        )
    return FileContext(path, rel, source, tree)


def lint_paths(
    paths: Iterable[Path],
    root: Optional[Path] = None,
    checks: Optional[Iterable[str]] = None,
    baseline_entries: Optional[List[dict]] = None,
) -> LintResult:
    """Lint ``paths`` with every checker.

    ``root`` anchors repo-relative paths (default: cwd).  ``checks``
    restricts to named checkers.  ``baseline_entries`` (from
    :func:`repro.analysis.baseline.load_baseline`) marks pre-existing
    findings as baselined and reports stale entries; only entries whose
    check ran and whose file was linted take part.
    """
    root = (root or Path.cwd()).resolve()
    files = collect_files([Path(p) for p in paths], root)
    checkers = all_checkers(checks)
    result = LintResult()

    linted = {path: _relative(path, root) for path in files}
    contexts: List[FileContext] = []
    findings: List[Finding] = []
    for path, rel in linted.items():
        parsed = _parse_one(path, rel)
        if isinstance(parsed, Finding):
            findings.append(parsed)
            continue
        contexts.append(parsed)
        for checker in checkers:
            findings.extend(checker.check_file(parsed))

    project = ProjectContext(contexts)
    for checker in checkers:
        findings.extend(checker.finish(project))

    by_rel = {ctx.rel: ctx for ctx in contexts}
    kept: List[Finding] = []
    for finding in findings:
        ctx = by_rel.get(finding.path)
        if ctx is not None and ctx.suppressions.covers(
            finding.check, finding.line
        ):
            result.suppressed += 1
            continue
        kept.append(finding)
    kept.sort(key=lambda f: (f.path, f.line, f.check, f.message))

    result.sources = {ctx.rel: ctx.lines for ctx in contexts}
    if baseline_entries:
        ran = {checker.name for checker in checkers} | {"parse-error"}
        rels = set(linted.values())
        in_scope = [
            entry
            for entry in baseline_entries
            if entry["check"] in ran and entry["path"] in rels
        ]
        kept, stale = baseline_mod.apply_baseline(kept, in_scope, result.sources)
        result.stale_baseline = stale
    result.findings = kept
    result.files_checked = len(contexts)
    return result


__all__ = ["LintResult", "collect_files", "lint_paths"]
