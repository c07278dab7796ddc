"""The reprolint driver: collect files, parse in parallel, run every
checker, apply suppressions and the baseline."""

from __future__ import annotations

import ast
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from repro.analysis import baseline as baseline_mod
from repro.analysis.core import (
    Checker,
    FileContext,
    Finding,
    ProjectContext,
    all_checkers,
)

_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", "node_modules"}

#: ``ast.parse`` is not thread-safe on CPython 3.11: the AST constructor
#: keeps its recursion counter per interpreter, so a thread switch inside
#: one conversion (a gc finalizer running Python code is enough) lets
#: another parse reset it, and the first fails with ``SystemError: AST
#: constructor recursion depth mismatch``.  Parses run one at a time;
#: file reads and the checkers stay parallel.
_PARSE_LOCK = threading.Lock()


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
        """Findings that fail the run (errors, not baselined)."""
        return [
            f
            for f in self.findings
            if not f.baselined and f.severity == "error"
        ]

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


def _parse_one(
    path: Path, root: Path
) -> Tuple[Optional[FileContext], Optional[Finding]]:
    try:
        rel = path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        rel = path.as_posix()
    try:
        source = path.read_text(encoding="utf-8")
        with _PARSE_LOCK:
            tree = ast.parse(source, filename=str(path))
    except (OSError, SyntaxError, ValueError) as error:
        line = getattr(error, "lineno", 1) or 1
        return None, Finding(
            check="parse-error",
            path=rel,
            line=line,
            col=0,
            message=f"could not parse: {error}",
        )
    return FileContext(path, rel, source, tree), None


def lint_paths(
    paths: Iterable[Path],
    root: Optional[Path] = None,
    checks: Optional[Iterable[str]] = None,
    jobs: Optional[int] = None,
    baseline_entries: Optional[List[dict]] = None,
) -> LintResult:
    """Lint ``paths`` with the registered checkers.

    ``root`` anchors repo-relative paths (default: cwd).  ``checks``
    restricts to named checkers.  ``baseline_entries`` (from
    :func:`repro.analysis.baseline.load_baseline`) marks pre-existing
    findings as baselined and reports stale entries.
    """
    root = (root or Path.cwd()).resolve()
    files = collect_files([Path(p) for p in paths], root)
    checkers = all_checkers(checks)
    result = LintResult()

    contexts: List[FileContext] = []
    findings: List[Finding] = []
    workers = jobs or min(8, len(files) or 1)
    with ThreadPoolExecutor(max_workers=max(1, workers)) as pool:
        for ctx, parse_finding in pool.map(
            lambda p: _parse_one(p, root), files
        ):
            if parse_finding is not None:
                findings.append(parse_finding)
            if ctx is not None:
                contexts.append(ctx)

    def run_file(ctx: FileContext) -> List[Finding]:
        out: List[Finding] = []
        for checker in checkers:
            out.extend(checker.check_file(ctx))
        return out

    with ThreadPoolExecutor(max_workers=max(1, workers)) as pool:
        for file_findings in pool.map(run_file, contexts):
            findings.extend(file_findings)

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
        kept, stale = baseline_mod.apply_baseline(
            kept, baseline_entries, result.sources
        )
        result.stale_baseline = stale
    result.findings = kept
    result.files_checked = len(contexts)
    return result


def self_check_paths(root: Path) -> List[Path]:
    """The paths a plain ``repro lint`` run covers by default."""
    src = root / "src"
    return [src if src.is_dir() else root]


__all__ = [
    "Checker",
    "LintResult",
    "collect_files",
    "lint_paths",
    "self_check_paths",
]
