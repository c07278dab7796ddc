"""The reprolint driver: collect files, parse each one, run every
checker, apply suppressions."""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, List, Optional, Union

from tools.reprolint.checkers import all_checkers
from tools.reprolint.core import FileContext, Finding

_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", "node_modules"}


@dataclass
class LintResult:
    """Outcome of one lint run: every finding fails it."""

    findings: List[Finding] = field(default_factory=list)
    #: ``.py`` files collected, parse errors included.
    files_checked: int = 0
    suppressed: int = 0


def collect_files(paths: Iterable[Path]) -> List[Path]:
    """All ``.py`` files under ``paths`` (files pass through, dirs
    recurse), sorted by path.  Cache/VCS directories *below* a searched
    directory are skipped; its own ancestors never are."""
    out = []
    for path in paths:
        path = Path(path)
        if path.is_file():
            if path.suffix == ".py":
                out.append(path)
            continue
        for candidate in sorted(path.rglob("*.py")):
            if _SKIP_DIRS.isdisjoint(candidate.relative_to(path).parts):
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
) -> LintResult:
    """Lint ``paths`` with every checker.

    ``root`` anchors repo-relative paths (default: cwd).  ``checks``
    restricts to named checkers.
    """
    root = (root or Path.cwd()).resolve()
    files = collect_files(paths)
    checkers = all_checkers(checks)
    result = LintResult(files_checked=len(files))

    contexts: List[FileContext] = []
    findings: List[Finding] = []
    for path in files:
        parsed = _parse_one(path, _relative(path, root))
        if isinstance(parsed, Finding):
            findings.append(parsed)
            continue
        contexts.append(parsed)
        for checker in checkers:
            findings.extend(checker.check_file(parsed))

    for checker in checkers:
        findings.extend(checker.finish(contexts))

    by_rel = {ctx.rel: ctx for ctx in contexts}
    for finding in findings:
        ctx = by_rel.get(finding.path)
        if ctx is not None and ctx.suppressions.covers(
            finding.check, finding.line
        ):
            result.suppressed += 1
        else:
            result.findings.append(finding)
    result.findings.sort(key=lambda f: (f.path, f.line, f.check, f.message))
    return result


__all__ = ["LintResult", "collect_files", "lint_paths"]
