"""Core model for reprolint: findings, file contexts, the checker base
class, and inline suppressions.

reprolint is an AST-based lint pass for *this* codebase's invariants —
the conventions the concurrent catalog/engine stack relies on but no
generic tool enforces (lock ordering, blocking work under in-process
mutexes, the catalog backend boundary, metrics hygiene).  Checkers are
small classes listed in :data:`tools.reprolint.checkers.CHECKERS`; the
driver (:mod:`tools.reprolint.driver`) parses every file, runs every
checker, and applies suppressions.

Suppressions are inline comments::

    something_flagged()  # reprolint: disable=blocking-under-lock

suppress the named check(s) on that line (comma-separated, or ``all``).
A ``# reprolint: disable-file=<check>`` comment anywhere in a file
suppresses the check for the whole file.  Suppressions are the one
escape hatch: deliberate, visible exemptions; every other finding
fails the run.
"""

from __future__ import annotations

import ast
import re
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set

_SUPPRESS_RE = re.compile(
    r"#\s*reprolint:\s*(disable(?:-file)?)\s*=\s*([A-Za-z0-9_\-,\s]+)"
)


@dataclass(frozen=True)
class Finding:
    """One lint finding, addressed by repo-relative path + line."""

    check: str
    path: str  # repo-relative, posix separators
    line: int
    col: int
    message: str

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class Suppressions:
    """Parsed ``# reprolint: disable=...`` comments for one file."""

    by_line: Dict[int, Set[str]] = field(default_factory=dict)
    file_wide: Set[str] = field(default_factory=set)

    def covers(self, check: str, line: int) -> bool:
        if "all" in self.file_wide or check in self.file_wide:
            return True
        names = self.by_line.get(line)
        return names is not None and ("all" in names or check in names)


def parse_suppressions(source: str) -> Suppressions:
    out = Suppressions()
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(text)
        if match is None:
            continue
        names = {
            name.strip() for name in match.group(2).split(",") if name.strip()
        }
        if match.group(1) == "disable-file":
            out.file_wide |= names
        else:
            out.by_line.setdefault(lineno, set()).update(names)
    return out


class FileContext:
    """One parsed source file as seen by checkers."""

    def __init__(self, path: Path, rel: str, source: str, tree: ast.AST):
        self.path = path
        self.rel = rel  # posix-style, relative to the lint root
        self.source = source
        self.tree = tree
        self.lines = source.splitlines()
        self.suppressions = parse_suppressions(source)
        self.module = module_name(rel)

    def finding(self, check: str, node: ast.AST, message: str) -> Finding:
        return Finding(
            check=check,
            path=self.rel,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


def module_name(rel: str) -> str:
    """Dotted module name for a repo-relative path (``src/`` layout
    aware): ``src/repro/catalog/store.py`` → ``repro.catalog.store``.
    Paths outside a package layout fall back to slash→dot of the stem.
    """
    parts = Path(rel).parts
    if parts and parts[0] == "src":
        parts = parts[1:]
    if not parts:
        return ""
    stem = list(parts[:-1]) + [Path(parts[-1]).stem]
    if stem[-1] == "__init__":
        stem = stem[:-1]
    return ".".join(stem)


class Checker:
    """Base class for reprolint checkers.

    Subclasses set ``name``/``description`` and override
    :meth:`check_file` (per-file) and/or
    :meth:`finish` (project-level, runs once after every file parsed —
    the inter-procedural passes live here).
    """

    name: str = ""
    description: str = ""

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        return ()

    def finish(self, files: List[FileContext]) -> Iterable[Finding]:
        return ()


# ---------------------------------------------------------------------------
# Shared AST helpers used by several checkers
# ---------------------------------------------------------------------------
def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for Name/Attribute chains, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def terminal_name(node: ast.AST) -> Optional[str]:
    """Last component of a Name/Attribute chain (``c`` for ``a.b.c``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def call_root(node: ast.AST) -> Optional[str]:
    """First component of a Name/Attribute chain (``a`` for ``a.b.c``)."""
    while isinstance(node, ast.Attribute):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def stmt_bodies(stmt: ast.stmt) -> List[List[ast.stmt]]:
    """The nested statement blocks of ``stmt``: body/orelse/finalbody,
    exception handlers, and match cases."""
    out = []
    for attr in ("body", "orelse", "finalbody"):
        value = getattr(stmt, attr, None)
        if isinstance(value, list) and value and isinstance(
            value[0], ast.stmt
        ):
            out.append(value)
    for handler in getattr(stmt, "handlers", []) or []:
        out.append(handler.body)
    for case in getattr(stmt, "cases", []) or []:
        out.append(case.body)
    return out
