"""reprolint — invariant-aware static analysis for this codebase.

The checkers encode the contracts the concurrent catalog/engine stack
depends on (lock ordering, no blocking work under in-process mutexes,
the catalog backend boundary, metrics hygiene); the driver runs them
over the source tree with inline suppressions.  Entry points:
:func:`tools.reprolint.driver.lint_paths` programmatically, or
``python -m tools.reprolint [paths]`` from the repo root.
"""

from tools.reprolint.checkers import all_checkers, checker_catalogue
from tools.reprolint.core import Checker, Finding
from tools.reprolint.driver import LintResult, collect_files, lint_paths
from tools.reprolint.reporters import render_json, render_text

__all__ = [
    "Checker",
    "Finding",
    "LintResult",
    "all_checkers",
    "checker_catalogue",
    "collect_files",
    "lint_paths",
    "render_json",
    "render_text",
]
