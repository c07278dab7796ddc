"""reprolint — invariant-aware static analysis for this codebase.

The checkers encode the contracts the concurrent catalog/engine stack
depends on (lock ordering, no blocking work under in-process mutexes,
the catalog backend boundary, metrics hygiene); the driver runs them
over the source tree with inline suppressions and a ratchet-down
baseline.  Entry points: :func:`repro.analysis.driver.lint_paths`
programmatically, or ``repro lint`` on the command line.
"""

from repro.analysis.baseline import (
    apply_baseline,
    default_baseline_path,
    load_baseline,
    write_baseline,
)
from repro.analysis.checkers import all_checkers, checker_catalogue
from repro.analysis.core import Checker, Finding
from repro.analysis.driver import LintResult, collect_files, lint_paths
from repro.analysis.reporters import render_json, render_text

__all__ = [
    "Checker",
    "Finding",
    "LintResult",
    "all_checkers",
    "apply_baseline",
    "checker_catalogue",
    "collect_files",
    "default_baseline_path",
    "lint_paths",
    "load_baseline",
    "render_json",
    "render_text",
    "write_baseline",
]
