"""reprolint checkers: :data:`CHECKERS` lists every one, sorted by
name."""

from typing import Iterable, List, Optional, Tuple

from tools.reprolint.checkers.blocking import BlockingUnderLockChecker
from tools.reprolint.checkers.lock_discipline import LockDisciplineChecker
from tools.reprolint.checkers.metrics_hygiene import MetricsHygieneChecker
from tools.reprolint.checkers.vfs import CatalogVfsChecker
from tools.reprolint.core import Checker

CHECKERS = (
    BlockingUnderLockChecker,
    CatalogVfsChecker,
    LockDisciplineChecker,
    MetricsHygieneChecker,
)


def all_checkers(only: Optional[Iterable[str]] = None) -> List[Checker]:
    """Fresh instances of every checker (or the named subset)."""
    by_name = {cls.name: cls for cls in CHECKERS}
    names = list(by_name) if only is None else list(only)
    for name in names:
        if name not in by_name:
            known = ", ".join(by_name)
            raise KeyError(f"unknown check {name!r} (known: {known})")
    return [by_name[name]() for name in names]


def checker_catalogue() -> List[Tuple[str, str]]:
    """(name, description) for every checker, sorted by name."""
    return [(cls.name, cls.description) for cls in CHECKERS]


__all__ = ["CHECKERS", "all_checkers", "checker_catalogue"]
