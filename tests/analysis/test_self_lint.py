"""Self-checks: the shipped source tree lints clean, the committed
baseline is current, and the analysis package holds itself to its own
rules."""

import sys
import time
from pathlib import Path

from repro.analysis import lint_paths, load_baseline

REPO_ROOT = Path(__file__).resolve().parents[2]


class _YieldingGarbage:
    """A reference cycle whose finalizer hands the GIL to another thread
    and leaves its successor behind for the next collection."""

    live = True

    def __init__(self):
        self.cycle = self

    def __del__(self):
        if _YieldingGarbage.live:
            time.sleep(0)
            _YieldingGarbage()


class TestSelfLint:
    def test_analysis_package_lints_itself_clean(self):
        result = lint_paths(
            [REPO_ROOT / "src" / "repro" / "analysis"], root=REPO_ROOT
        )
        assert result.active == [], [f.as_dict() for f in result.active]

    def test_whole_src_tree_lints_clean_against_baseline(self):
        # The acceptance bar for `repro lint` in CI: zero non-baselined
        # findings over src/, and no stale baseline entries.
        entries = load_baseline(REPO_ROOT / "reprolint-baseline.json")
        result = lint_paths(
            [REPO_ROOT / "src"],
            root=REPO_ROOT,
            baseline_entries=entries,
        )
        assert result.active == [], [f.as_dict() for f in result.active]
        assert result.stale_baseline == []

    def test_src_tree_is_actually_scanned(self):
        result = lint_paths([REPO_ROOT / "src"], root=REPO_ROOT)
        # Guard against a silent no-op (wrong root, empty collection):
        # the tree is >100 modules and must stay that way.
        assert result.files_checked > 50

    def test_lint_survives_thread_switches_inside_parse(self):
        # On CPython 3.11 the AST constructor's recursion counter is per
        # interpreter, so a parse interleaved with another by a thread
        # switch fails with ``SystemError: AST constructor recursion
        # depth mismatch``.  The cyclic collector running a Python
        # finalizer is what switches threads mid-parse in the wild; this
        # keeps such a finalizer in every collection.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        _YieldingGarbage.live = True
        _YieldingGarbage()
        try:
            for _ in range(2):
                result = lint_paths([REPO_ROOT / "src"], root=REPO_ROOT)
                assert [
                    f for f in result.findings if f.check == "parse-error"
                ] == []
                assert result.files_checked > 50
        finally:
            _YieldingGarbage.live = False
            sys.setswitchinterval(interval)
