"""Self-checks: the shipped source tree lints clean, and reprolint
holds itself to its own rules."""

import sys
import time
from pathlib import Path

from tools.reprolint import lint_paths

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
    def test_reprolint_lints_itself_clean(self):
        result = lint_paths([REPO_ROOT / "tools" / "reprolint"], root=REPO_ROOT)
        assert result.findings == [], [f.as_dict() for f in result.findings]
        assert result.files_checked > 10

    def test_whole_src_tree_lints_clean(self):
        # The acceptance bar of the CI reprolint job: zero findings over
        # src/.
        result = lint_paths([REPO_ROOT / "src"], root=REPO_ROOT)
        assert result.findings == [], [f.as_dict() for f in result.findings]

    def test_src_tree_is_actually_scanned(self):
        result = lint_paths([REPO_ROOT / "src"], root=REPO_ROOT)
        # Guard against a silent no-op (wrong root, empty collection):
        # the tree is >100 modules and must stay that way.
        assert result.files_checked > 100

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
                assert result.files_checked > 100
        finally:
            _YieldingGarbage.live = False
            sys.setswitchinterval(interval)
