"""``lint_paths`` parses files from a thread pool; a thread switch in the
middle of one ``ast.parse`` must not break another.

On CPython 3.11 the AST constructor's recursion counter is per
interpreter, not per thread, so two conversions interleaved by a thread
switch corrupt each other and one raises ``SystemError: AST constructor
recursion depth mismatch``.  What switches threads mid-conversion in the
wild is the cyclic collector running a Python finalizer; this test keeps
such a finalizer in every collection, so every lint run has a switch
inside some parse.
"""

import sys
import time
from pathlib import Path

from repro.analysis import lint_paths

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


def test_parallel_lint_survives_thread_switches_inside_parse():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    _YieldingGarbage.live = True
    _YieldingGarbage()
    try:
        for _ in range(2):
            result = lint_paths([REPO_ROOT / "src"], root=REPO_ROOT, jobs=8)
            assert [f for f in result.findings if f.check == "parse-error"] == []
            assert result.files_checked > 50
    finally:
        _YieldingGarbage.live = False
        sys.setswitchinterval(interval)
