"""Fixture-file suite for every reprolint checker: each checker gets a
positive (flagged), a negative (clean), and a suppressed fixture; the
command line is covered in ``test_command.py``.

Fixtures are written into a temp tree shaped like the real repo
(``src/repro/...``) because two checkers scope by module path.
"""

import ast
import inspect
from pathlib import Path

import pytest

from tools.reprolint import lint_paths
from tools.reprolint.checkers._locks import (
    BACKEND_IO_METHODS,
    FILE_LOCK_CALLS,
    IN_PROCESS_SUFFIXES,
)
from tools.reprolint.core import terminal_name

REPO_ROOT = Path(__file__).resolve().parents[2]


def lint_tree(tmp_path, files, checks=None):
    """Write ``{relpath: source}`` under ``tmp_path`` and lint it."""
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
    return lint_paths([tmp_path], root=tmp_path, checks=checks)


def checks_found(result):
    return sorted({f.check for f in result.findings})


# ---------------------------------------------------------------------------
# lock-discipline
# ---------------------------------------------------------------------------
class TestLockDiscipline:
    def test_positive_direct_inversion(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "mod.py": (
                    "class Engine:\n"
                    "    def a(self):\n"
                    "        with self._catalog_lock:\n"
                    "            with self._lock:\n"
                    "                pass\n"
                    "    def b(self):\n"
                    "        with self._lock:\n"
                    "            with self._catalog_lock:\n"
                    "                pass\n"
                )
            },
            checks=["lock-discipline"],
        )
        assert checks_found(result) == ["lock-discipline"]
        assert "inversion" in result.findings[0].message

    def test_positive_interprocedural_inversion(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "mod.py": (
                    "class Engine:\n"
                    "    def a(self):\n"
                    "        with self._catalog_lock:\n"
                    "            with self._lock:\n"
                    "                pass\n"
                    "    def b(self):\n"
                    "        with self._lock:\n"
                    "            self.helper()\n"
                    "    def helper(self):\n"
                    "        with self._catalog_lock:\n"
                    "            pass\n"
                )
            },
            checks=["lock-discipline"],
        )
        assert any(
            "via call to helper()" in f.message for f in result.findings
        )

    def test_positive_bare_acquire(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "mod.py": (
                    "class Thing:\n"
                    "    def go(self):\n"
                    "        self._lock.acquire()\n"
                    "        work()\n"
                    "        self._lock.release()\n"
                )
            },
            checks=["lock-discipline"],
        )
        assert len(result.findings) == 1
        assert "bare _lock.acquire()" in result.findings[0].message

    def test_negative_consistent_order_and_guarded_acquire(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "mod.py": (
                    "class Engine:\n"
                    "    def a(self):\n"
                    "        with self._catalog_lock:\n"
                    "            with self._lock:\n"
                    "                pass\n"
                    "    def b(self):\n"
                    "        with self._catalog_lock:\n"
                    "            with self._lock:\n"
                    "                pass\n"
                    "    def c(self):\n"
                    "        self._lock.acquire()\n"
                    "        try:\n"
                    "            work()\n"
                    "        finally:\n"
                    "            self._lock.release()\n"
                )
            },
            checks=["lock-discipline"],
        )
        assert result.findings == []

    def test_negative_guard_internals_exempt(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "mod.py": (
                    "class KeyedMutexGuard:\n"
                    "    def __enter__(self):\n"
                    "        self._lock.acquire()\n"
                    "        return self\n"
                    "    def __exit__(self, *exc):\n"
                    "        self._lock.release()\n"
                )
            },
            checks=["lock-discipline"],
        )
        assert result.findings == []

    def test_suppressed(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "mod.py": (
                    "class Thing:\n"
                    "    def go(self):\n"
                    "        self._lock.acquire()  "
                    "# reprolint: disable=lock-discipline\n"
                )
            },
            checks=["lock-discipline"],
        )
        assert result.findings == []
        assert result.suppressed == 1


# ---------------------------------------------------------------------------
# blocking-under-lock
# ---------------------------------------------------------------------------
class TestBlockingUnderLock:
    def test_positive_io_under_mutex(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "mod.py": (
                    "import os\n"
                    "class Store:\n"
                    "    def save(self):\n"
                    "        with self._state_lock:\n"
                    "            os.replace('a', 'b')\n"
                )
            },
            checks=["blocking-under-lock"],
        )
        assert len(result.findings) == 1
        assert "os.replace()" in result.findings[0].message
        assert "_state_lock" in result.findings[0].message

    def test_positive_project_io_seams(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "mod.py": (
                    "class Store:\n"
                    "    def blob(self):\n"
                    "        with self._lock:\n"
                    "            return self.backend.read_bytes('p')\n"
                    "    def stamp(self):\n"
                    "        with self._state_guard:\n"
                    "            self.store.backend.touch('p', 0.0)\n"
                )
            },
            checks=["blocking-under-lock"],
        )
        assert len(result.findings) == 2

    def test_negative_file_locks_are_fine(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "mod.py": (
                    "import os\n"
                    "class Store:\n"
                    "    def save(self):\n"
                    "        with self._dir_lock('shard'):\n"
                    "            self.backend.write_bytes('p', b'x')\n"
                    "    def compact(self):\n"
                    "        with self._ilock():\n"
                    "            os.replace('a', 'b')\n"
                )
            },
            checks=["blocking-under-lock"],
        )
        assert result.findings == []

    def test_negative_io_outside_lock(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "mod.py": (
                    "import os\n"
                    "class Store:\n"
                    "    def save(self):\n"
                    "        with self._lock:\n"
                    "            payload = self.encode()\n"
                    "        os.replace('a', 'b')\n"
                )
            },
            checks=["blocking-under-lock"],
        )
        assert result.findings == []

    def test_positive_removed_refresher_lock_is_not_allowlisted(self, tmp_path):
        # The background refresher and its allowlist entry are gone; a
        # lock of that name elsewhere is an ordinary in-process mutex.
        result = lint_tree(
            tmp_path,
            {
                "src/repro/catalog/refresh.py": (
                    "import time\n"
                    "class Refresher:\n"
                    "    def _cycle(self):\n"
                    "        with self._refresh_lock:\n"
                    "            time.sleep(0.1)\n"
                )
            },
            checks=["blocking-under-lock"],
        )
        assert [f.check for f in result.findings] == ["blocking-under-lock"]

    def test_negative_nested_def_not_under_lock(self, tmp_path):
        # A callback defined under a lock runs later, not under it.
        result = lint_tree(
            tmp_path,
            {
                "mod.py": (
                    "import os\n"
                    "class Store:\n"
                    "    def save(self):\n"
                    "        with self._lock:\n"
                    "            def done():\n"
                    "                os.replace('a', 'b')\n"
                    "            self.cb = done\n"
                )
            },
            checks=["blocking-under-lock"],
        )
        assert result.findings == []

    def test_suppressed(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "mod.py": (
                    "import time\n"
                    "class Store:\n"
                    "    def save(self):\n"
                    "        with self._lock:\n"
                    "            time.sleep(1)  "
                    "# reprolint: disable=blocking-under-lock\n"
                )
            },
            checks=["blocking-under-lock"],
        )
        assert result.findings == []
        assert result.suppressed == 1


# ---------------------------------------------------------------------------
# lock tables
# ---------------------------------------------------------------------------
def _public_methods(cls):
    return {
        name
        for name, value in inspect.getmembers(cls)
        if callable(value) and not name.startswith("_")
    }


class TestLockTables:
    """The tables in ``checkers/_locks.py`` name what today's code has.
    The linter itself stays import-free; this test may import."""

    def test_io_tables_match_the_classes(self):
        from repro.catalog.backend import LocalFSBackend

        # ``lock`` is the backend's one method that does no I/O of its
        # own: it returns the cross-process lock that guards I/O.
        assert BACKEND_IO_METHODS == _public_methods(LocalFSBackend) - {"lock"}

    def test_every_lock_name_matches_a_with_site_in_src(self):
        calls, attrs = set(), set()
        for path in sorted((REPO_ROOT / "src").rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(node, (ast.With, ast.AsyncWith)):
                    continue
                for item in node.items:
                    expr = item.context_expr
                    if isinstance(expr, ast.Call):
                        calls.add(terminal_name(expr.func))
                    else:
                        attrs.add(terminal_name(expr))
        assert FILE_LOCK_CALLS <= calls
        for suffix in IN_PROCESS_SUFFIXES:
            assert any(
                name and name.endswith(suffix) for name in attrs
            ), suffix


# ---------------------------------------------------------------------------
# catalog-vfs
# ---------------------------------------------------------------------------
class TestCatalogVfs:
    def test_positive_raw_io_in_catalog(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "src/repro/catalog/store.py": (
                    "import os, shutil\n"
                    "def save(path, data):\n"
                    "    with open(path, 'wb') as fh:\n"
                    "        fh.write(data)\n"
                    "    os.remove(path)\n"
                    "    shutil.copyfile('a', 'b')\n"
                )
            },
            checks=["catalog-vfs"],
        )
        reasons = sorted(f.message for f in result.findings)
        assert len(reasons) == 3
        assert any("builtin open()" in m for m in reasons)
        assert any("os.remove()" in m for m in reasons)
        assert any("shutil.copyfile()" in m for m in reasons)

    def test_touch_is_raw_unless_called_on_the_backend(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "src/repro/catalog/store.py": (
                    "def stamp(self, path, when):\n"
                    "    self.backend.touch(path, when)\n"
                    "    self.marker.touch()\n"
                )
            },
            checks=["catalog-vfs"],
        )
        assert [f.message for f in result.findings] == [
            "raw filesystem I/O (.touch() (pathlib-style I/O)) in "
            "repro.catalog.store; route it through the store's backend "
            "(backend.py)"
        ]

    def test_negative_backend_module_exempt(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "src/repro/catalog/backend.py": (
                    "import os\n"
                    "def write(path, data):\n"
                    "    with open(path, 'wb') as fh:\n"
                    "        fh.write(data)\n"
                )
            },
            checks=["catalog-vfs"],
        )
        assert result.findings == []

    def test_negative_outside_catalog_package(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "src/repro/core/serialization.py": (
                    "def save(path, data):\n"
                    "    with open(path, 'wb') as fh:\n"
                    "        fh.write(data)\n"
                )
            },
            checks=["catalog-vfs"],
        )
        assert result.findings == []

    def test_negative_pure_path_helpers(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "src/repro/catalog/fingerprint.py": (
                    "import os\n"
                    "def shard_path(root, fingerprint):\n"
                    "    os.getpid()\n"
                    "    return os.path.join(root, fingerprint[:2])\n"
                )
            },
            checks=["catalog-vfs"],
        )
        assert result.findings == []

    def test_suppressed_file_wide(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "src/repro/catalog/tool.py": (
                    "# reprolint: disable-file=catalog-vfs\n"
                    "import os\n"
                    "def nuke(path):\n"
                    "    os.remove(path)\n"
                    "    os.unlink(path)\n"
                )
            },
            checks=["catalog-vfs"],
        )
        assert result.findings == []
        assert result.suppressed == 2


# ---------------------------------------------------------------------------
# metrics-hygiene
# ---------------------------------------------------------------------------
class TestMetricsHygiene:
    def test_positive_conflicting_registration(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "a.py": (
                    "def reg(registry):\n"
                    "    registry.counter('repro_ops', 'ops', ('kind',))\n"
                ),
                "b.py": (
                    "def reg(registry):\n"
                    "    registry.counter('repro_ops', 'ops', ('section',))\n"
                ),
            },
            checks=["metrics-hygiene"],
        )
        assert len(result.findings) == 1
        assert "registered with labels" in result.findings[0].message

    def test_positive_kind_conflict(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "a.py": (
                    "def reg(registry):\n"
                    "    registry.counter('repro_depth', 'd')\n"
                    "    registry.gauge('repro_depth', 'd')\n"
                ),
            },
            checks=["metrics-hygiene"],
        )
        assert len(result.findings) == 1
        assert "as gauge here but as counter" in result.findings[0].message

    def test_positive_unbounded_label_value(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "a.py": (
                    "def record(family, table):\n"
                    "    family.labels(table=f'tbl-{table}').inc()\n"
                    "    family.labels(table=str(table)).inc()\n"
                ),
            },
            checks=["metrics-hygiene"],
        )
        assert len(result.findings) == 2

    def test_positive_print_in_library(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "src/repro/api/engine.py": (
                    "def run():\n"
                    "    print('done')\n"
                ),
            },
            checks=["metrics-hygiene"],
        )
        assert len(result.findings) == 1

    def test_negative_clean_metrics(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "a.py": (
                    "def reg(registry):\n"
                    "    registry.counter('repro_ops', 'ops', ('kind',))\n"
                ),
                "b.py": (
                    "def reg(registry):\n"
                    "    registry.counter('repro_ops', 'ops', ('kind',))\n"
                    "    registry.histogram('repro_lat', 'l')\n"
                ),
                "src/repro/cli.py": "print('the CLI may print')\n",
            },
            checks=["metrics-hygiene"],
        )
        assert result.findings == []

    def test_suppressed(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "src/repro/api/engine.py": (
                    "def run():\n"
                    "    print('done')  # reprolint: disable=metrics-hygiene\n"
                ),
            },
            checks=["metrics-hygiene"],
        )
        assert result.findings == []
        assert result.suppressed == 1


# ---------------------------------------------------------------------------
# driver-level behavior
# ---------------------------------------------------------------------------
class TestDriver:
    def test_parse_error_is_a_finding(self, tmp_path):
        result = lint_tree(tmp_path, {"bad.py": "def broken(:\n"})
        assert [f.check for f in result.findings] == ["parse-error"]

    def test_unknown_check_raises(self, tmp_path):
        with pytest.raises(KeyError):
            lint_tree(tmp_path, {"a.py": "x = 1\n"}, checks=["no-such"])

    def test_disable_all_suppresses_everything(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "mod.py": (
                    "import time\n"
                    "class Store:\n"
                    "    def save(self):\n"
                    "        with self._lock:\n"
                    "            time.sleep(1)  # reprolint: disable=all\n"
                )
            },
        )
        assert result.findings == []
        assert result.suppressed >= 1

    def test_findings_sorted_and_relative(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "b.py": "print('x')\n",
                "a.py": "print('x')\n",
            },
            checks=["metrics-hygiene"],
        )
        # print() outside repro.* modules is not flagged; shape the tree
        # so both files are library modules.
        assert result.findings == []
        result = lint_tree(
            tmp_path,
            {
                "src/repro/b.py": "print('x')\n",
                "src/repro/a.py": "print('x')\n",
            },
            checks=["metrics-hygiene"],
        )
        assert [f.path for f in result.findings] == [
            "src/repro/a.py",
            "src/repro/b.py",
        ]
