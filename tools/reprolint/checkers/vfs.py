"""Backend-boundary enforcement for ``repro.catalog``.

Every byte the catalog store reads or writes goes through its backend,
:class:`~repro.catalog.backend.LocalFSBackend` — the seam
``CatalogStore(root, backend=...)`` exposes, where test doubles count
I/O and a remote backend would plug in.  That only holds while no new
code quietly calls ``open``/``os.*``/``pathlib``/``tempfile``/``shutil``
inside ``repro.catalog``, so this checker bans raw filesystem I/O
everywhere in the package except ``backend.py`` itself, the one module
allowed to touch the real filesystem.

Pure path arithmetic (``os.path.*``, ``os.sep``) and non-I/O ``os``
helpers (``os.getpid``, ``os.environ``, ``os._exit``) are fine.
"""

from __future__ import annotations

import ast
from typing import List

from tools.reprolint.checkers._locks import OS_IO_FUNCS
from tools.reprolint.core import (
    Checker,
    FileContext,
    Finding,
    call_root,
    dotted_name,
    terminal_name,
)

_SCOPE_PREFIX = "repro.catalog"
_EXEMPT_MODULES = {"repro.catalog.backend"}

# Method names unique to pathlib's I/O surface.  Names the backend
# shares (read_bytes, write_bytes, remove, ...) are left out: calls on a
# backend are exactly what this checker steers code toward.  ``touch``
# is both — pathlib's, and the backend's mtime update — so it is raw
# I/O unless called on a ``backend`` attribute.
_PATHLIB_IO_METHODS = {
    "write_text",
    "read_text",
    "touch",
    "iterdir",
    "rglob",
}


class CatalogVfsChecker(Checker):
    name = "catalog-vfs"
    description = (
        "raw open/os/pathlib/tempfile/shutil I/O inside repro.catalog "
        "outside backend.py (all store I/O must go through the "
        "store's backend)"
    )

    def check_file(self, ctx: FileContext) -> List[Finding]:
        if (
            not ctx.module.startswith(_SCOPE_PREFIX)
            or ctx.module in _EXEMPT_MODULES
        ):
            return []
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            reason = self._raw_io_reason(node)
            if reason is not None:
                findings.append(
                    ctx.finding(
                        self.name,
                        node,
                        f"raw filesystem I/O ({reason}) in "
                        f"{ctx.module}; route it through the "
                        "store's backend (backend.py)",
                    )
                )
        return findings

    @staticmethod
    def _raw_io_reason(node: ast.Call) -> str | None:
        func = node.func
        if isinstance(func, ast.Name):
            if func.id == "open":
                return "builtin open()"
            if func.id == "Path":
                return "Path()"
            return None
        dotted = dotted_name(func) or ""
        root = call_root(func)
        name = terminal_name(func)
        if dotted.startswith("os.path."):
            return None
        if root == "os" and name in OS_IO_FUNCS:
            return f"os.{name}()"
        if root in {"tempfile", "shutil"}:
            return f"{root}.{name}()"
        if root == "io" and name == "open":
            return "io.open()"
        if root == "Path" or dotted.startswith("pathlib."):
            return f"{dotted}()"
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Call)
            and CatalogVfsChecker._raw_io_reason(func.value) is not None
        ):
            return None  # ``Path(p).write_text()``: reported at ``Path(p)``
        if name in _PATHLIB_IO_METHODS and not dotted.endswith(f"backend.{name}"):
            return f".{name}() (pathlib-style I/O)"
        return None
