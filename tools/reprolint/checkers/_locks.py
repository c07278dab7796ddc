"""Shared lock recognition for the concurrency checkers.

The codebase has two families of locks with very different rules, told
apart by the attribute-naming convention alone:

* **In-process mutexes** — ``threading.Lock``/``RLock`` attributes
  named ``*_lock``/``*_guard`` and held with ``with self._lock:``.
  Their critical sections are short; blocking I/O under one stalls
  every thread in the process.
* **Cross-process critical-section locks** — a *call* named like a
  mutex (``self._dir_lock(path)``, ``store.root_lock()``: factories
  returning a backend file lock)
  and the engine caches' ``single_flight(key)`` slots.  They exist
  precisely to serialize file I/O or a build of one key, so I/O under
  them is the intended idiom.

Both families participate in lock-ordering analysis; only the first is
checked for blocking calls.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Optional

from tools.reprolint.core import call_root, dotted_name, terminal_name

#: Attribute-name suffixes that mark an in-process lock by convention.
IN_PROCESS_SUFFIXES = ("_lock", "_guard")

#: Context-manager *calls* that yield a lock guard without being named
#: like a mutex: ``LruDict.single_flight``, whose owner holds its key
#: while it builds (prepares, searches, fits) the value.
FILE_LOCK_CALLS = {"single_flight"}


@dataclass(frozen=True)
class LockRef:
    """One recognized lock acquisition site."""

    name: str  # lock identifier (attribute or factory name)
    in_process: bool  # True → threading mutex, False → file lock or slot


def classify_with_item(item: ast.withitem) -> Optional[LockRef]:
    """Recognize ``with <lock>:`` / ``with <lock-factory>(...):`` items."""
    expr = item.context_expr
    if isinstance(expr, ast.Call):
        name = terminal_name(expr.func)
        # A factory named like a mutex (``self._dir_lock(path)``,
        # ``store.root_lock()``) returns a backend file lock.
        if name is not None and (
            name in FILE_LOCK_CALLS or _looks_in_process(name)
        ):
            return LockRef(name=name, in_process=False)
        return None
    name = terminal_name(expr)
    if name is not None and _looks_in_process(name):
        return LockRef(name=name, in_process=True)
    return None


def _looks_in_process(name: str) -> bool:
    return name.endswith(IN_PROCESS_SUFFIXES)


def is_lock_expr(node: ast.AST) -> bool:
    """True for expressions denoting a known lock object (used to spot
    bare ``.acquire()`` calls)."""
    name = terminal_name(node)
    return name is not None and (
        _looks_in_process(name) or name in FILE_LOCK_CALLS
    )


def blocking_reason(node: ast.Call) -> Optional[str]:
    """Why ``node`` is a blocking call, or ``None`` if it is not.

    Recognizes raw I/O (builtin ``open``, ``os.*`` file ops,
    ``tempfile``/``shutil``/``subprocess``/``socket`` use,
    ``time.sleep``) and this project's own I/O seam (``*.backend.*``
    VFS methods).
    """
    func = node.func
    if isinstance(func, ast.Name):
        if func.id == "open":
            return "builtin open()"
        return None
    root = call_root(func)
    name = terminal_name(func)
    dotted = dotted_name(func) or ""
    if root == "time" and name == "sleep":
        return "time.sleep()"
    if root in {"subprocess", "shutil", "socket"}:
        return f"{root}.{name}()"
    if root == "tempfile" and name in {
        "mkstemp",
        "mkdtemp",
        "NamedTemporaryFile",
        "TemporaryFile",
        "TemporaryDirectory",
    }:
        return f"tempfile.{name}()"
    if root == "os" and name in OS_IO_FUNCS and not dotted.startswith(
        "os.path."
    ):
        return f"os.{name}()"
    parts = dotted.split(".")
    if len(parts) >= 2 and parts[-2] == "backend" and name in BACKEND_IO_METHODS:
        return f"backend.{name}() (store VFS I/O)"
    return None


#: ``os`` functions that hit the filesystem (``os.path.*`` is pure).
OS_IO_FUNCS = {
    "open",
    "fdopen",
    "close",
    "read",
    "write",
    "replace",
    "rename",
    "remove",
    "unlink",
    "makedirs",
    "mkdir",
    "rmdir",
    "removedirs",
    "listdir",
    "scandir",
    "walk",
    "stat",
    "lstat",
    "fsync",
    "truncate",
    "chmod",
    "utime",
    "link",
    "symlink",
}

#: Store backend methods that perform I/O.
BACKEND_IO_METHODS = {
    "open_read",
    "read_bytes",
    "write_bytes",
    "touch",
    "remove",
    "exists",
    "isdir",
    "listdir",
    "makedirs",
    "size",
    "mtime",
    "disk_bytes",
    "write_stream",
}
