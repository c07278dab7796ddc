"""Shared lock recognition for the concurrency checkers.

The codebase has two families of locks with very different rules:

* **In-process mutexes** (``threading.Lock``/``RLock``/``Condition``
  attributes) — short critical sections; blocking I/O under one stalls
  every thread in the process.  These are the attributes named
  ``_lock``, ``_catalog_lock``, ``_state_lock``, ``_writer_lease_guard``,
  ``_refresh_lock`` (and anything matching the
  ``*_lock``/``*_guard``/``*_gate`` suffix convention).
* **Cross-process critical-section locks** (``FileLock`` and the
  context-manager factories ``_dir_lock(...)``, ``_ilock()``,
  ``root_lock()``, ``backend.lock(...)``, striped ``_prepare_keys``
  guards) — they exist precisely to serialize file I/O, so I/O under
  them is the intended idiom.

Both families participate in lock-ordering analysis; only the first is
checked for blocking calls.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Optional

from repro.analysis.core import call_root, dotted_name, terminal_name

#: Known in-process mutex attribute names (threading primitives).
IN_PROCESS_ATTRS = {
    "_lock",
    "_catalog_lock",
    "_state_lock",
    "_writer_lease_guard",
    "_refresh_lock",
}

#: Attribute-name suffixes that mark an in-process lock by convention.
IN_PROCESS_SUFFIXES = ("_lock", "_guard", "_gate", "_mutex")

#: Context-manager *calls* that yield a lock guard.  These are
#: cross-process / striped critical-section locks: holding one while
#: doing file I/O is by design.
FILE_LOCK_CALLS = {
    "_dir_lock",
    "_ilock",
    "root_lock",
    "lock",  # backend.lock(path)
    "FileLock",
    "_prepare_keys",  # KeyedMutex striped guard: single-flight compute
}

#: ``(module prefix, lock name)`` pairs where holding the (in-process)
#: lock across blocking work is an audited, intentional design choice.
#: Each entry needs a justification here — this list is the allowlist
#: the blocking-under-lock checker honors.
BLOCKING_ALLOWLIST = {
    # The engine deliberately holds the catalog lock across catalog
    # refresh/save: catalog mutations must be serialized with each
    # other and with index paging, and every reader path takes a
    # corpus reference instead of this lock.
    ("repro.api.engine", "_catalog_lock"),
}


@dataclass(frozen=True)
class LockRef:
    """One recognized lock acquisition site."""

    name: str  # lock identifier (attribute or factory name)
    in_process: bool  # True → threading mutex, False → file/striped lock
    node: ast.AST  # the with-item context expression (or acquire call)


def classify_with_item(item: ast.withitem) -> Optional[LockRef]:
    """Recognize ``with <lock>:`` / ``with <lock-factory>(...):`` items."""
    expr = item.context_expr
    if isinstance(expr, ast.Call):
        name = terminal_name(expr.func)
        if name in FILE_LOCK_CALLS:
            return LockRef(name=name, in_process=False, node=expr)
        # ``self._lock()`` — a factory named like a mutex attribute
        # (LeaseManager._lock) returns a backend file lock.
        if name is not None and _looks_in_process(name):
            return LockRef(name=name, in_process=False, node=expr)
        return None
    name = terminal_name(expr)
    if name is not None and _looks_in_process(name):
        return LockRef(name=name, in_process=True, node=expr)
    return None


def _looks_in_process(name: str) -> bool:
    return name in IN_PROCESS_ATTRS or name.endswith(IN_PROCESS_SUFFIXES)


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
    ``time.sleep``) and this project's own I/O seams (``*.backend.*``
    VFS methods, ``*.leases.*`` lease-file operations).
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
    if len(parts) >= 2:
        receiver = parts[-2]
        if receiver == "backend" and name in BACKEND_IO_METHODS:
            return f"backend.{name}() (store VFS I/O)"
        if receiver == "leases" and name in LEASE_IO_METHODS:
            return f"leases.{name}() (lease-file I/O)"
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
}

#: LeaseManager methods that read/write lease files.
LEASE_IO_METHODS = {"acquire", "renew", "release", "active", "active_claims"}
