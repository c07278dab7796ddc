"""Advisory inter-process file locking for the catalog store.

:class:`FileLock` takes an advisory lock on a sidecar file
(``fcntl.flock``), layered over an in-process re-entrant lock so the
same lock path is safe to take from many threads of one process *and*
from many processes at once.  On platforms without ``fcntl`` it
degrades to the in-process layer only (best-effort, like every advisory
lock).  In-process get-or-build belongs to
:meth:`repro.utils.lru.LruDict.single_flight`.
"""

from __future__ import annotations

import os
import threading

try:  # POSIX only; the in-process layer still applies elsewhere.
    import fcntl
except ImportError:  # pragma: no cover - exercised only on non-POSIX
    fcntl = None


class _PathEntry:
    """Shared per-path state: the in-process lock plus the flock fd."""

    __slots__ = ("rlock", "fd", "depth", "refs")

    def __init__(self):
        self.rlock = threading.RLock()
        self.fd = None
        self.depth = 0  # re-entrant acquisitions by the owning thread
        self.refs = 0  # threads holding or waiting on this entry


_PATH_GUARD = threading.Lock()
_PATH_ENTRIES: dict = {}  # absolute path -> _PathEntry


class FileLock:
    """Advisory exclusive lock on ``path`` (created if absent).

    Safe across processes (``flock``) and across threads of one process
    (a shared per-path re-entrant lock — two ``FileLock`` instances on
    the same path exclude each other's threads, and the same thread may
    nest acquisitions of the same path freely, which ``flock`` alone
    would self-deadlock on).  Use as a context manager::

        with FileLock(os.path.join(shard_dir, ".lock")):
            ...read-modify-write...
    """

    def __init__(self, path: str):
        self.path = os.path.abspath(str(path))

    def __enter__(self):
        with _PATH_GUARD:
            entry = _PATH_ENTRIES.get(self.path)
            if entry is None:
                entry = _PATH_ENTRIES[self.path] = _PathEntry()
            entry.refs += 1
        entry.rlock.acquire()
        # Only the holding thread reaches here; depth tracks re-entry so
        # the process-level flock is taken exactly once per path.
        entry.depth += 1
        if entry.depth == 1 and fcntl is not None:
            try:
                os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
                fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
            except OSError:
                # Unlockable location (read-only store, exotic fs): fall
                # back to in-process exclusion only — advisory locking
                # must never turn a working store into a failing one.
                fd = None
            if fd is not None:
                try:
                    fcntl.flock(fd, fcntl.LOCK_EX)
                except OSError:  # pragma: no cover - fs without flock
                    os.close(fd)
                    fd = None
            entry.fd = fd
        self._entry = entry
        return self

    def __exit__(self, *exc_info):
        entry = self._entry
        entry.depth -= 1
        if entry.depth == 0 and entry.fd is not None:
            try:
                os.close(entry.fd)  # closing releases the flock
            except OSError:  # pragma: no cover - double close cannot happen
                pass
            entry.fd = None
        entry.rlock.release()
        with _PATH_GUARD:
            entry.refs -= 1
            if entry.refs == 0:
                _PATH_ENTRIES.pop(self.path, None)
        return False
