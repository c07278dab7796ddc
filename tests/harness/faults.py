"""Reusable fault-injection helpers for crash-safety tests.

The catalog store claims crash safety at every file it writes or
removes: a writer killed before an object, the snapshot or the manifest
lands, or a ``gc`` killed after any number of its removals, leaves a
store that verifies.  These helpers express the fault shapes once:

``DyingBackend(root, suffix, ...)``
    The local backend, dying as it is about to write (or remove) a file
    whose name ends with ``suffix`` — by raising :class:`InjectedCrash`
    (an in-process "writer death" unit tests can assert around), or by
    ``os._exit`` (a *real* process death: no ``finally`` blocks, no
    interpreter teardown, every flock released by the kernel).

``run_killed(target, args, exitcode)`` / ``run_ok(jobs)``
    Fork-based subprocess drivers: the first asserts the worker died
    with the injected exit code, the second fans out concurrent
    writers and asserts they all succeeded.
"""

from __future__ import annotations

import multiprocessing
import os

from repro.catalog import LocalFSBackend

#: Exit code every killed worker dies with (asserted by ``run_killed``
#: so an unrelated crash can't pass as the injected one).
KILLED_EXIT_CODE = 17


class InjectedCrash(BaseException):
    """Simulated writer death (BaseException so no handler eats it)."""


class DyingBackend(LocalFSBackend):
    """The local backend, dying at the ``survive + 1``-th ``op`` (a
    ``"write"`` — ``write_bytes`` or ``write_stream`` — or a
    ``"remove"``) of a path ending with ``suffix``, before the file
    changes.  ``exit`` kills the process; otherwise the call raises
    :class:`InjectedCrash`.  A ``suffix`` of ``None`` disarms it: set
    the attributes between steps to arm it for one step only."""

    def __init__(self, root, suffix, op="write", survive=0, exit=False):
        super().__init__(root)
        self.suffix = suffix
        self.op = op
        self.survive = survive
        self.exit = exit

    def _maybe_die(self, op, path):
        if op != self.op or self.suffix is None or not path.endswith(self.suffix):
            return
        if self.survive > 0:
            self.survive -= 1
            return
        if self.exit:
            os._exit(KILLED_EXIT_CODE)
        raise InjectedCrash(path)

    def write_bytes(self, path, data):
        self._maybe_die("write", path)
        return super().write_bytes(path, data)

    def write_stream(self, path):
        self._maybe_die("write", path)
        return super().write_stream(path)

    def remove(self, path):
        self._maybe_die("remove", path)
        return super().remove(path)


def fork_context():
    """The fork start method (these tests hand inherited store objects
    and closures to workers, which spawn's pickling path cannot
    carry)."""
    return multiprocessing.get_context("fork")


def run_killed(target, args=(), exitcode: int = KILLED_EXIT_CODE) -> None:
    """Fork-run ``target(*args)`` and assert it died with ``exitcode``
    (the injected death, not an incidental crash)."""
    worker = fork_context().Process(target=target, args=args)
    worker.start()
    worker.join()
    assert worker.exitcode == exitcode, (
        f"worker exited {worker.exitcode}, expected injected {exitcode}"
    )


def run_ok(jobs) -> None:
    """Fork ``jobs`` (``(target, args)`` pairs) concurrently; join all
    and assert every worker exited 0."""
    ctx = fork_context()
    workers = [ctx.Process(target=target, args=args) for target, args in jobs]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
        assert worker.exitcode == 0, f"worker died with {worker.exitcode}"
