"""Reusable fault-injection helpers for crash-safety tests.

The catalog store (and the catalog facade layered on it) claims crash
safety at specific protocol points: a writer killed between its log append and manifest
compaction, a deleter killed between its un-record and file removal,
a torn log tail from a writer killed mid-append.  These helpers express all three fault shapes once:

``crash_at(store, point)``
    Context manager raising :class:`InjectedCrash` from the store's
    ``fault_hook`` at the named protocol point — an in-process
    "writer death" that unit tests can assert around.

``exit_hook(point, code)``
    A ``fault_hook`` that ``os._exit``\\ s at the point — a *real*
    process death (no ``finally`` blocks, no interpreter teardown) for
    forked subprocess writers.

``run_killed(target, args, exitcode)`` / ``run_ok(jobs)``
    Fork-based subprocess drivers: the first asserts the worker died
    with the injected exit code, the second fans out concurrent
    writers and asserts they all succeeded.

``torn_log(path, records, torn_tail)``
    Write a shard-manifest-style JSON-line log ending in a torn
    fragment — the on-disk shape a writer killed mid-append leaves.
"""

from __future__ import annotations

import json
import multiprocessing
import os
from contextlib import contextmanager

#: Exit code every ``exit_hook`` worker dies with (asserted by
#: ``run_killed`` so an unrelated crash can't pass as the injected one).
KILLED_EXIT_CODE = 17


class InjectedCrash(BaseException):
    """Simulated writer death (BaseException so no handler eats it)."""


def crash_hook(point: str, exception=InjectedCrash):
    """A ``fault_hook`` raising ``exception`` at ``point``."""

    def hook(name: str) -> None:
        if name == point:
            raise exception(name)

    return hook


@contextmanager
def crash_at(store, point: str):
    """Install a crash hook on ``store`` for the duration of the block.

    The protected operation is expected to die with
    :class:`InjectedCrash` (assert with ``pytest.raises``); the previous
    hook is restored afterwards, so one test can crash several points in
    sequence."""
    previous = store.fault_hook
    store.fault_hook = crash_hook(point)
    try:
        yield store
    finally:
        store.fault_hook = previous


def exit_hook(point: str, code: int = KILLED_EXIT_CODE):
    """A ``fault_hook`` that kills the *process* at ``point``.

    ``os._exit`` skips every ``finally`` block and all interpreter
    teardown — the closest a test can get to ``kill -9`` from inside."""

    def hook(name: str) -> None:
        if name == point:
            os._exit(code)

    return hook


def fork_context():
    """The fork start method (these tests inject faults into inherited
    store objects, which spawn's pickling path cannot carry)."""
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


def torn_log(path: str, records, torn_tail: str = None) -> None:
    """Write JSON-line ``records`` to ``path``, optionally ending with
    ``torn_tail`` — a partial record with no newline, exactly what a
    writer killed mid-append leaves behind."""
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
        if torn_tail is not None:
            handle.write(torn_tail)
