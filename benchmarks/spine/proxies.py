"""Proxies the traced pass puts between the search and its collaborators.

The spans live here, in the benchmark's own files: nothing inside ``src/``
is edited to be measured.
"""

from __future__ import annotations

import hashlib

from repro.discovery.candidates import Candidate
from repro.tasks import Task


def digest_result(result) -> str:
    payload = repr((result.selected, result.utility, result.base_utility,
                    result.queries, result.trace))
    return hashlib.blake2b(payload.encode("utf-8"), digest_size=12).hexdigest()


class TracedTask(Task):
    """Proxy around the task: a span per utility call, and the first few
    input tables kept for the ``ml`` replay."""

    name = "traced"

    def __init__(self, inner, run, keep: int = 6):
        self.inner = inner
        self.run = run
        self.keep = keep
        self.captured = []

    def utility(self, table) -> float:
        with self.run.tracer.span("tasks.utility"):
            value = self.inner.utility(table)
        if len(self.captured) < self.keep:
            self.captured.append((table, value))
        return value


class TracedAug:
    """Proxy around an augmentation: a span per ``apply``."""

    def __init__(self, inner, run):
        self.inner = inner
        self.run = run
        self.aug_id = inner.aug_id

    def apply(self, table, base, corpus):
        with self.run.tracer.span("dataframe.apply"):
            return self.inner.apply(table, base, corpus)


def traced_candidates(candidates, run) -> list:
    """The same candidates with every augmentation behind a proxy."""
    return [
        Candidate(aug=TracedAug(c.aug, run), values=c.values, overlap=c.overlap,
                  profile_vector=c.profile_vector)
        for c in candidates
    ]
