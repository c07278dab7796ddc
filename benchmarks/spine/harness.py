"""Shared machinery of the spine: spans, samples, counts, statistics.

A workload receives one :class:`Run`.  It times operations into named
sample lists, counts work, records every operation it attempted and
whether the result was correct, and — in the traced pass only — opens
spans around its calls into each layer's public functions.  Nothing
here imports the program under test.

Every time the spine reports is *speed-normalised* (see :func:`probe`);
the raw wall-clock counterparts are kept under ``<name>.raw``.
"""

from __future__ import annotations

import bisect
import contextlib
import json
import os
import resource
import statistics
import threading
import time
from collections import defaultdict

import numpy as np

now = time.perf_counter


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(samples, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of a non-empty list."""
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * (len(ordered) - 1) + 0.5))]


def spread(samples) -> float:
    """Interquartile distance as a share of the median (the steadiness
    measure the driver applies across runs; here also within a run)."""
    if len(samples) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def typical(values, keys=None) -> float:
    """Median of ``values``; with ``keys``, the median over keys of the
    per-key medians.  The keyed form is for loops that cycle through
    inputs of different cost: it does not depend on where in the cycle
    the time ran out."""
    if not keys:
        return statistics.median(values)
    by_key = defaultdict(list)
    for value, key in zip(values, keys, strict=True):
        by_key[key].append(value)
    return statistics.median(statistics.median(v) for v in by_key.values())


#: Duration of :func:`probe` on this box when nothing else competes for
#: it.  Normalised times read as wall-clock times on such a box.
PROBE_REFERENCE_S = 0.0068

_PROBE_X = np.random.default_rng(1).normal(size=(220, 6))
_PROBE_Y = np.random.default_rng(2).normal(size=220)


def probe() -> float:
    """Seconds this box needs right now for a fixed piece of work.

    The sandbox's speed drifts by a third within a minute (raw medians of
    identical runs spread by 0.27 to 0.48 of their median), so probes are
    taken between the timed operations and every time is reported as
    ``wall * PROBE_REFERENCE_S / probe`` (see :class:`Speed`).  The work is a frozen miniature
    of what the program does — sort-and-scan over small numpy arrays with
    interpreter overhead between the calls — because a probe slows down
    with the program only if it is slowed down by the same things: a
    plain counting loop left a spread of 0.15, this one 0.05.  It uses
    numpy and nothing of the program under test.
    """
    start = now()
    acc = 0.0
    for it in range(120):
        col = _PROBE_X[:, it % 6]
        order = np.argsort(col, kind="quicksort")
        sorted_col, sorted_y = col[order], _PROBE_Y[order]
        pos = np.nonzero(sorted_col[1:] != sorted_col[:-1])[0]
        cum, cum2 = np.cumsum(sorted_y), np.cumsum(sorted_y**2)
        n_left = (pos + 1).astype(float)
        var = np.maximum(0.0, cum2[pos] / n_left - (cum[pos] / n_left) ** 2)
        acc += float(var[int(np.argmin(var))])
        mask = col <= sorted_col[len(sorted_col) // 2]
        acc += float(np.var(_PROBE_Y[mask])) + float(np.mean(_PROBE_Y[~mask]))
    return now() - start


# ----------------------------------------------------------------------
# Box speed over time
# ----------------------------------------------------------------------
class Speed:
    """Timeline of :func:`probe` samples; turns a wall-clock interval
    into a speed-normalised duration.

    This sandbox flips between a fast state (probe 5.3 ms) and a slow one
    (9 ms) every few tenths of a second, and the share of time it spends
    slow drifts from second to second and from minute to minute; that is
    what makes identical runs differ.  Probes are taken in bursts between
    the timed operations, and an interval is normalised by the median of
    the probes next to it.  Measured on the same recorded runs (ten per
    workload, spread of the per-run medians): raw 0.16 / 0.28 / 0.28 /
    0.11 on cold-prepare / catalog-churn / warm-discover / search-scale,
    this rule 0.04 / 0.05 / 0.11 / 0.04; a mean over a 4 s window 0.10 /
    0.12 / 0.12 / 0.06; one factor for the whole run 0.14 / 0.14 / 0.13 /
    0.07.
    """

    #: A burst this recent is reused instead of taken again.
    FRESH_S = 0.05
    #: Probes per burst; all are kept, each at its own time.
    BURST = 4

    def __init__(self):
        self.at = []        # when each probe ended
        self.cost = []      # what it took
        self._lock = threading.Lock()

    def sample(self, force: bool = False) -> None:
        with self._lock:
            if not force and self.at and now() - self.at[-1] < self.FRESH_S:
                return
            for _ in range(self.BURST):
                self.cost.append(probe())
                self.at.append(now())

    def factor(self, start: float, end: float) -> float:
        """``PROBE_REFERENCE_S / probe`` for the interval ``[start, end]``:
        the median of the three probes before it and the second to fourth
        after it.  The first probe after an operation finds the caches as
        the operation left them (up to twice as slow, depending on what
        the operation was), so it is left out."""
        before = bisect.bisect_right(self.at, start)
        after = bisect.bisect_left(self.at, end)
        near = self.cost[max(0, before - 3):before] + self.cost[after + 1:after + 4]
        near = near or self.cost[-1:]
        return PROBE_REFERENCE_S / statistics.median(near) if near else 1.0


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class Tracer:
    """In-memory span recorder, written out when the benchmark ends.

    A span is ``[name, layer, start, end, parent, rep]``; ``parent`` is
    the index of the enclosing span opened by the same thread (``None``
    for a root) and ``rep`` the repetition the workload was in.
    """

    def __init__(self, speed: Speed):
        self.spans = []
        self.rep = 0
        self.speed = speed
        self._local = threading.local()
        self._lock = threading.Lock()

    @contextlib.contextmanager
    def span(self, name: str, layer: str = None):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        record = [name, layer or name.split(".", 1)[0], 0.0, 0.0,
                  stack[-1] if stack else None, self.rep]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        record[2] = now()
        try:
            yield
        finally:
            record[3] = now()
            stack.pop()

    # -- speed-normalised readings (what the metrics are made of) ------
    def durations(self, name: str) -> list:
        return [
            (end - start) * self.speed.factor(start, end)
            for n, _layer, start, end, _parent, _rep in self.spans
            if n == name
        ]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_total(self, name: str) -> float:
        """Normalised total of ``name`` spans minus their direct children."""
        parents = {i for i, s in enumerate(self.spans) if s[0] == name}
        covered = defaultdict(float)
        for _n, _layer, start, end, parent, _rep in self.spans:
            if parent in parents:
                covered[parent] += end - start
        return sum(
            (self.spans[i][3] - self.spans[i][2] - covered[i])
            * self.speed.factor(self.spans[i][2], self.spans[i][3])
            for i in parents
        )

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    # -- raw wall clock (where the time went) --------------------------
    def table(self, root: str) -> tuple:
        """``(wall, rows)`` with rows ``(name, layer, self seconds,
        calls)``.  Self time is a span's duration minus what its direct
        children cover, so the rows sum to the raw wall clock of the
        ``root`` span; the root's own self time is the ``unattributed``
        row."""
        children = defaultdict(float)
        under = []  # whether each span is a root span or below one
        for name, _layer, start, end, parent, _rep in self.spans:
            if parent is not None:
                children[parent] += end - start
            under.append(name == root or (parent is not None and under[parent]))
        rows = {}
        for index, (name, layer, start, end, _parent, _rep) in enumerate(self.spans):
            if not under[index]:
                continue
            row = rows.setdefault(name, [name, layer, 0.0, 0])
            row[2] += (end - start) - children[index]
            row[3] += 1
        top = rows.pop(root, [root, "trace", 0.0, 0])
        wall = top[2] + sum(row[2] for row in rows.values())
        ordered = sorted((tuple(r) for r in rows.values()), key=lambda r: -r[2])
        ordered.append(("unattributed", "trace", top[2], top[3]))
        return wall, ordered

    def records(self) -> list:
        return [
            {"name": s[0], "layer": s[1], "start": s[2], "end": s[3],
             "parent": s[4], "rep": s[5]}
            for s in self.spans
        ]


class NullTracer:
    """The untraced pass: same call sites, no bookkeeping."""

    rep = 0
    _null = contextlib.nullcontext()

    def span(self, name: str, layer: str = None):
        return self._null


# ----------------------------------------------------------------------
# One run of one workload
# ----------------------------------------------------------------------
class Run:
    """Everything one workload run reads and records."""

    def __init__(self, workload, seed, seconds, trace, smoke, inject, workdir):
        self.workload = workload
        self.seed = int(seed)
        self.seconds = float(seconds)
        self.trace = bool(trace)
        self.smoke = bool(smoke)
        self.inject = inject
        self.workdir = workdir
        self.speed = Speed()
        self.tracer = Tracer(self.speed) if trace else NullTracer()
        self.samples = defaultdict(list)   # name -> normalised seconds (or values)
        self.counts = defaultdict(float)   # name -> accumulated count
        self.metrics = {}                  # name -> {"value","n","spread"}
        self.digests = {}                  # name -> input/result digest
        self.attempted = 0
        self.failed = 0
        self.failures = []

    # -- operations ----------------------------------------------------
    def op(self, ok: bool, what: str = "") -> bool:
        """Record one attempted operation (or correctness check)."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what or "operation failed")
        return bool(ok)

    def timed(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` between two probes; append its normalised time to
        sample list ``name`` and its wall time to ``name.raw``."""
        self.probe(force=False)
        start = now()
        result = fn(*args, **kwargs)
        end = now()
        self.probe()
        self.samples[name + ".raw"].append(end - start)
        self.samples[name].append((end - start) * self.speed.factor(start, end))
        return result

    def probe(self, force: bool = True) -> None:
        """Sample the box's speed now (its own row in the trace table)."""
        with self.tracer.span("obs.probe"):
            self.speed.sample(force)

    def scaled(self, full: int, smoke: int) -> int:
        return smoke if self.smoke else full

    # -- metrics -------------------------------------------------------
    def put(self, name: str, value: float, n: int = 1, spread_: float = 0.0):
        self.metrics[name] = {
            "value": float(value), "n": int(n), "spread": float(spread_)
        }

    def put_median(self, name: str, sample: str, scale: float = 1.0) -> float:
        """Metric = :func:`typical` of a sample list (keyed by
        ``<sample>.key`` when the workload recorded keys); left out when
        the list is empty.  Returns the unscaled value."""
        values = self.samples.get(sample) or []
        if not values:
            return 0.0
        value = typical(values, self.samples.get(sample + ".key"))
        self.put(name, value * scale, len(values), spread(values))
        return value

    def put_percentile(self, name: str, sample: str, q: float, scale: float = 1.0):
        values = self.samples.get(sample) or []
        if values:
            self.put(name, percentile(values, q) * scale, len(values),
                     spread(values))

    def put_span(self, name: str, span: str, per: int = 1, scale: float = 1.0):
        """Metric = normalised total of a span name, per ``per`` reps."""
        self.put(name, self.tracer.total(span) * scale / max(1, per),
                 self.tracer.calls(span))

    def put_count(self, name: str):
        self.put(name, self.counts.get(name, 0.0))

    def micro(self, sample: str, fn, repeat: int) -> None:
        """Time ``repeat`` calls of a sub-millisecond ``fn`` one by one
        (no probes in between — they would take longer than the calls)
        and normalise the whole batch by the probes around it."""
        self.probe(force=False)
        start = now()
        raw = []
        for _ in range(repeat):
            t0 = now()
            fn()
            raw.append(now() - t0)
        end = now()
        self.probe()
        factor = self.speed.factor(start, end)
        self.samples[sample].extend(v * factor for v in raw)


def peak_rss_mb() -> float:
    """Peak resident set of this interpreter (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def read_benchmark_json(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)
