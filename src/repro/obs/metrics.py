"""A zero-dependency, thread-safe metrics registry.

Three instrument kinds, modeled on the Prometheus data model:

:class:`Counter`
    A monotone float (``inc``); negative increments are rejected.
:class:`Gauge`
    A float that is written whole (``set``).
:class:`Histogram`
    Fixed upper-bound buckets, plus ``sum`` and ``count``; quantiles are
    estimated from the bucket counts (``quantile(0.99)`` returns the
    upper bound of the bucket holding the requested rank — the standard
    fixed-bucket estimate, exact enough for dashboards and stats()).

Instruments are created through a :class:`MetricsRegistry` as *families*
with a fixed label-name tuple; ``family.labels(x="a")`` returns (and
memoizes) the child instrument for that label set.  Label-less families
proxy ``inc``/``set``/``observe`` straight to their single child.

Cardinality guardrail: each family holds at most
``registry.max_series_per_metric`` distinct label sets.  Beyond that,
new label sets collapse into one shared overflow series (every label
value ``"_other_"``) and the family's ``overflowed`` count rises — an
unbounded label (say, a table name) degrades gracefully instead of
growing the registry without limit.

Everything is safe under concurrent writers: each child guards its own
state with a lock, and :meth:`MetricsRegistry.snapshot` reads a
consistent copy of every series.
"""

from __future__ import annotations

import json
import math
import re
import threading
from typing import Any, Dict, List, Optional, Tuple


class MetricsError(ValueError):
    """Invalid metric/label name, kind mismatch, or bad value."""


_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram buckets (seconds-oriented, Prometheus-style).
DEFAULT_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Label value every overflowed series collapses into.
OVERFLOW_LABEL = "_other_"


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("_lock", "_value")

    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise MetricsError(f"counter increment must be >= 0, got {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """A value that is set, not accumulated."""

    __slots__ = ("_lock", "_value")

    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Fixed-bucket distribution of observed values."""

    __slots__ = ("_lock", "_bounds", "_counts", "_sum", "_count")

    def __init__(self, buckets=DEFAULT_BUCKETS):
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise MetricsError("histogram needs at least one bucket bound")
        if len(set(bounds)) != len(bounds):
            raise MetricsError(f"duplicate histogram bucket bounds: {buckets}")
        if any(math.isinf(b) or math.isnan(b) for b in bounds):
            raise MetricsError("bucket bounds must be finite (+Inf is implicit)")
        self._lock = threading.Lock()
        self._bounds = bounds
        # One slot per finite bound plus the implicit +Inf overflow slot;
        # counts are per-bucket (non-cumulative) internally.
        self._counts = [0] * (len(bounds) + 1)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        index = len(self._bounds)
        for i, bound in enumerate(self._bounds):
            if value <= bound:
                index = i
                break
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def state(self):
        """Consistent ``(bounds, per-bucket counts, sum, count)`` copy."""
        with self._lock:
            return self._bounds, list(self._counts), self._sum, self._count

    def quantile(self, q: float) -> float:
        """Bucket-based quantile estimate (0.0 when nothing observed).

        Returns the upper bound of the bucket containing the requested
        rank; observations beyond the last finite bound report that
        bound (the estimate saturates, it never invents +Inf).
        """
        if not 0.0 <= q <= 1.0:
            raise MetricsError(f"quantile must be in [0, 1], got {q}")
        bounds, counts, _total, count = self.state()
        if count == 0:
            return 0.0
        rank = q * count
        cumulative = 0
        for i, bound in enumerate(bounds):
            cumulative += counts[i]
            if cumulative >= rank:
                return bound
        return bounds[-1]


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """One named metric with a fixed label-name tuple and N children."""

    def __init__(self, registry, name, kind, help_text, label_names, buckets):
        self.registry = registry
        self.name = name
        self.kind = kind
        self.help = help_text
        self.label_names = tuple(label_names)
        self._buckets = buckets
        self._lock = threading.Lock()
        # label-value tuple -> instrument
        self._children: Dict[Tuple[str, ...], Any] = {}
        self.overflowed = 0  # label sets collapsed into the overflow series
        if not self.label_names:
            # Label-less families always expose their single series, so
            # exposition covers every registered metric even before the
            # first write.
            self.labels()

    def _make(self):
        if self.kind == "histogram":
            return Histogram(self._buckets)
        return _KINDS[self.kind]()

    def labels(self, **labels):
        """The child instrument for one label set (created on demand)."""
        if set(labels) != set(self.label_names):
            raise MetricsError(
                f"metric {self.name!r} takes labels {list(self.label_names)}, "
                f"got {sorted(labels)}"
            )
        key = tuple(str(labels[name]) for name in self.label_names)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                if (
                    self.label_names
                    and len(self._children) >= self.registry.max_series_per_metric
                ):
                    # Cardinality guardrail: collapse into one shared
                    # overflow series instead of growing without bound.
                    self.overflowed += 1
                    overflow = (OVERFLOW_LABEL,) * len(self.label_names)
                    child = self._children.get(overflow)
                    if child is None:
                        child = self._children[overflow] = self._make()
                    return child
                child = self._children[key] = self._make()
            return child

    # Label-less convenience: the family is its own single instrument.
    def inc(self, amount: float = 1.0) -> None:
        self.labels().inc(amount)

    def set(self, value: float) -> None:
        self.labels().set(value)

    def observe(self, value: float) -> None:
        self.labels().observe(value)

    @property
    def value(self) -> float:
        return self.labels().value

    def quantile(self, q: float) -> float:
        return self.labels().quantile(q)

    def state(self):
        return self.labels().state()

    def series(self):
        """``[(label-value tuple, instrument)]`` snapshot, sorted."""
        with self._lock:
            return sorted(self._children.items())


class MetricsRegistry:
    """A process-local collection of metric families.

    ``counter``/``gauge``/``histogram`` are get-or-create: asking twice
    for the same name returns the same family (and raises
    :class:`MetricsError` if the kind or labels differ — one name, one
    meaning).  ``max_series_per_metric`` caps per-family label
    cardinality (see module docstring).
    """

    def __init__(self, max_series_per_metric: int = 256):
        if max_series_per_metric < 1:
            raise MetricsError(
                f"max_series_per_metric must be >= 1, got {max_series_per_metric}"
            )
        self.max_series_per_metric = int(max_series_per_metric)
        self._lock = threading.Lock()
        self._families: Dict[str, MetricFamily] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def _family(self, name, kind, help_text, labels, buckets=None):
        if not _NAME_RE.match(name or ""):
            raise MetricsError(f"invalid metric name {name!r}")
        labels = tuple(labels)
        for label in labels:
            if not _LABEL_RE.match(label or ""):
                raise MetricsError(f"invalid label name {label!r} on {name!r}")
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if family.kind != kind or family.label_names != labels:
                    raise MetricsError(
                        f"metric {name!r} already registered as "
                        f"{family.kind} with labels {list(family.label_names)}"
                    )
                return family
            family = MetricFamily(self, name, kind, help_text, labels, buckets)
            self._families[name] = family
            return family

    def counter(self, name, help="", labels=()) -> MetricFamily:
        return self._family(name, "counter", help, labels)

    def gauge(self, name, help="", labels=()) -> MetricFamily:
        return self._family(name, "gauge", help, labels)

    def histogram(
        self, name, help="", labels=(), buckets=DEFAULT_BUCKETS
    ) -> MetricFamily:
        return self._family(name, "histogram", help, labels, buckets=buckets)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def get(self, name) -> Optional[MetricFamily]:
        with self._lock:
            return self._families.get(name)

    def names(self) -> list:
        with self._lock:
            return sorted(self._families)

    def value(self, name, **labels) -> float:
        """Current value of one counter/gauge series (0.0 when the
        family or series does not exist — absent means never touched)."""
        family = self.get(name)
        if family is None:
            return 0.0
        key = tuple(str(labels.get(n, "")) for n in family.label_names)
        for values, instrument in family.series():
            if values == key:
                return instrument.value
        return 0.0

    def snapshot(self) -> dict:
        """JSON-safe view of every family and series.

        Histogram series carry cumulative bucket counts plus ``p50``,
        ``p95``, and ``p99`` bucket-estimates, so consumers (and
        ``engine.stats()``) never re-derive quantiles.
        """
        with self._lock:
            families = list(self._families.values())
        out: Dict[str, Any] = {}
        for family in sorted(families, key=lambda f: f.name):
            series: List[Dict[str, Any]] = []
            for values, instrument in family.series():
                labels = dict(zip(family.label_names, values, strict=True))
                if family.kind == "histogram":
                    bounds, counts, total, count = instrument.state()
                    cumulative: Dict[str, int] = {}
                    running = 0
                    for bound, bucket_count in zip(bounds, counts, strict=False):
                        running += bucket_count
                        cumulative[_format_bound(bound)] = running
                    cumulative["+Inf"] = count
                    series.append(
                        {
                            "labels": labels,
                            "count": count,
                            "sum": total,
                            "buckets": cumulative,
                            "p50": instrument.quantile(0.50),
                            "p95": instrument.quantile(0.95),
                            "p99": instrument.quantile(0.99),
                        }
                    )
                else:
                    series.append({"labels": labels, "value": instrument.value})
            out[family.name] = {
                "type": family.kind,
                "help": family.help,
                "label_names": list(family.label_names),
                "overflowed": family.overflowed,
                "series": series,
            }
        return out

    def to_json(self, indent=None) -> str:
        """The :meth:`snapshot` as a JSON document."""
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def to_prometheus(self) -> str:
        """Prometheus text exposition (version 0.0.4) of every family."""
        lines: List[str] = []
        for name, family in sorted(self.snapshot().items()):
            if family["help"]:
                lines.append(f"# HELP {name} {_escape_help(family['help'])}")
            lines.append(f"# TYPE {name} {family['type']}")
            for series in family["series"]:
                labels = series["labels"]
                if family["type"] == "histogram":
                    for bound, count in series["buckets"].items():
                        lines.append(
                            f"{name}_bucket"
                            f"{_label_text({**labels, 'le': bound})} {count}"
                        )
                    lines.append(
                        f"{name}_sum{_label_text(labels)} "
                        f"{_format_value(series['sum'])}"
                    )
                    lines.append(
                        f"{name}_count{_label_text(labels)} {series['count']}"
                    )
                else:
                    lines.append(
                        f"{name}{_label_text(labels)} "
                        f"{_format_value(series['value'])}"
                    )
        return "\n".join(lines) + "\n"


def _format_bound(bound: float) -> str:
    """Bucket bound as Prometheus writes it (integral bounds bare)."""
    if bound == int(bound):
        return str(int(bound))
    return repr(bound)


def _format_value(value: float) -> str:
    if isinstance(value, float) and value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_help(text: str) -> str:
    return text.replace("\\", r"\\").replace("\n", r"\n")


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", r"\\").replace("\n", r"\n").replace('"', r"\"")
    )


def _label_text(labels: dict) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label(str(value))}"'
        for name, value in labels.items()
    )
    return "{" + inner + "}"
