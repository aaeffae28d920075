"""Process-wide metrics registry: counters, gauges, histograms with labels.

The registry is dependency-free and always functional when instantiated
directly — subsystems that need exact, always-on accounting (NoiseMemo,
ResultCache, the campaign runner) own a private ``MetricsRegistry`` and
expose their legacy result-dict surfaces as thin views over it.  The
*global* registry lives on the observability session (`repro.obs.state`)
and only exists while observability is enabled, so the disabled path
allocates nothing.

Instruments are identified by ``(name, labels)``; labels are keyword
arguments canonicalised into a sorted tuple, so
``registry.counter("plan.runs", mode="fixed")`` always
resolves to the same instrument.  Snapshots are plain JSON-able dicts
and can be merged back into another registry — that is how ProcessPool
campaign workers ship their measurements to the driver.
"""

from __future__ import annotations

import threading
from typing import Iterable, Mapping


def _canonical_labels(labels: Mapping[str, object]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def format_metric_name(name: str, labels: Iterable[tuple[str, str]]) -> str:
    """Render ``name{k=v,...}`` for human-facing tables and flat exports."""

    label_items = tuple(labels)
    if not label_items:
        return name
    body = ",".join(f"{key}={value}" for key, value in label_items)
    return f"{name}{{{body}}}"


class Counter:
    """Monotonically increasing count of events."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...] = ()):
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only move forward; use a gauge instead")
        self.value += amount


class Gauge:
    """Last-observed value of a quantity (set, not accumulated)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...] = ()):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Streaming summary (count/total/min/max) of observed values.

    Bucket boundaries are deliberately omitted: every consumer in this
    repo wants totals and means (span durations, job times), and a
    four-field summary merges across processes without bucket-alignment
    headaches.
    """

    __slots__ = ("name", "labels", "count", "total", "minimum", "maximum")

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...] = ()):
        self.name = name
        self.labels = labels
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")

    def record(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class MetricsRegistry:
    """A keyed collection of counters, gauges, and histograms."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[tuple, Counter] = {}
        self._gauges: dict[tuple, Gauge] = {}
        self._histograms: dict[tuple, Histogram] = {}

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    def counter(self, name: str, **labels: object) -> Counter:
        key = (name, _canonical_labels(labels))
        instrument = self._counters.get(key)
        if instrument is None:
            with self._lock:
                instrument = self._counters.setdefault(key, Counter(name, key[1]))
        return instrument

    def gauge(self, name: str, **labels: object) -> Gauge:
        key = (name, _canonical_labels(labels))
        instrument = self._gauges.get(key)
        if instrument is None:
            with self._lock:
                instrument = self._gauges.setdefault(key, Gauge(name, key[1]))
        return instrument

    def histogram(self, name: str, **labels: object) -> Histogram:
        key = (name, _canonical_labels(labels))
        instrument = self._histograms.get(key)
        if instrument is None:
            with self._lock:
                instrument = self._histograms.setdefault(key, Histogram(name, key[1]))
        return instrument

    def count_of(self, name: str, **labels: object) -> int:
        """Current value of a counter, 0 when it was never incremented."""

        key = (name, _canonical_labels(labels))
        instrument = self._counters.get(key)
        return instrument.value if instrument is not None else 0

    def snapshot(self) -> dict:
        """JSON-able structured dump of every instrument."""

        with self._lock:
            counters = [
                {"name": c.name, "labels": dict(c.labels), "value": c.value}
                for c in self._counters.values()
            ]
            gauges = [
                {"name": g.name, "labels": dict(g.labels), "value": g.value}
                for g in self._gauges.values()
            ]
            histograms = [
                {
                    "name": h.name,
                    "labels": dict(h.labels),
                    "count": h.count,
                    "total": h.total,
                    "min": h.minimum if h.count else None,
                    "max": h.maximum if h.count else None,
                }
                for h in self._histograms.values()
            ]
        return {"counters": counters, "gauges": gauges, "histograms": histograms}

    def merge(self, snapshot: Mapping[str, list]) -> None:
        """Fold a :meth:`snapshot` from another registry into this one.

        Counters and histograms accumulate; gauges take the incoming
        value (last write wins), matching what a worker hand-off means.
        """

        for entry in snapshot.get("counters", ()):
            self.counter(entry["name"], **entry["labels"]).inc(entry["value"])
        for entry in snapshot.get("gauges", ()):
            self.gauge(entry["name"], **entry["labels"]).set(entry["value"])
        for entry in snapshot.get("histograms", ()):
            histogram = self.histogram(entry["name"], **entry["labels"])
            if not entry["count"]:
                continue
            histogram.count += entry["count"]
            histogram.total += entry["total"]
            if entry["min"] is not None and entry["min"] < histogram.minimum:
                histogram.minimum = entry["min"]
            if entry["max"] is not None and entry["max"] > histogram.maximum:
                histogram.maximum = entry["max"]

    def flattened(self) -> dict[str, object]:
        """Flat ``{"name{k=v}": value}`` view used by exporters."""

        snapshot = self.snapshot()
        flat: dict[str, object] = {}
        for entry in snapshot["counters"]:
            flat[format_metric_name(entry["name"], sorted(entry["labels"].items()))] = entry["value"]
        for entry in snapshot["gauges"]:
            flat[format_metric_name(entry["name"], sorted(entry["labels"].items()))] = entry["value"]
        for entry in snapshot["histograms"]:
            key = format_metric_name(entry["name"], sorted(entry["labels"].items()))
            flat[key] = {
                "count": entry["count"],
                "total": entry["total"],
                "min": entry["min"],
                "max": entry["max"],
            }
        return dict(sorted(flat.items()))
