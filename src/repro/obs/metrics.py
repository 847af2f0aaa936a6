"""Counters, gauges and histograms for the symbolic pipeline.

The BDD managers keep their own always-on integer counters (memo hits
and misses are too hot for any indirection; they reach reports through
:meth:`repro.mso.compile.CompilationStats.capture_manager`).  This
registry covers everything above that layer: distributions of
intermediate automaton sizes, projection fan-outs, per-phase counts —
measurements that are only interesting when someone asked for them.

Mirrors :mod:`repro.obs.trace`: a process-wide active registry
defaulting to :data:`NULL_REGISTRY`, whose metric handles are shared
no-op objects, so instrumentation can stay in the code unconditionally.

Example:
    >>> registry = MetricsRegistry()
    >>> with activate_metrics(registry):
    ...     current_metrics().counter("products").inc()
    ...     current_metrics().histogram("states").observe(12)
    >>> registry.counter("products").value
    1
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, Optional


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def merge(self, other: "Counter") -> None:
        """Counters accumulate: the merged count is the sum."""
        self.value += other.value

    def to_dict(self) -> Dict[str, object]:
        return {"type": "counter", "value": self.value}


class Gauge:
    """A point-in-time value, with a running maximum."""

    __slots__ = ("name", "value", "max_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0
        self.max_value = 0

    def set(self, value) -> None:
        self.value = value
        if value > self.max_value:
            self.max_value = value

    def merge(self, other: "Gauge") -> None:
        """Gauges merge by maximum — the max-over-subgoals rule the
        ``verify.tracks_*`` gauges follow, so a merged view reports
        the same number a single-process run would."""
        if other.value > self.value:
            self.value = other.value
        if other.max_value > self.max_value:
            self.max_value = other.max_value

    def to_dict(self) -> Dict[str, object]:
        return {"type": "gauge", "value": self.value,
                "max": self.max_value}


class Histogram:
    """A distribution over non-negative values.

    Buckets are powers of two (bucket ``k`` counts observations
    ``2^(k-1) < v <= 2^k``, bucket 0 counts ``v <= 1``), which suits
    the quantities measured here — state counts, node counts, formula
    sizes — whose interesting structure is their order of magnitude.
    """

    __slots__ = ("name", "count", "total", "minimum", "maximum",
                 "buckets")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None
        self.buckets: Dict[int, int] = {}

    def observe(self, value) -> None:
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value
        bucket = max(0, int(value) - 1).bit_length()
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1

    def merge(self, other: "Histogram") -> None:
        """Histograms merge as if every observation had been made on
        this one: counts, totals and buckets sum; min/max combine."""
        self.count += other.count
        self.total += other.total
        if other.minimum is not None and (self.minimum is None
                                          or other.minimum < self.minimum):
            self.minimum = other.minimum
        if other.maximum is not None and (self.maximum is None
                                          or other.maximum > self.maximum):
            self.maximum = other.maximum
        for bucket, count in other.buckets.items():
            self.buckets[bucket] = self.buckets.get(bucket, 0) + count

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "type": "histogram", "count": self.count,
            "total": self.total, "min": self.minimum,
            "max": self.maximum, "mean": self.mean,
            # JSON object keys must be strings; "le_2^k" is the
            # bucket's inclusive upper bound.
            "buckets": {f"le_2^{k}": self.buckets[k]
                        for k in sorted(self.buckets)},
        }


class MetricsRegistry:
    """Creates-on-first-use registry of named metrics.

    Handle creation, merging and export are guarded by one reentrant
    lock (a merge creates handles) so the registry can be shared
    between threads (the serving daemon's dispatcher, request
    handlers and stats endpoint all touch the same registry).  The
    individual metric operations (``inc``, ``set``, ``observe``) stay
    lock-free — they are single bytecode read-modify-writes on the
    hot path.
    """

    enabled = True

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._lock = threading.RLock()

    def __getstate__(self) -> Dict[str, object]:
        # Locks cannot cross the worker process boundary; the reply
        # envelope ships the metric tables only.
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self._lock = threading.RLock()

    def counter(self, name: str) -> Counter:
        found = self._counters.get(name)
        if found is None:
            with self._lock:
                found = self._counters.setdefault(name, Counter(name))
        return found

    def gauge(self, name: str) -> Gauge:
        found = self._gauges.get(name)
        if found is None:
            with self._lock:
                found = self._gauges.setdefault(name, Gauge(name))
        return found

    def histogram(self, name: str) -> Histogram:
        found = self._histograms.get(name)
        if found is None:
            with self._lock:
                found = self._histograms.setdefault(name,
                                                    Histogram(name))
        return found

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry into this one, metric by metric:
        counters sum, gauges take maxima, histograms accumulate."""
        with self._lock:
            for name, counter in other._counters.items():
                self.counter(name).merge(counter)
            for name, gauge in other._gauges.items():
                self.gauge(name).merge(gauge)
            for name, histogram in other._histograms.items():
                self.histogram(name).merge(histogram)

    def to_dict(self) -> Dict[str, object]:
        """All metrics, name-sorted, JSON-ready."""
        merged: Dict[str, object] = {}
        with self._lock:
            for table in (self._counters, self._gauges,
                          self._histograms):
                for name, metric in table.items():
                    merged[name] = metric.to_dict()
        return {name: merged[name] for name in sorted(merged)}


class _NullCounter:
    __slots__ = ()
    value = 0

    def inc(self, amount: int = 1) -> None:
        pass


class _NullGauge:
    __slots__ = ()
    value = 0
    max_value = 0

    def set(self, value) -> None:
        pass


class _NullHistogram:
    __slots__ = ()
    count = 0

    def observe(self, value) -> None:
        pass


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()


class _NullRegistry:
    """The disabled sink: all handles are shared no-op metrics."""

    enabled = False

    def counter(self, name: str) -> _NullCounter:
        return _NULL_COUNTER

    def gauge(self, name: str) -> _NullGauge:
        return _NULL_GAUGE

    def histogram(self, name: str) -> _NullHistogram:
        return _NULL_HISTOGRAM

    def merge(self, other) -> None:
        pass

    def to_dict(self) -> Dict[str, object]:
        return {}


NULL_REGISTRY = _NullRegistry()

_ACTIVE = NULL_REGISTRY


def current_metrics():
    """The active registry (the null sink when metrics are off)."""
    return _ACTIVE


def set_metrics(registry) -> None:
    """Install ``registry`` (or the null sink for ``None``) globally."""
    global _ACTIVE
    _ACTIVE = registry if registry is not None else NULL_REGISTRY


@contextmanager
def activate_metrics(registry):
    """Install ``registry`` for the duration of a ``with`` block."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = registry if registry is not None else NULL_REGISTRY
    try:
        yield registry
    finally:
        _ACTIVE = previous
