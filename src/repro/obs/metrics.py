"""Counters, gauges and fixed-bucket histograms with a default registry.

The histogram is the workhorse: the streaming detector records one
latency sample per inference window, and the profile report summarises
them as p50/p95/p99 against the real-time deadline.  Buckets are fixed at
construction (geometric by default), so memory stays O(buckets) no matter
how long the detector streams — the same discipline an MCU firmware
counter would use.
"""

from __future__ import annotations

import json
import threading
from bisect import bisect_left

import numpy as np

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "default_latency_buckets",
    "load_snapshot",
]

#: Schema version of the metrics-snapshot JSONL files written by
#: :meth:`MetricsRegistry.snapshot_to_jsonl`.
SNAPSHOT_FORMAT = "repro-metrics-snapshot"
SNAPSHOT_VERSION = 1

#: :meth:`Histogram.observe_many` bisects per value up to this many
#: values and bins them with numpy past it: the two numpy calls cost
#: about as much as 16 bisects.
_BISECT_MAX = 16


class Counter:
    """Monotonically increasing count (thread-safe)."""

    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError("counters only go up; use a Gauge instead")
        with self._lock:
            self._value += n

    @property
    def value(self) -> int:
        with self._lock:
            return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0


class Gauge:
    """Last-written value (thread-safe)."""

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

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0


def default_latency_buckets() -> tuple:
    """Geometric edges (×2) from 1e-3 to 1e5 — in ms, that is 1 µs…100 s."""
    edges = []
    edge = 1e-3
    while edge < 1e5:
        edges.append(edge)
        edge *= 2.0
    return tuple(edges)


class Histogram:
    """Fixed-bucket histogram with percentile summaries.

    ``buckets`` is an increasing sequence of upper edges; values above the
    last edge land in an overflow bucket whose percentile estimate is the
    observed maximum.  Percentiles interpolate linearly inside a bucket,
    clamped to the observed min/max so tiny sample counts stay sane.
    """

    def __init__(self, buckets=None):
        edges = tuple(float(b) for b in (buckets or default_latency_buckets()))
        if not edges or any(later <= earlier
                            for later, earlier in zip(edges[1:], edges)):
            raise ValueError("buckets must be strictly increasing and non-empty")
        self.edges = edges
        self._edge_array = None         # built by the first observe_many
        self._lock = threading.Lock()
        self._counts = [0] * (len(edges) + 1)  # +1 = overflow
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._count += 1
            self._sum += value
            self._min = min(self._min, value)
            self._max = max(self._max, value)
            # The first edge >= value; NaN compares False to every edge,
            # so it joins the overflow bucket (bisect would say 0).
            if value == value:
                self._counts[bisect_left(self.edges, value)] += 1
            else:
                self._counts[-1] += 1

    def observe_many(self, values) -> None:
        """:meth:`observe` each of ``values`` in order, under one lock.

        The result is the one the per-value calls give: the same bucket
        counts (NaN in the overflow bucket), count, min and max, and the
        sum accumulated left to right.  Past a few values the buckets
        come from one ``searchsorted`` (which sorts NaN past every edge)
        and one ``bincount``; below that a bisect per value is cheaper.
        """
        seq = (np.asarray(values, dtype=float).ravel().tolist()
               if isinstance(values, np.ndarray)
               else list(map(float, values)))
        if not seq:
            return
        vectorized = len(seq) > _BISECT_MAX
        if vectorized:
            if self._edge_array is None:
                self._edge_array = np.array(self.edges)
            added = np.bincount(np.searchsorted(self._edge_array, seq),
                                minlength=len(self._counts)).tolist()
        with self._lock:
            total, lo, hi = self._sum, self._min, self._max
            for value in seq:
                total += value
                if value < lo:
                    lo = value
                if value > hi:
                    hi = value
            self._sum, self._min, self._max = total, lo, hi
            self._count += len(seq)
            counts = self._counts
            if vectorized:
                self._counts = [a + b for a, b in zip(counts, added)]
            else:
                edges = self.edges
                for value in seq:
                    counts[bisect_left(edges, value) if value == value
                           else -1] += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        """Sum of every observed value."""
        with self._lock:
            return self._sum

    @property
    def mean(self) -> float:
        with self._lock:
            return self._sum / self._count if self._count else 0.0

    def percentile(self, q: float) -> float:
        """Bucket-interpolated percentile; ``q`` in [0, 100]."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"q must be in [0, 100], got {q}")
        with self._lock:
            if self._count == 0:
                return 0.0
            target = q / 100.0 * self._count
            cumulative = 0
            for i, bucket_count in enumerate(self._counts):
                if bucket_count == 0:
                    continue
                if cumulative + bucket_count >= target:
                    if i >= len(self.edges):  # overflow bucket
                        return self._max
                    lower = self.edges[i - 1] if i > 0 else min(self._min, self.edges[i])
                    upper = self.edges[i]
                    frac = (target - cumulative) / bucket_count
                    value = lower + frac * (upper - lower)
                    return min(max(value, self._min), self._max)
                cumulative += bucket_count
            return self._max

    def summary(self) -> dict:
        """count / mean / min / max / p50 / p95 / p99 in one dict."""
        with self._lock:
            count, total = self._count, self._sum
            lo = self._min if count else 0.0
            hi = self._max if count else 0.0
        return {
            "count": count,
            "mean": total / count if count else 0.0,
            "min": lo,
            "max": hi,
            "p50": self.percentile(50.0),
            "p95": self.percentile(95.0),
            "p99": self.percentile(99.0),
        }

    def bucket_counts(self) -> tuple:
        """Raw per-bucket counts, one per edge plus the overflow bucket."""
        with self._lock:
            return tuple(self._counts)

    def cumulative_buckets(self) -> list:
        """Prometheus-style cumulative buckets: ``(upper_edge, count<=edge)``
        pairs, ending with ``(None, total)`` — the ``+Inf`` bucket."""
        with self._lock:
            counts = list(self._counts)
        out, running = [], 0
        for edge, count in zip(self.edges, counts):
            running += count
            out.append((edge, running))
        out.append((None, running + counts[-1]))
        return out

    def snapshot(self) -> dict:
        """:meth:`summary` plus the raw exposition data: ``sum`` and the
        cumulative ``buckets`` (``[upper_edge_or_None, count]`` pairs)."""
        out = self.summary()
        with self._lock:
            out["sum"] = self._sum
        out["buckets"] = [[edge, count]
                          for edge, count in self.cumulative_buckets()]
        return out

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold ``other``'s observations into this histogram (fleet view).

        Both histograms must share identical bucket edges — merging is a
        plain element-wise sum of raw bucket counts, so per-stream latency
        histograms aggregate exactly.  Returns ``self`` for chaining.
        """
        if not isinstance(other, Histogram):
            raise TypeError(f"can only merge Histogram, got "
                            f"{type(other).__name__}")
        if other.edges != self.edges:
            raise ValueError(
                f"bucket edges differ: {len(self.edges)} edges vs "
                f"{len(other.edges)}; merge needs identical buckets"
            )
        with other._lock:
            counts = list(other._counts)
            count, total = other._count, other._sum
            lo, hi = other._min, other._max
        with self._lock:
            for i, c in enumerate(counts):
                self._counts[i] += c
            self._count += count
            self._sum += total
            self._min = min(self._min, lo)
            self._max = max(self._max, hi)
        return self

    @classmethod
    def from_entry(cls, entry: dict) -> "Histogram":
        """Rebuild a histogram from a :meth:`MetricsRegistry.snapshot_to_jsonl`
        entry, so archived per-run snapshots can be merged offline."""
        hist = cls(buckets=entry["edges"])
        counts = entry["counts"]
        if len(counts) != len(hist._counts):
            raise ValueError(
                f"entry has {len(counts)} bucket counts for "
                f"{len(hist.edges)} edges"
            )
        hist._counts = [int(c) for c in counts]
        hist._count = int(entry["count"])
        hist._sum = float(entry["sum"])
        if entry["count"]:
            hist._min = float(entry["min"])
            hist._max = float(entry["max"])
        return hist

    def reset(self) -> None:
        with self._lock:
            self._counts = [0] * (len(self.edges) + 1)
            self._count = 0
            self._sum = 0.0
            self._min = float("inf")
            self._max = float("-inf")


class MetricsRegistry:
    """Named metrics with get-or-create semantics (thread-safe)."""

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: dict[str, object] = {}

    def _get_or_create(self, name: str, cls, factory):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._metrics[name] = factory()
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} is a {type(metric).__name__}, "
                    f"not a {cls.__name__}"
                )
            return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge, Gauge)

    def histogram(self, name: str, buckets=None) -> Histogram:
        return self._get_or_create(
            name, Histogram, lambda: Histogram(buckets=buckets)
        )

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._metrics)

    def metrics(self) -> dict:
        """Name → metric *object* view (sorted copy) for typed consumers
        like the Prometheus exposition renderer."""
        with self._lock:
            metrics = dict(self._metrics)
        return {name: metrics[name] for name in sorted(metrics)}

    def snapshot(self) -> dict:
        """Plain-dict view: counters/gauges → value, histograms → summary
        plus raw cumulative buckets (see :meth:`Histogram.snapshot`)."""
        with self._lock:
            metrics = dict(self._metrics)
        out = {}
        for name in sorted(metrics):
            metric = metrics[name]
            if isinstance(metric, Histogram):
                out[name] = metric.snapshot()
            else:
                out[name] = metric.value
        return out

    def entries(self) -> list:
        """The registry as plain snapshot-entry dicts (sorted by name).

        Same per-metric schema as :meth:`snapshot_to_jsonl` lines — JSON
        and pickle safe, so a worker process can ship its registry across
        a pool boundary without serialising locks; fold them back in with
        :meth:`merge_entries`.
        """
        out = []
        for name, metric in self.metrics().items():
            if isinstance(metric, Histogram):
                with metric._lock:
                    entry = {
                        "name": name,
                        "type": "histogram",
                        "edges": list(metric.edges),
                        "counts": list(metric._counts),
                        "count": metric._count,
                        "sum": metric._sum,
                        "min": metric._min if metric._count else None,
                        "max": metric._max if metric._count else None,
                    }
            elif isinstance(metric, Counter):
                entry = {"name": name, "type": "counter",
                         "value": metric.value}
            else:
                entry = {"name": name, "type": "gauge",
                         "value": metric.value}
            out.append(entry)
        return out

    def merge_entries(self, entries) -> int:
        """Fold snapshot entries (:meth:`entries` / :func:`load_snapshot`
        values) into this registry; returns the number merged.

        Counters add, gauges take the incoming value (last write wins,
        matching :meth:`Gauge.set`), histograms bucket-sum via
        :meth:`Histogram.merge`.  A histogram whose edges differ from an
        existing same-name metric raises ``ValueError`` — that is a naming
        collision, not mergeable data.
        """
        merged = 0
        for entry in entries:
            name, kind = entry["name"], entry["type"]
            if kind == "counter":
                self.counter(name).inc(int(entry["value"]))  # metric-name: dynamic
            elif kind == "gauge":
                self.gauge(name).set(float(entry["value"]))  # metric-name: dynamic
            elif kind == "histogram":
                hist = self.histogram(name, buckets=entry["edges"])  # metric-name: dynamic
                hist.merge(Histogram.from_entry(entry))
            else:
                raise ValueError(f"unknown metric entry type {kind!r}")
            merged += 1
        return merged

    def snapshot_to_jsonl(self, path) -> int:
        """Archive the registry to a versioned JSONL file (atomic write).

        Line 1 is a schema header; every following line is one metric with
        its type and, for histograms, the raw bucket edges/counts needed
        to :meth:`Histogram.merge` runs offline.  Mirrors the trace
        collector's ``export_jsonl``.  Returns the metric count.
        """
        from ..utils import atomic_write

        entries = self.entries()
        with atomic_write(path) as fh:
            fh.write(json.dumps({
                "format": SNAPSHOT_FORMAT,
                "version": SNAPSHOT_VERSION,
                "metrics": len(entries),
            }) + "\n")
            for entry in entries:
                fh.write(json.dumps(entry) + "\n")
        return len(entries)

    def reset(self) -> None:
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            metric.reset()

    def clear(self) -> None:
        with self._lock:
            self._metrics.clear()


def load_snapshot(path) -> dict:
    """Read a file written by :meth:`MetricsRegistry.snapshot_to_jsonl`.

    Validates the schema header (clear errors on a foreign or
    newer-version file, like ``datasets.load_dataset``) and returns
    ``{name: entry}`` where each entry carries its ``type`` plus the raw
    values; rebuild histograms with :meth:`Histogram.from_entry`.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line for line in (raw.strip() for raw in fh) if line]
    if not lines:
        raise ValueError(f"{path}: empty file, not a metrics snapshot")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: header is not JSON: {exc}") from None
    if not isinstance(header, dict) or header.get("format") != SNAPSHOT_FORMAT:
        raise ValueError(
            f"{path}: not a {SNAPSHOT_FORMAT} file "
            f"(header {header!r})"
        )
    version = header.get("version")
    if version != SNAPSHOT_VERSION:
        raise ValueError(
            f"{path}: snapshot version {version!r} "
            f"(this build reads version {SNAPSHOT_VERSION}); "
            f"re-archive with the current code"
        )
    out: dict = {}
    for lineno, line in enumerate(lines[1:], start=2):
        entry = json.loads(line)
        if "name" not in entry or entry.get("type") not in (
                "counter", "gauge", "histogram"):
            raise ValueError(
                f"{path}:{lineno}: malformed metric entry {entry!r}"
            )
        out[entry["name"]] = entry
    declared = header.get("metrics")
    if declared is not None and declared != len(out):
        raise ValueError(
            f"{path}: header declares {declared} metrics, found {len(out)} "
            f"(truncated file?)"
        )
    return out


_DEFAULT = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _DEFAULT
