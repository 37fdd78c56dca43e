"""Labelled metrics: counters, gauges and log-bucketed histograms.

The tracer (:mod:`repro.obs.tracer`) answers "when did what happen"; this
module answers "how much, in total" — the quantities a perf-regression
gate can diff between two runs.  A :class:`MetricRegistry` holds named,
labelled instruments:

* :class:`Counter` — monotonically increasing totals (simulated seconds
  per execution phase, bytes exchanged, faults recovered);
* :class:`Gauge` — last-written values (graph structure counts, peak
  tile bytes, final loss/accuracy);
* :class:`Histogram` — value distributions over **fixed log-spaced
  buckets**, so two runs' histograms are always bucket-compatible.

Like the tracer, the installed registry is read with
:func:`get_registry` and installed for a ``with`` block with
:func:`collecting`; the default is :data:`NULL_REGISTRY`, a
``MetricRegistry(enabled=False)`` whose instruments are one shared
no-op, so instrumented code costs one attribute check when metrics are
off.  Snapshots order deterministically by (name, sorted labels), which
keeps run manifests diffable (:mod:`repro.obs.regress`).
"""

from __future__ import annotations

import math
from typing import ContextManager

from repro.obs.context import Ambient

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "NULL_REGISTRY",
    "log_bucket_edges",
    "get_registry",
    "collecting",
]


def log_bucket_edges(
    lo: float, hi: float, per_decade: int = 3
) -> tuple[float, ...]:
    """Fixed log-spaced bucket edges covering ``[lo, hi]``.

    Edges are ``10**(k / per_decade)`` for every k whose edge lies in
    ``[lo, hi]`` (inclusive, to float tolerance), so any two histograms
    built from the same (lo, hi, per_decade) triple share exact edges.
    """
    if not (lo > 0 and hi > lo):
        raise ValueError(f"need 0 < lo < hi, got lo={lo}, hi={hi}")
    if per_decade <= 0:
        raise ValueError(f"per_decade must be positive, got {per_decade}")
    k_lo = math.ceil(round(math.log10(lo) * per_decade, 9))
    k_hi = math.floor(round(math.log10(hi) * per_decade, 9))
    return tuple(10.0 ** (k / per_decade) for k in range(k_lo, k_hi + 1))


#: Default histogram edges: 1 us .. 100 s, 3 buckets per decade
#: (the span of every simulated/wall duration the simulators produce).
DEFAULT_SECONDS_EDGES = log_bucket_edges(1e-6, 1e2, per_decade=3)

#: Byte-scale edges: 64 B .. 1 GiB in powers of four (exact floats, so
#: bucket assignment is platform-independent for integer byte counts).
DEFAULT_BYTES_EDGES = tuple(float(64 * 4**k) for k in range(13))


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only increase, got {amount}")
        self.value += amount

    def snapshot_value(self) -> dict:
        return {"value": self.value}


class Gauge:
    """A last-written value."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def snapshot_value(self) -> dict:
        return {"value": self.value}


class Histogram:
    """A distribution over fixed bucket edges.

    Bucket semantics: value ``v`` lands in the first bucket whose upper
    edge satisfies ``v <= edge``; a value exactly on an edge therefore
    belongs to the bucket that edge closes.  Values below ``edges[0]``
    (zero and negatives included) land in bucket 0; values above
    ``edges[-1]`` (``inf`` included) land in the overflow bucket, so
    ``len(bucket_counts) == len(edges) + 1`` and no observation is ever
    dropped.
    """

    __slots__ = ("edges", "bucket_counts", "count", "sum", "min", "max")
    kind = "histogram"

    def __init__(self, edges: tuple[float, ...] | None = None) -> None:
        edges = tuple(edges) if edges is not None else DEFAULT_SECONDS_EDGES
        if len(edges) < 1 or any(
            a >= b for a, b in zip(edges, edges[1:])
        ):
            raise ValueError("edges must be strictly increasing, non-empty")
        self.edges = edges
        self.bucket_counts = [0] * (len(edges) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def _bucket_index(self, value: float) -> int:
        # First edge >= value closes this value's bucket (v <= edge).
        lo, hi = 0, len(self.edges)
        while lo < hi:
            mid = (lo + hi) // 2
            if self.edges[mid] < value:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def observe(self, value: float) -> None:
        value = float(value)
        self.bucket_counts[self._bucket_index(value)] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def observe_many(self, values) -> None:
        """Observe an iterable (or numpy array) of values."""
        for value in values:
            self.observe(value)

    def snapshot_value(self) -> dict:
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "edges": list(self.edges),
            "bucket_counts": list(self.bucket_counts),
        }


class _NullInstrument:
    """Shared no-op instrument: accepts every call, records nothing."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        return None

    def set(self, value: float) -> None:
        return None

    def observe(self, value: float) -> None:
        return None

    def observe_many(self, values) -> None:
        return None


_NULL_INSTRUMENT = _NullInstrument()


def _label_key(labels: dict) -> tuple[tuple[str, str], ...]:
    """Canonical (sorted, stringified) identity of a label set."""
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class MetricRegistry:
    """Holds labelled instruments; snapshot order is deterministic.

    Instruments are created on first use and identified by
    ``(name, sorted labels)``, so ``registry.counter("x", kind="a")``
    always returns the same :class:`Counter` regardless of keyword
    order.  Requesting an existing name with a different instrument
    type raises — one name, one type, any number of label sets.

    With ``enabled=False`` (the :data:`NULL_REGISTRY` singleton) every
    instrument is the shared no-op, so the registry never holds state.
    """

    def __init__(self, *, enabled: bool = True) -> None:
        self.enabled = enabled
        self._metrics: dict[tuple, object] = {}
        self._types: dict[str, type] = {}

    def _get(self, cls: type, name: str, labels: dict, *args):
        if not self.enabled:
            return _NULL_INSTRUMENT
        known = self._types.get(name)
        if known is not None and known is not cls:
            raise TypeError(
                f"metric {name!r} is a {known.kind}, not a {cls.kind}"
            )
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(*args)
            self._metrics[key] = metric
            self._types[name] = cls
        return metric

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        edges: tuple[float, ...] | None = None,
        **labels,
    ) -> Histogram:
        return self._get(Histogram, name, labels, edges)

    def snapshot(self) -> list[dict]:
        """All instruments as JSON-ready dicts, deterministically ordered.

        Sorted by (name, sorted label items); each entry carries
        ``name``, ``type``, ``labels`` and the instrument's value fields
        (``value`` for counters/gauges; count/sum/min/max/edges/
        bucket_counts for histograms).
        """
        entries = []
        for (name, label_key), metric in sorted(
            self._metrics.items(), key=lambda kv: kv[0]
        ):
            entry = {
                "name": name,
                "type": metric.kind,
                "labels": dict(label_key),
            }
            entry.update(metric.snapshot_value())
            entries.append(entry)
        return entries

    def merge_snapshot(self, entries: list[dict]) -> None:
        """Fold a :meth:`snapshot` from another registry into this one.

        The parallel experiment runner (:mod:`repro.bench.parallel`) uses
        this to aggregate worker-process metrics: counters add, gauges
        take the incoming value (workers are merged in deterministic
        config order, so "last write" is well-defined), histograms add
        bucket counts — which requires identical edges, guaranteed for
        snapshots produced by the same instrumented code.
        """
        if not self.enabled:
            return
        for entry in entries:
            labels = dict(entry.get("labels", {}))
            kind = entry["type"]
            if kind == "counter":
                self.counter(entry["name"], **labels).inc(entry["value"])
            elif kind == "gauge":
                self.gauge(entry["name"], **labels).set(entry["value"])
            elif kind == "histogram":
                edges = tuple(entry["edges"])
                hist = self.histogram(entry["name"], edges=edges, **labels)
                if hist.edges != edges:
                    raise ValueError(
                        f"histogram {entry['name']!r} edge mismatch: "
                        f"cannot merge {edges} into {hist.edges}"
                    )
                for i, n in enumerate(entry["bucket_counts"]):
                    hist.bucket_counts[i] += n
                hist.count += entry["count"]
                hist.sum += entry["sum"]
                if entry["count"]:
                    hist.min = min(hist.min, entry["min"])
                    hist.max = max(hist.max, entry["max"])
            else:
                raise ValueError(f"unknown metric type {kind!r}")


#: The module-level singleton installed when metrics are off.
NULL_REGISTRY = MetricRegistry(enabled=False)

_REGISTRY: Ambient[MetricRegistry] = Ambient(NULL_REGISTRY)

#: The currently installed registry (the null registry by default).
get_registry = _REGISTRY.get


def collecting(
    registry: MetricRegistry | None = None,
) -> ContextManager[MetricRegistry]:
    """Install a metric registry for the duration of a ``with`` block.

    Creates a fresh :class:`MetricRegistry` unless one is supplied;
    restores the previously installed registry on exit (exception-safe),
    mirroring :func:`repro.obs.tracer.tracing`.
    """
    return _REGISTRY.use(
        registry if registry is not None else MetricRegistry()
    )
