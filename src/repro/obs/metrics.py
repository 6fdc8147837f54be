"""Metrics registry: counters, gauges, and fixed-bucket histograms.

Instrumentation hooks across the simulator (kernel, faults, retries,
network substrate, C&C servers, malware drivers) update one
:class:`MetricsRegistry` owned by the kernel.  Three properties make it
fit the Monte-Carlo sweep engine:

* **Deterministic** — no wall-clock, no randomness; two seeded runs
  produce identical snapshots.
* **Process-boundary safe** — :meth:`MetricsRegistry.snapshot` reduces
  everything to sorted primitive dicts, which is what sweep replicas
  ship home.
* **Mergeable** — :func:`merge_snapshots` combines snapshots so that
  merging equals observing the union of the underlying events, in any
  order (counters and histogram cells add; gauges take the max).
"""

import bisect

#: Default histogram bounds: powers-of-two-ish coverage from single
#: events to the tens of thousands a full Aramco-scale run produces.
DEFAULT_BUCKETS = (1.0, 2.0, 5.0, 10.0, 50.0, 100.0, 500.0, 1000.0,
                   10000.0)

#: Virtual-day bounds for "infections over time" style histograms.
DAY_BUCKETS = (1.0, 2.0, 3.0, 7.0, 14.0, 30.0, 90.0, 180.0, 365.0)

#: Byte-size bounds for payload/upload histograms.
BYTE_BUCKETS = (256.0, 1024.0, 4096.0, 16384.0, 65536.0, 262144.0,
                1048576.0)

_INF = float("inf")


def _finite(metric, value):
    """``value``, or a ``ValueError`` naming ``metric`` if it is NaN or
    infinite (written so NaN fails too: it compares False)."""
    if not -_INF < value < _INF:
        raise ValueError("%s %r takes finite values, got %r"
                         % (metric.kind, metric.name, value))
    return value


class Counter:
    """A monotonically non-decreasing count."""

    __slots__ = ("name", "value")

    kind = "counter"

    def __init__(self, name):
        self.name = name
        self.value = 0

    def inc(self, amount=1):
        # Written so NaN fails too: it compares False against anything.
        if not 0 <= amount < _INF:
            raise ValueError("counter %r takes a finite non-negative "
                             "amount, got %r" % (self.name, amount))
        self.value += amount
        return self.value

    def as_dict(self):
        return {"type": self.kind, "value": self.value}

    def __repr__(self):
        return "Counter(%r=%r)" % (self.name, self.value)


class Gauge:
    """A value that can move both ways (pending entries, live hosts)."""

    __slots__ = ("name", "value")

    kind = "gauge"

    def __init__(self, name):
        self.name = name
        self.value = 0

    # inc/dec check the new value, which a non-finite amount makes
    # non-finite too.
    def set(self, value):
        self.value = _finite(self, value)
        return self.value

    def inc(self, amount=1):
        self.value = _finite(self, self.value + amount)
        return self.value

    def dec(self, amount=1):
        self.value = _finite(self, self.value - amount)
        return self.value

    def as_dict(self):
        return {"type": self.kind, "value": self.value}

    def __repr__(self):
        return "Gauge(%r=%r)" % (self.name, self.value)


class Histogram:
    """Fixed-bucket histogram (Prometheus-style, cumulative on export).

    ``bounds`` are the inclusive upper edges; one implicit overflow
    bucket catches everything above the last bound.  Counts are stored
    per bucket (not cumulative) so merging is element-wise addition.
    """

    __slots__ = ("name", "bounds", "counts", "sum", "count")

    kind = "histogram"

    def __init__(self, name, bounds=DEFAULT_BUCKETS):
        bounds = tuple(float(b) for b in bounds)
        if not bounds:
            raise ValueError("histogram %r needs at least one bound" % name)
        if list(bounds) != sorted(set(bounds)):
            raise ValueError("histogram %r bounds must be strictly "
                             "increasing: %r" % (name, bounds))
        self.name = name
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value):
        value = _finite(self, float(value))
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1
        return self.count

    def bucket_counts(self):
        """Per-bucket counts (last entry is the overflow bucket)."""
        return list(self.counts)

    def as_dict(self):
        return {"type": self.kind, "bounds": list(self.bounds),
                "counts": list(self.counts), "sum": self.sum,
                "count": self.count}

    def __repr__(self):
        return "Histogram(%r, n=%d, sum=%r)" % (self.name, self.count,
                                                self.sum)


_KINDS = {cls.kind: cls for cls in (Counter, Gauge, Histogram)}


class MetricsRegistry:
    """Get-or-create home for every metric of one simulation."""

    def __init__(self):
        self._metrics = {}

    def _get_or_create(self, name, cls, *args):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, *args)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise TypeError("metric %r already registered as %s, not %s"
                            % (name, metric.kind, cls.kind))
        return metric

    def counter(self, name):
        return self._get_or_create(name, Counter)

    def gauge(self, name):
        return self._get_or_create(name, Gauge)

    def histogram(self, name, buckets=DEFAULT_BUCKETS):
        metric = self._get_or_create(name, Histogram, buckets)
        if metric.bounds != tuple(float(b) for b in buckets):
            raise ValueError(
                "histogram %r already registered with bounds %r"
                % (name, metric.bounds))
        return metric

    # -- one-line instrumentation hooks ---------------------------------------

    def inc(self, name, amount=1):
        """Increment (creating if needed) the counter ``name``."""
        return self.counter(name).inc(amount)

    def set_gauge(self, name, value):
        return self.gauge(name).set(value)

    def observe(self, name, value, buckets=DEFAULT_BUCKETS):
        return self.histogram(name, buckets).observe(value)

    # -- introspection --------------------------------------------------------

    def __len__(self):
        return len(self._metrics)

    def __contains__(self, name):
        return name in self._metrics

    def get(self, name):
        return self._metrics.get(name)

    def value(self, name, default=0):
        """Scalar value of a counter/gauge (``default`` if unregistered)."""
        metric = self._metrics.get(name)
        if metric is None:
            return default
        if isinstance(metric, Histogram):
            raise TypeError("metric %r is a histogram; read its snapshot"
                            % name)
        return metric.value

    def names(self):
        return sorted(self._metrics)

    def snapshot(self):
        """Sorted, picklable, primitive-only rendering of every metric.

        This is the artefact sweep replicas ship across the process
        boundary and the exporters serialise; equal simulations produce
        equal snapshots regardless of dispatch path.
        """
        return {name: self._metrics[name].as_dict()
                for name in sorted(self._metrics)}


def _merge_entry(name, left, right):
    if left["type"] != right["type"]:
        raise ValueError("cannot merge metric %r: %s vs %s"
                         % (name, left["type"], right["type"]))
    if left["type"] == "counter":
        return {"type": "counter", "value": left["value"] + right["value"]}
    if left["type"] == "gauge":
        # Replicas are independent simulations: there is no meaningful
        # "last write", so the merged gauge is the ensemble maximum.
        return {"type": "gauge", "value": max(left["value"], right["value"])}
    if left["type"] == "histogram":
        if left["bounds"] != right["bounds"]:
            raise ValueError("cannot merge histogram %r: bounds differ "
                             "(%r vs %r)" % (name, left["bounds"],
                                             right["bounds"]))
        return {
            "type": "histogram",
            "bounds": list(left["bounds"]),
            "counts": [a + b for a, b in zip(left["counts"],
                                             right["counts"])],
            "sum": left["sum"] + right["sum"],
            "count": left["count"] + right["count"],
        }
    raise ValueError("unknown metric type %r for %r" % (left["type"], name))


def merge_snapshots(*snapshots):
    """Combine snapshots as if one registry had observed everything.

    Counters and histogram cells add, gauges take the max — so the
    merge is associative, commutative, and (for counters/histograms)
    exactly equal to observing the union of the underlying events.
    """
    merged = {}
    for snapshot in snapshots:
        for name in sorted(snapshot):
            entry = snapshot[name]
            if name in merged:
                merged[name] = _merge_entry(name, merged[name], entry)
            else:
                merged[name] = _merge_entry(name, entry, _zero_like(entry))
    return {name: merged[name] for name in sorted(merged)}


def _zero_like(entry):
    """An identity element for :func:`_merge_entry` (also deep-copies)."""
    if entry["type"] == "histogram":
        return {"type": "histogram", "bounds": list(entry["bounds"]),
                "counts": [0] * len(entry["counts"]), "sum": 0.0,
                "count": 0}
    if entry["type"] == "gauge":
        return {"type": "gauge", "value": entry["value"]}
    return {"type": entry["type"], "value": 0}
