"""Process-local metrics registry: counters, gauges, histograms.

No third-party dependencies — the registry is a thin, deterministic
container whose only jobs are (a) collecting named metric families with
optional labels and (b) rendering to the Prometheus text exposition
format with a stable ordering so two runs that did the same work
produce byte-identical output.

Metrics marked ``volatile=True`` carry machine- or schedule-dependent
values (wall-clock feeder block time, queue high-water marks). They are
excluded from rendering by default so exports stay deterministic and
comparable across backends; pass ``include_volatile=True`` to see them.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple


def escape_label_value(value: str) -> str:
    """Escape a label value for the Prometheus text exposition format:
    backslash, double quote, and newline must be escaped inside the
    quoted value or the line (and every line after it) is unparsable."""
    return value.replace("\\", "\\\\").replace('"', '\\"') \
        .replace("\n", "\\n")


def escape_help(text: str) -> str:
    """Escape ``# HELP`` text: backslash and newline only (quotes are
    legal in help text, which is not quoted)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def format_value(value) -> str:
    """Prometheus-text number formatting (ints without a trailing .0)."""
    if isinstance(value, float) and value.is_integer() and \
            abs(value) < 1e15:
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def bucket_index(bounds: Sequence[float], value: float) -> int:
    """Index of the first bucket whose upper bound admits ``value``
    (the last index is the +Inf bucket)."""
    for i, bound in enumerate(bounds):
        if value <= bound:
            return i
    return len(bounds)


class Metric:
    """One metric family: a name, help text, and labeled samples."""

    kind = "untyped"

    def __init__(self, name: str, help: str,
                 label_names: Sequence[str] = (),
                 volatile: bool = False) -> None:
        self.name = name
        self.help = help
        self.label_names = tuple(label_names)
        self.volatile = volatile
        self.values: Dict[Tuple[str, ...], float] = {}

    def _key(self, labels: Sequence[str]) -> Tuple[str, ...]:
        key = tuple(str(v) for v in labels)
        if len(key) != len(self.label_names):
            raise ValueError(
                f"{self.name}: expected labels {self.label_names}, "
                f"got {key}")
        return key

    def labeled(self, key: Tuple[str, ...]) -> str:
        if not key:
            return self.name
        pairs = ",".join(f'{n}="{escape_label_value(v)}"'
                         for n, v in zip(self.label_names, key))
        return f"{self.name}{{{pairs}}}"

    def samples(self) -> Iterable[Tuple[str, float]]:
        for key in sorted(self.values):
            yield self.labeled(key), self.values[key]


class Counter(Metric):
    """Monotonically increasing count."""

    kind = "counter"

    def inc(self, amount: float = 1, labels: Sequence[str] = ()) -> None:
        if amount < 0:
            raise ValueError(f"{self.name}: counters only go up")
        key = self._key(labels)
        self.values[key] = self.values.get(key, 0) + amount


class Gauge(Metric):
    """A value that can go up and down (set, not accumulated)."""

    kind = "gauge"

    def set(self, value: float, labels: Sequence[str] = ()) -> None:
        self.values[self._key(labels)] = value


class Histogram(Metric):
    """Fixed-bucket histogram (cumulative buckets at render time)."""

    kind = "histogram"

    def __init__(self, name: str, help: str, buckets: Sequence[float],
                 label_names: Sequence[str] = (),
                 volatile: bool = False) -> None:
        super().__init__(name, help, label_names, volatile)
        self.buckets = tuple(buckets)
        #: label key -> (per-bucket counts incl. +Inf, sum of observations)
        self.series: Dict[Tuple[str, ...], Tuple[List[int], float]] = {}

    def observe(self, value: float, labels: Sequence[str] = ()) -> None:
        key = self._key(labels)
        counts, total = self.series.get(key, (None, 0.0))
        if counts is None:
            counts = [0] * (len(self.buckets) + 1)
        counts[bucket_index(self.buckets, value)] += 1
        self.series[key] = (counts, total + value)

    def load(self, counts: Sequence[int], total: float,
             labels: Sequence[str] = ()) -> None:
        """Bulk-load pre-bucketed counts (merging per-core snapshots)."""
        if len(counts) != len(self.buckets) + 1:
            raise ValueError(
                f"{self.name}: expected {len(self.buckets) + 1} bucket "
                f"counts, got {len(counts)}")
        key = self._key(labels)
        have, have_total = self.series.get(key, (None, 0.0))
        if have is None:
            have = [0] * (len(self.buckets) + 1)
        self.series[key] = ([a + b for a, b in zip(have, counts)],
                            have_total + total)

    def samples(self) -> Iterable[Tuple[str, float]]:
        for key in sorted(self.series):
            counts, total = self.series[key]
            cumulative = 0
            for bound, count in zip(self.buckets, counts):
                cumulative += count
                yield self._bucket_name(key, format_value(float(bound))), \
                    cumulative
            cumulative += counts[-1]
            yield self._bucket_name(key, "+Inf"), cumulative
            yield self._suffixed(key, "_sum"), total
            yield self._suffixed(key, "_count"), cumulative

    def _bucket_name(self, key: Tuple[str, ...], le: str) -> str:
        pairs = [f'{n}="{escape_label_value(v)}"'
                 for n, v in zip(self.label_names, key)]
        pairs.append(f'le="{le}"')
        return f"{self.name}_bucket{{{','.join(pairs)}}}"

    def _suffixed(self, key: Tuple[str, ...], suffix: str) -> str:
        if not key:
            return self.name + suffix
        pairs = ",".join(f'{n}="{escape_label_value(v)}"'
                         for n, v in zip(self.label_names, key))
        return f"{self.name}{suffix}{{{pairs}}}"


class MetricsRegistry:
    """A named collection of metric families."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    def counter(self, name: str, help: str = "",
                label_names: Sequence[str] = (),
                volatile: bool = False) -> Counter:
        return self._get_or_create(Counter, name, help, label_names,
                                   volatile)

    def gauge(self, name: str, help: str = "",
              label_names: Sequence[str] = (),
              volatile: bool = False) -> Gauge:
        return self._get_or_create(Gauge, name, help, label_names,
                                   volatile)

    def histogram(self, name: str, help: str, buckets: Sequence[float],
                  label_names: Sequence[str] = (),
                  volatile: bool = False) -> Histogram:
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, Histogram):
                raise ValueError(f"{name} already registered as "
                                 f"{existing.kind}")
            return existing
        metric = Histogram(name, help, buckets, label_names, volatile)
        self._metrics[name] = metric
        return metric

    def _get_or_create(self, cls, name, help, label_names, volatile):
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValueError(f"{name} already registered as "
                                 f"{existing.kind}")
            return existing
        metric = cls(name, help, label_names, volatile)
        self._metrics[name] = metric
        return metric

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def collect(self, include_volatile: bool = False) -> List[Metric]:
        return [self._metrics[name] for name in sorted(self._metrics)
                if include_volatile or not self._metrics[name].volatile]

    def render_prometheus(self, include_volatile: bool = False) -> str:
        """The Prometheus text exposition format, deterministically
        ordered (metric families by name, samples by label values)."""
        lines: List[str] = []
        for metric in self.collect(include_volatile):
            if metric.help:
                lines.append(
                    f"# HELP {metric.name} {escape_help(metric.help)}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            for labeled, value in metric.samples():
                lines.append(f"{labeled} {format_value(value)}")
        return "\n".join(lines) + "\n"

