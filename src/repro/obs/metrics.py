"""Central metrics registry: counters, gauges, log-bucketed histograms.

The registry is the *one* aggregation point for the model's counters.
Two sourcing modes coexist:

* **Instrument families** — :class:`Counter` / :class:`Gauge` /
  :class:`Histogram` children created through the registry and updated by
  the probe points (:mod:`repro.obs.probes`). Histograms are log-bucketed
  so p50/p90/p99 queries over cycle latencies stay O(#buckets) with
  bounded error, exactly what the Table IV / Fig. 6 style questions need.
* **Federated sources** — callbacks over the existing per-subsystem
  ``*Stats`` dataclasses (``MailboxStats``, ``RuntimeStats``, ...). The
  registry does not duplicate those counters; it *reads* them at snapshot
  time, so the legacy dataclasses remain the single source of truth and
  ``HyperTEESystem.stats_summary()`` becomes a registry query.

Everything here is out-of-band bookkeeping: no method draws from the
model RNG or touches any modelled cycle count.
"""

from __future__ import annotations

import bisect
import dataclasses
import math
from typing import Any, Callable, Iterable


class MetricError(ValueError):
    """Registry misuse: duplicate registration or kind/label mismatch."""


# ---------------------------------------------------------------------------
# Instruments
# ---------------------------------------------------------------------------


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (>= 0) to the count."""
        if amount < 0:
            raise MetricError("counters only go up")
        self.value += amount


class Gauge:
    """A point-in-time value (queue depth, pool free frames, ...)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        """Record the current level."""
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        """Raise the level by ``amount``."""
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Lower the level by ``amount``."""
        self.value -= amount


class Histogram:
    """Log-bucketed distribution with percentile queries.

    Bucket ``i`` covers values in ``(base**(i-1), base**i]`` (bucket 0
    holds values <= 1). With the default ``base=2`` a 64-bit cycle count
    lands in one of ~64 buckets and any percentile is answered with at
    most a factor-of-2 relative error — plenty for "where did the cycles
    go" questions, at O(1) memory per instrument.
    """

    __slots__ = ("base", "_log_base", "_buckets", "count", "sum",
                 "min", "max")

    def __init__(self, base: float = 2.0) -> None:
        if base <= 1.0:
            raise MetricError("histogram base must exceed 1")
        self.base = base
        self._log_base = math.log(base)
        self._buckets: dict[int, int] = {}
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def _bucket_index(self, value: float) -> int:
        if value <= 1.0:
            return 0
        return int(math.ceil(math.log(value) / self._log_base - 1e-12))

    def observe(self, value: float) -> None:
        """Record one sample into its log bucket."""
        if value < 0:
            raise MetricError("histograms take non-negative observations")
        index = self._bucket_index(value)
        self._buckets[index] = self._buckets.get(index, 0) + 1
        self.count += 1
        self.sum += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)

    def buckets(self) -> list[tuple[float, int]]:
        """Sorted (upper_bound, count) pairs for non-empty buckets."""
        return [(self.base ** index, count)
                for index, count in sorted(self._buckets.items())]

    def percentile(self, p: float) -> float:
        """Estimate the ``p``-quantile (0..1) from the bucket counts.

        Returns the geometric midpoint of the bucket holding the target
        rank, clamped into the observed [min, max] range so degenerate
        single-value distributions answer exactly.
        """
        if not 0.0 <= p <= 1.0:
            raise MetricError("percentile wants p in [0, 1]")
        if self.count == 0:
            return 0.0
        rank = p * self.count
        seen = 0
        for index, count in sorted(self._buckets.items()):
            seen += count
            if seen >= rank:
                upper = self.base ** index
                lower = 0.0 if index == 0 else self.base ** (index - 1)
                mid = (lower + upper) / 2.0
                return min(max(mid, self.min), self.max)
        return self.max

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


class QuantileHistogram:
    """Streaming latency digest: exact small samples, log-spaced buckets.

    The SLO engine needs tail quantiles (p95/p99/p999) that are *exact*
    for the small per-operation sample counts a single run produces, yet
    stay O(1)-per-sample and bounded-memory under a long soak. Two modes:

    * **exact** — while ``count <= exact_limit`` every sample is kept in
      a sorted list and quantiles are exact order statistics
      (nearest-rank);
    * **bucketed** — past the limit the sample list is released and
      quantiles are answered from fixed log-spaced buckets. The default
      base is a quarter octave (``2 ** 0.25``), bounding the relative
      quantile error at ~9% — an order of magnitude tighter than the
      base-2 :class:`Histogram`, which is what makes p999 meaningful.

    Buckets are maintained in *both* modes so the Prometheus
    ``_bucket``/``_sum``/``_count`` exposition never changes shape when
    the digest crosses the threshold.
    """

    __slots__ = ("base", "exact_limit", "_log_base", "_buckets", "count",
                 "sum", "min", "max", "_exact")

    #: Quarter-octave buckets: <= ~9% relative error on any quantile.
    DEFAULT_BASE = 2.0 ** 0.25
    #: Samples kept verbatim before degrading to bucketed estimates.
    DEFAULT_EXACT_LIMIT = 512

    def __init__(self, base: float = DEFAULT_BASE,
                 exact_limit: int = DEFAULT_EXACT_LIMIT) -> None:
        if base <= 1.0:
            raise MetricError("histogram base must exceed 1")
        if exact_limit < 0:
            raise MetricError("exact_limit must be non-negative")
        self.base = base
        self.exact_limit = exact_limit
        self._log_base = math.log(base)
        self._buckets: dict[int, int] = {}
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._exact: list[float] | None = []

    @property
    def exact_mode(self) -> bool:
        """Still answering from the verbatim sample list?"""
        return self._exact is not None

    def _bucket_index(self, value: float) -> int:
        if value <= 1.0:
            return 0
        return int(math.ceil(math.log(value) / self._log_base - 1e-12))

    def observe(self, value: float) -> None:
        """Record one sample (both the bucket and, if small, verbatim)."""
        if value < 0:
            raise MetricError("histograms take non-negative observations")
        index = self._bucket_index(value)
        self._buckets[index] = self._buckets.get(index, 0) + 1
        self.count += 1
        self.sum += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        if self._exact is not None:
            bisect.insort(self._exact, value)
            if len(self._exact) > self.exact_limit:
                self._exact = None

    def buckets(self) -> list[tuple[float, int]]:
        """Sorted (upper_bound, count) pairs for non-empty buckets."""
        return [(self.base ** index, count)
                for index, count in sorted(self._buckets.items())]

    def percentile(self, p: float) -> float:
        """The ``p``-quantile (0..1): exact if small, bucketed if not."""
        if not 0.0 <= p <= 1.0:
            raise MetricError("percentile wants p in [0, 1]")
        if self.count == 0:
            return 0.0
        if self._exact is not None:
            # Nearest-rank: the smallest sample with cumulative
            # frequency >= p. Exact for every quantile the table prints.
            rank = max(1, math.ceil(p * self.count))
            return self._exact[min(rank, self.count) - 1]
        rank = p * self.count
        seen = 0
        for index, count in sorted(self._buckets.items()):
            seen += count
            if seen >= rank:
                upper = self.base ** index
                lower = 0.0 if index == 0 else self.base ** (index - 1)
                mid = (lower + upper) / 2.0
                return min(max(mid, self.min), self.max)
        return self.max

    def quantiles(self) -> dict[str, float]:
        """The SLO report's standard quantile set."""
        return {"p50": self.percentile(0.50), "p95": self.percentile(0.95),
                "p99": self.percentile(0.99), "p999": self.percentile(0.999)}

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


#: Instrument kind -> child factory.
_KIND_FACTORY: dict[str, Callable[..., Any]] = {
    "counter": Counter,
    "gauge": Gauge,
    "histogram": Histogram,
    "quantile_histogram": QuantileHistogram,
}


class MetricFamily:
    """One named metric with zero or more label dimensions."""

    def __init__(self, kind: str, name: str, help: str = "",
                 labelnames: tuple[str, ...] = (), **kwargs: Any) -> None:
        self.kind = kind
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._kwargs = kwargs
        self._children: dict[tuple[str, ...], Any] = {}

    def labels(self, *values: Any, **kwvalues: Any) -> Any:
        """Child instrument for one label-value combination."""
        if kwvalues:
            if values:
                raise MetricError("pass labels positionally or by name")
            try:
                values = tuple(kwvalues[name] for name in self.labelnames)
            except KeyError as exc:
                raise MetricError(f"missing label {exc} for {self.name}") from None
        key = tuple(str(v) for v in values)
        if len(key) != len(self.labelnames):
            raise MetricError(
                f"{self.name} wants labels {self.labelnames}, got {key}")
        child = self._children.get(key)
        if child is None:
            child = _KIND_FACTORY[self.kind](**self._kwargs)
            self._children[key] = child
        return child

    def samples(self) -> Iterable[tuple[dict[str, str], Any]]:
        """(label_dict, instrument) pairs, insertion-ordered."""
        for key, child in self._children.items():
            yield dict(zip(self.labelnames, key)), child

    # An unlabelled family proxies straight to its single child ----------------

    def _solo(self) -> Any:
        if self.labelnames:
            raise MetricError(f"{self.name} is labelled; use .labels()")
        return self.labels()

    def inc(self, amount: float = 1) -> None:
        """Increment the unlabelled child."""
        self._solo().inc(amount)

    def dec(self, amount: float = 1) -> None:
        """Decrement the unlabelled child."""
        self._solo().dec(amount)

    def set(self, value: float) -> None:
        """Set the unlabelled child."""
        self._solo().set(value)

    def observe(self, value: float) -> None:
        """Observe into the unlabelled child."""
        self._solo().observe(value)


class MetricsRegistry:
    """The central registry the whole platform reports into."""

    def __init__(self) -> None:
        self._families: dict[str, MetricFamily] = {}
        self._sources: dict[str, Callable[[], dict]] = {}

    # -- instrument registration ------------------------------------------------

    def _family(self, kind: str, name: str, help: str,
                labelnames: tuple[str, ...], **kwargs: Any) -> MetricFamily:
        existing = self._families.get(name)
        if existing is not None:
            if existing.kind != kind or existing.labelnames != tuple(labelnames):
                raise MetricError(
                    f"metric {name!r} already registered as {existing.kind}"
                    f"{existing.labelnames}")
            return existing
        family = MetricFamily(kind, name, help, labelnames, **kwargs)
        self._families[name] = family
        return family

    def counter(self, name: str, help: str = "",
                labelnames: tuple[str, ...] = ()) -> MetricFamily:
        """Register (or fetch) a counter family."""
        return self._family("counter", name, help, labelnames)

    def gauge(self, name: str, help: str = "",
              labelnames: tuple[str, ...] = ()) -> MetricFamily:
        """Register (or fetch) a gauge family."""
        return self._family("gauge", name, help, labelnames)

    def histogram(self, name: str, help: str = "",
                  labelnames: tuple[str, ...] = (),
                  base: float = 2.0) -> MetricFamily:
        """Register (or fetch) a log-bucketed histogram family."""
        return self._family("histogram", name, help, labelnames, base=base)

    def quantile_histogram(self, name: str, help: str = "",
                           labelnames: tuple[str, ...] = (),
                           base: float = QuantileHistogram.DEFAULT_BASE,
                           exact_limit: int =
                           QuantileHistogram.DEFAULT_EXACT_LIMIT,
                           ) -> MetricFamily:
        """Register (or fetch) a :class:`QuantileHistogram` family."""
        return self._family("quantile_histogram", name, help, labelnames,
                            base=base, exact_limit=exact_limit)

    def families(self) -> list[MetricFamily]:
        """Every registered family, in registration order."""
        return list(self._families.values())

    def get(self, name: str) -> MetricFamily | None:
        """Look up one family by name."""
        return self._families.get(name)

    # -- federation over the legacy *Stats dataclasses ------------------------------

    def register_source(self, name: str, source: Callable[[], dict]) -> None:
        """Register a pull-based stats source (e.g. a dataclass reader).

        The callback runs at snapshot time only; nothing is copied or
        duplicated between snapshots.
        """
        if name in self._sources:
            raise MetricError(f"stats source {name!r} already registered")
        self._sources[name] = source

    def federated_snapshot(self) -> dict[str, dict]:
        """Evaluate every registered source — the stats_summary() view."""
        return {name: source() for name, source in self._sources.items()}

    def source_names(self) -> list[str]:
        """Names of the registered federation sources."""
        return list(self._sources)


def stats_asdict(stats: Any) -> dict:
    """Snapshot one ``*Stats`` dataclass (the federation reader)."""
    return dataclasses.asdict(stats)


def stats_sum(stats: Iterable[Any]) -> dict:
    """Snapshot ``*Stats`` dataclasses of one type as their field-wise sum.

    Counters add and lists add element-wise, so a single dataclass reads
    exactly as :func:`stats_asdict` does (the per-shard federation).
    """
    total: dict = {}
    for one in stats:
        for name, value in stats_asdict(one).items():
            if name not in total:
                total[name] = value
            elif isinstance(value, list):
                total[name] = [a + b for a, b in zip(total[name], value)]
            else:
                total[name] += value
    return total
