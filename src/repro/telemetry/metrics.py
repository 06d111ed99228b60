"""Process-wide metric primitives: counters, gauges and latency histograms.

Metrics live in a :class:`MetricsRegistry` under hierarchical dotted names
(``repro.<layer>.<metric>[_unit]``), optionally distinguished by labels
(``model="dmt"``).  The registry is the storage layer of the telemetry
singleton (:mod:`repro.telemetry.runtime`); instrumented call sites never
talk to it unless telemetry is enabled, so the disabled hot path pays
nothing.

Histograms keep two representations at once:

* fixed cumulative buckets (Prometheus ``le`` semantics) for the text
  exporter, and
* a bounded raw-sample buffer for **exact** percentiles -- ``p50/p95/p99``
  are computed from the actual observations (numpy's linear interpolation),
  not from bucket boundaries, as long as the observation count stays within
  ``max_samples`` (default 100k).  Beyond the cap, percentiles degrade
  gracefully to bucket interpolation and :attr:`Histogram.exact` turns
  ``False``.

Nothing in this module reads the wall clock or any random generator:
metric values are whatever the call sites observe, so enabling telemetry
can never perturb a deterministic computation.
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_left
from typing import Callable, Generic, Hashable, TypeVar, cast

import numpy as np

from repro.persistence.registry import register

#: Default latency buckets (seconds): log-ish spacing from 10us to 10s.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

# ------------------------------------------------------------ metric names
# Every series the package records is named here once, so a misspelt name
# at a call site is an ImportError instead of a silently forked series.
#: DMT leaf splits.
DMT_SPLITS_TOTAL = "repro.dmt.splits_total"
#: DMT inner nodes collapsed back into leaves.
DMT_PRUNES_TOTAL = "repro.dmt.prunes_total"
#: DMT inner nodes whose subtree was replaced by a new split.
DMT_RESPLITS_TOTAL = "repro.dmt.resplits_total"
#: Split candidates admitted to a DMT candidate store.
DMT_CANDIDATES_ADMITTED_TOTAL = "repro.dmt.candidates_admitted_total"
#: Split candidates evicted from a DMT candidate store.
DMT_CANDIDATES_EVICTED_TOTAL = "repro.dmt.candidates_evicted_total"
#: Fresh split candidates whose exact statistics a DMT candidate store summed.
DMT_CANDIDATES_SUMMED_TOTAL = "repro.dmt.candidates_summed_total"
#: Drift detections, labelled by ``detector``.
DRIFT_DETECTIONS_TOTAL = "repro.drift.detections_total"
#: Ensemble member resets after a member's detector fired, by ``model``.
ENSEMBLE_MEMBER_DRIFTS_TOTAL = "repro.ensemble.member_drifts_total"
#: Seconds per prequential batch, by ``model`` and ``dataset``.
EVALUATION_BATCH_SECONDS = "repro.evaluation.batch_seconds"
#: Finished prequential runs, by ``model``.
EVALUATION_RUNS_TOTAL = "repro.evaluation.runs_total"
#: Finished experiment-grid cells.
EXPERIMENTS_CELLS_TOTAL = "repro.experiments.cells_total"
#: Seconds per experiment-grid cell.
EXPERIMENTS_CELL_SECONDS = "repro.experiments.cell_seconds"
#: Active version of a registered model, by ``name``.
SERVING_ACTIVE_VERSION = "repro.serving.active_version"
#: Champion drifts seen by a champion/challenger deployment, by ``name``.
SERVING_CHAMPION_DRIFTS_TOTAL = "repro.serving.champion_drifts_total"
#: Seconds per scoring request, by ``model``.
SERVING_LATENCY_SECONDS = "repro.serving.latency_seconds"
#: Challenger promotions, by ``name``.
SERVING_PROMOTIONS_TOTAL = "repro.serving.promotions_total"
#: Model versions registered, by ``name``.
SERVING_REGISTRATIONS_TOTAL = "repro.serving.registrations_total"
#: Scoring requests, by ``model``.
SERVING_REQUESTS_TOTAL = "repro.serving.requests_total"
#: Rows scored, by ``model``.
SERVING_ROWS_TOTAL = "repro.serving.rows_total"
#: Alternate subtrees started by HAT, by ``model``.
TREE_ALTERNATES_STARTED_TOTAL = "repro.tree.alternates_started_total"
#: Hoeffding-family prunes, by ``model``.
TREE_PRUNES_TOTAL = "repro.tree.prunes_total"
#: Hoeffding-family leaf splits, by ``model``.
TREE_SPLITS_TOTAL = "repro.tree.splits_total"
#: Alternate subtrees swapped in by HAT, by ``model``.
TREE_SWAPS_TOTAL = "repro.tree.swaps_total"

_NAME_RE = re.compile(r"^[a-z][a-z0-9_.]*$")
_PROM_SANITIZE = re.compile(r"[^a-zA-Z0-9_:]")


def check_metric_name(name: str) -> str:
    """Validate the ``repro.layer.metric`` naming convention."""
    if not _NAME_RE.match(name):
        raise ValueError(
            f"Invalid metric name {name!r}: use lowercase dotted names like "
            "'repro.serving.latency_seconds'."
        )
    return name


def prometheus_name(name: str) -> str:
    """Dotted metric name rendered as a Prometheus identifier."""
    return _PROM_SANITIZE.sub("_", name)


def _render_labels(labels: tuple[tuple[str, str], ...], extra: str = "") -> str:
    parts = [f'{key}="{value}"' for key, value in labels]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


@register
class Counter:
    """Monotonically increasing count (requests, rows, events)."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"Counters only increase, got {amount!r}.")
        self.value += amount

    def snapshot(self) -> dict[str, float]:
        return {"value": self.value}


@register
class Gauge:
    """Last-write-wins instantaneous value (queue depth, model version)."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def snapshot(self) -> dict[str, float]:
        return {"value": self.value}


@register
class Histogram:
    """Fixed-bucket histogram with an exact-percentile sample buffer.

    Parameters
    ----------
    buckets:
        Ascending upper bucket bounds (Prometheus ``le`` semantics); an
        implicit ``+Inf`` bucket is always appended.
    max_samples:
        Raw observations kept for exact percentiles.  Once exceeded, new
        observations still update the buckets/count/sum/min/max but
        percentiles fall back to bucket interpolation.
    """

    __slots__ = (
        "buckets",
        "bucket_counts",
        "count",
        "sum",
        "min",
        "max",
        "max_samples",
        "_samples",
    )
    kind = "histogram"

    def __init__(
        self,
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
        max_samples: int = 100_000,
    ) -> None:
        buckets = tuple(float(bound) for bound in buckets)
        if not buckets:
            raise ValueError("Histogram needs at least one bucket bound.")
        if any(b >= c for b, c in zip(buckets, buckets[1:])):
            raise ValueError(f"Bucket bounds must strictly ascend, got {buckets!r}.")
        if max_samples < 1:
            raise ValueError(f"max_samples must be >= 1, got {max_samples!r}.")
        self.buckets = buckets
        self.bucket_counts = [0] * (len(buckets) + 1)  # last slot: +Inf
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = 0.0
        self.max_samples = int(max_samples)
        self._samples: list[float] = []

    # --------------------------------------------------------------- observe
    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.bucket_counts[bisect_left(self.buckets, value)] += 1
        if len(self._samples) < self.max_samples:
            self._samples.append(value)

    # ------------------------------------------------------------- summaries
    @property
    def exact(self) -> bool:
        """Whether percentiles come from the raw observations."""
        return self.count == len(self._samples)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentiles(self, qs: tuple[float, ...] = (0.5, 0.95, 0.99)) -> list[float]:
        """Percentile values for quantiles ``qs`` (exact when possible)."""
        if self.count == 0:
            return [0.0] * len(qs)
        if self.exact:
            values = np.quantile(np.asarray(self._samples, dtype=float), qs)
            return [float(v) for v in np.atleast_1d(values)]
        return [self._bucket_percentile(q) for q in qs]

    def percentile(self, q: float) -> float:
        return self.percentiles((q,))[0]

    def _bucket_percentile(self, q: float) -> float:
        """Linear interpolation inside the bucket holding quantile ``q``."""
        target = q * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.bucket_counts):
            previous = cumulative
            cumulative += bucket_count
            if cumulative >= target and bucket_count:
                lower = self.min if index == 0 else max(self.buckets[index - 1], self.min)
                upper = self.max if index == len(self.buckets) else min(self.buckets[index], self.max)
                fraction = (target - previous) / bucket_count
                return lower + (upper - lower) * min(max(fraction, 0.0), 1.0)
        return self.max

    def snapshot(self) -> dict[str, object]:
        p50, p95, p99 = self.percentiles((0.5, 0.95, 0.99))
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max,
            "p50": p50,
            "p95": p95,
            "p99": p99,
            "exact": self.exact,
        }


#: Union of the concrete metric primitives stored in a registry.
Metric = Counter | Gauge | Histogram
_M = TypeVar("_M", bound="Metric")


class MetricsRegistry:
    """Hierarchically-named store of counters, gauges and histograms.

    Metric identity is ``(name, sorted labels)``.  Lookup is a plain dict
    read (no lock) so enabled hot paths stay cheap; creation takes a lock
    and re-checks, so concurrent first touches cannot duplicate a metric.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[tuple[str, tuple[tuple[str, str], ...]], Metric] = {}
        #: Bumped by :meth:`clear`.  A :class:`HandleCache` compares it to
        #: the generation its entries were resolved under, so a cleared
        #: registry invalidates every cached handle instead of silently
        #: receiving writes to orphans.
        self.generation = 0

    # --------------------------------------------------------------- lookups
    def _get_or_create(
        self,
        name: str,
        labels: dict[str, object],
        factory: Callable[[], _M],
        kind: str,
    ) -> _M:
        # Most lookups carry no label; skip building a sorted key for them.
        key = (
            (name, tuple(sorted((k, str(v)) for k, v in labels.items())))
            if labels
            else (name, ())
        )
        # Deliberate unlocked fast path: dict.get on a key never deleted
        # outside clear() is safe under CPython's atomic dict reads, and the
        # slow path re-checks under the lock (classic double-checked lookup).
        metric = self._metrics.get(key)  # repro-lint: disable=LCK001
        if metric is None:
            with self._lock:
                metric = self._metrics.get(key)
                if metric is None:
                    check_metric_name(name)
                    metric = factory()
                    self._metrics[key] = metric
        if metric.kind != kind:
            raise TypeError(
                f"Metric {name!r} is a {metric.kind}, requested as {kind}."
            )
        return cast("_M", metric)

    # ``name`` is positional-only so labels may themselves be called
    # ``name`` (e.g. per-deployment serving metrics).
    def counter(self, name: str, /, **labels: object) -> Counter:
        return self._get_or_create(name, labels, Counter, "counter")

    def gauge(self, name: str, /, **labels: object) -> Gauge:
        return self._get_or_create(name, labels, Gauge, "gauge")

    def histogram(
        self,
        name: str,
        /,
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
        **labels: object,
    ) -> Histogram:
        return self._get_or_create(
            name, labels, lambda: Histogram(buckets), "histogram"
        )

    def clear(self) -> None:
        with self._lock:
            self._metrics.clear()
            self.generation += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)

    # --------------------------------------------------------------- exports
    def snapshot(self) -> list[dict[str, object]]:
        """JSON-safe records of every metric, sorted by (name, labels)."""
        with self._lock:
            items = sorted(self._metrics.items())
        return [
            {
                "name": name,
                "labels": dict(labels),
                "type": metric.kind,
                **metric.snapshot(),
            }
            for (name, labels), metric in items
        ]

    def to_prometheus(self) -> str:
        """Render every metric in the Prometheus text exposition format."""
        with self._lock:
            items = sorted(self._metrics.items())
        lines: list[str] = []
        seen_types: set[str] = set()
        for (name, labels), metric in items:
            prom = prometheus_name(name)
            if prom not in seen_types:
                lines.append(f"# TYPE {prom} {metric.kind}")
                seen_types.add(prom)
            if isinstance(metric, Histogram):
                cumulative = 0
                for bound, bucket_count in zip(
                    metric.buckets, metric.bucket_counts
                ):
                    cumulative += bucket_count
                    label_str = _render_labels(labels, f'le="{bound!r}"')
                    lines.append(f"{prom}_bucket{label_str} {cumulative}")
                label_str = _render_labels(labels, 'le="+Inf"')
                lines.append(f"{prom}_bucket{label_str} {metric.count}")
                lines.append(f"{prom}_sum{_render_labels(labels)} {metric.sum!r}")
                lines.append(f"{prom}_count{_render_labels(labels)} {metric.count}")
            else:
                lines.append(f"{prom}{_render_labels(labels)} {metric.value!r}")
        return "\n".join(lines) + ("\n" if lines else "")


_K = TypeVar("_K", bound=Hashable)
_H = TypeVar("_H")


class HandleCache(Generic[_K, _H]):
    """Metric handles per key, resolved again after a registry ``clear()``.

    ``resolve(registry, key)`` returns the handle(s) for one key.  An entry
    keeps the registry generation read *before* it was resolved, so an
    entry that raced a ``clear()`` is resolved again on its next use, with
    no lock.  The registry is passed on each call, not held, so a call site
    outside :mod:`repro.telemetry` reads it under its own
    ``TELEMETRY.enabled`` guard.  Worth it only where a labelled lookup per
    call costs measurable time: span exits and scoring requests.
    """

    __slots__ = ("_resolve", "_entries")

    def __init__(self, resolve: Callable[[MetricsRegistry, _K], _H]) -> None:
        self._resolve = resolve
        self._entries: dict[_K, tuple[int, _H]] = {}

    def get(self, registry: MetricsRegistry, key: _K) -> _H:
        generation = registry.generation
        entry = self._entries.get(key)
        if entry is not None and entry[0] == generation:
            return entry[1]
        handles = self._resolve(registry, key)
        self._entries[key] = (generation, handles)
        return handles
