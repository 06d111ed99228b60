"""Batched scoring service with histogram-backed latency/throughput stats.

:class:`ScoringService` is the request-facing layer: it resolves a model name
through a :class:`~repro.serving.registry.ModelRegistry` at call time (so hot
swaps take effect immediately), scores requests in bounded batches, and keeps
per-model :class:`ScoringStats` -- request/row counts plus a fixed-bucket
latency histogram with exact p50/p95/p99 -- that a monitoring endpoint can
expose.  The stats are persistable (:meth:`ScoringService.save_stats` /
:meth:`load_stats`), so serving metrics survive a hot restart alongside the
model registry, and every request also feeds the process-wide telemetry
registry (:mod:`repro.telemetry`) when it is enabled.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path

import numpy as np

from repro.persistence.registry import register
from repro.serving.registry import ModelRegistry
from repro.telemetry import (
    SERVING_LATENCY_SECONDS,
    SERVING_REQUESTS_TOTAL,
    SERVING_ROWS_TOTAL,
    SPAN_SERVING_SCORE,
    TELEMETRY,
)
from repro.telemetry.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    HandleCache,
    Histogram,
    MetricsRegistry,
)


def _request_metrics(
    registry: MetricsRegistry, name: str
) -> tuple[Counter, Counter, Histogram]:
    """The (requests, rows, latency) series of one model name."""
    return (
        registry.counter(SERVING_REQUESTS_TOTAL, model=name),
        registry.counter(SERVING_ROWS_TOTAL, model=name),
        registry.histogram(SERVING_LATENCY_SECONDS, model=name),
    )


@register
class ScoringStats:
    """Running latency/throughput statistics for one model name.

    Backed by a :class:`~repro.telemetry.metrics.Histogram`, so the snapshot
    carries exact latency percentiles in addition to the original counters.
    The :meth:`snapshot` keys of the pre-histogram implementation
    (``n_requests``/``n_rows``/``total_seconds``/``mean``/``max``/``min``
    latency and ``rows_per_second``) are preserved for backward
    compatibility.
    """

    __slots__ = ("n_rows", "latency")

    def __init__(self) -> None:
        self.n_rows = 0
        self.latency = Histogram(DEFAULT_LATENCY_BUCKETS)

    def observe(self, n_rows: int, seconds: float) -> None:
        self.n_rows += int(n_rows)
        self.latency.observe(float(seconds))

    # ---------------------------------------------------- legacy counter API
    @property
    def n_requests(self) -> int:
        return self.latency.count

    @property
    def total_seconds(self) -> float:
        return self.latency.sum

    @property
    def mean_latency(self) -> float:
        return self.latency.mean

    @property
    def max_latency(self) -> float:
        return self.latency.max

    @property
    def min_latency(self) -> float:
        return self.latency.min

    @property
    def rows_per_second(self) -> float:
        return self.n_rows / self.latency.sum if self.latency.sum > 0 else 0.0

    def snapshot(self) -> dict[str, float]:
        p50, p95, p99 = self.latency.percentiles((0.5, 0.95, 0.99))
        return {
            "n_requests": self.n_requests,
            "n_rows": self.n_rows,
            "total_seconds": self.total_seconds,
            "mean_latency_seconds": self.mean_latency,
            "max_latency_seconds": self.max_latency,
            "min_latency_seconds": (
                self.min_latency if self.n_requests else 0.0
            ),
            "rows_per_second": self.rows_per_second,
            "p50_latency_seconds": p50,
            "p95_latency_seconds": p95,
            "p99_latency_seconds": p99,
        }


@register
class ScoringStatsArchive:
    """Persistable container of a service's per-model statistics.

    Registered with the persistence codec so
    :meth:`ScoringService.save_stats` round-trips the histogram-backed
    counters through a versioned model file.
    """

    def __init__(self, stats: dict[str, ScoringStats] | None = None) -> None:
        self.stats: dict[str, ScoringStats] = dict(stats or {})


class ScoringService:
    """Score requests against registered models, in bounded batches.

    Parameters
    ----------
    registry:
        The model registry to resolve names against.  A fresh one is created
        when omitted, which is convenient for tests and examples.
    max_batch_size:
        Upper bound on the number of rows handed to a model in one call.
        Larger requests are chunked; ``None`` scores each request whole.
    """

    def __init__(
        self,
        registry: ModelRegistry | None = None,
        max_batch_size: int | None = None,
    ) -> None:
        if max_batch_size is not None and max_batch_size < 1:
            raise ValueError(
                f"max_batch_size must be >= 1 or None, got {max_batch_size!r}."
            )
        self.registry = registry if registry is not None else ModelRegistry()
        self.max_batch_size = max_batch_size
        self._lock = threading.Lock()
        self._stats: dict[str, ScoringStats] = {}
        # Per-request telemetry costs three attribute bumps instead of three
        # labelled registry lookups.
        self._request_metrics = HandleCache(_request_metrics)

    # -------------------------------------------------------------- scoring
    def predict(self, name: str, X: np.ndarray) -> np.ndarray:
        """Class labels of the active model for ``name`` on ``X``."""
        return self._score(name, X, "predict")

    def predict_proba(self, name: str, X: np.ndarray) -> np.ndarray:
        """Class probabilities of the active model for ``name`` on ``X``."""
        return self._score(name, X, "predict_proba")

    def _score(self, name: str, X: np.ndarray, method: str) -> np.ndarray:
        model = self.registry.get(name)
        X = np.asarray(X)
        score = getattr(model, method)
        # The request is timed for the per-model stats anyway, so the
        # ``serving.score`` span reuses that measurement: nested model spans
        # open under it, and it closes with the already-measured duration.
        telemetry_on = TELEMETRY.enabled
        if telemetry_on:
            span = TELEMETRY.tracer.enter(SPAN_SERVING_SCORE)
        started = time.perf_counter()
        try:
            if self.max_batch_size is None or len(X) <= self.max_batch_size:
                result = score(X)
            else:
                chunks = [
                    score(X[start : start + self.max_batch_size])
                    for start in range(0, len(X), self.max_batch_size)
                ]
                result = np.concatenate(chunks, axis=0)
        finally:
            elapsed = time.perf_counter() - started
            if telemetry_on:
                TELEMETRY.tracer.exit(span, elapsed)
        with self._lock:
            stats = self._stats.get(name)
            if stats is None:
                stats = self._stats.setdefault(name, ScoringStats())
            stats.observe(len(X), elapsed)
        if telemetry_on:
            requests, rows, latency = self._request_metrics.get(
                TELEMETRY.registry, name
            )
            requests.inc()
            rows.inc(len(X))
            latency.observe(elapsed)
        return result

    # ------------------------------------------------------------ monitoring
    def stats(self, name: str) -> dict[str, float]:
        """Counter snapshot for one model name (zeros if never scored)."""
        with self._lock:
            stats = self._stats.get(name)
            return stats.snapshot() if stats else ScoringStats().snapshot()

    def metrics(self) -> dict[str, dict[str, float]]:
        """Counter snapshots for every model name scored so far."""
        with self._lock:
            return {name: stats.snapshot() for name, stats in self._stats.items()}

    def reset_stats(self, name: str | None = None) -> None:
        """Clear the counters of one model (or of all models)."""
        with self._lock:
            if name is None:
                self._stats.clear()
            else:
                self._stats.pop(name, None)

    # ---------------------------------------------------------- persistence
    def save_stats(self, path: str | Path) -> str:
        """Persist the per-model statistics (histograms included) to a file.

        The file uses the same versioned format as model files, so serving
        metrics can be hot-restarted alongside the models they describe.
        """
        from repro.persistence import save_model

        with self._lock:
            archive = ScoringStatsArchive(self._stats)
            return save_model(archive, path)

    def load_stats(
        self, path: str | Path, merge: bool = False
    ) -> "ScoringService":
        """Restore statistics written by :meth:`save_stats`.

        With ``merge=False`` (default) the loaded stats replace the current
        ones; ``merge=True`` keeps stats of names absent from the file.
        """
        from repro.persistence import load_model

        archive = load_model(path)
        if not isinstance(archive, ScoringStatsArchive):
            raise TypeError(
                f"{path!r} does not contain scoring statistics "
                f"(found {type(archive).__name__})."
            )
        with self._lock:
            if merge:
                self._stats.update(archive.stats)
            else:
                self._stats = dict(archive.stats)
        return self
