"""repro.telemetry -- metrics, structured events and span tracing.

One process-wide :data:`TELEMETRY` singleton carries a hierarchical
:class:`~repro.telemetry.metrics.MetricsRegistry` (counters, gauges,
fixed-bucket latency histograms with exact p50/p95/p99), a structured
:class:`~repro.telemetry.events.EventLog` (typed, timestamped records of
drift detections, tree splits/prunes, DMT candidate-store changes,
champion/challenger promotions and registry hot swaps) and lightweight span
tracing (``with telemetry.span("layer"):``) threaded through stream
generation, scenario transforms, model training/inference, the prequential
evaluator, the parallel experiment engine and the scoring service.

Every metric, span and event name the package records is a constant of
this module -- metric names such as :data:`DMT_SPLITS_TOTAL`
(``repro.<layer>.<metric>``), span names such as
:data:`SPAN_SERVING_SCORE`, event kinds such as :data:`DMT_SPLIT` -- so a
misspelt name at a call site is an ImportError.  The registry and the event
log still accept any other well-formed name for downstream series and
ad-hoc event kinds.

Telemetry is **off by default and zero-cost while off**: instrumented call
sites check one boolean before doing anything, and spans degrade to a
shared no-op context manager.  Enabling it never perturbs determinism --
no random numbers are drawn and no wall-clock value enters persisted model
state, so ``deterministic_summary()`` is bit-identical either way.

Quickstart::

    from repro import telemetry

    telemetry.enable(events_path="events.jsonl")
    ... run training / serving ...
    print(telemetry.prometheus())          # Prometheus text format
    telemetry.export_run("telemetry-run/") # metrics.prom + .json + events.jsonl

    # then, from a shell:
    #   python -m repro.telemetry report telemetry-run/

Environment: ``REPRO_TELEMETRY=1`` enables at import,
``REPRO_TELEMETRY_EVENTS=path`` adds a JSONL event sink (``{pid}``
expands to the process id for parallel workers).
"""

from __future__ import annotations

import os

from repro.telemetry.events import (
    DMT_CANDIDATES,
    DMT_PRUNE,
    DMT_RESPLIT,
    DMT_SPLIT,
    DRIFT_DETECTED,
    ENSEMBLE_MEMBER_DRIFT,
    EVALUATION_COMPLETED,
    GRID_CELL_COMPLETED,
    LABEL_DELAYED_FLUSH,
    SCENARIO_SAMPLED,
    SERVING_DRIFT,
    SERVING_HOT_SWAP,
    SERVING_PROMOTION,
    TREE_ALTERNATE_STARTED,
    TREE_PRUNE,
    TREE_SPLIT,
    TREE_SWAP,
    Event,
    EventLog,
    read_jsonl,
)
from repro.telemetry.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    DMT_CANDIDATES_ADMITTED_TOTAL,
    DMT_CANDIDATES_EVICTED_TOTAL,
    DMT_CANDIDATES_SUMMED_TOTAL,
    DMT_PRUNES_TOTAL,
    DMT_RESPLITS_TOTAL,
    DMT_SPLITS_TOTAL,
    DRIFT_DETECTIONS_TOTAL,
    ENSEMBLE_MEMBER_DRIFTS_TOTAL,
    EVALUATION_BATCH_SECONDS,
    EVALUATION_RUNS_TOTAL,
    EXPERIMENTS_CELL_SECONDS,
    EXPERIMENTS_CELLS_TOTAL,
    SERVING_ACTIVE_VERSION,
    SERVING_CHAMPION_DRIFTS_TOTAL,
    SERVING_LATENCY_SECONDS,
    SERVING_PROMOTIONS_TOTAL,
    SERVING_REGISTRATIONS_TOTAL,
    SERVING_REQUESTS_TOTAL,
    SERVING_ROWS_TOTAL,
    TREE_ALTERNATES_STARTED_TOTAL,
    TREE_PRUNES_TOTAL,
    TREE_SPLITS_TOTAL,
    TREE_SWAPS_TOTAL,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    check_metric_name,
    prometheus_name,
)
from repro.telemetry.runtime import TELEMETRY, Telemetry
from repro.telemetry.tracing import (
    SPAN_DMT_PARTIAL_FIT,
    SPAN_DMT_PREDICT_PROBA,
    SPAN_EVALUATION_PREQUENTIAL,
    SPAN_METRIC,
    SPAN_SCENARIO_GENERATE,
    SPAN_SERVING_SCORE,
    SPAN_STREAM_GENERATE_BLOCK,
    Span,
    SpanHandle,
    Tracer,
)


def enable(events_path: str | None = None) -> Telemetry:
    """Enable the process-wide telemetry singleton."""
    return TELEMETRY.enable(events_path)


def disable() -> Telemetry:
    """Disable instrumentation (collected data stays exportable)."""
    return TELEMETRY.disable()


def reset() -> Telemetry:
    """Disable and drop every collected metric and event."""
    return TELEMETRY.reset()


def is_enabled() -> bool:
    return TELEMETRY.enabled


def span(name: str) -> SpanHandle:
    """Timed span context manager (no-op while telemetry is disabled)."""
    return TELEMETRY.span(name)


def emit(kind: str, **fields: object) -> Event:
    """Record one structured event (requires telemetry to be meaningful)."""
    return TELEMETRY.emit(kind, **fields)


def counter(name: str, /, **labels: object) -> Counter:
    return TELEMETRY.counter(name, **labels)


def gauge(name: str, /, **labels: object) -> Gauge:
    return TELEMETRY.gauge(name, **labels)


def histogram(
    name: str, /, buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS, **labels: object
) -> Histogram:
    return TELEMETRY.histogram(name, buckets, **labels)


def prometheus() -> str:
    """Every collected metric in the Prometheus text exposition format."""
    return TELEMETRY.registry.to_prometheus()


def export_run(directory: str | os.PathLike[str]) -> dict[str, str]:
    """Write metrics.prom / metrics.json / events.jsonl into ``directory``."""
    return TELEMETRY.export_run(directory)


__all__ = [
    "TELEMETRY",
    "Telemetry",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "EventLog",
    "Event",
    "Tracer",
    "Span",
    "enable",
    "disable",
    "reset",
    "is_enabled",
    "span",
    "emit",
    "counter",
    "gauge",
    "histogram",
    "prometheus",
    "export_run",
    "read_jsonl",
    "check_metric_name",
    "prometheus_name",
    "DEFAULT_LATENCY_BUCKETS",
    # Metric names.
    "DMT_CANDIDATES_ADMITTED_TOTAL",
    "DMT_CANDIDATES_EVICTED_TOTAL",
    "DMT_CANDIDATES_SUMMED_TOTAL",
    "DMT_PRUNES_TOTAL",
    "DMT_RESPLITS_TOTAL",
    "DMT_SPLITS_TOTAL",
    "DRIFT_DETECTIONS_TOTAL",
    "ENSEMBLE_MEMBER_DRIFTS_TOTAL",
    "EVALUATION_BATCH_SECONDS",
    "EVALUATION_RUNS_TOTAL",
    "EXPERIMENTS_CELL_SECONDS",
    "EXPERIMENTS_CELLS_TOTAL",
    "SERVING_ACTIVE_VERSION",
    "SERVING_CHAMPION_DRIFTS_TOTAL",
    "SERVING_LATENCY_SECONDS",
    "SERVING_PROMOTIONS_TOTAL",
    "SERVING_REGISTRATIONS_TOTAL",
    "SERVING_REQUESTS_TOTAL",
    "SERVING_ROWS_TOTAL",
    "TREE_ALTERNATES_STARTED_TOTAL",
    "TREE_PRUNES_TOTAL",
    "TREE_SPLITS_TOTAL",
    "TREE_SWAPS_TOTAL",
    "SPAN_METRIC",
    # Span names.
    "SPAN_DMT_PARTIAL_FIT",
    "SPAN_DMT_PREDICT_PROBA",
    "SPAN_EVALUATION_PREQUENTIAL",
    "SPAN_SCENARIO_GENERATE",
    "SPAN_SERVING_SCORE",
    "SPAN_STREAM_GENERATE_BLOCK",
    # Event kinds.
    "DRIFT_DETECTED",
    "ENSEMBLE_MEMBER_DRIFT",
    "TREE_SPLIT",
    "TREE_PRUNE",
    "TREE_ALTERNATE_STARTED",
    "TREE_SWAP",
    "DMT_SPLIT",
    "DMT_RESPLIT",
    "DMT_PRUNE",
    "DMT_CANDIDATES",
    "SERVING_HOT_SWAP",
    "SERVING_PROMOTION",
    "SERVING_DRIFT",
    "GRID_CELL_COMPLETED",
    "EVALUATION_COMPLETED",
    "SCENARIO_SAMPLED",
    "LABEL_DELAYED_FLUSH",
]
