"""The process-wide telemetry singleton and its on/off switch.

All instrumentation in the package funnels through one module-level
:data:`TELEMETRY` object.  It starts *disabled*: every instrumented call
site guards with ``if TELEMETRY.enabled:`` (a plain attribute read) before
touching metrics or events, and :meth:`Telemetry.span` hands out a shared
no-op context manager, so the disabled hot path allocates nothing and reads
no clocks.

Enabling telemetry must never change what a model computes: the subsystem
reads no random generators and writes nothing into persisted model state
(timestamps only appear in telemetry's own exports), so
``deterministic_summary()`` of any run is bit-identical with telemetry on
or off -- a property pinned by ``tests/test_telemetry_determinism.py``.

Environment switches (read once at import):

``REPRO_TELEMETRY=1``
    Enable telemetry at process start (worker processes inherit this).
``REPRO_TELEMETRY_EVENTS=/path/events.jsonl``
    Stream every event to a JSONL sink; ``{pid}`` in the path expands to
    the process id so parallel workers get one file each.
"""

from __future__ import annotations

import os

from repro.telemetry.events import COUNTERS, Event, EventLog
from repro.telemetry.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.tracing import NOOP_SPAN, SpanHandle, Tracer


class Telemetry:
    """Metrics registry + event log + tracer behind one enable flag."""

    def __init__(self) -> None:
        self.enabled = False
        self.registry = MetricsRegistry()
        self.events = EventLog()
        self.tracer = Tracer(self.registry)

    # ------------------------------------------------------------- lifecycle
    def enable(self, events_path: str | None = None) -> "Telemetry":
        """Turn instrumentation on (optionally streaming events to JSONL)."""
        if events_path:
            self.events.open_sink(events_path)
        self.enabled = True
        return self

    def disable(self) -> "Telemetry":
        """Turn instrumentation off; keeps collected data for export."""
        self.enabled = False
        self.events.flush()
        return self

    def reset(self) -> "Telemetry":
        """Disable and drop all collected metrics and events."""
        self.enabled = False
        self.registry.clear()
        self.events.close_sink()
        self.events.clear()
        return self

    # ----------------------------------------------------------- primitives
    def counter(self, name: str, /, **labels: object) -> Counter:
        return self.registry.counter(name, **labels)

    def gauge(self, name: str, /, **labels: object) -> Gauge:
        return self.registry.gauge(name, **labels)

    def histogram(
        self,
        name: str,
        /,
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
        **labels: object,
    ) -> Histogram:
        return self.registry.histogram(name, buckets, **labels)

    def emit(self, kind: str, **fields: object) -> Event:
        """Record one event; a kind in ``events.COUNTERS`` bumps its counter."""
        event = self.events.emit(kind, **fields)
        counted = COUNTERS.get(kind)
        if counted is not None:
            name, labels = counted
            self.registry.counter(
                name, **{label: fields[label] for label in labels}
            ).inc()
        return event

    def span(self, name: str) -> SpanHandle:
        """Timed context manager; the shared no-op when disabled."""
        if not self.enabled:
            return NOOP_SPAN
        return self.tracer.span(name)

    # -------------------------------------------------------------- exports
    def export_run(self, directory: str | os.PathLike[str]) -> dict[str, str]:
        """Write ``metrics.prom``, ``metrics.json`` and ``events.jsonl``.

        Returns the mapping of artefact name to written path; the directory
        is created when missing.  This is the layout
        ``python -m repro.telemetry report`` consumes.
        """
        import json

        directory = os.fspath(directory)
        os.makedirs(directory, exist_ok=True)
        paths = {
            "metrics.prom": os.path.join(directory, "metrics.prom"),
            "metrics.json": os.path.join(directory, "metrics.json"),
            "events.jsonl": os.path.join(directory, "events.jsonl"),
        }
        with open(paths["metrics.prom"], "w", encoding="utf-8") as handle:
            handle.write(self.registry.to_prometheus())
        with open(paths["metrics.json"], "w", encoding="utf-8") as handle:
            json.dump(self.registry.snapshot(), handle, indent=2, sort_keys=True)
        self.events.to_jsonl(paths["events.jsonl"])
        return paths


#: The process-wide singleton every instrumented call site imports.
TELEMETRY = Telemetry()

if os.environ.get("REPRO_TELEMETRY", "").strip() not in ("", "0"):
    TELEMETRY.enable(os.environ.get("REPRO_TELEMETRY_EVENTS") or None)
