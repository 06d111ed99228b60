"""Lightweight span tracing: nested, named wall-clock timing of layers.

``with telemetry.span("layer"):`` times a code region and records the
duration into a latency histogram labelled with the span's *path* -- nested
spans concatenate names with ``/`` (per thread), so one export shows e.g.
``evaluation.run/model.partial_fit`` separately from a bare
``model.partial_fit`` issued by the serving layer.

When telemetry is disabled, :meth:`Tracer.span` returns a shared no-op
context manager: no allocation, no clock reads, nothing but one branch on
the hot path.
"""

from __future__ import annotations

import threading
from time import perf_counter
from types import TracebackType
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.telemetry.metrics import Histogram, MetricsRegistry

#: Histogram receiving one observation per finished span, labelled by path.
SPAN_METRIC = "repro.trace.span_seconds"

# -------------------------------------------------------------- span names
#: One prequential evaluation run.
SPAN_EVALUATION_PREQUENTIAL = "evaluation.prequential"
#: One block generated by a counter-based stream.
SPAN_STREAM_GENERATE_BLOCK = "stream.generate_block"
#: One block generated through a scenario pipeline.
SPAN_SCENARIO_GENERATE = "scenario.generate"
#: One ``DynamicModelTree.partial_fit`` call.
SPAN_DMT_PARTIAL_FIT = "dmt.partial_fit"
#: One ``DynamicModelTree.predict_proba`` call.
SPAN_DMT_PREDICT_PROBA = "dmt.predict_proba"
#: One scoring request of the serving layer.
SPAN_SERVING_SCORE = "serving.score"


class _NoopSpan:
    """Shared do-nothing span handed out while telemetry is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> bool:
        return False


NOOP_SPAN = _NoopSpan()


class Span:
    """One active traced region; records its duration on exit.

    Enter/exit are on the enabled hot path (two spans per scoring request),
    so they keep a reference to the thread's stack instead of re-resolving
    the thread-local on exit, and read the clock exactly once per side.
    """

    __slots__ = ("_tracer", "_name", "path", "_started", "_active_stack")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self._tracer = tracer
        self._name = name
        self.path = name
        self._started = 0.0
        self._active_stack: list[str] | None = None

    def __enter__(self) -> "Span":
        stack = self._tracer._stack()
        self._active_stack = stack
        if stack:
            self.path = stack[-1] + "/" + self._name
        stack.append(self.path)
        self._started = perf_counter()
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> bool:
        elapsed = perf_counter() - self._started
        assert self._active_stack is not None  # __enter__ ran
        self._active_stack.pop()
        self._tracer._histogram(self.path).observe(elapsed)
        return False


class Tracer:
    """Per-process tracer writing span durations into a metrics registry."""

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self._local = threading.local()
        self._histograms: dict[str, Histogram] = {}
        self._generation = registry.generation

    def _histogram(self, path: str) -> Histogram:
        """Histogram handle for a span path, cached per registry generation.

        Span exits are the hottest metric lookup in the package (two per
        scoring request); caching the resolved handle replaces the registry's
        label-key construction with one dict read.
        """
        if self._generation != self.registry.generation:
            self._histograms.clear()
            self._generation = self.registry.generation
        histogram = self._histograms.get(path)
        if histogram is None:
            histogram = self.registry.histogram(SPAN_METRIC, span=path)
            self._histograms[path] = histogram
        return histogram

    def _stack(self) -> list[str]:
        try:
            stack: list[str] = self._local.stack
        except AttributeError:
            stack = self._local.stack = []
        return stack

    def span(self, name: str) -> Span:
        """A context manager timing ``name`` (nested under active spans)."""
        return Span(self, name)

    def current_path(self) -> str | None:
        """Path of the innermost active span on this thread, if any."""
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None


#: What span() call sites receive: a real span or the shared no-op.
SpanHandle = Span | _NoopSpan
