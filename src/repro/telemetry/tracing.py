"""Lightweight span tracing: nested, named wall-clock timing of layers.

``with telemetry.span("layer"):`` times a code region and records the
duration into a latency histogram labelled with the span's *path* -- nested
spans concatenate names with ``/`` (per thread), so one export shows e.g.
``evaluation.run/model.partial_fit`` separately from a bare
``model.partial_fit`` issued by the serving layer.  A hot call site that
guards on ``TELEMETRY.enabled`` itself uses ``TELEMETRY.tracer.call(name,
fn, *args)`` instead, or :meth:`Tracer.enter`/:meth:`Tracer.exit` around a
region it already times.

When telemetry is disabled, :meth:`Telemetry.span` returns a shared no-op
context manager: no allocation, no clock reads, nothing but one branch on
the hot path.
"""

from __future__ import annotations

import threading
from time import perf_counter
from types import TracebackType
from typing import Any, Callable, TypeVar

from repro.telemetry.metrics import HandleCache, Histogram, MetricsRegistry

_R = TypeVar("_R")

#: What :meth:`Tracer.enter` returns and :meth:`Tracer.exit` takes: the
#: thread's stack of open span paths, whose top is the span just opened.
SpanToken = list[str]

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

    Entry is :meth:`Tracer.enter`, exit :meth:`Tracer.exit` with the
    measured duration; the clock is read once per side.
    """

    __slots__ = ("_tracer", "_name", "_token", "_started")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self._tracer = tracer
        self._name = name
        self._token: SpanToken | None = None
        self._started = 0.0

    def __enter__(self) -> "Span":
        self._token = self._tracer.enter(self._name)
        self._started = perf_counter()
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> bool:
        elapsed = perf_counter() - self._started
        assert self._token is not None  # __enter__ ran
        self._tracer.exit(self._token, elapsed)
        return False


def _span_histogram(registry: MetricsRegistry, path: str) -> Histogram:
    return registry.histogram(SPAN_METRIC, span=path)


class Tracer:
    """Per-process tracer writing span durations into a metrics registry.

    :meth:`enter` and :meth:`exit` are the one span primitive: :class:`Span`,
    :meth:`call` and the scoring service's span go through them, so a span's
    path is joined in one place.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self._local = threading.local()
        self._histograms: HandleCache[str, Histogram] = HandleCache(
            _span_histogram
        )

    def enter(self, name: str) -> SpanToken:
        """Open span ``name`` under this thread's innermost span.

        Returns the token to hand to :meth:`exit` on the same thread, once
        every span opened after this one has exited.
        """
        try:
            stack: SpanToken = self._local.stack
        except AttributeError:
            stack = self._local.stack = []
        stack.append(stack[-1] + "/" + name if stack else name)
        return stack

    def exit(self, token: SpanToken, seconds: float) -> None:
        """Close the span :meth:`enter` opened; record its ``seconds``."""
        self._histograms.get(self.registry, token.pop()).observe(seconds)

    def call(self, name: str, fn: Callable[..., _R], *args: Any) -> _R:
        """``fn(*args)`` timed as span ``name``.

        Cheaper than ``with span(name):`` on a hot path: no context manager
        is allocated.
        """
        token = self.enter(name)
        started = perf_counter()
        try:
            return fn(*args)
        finally:
            self.exit(token, perf_counter() - started)

    def span(self, name: str) -> Span:
        """A context manager timing ``name`` (nested under active spans)."""
        return Span(self, name)

    def current_path(self) -> str | None:
        """Path of the innermost active span on this thread, if any."""
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None


#: What span() call sites receive: a real span or the shared no-op.
SpanHandle = Span | _NoopSpan
