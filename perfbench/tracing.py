"""Span tracing from outside the program: a tracer and call-forwarding proxies.

The traced run hands the program proxies instead of its stream, models, drift
detector and registry.  A proxy forwards every attribute to the object it
wraps and runs the named methods inside a span, so the program's code is
unchanged and the untraced run pays nothing.  Proxies are never stored as
attributes of a model that gets saved: the model codec encodes ``vars(obj)``,
so a proxy held by a model would end up in its model file.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from pathlib import Path
from time import perf_counter
from typing import Any

from stats import self_times

#: Reads the rows a call handled off its arguments and result.
RowCounter = Callable[[tuple[Any, ...], Any], int]


def rows_in_first_argument(args: tuple[Any, ...], result: Any) -> int:
    return len(args[0])


def rows_in_result(args: tuple[Any, ...], result: Any) -> int:
    return len(result[1])


def one_row(args: tuple[Any, ...], result: Any) -> int:
    return 1


def no_rows(args: tuple[Any, ...], result: Any) -> int:
    return 0


class Tracer:
    """Keeps every span in memory: name, start, end, parent, request, rows."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._open: list[int] = []
        #: Identifier stamped on each new span (cell/step or request index).
        self.request = ""

    def call(
        self, name: str, rows: RowCounter, fn: Callable[..., Any], *args: Any,
        **kwargs: Any,
    ) -> Any:
        index = len(self.spans)
        span = [name, 0.0, 0.0, self._open[-1] if self._open else -1,
                self.request, 0]
        self.spans.append(span)
        self._open.append(index)
        span[1] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._open.pop()
        span[5] = rows(args, result)
        return result

    def wrap(
        self, name: str, fn: Callable[..., Any], rows: RowCounter = no_rows
    ) -> Callable[..., Any]:
        """``fn`` made to run inside a span called ``name``."""

        def traced(*args: Any, **kwargs: Any) -> Any:
            return self.call(name, rows, fn, *args, **kwargs)

        return traced

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, rows and self seconds."""
        selfs = self_times([(s[1], s[2], s[3]) for s in self.spans])
        totals: dict[str, dict[str, float]] = {}
        for span, own in zip(self.spans, selfs):
            entry = totals.setdefault(span[0], {"calls": 0, "rows": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["rows"] += span[5]
            entry["self_s"] += own
        return totals

    def root_seconds(self) -> float:
        """Traced total: the summed length of the spans with no parent."""
        return sum(s[2] - s[1] for s in self.spans if s[3] < 0)

    def write(self, path: Path) -> None:
        """Write the spans out, one JSON array per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            handle.write('["name", "start", "end", "parent", "request", "rows"]\n')
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


class Traced:
    """Forwards everything to ``target``; the ``methods`` run inside spans.

    ``methods`` maps a method name to ``(span name, row counter)``.
    """

    def __init__(
        self,
        target: Any,
        tracer: Tracer,
        methods: dict[str, tuple[str, RowCounter]],
    ) -> None:
        own = self.__dict__
        own["_target"] = target
        for method, (span, rows) in methods.items():
            own[method] = tracer.wrap(span, getattr(target, method), rows)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._target, name)

    def __setattr__(self, name: str, value: Any) -> None:
        setattr(self._target, name, value)


def unwrap(obj: Any) -> Any:
    """The object behind a proxy (or ``obj`` itself)."""
    return obj.__dict__.get("_target", obj) if isinstance(obj, Traced) else obj


def layer_of(model: Any) -> str:
    """The ``repro`` subpackage a model class lives in: core, trees, ..."""
    return type(model).__module__.split(".")[1]


def traced_model(model: Any, tracer: Tracer) -> Traced:
    layer = layer_of(model)
    return Traced(model, tracer, {
        "predict": (f"{layer}.predict", rows_in_first_argument),
        "predict_proba": (f"{layer}.predict", rows_in_first_argument),
        "partial_fit": (f"{layer}.train", rows_in_first_argument),
        "complexity": (f"{layer}.complexity", no_rows),
    })


def traced_stream(stream: Any, tracer: Tracer) -> Traced:
    proxy = Traced(stream, tracer, {
        "next_sample": ("streams.next_sample", rows_in_result),
    })
    # The evaluator finds delayed and masked labels by walking the ``.stream``
    # links of the wrapper stack; the real stream is the proxy's next link.
    proxy.__dict__["stream"] = stream
    return proxy


def traced_detector(detector: Any, tracer: Tracer) -> Traced:
    return Traced(detector, tracer, {
        "update": ("drift.update", one_row),
        "reset": ("drift.reset", no_rows),
    })


def traced_registry(registry: Any, tracer: Tracer) -> Traced:
    return Traced(registry, tracer, {
        "get": ("serving.registry", no_rows),
        "register": ("serving.registry", no_rows),
    })
