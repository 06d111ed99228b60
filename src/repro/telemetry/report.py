"""Per-run telemetry summary: render exported artefacts as text tables.

Consumes the layout written by :meth:`Telemetry.export_run` (a directory
with ``events.jsonl`` / ``metrics.json``) or a bare ``events.jsonl`` file,
and renders:

* event counts by kind (with first/last sequence numbers), and
* latency histograms (count, mean, p50/p95/p99, max) and counter/gauge
  values for every metric in ``metrics.json``.
"""

from __future__ import annotations

import json
import os

from repro.telemetry.events import read_jsonl


def _format_table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [
        max(len(str(headers[col])), *(len(str(row[col])) for row in rows))
        if rows
        else len(str(headers[col]))
        for col in range(len(headers))
    ]
    def fmt(row: list[str]) -> str:
        return "  ".join(str(cell).ljust(width) for cell, width in zip(row, widths)).rstrip()
    lines = [fmt(headers), fmt(["-" * width for width in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


def _seconds(value: float) -> str:
    if value >= 1.0:
        return f"{value:.3f}s"
    if value >= 1e-3:
        return f"{value * 1e3:.3f}ms"
    return f"{value * 1e6:.1f}us"


def load_run(path: str | os.PathLike) -> tuple[list[dict], list[dict]]:
    """(events, metrics) from a run directory or a bare events.jsonl file."""
    path = os.fspath(path)
    if not os.path.exists(path):
        raise FileNotFoundError(
            f"{path!r} does not exist; expected a directory written by "
            "telemetry.export_run(), an events.jsonl file, or a "
            "metrics.json file."
        )
    events: list[dict] = []
    metrics: list[dict] = []
    if os.path.isdir(path):
        events_path = os.path.join(path, "events.jsonl")
        metrics_path = os.path.join(path, "metrics.json")
        if os.path.exists(events_path):
            events = read_jsonl(events_path)
        if os.path.exists(metrics_path):
            with open(metrics_path, encoding="utf-8") as handle:
                metrics = json.load(handle)
    elif path.endswith(".json"):
        with open(path, encoding="utf-8") as handle:
            metrics = json.load(handle)
    else:
        events = read_jsonl(path)
    return events, metrics


def render_events(events: list[dict]) -> str:
    """Event summary table: count / first / last sequence per kind."""
    if not events:
        return "no events recorded"
    by_kind: dict[str, list[dict]] = {}
    for record in events:
        by_kind.setdefault(record.get("kind", "?"), []).append(record)
    rows = []
    for kind in sorted(by_kind):
        records = by_kind[kind]
        seqs = [record.get("seq", 0) for record in records]
        rows.append([kind, len(records), min(seqs), max(seqs)])
    table = _format_table(["event kind", "count", "first seq", "last seq"], rows)
    return f"events: {len(events)} total\n\n{table}"


def render_metrics(metrics: list[dict]) -> str:
    """Histogram and counter summary tables from a metrics snapshot."""
    histograms = [m for m in metrics if m.get("type") == "histogram"]
    scalars = [m for m in metrics if m.get("type") in ("counter", "gauge")]
    sections: list[str] = []
    if histograms:
        rows = [
            [
                _metric_label(m),
                m["count"],
                _seconds(m["mean"]),
                _seconds(m["p50"]),
                _seconds(m["p95"]),
                _seconds(m["p99"]),
                _seconds(m["max"]),
            ]
            for m in histograms
        ]
        sections.append(
            "latency histograms\n\n"
            + _format_table(
                ["metric", "count", "mean", "p50", "p95", "p99", "max"], rows
            )
        )
    if scalars:
        rows = [
            [_metric_label(m), m["type"], f"{m['value']:g}"] for m in scalars
        ]
        sections.append(
            "counters / gauges\n\n"
            + _format_table(["metric", "type", "value"], rows)
        )
    return "\n\n".join(sections) if sections else "no metrics recorded"


def _metric_label(metric: dict) -> str:
    labels = metric.get("labels") or {}
    if not labels:
        return metric["name"]
    rendered = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return f"{metric['name']}{{{rendered}}}"


def render_report(path: str | os.PathLike) -> str:
    """The full report text for a run directory or events/metrics file."""
    events, metrics = load_run(path)
    sections = [f"telemetry report: {os.fspath(path)}", render_events(events)]
    if metrics:
        sections.append(render_metrics(metrics))
    return "\n\n".join(sections)
