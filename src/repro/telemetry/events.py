"""Structured event log: typed, timestamped records of structural changes.

Every interesting state transition of the stream->model->serving stack is
recorded as one :class:`Event`: concept-drift detections, tree splits and
prunes, DMT candidate-store admissions/evictions, champion/challenger
promotions, model-registry hot swaps, and experiment-grid cell completions.

Events carry a monotonically increasing sequence number (``seq``), a
wall-clock timestamp (``ts``, seconds since the epoch -- purely
informational, never fed back into any model) and flat ``kind``-specific
fields.  The in-memory log is a bounded ring buffer; an optional JSONL sink
appends one line per event as it happens, so a crashed run still leaves its
event trail on disk.

Event kinds and their required fields are declared in :data:`SCHEMAS`;
:meth:`EventLog.emit` validates required fields only when the kind is known,
so downstream code can add ad-hoc kinds without registering them.  The
counter a kind bumps once per event is declared in :data:`COUNTERS` and
bumped by ``Telemetry.emit``, so no call site pairs an emit with an
increment by hand.
"""

from __future__ import annotations

import json
import os
import time
from collections import deque

from repro.telemetry import metrics

# ------------------------------------------------------------- event kinds
#: A concept-drift detector fired.
DRIFT_DETECTED = "drift.detected"
#: An ensemble member's detector fired (carries the member/detector index).
ENSEMBLE_MEMBER_DRIFT = "ensemble.member_drift"
#: A Hoeffding-family tree split a leaf.
TREE_SPLIT = "tree.split"
#: A Hoeffding-family tree pruned structure (alternate, subtree, branch).
TREE_PRUNE = "tree.prune"
#: HAT started growing an alternate subtree.
TREE_ALTERNATE_STARTED = "tree.alternate_started"
#: HAT swapped an alternate subtree in for the main branch.
TREE_SWAP = "tree.swap"
#: The DMT split a leaf node.
DMT_SPLIT = "dmt.split"
#: The DMT replaced an inner node's subtree with a new split.
DMT_RESPLIT = "dmt.resplit"
#: The DMT collapsed an inner node back into a leaf.
DMT_PRUNE = "dmt.prune"
#: The DMT candidate store admitted and/or evicted split candidates.
DMT_CANDIDATES = "dmt.candidate_update"
#: A model registry registered/activated/rolled back a version (hot swap).
SERVING_HOT_SWAP = "serving.hot_swap"
#: A champion/challenger deployment promoted its challenger.
SERVING_PROMOTION = "serving.promotion"
#: A champion/challenger deployment observed champion drift.
SERVING_DRIFT = "serving.drift"
#: One experiment-grid cell finished.
GRID_CELL_COMPLETED = "grid.cell_completed"
#: One prequential evaluation run finished.
EVALUATION_COMPLETED = "evaluation.completed"
#: The scenario grammar sampled one program.
SCENARIO_SAMPLED = "scenario.sampled"
#: The prequential evaluator flushed late-arriving labels into training.
LABEL_DELAYED_FLUSH = "label.delayed_flush"

#: Required fields per known kind (``seq``/``ts``/``kind`` are implicit).
SCHEMAS: dict[str, frozenset] = {
    DRIFT_DETECTED: frozenset({"detector", "n_observations"}),
    ENSEMBLE_MEMBER_DRIFT: frozenset({"model", "member", "detector"}),
    TREE_SPLIT: frozenset({"model", "feature", "threshold"}),
    TREE_PRUNE: frozenset({"model", "reason"}),
    TREE_ALTERNATE_STARTED: frozenset({"model"}),
    TREE_SWAP: frozenset({"model"}),
    DMT_SPLIT: frozenset({"feature", "threshold", "gain"}),
    DMT_RESPLIT: frozenset({"feature", "threshold", "gain"}),
    DMT_PRUNE: frozenset({"gain"}),
    DMT_CANDIDATES: frozenset({"n_admitted", "n_evicted"}),
    SERVING_HOT_SWAP: frozenset({"name", "version", "action"}),
    SERVING_PROMOTION: frozenset({"name", "version"}),
    SERVING_DRIFT: frozenset({"name"}),
    GRID_CELL_COMPLETED: frozenset({"model", "dataset", "elapsed_seconds"}),
    EVALUATION_COMPLETED: frozenset({"model", "dataset", "n_iterations"}),
    SCENARIO_SAMPLED: frozenset({"name", "base", "n_layers"}),
    LABEL_DELAYED_FLUSH: frozenset({"n_flushed", "n_pending"}),
}

#: Counted kinds: the counter each event of the kind bumps by one, and the
#: event fields (all required by :data:`SCHEMAS`) whose values label it.
#: Counters that do not count one per event stay explicit at their call
#: sites: the DMT candidate store's summed/admitted/evicted amounts and the
#: registrations counter, which counts only ``action="register"`` swaps.
COUNTERS: dict[str, tuple[str, tuple[str, ...]]] = {
    DRIFT_DETECTED: (metrics.DRIFT_DETECTIONS_TOTAL, ("detector",)),
    ENSEMBLE_MEMBER_DRIFT: (metrics.ENSEMBLE_MEMBER_DRIFTS_TOTAL, ("model",)),
    TREE_SPLIT: (metrics.TREE_SPLITS_TOTAL, ("model",)),
    TREE_PRUNE: (metrics.TREE_PRUNES_TOTAL, ("model",)),
    TREE_ALTERNATE_STARTED: (metrics.TREE_ALTERNATES_STARTED_TOTAL, ("model",)),
    TREE_SWAP: (metrics.TREE_SWAPS_TOTAL, ("model",)),
    DMT_SPLIT: (metrics.DMT_SPLITS_TOTAL, ()),
    DMT_RESPLIT: (metrics.DMT_RESPLITS_TOTAL, ()),
    DMT_PRUNE: (metrics.DMT_PRUNES_TOTAL, ()),
    SERVING_PROMOTION: (metrics.SERVING_PROMOTIONS_TOTAL, ("name",)),
    SERVING_DRIFT: (metrics.SERVING_CHAMPION_DRIFTS_TOTAL, ("name",)),
    GRID_CELL_COMPLETED: (metrics.EXPERIMENTS_CELLS_TOTAL, ()),
    EVALUATION_COMPLETED: (metrics.EVALUATION_RUNS_TOTAL, ("model",)),
}

_RESERVED = frozenset({"kind", "seq", "ts"})


class Event:
    """One structured telemetry record.

    A ``__slots__`` class rather than a dataclass: events are constructed on
    instrumented hot paths (one per DMT candidate update), where the frozen
    dataclass ``__init__`` costs several times a plain attribute assignment.
    """

    __slots__ = ("kind", "seq", "ts", "fields")

    def __init__(
        self, kind: str, seq: int, ts: float, fields: dict | None = None
    ) -> None:
        self.kind = kind
        self.seq = seq
        self.ts = ts
        self.fields = {} if fields is None else fields

    def __repr__(self) -> str:
        return (
            f"Event(kind={self.kind!r}, seq={self.seq}, ts={self.ts}, "
            f"fields={self.fields!r})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        return (self.kind, self.seq, self.ts, self.fields) == (
            other.kind,
            other.seq,
            other.ts,
            other.fields,
        )

    def to_record(self) -> dict:
        """Flat JSON-safe dictionary (``kind``/``seq``/``ts`` + fields)."""
        return {"kind": self.kind, "seq": self.seq, "ts": self.ts, **self.fields}

    @classmethod
    def from_record(cls, record: dict) -> "Event":
        fields = {k: v for k, v in record.items() if k not in _RESERVED}
        return cls(
            kind=record["kind"],
            seq=int(record["seq"]),
            ts=float(record["ts"]),
            fields=fields,
        )


class EventLog:
    """Bounded in-memory event ring with an optional JSONL sink.

    Parameters
    ----------
    max_events:
        Ring-buffer capacity; older events are dropped once exceeded (the
        JSONL sink, when configured, still has them).
    sink_path:
        Optional JSONL file appended to on every emit (``{pid}`` in the
        path is replaced by the process id, so parallel workers writing to
        a shared location get one file each).
    """

    def __init__(self, max_events: int = 10_000, sink_path: str | None = None) -> None:
        if max_events < 1:
            raise ValueError(f"max_events must be >= 1, got {max_events!r}.")
        self._events: deque[Event] = deque(maxlen=int(max_events))
        self._seq = 0
        self._sink = None
        self.sink_path: str | None = None
        if sink_path:
            self.open_sink(sink_path)

    # ------------------------------------------------------------------ sink
    def open_sink(self, path: str | os.PathLike) -> str:
        """Append future events to a JSONL file (closing any previous sink)."""
        self.close_sink()
        path = os.fspath(path).replace("{pid}", str(os.getpid()))
        self._sink = open(path, "a", encoding="utf-8")
        self.sink_path = path
        return path

    def close_sink(self) -> None:
        if self._sink is not None:
            self._sink.close()
            self._sink = None
            self.sink_path = None

    def flush(self) -> None:
        if self._sink is not None:
            self._sink.flush()

    # ------------------------------------------------------------------ emit
    def emit(self, kind: str, **fields: object) -> Event:
        """Record one event; validate required fields of known kinds."""
        required = SCHEMAS.get(kind)
        if required is not None and not required <= fields.keys():
            missing = sorted(required - fields.keys())
            raise ValueError(f"Event {kind!r} is missing fields {missing}.")
        if _RESERVED & fields.keys():
            raise ValueError(
                f"Event fields may not use the reserved keys {sorted(_RESERVED)}."
            )
        self._seq += 1
        event = Event(kind=kind, seq=self._seq, ts=time.time(), fields=fields)
        self._events.append(event)
        if self._sink is not None:
            self._sink.write(json.dumps(event.to_record()) + "\n")
            self._sink.flush()
        return event

    # --------------------------------------------------------------- queries
    def __len__(self) -> int:
        return len(self._events)

    def records(self, kind: str | None = None) -> list[dict]:
        """Buffered events as flat dictionaries (optionally one kind)."""
        return [
            event.to_record()
            for event in self._events
            if kind is None or event.kind == kind
        ]

    def counts_by_kind(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for event in self._events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return dict(sorted(counts.items()))

    def clear(self) -> None:
        self._events.clear()
        self._seq = 0

    # ------------------------------------------------------------------- I/O
    def to_jsonl(self, path: str | os.PathLike) -> str:
        """Write the buffered events to a JSONL file (one record per line)."""
        path = os.fspath(path)
        with open(path, "w", encoding="utf-8") as handle:
            for event in self._events:
                handle.write(json.dumps(event.to_record()) + "\n")
        return path


def read_jsonl(path: str | os.PathLike) -> list[dict]:
    """Load event records from a JSONL file written by :class:`EventLog`."""
    records: list[dict] = []
    with open(os.fspath(path), encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records
