"""Prequential (test-then-train) evaluation.

This is the evaluation protocol of the paper (Section VI-A): the stream is
consumed in batches of 0.1% of its length; every batch is first used to test
the current model (predictions are scored) and then to train it.  Per
iteration the evaluator records the F1 measure, the accuracy, the kappa
statistics (Cohen, kappa-M, kappa-temporal), the model's complexity (number
of splits and parameters under the paper's counting rules) and the
wall-clock time of the test+train step.  A step keeps two things per scored
batch: its confusion matrix, counted once and added to the run's overall
matrix, and its no-change count (the one further input kappa-temporal
needs).  The metric traces are filled when the run ends, by one
:class:`~repro.evaluation.metrics.MatrixScores` pass over the stacked
matrices; each batch scores exactly as it would on its own.  The time of a
step is its prediction, counting and training; the scoring is not in it.

Beyond the paper's protocol the evaluator understands *label realism*
(:func:`repro.streams.scenarios.label_realism`): streams wrapped in a
:class:`~repro.streams.scenarios.LabelDelayer` release each row's label only
after the configured arrival lag -- predictions are still made at test time,
but training on a row waits until its label has arrived -- and rows withheld
by a :class:`~repro.streams.scenarios.LabelMasker` are never scored or
trained on (semi-supervised updates).  With neither wrapper present the
protocol reduces exactly (bit-for-bit) to the paper's test-then-train loop.

The evaluation loop itself lives in :class:`PrequentialSession`, which is
persistable mid-run: a session saved after any batch and loaded elsewhere
continues to the identical result, pending delayed labels included.  A
session saved mid-run holds its scored batches' counts, not partial traces.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.base import StreamClassifier
from repro.evaluation.complexity import sliding_window_aggregate, summarize_trace
from repro.evaluation.metrics import (
    ConfusionMatrix,
    MatrixScores,
    check_average,
    no_change_count,
)
from repro.persistence.mixin import PersistableStateMixin
from repro.streams.base import Stream
from repro.streams.scenarios import LabelRealism, label_realism
from repro.telemetry import (
    EVALUATION_BATCH_SECONDS,
    EVALUATION_COMPLETED,
    LABEL_DELAYED_FLUSH,
    SPAN_EVALUATION_PREQUENTIAL,
    TELEMETRY,
)
from repro.utils.validation import check_in_range


@dataclass
class PrequentialResult(PersistableStateMixin):
    """Traces and summary statistics of one prequential run."""

    model_name: str
    dataset_name: str
    n_iterations: int = 0
    n_samples: int = 0
    n_scored_samples: int = 0
    n_trained_samples: int = 0
    f1_trace: list[float] = field(default_factory=list)
    accuracy_trace: list[float] = field(default_factory=list)
    kappa_trace: list[float] = field(default_factory=list)
    kappa_m_trace: list[float] = field(default_factory=list)
    kappa_temporal_trace: list[float] = field(default_factory=list)
    n_splits_trace: list[float] = field(default_factory=list)
    n_parameters_trace: list[float] = field(default_factory=list)
    time_trace: list[float] = field(default_factory=list)
    overall_confusion: ConfusionMatrix | None = None

    # ------------------------------------------------------------ summaries
    def _trace(self, name: str) -> list[float]:
        # Results decoded from state files written before a trace existed
        # lack the attribute entirely (the codec rebuilds via ``__new__``);
        # treat those as empty rather than failing.
        return getattr(self, name, [])

    @property
    def f1_mean(self) -> float:
        return summarize_trace(self.f1_trace)[0]

    @property
    def f1_std(self) -> float:
        return summarize_trace(self.f1_trace)[1]

    @property
    def accuracy_mean(self) -> float:
        return summarize_trace(self.accuracy_trace)[0]

    @property
    def kappa_mean(self) -> float:
        return summarize_trace(self._trace("kappa_trace"))[0]

    @property
    def kappa_m_mean(self) -> float:
        return summarize_trace(self._trace("kappa_m_trace"))[0]

    @property
    def kappa_temporal_mean(self) -> float:
        return summarize_trace(self._trace("kappa_temporal_trace"))[0]

    @property
    def n_splits_mean(self) -> float:
        return summarize_trace(self.n_splits_trace)[0]

    @property
    def n_splits_std(self) -> float:
        return summarize_trace(self.n_splits_trace)[1]

    @property
    def n_parameters_mean(self) -> float:
        return summarize_trace(self.n_parameters_trace)[0]

    @property
    def n_parameters_std(self) -> float:
        return summarize_trace(self.n_parameters_trace)[1]

    @property
    def time_mean(self) -> float:
        return summarize_trace(self.time_trace)[0]

    @property
    def time_std(self) -> float:
        return summarize_trace(self.time_trace)[1]

    def windowed_f1(self, window: int = 20) -> tuple[np.ndarray, np.ndarray]:
        """Sliding-window F1 trace (mean, std) as plotted in Figure 3."""
        return sliding_window_aggregate(self.f1_trace, window)

    def windowed_log_splits(self, window: int = 20) -> tuple[np.ndarray, np.ndarray]:
        """Sliding-window log(number of splits) trace as plotted in Figure 3."""
        logs = np.log(np.maximum(np.asarray(self.n_splits_trace, dtype=float), 1e-9))
        return sliding_window_aggregate(logs, window)

    def summary(self) -> dict[str, object]:
        """Flat dictionary with the headline numbers of this run."""
        return {
            "model": self.model_name,
            "dataset": self.dataset_name,
            "n_iterations": self.n_iterations,
            "n_samples": self.n_samples,
            "n_scored_samples": getattr(self, "n_scored_samples", 0),
            "n_trained_samples": getattr(self, "n_trained_samples", 0),
            "f1_mean": self.f1_mean,
            "f1_std": self.f1_std,
            "accuracy_mean": self.accuracy_mean,
            "kappa_mean": self.kappa_mean,
            "kappa_m_mean": self.kappa_m_mean,
            "kappa_temporal_mean": self.kappa_temporal_mean,
            "n_splits_mean": self.n_splits_mean,
            "n_splits_std": self.n_splits_std,
            "n_parameters_mean": self.n_parameters_mean,
            "n_parameters_std": self.n_parameters_std,
            "time_mean": self.time_mean,
            "time_std": self.time_std,
        }

    def deterministic_summary(self) -> dict[str, object]:
        """:meth:`summary` without the wall-clock time fields.

        Everything left is a pure function of (model, stream, seed, batching),
        so two runs of the same configuration -- serial or parallel, on any
        host -- must agree bit-for-bit on this dictionary.
        """
        record = self.summary()
        record.pop("time_mean")
        record.pop("time_std")
        return record


class PrequentialSession(PersistableStateMixin):
    """One resumable prequential run: evaluator loop state as an object.

    Construct, then either :meth:`run` to completion or call :meth:`step`
    batch by batch.  The session is persistable between any two batches
    (model, stream position, the scored batches' counts, pending delayed
    labels and the kappa-temporal threading all round-trip through
    :mod:`repro.persistence`), and a resumed session finishes with the
    bit-identical :class:`PrequentialResult` of an uninterrupted one.  The
    result's metric traces stay empty until the run ends: the step that
    finishes it scores every batch at once.

    Label realism is read from the stream's transform stack once at
    construction: rows whose label never arrives are excluded from scoring
    and training; rows with delayed labels are scored at test time but only
    trained once their label has arrived (pending rows are buffered, and any
    labels still pending at end of stream are flushed into one final
    training step).
    """

    def __init__(
        self,
        model: StreamClassifier,
        stream: Stream,
        batch_fraction: float = 0.001,
        batch_size: int | None = None,
        f1_average: str = "weighted",
        warmup_batches: int = 1,
        model_name: str | None = None,
        dataset_name: str | None = None,
        max_iterations: int | None = None,
    ) -> None:
        check_in_range(batch_fraction, "batch_fraction", 0.0, 1.0, inclusive=False)
        if warmup_batches < 1:
            raise ValueError(f"warmup_batches must be >= 1, got {warmup_batches!r}.")
        check_average(f1_average, stream.classes)
        if stream.position != 0:
            # A partially (or fully) consumed stream would silently produce a
            # truncated or empty result; rewind so suite-level stream reuse
            # always evaluates the full stream.
            stream.restart()
        self.model = model
        self.stream = stream
        self.f1_average = f1_average
        self.warmup_batches = int(warmup_batches)
        self.max_iterations = max_iterations
        self.batch_size = (
            max(int(round(stream.n_samples * batch_fraction)), 1)
            if batch_size is None
            else int(batch_size)
        )
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size!r}.")
        self.realism: LabelRealism = label_realism(stream)
        self.result = PrequentialResult(
            model_name=model_name or type(model).__name__,
            dataset_name=dataset_name
            or getattr(stream, "name", type(stream).__name__),
        )
        self.confusion = ConfusionMatrix(stream.classes)
        #: Each scored batch's confusion matrix and no-change count, in
        #: stream order, until the end of the run scores them.
        self.batch_counts: list[np.ndarray] = []
        self.no_change: list[int] = []
        self.fitted = False
        self.finished = False
        #: Previous arrived true label (kappa-temporal's no-change reference).
        self.last_label: int | None = None
        #: Rows seen but not yet trained on (labels still in flight).
        self.pending_X: np.ndarray = np.empty((0, stream.n_features))
        self.pending_y: np.ndarray = np.empty(0, dtype=np.int64)
        self.pending_arrival: np.ndarray = np.empty(0, dtype=np.int64)

    # ----------------------------------------------------------------- loop
    def _has_more(self) -> bool:
        if self.finished or not self.stream.has_more_samples():
            return False
        return (
            self.max_iterations is None
            or self.result.n_iterations < self.max_iterations
        )

    def step(self) -> bool:
        """Run one test-then-train batch; ``False`` once the run is over.

        The final call (the one that returns ``False``) finalises the run:
        pending delayed labels are flushed into training, every scored
        batch is scored, and the overall confusion matrix and completion
        telemetry are recorded.
        """
        if not self._has_more():
            self._finalize()
            return False
        result = self.result
        X, y = self.stream.next_sample(self.batch_size)
        start_index = self.stream.position - len(y)
        realism = self.realism
        available: np.ndarray | None = (
            realism.available(start_index, len(y)) if realism.maskers else None
        )

        started = time.perf_counter()
        if result.n_iterations >= self.warmup_batches and self.fitted:
            predictions = self.model.predict(X)
            if available is None:
                y_scored, pred_scored = y, predictions
            else:
                y_scored, pred_scored = y[available], predictions[available]
            batch = self.confusion.counts(y_scored, pred_scored)
            self.confusion.matrix += batch
            self.batch_counts.append(batch)
            self.no_change.append(no_change_count(y_scored, self.last_label))
            result.n_scored_samples += len(y_scored)
        self._train(X, y, start_index, available)
        elapsed = time.perf_counter() - started

        # Thread the no-change reference across batches: the last label that
        # actually arrived (warmup batches included, masked rows excluded).
        y_arrived = y if available is None else y[available]
        if len(y_arrived):
            self.last_label = int(y_arrived[-1])

        report = self.model.complexity()
        result.n_splits_trace.append(report.n_splits)
        result.n_parameters_trace.append(report.n_parameters)
        result.time_trace.append(elapsed)
        result.n_iterations += 1
        result.n_samples += len(y)
        if TELEMETRY.enabled:
            # Reuse the already-measured duration: no extra clock reads
            # inside the timed region.
            TELEMETRY.histogram(
                EVALUATION_BATCH_SECONDS,
                model=result.model_name,
                dataset=result.dataset_name,
            ).observe(elapsed)
        if not self._has_more():
            self._finalize()
            return False
        return True

    def _train(
        self,
        X: np.ndarray,
        y: np.ndarray,
        start_index: int,
        available: np.ndarray | None,
    ) -> None:
        """Train on every row whose label has arrived by the batch's end."""
        classes = self.confusion.classes
        if not self.realism.active:
            self.model.partial_fit(X, y, classes=classes)
            self.fitted = True
            self.result.n_trained_samples += len(y)
            return
        arrival = self.realism.arrival(start_index, len(y))
        if available is not None:
            # Rows whose labels never arrive are dropped outright.
            X, y, arrival = X[available], y[available], arrival[available]
        if len(self.pending_arrival):
            X = np.concatenate([self.pending_X, X])
            y = np.concatenate([self.pending_y, y])
            arrival = np.concatenate([self.pending_arrival, arrival])
        # The delay is uniform, so arrivals are sorted: rows due by the
        # current consumed position form a prefix.
        due = int(np.searchsorted(arrival, self.stream.position, side="right"))
        if due:
            self.model.partial_fit(X[:due], y[:due], classes=classes)
            self.fitted = True
            self.result.n_trained_samples += due
        self.pending_X = X[due:].copy()
        self.pending_y = y[due:].copy()
        self.pending_arrival = arrival[due:].copy()

    def _finalize(self) -> None:
        if self.finished:
            return
        result = self.result
        n_pending = len(self.pending_arrival)
        if n_pending:
            # End of stream: the remaining in-flight labels are delivered and
            # flushed into one final training step (scores are unaffected --
            # there is nothing left to test on).
            self.model.partial_fit(
                self.pending_X, self.pending_y, classes=self.confusion.classes
            )
            self.fitted = True
            result.n_trained_samples += n_pending
            self.pending_X = self.pending_X[:0]
            self.pending_y = self.pending_y[:0]
            self.pending_arrival = self.pending_arrival[:0]
            if TELEMETRY.enabled:
                TELEMETRY.emit(
                    LABEL_DELAYED_FLUSH,
                    n_flushed=n_pending,
                    n_pending=0,
                    model=result.model_name,
                    dataset=result.dataset_name,
                )
        if self.batch_counts:
            scores = MatrixScores(np.stack(self.batch_counts), self.confusion.classes)
            result.f1_trace.extend(scores.f1(self.f1_average).tolist())
            result.accuracy_trace.extend(scores.accuracy().tolist())
            result.kappa_trace.extend(scores.kappa().tolist())
            result.kappa_m_trace.extend(scores.kappa_m().tolist())
            result.kappa_temporal_trace.extend(
                scores.kappa_temporal(np.array(self.no_change)).tolist()
            )
            self.batch_counts, self.no_change = [], []
        result.overall_confusion = self.confusion
        self.finished = True
        if TELEMETRY.enabled:
            TELEMETRY.emit(
                EVALUATION_COMPLETED,
                model=result.model_name,
                dataset=result.dataset_name,
                n_iterations=result.n_iterations,
                n_samples=result.n_samples,
            )

    def run(self) -> PrequentialResult:
        """Run the remaining batches to completion."""
        with TELEMETRY.span(SPAN_EVALUATION_PREQUENTIAL):
            while self.step():
                pass
        return self.result


class PrequentialEvaluator:
    """Test-then-train evaluator with per-iteration tracing.

    Parameters
    ----------
    batch_fraction:
        Fraction of the stream processed per iteration (0.001 in the paper).
    batch_size:
        Absolute batch size overriding ``batch_fraction`` when given.
    f1_average:
        Averaging mode of the F1 measure.  The paper does not state the
        averaging explicitly; ``"weighted"`` (the default here) is robust to
        the strong class imbalance of several data sets, ``"macro"`` and
        ``"binary"`` are also available.  Any other value is rejected here,
        and ``"binary"`` is rejected when a session starts on a stream that
        does not have exactly two classes.
    warmup_batches:
        Number of initial batches used purely for training (no scoring);
        the first batch can never be scored because the model has not seen
        any data yet, so the minimum (and default) is 1.  Under delayed
        labels scoring additionally waits until the first labels have
        arrived and trained the model.
    """

    def __init__(
        self,
        batch_fraction: float = 0.001,
        batch_size: int | None = None,
        f1_average: str = "weighted",
        warmup_batches: int = 1,
    ) -> None:
        check_in_range(batch_fraction, "batch_fraction", 0.0, 1.0, inclusive=False)
        if warmup_batches < 1:
            raise ValueError(f"warmup_batches must be >= 1, got {warmup_batches!r}.")
        self.batch_fraction = float(batch_fraction)
        self.batch_size = batch_size
        self.f1_average = check_average(f1_average)
        self.warmup_batches = int(warmup_batches)

    def session(
        self,
        model: StreamClassifier,
        stream: Stream,
        model_name: str | None = None,
        dataset_name: str | None = None,
        max_iterations: int | None = None,
    ) -> PrequentialSession:
        """Create a resumable session for one model on one stream."""
        return PrequentialSession(
            model,
            stream,
            batch_fraction=self.batch_fraction,
            batch_size=self.batch_size,
            f1_average=self.f1_average,
            warmup_batches=self.warmup_batches,
            model_name=model_name,
            dataset_name=dataset_name,
            max_iterations=max_iterations,
        )

    def evaluate(
        self,
        model: StreamClassifier,
        stream: Stream,
        model_name: str | None = None,
        dataset_name: str | None = None,
        max_iterations: int | None = None,
    ) -> PrequentialResult:
        """Run the prequential protocol of one model on one stream."""
        return self.session(
            model,
            stream,
            model_name=model_name,
            dataset_name=dataset_name,
            max_iterations=max_iterations,
        ).run()
