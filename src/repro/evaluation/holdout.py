"""Periodic-holdout evaluation.

The prequential protocol (used in the paper) interleaves testing and training
on every batch.  The classic alternative in the stream literature is periodic
holdout evaluation [Gama et al., 2009]: every ``test_every`` training
observations, the model is frozen and scored on the next ``test_size``
observations, which are *not* used for training.  Periodic holdout gives an
unbiased snapshot of the current model at the cost of discarding the test
observations, and is provided here for methodological comparisons and
ablation studies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.base import StreamClassifier
from repro.evaluation.complexity import summarize_trace
from repro.evaluation.metrics import ConfusionMatrix, MatrixScores, check_average
from repro.streams.base import Stream


@dataclass
class HoldoutResult:
    """Traces and summary statistics of one periodic-holdout run."""

    model_name: str
    dataset_name: str
    n_train_samples: int = 0
    n_test_samples: int = 0
    f1_trace: list[float] = field(default_factory=list)
    accuracy_trace: list[float] = field(default_factory=list)
    n_splits_trace: list[float] = field(default_factory=list)

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
    def n_splits_mean(self) -> float:
        return summarize_trace(self.n_splits_trace)[0]

    def summary(self) -> dict[str, object]:
        return {
            "model": self.model_name,
            "dataset": self.dataset_name,
            "n_train_samples": self.n_train_samples,
            "n_test_samples": self.n_test_samples,
            "f1_mean": self.f1_mean,
            "f1_std": self.f1_std,
            "accuracy_mean": self.accuracy_mean,
            "n_splits_mean": self.n_splits_mean,
        }


class HoldoutEvaluator:
    """Periodic-holdout evaluator.

    Parameters
    ----------
    test_every:
        Number of training observations between two holdout evaluations.
    test_size:
        Number of observations withheld for each evaluation.
    train_batch_size:
        Batch size used for the training phase.
    f1_average:
        Averaging mode of the F1 measure: ``"macro"``, ``"weighted"`` or
        ``"binary"`` (the last only on streams with exactly two classes).
    """

    def __init__(
        self,
        test_every: int = 1000,
        test_size: int = 200,
        train_batch_size: int = 100,
        f1_average: str = "weighted",
    ) -> None:
        if test_every < 1:
            raise ValueError(f"test_every must be >= 1, got {test_every!r}.")
        if test_size < 1:
            raise ValueError(f"test_size must be >= 1, got {test_size!r}.")
        if train_batch_size < 1:
            raise ValueError(
                f"train_batch_size must be >= 1, got {train_batch_size!r}."
            )
        self.test_every = int(test_every)
        self.test_size = int(test_size)
        self.train_batch_size = int(train_batch_size)
        self.f1_average = check_average(f1_average)

    def evaluate(
        self,
        model: StreamClassifier,
        stream: Stream,
        model_name: str | None = None,
        dataset_name: str | None = None,
    ) -> HoldoutResult:
        """Alternate training phases and frozen holdout evaluations.

        A consumed or partly consumed stream is rewound first, as the
        prequential session does, so every call evaluates the whole stream.
        The holdouts are scored together once the stream ends.
        """
        classes = stream.classes
        check_average(self.f1_average, classes)
        if stream.position != 0:
            stream.restart()
        # Only counts: each holdout's matrix is kept for the end pass.
        confusion = ConfusionMatrix(classes)
        holdouts: list[np.ndarray] = []
        result = HoldoutResult(
            model_name=model_name or type(model).__name__,
            dataset_name=dataset_name
            or getattr(stream, "name", type(stream).__name__),
        )
        trained_since_test = 0
        while stream.has_more_samples():
            # ------------------------------------------------ training phase
            to_train = min(
                self.test_every - trained_since_test, stream.n_remaining_samples()
            )
            while to_train > 0:
                batch = min(self.train_batch_size, to_train)
                X, y = stream.next_sample(batch)
                model.partial_fit(X, y, classes=classes)
                result.n_train_samples += len(y)
                trained_since_test += len(y)
                to_train -= len(y)
            if trained_since_test < self.test_every:
                break  # stream exhausted during training
            trained_since_test = 0

            # -------------------------------------------------- holdout test
            if stream.n_remaining_samples() == 0:
                break
            X_test, y_test = stream.next_sample(
                min(self.test_size, stream.n_remaining_samples())
            )
            predictions = model.predict(X_test)
            holdouts.append(confusion.counts(y_test, predictions))
            result.n_splits_trace.append(model.complexity().n_splits)
            result.n_test_samples += len(y_test)
        if holdouts:
            scores = MatrixScores(np.stack(holdouts), confusion.classes)
            result.f1_trace = scores.f1(self.f1_average).tolist()
            result.accuracy_trace = scores.accuracy().tolist()
        return result
