"""Classification metrics for (imbalanced) streaming evaluation.

The paper reports the F1 measure because many of the evaluated data sets are
imbalanced; the implementation here provides macro- and weighted-averaged
precision, recall and F1 on top of a confusion matrix that can be updated
incrementally.  A batch is counted in one pass
(:meth:`ConfusionMatrix.counts`), and every metric of a matrix comes from its
marginals, taken once (:class:`MatrixScores`).
"""

from __future__ import annotations

import numpy as np

from repro.persistence.mixin import PersistableStateMixin


#: The averaging modes of precision, recall and F1.
AVERAGES = ("macro", "weighted", "binary")


def check_average(average: str, classes: np.ndarray | None = None) -> str:
    """Return ``average`` if it is one of :data:`AVERAGES`, else raise.

    With ``classes`` given, ``"binary"`` is also rejected unless there are
    exactly two of them.
    """
    if average not in AVERAGES:
        raise ValueError(
            f"average must be 'macro', 'weighted' or 'binary', got {average!r}."
        )
    if average == "binary" and classes is not None and len(classes) != 2:
        raise ValueError(
            f"binary averaging requires exactly two classes, got {len(classes)}."
        )
    return average


def _ratio(numerator: np.ndarray, denominator: np.ndarray) -> np.ndarray:
    """Elementwise ``numerator / denominator``, and ``0.0`` where it is zero."""
    return np.divide(
        numerator,
        denominator,
        out=np.zeros(len(numerator)),
        where=denominator > 0,
    )


def _beyond(observed: float, baseline: float) -> float:
    """Agreement beyond a reference classifier's (the kappa family's form).

    A degenerate reference, one that is already perfect, scores ``0.0``.
    """
    if baseline >= 1.0:
        return 0.0
    return (observed - baseline) / (1.0 - baseline)


def _no_change_rate(y_true: np.ndarray, last_label: object | None) -> float:
    """Accuracy of predicting each row's label as the previous row's.

    The first row is a miss unless it repeats ``last_label``; ``y_true`` must
    not be empty.
    """
    y_true = np.asarray(y_true)
    same = int(np.count_nonzero(y_true[1:] == y_true[:-1]))
    if last_label is not None and y_true[0] == last_label:
        same += 1
    return same / len(y_true)


class MatrixScores:
    """Every metric of one confusion matrix, from marginals taken once.

    ``matrix[i, j]`` counts the rows of true class ``classes[i]`` predicted
    as ``classes[j]``.  The row sums (support), column sums, diagonal, total
    and accuracy (the observed agreement of the kappa family) are computed
    at construction; each metric is a few operations on them.  Per-class
    arrays follow the order of ``classes``.
    """

    __slots__ = ("classes", "support", "predicted", "correct", "total", "observed")

    def __init__(self, matrix: np.ndarray, classes: np.ndarray) -> None:
        self.classes = classes
        self.support = matrix.sum(axis=1)
        self.predicted = matrix.sum(axis=0)
        self.correct = matrix.diagonal()
        self.total = float(self.support.sum())
        self.observed = float(self.correct.sum()) / self.total if self.total else 0.0

    def accuracy(self) -> float:
        return self.observed

    def per_class_precision(self) -> np.ndarray:
        return _ratio(self.correct, self.predicted)

    def per_class_recall(self) -> np.ndarray:
        return _ratio(self.correct, self.support)

    def per_class_f1(self) -> np.ndarray:
        precision = self.per_class_precision()
        recall = self.per_class_recall()
        return _ratio(2.0 * precision * recall, precision + recall)

    def average(self, per_class: np.ndarray, average: str) -> float:
        """Average a per-class array in one of the :data:`AVERAGES` modes.

        ``"macro"`` ignores classes without support, ``"weighted"`` weighs by
        support (``np.average``'s reduction, so its last bit is numpy's) and
        ``"binary"`` takes the positive class, the larger label (sklearn's
        default of ``pos_label=1`` for ``{0, 1}``), whatever the order of
        ``classes``.
        """
        check_average(average, self.classes)
        if average == "macro":
            present = self.support > 0
            if not present.any():
                return 0.0
            return float(per_class[present].mean())
        if average == "weighted":
            if self.total == 0:
                return 0.0
            return float(np.multiply(per_class, self.support).sum() / self.total)
        return float(per_class[int(np.argmax(self.classes))])

    def precision(self, average: str = "macro") -> float:
        return self.average(self.per_class_precision(), average)

    def recall(self, average: str = "macro") -> float:
        return self.average(self.per_class_recall(), average)

    def f1(self, average: str = "macro") -> float:
        return self.average(self.per_class_f1(), average)

    def kappa(self) -> float:
        """Cohen's kappa: agreement beyond a chance classifier.

        Chance agreement is the dot product of the row and column marginals;
        degenerate windows (empty, or marginals that make chance agreement
        exactly one, e.g. a single observed class) score ``0.0``.
        """
        if self.total == 0:
            return 0.0
        expected = float(self.support @ self.predicted) / (self.total * self.total)
        return _beyond(self.observed, expected)

    def kappa_m(self) -> float:
        """Kappa-M: agreement beyond the majority-class classifier.

        Replaces Cohen's chance term with the accuracy of always predicting
        the most frequent *true* class (Bifet et al., 2015), which is the
        honest baseline on imbalanced streams.  Degenerate windows (empty,
        or a majority baseline that is already perfect) score ``0.0``.
        """
        if self.total == 0:
            return 0.0
        return _beyond(self.observed, float(self.support.max()) / self.total)

    def kappa_temporal(
        self, y_true: np.ndarray, last_label: object | None = None
    ) -> float:
        """Kappa-temporal of the rows counted here (see
        :func:`kappa_temporal_score`); ``y_true`` are their true labels in
        stream order."""
        if self.total == 0:
            return 0.0
        return _beyond(self.observed, _no_change_rate(y_true, last_label))


class ConfusionMatrix(PersistableStateMixin):
    """Incrementally updatable confusion matrix over a fixed class space.

    Rows, columns and the per-class metric arrays follow the order of the
    ``classes`` argument, which need not be sorted.
    """

    def __init__(self, classes: np.ndarray) -> None:
        self.classes = np.asarray(classes)
        if len(self.classes) < 2:
            raise ValueError("At least two classes are required.")
        if len(np.unique(self.classes)) != len(self.classes):
            raise ValueError(f"Duplicate classes in {self.classes!r}.")
        size = len(self.classes)
        self.matrix = np.zeros((size, size), dtype=float)
        # searchsorted requires a sorted array; keep a sorted view plus the
        # permutation back to the caller's class order.
        sort_order = np.argsort(self.classes, kind="stable")
        self._sorted_classes = self.classes[sort_order]
        self._sorted_to_caller = sort_order

    def _index(self, labels: np.ndarray) -> np.ndarray:
        positions = self._sorted_classes.searchsorted(labels)
        positions = np.minimum(positions, len(self._sorted_classes) - 1)
        valid = self._sorted_classes[positions] == labels
        if not valid.all():
            unknown = np.asarray(labels)[~valid]
            raise ValueError(f"Unknown labels encountered: {np.unique(unknown)}.")
        return self._sorted_to_caller[positions]

    def counts(self, y_true: np.ndarray, y_pred: np.ndarray) -> np.ndarray:
        """The confusion matrix of one batch, in one counting pass.

        Both label arrays go through one lookup and one ``np.bincount``; the
        result has the shape and dtype of :attr:`matrix`.
        """
        y_true = np.asarray(y_true)
        y_pred = np.asarray(y_pred)
        n = len(y_true)
        if n != len(y_pred):
            raise ValueError("y_true and y_pred have inconsistent lengths.")
        size = len(self.classes)
        index = self._index(np.concatenate([y_true, y_pred]))
        cells = index[:n] * size + index[n:]
        counts = np.bincount(cells, minlength=size * size)
        return counts.reshape(size, size).astype(float)

    def update(self, y_true: np.ndarray, y_pred: np.ndarray) -> "ConfusionMatrix":
        self.matrix += self.counts(y_true, y_pred)
        return self

    # ------------------------------------------------------------- metrics
    @property
    def total(self) -> float:
        return float(self.matrix.sum())

    def scores(self) -> MatrixScores:
        """The metrics of the counts so far."""
        return MatrixScores(self.matrix, self.classes)

    def accuracy(self) -> float:
        return self.scores().accuracy()

    def per_class_precision(self) -> np.ndarray:
        return self.scores().per_class_precision()

    def per_class_recall(self) -> np.ndarray:
        return self.scores().per_class_recall()

    def per_class_f1(self) -> np.ndarray:
        return self.scores().per_class_f1()

    def precision(self, average: str = "macro") -> float:
        return self.scores().precision(average)

    def recall(self, average: str = "macro") -> float:
        return self.scores().recall(average)

    def f1(self, average: str = "macro") -> float:
        return self.scores().f1(average)

    def kappa(self) -> float:
        """Cohen's kappa (see :meth:`MatrixScores.kappa`)."""
        return self.scores().kappa()

    def kappa_m(self) -> float:
        """Kappa-M (see :meth:`MatrixScores.kappa_m`)."""
        return self.scores().kappa_m()


def _matrix_from(y_true: np.ndarray, y_pred: np.ndarray) -> ConfusionMatrix:
    classes = np.unique(np.concatenate([np.asarray(y_true), np.asarray(y_pred)]))
    if len(classes) < 2:
        classes = np.unique(np.concatenate([classes, [0, 1]]))
    matrix = ConfusionMatrix(classes)
    matrix.update(y_true, y_pred)
    return matrix


def accuracy_score(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Fraction of correct predictions."""
    return _matrix_from(y_true, y_pred).accuracy()


def precision_score(
    y_true: np.ndarray, y_pred: np.ndarray, average: str = "macro"
) -> float:
    """Averaged precision."""
    return _matrix_from(y_true, y_pred).precision(average)


def recall_score(
    y_true: np.ndarray, y_pred: np.ndarray, average: str = "macro"
) -> float:
    """Averaged recall."""
    return _matrix_from(y_true, y_pred).recall(average)


def f1_score(y_true: np.ndarray, y_pred: np.ndarray, average: str = "macro") -> float:
    """Averaged F1 measure (harmonic mean of precision and recall)."""
    return _matrix_from(y_true, y_pred).f1(average)


def cohen_kappa_score(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Cohen's kappa (see :meth:`ConfusionMatrix.kappa`)."""
    return _matrix_from(y_true, y_pred).kappa()


def kappa_m_score(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Kappa-M against the majority-class baseline
    (see :meth:`ConfusionMatrix.kappa_m`)."""
    return _matrix_from(y_true, y_pred).kappa_m()


def kappa_temporal_score(
    y_true: np.ndarray,
    y_pred: np.ndarray,
    last_label: object | None = None,
) -> float:
    """Kappa-temporal: agreement beyond the no-change classifier.

    The reference classifier predicts the *previous* true label (Zliobaite
    et al., 2015), which is the honest baseline on autocorrelated streams.
    ``last_label`` is the true label that preceded ``y_true`` (the previous
    batch's final label in a streaming evaluation); without one the first
    row counts as a no-change miss.  Degenerate windows (empty, or a
    no-change baseline that is already perfect) score ``0.0``.
    """
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if len(y_true) != len(y_pred):
        raise ValueError("y_true and y_pred have inconsistent lengths.")
    if len(y_true) == 0:
        return 0.0
    observed = float(np.mean(y_true == y_pred))
    return _beyond(observed, _no_change_rate(y_true, last_label))
