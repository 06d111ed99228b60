"""Classification metrics for (imbalanced) streaming evaluation.

The paper reports the F1 measure because many of the evaluated data sets are
imbalanced; the implementation here provides macro- and weighted-averaged
precision, recall and F1 on top of a confusion matrix that can be updated
incrementally.  A batch is counted in one pass
(:meth:`ConfusionMatrix.counts`).  :class:`MatrixScores` is the one scorer:
it takes a stack of confusion matrices, reads their marginals once and
derives every metric of every matrix in one vectorised pass.  The
prequential evaluator scores all of a run's batches that way when the run
ends; :class:`ConfusionMatrix`, the holdout evaluator and the ``*_score``
functions go through the same class.
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
    """Elementwise ``numerator / denominator``, and ``0.0`` where it is zero.

    The masked cells are never divided, so nothing is computed there to warn
    about.
    """
    return np.divide(
        numerator,
        denominator,
        out=np.zeros(np.shape(numerator)),
        where=denominator > 0,
    )


def _beyond(observed: np.ndarray, baseline: np.ndarray) -> np.ndarray:
    """Agreement beyond a reference classifier's (the kappa family's form).

    A degenerate reference, one that is already perfect, scores ``0.0``; so
    does an empty matrix, whose observed and reference agreement are both
    ``0.0``.
    """
    return np.divide(
        observed - baseline,
        1.0 - baseline,
        out=np.zeros(np.shape(observed)),
        where=baseline < 1.0,
    )


def no_change_count(y_true: np.ndarray, last_label: object | None) -> int:
    """Rows whose true label repeats the previous row's.

    These are the hits of kappa-temporal's no-change classifier.  The first
    row is compared with ``last_label`` and is a miss without one.
    """
    y_true = np.asarray(y_true)
    if len(y_true) == 0:
        return 0
    same = int(np.count_nonzero(y_true[1:] == y_true[:-1]))
    if last_label is not None and y_true[0] == last_label:
        same += 1
    return same


class MatrixScores:
    """Every metric of a stack of confusion matrices, from marginals taken once.

    ``matrices[b, i, j]`` counts the rows of matrix ``b`` of true class
    ``classes[i]`` predicted as ``classes[j]``; one matrix is the stack of
    one (:meth:`ConfusionMatrix.scores`).  The row sums (support), column
    sums, diagonal, total and accuracy (the observed agreement of the kappa
    family) are computed at construction.  Each metric is a few vectorised
    operations on them and returns one value per matrix; per-class arrays
    hold one row per matrix, in the order of ``classes``.

    A matrix scores the same, bit for bit, in any stack.  Every marginal is
    a sum of integer counts, so it is exact in any order, and the ratios are
    elementwise.  The two inexact reductions run per matrix: weighted F1
    sums one row of products per matrix, and macro F1 averages each
    matrix's present classes as one row of a block of the matrices with as
    many present classes.
    """

    __slots__ = ("classes", "support", "predicted", "correct", "total", "observed")

    def __init__(self, matrices: np.ndarray, classes: np.ndarray) -> None:
        self.classes = np.asarray(classes)
        size = len(self.classes)
        if matrices.ndim != 3 or matrices.shape[1:] != (size, size):
            raise ValueError(
                f"Expected a stack of {size}x{size} matrices, got shape "
                f"{matrices.shape}."
            )
        self.support: np.ndarray = matrices.sum(axis=2)
        self.predicted: np.ndarray = matrices.sum(axis=1)
        self.correct: np.ndarray = matrices.diagonal(axis1=1, axis2=2)
        self.total: np.ndarray = self.support.sum(axis=1)
        self.observed = _ratio(self.correct.sum(axis=1), self.total)

    def accuracy(self) -> np.ndarray:
        return self.observed

    def per_class_precision(self) -> np.ndarray:
        return _ratio(self.correct, self.predicted)

    def per_class_recall(self) -> np.ndarray:
        return _ratio(self.correct, self.support)

    def per_class_f1(self) -> np.ndarray:
        precision = self.per_class_precision()
        recall = self.per_class_recall()
        return _ratio(2.0 * precision * recall, precision + recall)

    def average(self, per_class: np.ndarray, average: str) -> np.ndarray:
        """Average per-class rows in one of the :data:`AVERAGES` modes.

        ``"macro"`` ignores classes without support, ``"weighted"`` weighs by
        support (``np.average``'s reduction, so its last bit is numpy's) and
        ``"binary"`` takes the positive class, the larger label (sklearn's
        default of ``pos_label=1`` for ``{0, 1}``), whatever the order of
        ``classes``.  A matrix without rows scores ``0.0``.
        """
        check_average(average, self.classes)
        if average == "macro":
            present = self.support > 0
            n_present = np.count_nonzero(present, axis=1)
            means = np.zeros(len(per_class))
            for k in np.unique(n_present[n_present > 0]).tolist():
                # Each row holds one matrix's present classes in class order,
                # so it adds what ``per_class[present].mean()`` adds.
                rows = n_present == k
                block = per_class[rows][present[rows]].reshape(-1, k)
                means[rows] = block.mean(axis=1)
            return means
        if average == "weighted":
            return _ratio(np.multiply(per_class, self.support).sum(axis=1), self.total)
        positive: np.ndarray = per_class[:, int(np.argmax(self.classes))]
        return positive

    def precision(self, average: str = "macro") -> np.ndarray:
        return self.average(self.per_class_precision(), average)

    def recall(self, average: str = "macro") -> np.ndarray:
        return self.average(self.per_class_recall(), average)

    def f1(self, average: str = "macro") -> np.ndarray:
        return self.average(self.per_class_f1(), average)

    def kappa(self) -> np.ndarray:
        """Cohen's kappa: agreement beyond a chance classifier.

        Chance agreement is the dot product of the row and column marginals;
        degenerate matrices (empty, or marginals that make chance agreement
        exactly one, e.g. a single observed class) score ``0.0``.
        """
        chance = np.multiply(self.support, self.predicted).sum(axis=1)
        return _beyond(self.observed, _ratio(chance, self.total * self.total))

    def kappa_m(self) -> np.ndarray:
        """Kappa-M: agreement beyond the majority-class classifier.

        Replaces Cohen's chance term with the accuracy of always predicting
        the most frequent *true* class (Bifet et al., 2015), which is the
        honest baseline on imbalanced streams.  Degenerate matrices (empty,
        or a majority baseline that is already perfect) score ``0.0``.
        """
        return _beyond(self.observed, _ratio(self.support.max(axis=1), self.total))

    def kappa_temporal(self, no_change: np.ndarray) -> np.ndarray:
        """Kappa-temporal (see :func:`kappa_temporal_score`).

        ``no_change[b]`` counts the rows of matrix ``b`` whose true label
        repeats the previous one (:func:`no_change_count`).  Degenerate
        matrices (empty, or a no-change baseline that is already perfect)
        score ``0.0``.
        """
        return _beyond(self.observed, _ratio(np.asarray(no_change), self.total))


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
        """The metrics of the counts so far, as a stack of one matrix."""
        return MatrixScores(self.matrix[np.newaxis], self.classes)

    def accuracy(self) -> float:
        return float(self.scores().accuracy()[0])

    def precision(self, average: str = "macro") -> float:
        return float(self.scores().precision(average)[0])

    def recall(self, average: str = "macro") -> float:
        return float(self.scores().recall(average)[0])

    def f1(self, average: str = "macro") -> float:
        return float(self.scores().f1(average)[0])

    def kappa(self) -> float:
        """Cohen's kappa (see :meth:`MatrixScores.kappa`)."""
        return float(self.scores().kappa()[0])

    def kappa_m(self) -> float:
        """Kappa-M (see :meth:`MatrixScores.kappa_m`)."""
        return float(self.scores().kappa_m()[0])


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
    no_change = np.array([no_change_count(y_true, last_label)])
    scores = _matrix_from(y_true, y_pred).scores()
    return float(scores.kappa_temporal(no_change)[0])
