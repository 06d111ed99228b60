"""Base interfaces shared by every online learning model in the package.

The paper evaluates all models with the same prequential protocol and the
same complexity accounting, so every classifier implements a single small
interface: :meth:`StreamClassifier.partial_fit`, :meth:`StreamClassifier.predict`
and :meth:`StreamClassifier.complexity`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.persistence.mixin import PersistableStateMixin
from repro.utils.validation import check_features, check_labels


@dataclass(frozen=True)
class ComplexityReport:
    """Snapshot of a model's structural complexity.

    The counting rules follow Section VI-D2 of the paper:

    * ``n_splits`` -- every inner node counts as one split; majority-class
      leaves add nothing; a leaf holding a binary classifier adds one more
      split and a leaf holding a multiclass classifier adds ``c`` more splits.
    * ``n_parameters`` -- one parameter per inner node (the split value);
      majority-class leaves count one parameter; leaves holding linear models
      or Naive Bayes classifiers count ``m`` parameters per class involved.
    * ``n_nodes`` / ``n_leaves`` / ``depth`` -- raw structural statistics that
      are useful for ablations and debugging even though the paper reports
      only splits and parameters.
    """

    n_splits: float
    n_parameters: float
    n_nodes: int = 0
    n_leaves: int = 0
    depth: int = 0

    def __add__(self, other: "ComplexityReport") -> "ComplexityReport":
        return ComplexityReport(
            n_splits=self.n_splits + other.n_splits,
            n_parameters=self.n_parameters + other.n_parameters,
            n_nodes=self.n_nodes + other.n_nodes,
            n_leaves=self.n_leaves + other.n_leaves,
            depth=max(self.depth, other.depth),
        )


class StreamClassifier(PersistableStateMixin, ABC):
    """Abstract incremental classifier.

    Subclasses are updated with (mini-)batches of observations via
    :meth:`partial_fit` and queried with :meth:`predict` /
    :meth:`predict_proba`.  All models operate on dense numeric feature
    matrices; categorical features are assumed to be factorised upstream
    (see :func:`repro.streams.preprocessing.factorize_columns`), exactly as
    in the paper's preprocessing.
    """

    def __init__(self) -> None:
        self.classes_: np.ndarray | None = None
        self.n_features_: int | None = None

    # ------------------------------------------------------------------ API
    @abstractmethod
    def partial_fit(
        self, X: np.ndarray, y: np.ndarray, classes: np.ndarray | None = None
    ) -> "StreamClassifier":
        """Update the model with a batch of observations."""

    @abstractmethod
    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Return class membership probabilities, shape ``(n, n_classes)``."""

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Return the most likely class label for every row of ``X``."""
        proba = self.predict_proba(X)
        if self.classes_ is None:
            raise RuntimeError("predict() called before partial_fit().")
        return self.classes_[np.argmax(proba, axis=1)]

    @abstractmethod
    def complexity(self) -> ComplexityReport:
        """Return the current structural complexity of the model."""

    @abstractmethod
    def reset(self) -> "StreamClassifier":
        """Forget everything that has been learned."""

    # ------------------------------------------------------------ utilities
    def _validate_input(
        self, X: np.ndarray, y: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray | None]:
        X = check_features(X)
        if self.n_features_ is None:
            self.n_features_ = X.shape[1]
        elif X.shape[1] != self.n_features_:
            raise ValueError(
                f"Expected {self.n_features_} features, got {X.shape[1]}."
            )
        if y is None:
            return X, None
        y = check_labels(y)
        if len(y) != len(X):
            raise ValueError(
                f"X and y have inconsistent lengths: {len(X)} vs {len(y)}."
            )
        return X, y

    def _update_classes(
        self,
        y: np.ndarray,
        classes: np.ndarray | None,
        max_classes: int | None = None,
    ) -> np.ndarray:
        """Track the set of observed class labels; return ``class_index(y)``.

        Models that need a fixed class space up-front (e.g. the GLMs of the
        DMT) should pass ``classes`` on the first call to ``partial_fit``;
        otherwise the class set grows as new labels are observed.  Such a
        model passes the width it was built with as ``max_classes``: a batch
        that would grow the class set beyond it raises ``ValueError`` before
        ``classes_`` changes, so the rejected batch leaves the model as it
        was.
        """
        known = self.classes_
        if known is not None:
            # Fast path for the common steady state: every incoming label is
            # already known, so the sorted class array is unchanged and one
            # search yields the indices.  A class array equal to classes_
            # (the evaluator passes its own copy) adds no label either.
            pending = y
            if not (
                classes is None or classes is known or np.array_equal(classes, known)
            ):
                pending = np.concatenate([y, np.asarray(classes).ravel()])
            positions = np.searchsorted(known, pending)
            # ``take`` clips a label above every known class onto the last
            # one, which then differs from it.
            if np.array_equal(known.take(positions, mode="clip"), pending):
                return positions[: len(y)]
        seen = set() if known is None else set(known.tolist())
        if classes is not None:
            seen.update(np.asarray(classes).tolist())
        seen.update(np.unique(y).tolist())
        if max_classes is not None and len(seen) > max_classes:
            raise ValueError(
                "New class labels appeared after the model was initialised; "
                "pass the full class set via `classes` on the first call to "
                "partial_fit()."
            )
        self.classes_ = np.array(sorted(seen))
        return self.class_index(y)

    @property
    def n_classes_(self) -> int:
        if self.classes_ is None:
            return 0
        return len(self.classes_)

    def class_index(self, y: np.ndarray) -> np.ndarray:
        """Map raw labels to indices into :attr:`classes_`."""
        if self.classes_ is None:
            raise RuntimeError("No classes observed yet.")
        return np.searchsorted(self.classes_, y)
