"""Online bagging (Oza & Russell, 2001).

Online bagging approximates bootstrap resampling in a stream by presenting
every observation to each ensemble member ``k ~ Poisson(λ)`` times.  It is
the common substrate of the Leveraging Bagging and Adaptive Random Forest
baselines.

Each batch draws the whole ``(n_estimators, n)`` Poisson weight matrix with
one generator call (numpy fills it in the same draw order as per-member
calls, so the resampling is bit-identical to them) and aligns member votes
onto the ensemble's class space with one ``searchsorted`` scatter instead of
a Python loop per member column.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.base import ComplexityReport, StreamClassifier
from repro.drift.adwin import ADWIN
from repro.trees.vfdt import HoeffdingTreeClassifier
from repro.utils.validation import check_positive, check_random_state


def accumulate_member_votes(
    votes: np.ndarray,
    proba: np.ndarray,
    member_classes: np.ndarray,
    ensemble_classes: np.ndarray,
) -> None:
    """Add one member's class-aligned votes in place.

    All matching columns are scattered at once; distinct member labels map
    to distinct targets, so the fancy-indexed addition touches disjoint
    columns and matches per-column adds bit-for-bit.
    """
    targets = np.searchsorted(ensemble_classes, member_classes)
    valid = targets < len(ensemble_classes)
    if np.any(valid):
        clipped = targets[valid]
        valid_columns = np.flatnonzero(valid)
        matches = ensemble_classes[clipped] == member_classes[valid_columns]
        if np.any(matches):
            votes[:, clipped[matches]] += proba[:, valid_columns[matches]]


def detector_saw_mean_increase(detector: "ADWIN", errors: np.ndarray) -> bool:
    """Feed ``errors`` through ``detector.update_many`` chunks.

    Returns ``True`` when any drift event raised the detector's mean above
    its value just before the firing insertion -- the batched equivalent of
    the per-value ``before = mean; update(); mean > before`` loops the
    ensembles used to run.  Requires an ADWIN-style detector: both ``mean``
    and the ``mean_before_last_drift`` bookkeeping set by
    :meth:`repro.drift.adwin.ADWIN.update_many` are read here; generic
    detectors implement ``update_many`` but track no window mean.
    """
    increased = False
    start = 0
    while start < len(errors):
        index = detector.update_many(errors[start:])
        if index is None:
            break
        if detector.mean > detector.mean_before_last_drift:
            increased = True
        start += index + 1
    return increased


class OzaBaggingClassifier(StreamClassifier):
    """Online bagging ensemble.

    Parameters
    ----------
    n_estimators:
        Number of ensemble members (the paper uses 3 weak learners).
    base_estimator_factory:
        Callable returning a fresh :class:`StreamClassifier`; defaults to a
        VFDT with majority-class leaves, matching the paper's configuration.
    poisson_lambda:
        Rate of the Poisson re-weighting (1.0 for classic online bagging,
        6.0 for Leveraging Bagging).
    random_state:
        Seed controlling the Poisson draws.
    """

    def __init__(
        self,
        n_estimators: int = 3,
        base_estimator_factory: Callable[[], StreamClassifier] | None = None,
        poisson_lambda: float = 1.0,
        random_state: int | None = None,
    ) -> None:
        super().__init__()
        if n_estimators < 1:
            raise ValueError(f"n_estimators must be >= 1, got {n_estimators!r}.")
        check_positive(poisson_lambda, "poisson_lambda")
        self.n_estimators = int(n_estimators)
        self.base_estimator_factory = (
            base_estimator_factory
            if base_estimator_factory is not None
            else HoeffdingTreeClassifier
        )
        self.poisson_lambda = float(poisson_lambda)
        self.random_state = random_state
        self._rng = check_random_state(random_state)
        self.estimators_: list[StreamClassifier] = [
            self._make_estimator() for _ in range(self.n_estimators)
        ]

    def _make_estimator(self) -> StreamClassifier:
        return self.base_estimator_factory()

    # -------------------------------------------------------------- fitting
    def reset(self) -> "OzaBaggingClassifier":
        self.classes_ = None
        self.n_features_ = None
        self._rng = check_random_state(self.random_state)
        self.estimators_ = [
            self._make_estimator() for _ in range(self.n_estimators)
        ]
        return self

    def partial_fit(
        self, X: np.ndarray, y: np.ndarray, classes: np.ndarray | None = None
    ) -> "OzaBaggingClassifier":
        X, y = self._validate_input(X, y)
        self._update_classes(y, classes)
        weights = self._batch_weights(len(X))
        for estimator_idx, estimator in enumerate(self.estimators_):
            member_weights = weights[estimator_idx]
            repeat = member_weights.astype(int)
            mask = repeat > 0
            if not np.any(mask):
                continue
            X_rep = np.repeat(X[mask], repeat[mask], axis=0)
            y_rep = np.repeat(y[mask], repeat[mask], axis=0)
            estimator.partial_fit(X_rep, y_rep, classes=self.classes_)
        return self

    def _batch_weights(self, n: int) -> np.ndarray:
        """Poisson weights of the whole batch, shape ``(n_estimators, n)``.

        One generator call fills the matrix in the same order as one draw
        per member would, so it consumes the random stream identically.
        """
        return self._rng.poisson(self.poisson_lambda, size=(self.n_estimators, n))

    # ------------------------------------------------------------ inference
    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        X, _ = self._validate_input(X)
        if self.classes_ is None:
            raise RuntimeError("predict_proba() called before partial_fit().")
        votes = np.zeros((len(X), self.n_classes_))
        for estimator in self.estimators_:
            if estimator.classes_ is None:
                continue
            proba = estimator.predict_proba(X)
            accumulate_member_votes(
                votes, proba, estimator.classes_, self.classes_
            )
        row_sums = votes.sum(axis=1, keepdims=True)
        row_sums[row_sums == 0.0] = 1.0
        return votes / row_sums

    # ------------------------------------------------------- interpretability
    def complexity(self) -> ComplexityReport:
        report = ComplexityReport(n_splits=0, n_parameters=0)
        for estimator in self.estimators_:
            report = report + estimator.complexity()
        return report
