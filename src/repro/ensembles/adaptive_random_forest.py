"""Adaptive Random Forest (Gomes et al., 2017).

The Adaptive Random Forest (ARF) combines online bagging with per-tree random
feature subspaces and a warning/drift detector pair per tree: when a tree's
warning detector fires, a background tree starts training; when the drift
detector fires, the background tree replaces the foreground tree.

Following the paper's configuration, the ensemble uses 3 Hoeffding Tree weak
learners configured like the stand-alone VFDT.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.base import ComplexityReport, StreamClassifier
from repro.drift.adwin import ADWIN
from repro.persistence.registry import register
from repro.telemetry import ENSEMBLE_MEMBER_DRIFT, TELEMETRY
from repro.ensembles.bagging import (
    accumulate_member_votes,
    detector_saw_mean_increase,
)
from repro.trees.vfdt import HoeffdingTreeClassifier
from repro.utils.validation import check_positive, check_random_state


@register
class _ForestMember:
    """One ARF member: a foreground tree, detectors, optional background tree."""

    __slots__ = (
        "tree",
        "feature_indices",
        "warning_detector",
        "drift_detector",
        "background_tree",
    )

    def __init__(
        self,
        tree: StreamClassifier,
        feature_indices: np.ndarray,
        warning_detector: ADWIN,
        drift_detector: ADWIN,
    ) -> None:
        self.tree = tree
        self.feature_indices = feature_indices
        self.warning_detector = warning_detector
        self.drift_detector = drift_detector
        self.background_tree: StreamClassifier | None = None


class AdaptiveRandomForestClassifier(StreamClassifier):
    """Adaptive Random Forest of Hoeffding Trees.

    Parameters
    ----------
    n_estimators:
        Number of trees (3 in the paper's experiments).
    base_estimator_factory:
        Factory for the weak learners; defaults to a VFDT with
        majority-class leaves.
    max_features:
        Number of features available to each tree.  ``None`` uses
        ``round(sqrt(m))``, the ARF default.
    poisson_lambda:
        Rate of the online-bagging Poisson re-weighting (ARF default: 6.0).
    warning_delta / drift_delta:
        Confidence levels of the per-tree ADWIN warning and drift detectors.
    random_state:
        Seed controlling feature subspaces and Poisson draws.
    """

    def __init__(
        self,
        n_estimators: int = 3,
        base_estimator_factory: Callable[[], StreamClassifier] | None = None,
        max_features: int | None = None,
        poisson_lambda: float = 6.0,
        warning_delta: float = 0.01,
        drift_delta: float = 0.001,
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
        self.max_features = max_features
        self.poisson_lambda = float(poisson_lambda)
        self.warning_delta = float(warning_delta)
        self.drift_delta = float(drift_delta)
        self.random_state = random_state
        self._rng = check_random_state(random_state)
        self.members_: list[_ForestMember] = []
        self.n_warnings = 0
        self.n_drifts = 0

    # -------------------------------------------------------------- fitting
    def reset(self) -> "AdaptiveRandomForestClassifier":
        self.classes_ = None
        self.n_features_ = None
        self._rng = check_random_state(self.random_state)
        self.members_ = []
        self.n_warnings = 0
        self.n_drifts = 0
        return self

    def _init_members(self) -> None:
        n_sub_features = self.max_features
        if n_sub_features is None:
            n_sub_features = max(int(round(np.sqrt(self.n_features_))), 1)
        n_sub_features = min(n_sub_features, self.n_features_)
        self.members_ = []
        for _ in range(self.n_estimators):
            feature_indices = np.sort(
                self._rng.choice(self.n_features_, size=n_sub_features, replace=False)
            )
            self.members_.append(
                _ForestMember(
                    tree=self._make_estimator(),
                    feature_indices=feature_indices,
                    warning_detector=ADWIN(delta=self.warning_delta),
                    drift_detector=ADWIN(delta=self.drift_delta),
                )
            )

    def partial_fit(
        self, X: np.ndarray, y: np.ndarray, classes: np.ndarray | None = None
    ) -> "AdaptiveRandomForestClassifier":
        X, y = self._validate_input(X, y)
        self._update_classes(y, classes)
        if not self.members_:
            self._init_members()

        # One generator call for the whole batch fills the matrix in the
        # same draw order as one call per member (the detector updates in
        # between consume no randomness).
        weight_matrix = self._rng.poisson(
            self.poisson_lambda, size=(self.n_estimators, len(X))
        )
        for member_idx, member in enumerate(self.members_):
            X_sub = X[:, member.feature_indices]

            # Drift monitoring on the member's prequential errors.  A change
            # only counts as a warning/drift when the error estimate went up;
            # improvements (the error dropping while the tree learns) must not
            # reset the member.
            if member.tree.classes_ is not None:
                predictions = member.tree.predict(X_sub)
                errors = (predictions != y).astype(float)
                warning = detector_saw_mean_increase(
                    member.warning_detector, errors
                )
                drift = detector_saw_mean_increase(member.drift_detector, errors)
                if warning and member.background_tree is None:
                    member.background_tree = self._make_estimator()
                    self.n_warnings += 1
                if drift:
                    if member.background_tree is not None:
                        member.tree = member.background_tree
                        member.background_tree = None
                    else:
                        member.tree = self._make_estimator()
                    member.warning_detector = ADWIN(delta=self.warning_delta)
                    member.drift_detector = ADWIN(delta=self.drift_delta)
                    self.n_drifts += 1
                    if TELEMETRY.enabled:
                        TELEMETRY.emit(
                            ENSEMBLE_MEMBER_DRIFT,
                            model=type(self).__name__,
                            member=int(member_idx),
                            detector="ADWIN",
                        )

            # Online bagging update of the foreground (and background) tree.
            weights = weight_matrix[member_idx]
            mask = weights > 0
            if not np.any(mask):
                continue
            X_rep = np.repeat(X_sub[mask], weights[mask], axis=0)
            y_rep = np.repeat(y[mask], weights[mask], axis=0)
            member.tree.partial_fit(X_rep, y_rep, classes=self.classes_)
            if member.background_tree is not None:
                member.background_tree.partial_fit(X_rep, y_rep, classes=self.classes_)
        return self

    def _make_estimator(self) -> StreamClassifier:
        return self.base_estimator_factory()

    # ------------------------------------------------------------ inference
    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        X, _ = self._validate_input(X)
        if self.classes_ is None:
            raise RuntimeError("predict_proba() called before partial_fit().")
        votes = np.zeros((len(X), self.n_classes_))
        for member in self.members_:
            if member.tree.classes_ is None:
                continue
            proba = member.tree.predict_proba(X[:, member.feature_indices])
            accumulate_member_votes(
                votes, proba, member.tree.classes_, self.classes_
            )
        row_sums = votes.sum(axis=1, keepdims=True)
        row_sums[row_sums == 0.0] = 1.0
        return votes / row_sums

    # ------------------------------------------------------- interpretability
    def complexity(self) -> ComplexityReport:
        report = ComplexityReport(n_splits=0, n_parameters=0)
        for member in self.members_:
            report = report + member.tree.complexity()
        return report
