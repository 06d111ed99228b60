"""Leveraging Bagging (Bifet, Holmes & Pfahringer, 2010).

Leveraging Bagging increases the resampling diversity of online bagging by
drawing the per-observation weights from ``Poisson(6)`` and attaches one
ADWIN detector per ensemble member; when the member with the highest ADWIN
error estimate detects a change, that member is reset.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.base import StreamClassifier
from repro.drift.adwin import ADWIN
from repro.telemetry import ENSEMBLE_MEMBER_DRIFT, TELEMETRY
from repro.ensembles.bagging import OzaBaggingClassifier, detector_saw_mean_increase


class LeveragingBaggingClassifier(OzaBaggingClassifier):
    """Leveraging Bagging ensemble of Hoeffding Trees.

    Parameters
    ----------
    n_estimators:
        Number of ensemble members (3 in the paper's experiments).
    base_estimator_factory:
        Factory for the weak learners; defaults to a VFDT with
        majority-class leaves.
    poisson_lambda:
        Poisson rate of the leveraged resampling (default 6.0).
    adwin_delta:
        Confidence of the per-member ADWIN detectors.
    random_state:
        Seed controlling the Poisson draws.
    """

    def __init__(
        self,
        n_estimators: int = 3,
        base_estimator_factory: Callable[[], StreamClassifier] | None = None,
        poisson_lambda: float = 6.0,
        adwin_delta: float = 0.002,
        random_state: int | None = None,
    ) -> None:
        super().__init__(
            n_estimators=n_estimators,
            base_estimator_factory=base_estimator_factory,
            poisson_lambda=poisson_lambda,
            random_state=random_state,
        )
        self.adwin_delta = float(adwin_delta)
        self._detectors = [ADWIN(delta=adwin_delta) for _ in range(self.n_estimators)]
        self.n_member_resets = 0

    def reset(self) -> "LeveragingBaggingClassifier":
        super().reset()
        self._detectors = [
            ADWIN(delta=self.adwin_delta) for _ in range(self.n_estimators)
        ]
        self.n_member_resets = 0
        return self

    def partial_fit(
        self, X: np.ndarray, y: np.ndarray, classes: np.ndarray | None = None
    ) -> "LeveragingBaggingClassifier":
        X, y = self._validate_input(X, y)
        self._update_classes(y, classes)

        # Update the per-member drift detectors with the members' errors on
        # the incoming batch (test-then-train at the member level).  Only an
        # *increase* of the error estimate counts as drift -- the error
        # dropping while a member learns must not trigger a reset.
        change_detected = False
        for estimator_idx, estimator in enumerate(self.estimators_):
            if estimator.classes_ is None:
                continue
            predictions = estimator.predict(X)
            errors = (predictions != y).astype(float)
            if detector_saw_mean_increase(self._detectors[estimator_idx], errors):
                change_detected = True

        if change_detected:
            # Reset the member with the highest estimated error.
            error_estimates = [detector.mean for detector in self._detectors]
            worst = int(np.argmax(error_estimates))
            self.estimators_[worst] = self._make_estimator()
            self._detectors[worst] = ADWIN(delta=self.adwin_delta)
            self.n_member_resets += 1
            if TELEMETRY.enabled:
                TELEMETRY.emit(
                    ENSEMBLE_MEMBER_DRIFT,
                    model=type(self).__name__,
                    member=worst,
                    detector="ADWIN",
                )

        return super().partial_fit(X, y, classes=classes)
