"""Incremental Gaussian Naive Bayes.

Used as the leaf predictor of the VFDT(NBA) baseline [Gama et al. 2003]: the
"adaptive" variant keeps both a majority-class vote and a Naive Bayes model
per leaf and uses whichever has made fewer mistakes on the data seen at that
leaf so far.
"""

from __future__ import annotations

import numpy as np

from repro.persistence.registry import register


@register
class GaussianNaiveBayes:
    """Gaussian Naive Bayes with incremental (Welford) moment updates.

    Parameters
    ----------
    n_features:
        Dimensionality of the input.
    n_classes:
        Size of the class space.  Classes are indexed ``0 .. n_classes - 1``.
    var_smoothing:
        Additive variance floor that keeps the per-feature Gaussians proper
        when a class has seen constant feature values.
    """

    def __init__(
        self, n_features: int, n_classes: int, var_smoothing: float = 1e-6
    ) -> None:
        if n_features < 1:
            raise ValueError(f"n_features must be >= 1, got {n_features}.")
        if n_classes < 2:
            raise ValueError(f"n_classes must be >= 2, got {n_classes}.")
        self.n_features = int(n_features)
        self.n_classes = int(n_classes)
        self.var_smoothing = float(var_smoothing)
        self.class_counts = np.zeros(n_classes)
        self._means = np.zeros((n_classes, n_features))
        self._m2 = np.zeros((n_classes, n_features))

    @property
    def total_count(self) -> float:
        return float(self.class_counts.sum())

    @property
    def n_parameters(self) -> int:
        """Parameter count used by the paper's complexity accounting.

        The paper counts ``m`` conditional-probability parameters per class
        for Naive Bayes leaves.
        """
        return self.n_features * self.n_classes

    # --------------------------------------------------------------- update
    def update(self, X: np.ndarray, y: np.ndarray) -> "GaussianNaiveBayes":
        """Update the per-class feature moments with a batch."""
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        y = np.asarray(y, dtype=int)
        for xi, yi in zip(X, y):
            self.class_counts[yi] += 1.0
            count = self.class_counts[yi]
            delta = xi - self._means[yi]
            self._means[yi] += delta / count
            self._m2[yi] += delta * (xi - self._means[yi])
        return self

    # ------------------------------------------------------------ inference
    def _variances(self) -> np.ndarray:
        counts = np.maximum(self.class_counts, 1.0)[:, None]
        return self._m2 / counts + self.var_smoothing

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Return class probabilities, shape ``(n, n_classes)``."""
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        if self.total_count == 0:
            return np.full((len(X), self.n_classes), 1.0 / self.n_classes)
        log_prior = np.log(
            np.maximum(self.class_counts, 1e-12) / max(self.total_count, 1e-12)
        )
        variances = self._variances()
        # log N(x | mean, var) per class, summed over features.  The
        # broadcast over a (n, n_classes, n_features) stack reduces each
        # (row, class) pair over the same contiguous feature axis as the
        # per-class loop in tests/oracles.py, so the two are bit-identical.
        diff = X[:, None, :] - self._means[None, :, :]
        log_likelihood = -0.5 * np.sum(
            np.log(2.0 * np.pi * variances)[None, :, :]
            + diff**2 / variances[None, :, :],
            axis=2,
        )
        log_joint = log_prior + log_likelihood
        log_joint -= log_joint.max(axis=1, keepdims=True)
        proba = np.exp(log_joint)
        return proba / proba.sum(axis=1, keepdims=True)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Return the index of the most likely class for every row."""
        return np.argmax(self.predict_proba(X), axis=1)
