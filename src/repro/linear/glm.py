"""Incremental generalized linear models trained by stochastic gradient descent.

The Dynamic Model Tree uses logit models for binary targets and multinomial
logit (softmax) models for categorical targets (Section V-A).  Both are
implemented here as a single class, :class:`IncrementalGLM`, which

* predicts class probabilities,
* exposes the negative log-likelihood (the DMT loss of Section V-B),
* exposes per-sample gradients of the negative log-likelihood with respect to
  the model parameters (required for the candidate-loss approximation of
  equation (7)), and
* performs constant-learning-rate SGD updates (Section V-A).  One method,
  :meth:`IncrementalGLM.sgd_step`, holds the per-observation step: the DMT
  nodes reach it through :meth:`IncrementalGLM.fit_incremental` and the
  FIMT-DD leaves call it directly, once per observation.

For a binary target the model keeps a single weight vector and uses the
logistic link; for ``c > 2`` classes it keeps a ``(c, m + 1)`` weight matrix
and uses the softmax link.  The last column of the weight matrix is the
intercept.
"""

from __future__ import annotations

import numpy as np

from repro.persistence.registry import register
from repro.utils.validation import check_positive, check_random_state

# Probabilities are clipped to this range before taking logarithms so the
# negative log-likelihood stays finite even for confidently wrong predictions.
_PROBA_EPS = 1e-12


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function, with one exponential.

    ``1 / (1 + exp(-z))`` for ``z >= 0`` and ``exp(z) / (1 + exp(z))``
    below, so no exponential overflows.  ``minimum(z, -z)`` is exactly the
    operand each branch exponentiates: ``-z`` for ``z >= 0``, ``z`` for
    ``z < 0``, and ``z`` itself when it is NaN (``np.minimum`` returns the
    NaN operand), so a NaN keeps its sign bit as well.
    """
    exp_z = np.exp(np.minimum(z, -z))
    denominator = 1.0 + exp_z
    return np.where(z >= 0, 1.0 / denominator, exp_z / denominator)


def _softmax(scores: np.ndarray) -> np.ndarray:
    """Row-wise softmax with the usual max-shift stabilisation."""
    shifted = scores - scores.max(axis=1, keepdims=True)
    exp_scores = np.exp(shifted)
    return exp_scores / exp_scores.sum(axis=1, keepdims=True)


@register
class IncrementalGLM:
    """Logit / multinomial-logit model with SGD updates.

    Parameters
    ----------
    n_features:
        Number of input features ``m``.
    n_classes:
        Number of target classes ``c`` (``>= 2``).
    learning_rate:
        Constant SGD learning rate (the paper recommends ``0.05`` for the
        DMT and uses ``0.01`` inside FIMT-DD).
    rng:
        Seed or generator for the random weight initialisation.
    init_scale:
        Standard deviation of the Gaussian weight initialisation.  The paper
        notes that random initial weights mainly affect the root node because
        all other nodes are warm-started from their parent.
    """

    def __init__(
        self,
        n_features: int,
        n_classes: int = 2,
        learning_rate: float = 0.05,
        rng=None,
        init_scale: float = 0.01,
    ) -> None:
        if n_features < 1:
            raise ValueError(f"n_features must be >= 1, got {n_features}.")
        if n_classes < 2:
            raise ValueError(f"n_classes must be >= 2, got {n_classes}.")
        check_positive(learning_rate, "learning_rate")
        self.n_features = int(n_features)
        self.n_classes = int(n_classes)
        self.learning_rate = float(learning_rate)
        self.init_scale = float(init_scale)
        generator = check_random_state(rng)
        self.weights = generator.normal(
            0.0, self.init_scale, size=self._weight_shape()
        )

    # ----------------------------------------------------------- structure
    def _weight_shape(self) -> tuple[int, ...]:
        if self.n_classes == 2:
            return (self.n_features + 1,)
        return (self.n_classes, self.n_features + 1)

    @property
    def n_parameters(self) -> int:
        """Number of free parameters ``k`` (used by the AIC threshold)."""
        return self.weights.size

    def clone(self, warm_start: bool = True, rng=None) -> "IncrementalGLM":
        """Return a copy of this model.

        With ``warm_start=True`` (the DMT default) the copy starts from the
        current weights, which is how child nodes inherit their parent's
        parameters.  With ``warm_start=False`` the copy draws fresh initial
        weights from ``rng``; pass a seed or generator to make the cold
        start reproducible (an unseeded generator is used otherwise).
        """
        copy = type(self)(
            n_features=self.n_features,
            n_classes=self.n_classes,
            learning_rate=self.learning_rate,
            rng=rng,
            init_scale=self.init_scale,
        )
        if warm_start:
            copy.weights = self.weights.copy()
        return copy

    # ----------------------------------------------------------- inference
    @staticmethod
    def augment(X: np.ndarray) -> np.ndarray:
        """Append the intercept column (the layout every weight vector uses).

        The result is always a fresh C-contiguous float64 array, whatever
        the layout of ``X``, so every product downstream sees the same
        operands.
        """
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        n_rows, n_features = X.shape
        X_aug = np.empty((n_rows, n_features + 1))
        X_aug[:, :n_features] = X
        X_aug[:, n_features] = 1.0
        return X_aug

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Return probabilities of shape ``(n, n_classes)``."""
        X_aug = self.augment(X)
        if self.n_classes == 2:
            # One (n, 2) array instead of np.column_stack's two temporaries.
            p_one = _sigmoid(X_aug @ self.weights)
            proba = np.empty((len(p_one), 2))
            proba[:, 0] = 1.0 - p_one
            proba[:, 1] = p_one
            return proba
        return _softmax(X_aug @ self.weights.T)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Return the index of the most likely class for every row."""
        return np.argmax(self.predict_proba(X), axis=1)

    # -------------------------------------------------------------- losses
    def log_likelihood(self, X: np.ndarray, y: np.ndarray) -> float:
        """Total log-likelihood of the batch (sum over samples)."""
        return float(np.sum(self.per_sample_log_likelihood(X, y)))

    def per_sample_log_likelihood(
        self, X: np.ndarray, y: np.ndarray
    ) -> np.ndarray:
        """Log-likelihood contribution of every sample, shape ``(n,)``."""
        y = np.asarray(y, dtype=int)
        proba = self.predict_proba(X)
        chosen = np.clip(proba[np.arange(len(y)), y], _PROBA_EPS, 1.0)
        return np.log(chosen)

    def negative_log_likelihood(self, X: np.ndarray, y: np.ndarray) -> float:
        """Negative log-likelihood loss of the batch (the DMT loss)."""
        return -self.log_likelihood(X, y)

    def per_sample_negative_log_likelihood(
        self, X: np.ndarray, y: np.ndarray
    ) -> np.ndarray:
        """Per-sample negative log-likelihood, shape ``(n,)``."""
        return -self.per_sample_log_likelihood(X, y)

    # ------------------------------------------------------------ gradients
    def per_sample_gradient(self, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Per-sample gradient of the negative log-likelihood.

        Returns an array of shape ``(n, n_parameters)`` whose rows are the
        gradients of the per-sample NLL with respect to the flattened weight
        array.  Summing arbitrary subsets of rows therefore gives the exact
        gradient of the corresponding subset loss, which is what the DMT's
        split-candidate statistics require (Algorithm 1, lines 8-9).
        """
        y = np.asarray(y, dtype=int)
        X_aug = self.augment(X)
        proba = self.predict_proba(X)
        if self.n_classes == 2:
            errors = proba[:, 1] - (y == 1).astype(float)
            return errors[:, None] * X_aug
        one_hot = np.zeros_like(proba)
        one_hot[np.arange(len(y)), y] = 1.0
        errors = proba - one_hot  # (n, c)
        # grad[i] has shape (c, m + 1); flatten per sample.
        grads = errors[:, :, None] * X_aug[:, None, :]
        return grads.reshape(len(y), -1)

    def gradient(self, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Gradient of the batch negative log-likelihood (flattened)."""
        return self.per_sample_gradient(X, y).sum(axis=0)

    def per_sample_loss_and_gradient(
        self, X: np.ndarray, y: np.ndarray, X_aug: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-sample NLL and its gradients from one shared forward pass.

        Bit-identical to calling :meth:`per_sample_negative_log_likelihood`
        and :meth:`per_sample_gradient` separately, but augments the batch
        and evaluates the link function only once -- the DMT node update
        needs both quantities for every batch.  ``X_aug`` optionally supplies
        a precomputed :meth:`augment` of the batch.
        """
        y = np.asarray(y, dtype=int)
        if X_aug is None:
            X_aug = self.augment(X)
        if self.n_classes == 2:
            p_one = _sigmoid(X_aug @ self.weights)
            y_is_one = y == 1
            errors = p_one - y_is_one.astype(float)
            grads = errors[:, None] * X_aug
            # Selecting per-sample probabilities directly is the same gather
            # predict_proba's [1 - p, p] columns + fancy index perform.
            chosen = np.where(y_is_one, p_one, 1.0 - p_one)
        else:
            proba = _softmax(X_aug @ self.weights.T)
            one_hot = np.zeros_like(proba)
            one_hot[np.arange(len(y)), y] = 1.0
            errors = proba - one_hot
            grads = (errors[:, :, None] * X_aug[:, None, :]).reshape(len(y), -1)
            chosen = proba[np.arange(len(y)), y]
        return -np.log(np.clip(chosen, _PROBA_EPS, 1.0)), grads

    # --------------------------------------------------------------- update
    def update(self, X: np.ndarray, y: np.ndarray) -> "IncrementalGLM":
        """Perform one SGD step on the mean batch gradient.

        The optimal parameters of the previous time step act as the prior for
        the current step (Section IV of the paper), which corresponds to a
        plain incremental SGD update here.  No model of this package trains
        with mini-batch steps: the DMT nodes use :meth:`fit_incremental` and
        the FIMT-DD leaves :meth:`sgd_step`.  On a one-row batch this is the
        step :meth:`sgd_step` takes.
        """
        X = self._coerce_batch(X)
        if X is None:
            return self
        grad = self.gradient(X, y) / len(X)
        self.weights = self.weights - self.learning_rate * grad.reshape(
            self._weight_shape()
        )
        return self

    @staticmethod
    def _coerce_batch(X: np.ndarray) -> np.ndarray | None:
        """Coerce ``X`` to a 2-D float batch; ``None`` for an empty batch.

        The emptiness check runs *before* the 1-D reshape: reshaping an empty
        1-D array to ``(1, -1)`` would fabricate a ``(1, 0)`` row that crashes
        in the matmul instead of being skipped.
        """
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            if X.size == 0:
                return None
            X = X.reshape(1, -1)
        if len(X) == 0:
            return None
        return X

    def fit_incremental(
        self, X: np.ndarray, y: np.ndarray, X_aug: np.ndarray | None = None
    ) -> "IncrementalGLM":
        """Instance-incremental SGD: one gradient step per observation.

        This is the classic online learning update (and the one the Dynamic
        Model Tree nodes use): every observation of the batch triggers a step
        of size ``learning_rate`` on its own gradient, computed at the current
        weights.  Equivalent to :meth:`update` for a batch of size one, and
        bit-identical to one :meth:`update` per row.  ``X_aug`` optionally
        supplies a precomputed :meth:`augment` of the batch so callers that
        already augmented it (the DMT node update) avoid a second pass.
        FIMT-DD, which routes every observation before training on it, calls
        :meth:`sgd_step` per row instead.

        The intercept augmentation is hoisted out of the loop and every row
        takes one :meth:`sgd_step`.  The steps work on a private copy of the
        weights, so the caller's array is replaced, not mutated, as
        :meth:`update` replaces it.
        """
        X = self._coerce_batch(X)
        if X is None:
            return self
        y = np.asarray(y, dtype=int)
        X_aug = self.augment(X) if X_aug is None else X_aug
        self.weights = self.weights.copy()
        step = self.sgd_step
        for x, label in zip(X_aug, y.tolist()):
            step(x, label)
        return self

    def sgd_step(
        self, x_aug: np.ndarray, y_idx: int, predict: bool = False
    ) -> int | None:
        """One constant-rate SGD step on one observation, in place.

        ``x_aug`` is one row of :meth:`augment` and ``y_idx`` its class
        index.  The one forward pass serves the step and, with
        ``predict=True``, the return value: the class the model predicted
        *before* the step, ``np.argmax`` of :meth:`predict_proba` on the row
        (a binary tie ``p = 0.5`` predicts 0).  Otherwise it returns ``None``.

        This is the package's only copy of the step arithmetic: a scalar
        sigmoid-dot for the binary model, one matrix-vector score for the
        multiclass model.  Operation order and grouping mirror the
        reference loop (commuting a multiplication or subtracting in place
        performs the same IEEE operation), so the weights match it bit for
        bit.
        """
        weights = self.weights
        if self.n_classes == 2:
            # Python floats perform the same IEEE double operations as NumPy
            # scalars, at a fraction of the per-operation cost.
            score = float(x_aug @ weights)
            if score >= 0:
                p_one = 1.0 / (1.0 + float(np.exp(-score)))
            else:
                exp_score = float(np.exp(score))
                p_one = exp_score / (1.0 + exp_score)
            step = x_aug * (p_one - (1.0 if y_idx == 1 else 0.0))
            step *= self.learning_rate
            weights -= step
            # predict_proba's argmax over [1 - p, p] keeps the first column
            # on a tie.
            return int(p_one > 1.0 - p_one) if predict else None
        scores = weights @ x_aug
        exp_scores = np.exp(scores - scores.max())
        errors = exp_scores / exp_scores.sum()
        predicted = int(errors.argmax()) if predict else None
        errors[y_idx] -= 1.0
        step = errors[:, None] * x_aug
        step *= self.learning_rate
        weights -= step
        return predicted

    # ------------------------------------------------------------- features
    def feature_weights(self) -> np.ndarray:
        """Return the weight matrix without the intercept, shape ``(c, m)``.

        For the binary model the single weight vector is returned with shape
        ``(1, m)`` so downstream interpretability code can treat both cases
        uniformly (the paper highlights that Model Trees expose per-subgroup
        feature weights directly).
        """
        if self.n_classes == 2:
            return self.weights[:-1].reshape(1, -1).copy()
        return self.weights[:, :-1].copy()
