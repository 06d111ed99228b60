"""Additional tests for the instance-incremental GLM training path."""

import numpy as np
import pytest

from repro.experiments.registry import make_model
from repro.linear.glm import IncrementalGLM
from tests.conftest import make_linear_binary


class TestFitIncremental:
    def test_single_sample_matches_update(self):
        """On a batch of size one, fit_incremental and update are identical."""
        X = np.array([[0.2, 0.7, 0.1]])
        y = np.array([1])
        first = IncrementalGLM(n_features=3, n_classes=2, rng=0)
        second = first.clone(warm_start=True)
        first.update(X, y)
        second.fit_incremental(X, y)
        np.testing.assert_allclose(first.weights, second.weights)

    def test_order_of_samples_matters(self):
        """Instance-incremental SGD is sequential: reversing the batch order
        generally produces (slightly) different weights, unlike a single
        aggregate batch step."""
        X, y = make_linear_binary(50, n_features=3, seed=1)
        forward = IncrementalGLM(n_features=3, n_classes=2, rng=0)
        backward = forward.clone(warm_start=True)
        forward.fit_incremental(X, y)
        backward.fit_incremental(X[::-1], y[::-1])
        assert not np.allclose(forward.weights, backward.weights)

    def test_incremental_learns_faster_than_single_batch_steps(self):
        """One SGD step per observation extracts more signal from a batch than
        one aggregate step on the mean gradient -- the reason the DMT nodes
        train instance-incrementally."""
        X, y = make_linear_binary(2000, n_features=4, seed=2)
        per_sample = IncrementalGLM(n_features=4, n_classes=2, learning_rate=0.05, rng=0)
        per_batch = per_sample.clone(warm_start=True)
        for start in range(0, len(X), 50):
            batch = slice(start, start + 50)
            per_sample.fit_incremental(X[batch], y[batch])
            per_batch.update(X[batch], y[batch])
        acc_sample = np.mean(per_sample.predict(X) == y)
        acc_batch = np.mean(per_batch.predict(X) == y)
        assert acc_sample >= acc_batch

    def test_multiclass_incremental_fit(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(size=(300, 3))
        y = rng.integers(0, 3, size=300)
        model = IncrementalGLM(n_features=3, n_classes=3, rng=3)
        model.fit_incremental(X, y)
        assert np.all(np.isfinite(model.weights))

    def test_empty_batch_is_noop(self):
        model = IncrementalGLM(n_features=2, n_classes=2, rng=0)
        weights = model.weights.copy()
        model.fit_incremental(np.empty((0, 2)), np.empty(0, dtype=int))
        np.testing.assert_allclose(model.weights, weights)

    def test_empty_1d_batch_is_noop(self):
        """Regression: a 1-D empty batch was reshaped to a (1, 0) row before
        the emptiness guard and crashed in the matmul."""
        model = IncrementalGLM(n_features=2, n_classes=2, rng=0)
        weights = model.weights.copy()
        model.fit_incremental(np.empty(0), np.empty(0, dtype=int))
        np.testing.assert_array_equal(model.weights, weights)

    def test_handles_1d_input(self):
        model = IncrementalGLM(n_features=3, n_classes=2, rng=0)
        model.fit_incremental(np.array([0.1, 0.2, 0.3]), np.array([1]))
        assert np.all(np.isfinite(model.weights))


@pytest.mark.parametrize("name", ["dmt", "fimtdd"])
@pytest.mark.parametrize("n_classes", [2, 3])
def test_training_does_not_depend_on_the_batch_layout(name, n_classes):
    """The intercept augment always copies into a C-ordered array, so a
    Fortran-ordered batch trains the linear models bit for bit as its
    C-ordered copy does (the 1-D ``x @ w`` of a strided row could round
    differently)."""
    rng = np.random.default_rng(3)
    X = rng.normal(size=(1000, 6))
    y = ((X[:, 0] + X[:, 1] ** 2 > 1).astype(int) + (X[:, 2] > 1)) % n_classes
    classes = list(range(n_classes))
    c_ordered, f_ordered = make_model(name, seed=1), make_model(name, seed=1)
    for start in range(0, len(X), 100):
        batch = X[start : start + 100]
        c_ordered.partial_fit(batch, y[start : start + 100], classes=classes)
        f_ordered.partial_fit(
            np.asfortranarray(batch), y[start : start + 100], classes=classes
        )
    assert np.array_equal(
        c_ordered.predict_proba(X[:300]), f_ordered.predict_proba(X[:300])
    )
