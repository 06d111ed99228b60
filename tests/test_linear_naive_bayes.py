"""Tests for the incremental Gaussian Naive Bayes model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linear.naive_bayes import GaussianNaiveBayes
from tests.conftest import make_multiclass_blobs
from tests.oracles import ReferenceGaussianNaiveBayes


class TestConstruction:
    def test_invalid_arguments_raise(self):
        with pytest.raises(ValueError):
            GaussianNaiveBayes(n_features=0, n_classes=2)
        with pytest.raises(ValueError):
            GaussianNaiveBayes(n_features=3, n_classes=1)

    def test_parameter_count_matches_paper_rule(self):
        model = GaussianNaiveBayes(n_features=5, n_classes=4)
        assert model.n_parameters == 20


class TestBehaviour:
    def test_uniform_prediction_before_any_data(self):
        model = GaussianNaiveBayes(n_features=3, n_classes=4)
        proba = model.predict_proba(np.zeros((2, 3)))
        np.testing.assert_allclose(proba, 0.25)

    def test_proba_normalised_after_updates(self):
        model = GaussianNaiveBayes(n_features=4, n_classes=3)
        X, y = make_multiclass_blobs(200, n_classes=3, n_features=4)
        model.update(X, y)
        proba = model.predict_proba(X[:10])
        np.testing.assert_allclose(proba.sum(axis=1), 1.0)
        assert np.all(proba >= 0.0)

    def test_learns_separated_blobs(self):
        X, y = make_multiclass_blobs(1000, n_classes=3, n_features=4, seed=9)
        model = GaussianNaiveBayes(n_features=4, n_classes=3)
        model.update(X, y)
        accuracy = np.mean(model.predict(X) == y)
        assert accuracy > 0.95

    def test_incremental_equals_batch_moments(self):
        X, y = make_multiclass_blobs(300, n_classes=2, n_features=3, seed=4)
        incremental = GaussianNaiveBayes(n_features=3, n_classes=2)
        for row in range(len(X)):
            incremental.update(X[row], np.array([y[row]]))
        batch = GaussianNaiveBayes(n_features=3, n_classes=2)
        batch.update(X, y)
        np.testing.assert_allclose(incremental._means, batch._means, atol=1e-9)
        np.testing.assert_allclose(incremental._m2, batch._m2, atol=1e-6)

    def test_class_counts_track_labels(self):
        model = GaussianNaiveBayes(n_features=2, n_classes=3)
        model.update(np.zeros((5, 2)), np.array([0, 0, 1, 2, 2]))
        np.testing.assert_allclose(model.class_counts, [2, 1, 2])
        assert model.total_count == 5

    def test_constant_feature_is_handled(self):
        """A class with zero variance must still give finite probabilities."""
        model = GaussianNaiveBayes(n_features=2, n_classes=2)
        X = np.array([[1.0, 1.0]] * 10 + [[0.0, 0.0]] * 10)
        y = np.array([0] * 10 + [1] * 10)
        model.update(X, y)
        proba = model.predict_proba(np.array([[1.0, 1.0]]))
        assert np.all(np.isfinite(proba))
        assert proba[0, 0] > proba[0, 1]


class TestReferenceEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n_features=st.integers(1, 60),
        n_classes=st.integers(2, 12),
        scale=st.floats(0.01, 100.0),
    )
    def test_broadcast_matches_per_class_loop(
        self, seed, n_features, n_classes, scale
    ):
        """The broadcast log-likelihood equals the per-class loop bit for bit."""
        rng = np.random.default_rng(seed)
        product = GaussianNaiveBayes(n_features, n_classes)
        oracle = ReferenceGaussianNaiveBayes(n_features, n_classes)
        n_rows = int(rng.integers(1, 80))
        X = rng.normal(size=(n_rows, n_features)) * scale
        y = rng.integers(0, n_classes, size=n_rows)
        product.update(X, y)
        oracle.update(X, y)
        queries = rng.normal(size=(16, n_features)) * scale
        assert (
            product.predict_proba(queries).tobytes()
            == oracle.predict_proba(queries).tobytes()
        )
