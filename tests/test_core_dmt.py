"""Tests for the Dynamic Model Tree classifier."""

import numpy as np
import pytest

from repro.base import ComplexityReport
from repro.core.dmt import DynamicModelTree
from repro.streams.synthetic import SEAGenerator, SineGenerator
from tests.conftest import make_linear_binary, make_multiclass_blobs, make_xor
from tests.oracles import dmt_predict_proba_per_row


def _stream_fit(model, X, y, classes, batch=50):
    for start in range(0, len(X), batch):
        model.partial_fit(X[start : start + batch], y[start : start + batch], classes=classes)
    return model


class TestConstruction:
    def test_invalid_hyperparameters_raise(self):
        with pytest.raises(ValueError):
            DynamicModelTree(learning_rate=0.0)
        with pytest.raises(ValueError):
            DynamicModelTree(epsilon=0.0)
        with pytest.raises(ValueError):
            DynamicModelTree(epsilon=1.5)
        with pytest.raises(ValueError):
            DynamicModelTree(n_candidates_factor=0)
        with pytest.raises(ValueError):
            DynamicModelTree(replacement_rate=1.2)
        with pytest.raises(ValueError):
            DynamicModelTree(max_depth=0)
        with pytest.raises(ValueError, match="max_values_per_feature must be >= 1"):
            DynamicModelTree(max_values_per_feature=0)

    def test_paper_defaults(self):
        model = DynamicModelTree()
        assert model.learning_rate == pytest.approx(0.05)
        assert model.epsilon == pytest.approx(1e-8)
        assert model.n_candidates_factor == 3
        assert model.replacement_rate == pytest.approx(0.5)

    def test_empty_model_complexity(self):
        report = DynamicModelTree().complexity()
        assert report.n_splits == 0
        assert report.n_parameters == 0

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            DynamicModelTree().predict_proba(np.zeros((1, 2)))


class TestLearning:
    def test_learns_linear_concept_without_splitting_much(self):
        """A linearly separable concept is exactly what a single GLM leaf can
        represent; the DMT should stay very small (model minimality)."""
        X, y = make_linear_binary(3000, n_features=4, seed=0)
        model = DynamicModelTree(random_state=0)
        _stream_fit(model, X, y, classes=[0, 1])
        accuracy = np.mean(model.predict(X[-500:]) == y[-500:])
        assert accuracy > 0.85
        assert model.n_nodes <= 7

    def test_learns_xor_by_splitting(self):
        """XOR cannot be represented by one linear model: the DMT must split.

        The loss-based gains accumulate over time, so a conservative AIC
        threshold (ε = 1e-8) needs a reasonable number of observations before
        the split is warranted; features are scaled up here so the gradient
        signal (and hence the gain) accumulates within a short test stream.
        """
        X, y = make_xor(10_000, seed=1)
        X = X * 3.0
        model = DynamicModelTree(random_state=1)
        _stream_fit(model, X, y, classes=[0, 1])
        accuracy = np.mean(model.predict(X[-2000:]) == y[-2000:])
        assert model.n_nodes > 1
        assert accuracy > 0.6

    def test_learns_multiclass_blobs(self):
        X, y = make_multiclass_blobs(3000, n_classes=3, n_features=4, seed=2)
        model = DynamicModelTree(random_state=2)
        _stream_fit(model, X, y, classes=[0, 1, 2])
        accuracy = np.mean(model.predict(X[-500:]) == y[-500:])
        assert accuracy > 0.8

    def test_predict_proba_is_distribution(self):
        X, y = make_linear_binary(500, n_features=3, seed=3)
        model = DynamicModelTree(random_state=3)
        _stream_fit(model, X, y, classes=[0, 1])
        proba = model.predict_proba(X[:20])
        assert proba.shape == (20, 2)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(proba >= 0)

    def test_per_row_proba_with_one_observed_class(self):
        """Regression: the per-row baseline mis-sliced probabilities whenever
        the leaf GLM carries more classes than the tree has observed (a binary
        GLM is created even when only one class label has been seen)."""
        rng = np.random.default_rng(11)
        X = rng.uniform(size=(120, 3))
        y = np.zeros(120, dtype=int)
        model = DynamicModelTree(random_state=11)
        model.partial_fit(X, y)
        assert model.n_classes_ == 1
        assert model.root.model.n_classes == 2
        per_row = dmt_predict_proba_per_row(model, X[:15])
        vectorized = model.predict_proba(X[:15])
        np.testing.assert_allclose(per_row, vectorized, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(per_row.sum(axis=1), 1.0)

    def test_new_class_after_initialisation_raises(self):
        X, y = make_linear_binary(100, n_features=3)
        model = DynamicModelTree(random_state=0)
        model.partial_fit(X, y, classes=[0, 1])
        with pytest.raises(ValueError, match="class"):
            model.partial_fit(X[:10], np.full(10, 2))

    def test_max_depth_limits_growth(self):
        X, y = make_xor(3000, seed=4)
        model = DynamicModelTree(random_state=4, max_depth=1)
        _stream_fit(model, X, y, classes=[0, 1])
        assert model.depth <= 1

    def test_reset_clears_tree(self):
        X, y = make_linear_binary(200, n_features=3)
        model = DynamicModelTree(random_state=0)
        model.partial_fit(X, y, classes=[0, 1])
        model.reset()
        assert model.root is None
        assert model.classes_ is None

    def test_reproducible_with_same_seed(self):
        X, y = make_xor(1500, seed=5)
        first = _stream_fit(DynamicModelTree(random_state=7), X, y, [0, 1])
        second = _stream_fit(DynamicModelTree(random_state=7), X, y, [0, 1])
        np.testing.assert_array_equal(first.predict(X[:100]), second.predict(X[:100]))
        assert first.n_nodes == second.n_nodes


class TestProperties:
    def test_splits_only_with_sufficient_gain(self):
        """Consistency (Property 1 + AIC threshold): right after any split the
        winning candidate's gain must have exceeded the split threshold, which
        is strictly positive, so a split can never have increased the
        estimated loss."""
        X, y = make_xor(4000, seed=6)
        model = DynamicModelTree(random_state=6)
        threshold_floor = 0.0
        _stream_fit(model, X, y, classes=[0, 1])
        if model.root is not None and not model.root.is_leaf:
            assert model.root.leaf_split_threshold(model.epsilon) > threshold_floor

    def test_minimality_prunes_obsolete_subtree_after_drift(self):
        """After abrupt real drift to a linearly separable concept, subtrees
        grown for the old concept stop paying for themselves and model
        minimality should shrink the tree again (or at least not let it grow)."""
        X1, y1 = make_xor(5000, seed=7)
        model = DynamicModelTree(random_state=7)
        _stream_fit(model, X1, y1, classes=[0, 1])
        size_before = model.n_nodes
        # New concept: depends only on feature 0, representable by one GLM.
        rng = np.random.default_rng(8)
        X2 = rng.uniform(size=(6000, 2))
        y2 = (X2[:, 0] > 0.5).astype(int)
        _stream_fit(model, X2, y2, classes=[0, 1])
        accuracy = np.mean(model.predict(X2[-500:]) == y2[-500:])
        assert accuracy > 0.85
        assert model.n_nodes <= max(size_before, 3)

    def test_adapts_to_abrupt_label_flip(self):
        """Real concept drift (label flip) must be absorbed without an
        external drift detector."""
        rng = np.random.default_rng(9)
        X = rng.uniform(size=(8000, 3))
        weights = np.array([1.0, 1.0, 1.0])
        y_first = (X @ weights > 1.5).astype(int)
        model = DynamicModelTree(random_state=9)
        _stream_fit(model, X[:4000], y_first[:4000], classes=[0, 1])
        y_flipped = 1 - y_first
        _stream_fit(model, X[4000:], y_flipped[4000:], classes=[0, 1])
        accuracy = np.mean(model.predict(X[-500:]) == y_flipped[-500:])
        assert accuracy > 0.8


class TestComplexityAccounting:
    def test_single_leaf_binary_counts(self):
        X, y = make_linear_binary(100, n_features=5, seed=1)
        model = DynamicModelTree(random_state=1)
        model.partial_fit(X, y, classes=[0, 1])
        if model.n_nodes == 1:
            report = model.complexity()
            # One linear leaf: 1 split (binary classifier), m parameters.
            assert report.n_splits == 1
            assert report.n_parameters == 5

    def test_multiclass_leaf_counts_scale_with_classes(self):
        X, y = make_multiclass_blobs(150, n_classes=3, n_features=4, seed=1)
        model = DynamicModelTree(random_state=1)
        model.partial_fit(X, y, classes=[0, 1, 2])
        if model.n_nodes == 1:
            report = model.complexity()
            assert report.n_splits == 3
            assert report.n_parameters == 12

    def test_complexity_consistent_with_structure(self):
        X, y = make_xor(4000, seed=10)
        model = DynamicModelTree(random_state=10)
        _stream_fit(model, X, y, classes=[0, 1])
        report = model.complexity()
        n_leaves = model.n_leaves
        n_inner = model.n_nodes - n_leaves
        assert report.n_splits == n_inner + n_leaves  # binary: 1 extra per leaf
        assert report.n_parameters == n_inner + 2 * n_leaves  # m = 2
        assert isinstance(report, ComplexityReport)


class TestInterpretability:
    def test_leaf_feature_weights_exposes_paths_and_weights(self):
        X, y = make_xor(3000, seed=11)
        model = DynamicModelTree(random_state=11)
        _stream_fit(model, X, y, classes=[0, 1])
        explanations = model.leaf_feature_weights()
        assert len(explanations) == model.n_leaves
        for entry in explanations:
            assert "path" in entry and "weights" in entry
            assert entry["weights"].shape[1] == 2

    def test_empty_model_has_no_explanations(self):
        assert DynamicModelTree().leaf_feature_weights() == []


class TestOnStreams:
    def test_beats_majority_on_sea(self):
        stream = SEAGenerator(n_samples=4000, noise=0.1, seed=1)
        X, y = stream.take()
        model = DynamicModelTree(random_state=1)
        _stream_fit(model, X[:3000], y[:3000], classes=[0, 1], batch=40)
        accuracy = np.mean(model.predict(X[3000:]) == y[3000:])
        majority = max(np.mean(y[3000:]), 1 - np.mean(y[3000:]))
        assert accuracy > majority

    def test_handles_sine_drift(self):
        stream = SineGenerator(
            n_samples=6000, classification_function=0, drift_positions=(0.5,), seed=2
        )
        X, y = stream.take()
        model = DynamicModelTree(random_state=2)
        _stream_fit(model, X, y, classes=[0, 1], batch=40)
        accuracy = np.mean(model.predict(X[-600:]) == y[-600:])
        assert accuracy > 0.6
