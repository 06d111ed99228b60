"""Tests for the FIMT-DD classification adaptation."""

import numpy as np
import pytest

from repro.trees.fimtdd import FIMTDDClassifier, FIMTLeaf, FIMTSplitNode
from tests.conftest import make_linear_binary, make_multiclass_blobs, make_xor
from tests.oracles import tree_nodes


def _stream_fit(model, X, y, classes, batch=100):
    for start in range(0, len(X), batch):
        model.partial_fit(X[start : start + batch], y[start : start + batch], classes=classes)
    return model


class TestConstruction:
    def test_invalid_hyperparameters_raise(self):
        with pytest.raises(ValueError):
            FIMTDDClassifier(learning_rate=0.0)
        with pytest.raises(ValueError):
            FIMTDDClassifier(split_confidence=0.0)
        with pytest.raises(ValueError):
            FIMTDDClassifier(grace_period=0)

    def test_paper_defaults(self):
        model = FIMTDDClassifier()
        assert model.learning_rate == pytest.approx(0.01)
        assert model.split_confidence == pytest.approx(0.01)
        assert model.tie_threshold == pytest.approx(0.05)

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            FIMTDDClassifier().predict_proba(np.zeros((1, 2)))

    def test_empty_complexity(self):
        report = FIMTDDClassifier().complexity()
        assert report.n_splits == 0 and report.n_parameters == 0


class TestLearning:
    def test_linear_leaf_learns_linear_concept(self):
        X, y = make_linear_binary(6000, n_features=4, seed=0)
        model = FIMTDDClassifier(learning_rate=0.1, random_state=0)
        _stream_fit(model, X, y, [0, 1])
        accuracy = np.mean(model.predict(X[-800:]) == y[-800:])
        assert accuracy > 0.8

    def test_splits_on_xor(self):
        X, y = make_xor(8000, seed=1)
        model = FIMTDDClassifier(grace_period=200, random_state=1)
        _stream_fit(model, X, y, [0, 1])
        assert model.n_split_events >= 1

    def test_multiclass_support(self):
        X, y = make_multiclass_blobs(4000, n_classes=3, n_features=4, seed=2)
        model = FIMTDDClassifier(learning_rate=0.1, random_state=2)
        _stream_fit(model, X, y, [0, 1, 2])
        accuracy = np.mean(model.predict(X[-500:]) == y[-500:])
        assert accuracy > 0.6

    def test_proba_is_distribution(self):
        X, y = make_linear_binary(1000, n_features=3, seed=3)
        model = FIMTDDClassifier(random_state=3)
        _stream_fit(model, X, y, [0, 1])
        proba = model.predict_proba(X[:15])
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-9)

    def test_new_class_after_initialisation_raises(self):
        X, y = make_linear_binary(300, n_features=3)
        model = FIMTDDClassifier(random_state=0)
        model.partial_fit(X, y, classes=[0, 1])
        with pytest.raises(ValueError, match="class"):
            model.partial_fit(X[:5], np.full(5, 2))

    def test_reset(self):
        X, y = make_linear_binary(500, n_features=3)
        model = FIMTDDClassifier(random_state=0)
        model.partial_fit(X, y, classes=[0, 1])
        model.reset()
        assert model.root is None
        assert model.n_split_events == 0


class TestDriftAdaptation:
    def test_page_hinkley_prunes_branches_after_drift(self):
        """After an abrupt label flip the error rises and the Page-Hinkley
        tests should delete at least one branch (the paper's second FIMT-DD
        adaptation strategy)."""
        rng = np.random.default_rng(4)
        n = 16_000
        X = rng.uniform(size=(n, 3))
        y = ((X[:, 0] > 0.5) ^ (X[:, 1] > 0.5)).astype(int)
        y[n // 2 :] = 1 - y[n // 2 :]
        model = FIMTDDClassifier(
            grace_period=150, ph_threshold=20.0, random_state=4
        )
        _stream_fit(model, X, y, [0, 1], batch=100)
        assert model.n_split_events >= 1
        assert model.n_pruned_branches >= 1

    def test_max_depth_limits_growth(self):
        X, y = make_xor(6000, seed=5)
        model = FIMTDDClassifier(grace_period=100, max_depth=1, random_state=5)
        _stream_fit(model, X, y, [0, 1])
        report = model.complexity()
        assert report.depth <= 1


class TestComplexityCounting:
    def test_single_linear_leaf_counts(self):
        X, y = make_linear_binary(150, n_features=6)
        model = FIMTDDClassifier(random_state=0)
        model.partial_fit(X, y, classes=[0, 1])
        report = model.complexity()
        assert model.n_nodes == 1
        assert report.n_splits == 1
        assert report.n_parameters == 6

    def test_nodes_are_counted(self):
        X, y = make_xor(8000, seed=6)
        model = FIMTDDClassifier(grace_period=200, random_state=6)
        _stream_fit(model, X, y, [0, 1])
        nodes = tree_nodes(model.root)
        n_inner = sum(1 for node in nodes if isinstance(node, FIMTSplitNode))
        n_leaves = sum(1 for node in nodes if isinstance(node, FIMTLeaf))
        report = model.complexity()
        assert report.n_splits == n_inner + n_leaves
        assert report.n_parameters == n_inner + 2 * n_leaves
