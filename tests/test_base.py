"""Tests for the shared classifier interface and complexity report."""

from pathlib import Path

import numpy as np
import pytest

from repro.base import ComplexityReport, StreamClassifier
from repro.core.dmt import DynamicModelTree
from repro.persistence import save_model
from repro.trees.fimtdd import FIMTDDClassifier
from repro.trees.vfdt import HoeffdingTreeClassifier


class _DummyClassifier(StreamClassifier):
    """Minimal concrete classifier used to exercise the base-class helpers."""

    def partial_fit(self, X, y, classes=None):
        X, y = self._validate_input(X, y)
        self._update_classes(y, classes)
        return self

    def predict_proba(self, X):
        X, _ = self._validate_input(X)
        if self.classes_ is None:
            raise RuntimeError("predict_proba() called before partial_fit().")
        return np.full((len(X), self.n_classes_), 1.0 / self.n_classes_)

    def complexity(self):
        return ComplexityReport(n_splits=0, n_parameters=0)

    def reset(self):
        self.classes_ = None
        self.n_features_ = None
        return self


class TestComplexityReport:
    def test_addition_sums_counts(self):
        first = ComplexityReport(n_splits=2, n_parameters=5, n_nodes=3, n_leaves=2, depth=1)
        second = ComplexityReport(n_splits=1, n_parameters=4, n_nodes=1, n_leaves=1, depth=3)
        combined = first + second
        assert combined.n_splits == 3
        assert combined.n_parameters == 9
        assert combined.n_nodes == 4
        assert combined.n_leaves == 3
        assert combined.depth == 3

    def test_is_frozen(self):
        report = ComplexityReport(n_splits=1, n_parameters=1)
        with pytest.raises(AttributeError):
            report.n_splits = 5


class TestStreamClassifierBase:
    def test_tracks_feature_count(self):
        model = _DummyClassifier()
        model.partial_fit(np.zeros((4, 3)), np.array([0, 1, 0, 1]))
        assert model.n_features_ == 3

    def test_rejects_feature_count_change(self):
        model = _DummyClassifier()
        model.partial_fit(np.zeros((4, 3)), np.array([0, 1, 0, 1]))
        with pytest.raises(ValueError, match="features"):
            model.partial_fit(np.zeros((4, 5)), np.array([0, 1, 0, 1]))

    def test_rejects_length_mismatch(self):
        model = _DummyClassifier()
        with pytest.raises(ValueError, match="inconsistent"):
            model.partial_fit(np.zeros((4, 3)), np.array([0, 1, 0]))

    def test_class_tracking_is_sorted_union(self):
        model = _DummyClassifier()
        model.partial_fit(np.zeros((2, 2)), np.array([3, 1]))
        model.partial_fit(np.zeros((2, 2)), np.array([2, 2]), classes=[0, 1, 2, 3])
        assert model.classes_.tolist() == [0, 1, 2, 3]
        assert model.n_classes_ == 4

    def test_class_index_maps_labels(self):
        model = _DummyClassifier()
        model.partial_fit(np.zeros((3, 2)), np.array([5, 7, 9]))
        np.testing.assert_array_equal(
            model.class_index(np.array([9, 5, 7])), np.array([2, 0, 1])
        )

    def test_predict_uses_argmax_over_classes(self):
        model = _DummyClassifier()
        model.partial_fit(np.zeros((2, 2)), np.array([4, 8]))
        predictions = model.predict(np.zeros((3, 2)))
        assert set(predictions.tolist()) <= {4, 8}

    def test_predict_before_fit_raises(self):
        model = _DummyClassifier()
        with pytest.raises(RuntimeError):
            model.predict(np.zeros((1, 2)))

    def test_class_index_before_fit_raises(self):
        model = _DummyClassifier()
        with pytest.raises(RuntimeError):
            model.class_index(np.array([1]))

    def test_update_classes_returns_class_indices_on_every_path(self):
        model = _DummyClassifier()
        np.testing.assert_array_equal(
            model._update_classes(np.array([5, 9]), [5, 7, 9]), [0, 2]
        )
        known = model.classes_
        # Steady state: no class array, classes_ itself, or an equal copy.
        for classes in (None, known, known.copy(), [5, 7, 9]):
            positions = model._update_classes(np.array([9, 7, 5, 9]), classes)
            assert model.classes_ is known
            np.testing.assert_array_equal(positions, [2, 1, 0, 2])
        # A label above every known class, then one only the class array adds.
        np.testing.assert_array_equal(
            model._update_classes(np.array([9, 11]), None), [2, 3]
        )
        assert model.classes_.tolist() == [5, 7, 9, 11]
        np.testing.assert_array_equal(
            model._update_classes(np.array([11]), [1, 5]), [4]
        )
        assert model.classes_.tolist() == [1, 5, 7, 9, 11]


class TestOneLabelLookup:
    """Tree models look each training batch's labels up once."""

    @pytest.mark.parametrize(
        "model_class", [DynamicModelTree, FIMTDDClassifier, HoeffdingTreeClassifier]
    )
    def test_classes_keep_their_identity_in_the_steady_state(
        self, model_class, monkeypatch
    ):
        X = np.random.default_rng(0).uniform(size=(250, 3))
        y = (X[:, 0] > 0.5).astype(int)
        model = model_class()
        model.partial_fit(X[:50], y[:50], classes=np.array([0, 1]))
        known = model.classes_
        # A second search of the labels would go through class_index.
        monkeypatch.setattr(
            model, "class_index", lambda labels: pytest.fail("second label lookup")
        )
        # No class array, classes_ itself, an equal copy (the evaluator's
        # case) and an equal list.
        for start, classes in zip(
            range(50, 250, 50), (None, known, np.array([0, 1]), [0, 1])
        ):
            model.partial_fit(X[start : start + 50], y[start : start + 50], classes)
            assert model.classes_ is known

    @pytest.mark.parametrize("model_class", [DynamicModelTree, FIMTDDClassifier])
    def test_a_rejected_late_label_leaves_the_model_as_it_was(
        self, model_class, tmp_path
    ):
        model = model_class(random_state=0)
        model.partial_fit(np.eye(4, 2), np.array([0, 1, 0, 1]))
        request = np.random.default_rng(1).uniform(size=(8, 2))
        before = model.predict_proba(request)
        saved_before = Path(save_model(model, tmp_path / "before.json")).read_bytes()
        with pytest.raises(ValueError, match="New class labels"):
            model.partial_fit(np.eye(2), np.array([2, 1]))
        assert model.classes_.tolist() == [0, 1]
        saved_after = Path(save_model(model, tmp_path / "after.json")).read_bytes()
        assert saved_after == saved_before
        assert np.array_equal(model.predict_proba(request), before)

    def test_a_late_label_grows_the_hoeffding_tree_classes(self):
        model = HoeffdingTreeClassifier()
        model.partial_fit(np.zeros((4, 2)), np.array([0, 1, 0, 1]))
        model.partial_fit(np.ones((2, 2)), np.array([2, 1]))
        assert model.classes_.tolist() == [0, 1, 2]
        assert model.predict_proba(np.ones((1, 2))).shape == (1, 3)
