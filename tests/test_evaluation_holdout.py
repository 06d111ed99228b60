"""Tests for the periodic-holdout evaluator."""

import numpy as np
import pytest

from repro.base import ComplexityReport, StreamClassifier
from repro.core.dmt import DynamicModelTree
from repro.evaluation.holdout import HoldoutEvaluator
from repro.evaluation.metrics import ConfusionMatrix
from repro.experiments.registry import make_dataset, make_model
from repro.streams.base import ArrayStream
from repro.streams.realworld import make_surrogate


class _RecordingClassifier(StreamClassifier):
    """Stub that records which samples were used for training."""

    def __init__(self):
        super().__init__()
        self.trained_rows = 0
        self.predicted_rows = 0

    def partial_fit(self, X, y, classes=None):
        X, y = self._validate_input(X, y)
        self._update_classes(y, classes)
        self.trained_rows += len(y)
        return self

    def predict_proba(self, X):
        X, _ = self._validate_input(X)
        if self.classes_ is None:
            raise RuntimeError("not fitted")
        self.predicted_rows += len(X)
        proba = np.zeros((len(X), self.n_classes_))
        proba[:, 0] = 1.0
        return proba

    def complexity(self):
        return ComplexityReport(n_splits=2, n_parameters=3)

    def reset(self):
        return self


def _stream(n=2400, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(n, 3))
    y = (X[:, 0] > 0.5).astype(int)
    return ArrayStream(X, y)


class TestHoldoutEvaluator:
    def test_invalid_arguments_raise(self):
        with pytest.raises(ValueError):
            HoldoutEvaluator(test_every=0)
        with pytest.raises(ValueError):
            HoldoutEvaluator(test_size=0)
        with pytest.raises(ValueError):
            HoldoutEvaluator(train_batch_size=0)

    def test_unknown_f1_average_is_rejected(self):
        with pytest.raises(ValueError, match="'micro'"):
            HoldoutEvaluator(f1_average="micro")

    def test_binary_f1_needs_a_two_class_stream(self):
        """Rejected when the evaluation starts, before any training."""
        stream = make_surrogate("covertype", scale=0.001, seed=0)
        model = _RecordingClassifier()
        evaluator = HoldoutEvaluator(test_every=100, test_size=50, f1_average="binary")
        with pytest.raises(ValueError, match="exactly two classes"):
            evaluator.evaluate(model, stream)
        assert model.trained_rows == 0 and stream.position == 0
        result = evaluator.evaluate(_RecordingClassifier(), _stream(300))
        assert len(result.f1_trace) == 2

    def test_train_and_test_sample_accounting(self):
        """With test_every=1000 and test_size=200 on 2400 samples the split is
        1000 train / 200 test / 1000 train / 200 test."""
        model = _RecordingClassifier()
        result = HoldoutEvaluator(test_every=1000, test_size=200).evaluate(
            model, _stream(2400)
        )
        assert result.n_train_samples == 2000
        assert result.n_test_samples == 400
        assert model.trained_rows == 2000
        assert model.predicted_rows == 400
        assert len(result.f1_trace) == 2
        assert len(result.n_splits_trace) == 2

    def test_holdout_samples_are_not_trained_on(self):
        model = _RecordingClassifier()
        result = HoldoutEvaluator(test_every=500, test_size=100).evaluate(
            model, _stream(1800)
        )
        assert model.trained_rows + model.predicted_rows <= 1800
        assert result.n_train_samples == model.trained_rows

    def test_stream_shorter_than_one_period(self):
        model = _RecordingClassifier()
        result = HoldoutEvaluator(test_every=5000, test_size=100).evaluate(
            model, _stream(800)
        )
        assert result.n_train_samples == 800
        assert result.n_test_samples == 0
        assert result.f1_trace == []

    def test_summary_fields(self):
        result = HoldoutEvaluator(test_every=500, test_size=50).evaluate(
            _RecordingClassifier(), _stream(1200), model_name="stub", dataset_name="toy"
        )
        summary = result.summary()
        assert summary["model"] == "stub"
        assert {"f1_mean", "accuracy_mean", "n_splits_mean"} <= set(summary)
        assert summary["n_splits_mean"] == pytest.approx(2.0)

    def test_dmt_learns_under_holdout_protocol(self):
        stream = make_surrogate("electricity", scale=0.05, seed=3)
        model = DynamicModelTree(random_state=3)
        result = HoldoutEvaluator(test_every=400, test_size=100).evaluate(model, stream)
        assert result.n_test_samples > 0
        assert 0.0 <= result.f1_mean <= 1.0
        # After a couple of training periods the model should beat coin flips.
        assert result.accuracy_trace[-1] > 0.5

    def test_a_consumed_stream_is_evaluated_again_in_full(self):
        """Regression: a second evaluation on the same stream object returned
        an empty result (0 rows trained and tested, F1 0.0).  A consumed or
        partly consumed stream is rewound."""
        stream = make_dataset("sea", scale=0.01, seed=1)
        evaluator = HoldoutEvaluator(test_every=1000, test_size=200)
        first = evaluator.evaluate(make_model("vfdt_mc", seed=1), stream)
        assert first.n_train_samples == 8400 and first.n_test_samples == 1600
        second = evaluator.evaluate(make_model("vfdt_mc", seed=1), stream)
        assert second.summary() == first.summary()
        assert second.f1_trace == first.f1_trace
        stream.restart()
        stream.next_sample(700)
        third = evaluator.evaluate(make_model("vfdt_mc", seed=1), stream)
        assert third.summary() == first.summary()

    def test_each_holdout_scores_its_own_rows(self):
        """The end pass gives every holdout the scores of its own matrix."""
        stream = make_surrogate("electricity", scale=0.05, seed=3)
        model = DynamicModelTree(random_state=3)
        tested = []
        predict = model.predict

        def recording_predict(X):
            tested.append(predict(X))
            return tested[-1]

        model.predict = recording_predict
        result = HoldoutEvaluator(test_every=200, test_size=50).evaluate(
            model, stream, model_name="dmt"
        )
        assert len(tested) == len(result.f1_trace) > 5
        stream.restart()
        labels = stream.take()[1]
        start = 0
        for index, predictions in enumerate(tested):
            start += 200
            y_test = labels[start : start + len(predictions)]
            start += len(predictions)
            matrix = ConfusionMatrix(stream.classes).update(y_test, predictions)
            assert result.f1_trace[index] == matrix.f1("weighted")
            assert result.accuracy_trace[index] == matrix.accuracy()
