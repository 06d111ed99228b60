"""Tests for the incremental GLM (logit / softmax) simple models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linear.glm import IncrementalGLM, _sigmoid, _softmax
from tests.conftest import make_linear_binary, make_multiclass_blobs


class TestLinkFunctions:
    def test_sigmoid_matches_reference(self):
        z = np.array([-5.0, -1.0, 0.0, 1.0, 5.0])
        np.testing.assert_allclose(_sigmoid(z), 1.0 / (1.0 + np.exp(-z)), atol=1e-12)

    def test_sigmoid_is_stable_for_extreme_inputs(self):
        out = _sigmoid(np.array([-1e6, 1e6]))
        assert out[0] == pytest.approx(0.0)
        assert out[1] == pytest.approx(1.0)

    def test_softmax_rows_sum_to_one(self):
        scores = np.array([[1.0, 2.0, 3.0], [1000.0, 1000.0, 1000.0]])
        proba = _softmax(scores)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0)
        assert np.all(proba >= 0)


class TestConstruction:
    def test_binary_weight_shape(self):
        model = IncrementalGLM(n_features=4, n_classes=2, rng=0)
        assert model.weights.shape == (5,)
        assert model.n_parameters == 5

    def test_multiclass_weight_shape(self):
        model = IncrementalGLM(n_features=4, n_classes=3, rng=0)
        assert model.weights.shape == (3, 5)
        assert model.n_parameters == 15

    def test_invalid_arguments_raise(self):
        with pytest.raises(ValueError):
            IncrementalGLM(n_features=0, n_classes=2)
        with pytest.raises(ValueError):
            IncrementalGLM(n_features=2, n_classes=1)
        with pytest.raises(ValueError):
            IncrementalGLM(n_features=2, n_classes=2, learning_rate=0.0)

    def test_clone_warm_start_copies_weights(self):
        model = IncrementalGLM(n_features=3, n_classes=2, rng=1)
        clone = model.clone(warm_start=True)
        np.testing.assert_allclose(clone.weights, model.weights)
        clone.weights[0] += 1.0
        assert clone.weights[0] != model.weights[0]

    def test_clone_cold_start_differs(self):
        model = IncrementalGLM(n_features=3, n_classes=2, rng=1, init_scale=0.5)
        clone = model.clone(warm_start=False)
        assert not np.allclose(clone.weights, model.weights)

    def test_clone_cold_start_with_seed_is_deterministic(self):
        """Regression: cold clones used to draw from an unseeded generator,
        so two cold clones of the same seeded model differed and broke the
        determinism guarantees of the persistence and golden suites."""
        model = IncrementalGLM(n_features=3, n_classes=2, rng=1, init_scale=0.5)
        first = model.clone(warm_start=False, rng=7)
        second = model.clone(warm_start=False, rng=7)
        np.testing.assert_array_equal(first.weights, second.weights)
        assert not np.allclose(first.weights, model.weights)

    def test_clone_cold_start_accepts_generator(self):
        model = IncrementalGLM(n_features=2, n_classes=3, rng=0, init_scale=0.5)
        first = model.clone(warm_start=False, rng=np.random.default_rng(3))
        second = model.clone(warm_start=False, rng=np.random.default_rng(3))
        np.testing.assert_array_equal(first.weights, second.weights)


class TestInference:
    @pytest.mark.parametrize("n_classes", [2, 3, 5])
    def test_proba_shape_and_normalisation(self, n_classes):
        model = IncrementalGLM(n_features=4, n_classes=n_classes, rng=0)
        X = np.random.default_rng(0).uniform(size=(10, 4))
        proba = model.predict_proba(X)
        assert proba.shape == (10, n_classes)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0)
        assert np.all(proba >= 0.0)

    def test_predict_is_argmax(self):
        model = IncrementalGLM(n_features=4, n_classes=3, rng=0)
        X = np.random.default_rng(0).uniform(size=(20, 4))
        np.testing.assert_array_equal(
            model.predict(X), np.argmax(model.predict_proba(X), axis=1)
        )

    def test_accepts_single_row(self):
        model = IncrementalGLM(n_features=3, n_classes=2, rng=0)
        proba = model.predict_proba(np.array([0.1, 0.2, 0.3]))
        assert proba.shape == (1, 2)

    @pytest.mark.parametrize(
        "layout", ["C", "Fortran", "column slice", "1-D", "integer"]
    )
    def test_augment_is_a_fresh_c_contiguous_float_array(self, layout):
        X = np.arange(12, dtype=float).reshape(3, 4)
        batch = {
            "C": X,
            "Fortran": np.asfortranarray(X),
            "column slice": np.hstack([X, X])[:, ::2],
            "1-D": X[0],
            "integer": X.astype(np.int64),
        }[layout]
        X_aug = IncrementalGLM.augment(batch)
        assert X_aug.dtype == np.float64 and X_aug.flags.c_contiguous
        assert not np.shares_memory(X_aug, batch)
        rows = np.atleast_2d(batch).astype(float)
        np.testing.assert_array_equal(
            X_aug, np.hstack([rows, np.ones((len(rows), 1))])
        )


class TestLossAndGradient:
    def test_nll_is_nonnegative(self):
        model = IncrementalGLM(n_features=3, n_classes=3, rng=0)
        X, y = make_multiclass_blobs(50, n_classes=3, n_features=3)
        assert model.negative_log_likelihood(X, y) >= 0.0

    def test_per_sample_nll_sums_to_total(self):
        model = IncrementalGLM(n_features=3, n_classes=2, rng=0)
        X, y = make_linear_binary(40, n_features=3)
        per_sample = model.per_sample_negative_log_likelihood(X, y)
        assert per_sample.shape == (40,)
        assert per_sample.sum() == pytest.approx(model.negative_log_likelihood(X, y))

    def test_per_sample_gradient_sums_to_batch_gradient(self):
        model = IncrementalGLM(n_features=3, n_classes=4, rng=0)
        X, y = make_multiclass_blobs(30, n_classes=4, n_features=3)
        per_sample = model.per_sample_gradient(X, y)
        assert per_sample.shape == (30, model.n_parameters)
        np.testing.assert_allclose(per_sample.sum(axis=0), model.gradient(X, y))

    @pytest.mark.parametrize("n_classes", [2, 3])
    def test_gradient_matches_finite_differences(self, n_classes):
        model = IncrementalGLM(n_features=3, n_classes=n_classes, rng=0)
        generator = np.random.default_rng(1)
        X = generator.uniform(size=(12, 3))
        y = generator.integers(0, n_classes, size=12)
        analytic = model.gradient(X, y)
        flat = model.weights.ravel().copy()
        numeric = np.zeros_like(flat)
        eps = 1e-6
        for index in range(len(flat)):
            bumped = flat.copy()
            bumped[index] += eps
            model.weights = bumped.reshape(model.weights.shape)
            loss_plus = model.negative_log_likelihood(X, y)
            bumped[index] -= 2 * eps
            model.weights = bumped.reshape(model.weights.shape)
            loss_minus = model.negative_log_likelihood(X, y)
            numeric[index] = (loss_plus - loss_minus) / (2 * eps)
            model.weights = flat.reshape(model.weights.shape)
        np.testing.assert_allclose(analytic, numeric, atol=1e-4)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), n_classes=st.integers(2, 4))
    def test_gradient_step_reduces_loss_property(self, seed, n_classes):
        """A small enough gradient step must not increase the batch loss."""
        generator = np.random.default_rng(seed)
        model = IncrementalGLM(
            n_features=3, n_classes=n_classes, learning_rate=1e-3, rng=seed
        )
        X = generator.uniform(size=(20, 3))
        y = generator.integers(0, n_classes, size=20)
        before = model.negative_log_likelihood(X, y)
        model.update(X, y)
        after = model.negative_log_likelihood(X, y)
        assert after <= before + 1e-9


class TestTraining:
    def test_sgd_learns_linear_concept(self):
        X, y = make_linear_binary(2000, n_features=4, seed=2)
        model = IncrementalGLM(n_features=4, n_classes=2, learning_rate=0.5, rng=0)
        for start in range(0, len(X), 20):
            model.update(X[start : start + 20], y[start : start + 20])
        accuracy = np.mean(model.predict(X) == y)
        assert accuracy > 0.85

    def test_softmax_learns_blobs(self):
        X, y = make_multiclass_blobs(2000, n_classes=3, n_features=4, seed=2)
        model = IncrementalGLM(n_features=4, n_classes=3, learning_rate=0.5, rng=0)
        for start in range(0, len(X), 20):
            model.update(X[start : start + 20], y[start : start + 20])
        accuracy = np.mean(model.predict(X) == y)
        assert accuracy > 0.8

    def test_update_with_empty_batch_is_noop(self):
        model = IncrementalGLM(n_features=2, n_classes=2, rng=0)
        weights = model.weights.copy()
        model.update(np.empty((0, 2)), np.empty(0, dtype=int))
        np.testing.assert_allclose(model.weights, weights)

    def test_update_with_empty_1d_batch_is_noop(self):
        """Regression: a 1-D empty batch was reshaped to a (1, 0) row before
        the emptiness guard and crashed in the matmul."""
        model = IncrementalGLM(n_features=2, n_classes=2, rng=0)
        weights = model.weights.copy()
        model.update(np.empty(0), np.empty(0, dtype=int))
        np.testing.assert_array_equal(model.weights, weights)

    def test_feature_weights_shape(self):
        binary = IncrementalGLM(n_features=4, n_classes=2, rng=0)
        assert binary.feature_weights().shape == (1, 4)
        multi = IncrementalGLM(n_features=4, n_classes=3, rng=0)
        assert multi.feature_weights().shape == (3, 4)


class TestSGDStep:
    """``sgd_step`` is one ``update`` on a one-row batch, and its returned
    index is the ``predict`` taken before the step."""

    @staticmethod
    def _check_row(model, x, label):
        other = model.clone(warm_start=True)
        expected = int(np.argmax(model.predict_proba(x[None, :])[0]))
        predicted = model.sgd_step(model.augment(x)[0], label, predict=True)
        other.update(x[None, :], np.array([label]))
        assert predicted == expected
        assert model.weights.tobytes() == other.weights.tobytes()
        return predicted

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n_classes=st.integers(2, 5),
        n_features=st.integers(1, 8),
        scale=st.sampled_from([1e-3, 1.0, 30.0]),
    )
    def test_step_matches_predict_then_update(
        self, seed, n_classes, n_features, scale
    ):
        generator = np.random.default_rng(seed)
        model = IncrementalGLM(
            n_features=n_features, n_classes=n_classes, learning_rate=0.3, rng=seed
        )
        for _ in range(15):
            x = generator.normal(size=n_features) * scale
            self._check_row(model, x, int(generator.integers(n_classes)))

    @pytest.mark.parametrize("n_classes", [2, 3])
    def test_tie_predicts_first_class(self, n_classes):
        # Zero weights give p = 0.5 (binary) or a uniform softmax row.
        model = IncrementalGLM(n_features=2, n_classes=n_classes, rng=0)
        model.weights = np.zeros_like(model.weights)
        assert np.all(model.predict_proba(np.ones((1, 2))) == 1.0 / n_classes)
        assert self._check_row(model, np.ones(2), n_classes - 1) == 0

    def test_step_without_predict_returns_none(self):
        model = IncrementalGLM(n_features=2, n_classes=3, rng=0)
        assert model.sgd_step(model.augment(np.ones(2))[0], 1) is None
