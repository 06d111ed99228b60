"""Tests for the validation helpers."""

import warnings

import numpy as np
import pytest

from repro.utils.validation import (
    check_features,
    check_in_range,
    check_labels,
    check_positive,
    check_random_state,
)


class TestCheckFeatures:
    def test_promotes_1d_to_row(self):
        X = check_features(np.array([1.0, 2.0, 3.0]))
        assert X.shape == (1, 3)

    def test_accepts_lists(self):
        X = check_features([[1, 2], [3, 4]])
        assert X.dtype == float
        assert X.shape == (2, 2)

    def test_rejects_3d(self):
        with pytest.raises(ValueError, match="2-dimensional"):
            check_features(np.zeros((2, 2, 2)))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="non-empty"):
            check_features(np.zeros((0, 3)))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            check_features(np.array([[1.0, np.nan]]))

    def test_rejects_inf(self):
        with pytest.raises(ValueError, match="NaN or infinite"):
            check_features(np.array([[1.0, np.inf]]))

    @pytest.mark.parametrize("value", [1e308, -1e308])
    def test_accepts_finite_values_whose_sum_overflows(self, value):
        X = np.array([[value, value]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert check_features(X) is X

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("layout", ["1-D row", "Fortran", "strided view"])
    def test_rejects_each_non_finite_value_in_every_layout(self, bad, layout):
        X = np.arange(24, dtype=float).reshape(6, 4)
        X[3, 2] = bad
        if layout == "1-D row":
            X = X[3]
        elif layout == "Fortran":
            X = np.asfortranarray(X)
        else:
            X = X[1::2, ::2]
            assert not X.flags.c_contiguous and not X.flags.f_contiguous
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="NaN or infinite"):
                check_features(X)

    def test_returns_2d_float64_input_without_a_copy(self):
        C = np.ones((3, 2))
        for X in (C, np.asfortranarray(C), np.ones((4, 4))[:, 1:3]):
            assert check_features(X) is X


class TestCheckLabels:
    def test_scalar_becomes_vector(self):
        y = check_labels(np.array(3))
        assert y.shape == (1,)

    def test_float_integer_labels_are_cast(self):
        y = check_labels(np.array([0.0, 1.0, 2.0]))
        assert y.dtype.kind == "i"

    def test_rejects_fractional_labels(self):
        with pytest.raises(ValueError, match="integer-coded"):
            check_labels(np.array([0.5, 1.0]))

    def test_rejects_nan_labels(self):
        with pytest.raises(ValueError, match="NaN"):
            check_labels(np.array([np.nan, 1.0]))

    def test_rejects_2d(self):
        with pytest.raises(ValueError, match="1-dimensional"):
            check_labels(np.zeros((2, 2)))


class TestCheckRandomState:
    def test_none_gives_generator(self):
        assert isinstance(check_random_state(None), np.random.Generator)

    def test_seed_is_reproducible(self):
        first = check_random_state(5).random(3)
        second = check_random_state(5).random(3)
        np.testing.assert_allclose(first, second)

    def test_generator_passthrough(self):
        generator = np.random.default_rng(0)
        assert check_random_state(generator) is generator

    def test_invalid_seed_raises(self):
        with pytest.raises(ValueError):
            check_random_state("not-a-seed")


class TestRangeChecks:
    def test_check_positive_accepts_positive(self):
        assert check_positive(0.1, "x") == 0.1

    def test_check_positive_rejects_zero(self):
        with pytest.raises(ValueError, match="positive"):
            check_positive(0.0, "x")

    def test_check_in_range_inclusive(self):
        assert check_in_range(1.0, "x", 0.0, 1.0) == 1.0

    def test_check_in_range_exclusive_rejects_bound(self):
        with pytest.raises(ValueError):
            check_in_range(1.0, "x", 0.0, 1.0, inclusive=False)

    def test_check_in_range_rejects_outside(self):
        with pytest.raises(ValueError):
            check_in_range(2.0, "x", 0.0, 1.0)
