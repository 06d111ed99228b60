"""Input validation helpers used across the package."""

from __future__ import annotations

import numbers

import numpy as np


def check_features(X: np.ndarray) -> np.ndarray:
    """Coerce ``X`` to a 2-D float array and reject invalid values.

    NaN and infinite values are found in one elementwise ``isfinite`` pass,
    which never warns.  There is no screen on ``X.sum()`` ahead of it:
    finite values whose sum overflows need an ``errstate`` guard, and the
    guarded sum costs more than the pass it would skip (measured from 1 to
    2,048 rows of 33 features and on 120 rows of 966).  A 2-D float64 array
    is returned as is, without a copy.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(1, -1)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-dimensional, got shape {X.shape}.")
    if X.shape[0] == 0 or X.shape[1] == 0:
        raise ValueError(f"X must be non-empty, got shape {X.shape}.")
    if not np.isfinite(X).all():
        raise ValueError("X contains NaN or infinite values.")
    return X


def check_labels(y: np.ndarray) -> np.ndarray:
    """Coerce ``y`` to a 1-D array of labels."""
    y = np.asarray(y)
    if y.ndim == 0:
        y = y.reshape(1)
    if y.ndim != 1:
        raise ValueError(f"y must be 1-dimensional, got shape {y.shape}.")
    if y.dtype.kind == "f":
        if not np.all(np.isfinite(y)):
            raise ValueError("y contains NaN or infinite values.")
        rounded = np.round(y)
        if not np.allclose(y, rounded):
            raise ValueError("y must contain integer-coded class labels.")
        y = rounded.astype(int)
    return y


def check_random_state(seed) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` from ``seed``.

    Accepts ``None``, an integer seed, or an existing generator (returned
    unchanged), mirroring scikit-learn's ``check_random_state`` convention.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None or isinstance(seed, numbers.Integral):
        return np.random.default_rng(seed)
    raise ValueError(f"Cannot build a random generator from {seed!r}.")


def check_positive(value: float, name: str) -> float:
    """Validate that ``value`` is strictly positive."""
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value!r}.")
    return value


def check_in_range(
    value: float, name: str, low: float, high: float, inclusive: bool = True
) -> float:
    """Validate that ``value`` lies in ``[low, high]`` (or ``(low, high)``)."""
    if inclusive:
        ok = low <= value <= high
    else:
        ok = low < value < high
    if not ok:
        raise ValueError(
            f"{name} must be in the range [{low}, {high}], got {value!r}."
        )
    return value
