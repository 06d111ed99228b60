"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


def make_linear_binary(n: int, n_features: int = 4, seed: int = 0, noise: float = 0.0):
    """Linearly separable binary data (optionally with label noise)."""
    generator = np.random.default_rng(seed)
    X = generator.uniform(0.0, 1.0, size=(n, n_features))
    weights = np.linspace(1.0, 2.0, n_features)
    y = (X @ weights > weights.sum() / 2.0).astype(int)
    if noise > 0:
        flip = generator.random(n) < noise
        y = np.where(flip, 1 - y, y)
    return X, y


def make_xor(n: int, seed: int = 0):
    """2-D XOR data: not linearly separable, needs at least one split."""
    generator = np.random.default_rng(seed)
    X = generator.uniform(0.0, 1.0, size=(n, 2))
    y = ((X[:, 0] > 0.5) ^ (X[:, 1] > 0.5)).astype(int)
    return X, y


def make_multiclass_blobs(n: int, n_classes: int = 3, n_features: int = 5, seed: int = 0):
    """Well-separated Gaussian blobs for multiclass tests."""
    generator = np.random.default_rng(seed)
    centres = generator.uniform(0.0, 1.0, size=(n_classes, n_features))
    y = generator.integers(0, n_classes, size=n)
    X = centres[y] + generator.normal(0.0, 0.05, size=(n, n_features))
    return X, y


def batch_schedule(rng, total, max_batch=60):
    """Random batch sizes covering ``total`` rows, always including size 1."""
    sizes = [1]
    covered = 1
    while covered < total:
        size = int(rng.integers(1, max_batch))
        sizes.append(min(size, total - covered))
        covered += sizes[-1]
    return sizes


@pytest.fixture
def linear_binary():
    return make_linear_binary(600, seed=7)


@pytest.fixture
def xor_data():
    return make_xor(800, seed=3)


@pytest.fixture
def multiclass_blobs():
    return make_multiclass_blobs(600, seed=5)


def make_glm_batch(rng, n_rows, n_classes, scale=1.0, n_features=3):
    """Features, per-sample NLL and gradient rows of an ``n_classes`` GLM.

    The gradient width is ``n_features + 1`` for two classes and
    ``n_classes * (n_features + 1)`` above.  A ``scale`` above 1 also spreads
    row magnitudes over eight decades while keeping every entry finite: at
    1e150 squared norms overflow, at 1e300 sums over rows overflow to inf
    and gains turn inf or NaN.
    """
    X = rng.uniform(size=(n_rows, n_features))
    logits = rng.normal(scale=2.0, size=(n_rows, n_classes))
    proba = np.exp(logits - logits.max(axis=1, keepdims=True))
    proba /= proba.sum(axis=1, keepdims=True)
    y = rng.integers(0, n_classes, size=n_rows)
    errors = proba.copy()
    errors[np.arange(n_rows), y] -= 1.0
    X_aug = np.hstack([X, np.ones((n_rows, 1))])
    if n_classes == 2:
        grad = errors[:, 1:] * X_aug
    else:
        grad = (errors[:, :, None] * X_aug[:, None, :]).reshape(n_rows, -1)
    loss = -np.log(proba[np.arange(n_rows), y])
    if scale != 1.0:
        magnitudes = scale * 10.0 ** rng.uniform(0.0, 8.0, size=n_rows)
        grad = grad * magnitudes[:, None]
        loss = np.minimum(loss, 1.5) * magnitudes
    return X, loss, grad
