"""DMT scoring stays bit-identical to the zero-fill-and-scatter path.

``DynamicModelTree.predict_proba`` hands every batch on a one-leaf tree the
leaf's own output; a grown tree routes a batch and scatters each leaf's rows
into one array.  ``dmt_predict_proba_scatter`` of
``tests/oracles.py`` scatters every batch and builds the leaf probabilities
with ``np.hstack`` and ``np.column_stack``.  The two must agree bit for bit
(``array_equal``, not ``allclose``) on one-leaf and grown trees, on every
request size the serving benchmark sends and on every input layout a caller
may pass.

Every model of ``MODEL_REGISTRY`` that has seen one class must predict it
with probability 1, including on inputs that saturate its link function.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dmt import DynamicModelTree
from repro.experiments.registry import MODEL_REGISTRY, make_model
from tests.conftest import make_linear_binary, make_multiclass_blobs, make_xor
from tests.oracles import dmt_predict_proba_scatter


def _train(model, X, y, classes, batch=100):
    for start in range(0, len(X), batch):
        stop = start + batch
        model.partial_fit(X[start:stop], y[start:stop], classes=classes)
    return model


@lru_cache(maxsize=None)
def _tree(kind):
    """A trained DMT and the range its requests are drawn from."""
    if kind == "one-leaf binary":
        X, y = make_linear_binary(600, n_features=4, seed=7)
        return _train(DynamicModelTree(random_state=0), X, y, [0, 1]), 0.0, 1.0
    if kind == "one-leaf 6-class":
        X, y = make_multiclass_blobs(1200, n_classes=6, n_features=5, seed=3)
        return _train(DynamicModelTree(random_state=0), X, y, range(6)), 0.0, 1.0
    # The scaled XOR tree the serving benchmark scores.
    X, y = make_xor(4000, seed=1)
    return _train(DynamicModelTree(random_state=1), X * 3.0, y, [0, 1]), 0.0, 3.0


TREES = ("one-leaf binary", "one-leaf 6-class", "grown XOR")
LAYOUTS = ("C", "Fortran", "column slice", "integer")


def _request(rows, layout):
    if layout == "Fortran":
        return np.asfortranarray(rows)
    if layout == "column slice":
        wide = np.zeros((len(rows), 2 * rows.shape[1]))
        wide[:, ::2] = rows
        return wide[:, ::2]
    if layout == "integer":
        return np.rint(rows).astype(np.int64)
    return rows


def test_trees_take_both_paths():
    for kind in TREES[:2]:
        model, _, _ = _tree(kind)
        assert model.n_leaves == 1
        assert model.n_classes_ == model.root.model.n_classes
    model, low, high = _tree("grown XOR")
    assert model.n_leaves >= 2
    X = np.random.default_rng(0).uniform(low, high, size=(512, 2))
    assert len(model.root.route_batch_groups(X)) >= 2


@settings(max_examples=120, deadline=None)
@given(
    kind=st.sampled_from(TREES),
    n_rows=st.sampled_from((1, 32, 512)),
    layout=st.sampled_from(LAYOUTS),
    seed=st.integers(0, 2**32 - 1),
)
def test_predict_proba_is_bit_identical_to_the_scatter_path(
    kind, n_rows, layout, seed
):
    model, low, high = _tree(kind)
    rows = np.random.default_rng(seed).uniform(
        low, high, size=(n_rows, model.n_features_)
    )
    X = _request(rows, layout)
    expected = dmt_predict_proba_scatter(model, X)
    served = model.predict_proba(X)
    assert served.shape == (n_rows, model.n_classes_)
    assert served.flags.c_contiguous
    assert np.array_equal(served, expected)


SATURATING = np.array([[-1e4] * 3, [1e4] * 3, [0.5] * 3])


@pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
def test_a_model_that_has_seen_one_class_predicts_it(name):
    X = np.random.default_rng(11).uniform(size=(120, 3))
    model = make_model(name, seed=11)
    model.partial_fit(X, np.zeros(120, dtype=int))
    proba = model.predict_proba(SATURATING)
    assert proba.shape == (3, 1)
    assert np.all(np.isfinite(proba))
    np.testing.assert_allclose(proba.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
    assert model.predict(SATURATING).tolist() == [0, 0, 0]
