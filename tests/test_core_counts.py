"""The DMT's maintained subtree counts equal a walk of the tree.

Every ``DMTNode`` keeps its subtree's leaf, inner-node and leaf-parameter
counts and its height, refreshed from its children at every structural
change and bottom-up on every batch.  ``complexity()``, ``n_nodes``,
``n_leaves``, ``depth`` and the resplit and prune thresholds read them.
``dmt_complexity_walk`` of ``tests/oracles.py`` counts by walking every
node.  The counts must equal the walk after every batch of a growing tree,
after structural changes forced on the root and after a save/load round
trip; they are not persisted.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DynamicModelTree
from repro.core.gains import aic_prune_threshold, aic_resplit_threshold
from repro.persistence import load_model, save_model
from tests.conftest import batch_schedule
from tests.oracles import dmt_complexity_walk

COUNTS = ("n_leaves", "n_inner", "n_leaf_parameters", "height")


def _height(node):
    if node.is_leaf:
        return 0
    return 1 + max(_height(node.left), _height(node.right))


def _assert_counts_match_a_walk(model, epsilon=1e-8):
    assert model.complexity() == dmt_complexity_walk(model)
    if model.root is None:
        return
    # One report per structure: an unchanged tree returns the same object.
    assert model.complexity() is model.complexity()
    nodes = model.root.subtree_nodes()
    assert model.n_nodes == len(nodes)
    assert model.n_leaves == len(model.root.subtree_leaves())
    assert model.depth == _height(model.root)
    for node in nodes:
        leaves = node.subtree_leaves()
        leaf_parameters = sum(leaf.model.n_parameters for leaf in leaves)
        assert node.n_leaves == len(leaves)
        assert node.n_inner == len(node.subtree_nodes()) - len(leaves)
        assert node.n_leaf_parameters == leaf_parameters
        assert node.height == node.depth() == _height(node)
        if not node.is_leaf:
            k = node.model.n_parameters
            assert node.resplit_threshold(epsilon) == aic_resplit_threshold(
                k, k, leaf_parameters, epsilon
            )
            assert node.prune_threshold(epsilon) == aic_prune_threshold(
                k, leaf_parameters, epsilon
            )


def _stream(seed, n_classes):
    """A growing stream: rows, labels, classes and batch sizes."""
    rng = np.random.default_rng(seed)
    if n_classes == 2:
        # A band of feature 0 crossed with the sign of feature 1: the tree
        # splits below the root too, so inner nodes refresh from children.
        X = rng.uniform(-3.0, 3.0, size=(12000, 2))
        y = ((np.abs(X[:, 0]) > 1.5) ^ (X[:, 1] > 0)).astype(int)
    else:
        X = rng.uniform(-3.0, 3.0, size=(4000, 8))
        y = 3 * (np.abs(X[:, 0]) > 1.5) + np.argmax(X[:, 1:4], axis=1)
    return X, y, list(range(n_classes)), batch_schedule(rng, len(X), max_batch=150)


def _grow(seed, n_classes, check_every_batch=False):
    """Train a DMT on :func:`_stream`; return it and the largest depth seen."""
    X, y, classes, sizes = _stream(seed, n_classes)
    model = DynamicModelTree(random_state=seed)
    if check_every_batch:
        _assert_counts_match_a_walk(model)
    deepest = 0
    start = 0
    for size in sizes:
        model.partial_fit(X[start : start + size], y[start : start + size], classes)
        start += size
        deepest = max(deepest, model.depth)
        if check_every_batch:
            _assert_counts_match_a_walk(model)
    return model, deepest


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 10_000), n_classes=st.sampled_from((2, 6)))
def test_counts_match_a_walk_after_every_batch(seed, n_classes):
    _grow(seed, n_classes, check_every_batch=True)


def test_a_tree_that_splits_below_its_root_keeps_exact_counts():
    _, deepest = _grow(0, 2, check_every_batch=True)
    assert deepest >= 2


def test_counts_match_a_walk_after_forced_restructuring():
    model, _ = _grow(0, 2)
    X, y, classes, _ = _stream(1, 2)
    root = model.root
    assert model.n_nodes >= 3
    # Grow the root's left child by hand, then refresh the root, as the
    # bottom-up pass of a batch would.
    child = root.left
    candidate, _ = child.best_split(model.learning_rate)
    child.apply_split(candidate)
    root.refresh_counts()
    _assert_counts_match_a_walk(model)
    root.collapse_to_leaf()
    _assert_counts_match_a_walk(model)
    candidate, _ = root.best_split(model.learning_rate)
    root.apply_split(candidate)
    _assert_counts_match_a_walk(model)
    for begin in range(0, 2000, 50):
        model.partial_fit(X[begin : begin + 50], y[begin : begin + 50], classes)
        _assert_counts_match_a_walk(model)


@pytest.mark.parametrize("n_classes", (2, 6))
def test_counts_are_rebuilt_on_load_and_not_persisted(n_classes, tmp_path):
    model, _ = _grow(1, n_classes)
    X, y, classes, _ = _stream(2, n_classes)
    assert model.n_nodes >= 3
    path = save_model(model, tmp_path / "dmt.json")
    text = (tmp_path / "dmt.json").read_text()
    for name in COUNTS:
        assert f'"{name}"' not in text
    loaded = load_model(path)
    _assert_counts_match_a_walk(loaded)
    assert loaded.complexity() == model.complexity()
    for original, restored in zip(
        model.root.subtree_nodes(), loaded.root.subtree_nodes()
    ):
        assert [getattr(restored, name) for name in COUNTS] == [
            getattr(original, name) for name in COUNTS
        ]
    # The reloaded model trains on exactly as the original.
    for begin in range(0, 1000, 100):
        xb, yb = X[begin : begin + 100], y[begin : begin + 100]
        model.partial_fit(xb, yb, classes)
        loaded.partial_fit(xb, yb, classes)
        _assert_counts_match_a_walk(loaded)
    save_model(loaded, tmp_path / "loaded.json")
    save_model(model, tmp_path / "original.json")
    assert (tmp_path / "loaded.json").read_bytes() == (
        tmp_path / "original.json"
    ).read_bytes()
