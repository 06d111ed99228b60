"""Property test: FIMT-DD's one-pass training is bit-identical to the
two-pass row loop it replaced.

``FIMTDDClassifier`` trains every leaf through ``IncrementalGLM.sgd_step``,
whose forward pass yields both the SGD step and the Page-Hinkley error.  The
oracle ``TwoPassFIMTDD`` (``tests/oracles.py``) keeps the earlier loop: per
row, ``predict`` on the leaf model, then ``update`` on a one-row batch.  Both
run over binary and multiclass streams whose concept flips (binary) or
rotates (multiclass) mid-stream, under random batch schedules that include
single-row batches.  Every leaf's
weight bytes, every Page-Hinkley state, the split and prune counts and
``predict_proba`` must match.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trees.fimtdd import FIMTDDClassifier, FIMTLeaf
from tests.conftest import batch_schedule
from tests.oracles import TwoPassFIMTDD


def _hex(*values):
    return tuple(float(value).hex() for value in values)


def _tree_state(node):
    """Every training statistic of the tree, exact to the bit."""
    if node is None:
        return None
    if isinstance(node, FIMTLeaf):
        return (
            "leaf",
            node.depth,
            node.model.weights.tobytes(),
            _hex(node.total_weight, node.weight_at_last_split_attempt),
        )
    detector = node.page_hinkley
    return (
        "split",
        node.feature,
        _hex(node.threshold),
        node.depth,
        detector.n_observations,
        detector.in_drift,
        _hex(detector._mean, detector._cumulative, detector._minimum),
        [_tree_state(child) for child in node.children],
    )


def _drifting_stream(rng, n_rows, n_features, n_classes):
    """Piecewise-axis-aligned concept that flips or rotates mid-stream."""
    X = rng.uniform(size=(n_rows, n_features))
    if n_classes == 2:
        y = ((X[:, 0] > 0.5) ^ (X[:, 1] > 0.5)).astype(int)
    else:
        y = (np.floor(X[:, 0] * n_classes).astype(int) + (X[:, 1] > 0.5)) % n_classes
    change = int(rng.integers(n_rows // 4, 3 * n_rows // 4))
    y[change:] = (y[change:] + 1) % n_classes
    return X, y


@pytest.mark.parametrize("n_classes", [2, 3, 5])
def test_one_pass_training_matches_two_pass_oracle(n_classes):
    pruned = []

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 10_000),
        n_features=st.integers(2, 4),
        n_rows=st.integers(300, 1500),
        grace_period=st.integers(10, 100),
        ph_threshold=st.floats(1.0, 20.0),
        learning_rate=st.sampled_from([0.01, 0.1, 0.5]),
    )
    def check(
        seed, n_features, n_rows, grace_period, ph_threshold, learning_rate
    ):
        rng = np.random.default_rng(seed)
        X, y = _drifting_stream(rng, n_rows, n_features, n_classes)
        params = dict(
            learning_rate=learning_rate,
            grace_period=grace_period,
            ph_threshold=ph_threshold,
            random_state=seed,
        )
        fused = FIMTDDClassifier(**params)
        oracle = TwoPassFIMTDD(**params)
        classes = list(range(n_classes))
        start = 0
        for size in batch_schedule(rng, n_rows):
            xb, yb = X[start : start + size], y[start : start + size]
            start += size
            fused.partial_fit(xb, yb, classes=classes)
            oracle.partial_fit(xb, yb, classes=classes)
            assert _tree_state(fused.root) == _tree_state(oracle.root)
        assert fused.n_split_events == oracle.n_split_events
        assert fused.n_pruned_branches == oracle.n_pruned_branches
        assert (
            fused.predict_proba(X).tobytes() == oracle.predict_proba(X).tobytes()
        )
        pruned.append(fused.n_pruned_branches)

    check()
    # The examples must exercise the Page-Hinkley prune, not only splits.
    assert sum(pruned) >= 1
