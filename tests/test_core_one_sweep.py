"""One stored-candidate sweep per node and batch decides what two sweeps did.

``DMTNode.update_statistics`` sweeps the stored candidates' child losses
once per batch.  The admission loop of ``CandidateManager.consider_new``
and the node's split check both read that sweep, and the node sweeps again
only when the batch admitted or evicted a candidate.
``TwoSweepDynamicModelTree`` of ``tests/oracles.py`` keeps the checks that
sweep the store afresh.  After every batch both trees must hold the same
structure, split keys, node statistics and candidate stores, and every
check must choose the same candidate with the same gain, bit for bit.  The
streams grow inner nodes, so the resplit gain (4) reads the shared sweep
against the subtree's leaf loss, and their batches admit and evict
candidates, so the sweep goes stale and is taken again.
"""

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DynamicModelTree
from repro.core.candidates import CandidateManager
from tests.conftest import batch_schedule, make_xor
from tests.oracles import TwoSweepDynamicModelTree


def _stream(kind, seed):
    """Rows, labels, classes and batch sizes of one growing stream."""
    rng = np.random.default_rng(seed)
    if kind == "xor":
        X, y = make_xor(6000, seed=seed)
        return X * 3.0, y, [0, 1], batch_schedule(rng, len(X), max_batch=120)
    if kind == "band":
        X = rng.uniform(-3.0, 3.0, size=(4000, 2))
        y = (np.abs(X[:, 0]) > 1.5).astype(int)
        return X, y, [0, 1], batch_schedule(rng, len(X))
    # Six classes on eight features: a band of feature 0 times an argmax.
    X = rng.uniform(-3.0, 3.0, size=(3000, 8))
    y = 3 * (np.abs(X[:, 0]) > 1.5) + np.argmax(X[:, 1:4], axis=1)
    sizes = [1] + [int(size) for size in rng.integers(60, 160, size=40)]
    return X, y, list(range(6)), sizes


@contextmanager
def _recording():
    """Log every split check's choice and every store change, in order."""
    log = []
    best_index = CandidateManager.best_index
    consider_new = CandidateManager.consider_new

    def recording_best_index(self, reference_loss, child_losses, exclude=None):
        best, gain = best_index(self, reference_loss, child_losses, exclude)
        key = None if best is None else (
            int(self._features[best]), float(self._thresholds[best])
        )
        log.append(("check", exclude is not None, key, gain))
        return best, gain

    def recording_consider_new(self, *args, **kwargs):
        before = set(self._key_index)
        changed = consider_new(self, *args, **kwargs)
        after = set(self._key_index)
        assert changed == (before != after)
        log.append(("store", bool(after - before), bool(before - after)))
        return changed

    CandidateManager.best_index = recording_best_index
    CandidateManager.consider_new = recording_consider_new
    try:
        yield log
    finally:
        CandidateManager.best_index = best_index
        CandidateManager.consider_new = consider_new


def _assert_trees_identical(fast, slow):
    fast_nodes = fast.root.subtree_nodes()
    slow_nodes = slow.root.subtree_nodes()
    assert [node.split_key for node in fast_nodes] == [
        node.split_key for node in slow_nodes
    ]
    assert [node.is_leaf for node in fast_nodes] == [
        node.is_leaf for node in slow_nodes
    ]
    for fast_node, slow_node in zip(fast_nodes, slow_nodes):
        assert fast_node.loss == slow_node.loss
        assert fast_node.count == slow_node.count
        np.testing.assert_array_equal(fast_node.gradient, slow_node.gradient)
        np.testing.assert_array_equal(
            fast_node.model.weights, slow_node.model.weights
        )
        for field in ("_features", "_thresholds", "_losses", "_counts", "_gradients"):
            np.testing.assert_array_equal(
                getattr(fast_node.candidates, field),
                getattr(slow_node.candidates, field),
            )


def _run_both(kind, seed):
    """Train the product and the two-sweep oracle side by side.

    Returns how often the run checked an inner node and changed a store
    by admission and by eviction.
    """
    X, y, classes, sizes = _stream(kind, seed)
    fast = DynamicModelTree(random_state=seed)
    slow = TwoSweepDynamicModelTree(random_state=seed)
    exercised = {"inner checks": 0, "admissions": 0, "evictions": 0}
    start = 0
    with _recording() as log:
        for size in sizes:
            xb, yb = X[start : start + size], y[start : start + size]
            start += size
            if not len(xb):
                break
            fast.partial_fit(xb, yb, classes=classes)
            fast_log = log[:]
            log.clear()
            slow.partial_fit(xb, yb, classes=classes)
            slow_log = log[:]
            log.clear()
            assert fast_log == slow_log
            _assert_trees_identical(fast, slow)
            for entry in fast_log:
                if entry[0] == "check":
                    exercised["inner checks"] += entry[1]
                else:
                    exercised["admissions"] += entry[1]
                    exercised["evictions"] += entry[2]
    np.testing.assert_array_equal(fast.predict_proba(X), slow.predict_proba(X))
    return exercised


@settings(max_examples=8, deadline=None)
@given(kind=st.sampled_from(("xor", "band", "band 6-class")), seed=st.integers(0, 10_000))
def test_one_sweep_decides_what_two_sweeps_did(kind, seed):
    _run_both(kind, seed)


@pytest.mark.parametrize("kind", ("xor", "band", "band 6-class"))
def test_the_streams_reach_every_path_of_the_shared_sweep(kind):
    exercised = _run_both(kind, seed=0)
    assert exercised["inner checks"] > 0
    assert exercised["admissions"] > 0
    assert exercised["evictions"] > 0
