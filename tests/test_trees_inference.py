"""Hoeffding-tree inference on small and large batches, against the per-row walk.

``predict_proba`` of VFDT, HT-Ada and EFDT routes a batch of at most
``SMALL_BATCH`` rows by one descent per row and a larger batch by one mask
partition per split node (``route_batch_groups``).  It then computes one
probability row per majority-class leaf or split node the batch reaches,
over Python floats, and scores a Naive Bayes leaf's rows in one call.
Every result must equal ``_predict_proba_per_row`` of ``tests/oracles.py``
(numpy, one walk per row) bit for bit, sign bits included, after every
training batch: 2, 3 and 10 classes, declared or grown, trees that split,
HT-Ada alternates and swaps, and hand-built trees whose routed child is
missing.

CI runs this file with ``-W error::RuntimeWarning``: the Python-float path
must not raise where numpy stays silent, for example on an empty leaf or a
split node whose class distribution is all zero.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trees.base import SMALL_BATCH, SplitNode, route_batch_groups
from tests.conftest import make_multiclass_blobs
from tests.oracles import _predict_proba_per_row, tree_nodes
from tests.test_baselines_vectorized import TREE_FACTORIES, random_schedule, stream_rows

HOEFFDING_TREES = sorted(TREE_FACTORIES)


def assert_matches_per_row_walk(model, X):
    proba = model.predict_proba(X)
    expected = _predict_proba_per_row(model, X)
    assert proba.shape == expected.shape and proba.dtype == expected.dtype
    assert np.array_equal(proba, expected)
    assert np.array_equal(np.signbit(proba), np.signbit(expected))


def labelled_rows(n_classes, n, seed):
    """``n`` rows of SEA (2 classes), blobs (3) or LED (10), and the classes."""
    if n_classes == 3:
        X, y = make_multiclass_blobs(n, n_classes=3, n_features=4, seed=seed)
        return X, y, [0, 1, 2]
    return stream_rows(n_classes == 10, n, seed, False)


def walk(node, values):
    """The node a per-row walk stops at, and the branch it could not take."""
    while isinstance(node, SplitNode):
        branch = node.branch_for(values)
        if node.children[branch] is None:
            return node, branch
        node = node.children[branch]
    return node, None


class TestSmallBatchPrediction:
    @settings(max_examples=16, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        model=st.sampled_from(HOEFFDING_TREES),
        n_classes=st.sampled_from([2, 3, 10]),
        declare_classes=st.booleans(),
        tie_threshold=st.sampled_from([0.05, 0.5]),
    )
    def test_every_batch_size_matches_the_per_row_walk(
        self, seed, model, n_classes, declare_classes, tie_threshold
    ):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(400, 1200))
        X, y, classes = labelled_rows(n_classes, n + 40, seed % 97)
        if model == "ht_ada":
            # Drifting errors grow alternates and swap them in.
            y = y.copy()
            y[n // 2 :] = (np.asarray(y[n // 2 :]) + 1) % len(classes)
        product, params = TREE_FACTORIES[model]
        tree = product(**{**params, "tie_threshold": tie_threshold})
        # Undeclared classes grow from a one-row first batch, whose tree
        # knows one class: its rows are cut to one column.
        sizes = [1] + random_schedule(rng, n - 1, single_rows=True)
        position = 0
        for size in sizes:
            batch = slice(position, position + size)
            tree.partial_fit(X[batch], y[batch], classes if declare_classes else None)
            position += size
            start = int(rng.integers(0, len(X) - 40))
            small = int(rng.integers(1, SMALL_BATCH + 1))
            large = int(rng.integers(SMALL_BATCH + 1, 40))
            assert_matches_per_row_walk(tree, X[start : start + small])
            assert_matches_per_row_walk(tree, X[start : start + large])

    @pytest.mark.parametrize("model", HOEFFDING_TREES)
    @pytest.mark.parametrize("classes", [[0, 1], [0, 1, 2], None])
    def test_missing_children_and_empty_nodes(self, model, classes):
        """Rows that reach an empty leaf, or a split node whose child on their
        branch is missing and whose class distribution is all zero, narrower
        than the class space or zero on the known classes, match the walk.
        Thresholds are feature values of rows that are routed, so ties go
        left."""
        X, y, _ = labelled_rows(3, 300, seed=1)
        product, params = TREE_FACTORIES[model]
        tree = product(**params)
        if classes is None:
            tree.partial_fit(X[:1], y[:1])  # one known class
        else:
            tree.partial_fit(X[:200], y[:200], classes=classes)
        trained = tree.root
        n_known = max(tree.n_classes_, 2)
        zero_split = SplitNode(0, float(X[13, 0]), class_dist=np.zeros(n_known))
        zero_split.children[0] = tree._new_leaf(depth=1)  # all-zero counts
        narrow_split = SplitNode(1, float(X[100, 1]), class_dist=np.array([3.0, 1.0]))
        # With one known class its fallback row is [0.0], which sums to 0.
        narrow_split.children = [
            SplitNode(3, float(X[2, 3]), class_dist=np.array([0.0, 2.0])),
            trained,
        ]
        nominal_split = SplitNode(2, float(X[0, 2]), is_nominal=True)
        nominal_split.children = [narrow_split, zero_split]
        for root in (zero_split, narrow_split, nominal_split):
            tree.root = root
            for size in (1, 2, 5, SMALL_BATCH, SMALL_BATCH + 1, 40):
                for start in (0, 13, 100):
                    assert_matches_per_row_walk(tree, X[start : start + size])

    @pytest.mark.parametrize("model", HOEFFDING_TREES)
    def test_leaves_narrower_than_the_class_space(self, model):
        """A class that first appears at one leaf leaves the others' counts
        one class short until they learn again; their rows are padded."""
        X, y, _ = labelled_rows(2, 1000, seed=4)
        product, params = TREE_FACTORIES[model]
        tree = product(**{**params, "tie_threshold": 0.5})
        for start in range(0, 900, 50):
            tree.partial_fit(X[start : start + 50], y[start : start + 50])
        assert tree.n_split_events >= 1 and tree.n_classes_ == 2
        tree.partial_fit(X[900:901], [2])
        leaves = [n for n in tree_nodes(tree.root) if not hasattr(n, "children")]
        assert min(len(leaf.class_dist) for leaf in leaves) < tree.n_classes_ == 3
        for size in (1, 3, SMALL_BATCH, SMALL_BATCH + 1, 60):
            for start in (0, 400, 900):
                assert_matches_per_row_walk(tree, X[start : start + size])


class TestRouting:
    def test_groups_cover_every_row_once_in_ascending_order(self):
        """Both routing strategies put each row in the group of the slot a
        per-row walk stops at: a leaf with its parent and branch, or a
        ``None`` node on the missing branch, one group per slot.  A subset
        of the rows routed from a subtree lands in the same slots."""
        X, y, classes = labelled_rows(3, 400, seed=2)
        tree = TREE_FACTORIES["vfdt_mc"][0](grace_period=30, tie_threshold=0.5)
        tree.partial_fit(X[:300], y[:300], classes=classes)
        assert tree.n_split_events >= 2
        both_missing = SplitNode(3, float(X[251, 3]))
        root = SplitNode(2, float(X[5, 2]), is_nominal=True)
        root.children = [tree.root, both_missing]
        for size in range(1, 3 * SMALL_BATCH):
            for start in (0, 7, 250):
                batch = X[start : start + size]
                self.check_groups(route_batch_groups(root, batch), root, batch, size)
                # Every other row that goes left at the root, routed from
                # the root's left child, as an index array and as a list.
                left = [row for row in range(size) if root.branch_for(batch[row]) == 0]
                subset = np.array(left[::2], dtype=np.intp)
                for rows in (subset, subset.tolist()):
                    groups = route_batch_groups(tree.root, batch, rows, root, 0)
                    self.check_groups(groups, root, batch, subset)

    @staticmethod
    def check_groups(groups, root, batch, rows):
        """``groups`` cover ``rows`` (a count or indices) as per-row walks do."""
        expected = list(range(rows)) if isinstance(rows, int) else rows.tolist()
        seen = []
        for node, parent, branch, group_rows in groups:
            group_rows = np.asarray(group_rows)
            assert group_rows.dtype.kind == "i"
            assert list(group_rows) == sorted(group_rows)
            assert parent.children[branch] is node
            for row in group_rows.tolist():
                stop, missing_branch = walk(root, batch[row])
                if node is None:
                    assert (stop, missing_branch) == (parent, branch)
                else:
                    assert (stop, missing_branch) == (node, None)
            seen.extend(group_rows.tolist())
        assert sorted(seen) == expected
        slots = {(id(parent), branch) for _, parent, branch, _ in groups}
        assert len(slots) == len(groups)
