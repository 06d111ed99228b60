"""HT-Ada -- the Hoeffding Adaptive Tree (Bifet & Gavaldà, 2009).

The adaptive Hoeffding Tree augments every split node with an ADWIN change
detector on its prediction error.  When a node's error distribution changes,
an alternate subtree is grown in parallel; once the alternate subtree is more
accurate than the original branch, it replaces it.  Following the paper's
configuration, no bootstrap sampling is applied in the leaves and leaves use
majority voting.

ADWIN updates are inherently sequential (every error depends on the leaf
statistics accumulated from the rows before it), so HT-Ada cannot learn a
batch with one kernel the way the plain VFDT does.  Training instead
removes the per-row tree work: a batch is routed once by the family's
router (the leaves' root-to-leaf paths are cached until the structure
changes) and the per-row subtree predictions -- which the per-row recursion
recomputes at *every* node of the path, an ``O(depth^2)`` walk -- collapse
to a single leaf evaluation, because every main-path node predicts through
the same leaf.  Both share :meth:`~HoeffdingAdaptiveTreeClassifier._monitor_split_node`
and the family's one split installer, and the result is bit-identical to
the recursion.

``complexity()``, ``n_nodes``, ``n_leaves`` and ``depth`` count the main tree
only: an alternate subtree is not part of the model until it is swapped in.
"""

from __future__ import annotations

import numpy as np

from repro.drift.adwin import ADWIN
from repro.persistence.registry import register
from repro.telemetry import TELEMETRY
from repro.trees.base import LeafNode, SplitNode, route_batch_groups
from repro.trees.vfdt import HoeffdingTreeClassifier
from repro.utils.numerics import np_pairwise_sum


@register
class AdaLeafNode(LeafNode):
    """Learning leaf with an ADWIN estimator of its own error rate."""

    __slots__ = ("adwin",)

    def __init__(self, *args, adwin_delta: float = 0.002, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.adwin = ADWIN(delta=adwin_delta)


@register
class AdaSplitNode(SplitNode):
    """Split node with an ADWIN error monitor and an optional alternate tree."""

    __slots__ = (
        "adwin",
        "alternate_tree",
        "main_errors_since_alt",
        "alt_errors",
        "alt_weight",
    )

    def __init__(self, *args, adwin_delta: float = 0.002, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.adwin = ADWIN(delta=adwin_delta)
        self.alternate_tree = None
        # Error bookkeeping for the main branch vs. the alternate branch
        # since the alternate tree was created.
        self.main_errors_since_alt = 0.0
        self.alt_errors = 0.0
        self.alt_weight = 0.0


class HoeffdingAdaptiveTreeClassifier(HoeffdingTreeClassifier):
    """Hoeffding Adaptive Tree (the paper's HT-Ada baseline).

    Parameters
    ----------
    adwin_delta:
        Confidence of the per-node ADWIN detectors.
    alternate_min_weight:
        Minimum number of observations an alternate subtree must see before
        it may replace (or be discarded in favour of) the original branch.
    grace_period, split_confidence, tie_threshold, leaf_prediction,
    split_criterion, n_split_points, max_depth, nominal_features:
        As in :class:`~repro.trees.vfdt.HoeffdingTreeClassifier`.
    """

    def __init__(
        self,
        grace_period: int = 200,
        split_confidence: float = 1e-7,
        tie_threshold: float = 0.05,
        leaf_prediction: str = "mc",
        split_criterion: str = "info_gain",
        n_split_points: int = 10,
        max_depth: int | None = None,
        nominal_features: set[int] | None = None,
        adwin_delta: float = 0.002,
        alternate_min_weight: int = 150,
    ) -> None:
        super().__init__(
            grace_period=grace_period,
            split_confidence=split_confidence,
            tie_threshold=tie_threshold,
            leaf_prediction=leaf_prediction,
            split_criterion=split_criterion,
            n_split_points=n_split_points,
            max_depth=max_depth,
            nominal_features=nominal_features,
        )
        self.adwin_delta = float(adwin_delta)
        self.alternate_min_weight = int(alternate_min_weight)
        self.n_alternate_trees = 0
        self.n_tree_swaps = 0
        self.n_pruned_alternates = 0

    def reset(self) -> "HoeffdingAdaptiveTreeClassifier":
        super().reset()
        self.n_alternate_trees = 0
        self.n_tree_swaps = 0
        self.n_pruned_alternates = 0
        return self

    # ---------------------------------------------------------------- nodes
    def _new_leaf(
        self, depth: int, initial_dist: np.ndarray | None = None
    ) -> AdaLeafNode:
        self._structure_changed()
        return AdaLeafNode(
            n_classes=max(self.n_classes_, 2),
            n_features=self.n_features_,
            leaf_prediction=self.leaf_prediction,
            n_split_points=self.n_split_points,
            nominal_features=self.nominal_features,
            depth=depth,
            initial_dist=initial_dist,
            adwin_delta=self.adwin_delta,
        )

    def _new_split_node(self, leaf: LeafNode, **node_args) -> AdaSplitNode:
        return AdaSplitNode(**node_args, adwin_delta=self.adwin_delta)

    # ---------------------------------------------------------------- learn
    def _learn_one(self, x: np.ndarray, y_idx: int) -> None:
        if self.root is None:
            self.root = self._new_leaf(depth=0)
        self._learn_in_subtree(self.root, x, y_idx, parent=None, branch=0)

    def _subtree_predict(self, node, x: np.ndarray) -> int:
        """Class index predicted by the subtree rooted at ``node``."""
        n_classes = max(self.n_classes_, 2)
        while isinstance(node, SplitNode):
            child = node.child_for(x)
            if child is None:
                dist = node.class_dist
                if dist.sum() == 0:
                    return 0
                return int(np.argmax(dist))
            node = child
        return int(np.argmax(node.predict_proba(x, n_classes)))

    def _learn_in_subtree(
        self, node, x: np.ndarray, y_idx: int, parent, branch: int
    ) -> None:
        """The per-row recursion: the reference of the cached-routing loop."""
        if not isinstance(node, AdaSplitNode):
            node.adwin.update(float(self._subtree_predict(node, x) != y_idx))
            node.learn_one(x, y_idx, n_classes=max(self.n_classes_, 2))
            self._check_split(node, parent, branch)
            return
        error = float(self._subtree_predict(node, x) != y_idx)
        if self._monitor_split_node(node, parent, branch, error, x, y_idx):
            return  # the alternate tree, now in place, has learned the row
        child_branch = node.branch_for(x)
        child = node.children[child_branch]
        if child is None:
            child = node.children[child_branch] = self._new_leaf(depth=node.depth + 1)
        self._learn_in_subtree(child, x, y_idx, parent=node, branch=child_branch)

    def _monitor_split_node(
        self, node: AdaSplitNode, parent, branch: int, error: float, x, y_idx: int
    ) -> bool:
        """Feed the main branch's ``error`` on one row to ``node``'s ADWIN;
        start, train, swap in or drop its alternate tree.

        Returns whether the alternate tree replaced ``node`` on ``parent``'s
        ``branch``.  A fresh alternate tree first learns from the next row.
        """
        previous_error = node.adwin.mean
        drift = node.adwin.update(error)
        if node.alternate_tree is None:
            if drift and node.adwin.mean > previous_error:
                node.alternate_tree = self._new_leaf(depth=node.depth)
                node.main_errors_since_alt = 0.0
                node.alt_errors = 0.0
                node.alt_weight = 0.0
                self.n_alternate_trees += 1
                if TELEMETRY.enabled:
                    self._telemetry_alternate_started(node.depth)
            return False
        # Train the alternate subtree in parallel and track both errors.
        alt_error = float(self._subtree_predict(node.alternate_tree, x) != y_idx)
        node.alt_errors += alt_error
        node.main_errors_since_alt += error
        node.alt_weight += 1.0
        self._learn_in_subtree(node.alternate_tree, x, y_idx, parent=node, branch=-1)
        if node.alt_weight < self.alternate_min_weight:
            return False
        alt_rate = node.alt_errors / node.alt_weight
        main_rate = node.main_errors_since_alt / node.alt_weight
        if alt_rate < main_rate:
            self._replace_child(parent, branch, node.alternate_tree)
            self.n_tree_swaps += 1
            if TELEMETRY.enabled:
                self._telemetry_swap(node.depth)
            return True
        if alt_rate > main_rate + 0.05:
            node.alternate_tree = None
            self.n_pruned_alternates += 1
            if TELEMETRY.enabled:
                self._telemetry_prune("alternate", node.depth)
        return False

    # ---------------------------------------------------- vectorized fitting
    def _partial_fit_vectorized(self, X: np.ndarray, y_idx: np.ndarray) -> None:
        """Cached-routing training loop, bit-identical to the recursion.

        Rows are still consumed one at a time (the ADWIN error signals are
        sequential), but the root-to-leaf walk is shared: the remaining
        batch is routed once (:func:`route_batch_groups`) and the routing is
        reused until a split or subtree swap changes the structure.  Every
        main-path node predicts through the same leaf, so the per-node
        subtree predictions of the recursion collapse to one leaf
        evaluation per row.
        """
        if self.leaf_prediction != "mc":
            # Naive Bayes leaf predictors interleave per-row model updates
            # with per-row predictions; use the per-row recursion.
            for row in range(len(X)):
                self._learn_one(X[row], int(y_idx[row]))
            return
        n = len(X)
        n_classes = max(self.n_classes_, 2)
        y_list = y_idx.tolist()
        X_list = X.tolist()
        grace = self.grace_period
        start = 0
        while start < n:
            # Rows of the groups count from ``start``.
            groups = route_batch_groups(self.root, X[start:])
            if any(leaf is None for leaf, _, _, _ in groups):
                # A missing child means the per-row walk would predict
                # from the split node itself; defer to the recursion.
                for row in range(start, n):
                    self._learn_one(X[row], int(y_idx[row]))
                return
            leaf_entries = []
            leaf_rows = [0] * (n - start)
            for leaf_index, (leaf, parent, branch, rows) in enumerate(groups):
                rows = rows.tolist() if isinstance(rows, np.ndarray) else rows
                for row in rows:
                    leaf_rows[row] = leaf_index
                path = self._main_path(X_list[start + rows[0]])
                leaf_entries.append((leaf, path, parent, branch))
            # Python mirrors of each leaf's class counts: plain float
            # arithmetic tracks the numpy statistics exactly and avoids
            # re-materialising distributions for every row.
            mirrors: list[list[float] | None] = [None] * len(leaf_entries)
            nonzeros = [0] * len(leaf_entries)
            # Class counts are accumulated in the Python mirrors and written
            # back to the numpy arrays lazily: before a split attempt (which
            # reads them), on a structure change and at the end of the batch.
            dirty: set[int] = set()
            restart_at = None
            for i in range(start, n):
                leaf_index = leaf_rows[i - start]
                leaf, path, parent, branch = leaf_entries[leaf_index]
                dist = mirrors[leaf_index]
                if dist is None:
                    leaf._grow_classes(n_classes)
                    dist = mirrors[leaf_index] = leaf.class_dist.tolist()
                    nonzeros[leaf_index] = int(np.count_nonzero(leaf.class_dist))
                y = y_list[i]
                # Leaf prediction, replicating predict_proba + argmax.
                # (numpy sums sequentially below 8 elements; inline that.)
                if n_classes < 8:
                    total = 0.0
                    for value in dist:
                        total += value
                else:
                    total = np_pairwise_sum(dist)
                if total == 0:
                    prediction = 0  # argmax of the uniform distribution
                else:
                    prediction = 0
                    best = dist[0] / total
                    for class_idx in range(1, n_classes):
                        value = dist[class_idx] / total
                        if value > best:
                            best = value
                            prediction = class_idx
                error = 1.0 if prediction != y else 0.0
                # The row as Python floats: majority-class leaves read no
                # feature to predict, so an alternate tree routes and learns
                # from the list as the recursion does from the array.
                x = X_list[i]
                swapped = False
                for node, node_parent, node_branch in path:
                    swapped = self._monitor_split_node(
                        node, node_parent, node_branch, error, x, y
                    )
                    if swapped:
                        break
                if swapped:
                    restart_at = i + 1
                    break
                # Leaf: ADWIN on the same error, then learn and maybe split.
                # (The lean equivalent of ``learn_one`` for majority-class
                # leaves: class counts go to the mirror, features to the
                # structure-of-arrays observer store.)
                leaf.adwin.update(error)
                if dist[y] == 0.0:
                    nonzeros[leaf_index] += 1
                dist[y] += 1.0
                dirty.add(leaf_index)
                leaf.observers.update_row(x, y, 1.0)
                if nonzeros[leaf_index] > 1 and (
                    self.max_depth is None or leaf.depth < self.max_depth
                ):
                    if n_classes < 8:
                        weight_seen = 0.0
                        for value in dist:
                            weight_seen += value
                    else:
                        weight_seen = np_pairwise_sum(dist)
                    if weight_seen - leaf.weight_at_last_split_attempt >= grace:
                        leaf.class_dist[:] = dist
                        dirty.discard(leaf_index)
                        leaf.weight_at_last_split_attempt = weight_seen
                        if self._attempt_split(leaf, parent, branch) is not None:
                            restart_at = i + 1
                            break
            for leaf_index in dirty:
                leaf_entries[leaf_index][0].class_dist[:] = mirrors[leaf_index]
            if restart_at is None:
                return
            start = restart_at

    def _main_path(self, values: list[float]) -> list[tuple]:
        """``(split node, its parent, its branch)`` for each split node a
        row passes, root first."""
        path = []
        node, parent, branch = self.root, None, 0
        while isinstance(node, SplitNode):
            path.append((node, parent, branch))
            parent, branch = node, node.branch_for(values)
            node = node.children[branch]
        return path

    def _replace_child(self, parent, branch: int, new_node) -> None:
        if branch == -1:
            parent.alternate_tree = new_node
        else:
            super()._replace_child(parent, branch, new_node)
