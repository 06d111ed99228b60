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
removes the per-row tree work: batches are routed once per split node (the
root-to-leaf paths are cached until the structure changes) and the per-row
subtree predictions -- which the per-row recursion recomputes at *every*
node of the path, an ``O(depth^2)`` walk -- collapse to a single leaf
evaluation, because every main-path node predicts through the same leaf.
The result is bit-identical to the recursion.

``complexity()``, ``n_nodes``, ``n_leaves`` and ``depth`` count the main tree
only: an alternate subtree is not part of the model until it is swapped in.
"""

from __future__ import annotations

import numpy as np

from repro.drift.adwin import ADWIN
from repro.persistence.registry import register
from repro.telemetry import TELEMETRY
from repro.trees.base import LeafNode, SplitNode
from repro.trees.observers import SplitSuggestion
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

    def _split_leaf(
        self,
        leaf: LeafNode,
        suggestion: SplitSuggestion,
        parent: SplitNode | None,
        branch: int,
    ) -> AdaSplitNode:
        new_split = AdaSplitNode(
            feature=suggestion.feature,
            threshold=suggestion.threshold,
            is_nominal=suggestion.is_nominal,
            class_dist=leaf.class_dist.copy(),
            depth=leaf.depth,
            adwin_delta=self.adwin_delta,
        )
        for child_idx in range(2):
            initial = (
                suggestion.children_dists[child_idx]
                if len(suggestion.children_dists) == 2
                else None
            )
            new_split.children[child_idx] = self._new_leaf(
                depth=leaf.depth + 1, initial_dist=initial
            )
        self._replace_child(parent, branch, new_split)
        self.n_split_events += 1
        return new_split

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
        if isinstance(node, AdaSplitNode):
            self._learn_split_node(node, x, y_idx, parent, branch)
        else:
            self._learn_leaf_node(node, x, y_idx, parent, branch)

    def _learn_leaf_node(
        self, leaf: AdaLeafNode, x: np.ndarray, y_idx: int, parent, branch: int
    ) -> None:
        prediction = self._subtree_predict(leaf, x)
        leaf.adwin.update(float(prediction != y_idx))
        leaf.learn_one(x, y_idx, n_classes=max(self.n_classes_, 2))
        if self._can_split(leaf):
            weight_seen = leaf.total_weight
            if weight_seen - leaf.weight_at_last_split_attempt >= self.grace_period:
                leaf.weight_at_last_split_attempt = weight_seen
                self._attempt_split(leaf, parent, branch)

    def _learn_split_node(
        self, node: AdaSplitNode, x: np.ndarray, y_idx: int, parent, branch: int
    ) -> None:
        error = float(self._subtree_predict(node, x) != y_idx)
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
        else:
            # Train the alternate subtree in parallel and track both errors.
            alt_error = float(self._subtree_predict(node.alternate_tree, x) != y_idx)
            node.alt_errors += alt_error
            node.main_errors_since_alt += error
            node.alt_weight += 1.0
            self._learn_in_subtree(
                node.alternate_tree, x, y_idx, parent=node, branch=-1
            )
            if node.alt_weight >= self.alternate_min_weight:
                alt_rate = node.alt_errors / node.alt_weight
                main_rate = node.main_errors_since_alt / node.alt_weight
                if alt_rate < main_rate:
                    self._replace_child(parent, branch, node.alternate_tree)
                    self.n_tree_swaps += 1
                    if TELEMETRY.enabled:
                        self._telemetry_swap(node.depth)
                    # Continue learning inside the promoted subtree.
                    node = None
                elif alt_rate > main_rate + 0.05:
                    node.alternate_tree = None
                    self.n_pruned_alternates += 1
                    if TELEMETRY.enabled:
                        self._telemetry_prune("alternate", node.depth)
                if node is None:
                    return

        # Route the observation down the main branch.
        child_branch = node.branch_for(x)
        child = node.children[child_branch]
        if child is None:
            child = self._new_leaf(depth=node.depth + 1)
            node.children[child_branch] = child
        self._learn_in_subtree(child, x, y_idx, parent=node, branch=child_branch)

    # ---------------------------------------------------- vectorized fitting
    def _partial_fit_vectorized(self, X: np.ndarray, y_idx: np.ndarray) -> None:
        """Cached-routing training loop, bit-identical to the recursion.

        Rows are still consumed one at a time (the ADWIN error signals are
        sequential), but the root-to-leaf walk is shared: routing is computed
        for the whole remaining batch in one partition sweep and reused until
        a split or subtree swap changes the structure.  Every main-path node
        predicts through the same leaf, so the per-node subtree predictions
        of the reference collapse to one leaf evaluation per row.
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
            rows = np.arange(start, n)
            if not isinstance(self.root, SplitNode):
                leaf_entries = [(self.root, [], None, 0)]
                leaf_rows = [0] * (n - start)
            else:
                leaf_entries = []
                leaf_by_row = np.empty(n - start, dtype=np.intp)
                leaf_rows = None
                bail_out = False
                stack = [(self.root, (), None, 0, rows)]
                while stack:
                    node, path, parent, branch, node_rows = stack.pop()
                    if isinstance(node, SplitNode):
                        mask = node.branch_mask(X, node_rows)
                        extended = path + ((node, parent, branch),)
                        for child_branch, child_rows in (
                            (0, node_rows[mask]),
                            (1, node_rows[~mask]),
                        ):
                            if not len(child_rows):
                                continue
                            child = node.children[child_branch]
                            if child is None:
                                bail_out = True
                                break
                            stack.append(
                                (child, extended, node, child_branch, child_rows)
                            )
                        if bail_out:
                            break
                    else:
                        leaf_by_row[node_rows - start] = len(leaf_entries)
                        leaf_entries.append((node, list(path), parent, branch))
                if bail_out:
                    # A missing child means the per-row walk would predict
                    # from the split node itself; defer to the recursion.
                    for row in range(start, n):
                        self._learn_one(X[row], int(y_idx[row]))
                    return
                leaf_rows = leaf_by_row.tolist()
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
                x = None
                swapped = False
                for node, node_parent, node_branch in path:
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
                        continue
                    if x is None:
                        x = X[i]
                    alt_error = float(
                        self._subtree_predict(node.alternate_tree, x) != y
                    )
                    node.alt_errors += alt_error
                    node.main_errors_since_alt += error
                    node.alt_weight += 1.0
                    self._learn_in_subtree(
                        node.alternate_tree, x, y, parent=node, branch=-1
                    )
                    if node.alt_weight >= self.alternate_min_weight:
                        alt_rate = node.alt_errors / node.alt_weight
                        main_rate = node.main_errors_since_alt / node.alt_weight
                        if alt_rate < main_rate:
                            self._replace_child(
                                node_parent, node_branch, node.alternate_tree
                            )
                            self.n_tree_swaps += 1
                            if TELEMETRY.enabled:
                                self._telemetry_swap(node.depth)
                            swapped = True
                            break
                        if alt_rate > main_rate + 0.05:
                            node.alternate_tree = None
                            self.n_pruned_alternates += 1
                            if TELEMETRY.enabled:
                                self._telemetry_prune("alternate", node.depth)
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
                observers = leaf.observers
                if observers.nominal_features:
                    observers.update_row(X_list[i], y, 1.0)
                else:
                    # Inlined all-numeric unit-weight update_row branch
                    # (per-row method dispatch dominates this loop).
                    if y >= observers.n_classes:
                        observers.grow_classes(y + 1)
                    weights = observers._weights[y]
                    means = observers._means[y]
                    m2 = observers._m2[y]
                    mins = observers._mins
                    maxs = observers._maxs
                    for feature, value in enumerate(X_list[i]):
                        new_weight = weights[feature] + 1.0
                        delta = value - means[feature]
                        new_mean = means[feature] + delta / new_weight
                        m2[feature] += delta * (value - new_mean)
                        means[feature] = new_mean
                        weights[feature] = new_weight
                        if value < mins[feature]:
                            mins[feature] = value
                        if value > maxs[feature]:
                            maxs[feature] = value
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

    def _replace_child(self, parent, branch: int, new_node) -> None:
        if branch == -1:
            parent.alternate_tree = new_node
        else:
            super()._replace_child(parent, branch, new_node)
