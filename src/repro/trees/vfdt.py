"""VFDT -- the Very Fast Decision Tree / Hoeffding Tree (Domingos & Hulten, 2000).

This is the basic Hoeffding Tree baseline of the paper, evaluated with
majority-class leaves (``leaf_prediction="mc"``) and with adaptive Naive
Bayes leaves (``leaf_prediction="nba"``, Gama et al. 2003).  Only binary
splits are produced, matching the paper's experimental configuration.

Training and inference work on whole batches.  Each batch is routed once
(:func:`~repro.trees.base.route_batch_groups`) so every leaf receives one
sub-batch, leaf statistics are updated in bulk between split attempts, and
candidate splits are scored with one sweep over all thresholds of all
features.  The result is bit-identical to the per-row / per-threshold loops
of ``tests/oracles.py`` (same splits, same predictions, same
``deterministic_summary()``).  :meth:`HoeffdingTreeClassifier._split_leaf`
installs every split of the family (HT-Ada, EFDT); a subclass only chooses
the split node through :meth:`HoeffdingTreeClassifier._new_split_node`.
"""

from __future__ import annotations

import numpy as np

from repro.trees.base import (
    SMALL_BATCH,
    LeafNode,
    SplitNode,
    TreeClassifier,
    normalised_row,
    route_batch_groups,
)
from repro.trees.criteria import GiniCriterion, InfoGainCriterion, SplitCriterion
from repro.telemetry import (
    TREE_ALTERNATE_STARTED,
    TREE_PRUNE,
    TREE_SPLIT,
    TREE_SWAP,
    TELEMETRY,
)
from repro.trees.hoeffding import hoeffding_bound
from repro.trees.observers import SplitSuggestion
from repro.utils.numerics import np_pairwise_sum
from repro.utils.validation import check_in_range, check_positive

_CRITERIA = {"info_gain": InfoGainCriterion, "gini": GiniCriterion}


class HoeffdingTreeClassifier(TreeClassifier):
    """Incremental Hoeffding Tree for streaming classification.

    Parameters
    ----------
    grace_period:
        Number of observations a leaf must accumulate between split attempts.
    split_confidence:
        Significance level ``δ`` of the Hoeffding bound.
    tie_threshold:
        Tie-breaking threshold ``τ``: split anyway once the bound drops below
        this value.
    leaf_prediction:
        ``"mc"`` (majority class, the paper's VFDT(MC)), ``"nb"`` or ``"nba"``
        (adaptive Naive Bayes, the paper's VFDT(NBA)).
    split_criterion:
        ``"info_gain"`` (default) or ``"gini"``.
    n_split_points:
        Candidate thresholds evaluated per numeric feature.
    max_depth:
        Optional hard limit on the tree depth.
    nominal_features:
        Indices of nominal features (observed by value instead of Gaussian).
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
    ) -> None:
        super().__init__()
        check_positive(grace_period, "grace_period")
        check_in_range(split_confidence, "split_confidence", 0.0, 1.0, inclusive=False)
        check_in_range(tie_threshold, "tie_threshold", 0.0, 1.0)
        if split_criterion not in _CRITERIA:
            raise ValueError(
                f"split_criterion must be one of {sorted(_CRITERIA)}, "
                f"got {split_criterion!r}."
            )
        if leaf_prediction not in {"mc", "nb", "nba"}:
            raise ValueError(
                "leaf_prediction must be one of 'mc', 'nb', 'nba', "
                f"got {leaf_prediction!r}."
            )
        self.grace_period = int(grace_period)
        self.split_confidence = float(split_confidence)
        self.tie_threshold = float(tie_threshold)
        self.leaf_prediction = leaf_prediction
        self.split_criterion = split_criterion
        self.n_split_points = int(n_split_points)
        self.max_depth = max_depth
        self.nominal_features = set(nominal_features or set())
        self.root: LeafNode | SplitNode | None = None
        self._criterion: SplitCriterion = _CRITERIA[split_criterion]()
        self.n_split_events = 0

    # -------------------------------------------------------------- fitting
    def reset(self) -> "HoeffdingTreeClassifier":
        self.root = None
        self.classes_ = None
        self.n_features_ = None
        self.n_split_events = 0
        return self

    @property
    def majority_leaves(self) -> bool:
        return self.leaf_prediction == "mc"

    def _new_leaf(
        self, depth: int, initial_dist: np.ndarray | None = None
    ) -> LeafNode:
        self._structure_changed()
        return LeafNode(
            n_classes=max(self.n_classes_, 2),
            n_features=self.n_features_,
            leaf_prediction=self.leaf_prediction,
            n_split_points=self.n_split_points,
            nominal_features=self.nominal_features,
            depth=depth,
            initial_dist=initial_dist,
        )

    def partial_fit(
        self, X: np.ndarray, y: np.ndarray, classes: np.ndarray | None = None
    ) -> "HoeffdingTreeClassifier":
        X, y = self._validate_input(X, y)
        y_idx = self._update_classes(y, classes)
        if self.root is None:
            self.root = self._new_leaf(depth=0)
        self._partial_fit_vectorized(X, y_idx)
        return self

    # ---------------------------------------------------- vectorized fitting
    def _partial_fit_vectorized(self, X: np.ndarray, y_idx: np.ndarray) -> None:
        """Batched training, bit-identical to a per-row training loop.

        The batch is routed once (:func:`route_batch_groups`); each leaf then
        learns its rows in bulk up to the next split-attempt trigger
        (computed by an exact scalar simulation of the per-row weight/purity
        checks).  A missing child gets a fresh leaf before it learns.  When
        an attempt splits the leaf, the not-yet-consumed rows are routed
        again from the fresh split node.
        """
        # Plain-float views of the batch, materialised only when a small
        # group actually takes one of the scalar paths below (large batches
        # on shallow trees never need them).
        lists_cache: list = [None, None]
        stack = route_batch_groups(self.root, X)
        while stack:
            leaf, parent, branch, rows = stack.pop()
            if leaf is None:
                leaf = parent.children[branch] = self._new_leaf(depth=parent.depth + 1)
            split = self._learn_leaf_group(
                leaf, parent, branch, rows, X, y_idx, lists_cache
            )
            if split is not None and len(split[1]):
                stack.extend(route_batch_groups(split[0], X, split[1], parent, branch))

    @staticmethod
    def _batch_lists(
        X: np.ndarray, y_idx: np.ndarray, lists_cache: list
    ) -> tuple[list, list]:
        """Lazily materialised ``(X.tolist(), y_idx.tolist())`` of the batch."""
        if lists_cache[0] is None:
            lists_cache[0] = X.tolist()
            lists_cache[1] = y_idx.tolist()
        return lists_cache[0], lists_cache[1]

    def _learn_leaf_group(
        self,
        leaf: LeafNode,
        parent: SplitNode | None,
        branch: int,
        rows: np.ndarray | list[int],
        X: np.ndarray,
        y_idx: np.ndarray,
        lists_cache: list,
    ) -> tuple[SplitNode, np.ndarray | list[int]] | None:
        """Learn ``rows`` at ``leaf`` in order; on a split, stop and return
        the new split node and the rows not yet learned."""
        n_classes = max(self.n_classes_, 2)
        if not leaf.supports_bulk_learning:
            # "nba" bookkeeping is sequential; keep the per-row loop but stay
            # inside the batched routing (re-routing after a split).
            for position in range(len(rows)):
                row = rows[position]
                leaf.learn_one(X[row], int(y_idx[row]), n_classes=n_classes)
                new_node = self._check_split(leaf, parent, branch)
                if new_node is not None:
                    return new_node, rows[position + 1 :]
            return None

        leaf._grow_classes(n_classes)
        if self.max_depth is not None and leaf.depth >= self.max_depth:
            # The leaf can never split: no triggers to scan for.
            leaf.learn_batch(X[rows], y_idx[rows], n_classes)
            return None

        if leaf.leaf_prediction == "mc" and len(rows) <= 16:
            # Tiny sub-batches (deep trees, small batches): the chunked
            # machinery below costs more than it saves, so run a lean
            # scalar loop -- the same mirror/observer primitives, no numpy
            # slicing.  Bit-identical to the chunked and per-row paths.
            X_list, y_list = self._batch_lists(X, y_idx, lists_cache)
            return self._learn_leaf_group_small(
                leaf, parent, branch, rows, X_list, y_list
            )

        # Scalar simulation of the per-row trigger checks: the Python floats
        # track the numpy class counts exactly (unit increments are exact)
        # and np_pairwise_sum reproduces ndarray.sum() bit-for-bit.
        dist = leaf.class_dist.tolist()
        nonzero = 0
        for value in dist:
            if value != 0.0:
                nonzero += 1
        is_mc = leaf.leaf_prediction == "mc"
        last_attempt = leaf.weight_at_last_split_attempt
        grace = self.grace_period
        y_rows = y_idx[rows].tolist()
        # numpy sums sequentially below 8 elements; inline that common case.
        small_dist = len(dist) < 8
        position = 0
        total_rows = len(rows)
        while position < total_rows:
            trigger = None
            trigger_weight = 0.0
            # Rows far below the grace boundary cannot trigger an attempt:
            # every row adds exactly 1.0 to the leaf weight, so (with a
            # two-row margin for pairwise-summation rounding) the deficit
            # bounds how many rows can be consumed without any check.
            if small_dist:
                current_weight = 0.0
                for value in dist:
                    current_weight += value
            else:
                current_weight = np_pairwise_sum(dist)
            skip = min(
                int(grace - (current_weight - last_attempt)) - 2,
                total_rows - position,
            )
            scan_from = position
            if skip > 0:
                for index in range(position, position + skip):
                    class_idx = y_rows[index]
                    if dist[class_idx] == 0.0:
                        nonzero += 1
                    dist[class_idx] += 1.0
                scan_from = position + skip
            for index in range(scan_from, total_rows):
                class_idx = y_rows[index]
                if dist[class_idx] == 0.0:
                    nonzero += 1
                dist[class_idx] += 1.0
                if small_dist:
                    weight_seen = 0.0
                    for value in dist:
                        weight_seen += value
                else:
                    weight_seen = np_pairwise_sum(dist)
                if nonzero > 1 and weight_seen - last_attempt >= grace:
                    trigger = index
                    trigger_weight = weight_seen
                    break
            if trigger is None:
                tail = rows[position:]
                if is_mc:
                    # The scanner's Python mirror already holds the exact
                    # final class counts; write them back and feed only the
                    # observer store.
                    leaf.class_dist[:] = dist
                    leaf.observers.update_batch(
                        X[tail], None, y_list=y_rows[position:]
                    )
                else:
                    leaf.learn_batch(X[tail], y_idx[tail], n_classes)
                return None
            chunk = rows[position : trigger + 1]
            if is_mc:
                leaf.class_dist[:] = dist
                leaf.observers.update_batch(
                    X[chunk], None, y_list=y_rows[position : trigger + 1]
                )
            else:
                leaf.learn_batch(X[chunk], y_idx[chunk], n_classes)
            leaf.weight_at_last_split_attempt = last_attempt = trigger_weight
            new_node = self._attempt_split(leaf, parent, branch)
            if new_node is not None:
                return new_node, rows[trigger + 1 :]
            position = trigger + 1
        return None

    def _learn_leaf_group_small(
        self,
        leaf: LeafNode,
        parent: SplitNode | None,
        branch: int,
        rows: np.ndarray | list[int],
        X_list: list,
        y_list: list,
    ) -> tuple[SplitNode, np.ndarray | list[int]] | None:
        grace = self.grace_period
        last_attempt = leaf.weight_at_last_split_attempt
        update_row = leaf.observers.update_row
        dist = leaf.class_dist.tolist()
        small_dist = len(dist) < 8
        nonzero = 0
        for value in dist:
            if value != 0.0:
                nonzero += 1
        row_list = rows.tolist() if isinstance(rows, np.ndarray) else rows
        for position, row in enumerate(row_list):
            class_idx = y_list[row]
            if dist[class_idx] == 0.0:
                nonzero += 1
            dist[class_idx] += 1.0
            update_row(X_list[row], class_idx, 1.0)
            if nonzero > 1:
                if small_dist:
                    weight_seen = 0.0
                    for value in dist:
                        weight_seen += value
                else:
                    weight_seen = np_pairwise_sum(dist)
                if weight_seen - last_attempt >= grace:
                    leaf.class_dist[:] = dist
                    leaf.weight_at_last_split_attempt = last_attempt = weight_seen
                    new_node = self._attempt_split(leaf, parent, branch)
                    if new_node is not None:
                        return new_node, rows[position + 1 :]
        leaf.class_dist[:] = dist
        return None

    def _check_split(
        self, leaf: LeafNode, parent: SplitNode | None, branch: int
    ) -> SplitNode | None:
        """Attempt a split once ``leaf`` has gained a grace period's weight
        since its last attempt; return the new split node if one was made."""
        if not self._can_split(leaf):
            return None
        weight_seen = leaf.total_weight
        if weight_seen - leaf.weight_at_last_split_attempt < self.grace_period:
            return None
        leaf.weight_at_last_split_attempt = weight_seen
        return self._attempt_split(leaf, parent, branch)

    def _can_split(self, leaf: LeafNode) -> bool:
        if leaf.is_pure:
            return False
        if self.max_depth is not None and leaf.depth >= self.max_depth:
            return False
        return True

    # ---------------------------------------------------------------- split
    def _attempt_split(
        self, leaf: LeafNode, parent: SplitNode | None, branch: int
    ) -> SplitNode | None:
        """Try to split ``leaf``; return the new split node if one was made."""
        suggestions = leaf.best_split_suggestions(self._criterion)
        suggestions.sort(key=lambda suggestion: suggestion.merit)
        if len(suggestions) < 2:
            return None
        best, second = suggestions[-1], suggestions[-2]
        bound = hoeffding_bound(
            self._criterion.merit_range(leaf.class_dist),
            self.split_confidence,
            leaf.total_weight,
        )
        should_split = best.feature != -1 and best.merit > 0 and (
            best.merit - second.merit > bound or bound < self.tie_threshold
        )
        if should_split:
            return self._split_leaf(leaf, best, parent, branch)
        return None

    def _split_leaf(
        self,
        leaf: LeafNode,
        suggestion: SplitSuggestion,
        parent: SplitNode | None,
        branch: int,
    ) -> SplitNode:
        """Replace ``leaf`` (on ``parent``'s ``branch``) by a split node on
        ``suggestion`` with two fresh leaves: every split of the family."""
        new_split = self._new_split_node(
            leaf,
            feature=suggestion.feature,
            threshold=suggestion.threshold,
            is_nominal=suggestion.is_nominal,
            class_dist=leaf.class_dist.copy(),
            depth=leaf.depth,
        )
        dists = suggestion.children_dists
        for child_idx in range(2):
            new_split.children[child_idx] = self._new_leaf(
                depth=leaf.depth + 1,
                initial_dist=dists[child_idx] if len(dists) == 2 else None,
            )
        self._replace_child(parent, branch, new_split)
        self.n_split_events += 1
        if TELEMETRY.enabled:
            TELEMETRY.emit(
                TREE_SPLIT,
                model=type(self).__name__,
                feature=int(suggestion.feature),
                threshold=float(suggestion.threshold),
                depth=int(leaf.depth),
            )
        return new_split

    def _new_split_node(self, leaf: LeafNode, **node_args) -> SplitNode:
        """The split node that replaces ``leaf``; subclasses add their state."""
        return SplitNode(**node_args)

    # ------------------------------------------------------------ telemetry
    # Call sites must guard on ``TELEMETRY.enabled`` so the disabled path
    # stays a single attribute read.
    def _telemetry_alternate_started(self, depth: int) -> None:
        TELEMETRY.emit(
            TREE_ALTERNATE_STARTED, model=type(self).__name__, depth=int(depth)
        )

    def _telemetry_swap(self, depth: int) -> None:
        TELEMETRY.emit(TREE_SWAP, model=type(self).__name__, depth=int(depth))

    def _telemetry_prune(self, reason: str, depth: int) -> None:
        TELEMETRY.emit(
            TREE_PRUNE,
            model=type(self).__name__,
            reason=reason,
            depth=int(depth),
        )

    # ------------------------------------------------------------ inference
    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Class probabilities, one row computed per node the batch reaches.

        A majority-class leaf's row (:meth:`LeafNode.majority_proba`) and a
        split node's fallback are computed once over Python floats and
        written to all of the node's rows; a Naive Bayes leaf scores its
        rows in one batched call.  Each row is cut to the known classes and
        renormalised, bit for bit as a per-row walk does.
        """
        X, _ = self._validate_input(X)
        if self.root is None or self.classes_ is None:
            raise RuntimeError("predict_proba() called before partial_fit().")
        n_classes = max(self.n_classes_, 2)
        width = self.n_classes_
        groups = route_batch_groups(self.root, X)
        if len(X) > SMALL_BATCH:
            proba = np.empty((len(X), width))
            for node, parent, _, rows in groups:
                proba[rows] = self._node_proba(node, parent, X, rows, n_classes, width)
            return proba
        # A handful of rows: one conversion of Python rows costs less than
        # a fancy assignment per node.
        out: list = [None] * len(X)
        for node, parent, _, rows in groups:
            node_proba = self._node_proba(node, parent, X, rows, n_classes, width)
            if isinstance(node_proba, np.ndarray):
                for row, values in zip(rows, node_proba.tolist()):
                    out[row] = values
            else:
                for row in rows:
                    out[row] = node_proba
        return np.array(out)

    def _node_proba(
        self, node, parent, X: np.ndarray, rows, n_classes: int, width: int
    ) -> np.ndarray | list[float]:
        """One row shared by ``rows``, or a Naive Bayes leaf's row per row."""
        if node is None:
            # Missing child on the routed branch: fall back to the split
            # node's class distribution, as a per-row walk does when it
            # cannot descend further.
            return normalised_row(
                self._split_node_proba(parent, n_classes)[:width].tolist()
            )
        if node.uses_naive_bayes:
            block = node.predict_proba_batch(X[rows], n_classes)[:, :width]
            row_sums = block.sum(axis=1, keepdims=True)
            row_sums[row_sums == 0.0] = 1.0
            return block / row_sums
        return node.majority_proba(n_classes, width)

    @staticmethod
    def _split_node_proba(node: SplitNode, n_classes: int) -> np.ndarray:
        dist = node.class_dist
        total = dist.sum()
        if total == 0:
            return np.full(n_classes, 1.0 / n_classes)
        return np.pad(dist, (0, max(n_classes - len(dist), 0)))[:n_classes] / total
