"""Shared node machinery of the Hoeffding-tree family.

The VFDT, HT-Ada and EFDT baselines share the same building blocks: learning
leaves that keep class statistics plus per-feature attribute observers, and
binary split nodes that route observations.  This module provides those
blocks; the concrete trees differ only in *when* they split, re-evaluate or
prune.

Leaves store their attribute statistics in one structure-of-arrays
:class:`~repro.trees.observers.LeafObservers` store and support both
per-observation and bulk updates; the two are bit-identical.
:func:`route_batch_groups` is the family's one router, for training and
inference: it groups a batch's rows by the leaf, or the missing child's
slot, they reach, with one partition per split node (mirroring
``DMTNode.route_batch``) or, for at most :data:`SMALL_BATCH` rows, one
root-to-leaf descent per row.

:class:`TreeClassifier` is the base of the VFDT family and FIMT-DD.  It
keeps one :class:`~repro.base.ComplexityReport` per tree structure, counted
by one walk of the main tree.
"""

from __future__ import annotations

import numpy as np

from repro.base import ComplexityReport, StreamClassifier
from repro.linear.naive_bayes import GaussianNaiveBayes
from repro.persistence.registry import register
from repro.trees.criteria import SplitCriterion
from repro.trees.observers import (
    LeafObservers,
    SplitSuggestion,
)
from repro.utils.numerics import np_pairwise_sum

#: Batches of at most this many rows are routed by one root-to-leaf descent
#: per row over plain Python floats: a mask partition touches every split
#: node below, which costs more than a handful of descents.
SMALL_BATCH = 8


def ensure_length(array: np.ndarray, length: int) -> np.ndarray:
    """Zero-pad a 1-D statistics array to ``length`` (class-count growth)."""
    if len(array) >= length:
        return array
    padded = np.zeros(length)
    padded[: len(array)] = array
    return padded


@register
class LeafNode:
    """A learning leaf: class statistics, attribute observers, leaf predictor.

    Parameters
    ----------
    n_classes:
        Current size of the class space.
    n_features:
        Number of input features.
    leaf_prediction:
        ``"mc"`` (majority class), ``"nb"`` (Naive Bayes) or ``"nba"``
        (Naive Bayes adaptive -- picks whichever of MC/NB has been more
        accurate on the data seen at this leaf).
    n_split_points:
        Candidate thresholds per numeric feature.
    nominal_features:
        Indices of features that should be observed nominally.
    depth:
        Depth of the leaf in the tree (root = 0).
    """

    __slots__ = (
        "n_classes",
        "n_features",
        "leaf_prediction",
        "n_split_points",
        "nominal_features",
        "depth",
        "class_dist",
        "_observers",
        "weight_at_last_split_attempt",
        "_naive_bayes",
        "_mc_correct",
        "_nb_correct",
    )

    def __init__(
        self,
        n_classes: int,
        n_features: int,
        leaf_prediction: str = "mc",
        n_split_points: int = 10,
        nominal_features: set[int] | None = None,
        depth: int = 0,
        initial_dist: np.ndarray | None = None,
    ) -> None:
        if leaf_prediction not in {"mc", "nb", "nba"}:
            raise ValueError(
                "leaf_prediction must be one of 'mc', 'nb', 'nba', "
                f"got {leaf_prediction!r}."
            )
        self.n_classes = int(n_classes)
        self.n_features = int(n_features)
        self.leaf_prediction = leaf_prediction
        self.n_split_points = int(n_split_points)
        self.nominal_features = nominal_features or set()
        self.depth = int(depth)
        self.class_dist = (
            np.zeros(n_classes)
            if initial_dist is None
            else ensure_length(np.asarray(initial_dist, dtype=float), n_classes)
        )
        self._observers = LeafObservers(
            n_features=self.n_features,
            n_split_points=self.n_split_points,
            nominal_features=self.nominal_features,
        )
        self.weight_at_last_split_attempt = float(self.class_dist.sum())
        self._naive_bayes: GaussianNaiveBayes | None = None
        self._mc_correct = 0.0
        self._nb_correct = 0.0

    # ----------------------------------------------------------- observers
    @property
    def observers(self) -> LeafObservers:
        return self._observers

    @observers.setter
    def observers(self, value) -> None:
        # Models persisted before the structure-of-arrays layout stored a
        # dict of per-feature observer objects under this attribute; the
        # codec restores attributes verbatim, so migrate here.
        if isinstance(value, dict):
            value = LeafObservers.from_legacy(
                n_features=self.n_features,
                n_split_points=self.n_split_points,
                nominal_features=self.nominal_features,
                legacy=value,
            )
        self._observers = value

    # ------------------------------------------------------------ statistics
    @property
    def total_weight(self) -> float:
        return float(self.class_dist.sum())

    @property
    def is_pure(self) -> bool:
        return np.count_nonzero(self.class_dist) <= 1

    def _grow_classes(self, n_classes: int) -> None:
        if n_classes > self.n_classes:
            self.class_dist = ensure_length(self.class_dist, n_classes)
            self.n_classes = n_classes
            self._naive_bayes = None  # re-created lazily with the new size

    # ---------------------------------------------------------------- learn
    def learn_one(self, x: np.ndarray, y_idx: int, n_classes: int, weight: float = 1.0) -> None:
        """Update the leaf with one observation."""
        self._grow_classes(n_classes)
        if self.leaf_prediction == "nba" and self.total_weight > 0:
            # Track which of the two leaf predictors would have been right.
            mc_prediction = int(np.argmax(self.class_dist))
            if mc_prediction == y_idx:
                self._mc_correct += weight
            if self._naive_bayes is not None and self._naive_bayes.total_count > 0:
                nb_prediction = int(self._naive_bayes.predict(x.reshape(1, -1))[0])
                if nb_prediction == y_idx:
                    self._nb_correct += weight
        self.class_dist[y_idx] += weight
        self._observers.update_row(
            x.tolist() if isinstance(x, np.ndarray) else list(x), y_idx, weight
        )
        if self.leaf_prediction in {"nb", "nba"}:
            if self._naive_bayes is None:
                self._naive_bayes = GaussianNaiveBayes(
                    self.n_features, max(self.n_classes, 2)
                )
            self._naive_bayes.update(x.reshape(1, -1), np.array([y_idx]))

    @property
    def supports_bulk_learning(self) -> bool:
        """Whether :meth:`learn_batch` reproduces the per-row loop exactly.

        ``"nba"`` leaves score every observation against the evolving
        majority/Naive-Bayes predictors, which is inherently sequential.
        """
        return self.leaf_prediction != "nba"

    def learn_batch(self, X: np.ndarray, y_idx: np.ndarray, n_classes: int) -> None:
        """Bulk update with unit-weight rows; bit-identical to the row loop.

        Class counts accumulate sequentially (post-split leaves start from
        fractional distributions, where one bulk addition would round
        differently from the reference's unit increments), the observer
        store preserves the per-cell Welford order and the Naive Bayes
        update is itself a sequential row loop.
        """
        if len(X) == 0:
            return
        self._grow_classes(n_classes)
        dist = self.class_dist.tolist()
        y_list = y_idx.tolist() if isinstance(y_idx, np.ndarray) else list(y_idx)
        for class_idx in y_list:
            dist[class_idx] += 1.0
        self.class_dist[:] = dist
        self._observers.update_batch(X, y_idx, y_list=y_list)
        if self.leaf_prediction == "nb":
            if self._naive_bayes is None:
                self._naive_bayes = GaussianNaiveBayes(
                    self.n_features, max(self.n_classes, 2)
                )
            self._naive_bayes.update(X, y_idx)

    # -------------------------------------------------------------- predict
    @property
    def uses_naive_bayes(self) -> bool:
        """Whether the leaf predicts with Naive Bayes, not the majority class.

        An ``"nba"`` leaf uses Naive Bayes only while it has been at least as
        accurate as the majority class.
        """
        if self.leaf_prediction == "mc" or self._naive_bayes is None:
            return False
        return self.leaf_prediction == "nb" or self._nb_correct >= self._mc_correct

    def predict_proba(self, x: np.ndarray, n_classes: int) -> np.ndarray:
        if self.uses_naive_bayes:
            return self.predict_proba_batch(x.reshape(1, -1), n_classes)[0]
        dist = ensure_length(self.class_dist, n_classes)
        total = dist.sum()
        return np.full(n_classes, 1.0 / n_classes) if total == 0 else dist / total

    def predict_proba_batch(self, X: np.ndarray, n_classes: int) -> np.ndarray:
        """Naive Bayes probabilities of a sub-batch routed to this leaf.

        For a leaf that :attr:`uses_naive_bayes`; bit-identical to
        :meth:`predict_proba` per row, since the batched likelihoods use the
        same per-row reductions as a one-row call.
        """
        raw = self._naive_bayes.predict_proba(X)
        nb_proba = np.zeros((len(X), n_classes))
        nb_proba[:, : raw.shape[1]] = raw
        return nb_proba

    def majority_proba(self, n_classes: int, width: int) -> list[float]:
        """The majority-class row ``dist / total``, cut to ``width`` classes
        and renormalised, as :func:`normalised_row` computes it."""
        dist = self.class_dist.tolist()
        if len(dist) < n_classes:
            dist += [0.0] * (n_classes - len(dist))
        total = np_pairwise_sum(dist)
        if total == 0:
            return normalised_row([1.0 / n_classes] * width)
        return normalised_row([value / total for value in dist[:width]])

    # ---------------------------------------------------------------- split
    def best_split_suggestions(
        self, criterion: SplitCriterion
    ) -> list[SplitSuggestion]:
        """Best suggestion per feature plus the null (do-not-split) suggestion."""
        suggestions = [
            SplitSuggestion(feature=-1, threshold=0.0, merit=0.0)  # null split
        ]
        suggestions.extend(
            self._observers.best_split_suggestions(criterion, self.class_dist)
        )
        return suggestions


@register
class SplitNode:
    """A binary split node: ``x[feature] <= threshold`` goes left."""

    __slots__ = ("feature", "threshold", "is_nominal", "class_dist", "depth", "children")

    def __init__(
        self,
        feature: int,
        threshold: float,
        is_nominal: bool = False,
        class_dist: np.ndarray | None = None,
        depth: int = 0,
    ) -> None:
        self.feature = int(feature)
        self.threshold = float(threshold)
        self.is_nominal = bool(is_nominal)
        self.class_dist = (
            np.zeros(0) if class_dist is None else np.asarray(class_dist, dtype=float)
        )
        self.depth = int(depth)
        self.children: list = [None, None]

    @property
    def left(self):
        return self.children[0]

    @left.setter
    def left(self, node) -> None:
        self.children[0] = node

    @property
    def right(self):
        return self.children[1]

    @right.setter
    def right(self, node) -> None:
        self.children[1] = node

    def branch_for(self, x: np.ndarray) -> int:
        """Return 0 (left) or 1 (right) for an observation."""
        value = x[self.feature]
        if self.is_nominal:
            return 0 if value == self.threshold else 1
        return 0 if value <= self.threshold else 1

    def child_for(self, x: np.ndarray):
        return self.children[self.branch_for(x)]


def route_batch_groups(
    root, X: np.ndarray, rows=None, parent=None, branch: int = 0
) -> list[tuple[object, object, int, np.ndarray | list[int]]]:
    """Group the rows of a batch by the slot of the tree they reach.

    Routes ``rows`` of ``X`` (every row by default) from ``root``, which
    sits on ``parent``'s ``branch`` (``parent`` is ``None`` at the root).
    Returns ``(node, parent, branch, rows)`` groups covering every routed
    row exactly once: ``node`` is the leaf at ``parent.children[branch]``,
    or ``None`` where that child is missing -- training creates the leaf
    there, inference falls back to ``parent``'s class distribution.  Row
    indices stay in ascending order within each group; the order of the
    groups is unspecified.

    At most :data:`SMALL_BATCH` rows take one root-to-leaf descent per row
    over plain Python floats and get their row indices as lists.  More rows
    are partitioned with a boolean mask at every split node on the way down,
    so each row is touched once per tree level with vectorized comparisons
    (the recipe of ``DMTNode.route_batch_groups``), and get index arrays.
    Routing has no floating-point accumulation, so both land every row in
    the same slot.  A row goes left where ``x[feature] <= threshold``
    (nominal: ``==``), as :meth:`SplitNode.branch_for` routes one row.
    """
    if rows is None:
        if len(X) <= SMALL_BATCH:
            return _descend_rows(root, X.tolist(), range(len(X)), parent, branch)
    elif len(rows) <= SMALL_BATCH:
        row_ids = rows.tolist() if isinstance(rows, np.ndarray) else rows
        return _descend_rows(root, X[rows].tolist(), row_ids, parent, branch)
    rows = np.arange(len(X)) if rows is None else np.asarray(rows)
    groups = []
    stack = [(root, parent, branch, rows)]
    while stack:
        node, parent, branch, rows = stack.pop()
        if not isinstance(node, SplitNode):
            groups.append((node, parent, branch, rows))
            continue
        column = X[rows, node.feature]
        left = column == node.threshold if node.is_nominal else column <= node.threshold
        for child_branch, child_rows in ((1, rows[~left]), (0, rows[left])):
            if len(child_rows):
                child = node.children[child_branch]
                stack.append((child, node, child_branch, child_rows))
    return groups


def _descend_rows(root, values_by_row, row_ids, parent, branch) -> list:
    """:func:`route_batch_groups` by one descent per row."""
    groups: dict[tuple[int, int], tuple] = {}
    for row, values in zip(row_ids, values_by_row):
        node, node_parent, node_branch = root, parent, branch
        while isinstance(node, SplitNode):
            value = values[node.feature]
            if node.is_nominal:
                node_branch = 0 if value == node.threshold else 1
            else:
                node_branch = 0 if value <= node.threshold else 1
            node_parent, node = node, node.children[node_branch]
        key = (id(node_parent), node_branch)
        group = groups.get(key)
        if group is None:
            groups[key] = (node, node_parent, node_branch, [row])
        else:
            group[3].append(row)
    return list(groups.values())


def normalised_row(row: list[float]) -> list[float]:
    """``row`` divided by its sum, or ``row`` itself if it sums to 0.

    Bit for bit what dividing a probability array by its row sums gives:
    :func:`~repro.utils.numerics.np_pairwise_sum` adds the values in
    numpy's order (left to right below 8 values, pairwise above).
    """
    total = np_pairwise_sum(row)
    if total == 0.0:
        return row
    return [value / total for value in row]


class TreeClassifier(StreamClassifier):
    """Base of the VFDT family and FIMT-DD: one complexity report per structure.

    The tree lives in ``root``.  :meth:`complexity` builds its report with
    one walk of the main tree and returns the same report until the class
    count changes or :meth:`_structure_changed` drops it:
    :meth:`_replace_child` does, and a subclass's ``_new_leaf`` must.  The
    report is a cache: it is not persisted, and a loaded model walks again.
    """

    _repro_transient = ("_report",)

    #: Whether every leaf predicts the majority class (one parameter, no
    #: split) rather than holding a classifier.
    majority_leaves = False

    def __init__(self) -> None:
        super().__init__()
        self._report: tuple[int, ComplexityReport] | None = None

    def _init_transient(self) -> None:
        self._report = None

    def _structure_changed(self) -> None:
        self._report = None

    def _replace_child(self, parent, branch: int, new_node) -> None:
        """Put ``new_node`` on ``parent``'s ``branch``, or at the root."""
        self._structure_changed()
        if parent is None:
            self.root = new_node
        else:
            parent.children[branch] = new_node

    def complexity(self) -> ComplexityReport:
        """Complexity under the paper's counting rules (Section VI-D2)."""
        cached = self._report
        if cached is not None and cached[0] == self.n_classes_:
            return cached[1]
        report = self._count_complexity()
        self._report = (self.n_classes_, report)
        return report

    def _count_complexity(self) -> ComplexityReport:
        """The report counted by one walk of the main tree.

        The walk follows ``children`` only: HT-Ada's alternate trees and
        EFDT's statistics holders are not part of the tree.  A node without
        ``children`` is a leaf; a split node adds a level even where its
        children are missing.
        """
        if self.root is None:
            return ComplexityReport(n_splits=0, n_parameters=0)
        n_inner = n_leaves = depth = 0
        stack = [(self.root, 0)]
        while stack:
            node, level = stack.pop()
            children = getattr(node, "children", None)
            if children is None:
                n_leaves += 1
                depth = max(depth, level)
                continue
            n_inner += 1
            depth = max(depth, level + 1)
            stack.extend((child, level + 1) for child in children if child is not None)
        if self.majority_leaves:
            leaf_splits, leaf_params = 0, 1
        else:
            # A leaf classifier adds one split (binary) or c splits, and m
            # parameters per class it models.
            n_classes = max(self.n_classes_, 2)
            leaf_splits = 1 if n_classes == 2 else n_classes
            leaf_params = self.n_features_ * leaf_splits
        return ComplexityReport(
            n_splits=n_inner + leaf_splits * n_leaves,
            n_parameters=n_inner + leaf_params * n_leaves,
            n_nodes=n_inner + n_leaves,
            n_leaves=n_leaves,
            depth=depth,
        )

    @property
    def n_nodes(self) -> int:
        return self.complexity().n_nodes

    @property
    def n_leaves(self) -> int:
        return self.complexity().n_leaves

    @property
    def depth(self) -> int:
        return self.complexity().depth
