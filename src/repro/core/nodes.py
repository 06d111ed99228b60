"""Node implementation of the Dynamic Model Tree.

Unlike existing Model Trees, a DMT maintains simple models at *both* leaf and
inner nodes (Figure 2 of the paper).  Every node accumulates the loss, the
gradient and the observation count of its simple model (Algorithm 1, lines
1-3), plus bounded split-candidate statistics.  Leaf nodes check the split
gain (3); inner nodes check the re-split gain (4) and the prune-to-leaf gain
(5) and restructure the tree accordingly.
"""

from __future__ import annotations

import numpy as np

from repro.core.candidates import (
    CandidateManager,
    CandidateStatistics,
    augment_batch,
)
from repro.core.gains import (
    aic_prune_threshold,
    aic_resplit_threshold,
    aic_split_threshold,
    prune_gain,
)
from repro.linear.glm import IncrementalGLM
from repro.persistence.registry import register


@register
class DMTNode:
    """One node of a Dynamic Model Tree.

    A node acts as a leaf while :attr:`left` / :attr:`right` are ``None`` and
    as an inner node otherwise.  In both roles it keeps training its simple
    model and accumulating statistics, which is what allows the DMT to
    evaluate losses "on different hierarchies" and detect both global and
    local concept drift (Section IV-D).
    """

    def __init__(
        self,
        model: IncrementalGLM,
        n_features: int,
        max_candidates: int | None,
        replacement_rate: float,
        max_values_per_feature: int,
    ) -> None:
        self.model = model
        self.n_features = int(n_features)
        self.loss = 0.0
        self.gradient = np.zeros(model.n_parameters)
        self.count = 0.0
        self.candidates = CandidateManager(
            n_features=n_features,
            max_candidates=max_candidates,
            replacement_rate=replacement_rate,
            max_values_per_feature=max_values_per_feature,
        )
        self.split_feature: int | None = None
        self.split_threshold: float | None = None
        self.left: DMTNode | None = None
        self.right: DMTNode | None = None

    # ------------------------------------------------------------ structure
    @property
    def is_leaf(self) -> bool:
        return self.left is None and self.right is None

    @property
    def split_key(self) -> tuple[int, float] | None:
        if self.split_feature is None or self.split_threshold is None:
            return None
        return (self.split_feature, self.split_threshold)

    def route_mask(self, X: np.ndarray) -> np.ndarray:
        """Boolean mask of samples routed to the left child."""
        if self.is_leaf:
            raise RuntimeError("Leaf nodes do not route observations.")
        return np.asarray(X, dtype=float)[:, self.split_feature] <= self.split_threshold

    def subtree_nodes(self) -> list["DMTNode"]:
        """All nodes of the subtree rooted at this node (pre-order)."""
        nodes = [self]
        if not self.is_leaf:
            nodes.extend(self.left.subtree_nodes())
            nodes.extend(self.right.subtree_nodes())
        return nodes

    def subtree_leaves(self) -> list["DMTNode"]:
        """All leaf nodes of the subtree rooted at this node."""
        if self.is_leaf:
            return [self]
        return self.left.subtree_leaves() + self.right.subtree_leaves()

    def subtree_leaf_loss(self) -> float:
        """Summed accumulated loss of the subtree's leaves (used by (4), (5))."""
        return float(sum(leaf.loss for leaf in self.subtree_leaves()))

    def subtree_leaf_parameters(self) -> int:
        """Summed free parameters of the subtree's leaf models."""
        return int(sum(leaf.model.n_parameters for leaf in self.subtree_leaves()))

    def depth(self) -> int:
        if self.is_leaf:
            return 0
        return 1 + max(self.left.depth(), self.right.depth())

    # --------------------------------------------------------------- update
    def update_statistics(
        self, X: np.ndarray, y: np.ndarray, learning_rate: float
    ) -> None:
        """Algorithm 1, lines 1-17 for a single node.

        Accumulates the node loss / gradient / count using the simple-model
        parameters from *before* this batch (test-then-train), refreshes the
        stored candidate statistics with the same per-sample gradients, and
        finally trains the simple model with instance-incremental SGD.
        """
        X_aug = self.model.augment(X)
        per_sample_loss, per_sample_gradient = (
            self.model.per_sample_loss_and_gradient(X, y, X_aug=X_aug)
        )

        batch_loss = float(per_sample_loss.sum())
        batch_gradient = per_sample_gradient.sum(axis=0)

        self.loss += batch_loss
        self.gradient = self.gradient + batch_gradient
        self.count += float(len(y))

        augmented = augment_batch(per_sample_loss, per_sample_gradient)
        self.candidates.update_stored(
            X, per_sample_loss, per_sample_gradient, augmented=augmented
        )
        self.candidates.consider_new(
            X,
            per_sample_loss,
            per_sample_gradient,
            node_loss=self.loss,
            node_gradient=self.gradient,
            node_count=self.count,
            learning_rate=learning_rate,
            augmented=augmented,
        )

        # Instance-incremental SGD: one constant-learning-rate step per
        # observation, computed at the then-current weights.
        if len(y) > 0:
            self.model.fit_incremental(X, y, X_aug=X_aug)

    # ------------------------------------------------------- split decisions
    def best_split(
        self, learning_rate: float, reference_loss: float | None = None
    ) -> tuple[CandidateStatistics | None, float]:
        """Best stored candidate and its gain against ``reference_loss``."""
        return self.candidates.best_candidate(
            node_loss=self.loss,
            node_gradient=self.gradient,
            node_count=self.count,
            learning_rate=learning_rate,
            reference_loss=reference_loss,
            exclude=self.split_key,
        )

    def leaf_split_threshold(self, epsilon: float) -> float:
        """AIC threshold for splitting this node when it is a leaf."""
        k = self.model.n_parameters
        return aic_split_threshold(k, k, k, epsilon)

    def resplit_threshold(self, epsilon: float) -> float:
        """AIC threshold for replacing this inner node's subtree by a new split."""
        k = self.model.n_parameters
        return aic_resplit_threshold(
            k, k, self.subtree_leaf_parameters(), epsilon
        )

    def prune_threshold(self, epsilon: float) -> float:
        """AIC threshold for collapsing this inner node into a leaf."""
        return aic_prune_threshold(
            self.model.n_parameters, self.subtree_leaf_parameters(), epsilon
        )

    def prune_to_leaf_gain(self) -> float:
        """Gain (5): subtree leaf loss minus this node's own loss."""
        return prune_gain(self.subtree_leaf_loss(), self.loss)

    # ----------------------------------------------------------- restructure
    def make_child(self, candidate: CandidateStatistics, side: str) -> "DMTNode":
        """Create a child node warm-started from this node's model.

        The child parameters follow equation (6): one gradient step on the
        parent parameters, restricted to the candidate subset.  The right
        child uses the complementary statistics (node minus left).
        """
        child_model = self.model.clone(warm_start=True)
        if side == "left":
            gradient = candidate.gradient
            count = candidate.count
        elif side == "right":
            gradient = self.gradient - candidate.gradient
            count = self.count - candidate.count
        else:
            raise ValueError(f"side must be 'left' or 'right', got {side!r}.")
        if count > 0:
            step = np.asarray(gradient, dtype=float) / count
            child_model.weights = (
                child_model.weights
                - child_model.learning_rate * step.reshape(child_model.weights.shape)
            )
        return type(self)(
            model=child_model,
            n_features=self.n_features,
            max_candidates=self.candidates.max_candidates,
            replacement_rate=self.candidates.replacement_rate,
            max_values_per_feature=self.candidates.max_values_per_feature,
        )

    def apply_split(self, candidate: CandidateStatistics) -> None:
        """Install ``candidate`` as this node's split with two fresh leaves."""
        self.split_feature = candidate.feature
        self.split_threshold = candidate.threshold
        self.left = self.make_child(candidate, "left")
        self.right = self.make_child(candidate, "right")

    def collapse_to_leaf(self) -> None:
        """Drop the subtree below this node; the node keeps its own model."""
        self.split_feature = None
        self.split_threshold = None
        self.left = None
        self.right = None

    # -------------------------------------------------------------- predict
    def sorted_leaf(self, x: np.ndarray) -> "DMTNode":
        """Route a single observation to its leaf."""
        node = self
        while not node.is_leaf:
            if x[node.split_feature] <= node.split_threshold:
                node = node.left
            else:
                node = node.right
        return node

    def route_batch_groups(self, X: np.ndarray) -> list[tuple["DMTNode", np.ndarray]]:
        """Partition a batch into per-leaf row groups in one sweep.

        Instead of walking the tree once per row, the batch is partitioned
        with a boolean mask at every split node on the way down, so each
        observation is touched once per tree level with vectorised
        comparisons.  Returns ``(leaf, rows)`` pairs covering every row of
        ``X`` exactly once; only leaves that received rows appear.
        """
        X = np.asarray(X, dtype=float)
        groups: list[tuple[DMTNode, np.ndarray]] = []
        stack: list[tuple[DMTNode, np.ndarray]] = [(self, np.arange(len(X)))]
        while stack:
            node, rows = stack.pop()
            if node.is_leaf:
                groups.append((node, rows))
                continue
            mask = X[rows, node.split_feature] <= node.split_threshold
            left_rows = rows[mask]
            right_rows = rows[~mask]
            if len(left_rows):
                stack.append((node.left, left_rows))
            if len(right_rows):
                stack.append((node.right, right_rows))
        return groups

    def route_batch(self, X: np.ndarray) -> tuple[list["DMTNode"], np.ndarray]:
        """Route a whole batch to its leaves (see :meth:`route_batch_groups`).

        Returns ``(leaves, assignments)`` where ``leaves`` are the leaf nodes
        that received at least one row and ``assignments`` maps every row of
        ``X`` to its index in ``leaves``.
        """
        groups = self.route_batch_groups(X)
        assignments = np.zeros(len(X), dtype=np.intp)
        leaves: list[DMTNode] = []
        for leaf, rows in groups:
            assignments[rows] = len(leaves)
            leaves.append(leaf)
        return leaves, assignments
