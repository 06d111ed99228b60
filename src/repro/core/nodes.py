"""Node implementation of the Dynamic Model Tree.

Unlike existing Model Trees, a DMT maintains simple models at *both* leaf and
inner nodes (Figure 2 of the paper).  Every node accumulates the loss, the
gradient and the observation count of its simple model (Algorithm 1, lines
1-3), plus bounded split-candidate statistics.  Leaf nodes check the split
gain (3); inner nodes check the re-split gain (4) and the prune-to-leaf gain
(5) and restructure the tree accordingly.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.core.candidates import (
    CandidateManager,
    CandidateStatistics,
    ChildLosses,
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


@lru_cache(maxsize=64)
def _leaf_split_threshold(k: int, epsilon: float) -> float:
    """Equation (11) for a leaf, which depends only on ``k`` and ``ε``."""
    return aic_split_threshold(k, k, k, epsilon)


@register
class DMTNode:
    """One node of a Dynamic Model Tree.

    A node acts as a leaf while :attr:`left` / :attr:`right` are ``None`` and
    as an inner node otherwise.  In both roles it keeps training its simple
    model and accumulating statistics, which is what allows the DMT to
    evaluate losses "on different hierarchies" and detect both global and
    local concept drift (Section IV-D).

    Per batch, :meth:`update_statistics` sweeps the stored candidates' child
    losses once and returns that sweep for the node's split check, which
    reads gain (3) or (4) from it (see :class:`CandidateManager`).

    Derived counts.  :attr:`n_leaves`, :attr:`n_inner`,
    :attr:`n_leaf_parameters` (the summed ``k`` of the subtree's leaf
    models) and :attr:`height` describe the subtree below this node.
    :meth:`refresh_counts` recomputes them in O(1) from the children's
    counts; :meth:`apply_split` and :meth:`collapse_to_leaf` call it, and
    the tree calls it on every inner node it trains, after the node's
    children, so counts are current bottom-up.  A node restructured by hand
    below the root leaves its ancestors' counts stale until they are
    refreshed.  The counts are integers, so they equal a walk of the
    subtree exactly.  They are not persisted; decoding rebuilds them,
    children first.
    """

    _repro_transient = ("n_leaves", "n_inner", "n_leaf_parameters", "height")

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
        self.refresh_counts()

    def _init_transient(self) -> None:
        """Rebuild the counts on load; the decoder rebuilt the children's first."""
        self.refresh_counts()

    def refresh_counts(self) -> None:
        """Recount the subtree from the children's counts (see the class docstring)."""
        left, right = self.left, self.right
        if left is None or right is None:
            self.n_leaves = 1
            self.n_inner = 0
            self.n_leaf_parameters = self.model.n_parameters
            self.height = 0
            return
        self.n_leaves = left.n_leaves + right.n_leaves
        self.n_inner = 1 + left.n_inner + right.n_inner
        self.n_leaf_parameters = left.n_leaf_parameters + right.n_leaf_parameters
        self.height = 1 + max(left.height, right.height)

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
        """Summed free parameters of the subtree's leaf models (a count)."""
        return self.n_leaf_parameters

    def depth(self) -> int:
        """Height of the subtree (a count)."""
        return self.height

    # --------------------------------------------------------------- update
    def update_statistics(
        self, X: np.ndarray, y: np.ndarray, learning_rate: float
    ) -> ChildLosses:
        """Algorithm 1, lines 1-17 for a single node.

        Accumulates the node loss / gradient / count using the simple-model
        parameters from *before* this batch (test-then-train), refreshes the
        stored candidate statistics with the same per-sample gradients, and
        finally trains the simple model with instance-incremental SGD.

        Returns the stored candidates' child losses after the batch (the
        sweep of :meth:`CandidateManager.child_losses`), for the split check.
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
        candidates = self.candidates
        candidates.update_stored(
            X, per_sample_loss, per_sample_gradient, augmented=augmented
        )
        child_losses = candidates.child_losses(
            self.loss, self.gradient, self.count, learning_rate
        )
        if candidates.consider_new(
            X,
            per_sample_loss,
            per_sample_gradient,
            node_loss=self.loss,
            node_gradient=self.gradient,
            node_count=self.count,
            learning_rate=learning_rate,
            augmented=augmented,
            batch_loss=batch_loss,
            batch_gradient=batch_gradient,
            child_losses=child_losses,
        ):
            # An admission or eviction changed the store: sweep it again.
            child_losses = candidates.child_losses(
                self.loss, self.gradient, self.count, learning_rate
            )

        # Instance-incremental SGD: one constant-learning-rate step per
        # observation, computed at the then-current weights.
        if len(y) > 0:
            self.model.fit_incremental(X, y, X_aug=X_aug)
        return child_losses

    # ------------------------------------------------------- split decisions
    def best_split(
        self, learning_rate: float, reference_loss: float | None = None
    ) -> tuple[CandidateStatistics | None, float]:
        """Best stored candidate and its gain against ``reference_loss``.

        Sweeps the store afresh; the tree's split check instead reuses the
        sweep :meth:`update_statistics` returned.
        """
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
        return _leaf_split_threshold(self.model.n_parameters, epsilon)

    def resplit_threshold(self, epsilon: float) -> float:
        """AIC threshold for replacing this inner node's subtree by a new split."""
        k = self.model.n_parameters
        return aic_resplit_threshold(k, k, self.n_leaf_parameters, epsilon)

    def prune_threshold(self, epsilon: float) -> float:
        """AIC threshold for collapsing this inner node into a leaf."""
        return aic_prune_threshold(
            self.model.n_parameters, self.n_leaf_parameters, epsilon
        )

    def prune_to_leaf_gain(self, subtree_loss: float | None = None) -> float:
        """Gain (5): subtree leaf loss minus this node's own loss.

        ``subtree_loss`` passes in a :meth:`subtree_leaf_loss` already summed.
        """
        if subtree_loss is None:
            subtree_loss = self.subtree_leaf_loss()
        return prune_gain(subtree_loss, self.loss)

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
        self.refresh_counts()

    def collapse_to_leaf(self) -> None:
        """Drop the subtree below this node; the node keeps its own model."""
        self.split_feature = None
        self.split_threshold = None
        self.left = None
        self.right = None
        self.refresh_counts()

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
