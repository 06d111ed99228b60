"""EFDT -- Extremely Fast Decision Tree (Manapragada, Webb & Salehi, 2018).

Also known as the Hoeffding Anytime Tree.  EFDT differs from the VFDT in two
ways: (i) a leaf is split as soon as the best attribute is better than *not
splitting* with Hoeffding confidence (instead of better than the second-best
attribute), and (ii) inner nodes keep their attribute statistics and
periodically *re-evaluate* their split; if a different attribute has become
better with Hoeffding confidence, the subtree below is discarded and the
node is re-split (or demoted to a leaf).

Following the paper's experimental setup, the minimum number of observations
between re-evaluations of an inner node is 1000.
"""

from __future__ import annotations

import numpy as np

from repro.persistence.registry import register
from repro.telemetry import TELEMETRY
from repro.trees.base import LeafNode, SplitNode
from repro.trees.hoeffding import hoeffding_bound
from repro.trees.vfdt import HoeffdingTreeClassifier


@register
class EFDTSplitNode(SplitNode):
    """Split node that keeps learning statistics for later re-evaluation."""

    __slots__ = ("stats", "weight_at_last_reevaluation")

    def __init__(self, stats: LeafNode, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.stats = stats
        self.weight_at_last_reevaluation = stats.total_weight


class ExtremelyFastDecisionTreeClassifier(HoeffdingTreeClassifier):
    """Hoeffding Anytime Tree for streaming classification.

    Parameters
    ----------
    reevaluation_period:
        Minimum number of observations an inner node must accumulate between
        re-evaluations of its split (1000 in the paper's experiments).
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
        reevaluation_period: int = 1000,
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
        if reevaluation_period < 1:
            raise ValueError(
                f"reevaluation_period must be >= 1, got {reevaluation_period!r}."
            )
        self.reevaluation_period = int(reevaluation_period)
        self.n_reevaluations = 0
        self.n_subtree_prunes = 0

    def reset(self) -> "ExtremelyFastDecisionTreeClassifier":
        super().reset()
        self.n_reevaluations = 0
        self.n_subtree_prunes = 0
        return self

    # ---------------------------------------------------------------- learn
    def _partial_fit_vectorized(self, X: np.ndarray, y_idx: np.ndarray) -> None:
        """EFDT keeps inner-node statistics alive along every root-to-leaf
        path, so each row updates ``O(depth)`` learning leaves and training
        cannot be chunked the way the plain VFDT is.  The split/re-evaluation
        sweeps (the dominant cost, re-run every ``reevaluation_period`` rows
        at *every* inner node) and batched inference still use the
        structure-of-arrays kernels."""
        for row in range(len(X)):
            self._learn_one(X[row], int(y_idx[row]))

    def _learn_one(self, x: np.ndarray, y_idx: int) -> None:
        # Update statistics along the whole path (EFDT keeps inner-node
        # statistics alive), then let the leaf learn, then run checks
        # top-down as in the published algorithm.
        n_classes = max(self.n_classes_, 2)
        path: list[tuple[SplitNode, SplitNode | None, int]] = []
        node = self.root
        parent: SplitNode | None = None
        branch = 0
        while isinstance(node, SplitNode):
            if isinstance(node, EFDTSplitNode):
                node.stats.learn_one(x, y_idx, n_classes=n_classes)
            path.append((node, parent, branch))
            parent = node
            branch = node.branch_for(x)
            child = node.children[branch]
            if child is None:
                child = node.children[branch] = self._new_leaf(depth=node.depth + 1)
            node = child
        node.learn_one(x, y_idx, n_classes=n_classes)

        # Re-evaluate the inner nodes on the path (top-down).
        for split_node, split_parent, split_branch in path:
            if not isinstance(split_node, EFDTSplitNode):
                continue
            weight = split_node.stats.total_weight
            if (
                weight - split_node.weight_at_last_reevaluation
                >= self.reevaluation_period
            ):
                split_node.weight_at_last_reevaluation = weight
                if self._reevaluate_split(split_node, split_parent, split_branch):
                    # The subtree below was rebuilt; stop walking stale nodes.
                    return

        self._check_split(node, parent, branch)

    # ---------------------------------------------------------------- split
    def _attempt_split(
        self, leaf: LeafNode, parent: SplitNode | None, branch: int
    ) -> "EFDTSplitNode | None":
        """EFDT splits as soon as the best attribute beats *not splitting*."""
        suggestions = leaf.best_split_suggestions(self._criterion)
        real = [s for s in suggestions if s.feature != -1]
        if not real:
            return None
        best = max(real, key=lambda suggestion: suggestion.merit)
        bound = hoeffding_bound(
            self._criterion.merit_range(leaf.class_dist),
            self.split_confidence,
            leaf.total_weight,
        )
        null_merit = 0.0
        if best.merit - null_merit > bound or bound < self.tie_threshold:
            if best.merit > 0:
                return self._split_leaf(leaf, best, parent, branch)
        return None

    def _new_split_node(self, leaf: LeafNode, **node_args) -> EFDTSplitNode:
        """A split node that keeps learning with ``leaf``'s statistics."""
        stats = self._new_leaf(depth=leaf.depth, initial_dist=leaf.class_dist)
        stats.observers = leaf.observers
        return EFDTSplitNode(stats, **node_args)

    # ----------------------------------------------------------- reevaluate
    def _reevaluate_split(
        self,
        node: EFDTSplitNode,
        parent: SplitNode | None,
        branch: int,
    ) -> bool:
        """Re-check an existing split; prune / re-split when it became stale.

        Returns ``True`` when the node was replaced.
        """
        self.n_reevaluations += 1
        suggestions = node.stats.best_split_suggestions(self._criterion)
        real = [s for s in suggestions if s.feature != -1]
        if not real:
            return False
        best = max(real, key=lambda suggestion: suggestion.merit)
        current = max(
            (s for s in real if s.feature == node.feature),
            key=lambda suggestion: suggestion.merit,
            default=None,
        )
        current_merit = current.merit if current is not None else 0.0
        bound = hoeffding_bound(
            self._criterion.merit_range(node.stats.class_dist),
            self.split_confidence,
            node.stats.total_weight,
        )
        if best.merit <= 0 and 0.0 - current_merit > bound:
            # Not splitting at all is better: demote the node to a leaf.
            demoted = self._new_leaf(
                depth=node.depth, initial_dist=node.stats.class_dist
            )
            demoted.observers = node.stats.observers
            self._replace_child(parent, branch, demoted)
            self.n_subtree_prunes += 1
            if TELEMETRY.enabled:
                self._telemetry_prune("subtree", node.depth)
            return True
        if best.feature != node.feature and best.merit - current_merit > bound:
            # A different attribute is now clearly better: kill the subtree
            # and re-split on the new best attribute.
            self._split_leaf(node.stats, best, parent, branch)
            self.n_subtree_prunes += 1
            if TELEMETRY.enabled:
                self._telemetry_prune("resplit", node.depth)
            return True
        return False
