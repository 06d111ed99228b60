"""The Dynamic Model Tree classifier (Section IV and V of the paper).

A Dynamic Model Tree (DMT) grows and prunes an incremental decision tree
whose nodes all carry simple generalized linear models.  All structural
changes are driven by loss-based gain functions (equations (3)-(5)) with
gradient-approximated candidate losses (equation (7)) and AIC-derived
robustness thresholds (Section V-C), so the tree

* never applies a split that would increase the estimated loss
  (consistency with parent splits, Property 1 / Lemma 1),
* replaces any subtree by a simpler alternative of equal quality
  (model minimality, Property 2 / Lemma 2), and
* adapts to concept drift without any dedicated drift-detection module.
"""

from __future__ import annotations

import numpy as np

from repro.base import ComplexityReport, StreamClassifier
from repro.core.candidates import ChildLosses
from repro.core.nodes import DMTNode
from repro.linear.glm import IncrementalGLM
from repro.telemetry import (
    DMT_PRUNE,
    DMT_RESPLIT,
    DMT_SPLIT,
    SPAN_DMT_PARTIAL_FIT,
    SPAN_DMT_PREDICT_PROBA,
    TELEMETRY,
)
from repro.utils.validation import check_in_range, check_positive, check_random_state


class DynamicModelTree(StreamClassifier):
    """Dynamic Model Tree for binary and multiclass data-stream classification.

    Parameters
    ----------
    learning_rate:
        Constant SGD learning rate of the simple (multinomial) logit models.
        The paper recommends ``0.05``.
    epsilon:
        Tolerated relative AIC probability ``ε`` of the confidence test in
        Section V-C; smaller values make structural updates more conservative.
        The paper recommends ``1e-8``.
    n_candidates_factor:
        The maximum number of stored split candidates per node is
        ``n_candidates_factor * n_features`` (paper default: 3).
    replacement_rate:
        Fraction of stored candidates that may be replaced by newly observed
        candidates per time step (paper default: 0.5).
    max_values_per_feature:
        Cap on new thresholds proposed per feature from one batch.
    max_depth:
        Optional hard depth limit (``None`` disables it).  The paper's DMT has
        no explicit limit because model minimality keeps the tree shallow, but
        a limit is useful as an operational safeguard.
    random_state:
        Seed for the random initialisation of the root model.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core import DynamicModelTree
    >>> rng = np.random.default_rng(0)
    >>> X = rng.normal(size=(200, 3))
    >>> y = (X[:, 0] + X[:, 1] > 0).astype(int)
    >>> model = DynamicModelTree(random_state=0)
    >>> _ = model.partial_fit(X, y, classes=[0, 1])
    >>> model.predict(X[:5]).shape
    (5,)
    """

    #: ``(key, report)`` of the last :meth:`complexity` call; see there.
    _repro_transient = ("_report",)

    def __init__(
        self,
        learning_rate: float = 0.05,
        epsilon: float = 1e-8,
        n_candidates_factor: int = 3,
        replacement_rate: float = 0.5,
        max_values_per_feature: int = 10,
        max_depth: int | None = None,
        random_state: int | None = None,
    ) -> None:
        super().__init__()
        check_positive(learning_rate, "learning_rate")
        check_in_range(epsilon, "epsilon", 0.0, 1.0, inclusive=False)
        if n_candidates_factor < 1:
            raise ValueError(
                f"n_candidates_factor must be >= 1, got {n_candidates_factor!r}."
            )
        check_in_range(replacement_rate, "replacement_rate", 0.0, 1.0)
        if max_values_per_feature < 1:
            raise ValueError(
                "max_values_per_feature must be >= 1, "
                f"got {max_values_per_feature!r}."
            )
        if max_depth is not None and max_depth < 1:
            raise ValueError(f"max_depth must be >= 1 or None, got {max_depth!r}.")
        self.learning_rate = float(learning_rate)
        self.epsilon = float(epsilon)
        self.n_candidates_factor = int(n_candidates_factor)
        self.replacement_rate = float(replacement_rate)
        self.max_values_per_feature = int(max_values_per_feature)
        self.max_depth = max_depth
        self.random_state = random_state
        self._rng = check_random_state(random_state)
        self.root: DMTNode | None = None
        self._init_transient()

    def _init_transient(self) -> None:
        self._report: tuple[tuple[int, ...], ComplexityReport] | None = None

    # -------------------------------------------------------------- fitting
    def reset(self) -> "DynamicModelTree":
        self.root = None
        self.classes_ = None
        self.n_features_ = None
        self._rng = check_random_state(self.random_state)
        return self

    def _make_node(self, model: IncrementalGLM | None = None) -> DMTNode:
        if model is None:
            model = IncrementalGLM(
                n_features=self.n_features_,
                n_classes=max(self.n_classes_, 2),
                learning_rate=self.learning_rate,
                rng=self._rng,
            )
        return DMTNode(
            model=model,
            n_features=self.n_features_,
            max_candidates=self.n_candidates_factor * self.n_features_,
            replacement_rate=self.replacement_rate,
            max_values_per_feature=self.max_values_per_feature,
        )

    def partial_fit(
        self, X: np.ndarray, y: np.ndarray, classes: np.ndarray | None = None
    ) -> "DynamicModelTree":
        X, y = self._validate_input(X, y)
        # The root's models are built for max(n_classes_, 2) classes.
        y_idx = self._update_classes(
            y, classes,
            max_classes=None if self.root is None else max(self.n_classes_, 2),
        )
        if self.root is None:
            self.root = self._make_node()

        if not TELEMETRY.enabled:
            self._update_recursive(self.root, X, y_idx, depth=0)
            return self
        TELEMETRY.tracer.call(
            SPAN_DMT_PARTIAL_FIT, self._update_recursive, self.root, X, y_idx, 0
        )
        return self

    def _update_recursive(
        self, node: DMTNode, X: np.ndarray, y_idx: np.ndarray, depth: int
    ) -> None:
        """Update statistics top-down, then restructure bottom-up."""
        child_losses = node.update_statistics(X, y_idx, self.learning_rate)

        if node.is_leaf:
            self._try_split_leaf(node, depth, child_losses)
            return
        mask = node.route_mask(X)
        if np.any(mask):
            self._update_recursive(node.left, X[mask], y_idx[mask], depth + 1)
        if np.any(~mask):
            self._update_recursive(node.right, X[~mask], y_idx[~mask], depth + 1)
        # Structural check after the children were processed => bottom-up,
        # on counts that include the children's own restructuring.
        node.refresh_counts()
        self._try_restructure_inner(node, child_losses)

    def _try_split_leaf(
        self, node: DMTNode, depth: int, child_losses: ChildLosses
    ) -> None:
        """Split a leaf when the best candidate's gain (3) clears the threshold.

        ``child_losses`` is the sweep :meth:`DMTNode.update_statistics`
        returned for this batch.
        """
        if self.max_depth is not None and depth >= self.max_depth:
            return
        best, gain = node.candidates.best_index(node.loss, child_losses)
        if best is None:
            return
        if gain >= node.leaf_split_threshold(self.epsilon):
            candidate = node.candidates.candidate(best)
            node.apply_split(candidate)
            if TELEMETRY.enabled:
                TELEMETRY.emit(
                    DMT_SPLIT,
                    feature=int(candidate.feature),
                    threshold=float(candidate.threshold),
                    gain=float(gain),
                    depth=int(depth),
                )

    def _try_restructure_inner(
        self, node: DMTNode, child_losses: ChildLosses
    ) -> None:
        """Apply the inner-node checks of Figure 2(b): gains (4) and (5).

        ``child_losses`` is the sweep :meth:`DMTNode.update_statistics`
        returned for this batch.
        """
        subtree_loss = node.subtree_leaf_loss()

        best, resplit_gain = node.candidates.best_index(
            subtree_loss, child_losses, exclude=node.split_key
        )
        resplit_ok = (
            best is not None
            and resplit_gain >= node.resplit_threshold(self.epsilon)
        )

        to_leaf_gain = node.prune_to_leaf_gain(subtree_loss)
        prune_ok = to_leaf_gain >= node.prune_threshold(self.epsilon)

        if prune_ok and (not resplit_ok or to_leaf_gain >= resplit_gain):
            # Both options positive -> keep the overall smaller tree.
            node.collapse_to_leaf()
            if TELEMETRY.enabled:
                TELEMETRY.emit(DMT_PRUNE, gain=float(to_leaf_gain))
        elif resplit_ok:
            candidate = node.candidates.candidate(best)
            node.apply_split(candidate)
            if TELEMETRY.enabled:
                TELEMETRY.emit(
                    DMT_RESPLIT,
                    feature=int(candidate.feature),
                    threshold=float(candidate.threshold),
                    gain=float(resplit_gain),
                )

    # ------------------------------------------------------------ inference
    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Vectorised inference: partition the batch by leaf, score per leaf.

        The batch is routed through the tree with one boolean mask per split
        node (:meth:`DMTNode.route_batch_groups`), then every leaf scores all
        of its rows with a single matrix operation instead of a per-row
        Python loop.
        """
        X, _ = self._validate_input(X)
        if self.root is None or self.classes_ is None:
            raise RuntimeError("predict_proba() called before partial_fit().")
        if not TELEMETRY.enabled:
            return self._predict_proba_batch(X)
        return TELEMETRY.tracer.call(
            SPAN_DMT_PREDICT_PROBA, self._predict_proba_batch, X
        )

    def _predict_proba_batch(self, X: np.ndarray) -> np.ndarray:
        n_classes = self.n_classes_
        if n_classes == 1:
            # The binary leaf GLM's column 1 - p reads 0 once p rounds to
            # 1, so a tree that has seen one class predicts it outright.
            return np.ones((len(X), 1))
        root = self.root
        if root.is_leaf:
            # Every row of a one-leaf tree reaches the root, in order: its
            # output is the batch's, without routing or a scatter.
            proba = root.model.predict_proba(X)
        else:
            # Every leaf model has n_classes columns: partial_fit rejects a
            # class beyond the width the root was built with.
            proba = np.empty((len(X), n_classes))
            for leaf, rows in root.route_batch_groups(X):
                proba[rows] = leaf.model.predict_proba(X[rows])
        # Renormalising rows that already sum to about 1 still rounds their
        # last bit, which every served response shows, so it stays.  No row
        # sums to 0: each holds a leaf's full softmax row (an entry of at
        # least 1/c) or [1 - p, p].
        row_sums = proba.sum(axis=1, keepdims=True)
        return proba / row_sums

    # ------------------------------------------------------- interpretability
    def complexity(self) -> ComplexityReport:
        """Complexity under the paper's counting rules (Section VI-D2).

        Reads the root's subtree counts (:class:`DMTNode`), without a walk,
        and returns the same report while they, the class count and the
        feature count are unchanged: building the frozen report costs more
        than the rest of the call.
        """
        root = self.root
        if root is None:
            return ComplexityReport(n_splits=0, n_parameters=0)
        n_inner, n_leaves = root.n_inner, root.n_leaves
        key = (n_inner, n_leaves, root.height, self.n_classes_, self.n_features_)
        cached = self._report
        if cached is not None and cached[0] == key:
            return cached[1]
        n_classes = max(self.n_classes_, 2)
        # Splits: one per inner node; a linear leaf adds 1 (binary) or c
        # (multiclass) further splits.
        leaf_split_contrib = 1 if n_classes == 2 else n_classes
        # Parameters: one per inner node (the split value) plus m weights per
        # class of every leaf model.
        per_leaf_params = (
            self.n_features_ if n_classes == 2 else self.n_features_ * n_classes
        )
        report = ComplexityReport(
            n_splits=n_inner + leaf_split_contrib * n_leaves,
            n_parameters=n_inner + per_leaf_params * n_leaves,
            n_nodes=n_inner + n_leaves,
            n_leaves=n_leaves,
            depth=root.height,
        )
        self._report = (key, report)
        return report

    @property
    def n_nodes(self) -> int:
        return 0 if self.root is None else self.root.n_inner + self.root.n_leaves

    @property
    def n_leaves(self) -> int:
        return 0 if self.root is None else self.root.n_leaves

    @property
    def depth(self) -> int:
        return 0 if self.root is None else self.root.height

    def leaf_feature_weights(self) -> list[dict]:
        """Per-leaf linear feature weights for local explanations.

        The paper argues that Model Trees allow feature weights for different
        subgroups to be extracted directly from the simple models; this method
        exposes exactly that: one entry per leaf with the decision-path
        conditions and the leaf model's weight matrix.
        """
        if self.root is None:
            return []
        explanations = []

        def walk(node: DMTNode, path: list[str]) -> None:
            if node.is_leaf:
                explanations.append(
                    {
                        "path": list(path),
                        "weights": node.model.feature_weights(),
                        "n_observations": node.count,
                    }
                )
                return
            feature, threshold = node.split_feature, node.split_threshold
            walk(node.left, path + [f"x[{feature}] <= {threshold:.4f}"])
            walk(node.right, path + [f"x[{feature}] > {threshold:.4f}"])

        walk(self.root, [])
        return explanations
