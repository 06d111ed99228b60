"""FIMT-DD adapted to streaming classification (Ikonomovska, Gama & Džeroski, 2011).

FIMT-DD is an incremental model tree for regression: it selects splits by
standard-deviation reduction (SDR) of the target with a Hoeffding-bound ratio
test, trains linear models in its leaves, and relies on a Page-Hinkley test
at the inner nodes to prune branches after concept drift.

There is no public Python classification version, so -- exactly like the
paper's authors -- we re-implement the classifier from the description in the
original publication:

* the class label (its integer index) is treated as the numeric target of the
  SDR criterion,
* the leaves hold logit / multinomial-logit models trained by SGD with a
  learning rate of 0.01,
* the Hoeffding ratio test uses a significance threshold of 0.01 and a tie
  threshold of 0.05,
* drift adaptation follows the second strategy of the original paper: every
  inner node runs a Page-Hinkley test on the prediction error and the branch
  is deleted (replaced by a fresh leaf) when the test raises an alert.

Each observation takes one forward pass: the leaf trains through
:meth:`IncrementalGLM.sgd_step`, which also returns the class the leaf
predicted before the step -- the error the Page-Hinkley tests consume.  The
batch is augmented and converted to lists once per :meth:`partial_fit`.
"""

from __future__ import annotations

import numpy as np

from repro.drift.page_hinkley import PageHinkley
from repro.linear.glm import IncrementalGLM
from repro.persistence.registry import register
from repro.telemetry import TREE_PRUNE, TREE_SPLIT, TELEMETRY
from repro.trees.base import TreeClassifier
from repro.trees.criteria import VarianceReductionCriterion
from repro.trees.hoeffding import hoeffding_bound
from repro.trees.observers import LeafObservers, SplitSuggestion
from repro.utils.validation import check_in_range, check_positive, check_random_state


@register
class FIMTLeaf:
    """Leaf of the FIMT-DD classifier: SDR statistics plus a linear model."""

    __slots__ = (
        "model",
        "n_features",
        "n_split_points",
        "depth",
        "_observers",
        "total_weight",
        "weight_at_last_split_attempt",
    )

    def __init__(
        self,
        model: IncrementalGLM,
        n_features: int,
        n_split_points: int,
        depth: int,
    ) -> None:
        self.model = model
        self.n_features = int(n_features)
        self.n_split_points = int(n_split_points)
        self.depth = int(depth)
        self._observers = LeafObservers(
            n_features=self.n_features, n_split_points=self.n_split_points
        )
        self.total_weight = 0.0
        self.weight_at_last_split_attempt = 0.0

    @property
    def observers(self) -> LeafObservers:
        return self._observers

    @observers.setter
    def observers(self, value) -> None:
        # Pre-refactor payloads stored a dict of per-feature observers.
        if isinstance(value, dict):
            value = LeafObservers.from_legacy(
                n_features=self.n_features,
                n_split_points=self.n_split_points,
                nominal_features=None,
                legacy=value,
            )
        self._observers = value

    def best_sdr_suggestions(
        self, criterion: VarianceReductionCriterion
    ) -> list[SplitSuggestion]:
        return self._observers.best_sdr_suggestions(criterion)


@register
class FIMTSplitNode:
    """Inner node of the FIMT-DD classifier with a Page-Hinkley drift monitor."""

    __slots__ = ("feature", "threshold", "depth", "page_hinkley", "children")

    def __init__(
        self,
        feature: int,
        threshold: float,
        depth: int,
        page_hinkley: PageHinkley,
    ) -> None:
        self.feature = int(feature)
        self.threshold = float(threshold)
        self.depth = int(depth)
        self.page_hinkley = page_hinkley
        self.children: list = [None, None]

    def branch_for(self, x: np.ndarray | list[float]) -> int:
        return 0 if x[self.feature] <= self.threshold else 1

    def branch_mask(self, X: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Boolean left-branch mask of ``X[rows]``."""
        return X[rows, self.feature] <= self.threshold


class FIMTDDClassifier(TreeClassifier):
    """FIMT-DD model tree adapted to binary / multiclass classification.

    Parameters
    ----------
    learning_rate:
        SGD learning rate of the linear leaf models (paper default: 0.01).
    split_confidence:
        Significance threshold of the Hoeffding ratio test (paper: 0.01).
    tie_threshold:
        Threshold for breaking ties between similar candidates (paper: 0.05).
    grace_period:
        Observations a leaf accumulates between split attempts.
    n_split_points:
        Candidate thresholds per feature.
    ph_delta / ph_threshold:
        Parameters of the Page-Hinkley tests at the inner nodes.
    max_depth:
        Optional depth limit.
    random_state:
        Seed for the leaf-model initialisation.

    Inference scores each leaf's rows with one matrix operation, which may
    differ from scoring one row at a time in the last ulp (BLAS blocking).
    """

    def __init__(
        self,
        learning_rate: float = 0.01,
        split_confidence: float = 0.01,
        tie_threshold: float = 0.05,
        grace_period: int = 200,
        n_split_points: int = 10,
        ph_delta: float = 0.005,
        ph_threshold: float = 50.0,
        max_depth: int | None = None,
        random_state: int | None = None,
    ) -> None:
        super().__init__()
        check_positive(learning_rate, "learning_rate")
        check_in_range(split_confidence, "split_confidence", 0.0, 1.0, inclusive=False)
        check_in_range(tie_threshold, "tie_threshold", 0.0, 1.0)
        check_positive(grace_period, "grace_period")
        self.learning_rate = float(learning_rate)
        self.split_confidence = float(split_confidence)
        self.tie_threshold = float(tie_threshold)
        self.grace_period = int(grace_period)
        self.n_split_points = int(n_split_points)
        self.ph_delta = float(ph_delta)
        self.ph_threshold = float(ph_threshold)
        self.max_depth = max_depth
        self.random_state = random_state
        self._rng = check_random_state(random_state)
        self._criterion = VarianceReductionCriterion()
        self.root: FIMTLeaf | FIMTSplitNode | None = None
        self.n_split_events = 0
        self.n_pruned_branches = 0

    # -------------------------------------------------------------- fitting
    def reset(self) -> "FIMTDDClassifier":
        self.root = None
        self.classes_ = None
        self.n_features_ = None
        self._rng = check_random_state(self.random_state)
        self.n_split_events = 0
        self.n_pruned_branches = 0
        return self

    def _new_leaf(self, depth: int, model: IncrementalGLM | None = None) -> FIMTLeaf:
        self._structure_changed()
        if model is None:
            model = IncrementalGLM(
                n_features=self.n_features_,
                n_classes=max(self.n_classes_, 2),
                learning_rate=self.learning_rate,
                rng=self._rng,
            )
        return FIMTLeaf(
            model=model,
            n_features=self.n_features_,
            n_split_points=self.n_split_points,
            depth=depth,
        )

    def partial_fit(
        self, X: np.ndarray, y: np.ndarray, classes: np.ndarray | None = None
    ) -> "FIMTDDClassifier":
        X, y = self._validate_input(X, y)
        # The leaf models are built for max(n_classes_, 2) classes.
        class_indices = self._update_classes(
            y, classes,
            max_classes=None if self.root is None else max(self.n_classes_, 2),
        )
        if self.root is None:
            self.root = self._new_leaf(depth=0)
        rows = zip(IncrementalGLM.augment(X), X.tolist(), class_indices.tolist())
        for x_aug, x, y_idx in rows:
            self._learn_one(x_aug, x, y_idx)
        return self

    def _learn_one(self, x_aug: np.ndarray, x: list[float], y_idx: int) -> None:
        # Route to the leaf, remembering the path (each inner node with its
        # parent and branch) for the Page-Hinkley updates.
        path: list[tuple[FIMTSplitNode, FIMTSplitNode | None, int]] = []
        node = self.root
        parent: FIMTSplitNode | None = None
        branch = 0
        while isinstance(node, FIMTSplitNode):
            path.append((node, parent, branch))
            parent = node
            branch = node.branch_for(x)
            child = node.children[branch]
            if child is None:
                child = self._new_leaf(depth=node.depth + 1)
                node.children[branch] = child
            node = child
        leaf: FIMTLeaf = node

        leaf.total_weight += 1.0
        leaf.observers.update_row(x, y_idx)
        # Error signal for drift detection: misclassification indicator of the
        # leaf model before it trains on the row (test-then-train).
        prediction = leaf.model.sgd_step(x_aug, y_idx, predict=True)
        error = float(prediction != y_idx)

        # Page-Hinkley at every inner node on the path; prune on alert.
        for ancestor, ancestor_parent, ancestor_branch in path:
            if ancestor.page_hinkley.update(error):
                self._prune_branch(ancestor, ancestor_parent, ancestor_branch)
                return

        # Split attempt.
        if self.max_depth is not None and leaf.depth >= self.max_depth:
            return
        if leaf.total_weight - leaf.weight_at_last_split_attempt >= self.grace_period:
            leaf.weight_at_last_split_attempt = leaf.total_weight
            self._attempt_split(leaf, parent, branch)

    def _prune_branch(
        self, node: FIMTSplitNode, parent: FIMTSplitNode | None, branch: int
    ) -> None:
        """Replace the branch rooted at ``node``, on ``parent``'s ``branch``,
        by a fresh leaf (second FIMT-DD drift strategy)."""
        self._replace_child(parent, branch, self._new_leaf(depth=node.depth))
        self.n_pruned_branches += 1
        if TELEMETRY.enabled:
            TELEMETRY.emit(
                TREE_PRUNE,
                model=type(self).__name__,
                reason="branch",
                depth=int(node.depth),
            )

    def _attempt_split(
        self, leaf: FIMTLeaf, parent: FIMTSplitNode | None, branch: int
    ) -> None:
        suggestions = leaf.best_sdr_suggestions(self._criterion)
        suggestions = [s for s in suggestions if np.isfinite(s.merit) and s.merit > 0]
        if not suggestions:
            return
        suggestions.sort(key=lambda suggestion: suggestion.merit)
        best = suggestions[-1]
        second_merit = suggestions[-2].merit if len(suggestions) > 1 else 0.0
        bound = hoeffding_bound(1.0, self.split_confidence, leaf.total_weight)
        ratio = second_merit / best.merit if best.merit > 0 else 1.0
        if ratio < 1.0 - bound or bound < self.tie_threshold:
            self._split_leaf(leaf, best, parent, branch)

    def _split_leaf(
        self,
        leaf: FIMTLeaf,
        suggestion: SplitSuggestion,
        parent: FIMTSplitNode | None,
        branch: int,
    ) -> None:
        new_split = FIMTSplitNode(
            feature=suggestion.feature,
            threshold=suggestion.threshold,
            depth=leaf.depth,
            page_hinkley=PageHinkley(
                delta=self.ph_delta, threshold=self.ph_threshold
            ),
        )
        # FIMT-DD passes the trained leaf model down to the children.
        for child_idx in range(2):
            new_split.children[child_idx] = self._new_leaf(
                depth=leaf.depth + 1, model=leaf.model.clone(warm_start=True)
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

    # ------------------------------------------------------------ inference
    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        X, _ = self._validate_input(X)
        if self.root is None or self.classes_ is None:
            raise RuntimeError("predict_proba() called before partial_fit().")
        if self.n_classes_ == 1:
            # As in the DMT: the binary leaf GLM's column 1 - p reads 0 once
            # p rounds to 1, so a tree that has seen one class predicts it.
            return np.ones((len(X), 1))
        proba = np.zeros((len(X), self.n_classes_))
        # One partition per split node, one model evaluation per leaf.
        stack: list[tuple[FIMTLeaf | FIMTSplitNode, np.ndarray]] = [
            (self.root, np.arange(len(X)))
        ]
        while stack:
            node, rows = stack.pop()
            if isinstance(node, FIMTSplitNode):
                mask = node.branch_mask(X, rows)
                for branch, child_rows in ((0, rows[mask]), (1, rows[~mask])):
                    if not len(child_rows):
                        continue
                    child = node.children[branch]
                    if child is None:
                        # A split node without the routed child (a hand-edited
                        # model file): the tree has learned nothing there, so
                        # the rows get a uniform row.  Prediction creates no
                        # node and draws nothing from the model's RNG;
                        # training (_learn_one) grows the leaf back.
                        proba[child_rows] = 1.0 / self.n_classes_
                        continue
                    stack.append((child, child_rows))
                continue
            proba[rows] = node.model.predict_proba(X[rows])
        # Every row holds a leaf's full softmax row, [1 - p, p] or a uniform
        # row, so none sums to 0.
        row_sums = proba.sum(axis=1, keepdims=True)
        return proba / row_sums
