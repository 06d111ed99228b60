"""Scalar reference implementations (test oracles) of the package's kernels.

Every batched kernel in ``src/repro`` has one code path.  The per-row,
per-candidate, per-threshold, per-class and per-member loops it is pinned
against live here, as subclasses that override the product's kernel methods
and as plain functions.  The bit-equivalence tests and the benchmark scripts
``bench_training.py``, ``bench_baselines.py`` and
``bench_serving_throughput.py`` compare the product against them.

Import this module as ``tests.oracles`` only.  Its ``StreamClassifier``
subclasses register with the persistence codec under their ``__qualname__``
when the module is imported, so importing it a second time under another
module name raises ``ValueError``.

:data:`ORACLE_KERNELS` names the product methods each oracle class
overrides; ``tests/test_oracles.py`` checks that every one is defined in the
oracle's own ``__dict__`` and still exists on the product class, so an
equivalence test cannot silently turn into a self-comparison.
"""

from __future__ import annotations

import numpy as np

from repro.base import ComplexityReport
from repro.core.candidates import (
    CandidateManager,
    CandidateStatistics,
    augment_batch,
)
from repro.core.dmt import DynamicModelTree
from repro.core.gains import (
    aic_prune_threshold,
    aic_resplit_threshold,
    aic_split_threshold,
    prune_gain,
)
from repro.core.nodes import DMTNode
from repro.drift.adwin import ADWIN
from repro.ensembles.adaptive_random_forest import AdaptiveRandomForestClassifier
from repro.ensembles.bagging import OzaBaggingClassifier
from repro.ensembles.leveraging_bagging import LeveragingBaggingClassifier
from repro.evaluation.metrics import MatrixScores
from repro.linear.glm import IncrementalGLM, _softmax
from repro.linear.naive_bayes import GaussianNaiveBayes
from repro.telemetry import (
    DMT_CANDIDATES,
    DMT_CANDIDATES_ADMITTED_TOTAL,
    DMT_CANDIDATES_EVICTED_TOTAL,
    DMT_CANDIDATES_SUMMED_TOTAL,
    DMT_PRUNE,
    DMT_RESPLIT,
    DMT_SPLIT,
    ENSEMBLE_MEMBER_DRIFT,
    TELEMETRY,
)
from repro.trees.base import LeafNode, SplitNode
from repro.trees.efdt import ExtremelyFastDecisionTreeClassifier
from repro.trees.fimtdd import FIMTDDClassifier, FIMTLeaf, FIMTSplitNode
from repro.trees.hat import HoeffdingAdaptiveTreeClassifier
from repro.trees.observers import (
    GaussianAttributeObserver,
    GaussianEstimator,
    LeafObservers,
    NominalAttributeObserver,
)
from repro.trees.vfdt import HoeffdingTreeClassifier


# ------------------------------------------------------------------- linear
def sigmoid_scatter(z):
    """The logistic function through boolean masks, one exponential per side."""
    out = np.empty_like(z, dtype=float)
    positive = z >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
    exp_z = np.exp(z[~positive])
    out[~positive] = exp_z / (1.0 + exp_z)
    return out


class ReferenceGLM(IncrementalGLM):
    """Instance-incremental SGD as one :meth:`update` per observation."""

    def fit_incremental(self, X, y, X_aug=None):
        X = self._coerce_batch(X)
        if X is None:
            return self
        y = np.asarray(y, dtype=int)
        for row in range(len(X)):
            self.update(X[row : row + 1], y[row : row + 1])
        return self


class ReferenceGaussianNaiveBayes(GaussianNaiveBayes):
    """Log-likelihoods computed one class at a time."""

    def predict_proba(self, X):
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        if self.total_count == 0:
            return np.full((len(X), self.n_classes), 1.0 / self.n_classes)
        log_prior = np.log(
            np.maximum(self.class_counts, 1e-12) / max(self.total_count, 1e-12)
        )
        variances = self._variances()
        log_likelihood = np.empty((len(X), self.n_classes))
        for class_idx in range(self.n_classes):
            diff = X - self._means[class_idx]
            var = variances[class_idx]
            log_likelihood[:, class_idx] = -0.5 * np.sum(
                np.log(2.0 * np.pi * var) + diff**2 / var, axis=1
            )
        log_joint = log_prior + log_likelihood
        log_joint -= log_joint.max(axis=1, keepdims=True)
        proba = np.exp(log_joint)
        return proba / proba.sum(axis=1, keepdims=True)


# --------------------------------------------------------------------- core
class ReferenceCandidateManager(CandidateManager):
    """The candidate store with one Python loop per candidate.

    Proposes thresholds per feature with ``np.unique``/``np.quantile``,
    accumulates each candidate from its own mask, scores each candidate
    through :meth:`CandidateStatistics.gain` and never applies the admission
    bound.
    """

    def propose_thresholds(self, X):
        X = np.asarray(X, dtype=float)
        proposals: dict[int, np.ndarray] = {}
        quantiles: np.ndarray | None = None
        for feature in range(self.n_features):
            values = np.unique(X[:, feature])
            if len(values) > self.max_values_per_feature:
                if quantiles is None:
                    quantiles = np.linspace(
                        0.0, 1.0, self.max_values_per_feature + 2
                    )[1:-1]
                values = np.unique(np.quantile(values, quantiles))
            proposals[feature] = values
        return proposals

    def update_stored(self, X, per_sample_loss, per_sample_gradient, augmented=None):
        if not len(self._features):
            return
        X = np.asarray(X, dtype=float)
        per_sample_loss = np.asarray(per_sample_loss, dtype=float)
        per_sample_gradient = np.asarray(per_sample_gradient, dtype=float)
        self._ensure_width(per_sample_gradient.shape[1])
        if augmented is None:
            augmented = augment_batch(per_sample_loss, per_sample_gradient)
        for index in range(len(self._features)):
            mask = X[:, self._features[index]] <= self._thresholds[index]
            if not np.any(mask):
                continue
            sums = augmented[mask].sum(axis=0)
            self._losses[index] += sums[-1]
            self._gradients[index] += sums[:-1]
            self._counts[index] += mask.sum()

    def consider_new(
        self,
        X,
        per_sample_loss,
        per_sample_gradient,
        node_loss,
        node_gradient,
        node_count,
        learning_rate,
        augmented=None,
        batch_loss=None,
        batch_gradient=None,
        child_losses=None,
    ):
        # Sums the batch and scores the stored candidates itself, whatever
        # the caller passes in.
        X = np.asarray(X, dtype=float)
        per_sample_loss = np.asarray(per_sample_loss, dtype=float)
        per_sample_gradient = np.asarray(per_sample_gradient, dtype=float)
        self._ensure_width(per_sample_gradient.shape[1])
        if augmented is None:
            augmented = augment_batch(per_sample_loss, per_sample_gradient)
        batch_loss = float(per_sample_loss.sum())
        batch_gradient = per_sample_gradient.sum(axis=0)
        batch_count = float(len(per_sample_loss))
        budget = int(np.floor(self.replacement_rate * self.max_candidates))

        fresh = self._propose_fresh(X, augmented)
        if fresh is None:
            return False
        fresh_features, fresh_thresholds, fresh_losses, fresh_gradients, fresh_counts = fresh
        if TELEMETRY.enabled:
            TELEMETRY.counter(DMT_CANDIDATES_SUMMED_TOTAL).inc(len(fresh_features))

        fresh_gains = np.array(
            [
                CandidateStatistics(
                    feature=int(fresh_features[index]),
                    threshold=float(fresh_thresholds[index]),
                    loss=float(fresh_losses[index]),
                    gradient=fresh_gradients[index],
                    count=float(fresh_counts[index]),
                ).gain(
                    node_loss=batch_loss,
                    node_gradient=batch_gradient,
                    node_count=batch_count,
                    learning_rate=learning_rate,
                )
                for index in range(len(fresh_features))
            ]
        )

        order = np.argsort(-fresh_gains, kind="stable")
        free_slots = max(self.max_candidates - len(self._features), 0)
        admitted = list(order[:free_slots])
        remaining = order[free_slots:]

        evicted: list[int] = []
        if len(remaining) and budget > 0 and len(self._features):
            stored_gains = np.array(
                [
                    self.candidate(index).gain(
                        node_loss, node_gradient, node_count, learning_rate
                    )
                    for index in range(len(self._features))
                ]
            )
            stored_order = np.argsort(stored_gains, kind="stable")
            for newcomer, weakest in zip(remaining, stored_order):
                if len(evicted) >= budget:
                    break
                if fresh_gains[newcomer] <= stored_gains[weakest]:
                    break
                evicted.append(int(weakest))
                admitted.append(newcomer)

        if evicted:
            keep = np.ones(len(self._features), dtype=bool)
            keep[evicted] = False
            self._features = self._features[keep]
            self._thresholds = self._thresholds[keep]
            self._losses = self._losses[keep]
            self._counts = self._counts[keep]
            self._gradients = self._gradients[keep]
        if admitted:
            self._features = np.concatenate(
                [self._features, fresh_features[admitted]]
            )
            self._thresholds = np.concatenate(
                [self._thresholds, fresh_thresholds[admitted]]
            )
            self._losses = np.concatenate([self._losses, fresh_losses[admitted]])
            self._counts = np.concatenate([self._counts, fresh_counts[admitted]])
            self._gradients = np.concatenate(
                [self._gradients, fresh_gradients[admitted]], axis=0
            )
        if evicted or admitted:
            self._rebuild_key_index()
            if TELEMETRY.enabled:
                TELEMETRY.emit(
                    DMT_CANDIDATES,
                    n_admitted=len(admitted),
                    n_evicted=len(evicted),
                    n_stored=len(self._features),
                )
                TELEMETRY.counter(DMT_CANDIDATES_ADMITTED_TOTAL).inc(len(admitted))
                if evicted:
                    TELEMETRY.counter(DMT_CANDIDATES_EVICTED_TOTAL).inc(len(evicted))
        return bool(evicted or admitted)

    def _propose_fresh(self, X, augmented):
        features: list[int] = []
        thresholds: list[float] = []
        for feature, values in self.propose_thresholds(X).items():
            for value in values:
                if (feature, float(value)) in self._key_index:
                    continue
                features.append(feature)
                thresholds.append(float(value))
        fresh_features = np.array(features, dtype=np.intp)
        fresh_thresholds = np.array(thresholds, dtype=float)
        if not len(fresh_features):
            return None
        masks = X[:, fresh_features] <= fresh_thresholds
        counts = masks.sum(axis=0)
        informative = (counts > 0) & (counts < len(X))
        if not np.any(informative):
            return None
        fresh_features = fresh_features[informative]
        fresh_thresholds = fresh_thresholds[informative]
        masks = masks[:, informative]
        counts = counts[informative]
        losses = np.zeros(len(fresh_features))
        gradients = np.zeros((len(fresh_features), augmented.shape[1] - 1))
        for index in range(len(fresh_features)):
            sums = augmented[masks[:, index]].sum(axis=0)
            losses[index] = sums[-1]
            gradients[index] = sums[:-1]
        return (
            fresh_features,
            fresh_thresholds,
            losses,
            gradients,
            counts.astype(float),
        )

    def child_losses(self, node_loss, node_gradient, node_count, learning_rate):
        pairs = [
            self.candidate(index).child_losses(
                node_loss, node_gradient, node_count, learning_rate
            )
            for index in range(len(self._features))
        ]
        return (
            np.array([left for left, _ in pairs], dtype=float),
            np.array([right for _, right in pairs], dtype=float),
        )


class ReferenceDMTNode(DMTNode):
    """A DMT node whose candidate store is :class:`ReferenceCandidateManager`.

    ``DMTNode.make_child`` builds ``type(self)``, so every node of the tree
    below a reference root is a reference node.
    """

    def __init__(
        self, model, n_features, max_candidates, replacement_rate,
        max_values_per_feature,
    ):
        super().__init__(
            model, n_features, max_candidates, replacement_rate,
            max_values_per_feature,
        )
        self.candidates = ReferenceCandidateManager(
            n_features=n_features,
            max_candidates=max_candidates,
            replacement_rate=replacement_rate,
            max_values_per_feature=max_values_per_feature,
        )


class ReferenceDynamicModelTree(DynamicModelTree):
    """The DMT trained through :class:`ReferenceDMTNode` and :class:`ReferenceGLM`.

    ``IncrementalGLM.clone`` builds ``type(self)``, so the warm-started child
    models stay reference models.  Inference is the product's.
    """

    def _make_node(self, model=None):
        if model is None:
            model = ReferenceGLM(
                n_features=self.n_features_,
                n_classes=max(self.n_classes_, 2),
                learning_rate=self.learning_rate,
                rng=self._rng,
            )
        return ReferenceDMTNode(
            model=model,
            n_features=self.n_features_,
            max_candidates=self.n_candidates_factor * self.n_features_,
            replacement_rate=self.replacement_rate,
            max_values_per_feature=self.max_values_per_feature,
        )


class TwoSweepDynamicModelTree(DynamicModelTree):
    """The DMT whose split checks sweep the candidate store again.

    The leaf check (3) and the inner-node checks (4) and (5) ignore the
    sweep :meth:`DMTNode.update_statistics` returned and ask
    :meth:`DMTNode.best_split` for a fresh one.  Thresholds come from walks
    of the subtree, the subtree's leaf loss is summed once per gain, and
    the best candidate is materialised on every check.
    """

    def _try_split_leaf(self, node, depth, child_losses):
        if self.max_depth is not None and depth >= self.max_depth:
            return
        candidate, gain = node.best_split(self.learning_rate)
        if candidate is None:
            return
        k = node.model.n_parameters
        if gain >= aic_split_threshold(k, k, k, self.epsilon):
            node.apply_split(candidate)
            if TELEMETRY.enabled:
                TELEMETRY.emit(
                    DMT_SPLIT,
                    feature=int(candidate.feature),
                    threshold=float(candidate.threshold),
                    gain=float(gain),
                    depth=int(depth),
                )

    def _try_restructure_inner(self, node, child_losses):
        k = node.model.n_parameters
        leaf_parameters = int(
            sum(leaf.model.n_parameters for leaf in node.subtree_leaves())
        )
        candidate, resplit_gain = node.best_split(
            self.learning_rate, reference_loss=node.subtree_leaf_loss()
        )
        resplit_ok = candidate is not None and resplit_gain >= (
            aic_resplit_threshold(k, k, leaf_parameters, self.epsilon)
        )
        to_leaf_gain = prune_gain(node.subtree_leaf_loss(), node.loss)
        prune_ok = to_leaf_gain >= aic_prune_threshold(
            k, leaf_parameters, self.epsilon
        )
        if prune_ok and (not resplit_ok or to_leaf_gain >= resplit_gain):
            node.collapse_to_leaf()
            if TELEMETRY.enabled:
                TELEMETRY.emit(DMT_PRUNE, gain=float(to_leaf_gain))
        elif resplit_ok:
            node.apply_split(candidate)
            if TELEMETRY.enabled:
                TELEMETRY.emit(
                    DMT_RESPLIT,
                    feature=int(candidate.feature),
                    threshold=float(candidate.threshold),
                    gain=float(resplit_gain),
                )


def dmt_complexity_walk(model):
    """``model.complexity()`` counted by a walk over every node."""
    if model.root is None:
        return ComplexityReport(n_splits=0, n_parameters=0)
    nodes = model.root.subtree_nodes()
    leaves = [node for node in nodes if node.is_leaf]
    inner = [node for node in nodes if not node.is_leaf]
    n_classes = max(model.n_classes_, 2)
    leaf_split_contrib = 1 if n_classes == 2 else n_classes
    per_leaf_params = (
        model.n_features_ if n_classes == 2 else model.n_features_ * n_classes
    )

    def height(node):
        if node.is_leaf:
            return 0
        return 1 + max(height(node.left), height(node.right))

    return ComplexityReport(
        n_splits=len(inner) + leaf_split_contrib * len(leaves),
        n_parameters=len(inner) + per_leaf_params * len(leaves),
        n_nodes=len(nodes),
        n_leaves=len(leaves),
        depth=height(model.root),
    )


def dmt_predict_proba_per_row(model, X):
    """``model.predict_proba(X)``, routing and scoring one row at a time."""
    X, _ = model._validate_input(X)
    if model.root is None or model.classes_ is None:
        raise RuntimeError("predict_proba() called before partial_fit().")
    n_model_classes = model.root.model.n_classes
    width = min(n_model_classes, model.n_classes_)
    proba = np.zeros((len(X), model.n_classes_))
    for row, x in enumerate(X):
        leaf = model.root.sorted_leaf(x)
        leaf_proba = leaf.model.predict_proba(x.reshape(1, -1))[0]
        proba[row, :width] = leaf_proba[:width]
    row_sums = proba.sum(axis=1, keepdims=True)
    row_sums[row_sums == 0.0] = 1.0
    return proba / row_sums


def glm_predict_proba_stacked(glm, X):
    """``glm.predict_proba(X)`` built with ``np.hstack``, :func:`sigmoid_scatter`
    and ``np.column_stack``."""
    X_aug = np.hstack([X, np.ones((X.shape[0], 1))])
    if glm.n_classes == 2:
        p_one = sigmoid_scatter(X_aug @ glm.weights)
        return np.column_stack([1.0 - p_one, p_one])
    return _softmax(X_aug @ glm.weights.T)


def dmt_predict_proba_scatter(model, X):
    """``model.predict_proba(X)`` through a zero-filled array, for every batch.

    Routes with ``route_batch_groups``, scores every leaf's rows with
    :func:`glm_predict_proba_stacked`, scatters them into the zero-filled
    ``(n, n_classes_)`` array and renormalises, even when every row reaches
    one leaf.
    """
    X, _ = model._validate_input(X)
    if model.root is None or model.classes_ is None:
        raise RuntimeError("predict_proba() called before partial_fit().")
    n_model_classes = model.root.model.n_classes
    width = min(n_model_classes, model.n_classes_)
    proba = np.zeros((len(X), model.n_classes_))
    for leaf, rows in model.root.route_batch_groups(X):
        leaf_proba = glm_predict_proba_stacked(leaf.model, X[rows])
        proba[rows, :width] = leaf_proba[:, :width]
    row_sums = proba.sum(axis=1, keepdims=True)
    row_sums[row_sums == 0.0] = 1.0
    return proba / row_sums


# -------------------------------------------------------------------- trees
def legacy_observers(store):
    """The classic per-feature observers holding ``store``'s statistics."""
    observers = {}
    for feature in range(store.n_features):
        if feature in store.nominal_features:
            observer = NominalAttributeObserver()
            for value, counts in store._nominal.get(feature, {}).items():
                observer._counts[value] = {
                    class_idx: weight
                    for class_idx, weight in enumerate(counts)
                    if weight != 0.0
                }
            observers[feature] = observer
        else:
            observer = GaussianAttributeObserver(store.n_split_points)
            for class_idx in range(store.n_classes):
                weight = store._weights[class_idx][feature]
                if weight == 0.0:
                    continue
                estimator = GaussianEstimator()
                estimator.weight = weight
                estimator.mean = store._means[class_idx][feature]
                estimator._m2 = store._m2[class_idx][feature]
                observer._per_class[class_idx] = estimator
            observer._min_value = store._mins[feature]
            observer._max_value = store._maxs[feature]
            observers[feature] = observer
    return observers


class ReferenceLeafObservers(LeafObservers):
    """Split suggestions from the legacy observers' per-threshold loops."""

    __slots__ = ()

    def best_split_suggestions(self, criterion, pre_split):
        pre_split = np.asarray(pre_split, dtype=float)
        suggestions = []
        for feature, observer in legacy_observers(self).items():
            suggestion = observer.best_split_suggestion(criterion, pre_split, feature)
            if suggestion is not None:
                suggestions.append(suggestion)
        return suggestions

    def best_sdr_suggestions(self, criterion):
        suggestions = []
        for feature, observer in legacy_observers(self).items():
            if isinstance(observer, NominalAttributeObserver):
                continue
            suggestion = observer.best_sdr_suggestion(criterion, feature)
            if suggestion is not None:
                suggestions.append(suggestion)
        return suggestions


def _with_reference_observers(leaf):
    """Swap a fresh leaf's empty store for a :class:`ReferenceLeafObservers`."""
    leaf.observers = ReferenceLeafObservers(
        n_features=leaf.n_features,
        n_split_points=leaf.n_split_points,
        nominal_features=getattr(leaf, "nominal_features", None),
    )
    return leaf


def _partial_fit_per_row(self, X, y, classes=None):
    """Train a Hoeffding tree one ``_learn_one`` call per row."""
    X, y = self._validate_input(X, y)
    self._update_classes(y, classes)
    if self.root is None:
        self.root = self._new_leaf(depth=0)
    y_idx = self.class_index(y)
    for row in range(len(X)):
        self._learn_one(X[row], int(y_idx[row]))
    return self


def tree_nodes(root):
    """Every node of a baseline tree reachable through ``children``, in pre-order."""
    if root is None:
        return []
    nodes = [root]
    for child in getattr(root, "children", ()):
        if child is not None:
            nodes.extend(tree_nodes(child))
    return nodes


def tree_complexity_walk(model):
    """A Hoeffding tree's or FIMT-DD's ``complexity()``, counted by a walk."""
    if model.root is None:
        return ComplexityReport(n_splits=0, n_parameters=0)
    nodes = tree_nodes(model.root)
    inner = [node for node in nodes if isinstance(node, (SplitNode, FIMTSplitNode))]
    leaves = [node for node in nodes if isinstance(node, (LeafNode, FIMTLeaf))]
    assert len(inner) + len(leaves) == len(nodes)
    n_classes = max(model.n_classes_, 2)
    if getattr(model, "leaf_prediction", None) == "mc":
        leaf_splits, leaf_params = 0, 1
    else:
        leaf_splits = 1 if n_classes == 2 else n_classes
        leaf_params = model.n_features_ * leaf_splits

    def height(node):
        children = getattr(node, "children", None)
        if children is None:
            return 0
        return 1 + max(
            (height(child) for child in children if child is not None), default=0
        )

    return ComplexityReport(
        n_splits=len(inner) + leaf_splits * len(leaves),
        n_parameters=len(inner) + leaf_params * len(leaves),
        n_nodes=len(nodes),
        n_leaves=len(leaves),
        depth=height(model.root),
    )


def _predict_proba_per_row(self, X):
    """Hoeffding-tree inference, one root-to-leaf walk per row."""
    X, _ = self._validate_input(X)
    if self.root is None or self.classes_ is None:
        raise RuntimeError("predict_proba() called before partial_fit().")
    n_classes = max(self.n_classes_, 2)
    proba = np.zeros((len(X), self.n_classes_))
    for row, x in enumerate(X):
        node = self.root
        while isinstance(node, SplitNode):
            child = node.child_for(x)
            if child is None:
                break
            node = child
        if isinstance(node, SplitNode):
            leaf_proba = self._split_node_proba(node, n_classes)
        else:
            leaf_proba = node.predict_proba(x, n_classes)
        proba[row] = leaf_proba[: self.n_classes_]
    row_sums = proba.sum(axis=1, keepdims=True)
    row_sums[row_sums == 0.0] = 1.0
    return proba / row_sums


class ReferenceHoeffdingTree(HoeffdingTreeClassifier):
    """VFDT trained and queried row by row, with per-threshold split scoring."""

    partial_fit = _partial_fit_per_row
    predict_proba = _predict_proba_per_row

    def _new_leaf(self, depth, initial_dist=None):
        return _with_reference_observers(super()._new_leaf(depth, initial_dist))

    def _learn_one(self, x, y_idx):
        leaf, parent, branch = self._sort_to_leaf(x)
        leaf.learn_one(x, y_idx, n_classes=max(self.n_classes_, 2))
        if self._can_split(leaf):
            weight_seen = leaf.total_weight
            if (
                weight_seen - leaf.weight_at_last_split_attempt
                >= self.grace_period
            ):
                leaf.weight_at_last_split_attempt = weight_seen
                self._attempt_split(leaf, parent, branch)

    def _sort_to_leaf(self, x):
        """Walk the tree and return (leaf, parent split node, branch index)."""
        return self._descend_from(self.root, x)

    def _descend_from(self, node, x):
        """Walk from ``node`` to the leaf for ``x``, creating missing children."""
        parent = None
        branch = 0
        while isinstance(node, SplitNode):
            parent = node
            branch = node.branch_for(x)
            child = node.children[branch]
            if child is None:
                child = self._new_leaf(depth=node.depth + 1)
                node.children[branch] = child
            node = child
        return node, parent, branch


class ReferenceHoeffdingAdaptiveTree(HoeffdingAdaptiveTreeClassifier):
    """HT-Ada through its per-row recursion, with per-threshold split scoring."""

    partial_fit = _partial_fit_per_row
    predict_proba = _predict_proba_per_row

    def _new_leaf(self, depth, initial_dist=None):
        return _with_reference_observers(super()._new_leaf(depth, initial_dist))


class ReferenceEFDT(ExtremelyFastDecisionTreeClassifier):
    """EFDT queried row by row, with per-threshold split scoring."""

    partial_fit = _partial_fit_per_row
    predict_proba = _predict_proba_per_row

    def _new_leaf(self, depth, initial_dist=None):
        return _with_reference_observers(super()._new_leaf(depth, initial_dist))


def fimtdd_predict_proba_per_row(model, X):
    """FIMT-DD inference, one root-to-leaf walk and model call per row.

    May differ from ``model.predict_proba`` in the last ulp: BLAS blocks
    the batched matmul differently.
    """
    proba = np.zeros((len(X), model.n_classes_))
    for row, x in enumerate(X):
        node = model.root
        while isinstance(node, FIMTSplitNode):
            node = node.children[node.branch_for(x)]
        if node is None:
            # A split node without the routed child: a uniform row.
            proba[row] = 1.0 / model.n_classes_
            continue
        leaf_proba = node.model.predict_proba(x.reshape(1, -1))[0]
        proba[row] = leaf_proba[: model.n_classes_]
    row_sums = proba.sum(axis=1, keepdims=True)
    row_sums[row_sums == 0.0] = 1.0
    return proba / row_sums


class ReferenceFIMTDD(FIMTDDClassifier):
    """FIMT-DD with per-threshold SDR scoring and per-row inference."""

    def predict_proba(self, X):
        X, _ = self._validate_input(X)
        if self.root is None or self.classes_ is None:
            raise RuntimeError("predict_proba() called before partial_fit().")
        return fimtdd_predict_proba_per_row(self, X)

    def _new_leaf(self, depth, model=None):
        return _with_reference_observers(super()._new_leaf(depth, model))


class TwoPassFIMTDD(FIMTDDClassifier):
    """FIMT-DD trained per row by ``predict`` then ``update`` on the leaf.

    The loop the single forward pass of ``IncrementalGLM.sgd_step``
    replaced: one leaf-model prediction for the Page-Hinkley error, then one
    mini-batch SGD step on a one-row batch.
    """

    def partial_fit(self, X, y, classes=None):
        X, y = self._validate_input(X, y)
        self._update_classes(
            y, classes,
            max_classes=None if self.root is None else max(self.n_classes_, 2),
        )
        if self.root is None:
            self.root = self._new_leaf(depth=0)
        y_idx = self.class_index(y)
        for row in range(len(X)):
            self._learn_one_two_pass(X[row], int(y_idx[row]))
        return self

    def _learn_one_two_pass(self, x, y_idx):
        path = []
        node = self.root
        parent = None
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
        leaf = node
        prediction = int(leaf.model.predict(x.reshape(1, -1))[0])
        error = float(prediction != y_idx)
        leaf.total_weight += 1.0
        leaf.observers.update_row(x.tolist(), y_idx)
        leaf.model.update(x.reshape(1, -1), np.array([y_idx]))
        for ancestor, ancestor_parent, ancestor_branch in path:
            if ancestor.page_hinkley.update(error):
                self._prune_branch(ancestor, ancestor_parent, ancestor_branch)
                return
        if self.max_depth is not None and leaf.depth >= self.max_depth:
            return
        if leaf.total_weight - leaf.weight_at_last_split_attempt >= self.grace_period:
            leaf.weight_at_last_split_attempt = leaf.total_weight
            self._attempt_split(leaf, parent, branch)


# ---------------------------------------------------------------- ensembles
def accumulate_member_votes_per_column(
    votes, proba, member_classes, ensemble_classes
):
    """Add one member's class-aligned votes in place, one column at a time."""
    n_classes = len(ensemble_classes)
    for column, label in enumerate(member_classes):
        target = np.searchsorted(ensemble_classes, label)
        if target < n_classes and ensemble_classes[target] == label:
            votes[:, target] += proba[:, column]


def _make_reference_member(self):
    """A member built by the factory; the stock VFDT becomes its oracle."""
    if self.base_estimator_factory is HoeffdingTreeClassifier:
        return ReferenceHoeffdingTree()
    return self.base_estimator_factory()


def _batch_weights_per_member(self, n):
    """Poisson weights of the batch, drawn one member at a time."""
    return np.stack(
        [
            self._rng.poisson(self.poisson_lambda, size=n)
            for _ in range(self.n_estimators)
        ]
    )


def _bagging_predict_proba(self, X):
    """Online-bagging votes, aligned one member column at a time."""
    X, _ = self._validate_input(X)
    if self.classes_ is None:
        raise RuntimeError("predict_proba() called before partial_fit().")
    votes = np.zeros((len(X), self.n_classes_))
    for estimator in self.estimators_:
        if estimator.classes_ is None:
            continue
        proba = estimator.predict_proba(X)
        accumulate_member_votes_per_column(
            votes, proba, estimator.classes_, self.classes_
        )
    row_sums = votes.sum(axis=1, keepdims=True)
    row_sums[row_sums == 0.0] = 1.0
    return votes / row_sums


class ReferenceOzaBagging(OzaBaggingClassifier):
    """Online bagging with per-member draws and per-column vote alignment."""

    _make_estimator = _make_reference_member
    _batch_weights = _batch_weights_per_member
    predict_proba = _bagging_predict_proba


class ReferenceLeveragingBagging(LeveragingBaggingClassifier):
    """Leveraging Bagging feeding each member's ADWIN one error at a time."""

    _make_estimator = _make_reference_member
    _batch_weights = _batch_weights_per_member
    predict_proba = _bagging_predict_proba

    def partial_fit(self, X, y, classes=None):
        X, y = self._validate_input(X, y)
        self._update_classes(y, classes)

        change_detected = False
        for estimator_idx, estimator in enumerate(self.estimators_):
            if estimator.classes_ is None:
                continue
            predictions = estimator.predict(X)
            errors = (predictions != y).astype(float)
            detector = self._detectors[estimator_idx]
            for error in errors:
                before = detector.mean
                if detector.update(error) and detector.mean > before:
                    change_detected = True

        if change_detected:
            error_estimates = [detector.mean for detector in self._detectors]
            worst = int(np.argmax(error_estimates))
            self.estimators_[worst] = self._make_estimator()
            self._detectors[worst] = ADWIN(delta=self.adwin_delta)
            self.n_member_resets += 1
            if TELEMETRY.enabled:
                TELEMETRY.emit(
                    ENSEMBLE_MEMBER_DRIFT,
                    model=type(self).__name__,
                    member=worst,
                    detector="ADWIN",
                )

        return OzaBaggingClassifier.partial_fit(self, X, y, classes=classes)


class ReferenceARF(AdaptiveRandomForestClassifier):
    """ARF with per-member draws, scalar detector feeds and per-column votes."""

    _make_estimator = _make_reference_member

    def partial_fit(self, X, y, classes=None):
        X, y = self._validate_input(X, y)
        self._update_classes(y, classes)
        if not self.members_:
            self._init_members()

        for member_idx, member in enumerate(self.members_):
            X_sub = X[:, member.feature_indices]

            if member.tree.classes_ is not None:
                predictions = member.tree.predict(X_sub)
                errors = (predictions != y).astype(float)
                warning = False
                drift = False
                for error in errors:
                    before = member.warning_detector.mean
                    if member.warning_detector.update(error):
                        warning = warning or member.warning_detector.mean > before
                    before = member.drift_detector.mean
                    if member.drift_detector.update(error):
                        drift = drift or member.drift_detector.mean > before
                if warning and member.background_tree is None:
                    member.background_tree = self._make_estimator()
                    self.n_warnings += 1
                if drift:
                    if member.background_tree is not None:
                        member.tree = member.background_tree
                        member.background_tree = None
                    else:
                        member.tree = self._make_estimator()
                    member.warning_detector = ADWIN(delta=self.warning_delta)
                    member.drift_detector = ADWIN(delta=self.drift_delta)
                    self.n_drifts += 1
                    if TELEMETRY.enabled:
                        TELEMETRY.emit(
                            ENSEMBLE_MEMBER_DRIFT,
                            model=type(self).__name__,
                            member=int(member_idx),
                            detector="ADWIN",
                        )

            weights = self._rng.poisson(self.poisson_lambda, size=len(X))
            mask = weights > 0
            if not np.any(mask):
                continue
            X_rep = np.repeat(X_sub[mask], weights[mask], axis=0)
            y_rep = np.repeat(y[mask], weights[mask], axis=0)
            member.tree.partial_fit(X_rep, y_rep, classes=self.classes_)
            if member.background_tree is not None:
                member.background_tree.partial_fit(X_rep, y_rep, classes=self.classes_)
        return self

    def predict_proba(self, X):
        X, _ = self._validate_input(X)
        if self.classes_ is None:
            raise RuntimeError("predict_proba() called before partial_fit().")
        votes = np.zeros((len(X), self.n_classes_))
        for member in self.members_:
            if member.tree.classes_ is None:
                continue
            proba = member.tree.predict_proba(X[:, member.feature_indices])
            accumulate_member_votes_per_column(
                votes, proba, member.tree.classes_, self.classes_
            )
        row_sums = votes.sum(axis=1, keepdims=True)
        row_sums[row_sums == 0.0] = 1.0
        return votes / row_sums


# --------------------------------------------------------------- evaluation
def _one_ratio(numerator, denominator):
    return np.divide(
        numerator, denominator, out=np.zeros(len(numerator)), where=denominator > 0
    )


def _one_beyond(observed, baseline):
    if baseline >= 1.0:
        return 0.0
    return (observed - baseline) / (1.0 - baseline)


class OneMatrixScores(MatrixScores):
    """Every metric of one confusion matrix: the per-batch scorer.

    The prequential evaluator built one of these per scored batch before
    ``MatrixScores`` scored a whole stack of matrices at once.  It takes one
    matrix, and each metric is a Python float; kappa-temporal takes the
    batch's true labels and the label before them.  ``precision``,
    ``recall`` and ``f1`` are the product's, dispatching to these kernels.
    """

    def __init__(self, matrix, classes):
        self.classes = classes
        self.support = matrix.sum(axis=1)
        self.predicted = matrix.sum(axis=0)
        self.correct = matrix.diagonal()
        self.total = float(self.support.sum())
        self.observed = float(self.correct.sum()) / self.total if self.total else 0.0

    def accuracy(self):
        return self.observed

    def per_class_precision(self):
        return _one_ratio(self.correct, self.predicted)

    def per_class_recall(self):
        return _one_ratio(self.correct, self.support)

    def per_class_f1(self):
        precision = self.per_class_precision()
        recall = self.per_class_recall()
        return _one_ratio(2.0 * precision * recall, precision + recall)

    def average(self, per_class, average):
        if average == "macro":
            present = self.support > 0
            if not present.any():
                return 0.0
            return float(per_class[present].mean())
        if average == "weighted":
            if self.total == 0:
                return 0.0
            return float(np.multiply(per_class, self.support).sum() / self.total)
        return float(per_class[int(np.argmax(self.classes))])

    def kappa(self):
        if self.total == 0:
            return 0.0
        expected = float(self.support @ self.predicted) / (self.total * self.total)
        return _one_beyond(self.observed, expected)

    def kappa_m(self):
        if self.total == 0:
            return 0.0
        return _one_beyond(self.observed, float(self.support.max()) / self.total)

    def kappa_temporal(self, y_true, last_label=None):
        if self.total == 0:
            return 0.0
        y_true = np.asarray(y_true)
        same = int(np.count_nonzero(y_true[1:] == y_true[:-1]))
        if last_label is not None and y_true[0] == last_label:
            same += 1
        return _one_beyond(self.observed, same / len(y_true))


#: Model class -> its oracle, for tests that build both from one config.
ORACLES = {
    DynamicModelTree: ReferenceDynamicModelTree,
    HoeffdingTreeClassifier: ReferenceHoeffdingTree,
    HoeffdingAdaptiveTreeClassifier: ReferenceHoeffdingAdaptiveTree,
    ExtremelyFastDecisionTreeClassifier: ReferenceEFDT,
    FIMTDDClassifier: ReferenceFIMTDD,
    OzaBaggingClassifier: ReferenceOzaBagging,
    LeveragingBaggingClassifier: ReferenceLeveragingBagging,
    AdaptiveRandomForestClassifier: ReferenceARF,
}

#: Oracle class -> the product methods it overrides with its scalar loops.
ORACLE_KERNELS = {
    ReferenceGLM: ("fit_incremental",),
    ReferenceGaussianNaiveBayes: ("predict_proba",),
    ReferenceCandidateManager: (
        "propose_thresholds",
        "update_stored",
        "consider_new",
        "_propose_fresh",
        "child_losses",
    ),
    ReferenceDMTNode: ("__init__",),
    ReferenceDynamicModelTree: ("_make_node",),
    TwoSweepDynamicModelTree: ("_try_split_leaf", "_try_restructure_inner"),
    ReferenceLeafObservers: ("best_split_suggestions", "best_sdr_suggestions"),
    ReferenceHoeffdingTree: ("partial_fit", "predict_proba", "_new_leaf"),
    ReferenceHoeffdingAdaptiveTree: ("partial_fit", "predict_proba", "_new_leaf"),
    ReferenceEFDT: ("partial_fit", "predict_proba", "_new_leaf"),
    ReferenceFIMTDD: ("predict_proba", "_new_leaf"),
    TwoPassFIMTDD: ("partial_fit",),
    ReferenceOzaBagging: ("_make_estimator", "_batch_weights", "predict_proba"),
    ReferenceLeveragingBagging: (
        "_make_estimator",
        "_batch_weights",
        "predict_proba",
        "partial_fit",
    ),
    ReferenceARF: ("_make_estimator", "partial_fit", "predict_proba"),
    OneMatrixScores: (
        "__init__",
        "accuracy",
        "per_class_precision",
        "per_class_recall",
        "per_class_f1",
        "average",
        "kappa",
        "kappa_m",
        "kappa_temporal",
    ),
}
