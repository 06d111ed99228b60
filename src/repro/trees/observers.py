"""Attribute observers used by the Hoeffding-tree family.

An attribute observer summarises the joint distribution of one feature and
the class label at a leaf and proposes binary split points.  Numeric features
use a per-class Gaussian estimator (the standard VFDT approach); nominal
features use per-value class counts.  The paper restricts all trees to binary
splits, so both observers only emit binary suggestions.

Since the baseline vectorization, each leaf keeps *one*
:class:`LeafObservers` store in structure-of-arrays form (per-class rows of
Welford weight/mean/M2 triplets covering every feature at once) instead of a
dict of per-feature observer objects.  The store scores all candidate
thresholds of all features in a handful of array operations, bit-identical
to the per-threshold loops of the classic per-feature observers
(:class:`GaussianAttributeObserver` / :class:`NominalAttributeObserver`),
which ``tests/oracles.py`` runs as the reference.  The legacy classes also
remain the decode target for models persisted before the structure-of-arrays
layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.persistence.registry import register
from repro.trees.criteria import SplitCriterion, VarianceReductionCriterion


@register
@dataclass
class SplitSuggestion:
    """A candidate binary split of one feature."""

    feature: int
    threshold: float
    merit: float
    children_dists: list[np.ndarray] = field(default_factory=list)
    is_nominal: bool = False

    def route_left(self, value: float) -> bool:
        """Return whether a feature value goes to the left branch."""
        if self.is_nominal:
            return value == self.threshold
        return value <= self.threshold


@register
class GaussianEstimator:
    """Incremental univariate Gaussian with Welford moment updates."""

    __slots__ = ("weight", "mean", "_m2")

    def __init__(self) -> None:
        self.weight = 0.0
        self.mean = 0.0
        self._m2 = 0.0

    def update(self, value: float, weight: float = 1.0) -> None:
        if weight <= 0:
            return
        self.weight += weight
        delta = value - self.mean
        self.mean += weight * delta / self.weight
        self._m2 += weight * delta * (value - self.mean)

    @property
    def variance(self) -> float:
        if self.weight <= 1.0:
            return 0.0
        return max(self._m2 / (self.weight - 1.0), 0.0)

    @property
    def std(self) -> float:
        return float(np.sqrt(self.variance))

    def cdf(self, value: float) -> float:
        """Probability mass of the Gaussian at or below ``value``."""
        if self.weight == 0:
            return 0.0
        std = self.std
        if std == 0.0:
            return 1.0 if value >= self.mean else 0.0
        z = (value - self.mean) / (std * np.sqrt(2.0))
        return float(0.5 * (1.0 + _erf(z)))

    def weight_below(self, value: float) -> float:
        """Estimated weight of observations with values at or below ``value``."""
        return self.weight * self.cdf(value)


def _erf_vec(z):
    """Error function via Abramowitz-Stegun approximation (vector-safe).

    Works elementwise on arrays and scalars; numpy's ufuncs produce the same
    bits for an array element as for the equivalent scalar call, so the
    sweeps and the scalar observers share this one function.
    """
    sign = np.sign(z)
    z = abs(z)
    t = 1.0 / (1.0 + 0.3275911 * z)
    poly = t * (
        0.254829592
        + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429)))
    )
    return sign * (1.0 - poly * np.exp(-z * z))


def _erf(z: float) -> float:
    """Scalar error function (see :func:`_erf_vec`)."""
    return float(_erf_vec(z))


@register
class GaussianAttributeObserver:
    """Per-class Gaussian observer for one numeric feature.

    Parameters
    ----------
    n_split_points:
        Number of candidate thresholds evaluated between the observed minimum
        and maximum of the feature (the VFDT default of 10 is used throughout
        the paper's baselines).
    """

    def __init__(self, n_split_points: int = 10) -> None:
        if n_split_points < 1:
            raise ValueError(
                f"n_split_points must be >= 1, got {n_split_points!r}."
            )
        self.n_split_points = int(n_split_points)
        self._per_class: dict[int, GaussianEstimator] = {}
        self._min_value = np.inf
        self._max_value = -np.inf

    @property
    def total_weight(self) -> float:
        return float(sum(est.weight for est in self._per_class.values()))

    def update(self, value: float, class_idx: int, weight: float = 1.0) -> None:
        estimator = self._per_class.setdefault(int(class_idx), GaussianEstimator())
        estimator.update(float(value), weight)
        self._min_value = min(self._min_value, float(value))
        self._max_value = max(self._max_value, float(value))

    # ----------------------------------------------------- classification
    def _candidate_thresholds(self) -> np.ndarray:
        if not np.isfinite(self._min_value) or self._max_value <= self._min_value:
            return np.array([])
        return np.linspace(self._min_value, self._max_value, self.n_split_points + 2)[
            1:-1
        ]

    def class_dists_below(self, threshold: float, n_classes: int) -> np.ndarray:
        """Estimated class distribution of values at or below ``threshold``."""
        dist = np.zeros(n_classes)
        for class_idx, estimator in self._per_class.items():
            if class_idx < n_classes:
                dist[class_idx] = estimator.weight_below(threshold)
        return dist

    def class_dist(self, n_classes: int) -> np.ndarray:
        dist = np.zeros(n_classes)
        for class_idx, estimator in self._per_class.items():
            if class_idx < n_classes:
                dist[class_idx] = estimator.weight
        return dist

    def best_split_suggestion(
        self,
        criterion: SplitCriterion,
        pre_split: np.ndarray,
        feature: int,
    ) -> SplitSuggestion | None:
        """Best binary threshold split of this feature according to ``criterion``."""
        thresholds = self._candidate_thresholds()
        if thresholds.size == 0:
            return None
        n_classes = len(pre_split)
        observed = self.class_dist(n_classes)
        best: SplitSuggestion | None = None
        for threshold in thresholds:
            left = self.class_dists_below(threshold, n_classes)
            right = np.maximum(observed - left, 0.0)
            merit = criterion.merit(pre_split, [left, right])
            if best is None or merit > best.merit:
                best = SplitSuggestion(
                    feature=feature,
                    threshold=float(threshold),
                    merit=float(merit),
                    children_dists=[left, right],
                )
        return best

    # --------------------------------------------------------- regression
    def target_stats_split(
        self, threshold: float
    ) -> tuple[tuple[float, float, float], tuple[float, float, float]]:
        """(count, sum, sum_sq) of the numeric target left / right of ``threshold``.

        Used by the FIMT-DD classification adaptation, which treats the class
        index as a numeric target: the per-class Gaussian estimators give the
        estimated count of each class on either side of the threshold.
        """
        left = np.zeros(3)
        right = np.zeros(3)
        for class_idx, estimator in self._per_class.items():
            weight_left = estimator.weight_below(threshold)
            weight_right = estimator.weight - weight_left
            left += np.array(
                [weight_left, weight_left * class_idx, weight_left * class_idx**2]
            )
            right += np.array(
                [
                    weight_right,
                    weight_right * class_idx,
                    weight_right * class_idx**2,
                ]
            )
        return tuple(left), tuple(right)

    def best_sdr_suggestion(
        self, criterion: VarianceReductionCriterion, feature: int
    ) -> SplitSuggestion | None:
        """Best threshold according to standard-deviation reduction."""
        thresholds = self._candidate_thresholds()
        if thresholds.size == 0:
            return None
        total = np.zeros(3)
        for class_idx, estimator in self._per_class.items():
            total += np.array(
                [
                    estimator.weight,
                    estimator.weight * class_idx,
                    estimator.weight * class_idx**2,
                ]
            )
        best: SplitSuggestion | None = None
        for threshold in thresholds:
            left, right = self.target_stats_split(threshold)
            merit = criterion.merit(tuple(total), [left, right])
            if best is None or merit > best.merit:
                best = SplitSuggestion(
                    feature=feature, threshold=float(threshold), merit=float(merit)
                )
        return best


@register
class NominalAttributeObserver:
    """Per-value class counts for one nominal feature.

    Emits binary "value == v versus rest" suggestions because the paper
    restricts every tree to binary splits.
    """

    def __init__(self) -> None:
        self._counts: dict[float, dict[int, float]] = {}

    @property
    def total_weight(self) -> float:
        return float(
            sum(sum(class_counts.values()) for class_counts in self._counts.values())
        )

    def update(self, value: float, class_idx: int, weight: float = 1.0) -> None:
        value_counts = self._counts.setdefault(float(value), {})
        value_counts[int(class_idx)] = value_counts.get(int(class_idx), 0.0) + weight

    def class_dist_for_value(self, value: float, n_classes: int) -> np.ndarray:
        dist = np.zeros(n_classes)
        for class_idx, weight in self._counts.get(float(value), {}).items():
            if class_idx < n_classes:
                dist[class_idx] = weight
        return dist

    def best_split_suggestion(
        self,
        criterion: SplitCriterion,
        pre_split: np.ndarray,
        feature: int,
    ) -> SplitSuggestion | None:
        if len(self._counts) < 2:
            return None
        n_classes = len(pre_split)
        observed = np.zeros(n_classes)
        for value in self._counts:
            observed += self.class_dist_for_value(value, n_classes)
        best: SplitSuggestion | None = None
        for value in self._counts:
            left = self.class_dist_for_value(value, n_classes)
            right = np.maximum(observed - left, 0.0)
            merit = criterion.merit(pre_split, [left, right])
            if best is None or merit > best.merit:
                best = SplitSuggestion(
                    feature=feature,
                    threshold=float(value),
                    merit=float(merit),
                    children_dists=[left, right],
                    is_nominal=True,
                )
        return best


@register
class LeafObservers:
    """Structure-of-arrays attribute statistics for one learning leaf.

    Replaces the per-feature dict of observer objects: Gaussian statistics
    live in class-major ``[class][feature]`` lists of Welford
    (weight, mean, M2) triplets, feature ranges in flat min/max lists and
    nominal features in per-value class-count lists.  Lists (not arrays) are
    the working representation because the Welford recurrence is inherently
    sequential per (feature, class) cell: the batch update loops over rows in
    Python but touches every feature of a row with plain float arithmetic,
    which is both faster than per-feature method dispatch and bit-identical
    to the retained scalar reference path.

    Split-point queries materialise numpy arrays on demand:
    :meth:`best_split_suggestions` scores every candidate threshold of every
    feature in one sweep, bit-identical to the legacy per-feature observers'
    suggestions.
    """

    __slots__ = (
        "n_features",
        "n_split_points",
        "nominal_features",
        "n_classes",
        "_weights",
        "_means",
        "_m2",
        "_mins",
        "_maxs",
        "_nominal",
    )

    def __init__(
        self,
        n_features: int,
        n_split_points: int = 10,
        nominal_features: set[int] | None = None,
    ) -> None:
        if n_split_points < 1:
            raise ValueError(
                f"n_split_points must be >= 1, got {n_split_points!r}."
            )
        self.n_features = int(n_features)
        self.n_split_points = int(n_split_points)
        self.nominal_features = set(nominal_features or set())
        self.n_classes = 0
        # Class-major Welford statistics: self._weights[c][f] etc.
        self._weights: list[list[float]] = []
        self._means: list[list[float]] = []
        self._m2: list[list[float]] = []
        self._mins: list[float] = [np.inf] * self.n_features
        self._maxs: list[float] = [-np.inf] * self.n_features
        # feature -> value -> per-class weights (insertion order preserved).
        self._nominal: dict[int, dict[float, list[float]]] = {}

    # ------------------------------------------------------------- growth
    def grow_classes(self, n_classes: int) -> None:
        if n_classes <= self.n_classes:
            return
        for _ in range(self.n_classes, n_classes):
            self._weights.append([0.0] * self.n_features)
            self._means.append([0.0] * self.n_features)
            self._m2.append([0.0] * self.n_features)
        for value_counts in self._nominal.values():
            for counts in value_counts.values():
                counts.extend([0.0] * (n_classes - len(counts)))
        self.n_classes = n_classes

    @property
    def numeric_features(self) -> list[int]:
        return [
            feature
            for feature in range(self.n_features)
            if feature not in self.nominal_features
        ]

    # ------------------------------------------------------------- updates
    def update_row(
        self, values: list[float], y_idx: int, weight: float = 1.0
    ) -> None:
        """Scalar reference update with one observation.

        ``values`` must be plain Python floats (``x.tolist()``); the Welford
        recurrence below performs exactly the operations of
        :meth:`GaussianEstimator.update` per feature.
        """
        y_idx = int(y_idx)
        if y_idx >= self.n_classes:
            self.grow_classes(y_idx + 1)
        mins = self._mins
        maxs = self._maxs
        weights = self._weights[y_idx]
        means = self._means[y_idx]
        m2 = self._m2[y_idx]
        nominal = self.nominal_features
        positive = weight > 0
        if not nominal and positive and weight == 1.0:
            # Hot path: all-numeric leaf with a unit-weight observation.
            for feature, value in enumerate(values):
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
            return
        for feature, value in enumerate(values):
            if feature in nominal:
                value_counts = self._nominal.setdefault(feature, {})
                counts = value_counts.get(value)
                if counts is None:
                    counts = value_counts[value] = [0.0] * self.n_classes
                counts[y_idx] += weight
                continue
            if positive:
                new_weight = weights[feature] + weight
                delta = value - means[feature]
                new_mean = means[feature] + weight * delta / new_weight
                m2[feature] += weight * delta * (value - new_mean)
                means[feature] = new_mean
                weights[feature] = new_weight
            if value < mins[feature]:
                mins[feature] = value
            if value > maxs[feature]:
                maxs[feature] = value

    def update_batch(
        self,
        X: np.ndarray,
        y_idx: np.ndarray,
        y_list: list[int] | None = None,
    ) -> None:
        """Bulk update with a batch of unit-weight observations.

        Bit-identical to calling :meth:`update_row` per row: min/max merges
        are exact, nominal counts are additive, and the per-cell Welford
        recurrences only depend on the within-class subsequence of rows.
        ``y_list`` optionally passes the class indices as a plain list so
        hot callers avoid a second ``tolist`` round trip.
        """
        X = np.asarray(X, dtype=float)
        # The emptiness check runs *before* the 1-D reshape: reshaping an
        # empty 1-D input would produce a bogus (1, 0) "row".
        if X.size == 0:
            return
        if X.ndim == 1:
            X = X.reshape(1, -1)
        if y_list is None:
            y_list = np.asarray(y_idx, dtype=np.intp).tolist()
        self.grow_classes(max(y_list) + 1)

        mins = self._mins
        maxs = self._maxs
        rows_list = X.tolist()
        nominal = self.nominal_features
        weights_by_class = self._weights
        means_by_class = self._means
        m2_by_class = self._m2
        if not nominal and len(rows_list) <= 16:
            # Tiny all-numeric chunks: fold the min/max tracking into the
            # Welford pass (min/max are exact under any evaluation order,
            # so this matches the batched reductions bit-for-bit).
            for row, class_idx in zip(rows_list, y_list):
                weights = weights_by_class[class_idx]
                means = means_by_class[class_idx]
                m2 = m2_by_class[class_idx]
                for feature, value in enumerate(row):
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
            return
        column_mins = X.min(axis=0).tolist()
        column_maxs = X.max(axis=0).tolist()
        for feature in range(self.n_features):
            if feature in nominal:
                # The per-row path tracks no range for nominal features;
                # keep the stored state identical between the two paths.
                continue
            if column_mins[feature] < mins[feature]:
                mins[feature] = column_mins[feature]
            if column_maxs[feature] > maxs[feature]:
                maxs[feature] = column_maxs[feature]

        if not nominal:
            for row, class_idx in zip(rows_list, y_list):
                weights = weights_by_class[class_idx]
                means = means_by_class[class_idx]
                m2 = m2_by_class[class_idx]
                for feature, value in enumerate(row):
                    new_weight = weights[feature] + 1.0
                    delta = value - means[feature]
                    new_mean = means[feature] + delta / new_weight
                    m2[feature] += delta * (value - new_mean)
                    means[feature] = new_mean
                    weights[feature] = new_weight
            return
        numeric = self.numeric_features
        nominal_present = [
            feature for feature in sorted(nominal) if feature < self.n_features
        ]
        for feature in nominal_present:
            self._nominal.setdefault(feature, {})
        for row, class_idx in zip(rows_list, y_list):
            weights = weights_by_class[class_idx]
            means = means_by_class[class_idx]
            m2 = m2_by_class[class_idx]
            for feature in numeric:
                value = row[feature]
                new_weight = weights[feature] + 1.0
                delta = value - means[feature]
                new_mean = means[feature] + delta / new_weight
                m2[feature] += delta * (value - new_mean)
                means[feature] = new_mean
                weights[feature] = new_weight
            for feature in nominal_present:
                value_counts = self._nominal[feature]
                counts = value_counts.get(row[feature])
                if counts is None:
                    counts = value_counts[row[feature]] = [0.0] * self.n_classes
                counts[class_idx] += 1.0
        return

    # ------------------------------------------------- array materialisation
    def _class_stats(self, n_classes: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(weights, means, m2) arrays of shape ``(n_classes, n_features)``.

        Padded (or truncated) to ``n_classes`` rows, mirroring how the legacy
        observers ignored class indices at or beyond the requested size.
        """
        shape = (n_classes, self.n_features)
        weights = np.zeros(shape)
        means = np.zeros(shape)
        m2 = np.zeros(shape)
        known = min(self.n_classes, n_classes)
        if known:
            weights[:known] = self._weights[:known]
            means[:known] = self._means[:known]
            m2[:known] = self._m2[:known]
        return weights, means, m2

    # ------------------------------------------------------- legacy bridges
    @classmethod
    def from_legacy(
        cls,
        n_features: int,
        n_split_points: int,
        nominal_features: set[int] | None,
        legacy: dict,
    ) -> "LeafObservers":
        """Build a store from a pre-refactor dict of observer objects."""
        store = cls(n_features, n_split_points, nominal_features)
        n_classes = 0
        for observer in legacy.values():
            if isinstance(observer, NominalAttributeObserver):
                for counts in observer._counts.values():
                    for class_idx in counts:
                        n_classes = max(n_classes, int(class_idx) + 1)
            else:
                for class_idx in observer._per_class:
                    n_classes = max(n_classes, int(class_idx) + 1)
        store.grow_classes(n_classes)
        for feature, observer in legacy.items():
            feature = int(feature)
            if isinstance(observer, NominalAttributeObserver):
                store.nominal_features.add(feature)
                value_counts: dict[float, list[float]] = {}
                for value, counts in observer._counts.items():
                    row = [0.0] * n_classes
                    for class_idx, weight in counts.items():
                        row[int(class_idx)] = float(weight)
                    value_counts[float(value)] = row
                store._nominal[feature] = value_counts
            else:
                for class_idx, estimator in observer._per_class.items():
                    class_idx = int(class_idx)
                    store._weights[class_idx][feature] = float(estimator.weight)
                    store._means[class_idx][feature] = float(estimator.mean)
                    store._m2[class_idx][feature] = float(estimator._m2)
                store._mins[feature] = float(observer._min_value)
                store._maxs[feature] = float(observer._max_value)
        return store

    # ----------------------------------------------------------- suggestions
    @staticmethod
    def _first_max_indices(merits: np.ndarray) -> np.ndarray:
        """Index of the winning candidate per row, matching the scalar loops.

        The reference loops keep the *first* candidate and only replace it on
        a strictly greater merit, so ties pick the lowest index and a NaN
        merit never beats the incumbent -- including the degenerate case
        where the first candidate itself is NaN.
        """
        masked = np.where(np.isnan(merits), -np.inf, merits)
        best = np.argmax(masked, axis=-1)
        first_nan = np.isnan(merits[..., 0])
        if np.any(first_nan):
            best = np.where(first_nan, 0, best)
        return best

    def _threshold_grid(self, features: np.ndarray) -> np.ndarray:
        """Candidate thresholds of the selected features, shape ``(k, T)``.

        Bit-identical to the per-feature
        ``np.linspace(min, max, n + 2)[1:-1]``: numpy's array-endpoint
        ``linspace`` broadcasts the same arithmetic elementwise.
        """
        mins = np.array(self._mins)[features]
        maxs = np.array(self._maxs)[features]
        return np.linspace(mins, maxs, self.n_split_points + 2, axis=1)[:, 1:-1]

    def _weights_below(
        self, features: np.ndarray, thresholds: np.ndarray, n_classes: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-class weight at or below every candidate threshold.

        Returns ``(observed, below)`` with shapes ``(C, k)`` and
        ``(C, k, T)``; entries replicate ``GaussianEstimator.weight_below``
        elementwise (including the zero-weight and degenerate-std branches).
        """
        weights, means, m2 = self._class_stats(n_classes)
        weights = weights[:, features]
        means = means[:, features]
        m2 = m2[:, features]
        positive = weights > 1.0
        variances = np.where(
            positive,
            np.maximum(m2 / np.where(positive, weights - 1.0, 1.0), 0.0),
            0.0,
        )
        stds = np.sqrt(variances)
        with np.errstate(divide="ignore", invalid="ignore"):
            z = (thresholds[None, :, :] - means[:, :, None]) / (
                stds * np.sqrt(2.0)
            )[:, :, None]
            cdf = 0.5 * (1.0 + _erf_vec(z))
        step = (thresholds[None, :, :] >= means[:, :, None]).astype(float)
        cdf = np.where((stds == 0.0)[:, :, None], step, cdf)
        cdf = np.where((weights == 0.0)[:, :, None], 0.0, cdf)
        below = weights[:, :, None] * cdf
        return weights, below

    def _numeric_sweep_features(self) -> np.ndarray:
        """Features with enough numeric spread to propose thresholds."""
        mins = np.array(self._mins)
        maxs = np.array(self._maxs)
        valid = np.isfinite(mins) & (maxs > mins)
        for feature in self.nominal_features:
            if feature < self.n_features:
                valid[feature] = False
        return np.flatnonzero(valid)

    def _nominal_suggestion(
        self, feature: int, criterion: SplitCriterion, pre_split: np.ndarray
    ) -> SplitSuggestion | None:
        """Vectorized "value == v versus rest" sweep of one nominal feature."""
        value_counts = self._nominal.get(feature)
        if value_counts is None or len(value_counts) < 2:
            return None
        n_classes = len(pre_split)
        dists = np.zeros((len(value_counts), n_classes))
        values = list(value_counts)
        known = min(self.n_classes, n_classes)
        for row, value in enumerate(values):
            dists[row, :known] = value_counts[value][:known]
        # The reference accumulates the observed distribution value by value
        # (in insertion order); replicate the same addition order.
        observed = np.zeros(n_classes)
        for row in range(len(values)):
            observed = observed + dists[row]
        rights = np.maximum(observed[None, :] - dists, 0.0)
        merits = criterion.merit_sweep(pre_split, dists, rights)
        best = int(self._first_max_indices(merits[None, :])[0])
        return SplitSuggestion(
            feature=feature,
            threshold=float(values[best]),
            merit=float(merits[best]),
            children_dists=[dists[best].copy(), rights[best].copy()],
            is_nominal=True,
        )

    def best_split_suggestions(
        self, criterion: SplitCriterion, pre_split: np.ndarray
    ) -> list[SplitSuggestion]:
        """Best suggestion per feature, in feature order."""
        pre_split = np.asarray(pre_split, dtype=float)
        n_classes = len(pre_split)
        features = self._numeric_sweep_features()
        numeric: dict[int, SplitSuggestion] = {}
        if len(features):
            thresholds = self._threshold_grid(features)
            observed, below = self._weights_below(features, thresholds, n_classes)
            rights = np.maximum(observed[:, :, None] - below, 0.0)
            k, n_thresholds = thresholds.shape
            merits = criterion.merit_sweep(
                pre_split,
                below.transpose(1, 2, 0).reshape(k * n_thresholds, n_classes),
                rights.transpose(1, 2, 0).reshape(k * n_thresholds, n_classes),
            ).reshape(k, n_thresholds)
            best = self._first_max_indices(merits)
            for rank, feature in enumerate(features.tolist()):
                index = int(best[rank])
                numeric[feature] = SplitSuggestion(
                    feature=feature,
                    threshold=float(thresholds[rank, index]),
                    merit=float(merits[rank, index]),
                    children_dists=[
                        below[:, rank, index].copy(),
                        rights[:, rank, index].copy(),
                    ],
                )
        suggestions = []
        for feature in range(self.n_features):
            if feature in self.nominal_features:
                suggestion = self._nominal_suggestion(feature, criterion, pre_split)
            else:
                suggestion = numeric.get(feature)
            if suggestion is not None:
                suggestions.append(suggestion)
        return suggestions

    def best_sdr_suggestions(
        self, criterion: VarianceReductionCriterion
    ) -> list[SplitSuggestion]:
        """Best SDR suggestion per numeric feature (the FIMT-DD criterion)."""
        features = self._numeric_sweep_features()
        if not len(features):
            return []
        n_classes = max(self.n_classes, 1)
        thresholds = self._threshold_grid(features)
        observed, below = self._weights_below(features, thresholds, n_classes)
        k, n_thresholds = thresholds.shape
        # Accumulate (count, sum, sum_sq) of the class-index target exactly
        # like the reference: one vector addition per class, in index order.
        left = np.zeros((3, k, n_thresholds))
        right = np.zeros((3, k, n_thresholds))
        total = np.zeros((3, k))
        for class_idx in range(n_classes):
            weight_left = below[class_idx]
            weight_right = observed[class_idx][:, None] - weight_left
            left[0] += weight_left
            left[1] += weight_left * class_idx
            left[2] += weight_left * class_idx**2
            right[0] += weight_right
            right[1] += weight_right * class_idx
            right[2] += weight_right * class_idx**2
            total[0] += observed[class_idx]
            total[1] += observed[class_idx] * class_idx
            total[2] += observed[class_idx] * class_idx**2
        suggestions = []
        for rank, feature in enumerate(features.tolist()):
            merits = criterion.merit_sweep(
                total[:, rank],
                left[:, rank, :].T,
                right[:, rank, :].T,
            )
            index = int(self._first_max_indices(merits[None, :])[0])
            suggestions.append(
                SplitSuggestion(
                    feature=feature,
                    threshold=float(thresholds[rank, index]),
                    merit=float(merits[index]),
                )
            )
        return suggestions
