"""Split criteria for incremental decision trees.

The Hoeffding-tree baselines use heuristic purity measures -- information
gain or the Gini index -- while FIMT-DD uses standard-deviation reduction of
a numeric target.  The Dynamic Model Tree uses none of these: its splits are
driven by loss-based gains (see :mod:`repro.core.gains`).

Every criterion exposes two equivalent entry points: the scalar
:meth:`SplitCriterion.merit` of one candidate split and a
:meth:`SplitCriterion.merit_sweep` that scores a whole ``(k, n_classes)``
stack of candidate children at once.  The sweep is bit-identical to calling
``merit`` per row: the entropy/Gini terms are computed with the same
elementwise operations and the class-axis reductions use the same pairwise
summation numpy applies to a single 1-D distribution.  To keep that true,
``_entropy`` masks zero-probability classes in place (an exact ``0.0`` term)
instead of compressing them out, so the scalar and row-wise reductions run
over arrays of identical length.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.persistence.registry import register


class SplitCriterion(ABC):
    """Interface of class-distribution-based split criteria."""

    @abstractmethod
    def merit(self, pre_split: np.ndarray, post_split: list[np.ndarray]) -> float:
        """Quality of a split from the parent distribution to child distributions."""

    @abstractmethod
    def merit_range(self, pre_split: np.ndarray) -> float:
        """Range of the merit, used inside the Hoeffding bound."""

    @abstractmethod
    def merit_sweep(
        self, pre_split: np.ndarray, lefts: np.ndarray, rights: np.ndarray
    ) -> np.ndarray:
        """Merits of ``k`` binary candidates, bit-identical to ``merit`` per row.

        ``lefts`` / ``rights`` are ``(k, n_classes)`` stacks of the candidate
        children distributions.
        """


def _entropy(distribution: np.ndarray) -> float:
    total = distribution.sum()
    if total <= 0:
        return 0.0
    probabilities = distribution / total
    logs = np.log2(np.where(probabilities > 0, probabilities, 1.0))
    return float(-np.sum(probabilities * logs))


def _entropy_rows(dists: np.ndarray) -> np.ndarray:
    """Entropy of every row of ``dists``, bit-identical to ``_entropy`` per row."""
    totals = dists.sum(axis=1)
    safe_totals = np.where(totals > 0, totals, 1.0)
    probabilities = dists / safe_totals[:, None]
    logs = np.log2(np.where(probabilities > 0, probabilities, 1.0))
    entropies = -np.sum(probabilities * logs, axis=1)
    return np.where(totals > 0, entropies, 0.0)


def _gini(distribution: np.ndarray) -> float:
    total = distribution.sum()
    if total <= 0:
        return 0.0
    probabilities = distribution / total
    return float(1.0 - np.sum(probabilities**2))


def _gini_rows(dists: np.ndarray) -> np.ndarray:
    """Gini impurity of every row, bit-identical to ``_gini`` per row."""
    totals = dists.sum(axis=1)
    safe_totals = np.where(totals > 0, totals, 1.0)
    probabilities = dists / safe_totals[:, None]
    ginis = 1.0 - np.sum(probabilities**2, axis=1)
    return np.where(totals > 0, ginis, 0.0)


@register
class InfoGainCriterion(SplitCriterion):
    """Information gain: entropy reduction from parent to children.

    Parameters
    ----------
    min_branch_fraction:
        Minimum fraction of the parent's weight that each child must receive
        for the split to be considered valid (VFDT uses 0.01 by default);
        splits that fail the check get merit ``-inf``.
    """

    def __init__(self, min_branch_fraction: float = 0.01) -> None:
        if not 0.0 <= min_branch_fraction < 0.5:
            raise ValueError(
                "min_branch_fraction must be in [0, 0.5), "
                f"got {min_branch_fraction!r}."
            )
        self.min_branch_fraction = float(min_branch_fraction)

    def merit(self, pre_split: np.ndarray, post_split: list[np.ndarray]) -> float:
        pre_split = np.asarray(pre_split, dtype=float)
        total = pre_split.sum()
        if total <= 0:
            return 0.0
        child_totals = np.array([child.sum() for child in post_split], dtype=float)
        populated = child_totals > self.min_branch_fraction * total
        if populated.sum() < 2:
            return -np.inf
        weighted_child_entropy = sum(
            (child_total / total) * _entropy(np.asarray(child, dtype=float))
            for child, child_total in zip(post_split, child_totals)
        )
        return _entropy(pre_split) - weighted_child_entropy

    def merit_range(self, pre_split: np.ndarray) -> float:
        n_classes = int(np.count_nonzero(np.asarray(pre_split) > 0))
        return float(np.log2(max(n_classes, 2)))

    def merit_sweep(
        self, pre_split: np.ndarray, lefts: np.ndarray, rights: np.ndarray
    ) -> np.ndarray:
        pre_split = np.asarray(pre_split, dtype=float)
        total = pre_split.sum()
        if len(lefts) == 0:
            return np.zeros(0)
        if total <= 0:
            return np.zeros(len(lefts))
        left_totals = lefts.sum(axis=1)
        right_totals = rights.sum(axis=1)
        minimum = self.min_branch_fraction * total
        populated = (left_totals > minimum).astype(np.intp) + (
            right_totals > minimum
        )
        weighted_child_entropy = (left_totals / total) * _entropy_rows(lefts) + (
            right_totals / total
        ) * _entropy_rows(rights)
        merits = _entropy(pre_split) - weighted_child_entropy
        return np.where(populated >= 2, merits, -np.inf)


@register
class GiniCriterion(SplitCriterion):
    """Gini impurity reduction (normalised to [0, 1])."""

    def merit(self, pre_split: np.ndarray, post_split: list[np.ndarray]) -> float:
        pre_split = np.asarray(pre_split, dtype=float)
        total = pre_split.sum()
        if total <= 0:
            return 0.0
        child_totals = np.array([child.sum() for child in post_split], dtype=float)
        if np.count_nonzero(child_totals) < 2:
            return -np.inf
        weighted_child_gini = sum(
            (child_total / total) * _gini(np.asarray(child, dtype=float))
            for child, child_total in zip(post_split, child_totals)
        )
        return _gini(pre_split) - weighted_child_gini

    def merit_range(self, pre_split: np.ndarray) -> float:
        return 1.0

    def merit_sweep(
        self, pre_split: np.ndarray, lefts: np.ndarray, rights: np.ndarray
    ) -> np.ndarray:
        pre_split = np.asarray(pre_split, dtype=float)
        total = pre_split.sum()
        if len(lefts) == 0:
            return np.zeros(0)
        if total <= 0:
            return np.zeros(len(lefts))
        left_totals = lefts.sum(axis=1)
        right_totals = rights.sum(axis=1)
        populated = (left_totals != 0).astype(np.intp) + (right_totals != 0)
        weighted_child_gini = (left_totals / total) * _gini_rows(lefts) + (
            right_totals / total
        ) * _gini_rows(rights)
        merits = _gini(pre_split) - weighted_child_gini
        return np.where(populated >= 2, merits, -np.inf)


@register
class VarianceReductionCriterion:
    """Standard-deviation reduction (SDR) over a numeric target.

    FIMT-DD selects the split that maximally reduces the standard deviation
    of the target variable.  Statistics are triplets ``(count, sum, sum_sq)``.
    """

    @staticmethod
    def std(stats: tuple[float, float, float]) -> float:
        count, total, total_sq = stats
        if count <= 1:
            return 0.0
        # mean * mean, not mean ** 2: scalar ``**`` routes through libm pow,
        # whose last ulp can differ from the exact product numpy's array
        # power uses -- and the scalar/sweep paths must agree bitwise.
        mean = total / count
        variance = max(total_sq / count - mean * mean, 0.0)
        return float(np.sqrt(variance))

    def merit(
        self,
        pre_split: tuple[float, float, float],
        post_split: list[tuple[float, float, float]],
    ) -> float:
        count = pre_split[0]
        if count <= 0:
            return 0.0
        child_counts = [child[0] for child in post_split]
        if sum(1 for child_count in child_counts if child_count > 0) < 2:
            return -np.inf
        weighted_child_std = sum(
            (child[0] / count) * self.std(child) for child in post_split
        )
        return self.std(pre_split) - weighted_child_std

    def merit_range(self, pre_split: tuple[float, float, float]) -> float:
        # FIMT-DD applies the Hoeffding bound to the *ratio* of SDR values,
        # which lies in [0, 1].
        return 1.0

    @staticmethod
    def _std_rows(stats: np.ndarray) -> np.ndarray:
        """Standard deviation of every ``(count, sum, sum_sq)`` row."""
        counts = stats[:, 0]
        safe_counts = np.where(counts > 1, counts, 1.0)
        means = stats[:, 1] / safe_counts
        variances = np.maximum(stats[:, 2] / safe_counts - means * means, 0.0)
        return np.where(counts > 1, np.sqrt(variances), 0.0)

    def merit_sweep(
        self, pre_split: np.ndarray, lefts: np.ndarray, rights: np.ndarray
    ) -> np.ndarray:
        """Merits of ``(k, 3)`` stacks of left/right target statistics."""
        pre_split = np.asarray(pre_split, dtype=float)
        count = pre_split[0]
        if len(lefts) == 0:
            return np.zeros(0)
        if count <= 0:
            return np.zeros(len(lefts))
        populated = (lefts[:, 0] > 0).astype(np.intp) + (rights[:, 0] > 0)
        weighted_child_std = (lefts[:, 0] / count) * self._std_rows(lefts) + (
            rights[:, 0] / count
        ) * self._std_rows(rights)
        merits = self.std(tuple(pre_split)) - weighted_child_std
        return np.where(populated >= 2, merits, -np.inf)
