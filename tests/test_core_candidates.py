"""Tests for split-candidate statistics and the bounded candidate store."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.candidates import (
    CandidateManager,
    CandidateStatistics,
    _AdmissionBound,
    augment_batch,
    candidate_gain_sweep,
)
from tests.conftest import make_glm_batch


def _make_batch(n=40, n_features=3, seed=0, n_classes=2):
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(n, n_features))
    per_sample_loss = rng.uniform(0.1, 1.0, size=n)
    per_sample_gradient = rng.normal(size=(n, 5))
    return X, per_sample_loss, per_sample_gradient


class TestCandidateStatistics:
    def test_add_accumulates(self):
        candidate = CandidateStatistics(feature=0, threshold=0.5)
        candidate.add(1.0, np.array([1.0, 2.0]), 3)
        candidate.add(2.0, np.array([0.5, 0.5]), 2)
        assert candidate.loss == pytest.approx(3.0)
        np.testing.assert_allclose(candidate.gradient, [1.5, 2.5])
        assert candidate.count == 5

    def test_gain_uses_right_child_complement(self):
        """Right-child statistics are parent minus left (Algorithm 1 note)."""
        candidate = CandidateStatistics(feature=0, threshold=0.5)
        candidate.add(2.0, np.array([1.0, 0.0]), 5)
        node_loss, node_grad, node_count = 6.0, np.array([1.0, 3.0]), 12
        gain = candidate.gain(node_loss, node_grad, node_count, learning_rate=0.0)
        # With lr = 0 the approximation keeps the raw losses: left = 2, right = 4.
        assert gain == pytest.approx(6.0 - 2.0 - 4.0)

    def test_gain_with_gradient_is_larger(self):
        candidate = CandidateStatistics(feature=0, threshold=0.5)
        candidate.add(2.0, np.array([2.0, 0.0]), 5)
        base = candidate.gain(6.0, np.array([2.0, 2.0]), 12, learning_rate=0.0)
        improved = candidate.gain(6.0, np.array([2.0, 2.0]), 12, learning_rate=0.1)
        assert improved >= base

    def test_gain_against_reference_loss(self):
        candidate = CandidateStatistics(feature=0, threshold=0.5)
        candidate.add(2.0, np.zeros(2), 5)
        gain = candidate.gain(
            6.0, np.zeros(2), 12, learning_rate=0.0, reference_loss=20.0
        )
        assert gain == pytest.approx(20.0 - 2.0 - 4.0)


class TestCandidateManagerBounds:
    def test_invalid_arguments_raise(self):
        with pytest.raises(ValueError):
            CandidateManager(n_features=0)
        with pytest.raises(ValueError):
            CandidateManager(n_features=2, replacement_rate=1.5)
        with pytest.raises(ValueError):
            CandidateManager(n_features=2, max_values_per_feature=0)
        with pytest.raises(ValueError):
            CandidateManager(n_features=2, max_candidates=0)

    def test_default_capacity_is_three_per_feature(self):
        manager = CandidateManager(n_features=7)
        assert manager.max_candidates == 21

    def test_capacity_is_never_exceeded(self):
        manager = CandidateManager(n_features=3, max_candidates=5)
        for seed in range(10):
            X, loss, grad = _make_batch(seed=seed)
            manager.update_stored(X, loss, grad)
            manager.consider_new(
                X, loss, grad,
                node_loss=loss.sum(), node_gradient=grad.sum(axis=0),
                node_count=len(loss), learning_rate=0.05,
            )
            assert len(manager) <= 5

    def test_proposals_are_capped_per_feature(self):
        manager = CandidateManager(n_features=2, max_values_per_feature=4)
        X = np.random.default_rng(0).uniform(size=(500, 2))
        proposals = manager.propose_thresholds(X)
        assert all(len(values) <= 4 for values in proposals.values())

    def test_uninformative_candidates_are_skipped(self):
        """Thresholds that send the whole batch to one side are not stored."""
        manager = CandidateManager(n_features=1, max_candidates=10)
        X = np.full((20, 1), 0.5)
        loss = np.ones(20)
        grad = np.ones((20, 3))
        manager.consider_new(
            X, loss, grad, node_loss=20.0, node_gradient=grad.sum(axis=0),
            node_count=20, learning_rate=0.05,
        )
        assert len(manager) == 0

    def test_replacement_budget_limits_turnover(self):
        manager = CandidateManager(
            n_features=3, max_candidates=6, replacement_rate=0.5
        )
        X, loss, grad = _make_batch(seed=1)
        manager.consider_new(
            X, loss, grad, node_loss=loss.sum(), node_gradient=grad.sum(axis=0),
            node_count=len(loss), learning_rate=0.05,
        )
        before_keys = set(candidate.key for candidate in manager.candidates)
        X2, loss2, grad2 = _make_batch(seed=99)
        manager.update_stored(X2, loss2, grad2)
        manager.consider_new(
            X2, loss2, grad2, node_loss=loss2.sum(), node_gradient=grad2.sum(axis=0),
            node_count=len(loss2), learning_rate=0.05,
        )
        after_keys = set(candidate.key for candidate in manager.candidates)
        replaced = len(before_keys - after_keys)
        assert replaced <= int(0.5 * 6)

    def test_low_gain_newcomers_do_not_evict_high_gain_candidates(self):
        """Regression: a full store must not be churned by weak newcomers.

        ``consider_new`` used to replace the weakest stored candidates
        unconditionally, so a batch of near-zero-gain newcomers evicted
        stored candidates with large accumulated gains whenever the store
        was full (Section V-D semantics).  A newcomer must now beat the
        evictee's stored gain.
        """
        manager = CandidateManager(
            n_features=1, max_candidates=4, replacement_rate=1.0
        )
        rng = np.random.default_rng(0)
        # Informative first batch: large per-sample losses and gradients give
        # the admitted candidates a solidly positive accumulated gain.
        X = rng.uniform(size=(60, 1))
        loss = rng.uniform(5.0, 10.0, size=60)
        grad = rng.normal(size=(60, 3)) * 5.0
        node_loss = float(loss.sum())
        node_grad = grad.sum(axis=0)
        manager.consider_new(
            X, loss, grad, node_loss=node_loss, node_gradient=node_grad,
            node_count=60.0, learning_rate=0.05,
        )
        assert len(manager) == 4
        stored_keys = {candidate.key for candidate in manager.candidates}
        stored_gains = [
            candidate.gain(node_loss, node_grad, 60.0, learning_rate=0.05)
            for candidate in manager.candidates
        ]
        assert min(stored_gains) > 0.0

        # Newcomer batch at unseen thresholds with ~zero loss and gradient:
        # its batch gains are ~zero, far below every stored gain.
        X_new = rng.uniform(10.0, 11.0, size=(60, 1))
        loss_new = np.full(60, 1e-9)
        grad_new = np.full((60, 3), 1e-9)
        manager.update_stored(X_new, loss_new, grad_new)
        manager.consider_new(
            X_new, loss_new, grad_new,
            node_loss=node_loss + float(loss_new.sum()),
            node_gradient=node_grad + grad_new.sum(axis=0),
            node_count=120.0, learning_rate=0.05,
        )
        assert {candidate.key for candidate in manager.candidates} == stored_keys

    def test_strong_newcomers_still_evict_weak_candidates(self):
        """The replacement budget still admits genuinely better newcomers."""
        manager = CandidateManager(
            n_features=1, max_candidates=4, replacement_rate=1.0
        )
        rng = np.random.default_rng(1)
        # Weak first batch: near-zero losses/gradients -> near-zero gains.
        X = rng.uniform(size=(40, 1))
        loss = np.full(40, 1e-9)
        grad = np.full((40, 3), 1e-9)
        manager.consider_new(
            X, loss, grad, node_loss=float(loss.sum()),
            node_gradient=grad.sum(axis=0), node_count=40.0, learning_rate=0.05,
        )
        assert len(manager) == 4
        weak_keys = {candidate.key for candidate in manager.candidates}

        X_new = rng.uniform(10.0, 11.0, size=(40, 1))
        loss_new = rng.uniform(5.0, 10.0, size=40)
        grad_new = rng.normal(size=(40, 3)) * 5.0
        manager.update_stored(X_new, loss_new, grad_new)
        manager.consider_new(
            X_new, loss_new, grad_new,
            node_loss=float(loss.sum() + loss_new.sum()),
            node_gradient=grad.sum(axis=0) + grad_new.sum(axis=0),
            node_count=80.0, learning_rate=0.05,
        )
        assert {candidate.key for candidate in manager.candidates} != weak_keys

    def test_clear_empties_store(self):
        manager = CandidateManager(n_features=3)
        X, loss, grad = _make_batch()
        manager.consider_new(
            X, loss, grad, node_loss=loss.sum(), node_gradient=grad.sum(axis=0),
            node_count=len(loss), learning_rate=0.05,
        )
        assert len(manager) > 0
        manager.clear()
        assert len(manager) == 0


class TestCandidateManagerQueries:
    def test_best_candidate_returns_highest_gain(self):
        manager = CandidateManager(n_features=2, max_candidates=10)
        X, loss, grad = _make_batch(seed=3)
        manager.consider_new(
            X, loss, grad, node_loss=loss.sum(), node_gradient=grad.sum(axis=0),
            node_count=len(loss), learning_rate=0.05,
        )
        best, best_gain = manager.best_candidate(
            node_loss=loss.sum(), node_gradient=grad.sum(axis=0),
            node_count=len(loss), learning_rate=0.05,
        )
        assert best is not None
        for candidate in manager.candidates:
            gain = candidate.gain(
                loss.sum(), grad.sum(axis=0), len(loss), learning_rate=0.05
            )
            assert gain <= best_gain + 1e-12

    def test_best_candidate_respects_exclusion(self):
        manager = CandidateManager(n_features=2, max_candidates=10)
        X, loss, grad = _make_batch(seed=3)
        manager.consider_new(
            X, loss, grad, node_loss=loss.sum(), node_gradient=grad.sum(axis=0),
            node_count=len(loss), learning_rate=0.05,
        )
        best, _ = manager.best_candidate(
            node_loss=loss.sum(), node_gradient=grad.sum(axis=0),
            node_count=len(loss), learning_rate=0.05,
        )
        second, _ = manager.best_candidate(
            node_loss=loss.sum(), node_gradient=grad.sum(axis=0),
            node_count=len(loss), learning_rate=0.05, exclude=best.key,
        )
        if second is not None:
            assert second.key != best.key

    def test_empty_manager_returns_none(self):
        manager = CandidateManager(n_features=2)
        best, gain = manager.best_candidate(1.0, np.zeros(2), 1, 0.05)
        assert best is None
        assert gain == -np.inf

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_left_count_never_exceeds_node_count_property(self, seed):
        """Candidate (left-partition) counts can never exceed the number of
        observations accumulated through the manager."""
        manager = CandidateManager(n_features=2, max_candidates=8)
        total = 0
        for batch_seed in (seed, seed + 1):
            X, loss, grad = _make_batch(n=30, n_features=2, seed=batch_seed)
            manager.update_stored(X, loss, grad)
            manager.consider_new(
                X, loss, grad, node_loss=loss.sum(), node_gradient=grad.sum(axis=0),
                node_count=30, learning_rate=0.05,
            )
            total += 30
        for candidate in manager.candidates:
            assert candidate.count <= total


_FRESH_BATCHES = dict(
    seed=st.integers(0, 100_000),
    n_rows=st.sampled_from([2, 2, 2, 3, 4, 7, 40, 125]),
    n_classes=st.integers(2, 25),
    learning_rate=st.sampled_from([1e-3, 0.05, 1.0]),
    gaussian=st.booleans(),
)


def _fresh_batch(seed, n_rows, n_classes, learning_rate, gaussian):
    """A batch's exact fresh gains, its admission bound and the inputs of
    its per-candidate stages (float left masks, counts, augmented batch)."""
    rng = np.random.default_rng(seed)
    X, loss, grad = make_glm_batch(rng, n_rows, n_classes)
    if gaussian:
        grad = rng.normal(size=grad.shape)
    augmented = augment_batch(loss, grad)
    manager = CandidateManager(n_features=3, max_values_per_feature=n_rows)
    features, thresholds, losses, gradients, counts = manager._propose_fresh(
        X, augmented
    )
    batch_loss = float(loss.sum())
    batch_gradient = grad.sum(axis=0)
    gains = candidate_gain_sweep(
        losses, gradients, counts, batch_loss, batch_gradient,
        float(n_rows), learning_rate, assume_counts_positive=True,
    )
    bound = _AdmissionBound(loss, grad, batch_loss, batch_gradient, learning_rate)
    assert bound.certified
    # Every batch proposes its smallest value: a single-row left side.
    assert (counts == 1).any()
    masks = (X[:, features] <= thresholds).astype(float)
    return gains, bound, masks, counts, augmented


class TestAdmissionBound:
    """Every stage of the admission bound holds for every fresh gain."""

    @settings(max_examples=200, deadline=None)
    @given(**_FRESH_BATCHES)
    def test_bounds_dominate_fresh_gains(self, **batch):
        """Two-row batches make Cauchy–Schwarz an equality: with a small
        learning rate the gain equals the bound in exact arithmetic and only
        the rounding margin keeps the bound above it."""
        gains, bound, masks, counts, _ = _fresh_batch(**batch)
        assert np.all(gains <= bound.batch_bound)
        assert np.all(gains <= bound.candidate_bounds(masks, counts))

    @settings(max_examples=200, deadline=None)
    @given(**_FRESH_BATCHES)
    def test_screen_intervals_contain_fresh_gains(self, **batch):
        """The stage-3 interval around the gain swept from BLAS sums holds
        the gain swept from the einsum sums."""
        gains, bound, masks, counts, augmented = _fresh_batch(**batch)
        lower, upper = bound.gain_intervals(masks, counts, augmented)
        assert np.all(lower <= gains)
        assert np.all(gains <= upper)

    def test_overflowing_batch_is_not_certified(self):
        X, loss, grad = make_glm_batch(
            np.random.default_rng(3), 40, 3, scale=1e150
        )
        with np.errstate(over="ignore"):
            bound = _AdmissionBound(
                loss, grad, float(loss.sum()), grad.sum(axis=0), 0.05
            )
        assert not bound.certified
