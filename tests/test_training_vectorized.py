"""Property tests: the vectorized DMT training hot path is bit-identical to
the per-row / per-candidate reference implementations in ``tests/oracles.py``.

Three layers are compared across random batch schedules (including
single-row and constant-feature batches), binary and multiclass:

* ``CandidateManager`` batch accumulation + admission (vs the per-candidate
  loops of ``ReferenceCandidateManager``),
* the ``candidate_gain_sweep`` against ``CandidateStatistics.gain``,
* ``IncrementalGLM.fit_incremental`` (vs one ``update`` per row),
* the full ``DynamicModelTree`` training loop, including the prequential
  ``deterministic_summary()``, on trees that stay a leaf and on trees that
  grow inner nodes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DynamicModelTree
from repro.core.candidates import (
    CandidateManager,
    CandidateStatistics,
    _AdmissionBound,
    candidate_gain_sweep,
)
from repro.core.nodes import DMTNode
from repro.evaluation.prequential import PrequentialEvaluator
from repro.linear.glm import IncrementalGLM
from repro.streams.synthetic import SEAGenerator
from tests.conftest import (
    batch_schedule,
    make_glm_batch,
    make_multiclass_blobs,
    make_xor,
)
from tests.oracles import (
    ReferenceCandidateManager,
    ReferenceDMTNode,
    ReferenceDynamicModelTree,
    ReferenceGLM,
)


def _random_batches(
    seed, total=300, n_features=3, n_params=5, constant_feature=False,
    discrete=False,
):
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(total, n_features))
    if discrete:
        # Repeated values: later batches hit stored thresholds exactly.
        X = np.round(X * 8.0) / 8.0
    if constant_feature:
        X[:, 0] = 0.5
    loss = rng.uniform(0.05, 2.0, size=total)
    grad = rng.normal(size=(total, n_params))
    batches = []
    start = 0
    for size in batch_schedule(rng, total):
        batches.append(
            (X[start : start + size], loss[start : start + size], grad[start : start + size])
        )
        start += size
    return batches


def _manager_state(manager):
    return (
        manager._features.copy(),
        manager._thresholds.copy(),
        manager._losses.copy(),
        manager._gradients.copy(),
        manager._counts.copy(),
    )


def _assert_managers_identical(fast, slow):
    for fast_field, slow_field in zip(_manager_state(fast), _manager_state(slow)):
        np.testing.assert_array_equal(fast_field, slow_field)
    assert fast._key_index == slow._key_index


class TestCandidateManagerEquivalence:
    """Vectorized store vs the per-candidate oracle, batch by batch.

    Only the vectorized store prunes fresh candidates with the admission
    bound, so these cases fail if pruning ever changes an admission, an
    eviction or ``best_candidate``.
    """

    @staticmethod
    def _assert_paths_agree(fast, slow, batches, learning_rate=0.05):
        width = batches[0][2].shape[1]
        node_loss, node_count, node_grad = 0.0, 0.0, np.zeros(width)
        for X, loss, grad in batches:
            with np.errstate(all="ignore"):
                node_loss += float(loss.sum())
                node_grad = node_grad + grad.sum(axis=0)
                node_count += float(len(loss))
                for manager in (fast, slow):
                    manager.update_stored(X, loss, grad)
                    manager.consider_new(
                        X, loss, grad,
                        node_loss=node_loss, node_gradient=node_grad,
                        node_count=node_count, learning_rate=learning_rate,
                    )
                best_fast = fast.best_candidate(
                    node_loss, node_grad, node_count, learning_rate
                )
                best_slow = slow.best_candidate(
                    node_loss, node_grad, node_count, learning_rate
                )
            _assert_managers_identical(fast, slow)
            assert (best_fast[0] is None) == (best_slow[0] is None)
            if best_fast[0] is not None:
                assert best_fast[0].key == best_slow[0].key
                assert best_fast[1] == best_slow[1]

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        constant=st.booleans(),
        discrete=st.booleans(),
    )
    def test_accumulation_and_admission_bit_identical(
        self, seed, constant, discrete
    ):
        fast = CandidateManager(n_features=3, max_candidates=7)
        slow = ReferenceCandidateManager(n_features=3, max_candidates=7)
        self._assert_paths_agree(
            fast, slow,
            _random_batches(seed, constant_feature=constant, discrete=discrete),
        )

    def test_single_row_batches_bit_identical(self):
        fast = CandidateManager(n_features=2, max_candidates=4)
        slow = ReferenceCandidateManager(n_features=2, max_candidates=4)
        rng = np.random.default_rng(11)
        batches = [
            (
                rng.uniform(size=(1, 2)),
                rng.uniform(0.1, 1.0, size=1),
                rng.normal(size=(1, 3)),
            )
            for _ in range(40)
        ]
        self._assert_paths_agree(fast, slow, batches)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        replacement_rate=st.sampled_from([0.0, 0.5, 1.0]),
        max_candidates=st.integers(1, 6),
        n_classes=st.integers(2, 25),
        two_row=st.booleans(),
        scales=st.lists(
            st.sampled_from([1.0, 1.0, 1.0, 1e150, 1e300]),
            min_size=3, max_size=12,
        ),
        learning_rate=st.sampled_from([1e-3, 0.05, 1.0]),
    )
    def test_pruned_admission_bit_identical(
        self, seed, replacement_rate, max_candidates, n_classes, two_row,
        scales, learning_rate,
    ):
        """Full stores under every replacement rate, GLM widths and overflow."""
        rng = np.random.default_rng(seed)
        batches = [
            make_glm_batch(
                rng, 2 if two_row else int(rng.integers(1, 40)), n_classes,
                scale,
            )
            for scale in scales
        ]
        managers = [
            manager_class(
                n_features=3, max_candidates=max_candidates,
                replacement_rate=replacement_rate,
            )
            for manager_class in (CandidateManager, ReferenceCandidateManager)
        ]
        self._assert_paths_agree(*managers, batches, learning_rate)

    def test_screened_admission_bit_identical(self, monkeypatch):
        """Full stores whose einsum lies above the stage-3 work threshold:
        6-8 features and 10-25 classes on 100-125-row batches.  A recording
        wrapper checks that the screen ran and that its rank rule dropped
        candidates the weakest stored gain alone would keep."""
        seen = {"screens": 0, "rank_drops": 0}
        screen = _AdmissionBound.screen

        def recording_screen(bound, masks, counts, augmented, rivals):
            keep = screen(bound, masks, counts, augmented, rivals)
            _, upper = bound.gain_intervals(masks, counts, augmented)
            seen["screens"] += 1
            seen["rank_drops"] += int(np.sum(~keep & (upper > rivals[0])))
            return keep

        monkeypatch.setattr(_AdmissionBound, "screen", recording_screen)

        @settings(max_examples=30, deadline=None)
        @given(
            seed=st.integers(0, 10_000),
            replacement_rate=st.sampled_from([0.25, 0.5, 1.0]),
            n_features=st.integers(6, 8),
            max_candidates=st.integers(24, 40),
            n_classes=st.integers(10, 25),
            scaled=st.integers(1, 5),
        )
        def run(
            seed, replacement_rate, n_features, max_candidates, n_classes,
            scaled,
        ):
            rng = np.random.default_rng(seed)
            batches = [
                make_glm_batch(
                    rng, int(rng.integers(100, 126)), n_classes,
                    1e300 if index == scaled else 1.0, n_features,
                )
                for index in range(6)
            ]
            managers = [
                manager_class(
                    n_features=n_features, max_candidates=max_candidates,
                    replacement_rate=replacement_rate,
                )
                for manager_class in (
                    CandidateManager, ReferenceCandidateManager
                )
            ]
            self._assert_paths_agree(*managers, batches)

        run()
        assert seen["screens"] > 0
        assert seen["rank_drops"] > 0

    def test_nan_stored_gain_disables_pruning(self):
        """A newcomer paired with a NaN stored gain is admitted whatever its
        own gain, so nothing may be pruned while a stored gain is NaN.

        The first batch stores ``(0, 0.0)``, whose gradient sum overflows to
        inf like the node gradient's, and ``(1, 0.0)``.  At the second batch
        their gains are NaN and 0.1.  There ``(0, 0.2)`` beats 0.1, and the
        runner-up's stage-2 bound (1/15) is below 0.1, yet the runner-up
        takes the NaN candidate's slot.
        """
        batches = [
            (
                np.array([[0.0, 1.0], [0.0, 1.0], [1.0, 0.0]]),
                np.array([0.05, 0.05, 1.0]),
                np.array([[1e308], [1e308], [0.0]]),
            ),
            (
                np.array([[0.1, -1.0], [0.2, -1.0], [0.3, -1.0], [0.4, -1.0]]),
                np.ones(4),
                np.array([[1.0], [1.0], [-1.0], [-1.0]]),
            ),
        ]
        fast, slow = (
            manager_class(n_features=2, max_candidates=2, replacement_rate=1.0)
            for manager_class in (CandidateManager, ReferenceCandidateManager)
        )
        self._assert_paths_agree(fast, slow, batches)
        assert list(fast._key_index) == [(0, 0.2), (0, 0.3)]


class TestGainSweepEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_sweep_matches_scalar_gain(self, seed):
        rng = np.random.default_rng(seed)
        k, p = int(rng.integers(1, 12)), int(rng.integers(2, 20))
        losses = rng.uniform(0.0, 10.0, size=k)
        gradients = rng.normal(size=(k, p)) * rng.uniform(0.1, 10.0)
        counts = rng.integers(0, 50, size=k).astype(float)
        node_loss = float(losses.sum() + rng.uniform(0.0, 5.0))
        node_grad = rng.normal(size=p)
        node_count = float(counts.sum() + rng.integers(1, 20))
        reference_loss = float(rng.uniform(0.0, 20.0))
        swept = candidate_gain_sweep(
            losses, gradients, counts,
            node_loss, node_grad, node_count, 0.05, reference_loss,
        )
        for index in range(k):
            scalar = CandidateStatistics(
                feature=0, threshold=0.0,
                loss=float(losses[index]),
                gradient=gradients[index],
                count=float(counts[index]),
            ).gain(node_loss, node_grad, node_count, 0.05, reference_loss)
            assert swept[index] == scalar


class TestGLMEquivalence:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), n_classes=st.integers(2, 4))
    def test_fit_incremental_fast_path_bit_identical(self, seed, n_classes):
        rng = np.random.default_rng(seed)
        fast = IncrementalGLM(n_features=3, n_classes=n_classes, rng=seed)
        slow = ReferenceGLM(n_features=3, n_classes=n_classes, rng=seed)
        total = 200
        X = rng.uniform(size=(total, 3))
        y = rng.integers(0, n_classes, size=total)
        start = 0
        for size in batch_schedule(rng, total):
            xb, yb = X[start : start + size], y[start : start + size]
            start += size
            fast.fit_incremental(xb, yb)
            slow.fit_incremental(xb, yb)
            np.testing.assert_array_equal(fast.weights, slow.weights)

    def test_constant_feature_batch_bit_identical(self):
        fast = IncrementalGLM(n_features=2, n_classes=2, rng=0)
        slow = ReferenceGLM(n_features=2, n_classes=2, rng=0)
        X = np.full((30, 2), 0.25)
        y = np.zeros(30, dtype=int)
        fast.fit_incremental(X, y)
        slow.fit_incremental(X, y)
        np.testing.assert_array_equal(fast.weights, slow.weights)

    def test_single_row_equals_update(self):
        fast = IncrementalGLM(n_features=3, n_classes=2, rng=1)
        other = fast.clone(warm_start=True)
        X = np.array([[0.3, 0.8, 0.1]])
        y = np.array([1])
        fast.fit_incremental(X, y)
        other.update(X, y)
        np.testing.assert_array_equal(fast.weights, other.weights)


class TestDMTEquivalence:
    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 1_000))
    def test_training_trajectory_bit_identical(self, seed):
        X, y = make_xor(2500, seed=seed)
        X = X * 3.0
        rng = np.random.default_rng(seed)
        fast = DynamicModelTree(random_state=seed)
        slow = ReferenceDynamicModelTree(random_state=seed)
        start = 0
        for size in batch_schedule(rng, len(X), max_batch=120):
            xb, yb = X[start : start + size], y[start : start + size]
            start += size
            fast.partial_fit(xb, yb, classes=[0, 1])
            slow.partial_fit(xb, yb, classes=[0, 1])
        assert fast.n_nodes == slow.n_nodes
        assert fast.depth == slow.depth
        np.testing.assert_array_equal(
            fast.predict_proba(X[:200]), slow.predict_proba(X[:200])
        )

    def test_multiclass_training_bit_identical(self):
        X, y = make_multiclass_blobs(3000, n_classes=3, n_features=4, seed=5)
        fast = DynamicModelTree(random_state=3)
        slow = ReferenceDynamicModelTree(random_state=3)
        for begin in range(0, len(X), 64):
            xb, yb = X[begin : begin + 64], y[begin : begin + 64]
            fast.partial_fit(xb, yb, classes=[0, 1, 2])
            slow.partial_fit(xb, yb, classes=[0, 1, 2])
        np.testing.assert_array_equal(fast.predict_proba(X), slow.predict_proba(X))
        assert fast.n_nodes == slow.n_nodes

    @pytest.mark.parametrize("seed", range(4))
    def test_growing_tree_trajectory_bit_identical(self, seed):
        """Inner-node paths: splits installed through ``make_child``, the
        resplit and prune checks against ``subtree_leaf_loss`` and
        ``best_candidate(exclude=...)``, on a band the root cannot fit."""
        rng = np.random.default_rng(seed)
        X = rng.uniform(-3.0, 3.0, size=(8000, 2))
        y = (np.abs(X[:, 0]) > 1.5).astype(int)
        fast = DynamicModelTree(random_state=seed)
        slow = ReferenceDynamicModelTree(random_state=seed)
        start = 0
        for size in batch_schedule(rng, len(X)):
            xb, yb = X[start : start + size], y[start : start + size]
            start += size
            fast.partial_fit(xb, yb, classes=[0, 1])
            slow.partial_fit(xb, yb, classes=[0, 1])
        assert fast.n_nodes >= 3
        assert fast.n_nodes == slow.n_nodes
        assert fast.depth == slow.depth
        np.testing.assert_array_equal(fast.predict_proba(X), slow.predict_proba(X))
        # The oracle parts reach every node the reference tree grew.
        for node in slow.root.subtree_nodes():
            assert type(node) is ReferenceDMTNode
            assert type(node.candidates) is ReferenceCandidateManager
            assert type(node.model) is ReferenceGLM

    @pytest.mark.parametrize("seed", range(2))
    def test_wide_multiclass_growing_tree_bit_identical(self, seed, monkeypatch):
        """Six classes on eight features split on a band of feature 0, so
        the root turns inner and both inner and leaf stores run the stage-3
        screen.  Every node's store matches the oracle's after every batch."""
        screens = {True: 0, False: 0}
        leaf_flags = []
        update_statistics = DMTNode.update_statistics
        screen = _AdmissionBound.screen

        def tracking_update(node, *args, **kwargs):
            leaf_flags.append(node.is_leaf)
            try:
                return update_statistics(node, *args, **kwargs)
            finally:
                leaf_flags.pop()

        def recording_screen(*args, **kwargs):
            screens[leaf_flags[-1]] += 1
            return screen(*args, **kwargs)

        monkeypatch.setattr(DMTNode, "update_statistics", tracking_update)
        monkeypatch.setattr(_AdmissionBound, "screen", recording_screen)
        rng = np.random.default_rng(seed)
        X = rng.uniform(-3.0, 3.0, size=(6000, 8))
        y = 3 * (np.abs(X[:, 0]) > 1.5) + np.argmax(X[:, 1:4], axis=1)
        classes = list(range(6))
        fast = DynamicModelTree(random_state=seed)
        slow = ReferenceDynamicModelTree(random_state=seed)
        for begin in range(0, len(X), 125):
            xb, yb = X[begin : begin + 125], y[begin : begin + 125]
            fast.partial_fit(xb, yb, classes=classes)
            slow.partial_fit(xb, yb, classes=classes)
            fast_nodes = fast.root.subtree_nodes()
            slow_nodes = slow.root.subtree_nodes()
            assert len(fast_nodes) == len(slow_nodes)
            for fast_node, slow_node in zip(fast_nodes, slow_nodes):
                _assert_managers_identical(
                    fast_node.candidates, slow_node.candidates
                )
        assert fast.n_nodes >= 3
        assert screens[True] > 0 and screens[False] > 0
        np.testing.assert_array_equal(fast.predict_proba(X), slow.predict_proba(X))

    def test_deterministic_summary_bit_identical(self):
        """The acceptance criterion: same seeds, both paths, same summary."""
        summaries = []
        for model_class in (DynamicModelTree, ReferenceDynamicModelTree):
            stream = SEAGenerator(n_samples=2000, noise=0.1, seed=42)
            model = model_class(random_state=42)
            evaluator = PrequentialEvaluator(batch_size=50)
            result = evaluator.evaluate(model, stream, model_name="dmt")
            summaries.append(result.deterministic_summary())
        assert summaries[0] == summaries[1]


class TestLegacyPayloadMigration:
    def test_dict_of_dataclass_payload_loads_into_soa_store(self):
        """Models saved before the SoA refactor keep loading (and training)."""
        from repro.persistence import codec

        manager = CandidateManager(n_features=2, max_candidates=6)
        rng = np.random.default_rng(4)
        X = rng.uniform(size=(40, 2))
        loss = rng.uniform(0.1, 1.0, size=40)
        grad = rng.normal(size=(40, 3))
        manager.consider_new(
            X, loss, grad,
            node_loss=float(loss.sum()), node_gradient=grad.sum(axis=0),
            node_count=40.0, learning_rate=0.05,
        )
        assert len(manager) > 0

        # Re-encode the store the way the pre-SoA format did: a dict of
        # CandidateStatistics keyed by (feature, threshold).
        state = codec.encode(manager)
        legacy_candidates = {
            stat.key: stat for stat in manager.candidates
        }
        for field in (
            "_features", "_thresholds", "_losses", "_counts", "_gradients",
        ):
            state["state"].pop(field, None)
        state["state"]["_candidates"] = codec.encode(legacy_candidates)

        loaded = codec.decode(state)
        assert isinstance(loaded, CandidateManager)
        _assert_managers_identical(loaded, manager)

        # The migrated store keeps accumulating identically to the original.
        X2 = rng.uniform(size=(20, 2))
        loss2 = rng.uniform(0.1, 1.0, size=20)
        grad2 = rng.normal(size=(20, 3))
        loaded.update_stored(X2, loss2, grad2)
        manager.update_stored(X2, loss2, grad2)
        _assert_managers_identical(loaded, manager)
