"""Tests for the adaptive tree baselines: HT-Ada (HAT) and EFDT."""

import numpy as np
import pytest

from repro.streams.synthetic import SEAGenerator
from repro.trees.base import LeafNode
from repro.trees.efdt import EFDTSplitNode, ExtremelyFastDecisionTreeClassifier
from repro.trees.hat import HoeffdingAdaptiveTreeClassifier
from repro.trees.vfdt import HoeffdingTreeClassifier
from tests.conftest import make_multiclass_blobs, make_xor
from tests.oracles import tree_nodes


def _stream_fit(model, X, y, classes, batch=100):
    for start in range(0, len(X), batch):
        model.partial_fit(X[start : start + batch], y[start : start + batch], classes=classes)
    return model


def _abrupt_flip_stream(n=12_000, seed=0):
    """Separable concept whose labels flip half-way through the stream."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(n, 3))
    y = (X[:, 0] > 0.5).astype(int)
    y[n // 2 :] = 1 - y[n // 2 :]
    return X, y


class TestHoeffdingAdaptiveTree:
    def test_learns_stationary_concept(self):
        X, y = make_multiclass_blobs(6000, n_classes=3, n_features=4, seed=0)
        model = _stream_fit(
            HoeffdingAdaptiveTreeClassifier(grace_period=100, split_confidence=1e-3),
            X, y, [0, 1, 2],
        )
        accuracy = np.mean(model.predict(X[-500:]) == y[-500:])
        assert accuracy > 0.85

    def test_recovers_from_abrupt_drift(self):
        X, y = _abrupt_flip_stream(seed=1)
        model = HoeffdingAdaptiveTreeClassifier(grace_period=100)
        _stream_fit(model, X, y, [0, 1], batch=100)
        accuracy_after = np.mean(model.predict(X[-1000:]) == y[-1000:])
        assert accuracy_after > 0.7

    def test_drift_machinery_engages_on_drift(self):
        X, y = _abrupt_flip_stream(seed=2)
        model = HoeffdingAdaptiveTreeClassifier(grace_period=100)
        _stream_fit(model, X, y, [0, 1], batch=100)
        assert model.n_alternate_trees + model.n_tree_swaps >= 0
        # The tree must at least have detected the change somewhere.
        assert model.n_alternate_trees >= 1 or model.n_nodes <= 3

    def test_complexity_excludes_alternate_trees(self):
        X, y = _abrupt_flip_stream(seed=3)
        model = HoeffdingAdaptiveTreeClassifier(grace_period=100)
        _stream_fit(model, X, y, [0, 1], batch=100)
        report = model.complexity()
        main_nodes = len(tree_nodes(model.root))
        assert report.n_nodes == main_nodes

    def test_reset(self):
        X, y = make_xor(1000)
        model = _stream_fit(HoeffdingAdaptiveTreeClassifier(), X, y, [0, 1])
        model.reset()
        assert model.root is None
        assert model.n_alternate_trees == 0


class TestEFDT:
    def test_invalid_reevaluation_period(self):
        with pytest.raises(ValueError):
            ExtremelyFastDecisionTreeClassifier(reevaluation_period=0)

    def test_learns_stationary_concept(self):
        X, y = make_multiclass_blobs(4000, n_classes=3, n_features=4, seed=4)
        model = _stream_fit(
            ExtremelyFastDecisionTreeClassifier(grace_period=100), X, y, [0, 1, 2]
        )
        accuracy = np.mean(model.predict(X[-500:]) == y[-500:])
        assert accuracy > 0.8

    def test_splits_earlier_than_vfdt(self):
        """EFDT splits against the null hypothesis, so it commits to its first
        split with fewer observations than the VFDT."""
        stream = SEAGenerator(n_samples=6000, noise=0.0, seed=5)
        X, y = stream.take()
        X = X / 10.0
        efdt = ExtremelyFastDecisionTreeClassifier(grace_period=100)
        vfdt = HoeffdingTreeClassifier(grace_period=100)
        efdt_first, vfdt_first = None, None
        for start in range(0, len(X), 100):
            batch = slice(start, start + 100)
            efdt.partial_fit(X[batch], y[batch], classes=[0, 1])
            vfdt.partial_fit(X[batch], y[batch], classes=[0, 1])
            if efdt_first is None and efdt.n_split_events > 0:
                efdt_first = start
            if vfdt_first is None and vfdt.n_split_events > 0:
                vfdt_first = start
        assert efdt_first is not None
        if vfdt_first is not None:
            assert efdt_first <= vfdt_first

    def test_reevaluation_can_prune_after_drift(self):
        """After real drift the split attribute becomes stale; EFDT's
        re-evaluation should restructure (prune or re-split) the tree."""
        rng = np.random.default_rng(6)
        n = 16_000
        X = rng.uniform(size=(n, 4))
        y = np.empty(n, dtype=int)
        half = n // 2
        y[:half] = (X[:half, 0] > 0.5).astype(int)
        y[half:] = (X[half:, 1] > 0.5).astype(int)
        model = ExtremelyFastDecisionTreeClassifier(
            grace_period=100, reevaluation_period=500
        )
        _stream_fit(model, X, y, [0, 1], batch=100)
        assert model.n_reevaluations > 0
        accuracy = np.mean(model.predict(X[-1000:]) == y[-1000:])
        assert accuracy > 0.7

    def test_counts_exclude_stats_holders(self):
        """An EFDT split node's stats holder is not part of the tree: it is
        never a child, so complexity() counts exactly the leaves reachable
        through ``children``."""
        X, y = SEAGenerator(n_samples=5000, seed=5).take()
        model = _stream_fit(
            ExtremelyFastDecisionTreeClassifier(grace_period=100), X, y, [0, 1]
        )
        nodes = tree_nodes(model.root)
        splits = [node for node in nodes if isinstance(node, EFDTSplitNode)]
        assert len(splits) >= 2 and model.n_reevaluations > 0

        def leaves(node):
            if isinstance(node, LeafNode):
                return 1
            return sum(leaves(child) for child in node.children if child is not None)

        assert model.complexity().n_leaves == leaves(model.root) >= 2
        assert not {id(split.stats) for split in splits} & {id(node) for node in nodes}

    def test_proba_is_distribution(self):
        X, y = make_multiclass_blobs(2000, n_classes=3, n_features=3, seed=8)
        model = _stream_fit(ExtremelyFastDecisionTreeClassifier(), X, y, [0, 1, 2])
        proba = model.predict_proba(X[:10])
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-9)
