"""Serving subsystem: registry hot-swap, scoring service, champion/challenger,
and the vectorized DMT inference path."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import (
    ChampionChallenger,
    DynamicModelTree,
    HoeffdingTreeClassifier,
    ModelRegistry,
    ScoringService,
)
from repro.drift import DDM
from repro.drift.base import BaseDriftDetector
from tests.conftest import make_linear_binary, make_multiclass_blobs, make_xor
from tests.oracles import dmt_predict_proba_per_row


def _train(model, X, y, classes, batch: int = 100):
    for start in range(0, len(X), batch):
        model.partial_fit(X[start : start + batch], y[start : start + batch], classes=classes)
    return model


def _fitted_dmt(n: int = 4000, seed: int = 1) -> tuple[DynamicModelTree, np.ndarray]:
    """A DMT trained on scaled XOR so the tree actually grows splits."""
    X, y = make_xor(n, seed=seed)
    X = X * 3.0
    model = _train(DynamicModelTree(random_state=1), X, y, classes=[0, 1])
    return model, X


class TestVectorizedDMTInference:
    def test_route_batch_matches_sorted_leaf(self):
        model, X = _fitted_dmt()
        assert model.n_leaves > 1  # otherwise the test is vacuous
        leaves, assignments = model.root.route_batch(X[:500])
        for row, x in enumerate(X[:500]):
            assert leaves[assignments[row]] is model.root.sorted_leaf(x)

    def test_route_batch_on_leaf_only_tree(self):
        X, y = make_linear_binary(300, n_features=3, seed=0)
        model = _train(DynamicModelTree(random_state=0), X, y, classes=[0, 1])
        leaves, assignments = model.root.route_batch(X)
        assert leaves == [model.root]
        assert np.all(assignments == 0)

    def test_route_batch_empty_batch(self):
        model, _ = _fitted_dmt(n=1000)
        leaves, assignments = model.root.route_batch(np.empty((0, 2)))
        assert assignments.shape == (0,)

    def test_vectorized_matches_per_row_binary(self):
        model, X = _fitted_dmt()
        rng = np.random.default_rng(42)
        batch = rng.uniform(0.0, 3.0, size=(2000, 2))
        vectorized = model.predict_proba(batch)
        per_row = dmt_predict_proba_per_row(model, batch)
        np.testing.assert_allclose(vectorized, per_row, rtol=0.0, atol=1e-12)
        assert np.array_equal(
            np.argmax(vectorized, axis=1), np.argmax(per_row, axis=1)
        )

    def test_vectorized_matches_per_row_multiclass(self):
        X, y = make_multiclass_blobs(2000, n_classes=3, n_features=4, seed=3)
        model = _train(DynamicModelTree(random_state=0), X, y, classes=[0, 1, 2])
        rng = np.random.default_rng(7)
        batch = rng.uniform(0.0, 1.0, size=(500, 4))
        np.testing.assert_allclose(
            model.predict_proba(batch),
            dmt_predict_proba_per_row(model, batch),
            rtol=0.0,
            atol=1e-12,
        )

    def test_manual_tree_routing(self):
        """route_batch on a hand-built two-level tree hits the right leaves."""
        model, _ = _fitted_dmt(n=500)
        root = model.root
        if root.is_leaf:  # force a split structure for routing purposes
            candidate = type(
                "C", (), {"feature": 0, "threshold": 1.5, "gradient": root.gradient, "count": root.count / 2}
            )()
            root.apply_split(candidate)
        X = np.array([[0.0, 0.0], [3.0, 3.0], [1.4, 2.0], [1.6, 2.0]])
        leaves, assignments = root.route_batch(X)
        for row, x in enumerate(X):
            assert leaves[assignments[row]] is root.sorted_leaf(x)


class TestModelRegistry:
    def test_register_and_get(self):
        registry = ModelRegistry()
        entry = registry.register("clf", "model-object")
        assert entry.version == 1
        assert registry.get("clf") == "model-object"
        assert registry.names() == ["clf"]
        assert "clf" in registry

    def test_versioning_and_hot_swap(self):
        registry = ModelRegistry()
        registry.register("clf", "v1")
        entry = registry.register("clf", "v2")
        assert entry.version == 2
        assert registry.get("clf") == "v2"
        registry.activate("clf", 1)
        assert registry.get("clf") == "v1"
        assert [v.version for v in registry.versions("clf")] == [1, 2]

    def test_register_without_activation(self):
        registry = ModelRegistry()
        registry.register("clf", "v1")
        registry.register("clf", "v2", activate=False)
        assert registry.get("clf") == "v1"

    def test_rollback(self):
        registry = ModelRegistry()
        registry.register("clf", "v1")
        registry.register("clf", "v2")
        entry = registry.rollback("clf")
        assert entry.version == 1
        assert registry.get("clf") == "v1"
        with pytest.raises(ValueError, match="no earlier version"):
            registry.rollback("clf")

    def test_unknown_name_raises(self):
        registry = ModelRegistry()
        with pytest.raises(KeyError, match="No model registered"):
            registry.get("missing")
        with pytest.raises(KeyError, match="versions"):
            registry.register("clf", "v1")
            registry.get_version("clf", 7)

    def test_unregister(self):
        registry = ModelRegistry()
        registry.register("clf", "v1")
        registry.unregister("clf")
        assert "clf" not in registry

    def test_save_and_load_through_registry(self, tmp_path):
        X, y = make_linear_binary(400, n_features=3, seed=0)
        model = _train(DynamicModelTree(random_state=0), X, y, classes=[0, 1])
        registry = ModelRegistry()
        registry.register("dmt", model)
        path = tmp_path / "dmt.json"
        registry.save_active("dmt", path)

        entry = registry.load("dmt", path)
        assert entry.version == 2
        assert entry.metadata["source_path"] == str(path)
        reloaded = registry.get("dmt")
        assert np.array_equal(model.predict_proba(X), reloaded.predict_proba(X))

    def test_concurrent_swaps_always_expose_a_full_version(self):
        registry = ModelRegistry()
        registry.register("clf", "v1")

        seen = []
        stop = threading.Event()

        def reader() -> None:
            while not stop.is_set():
                seen.append(registry.get("clf"))

        thread = threading.Thread(target=reader)
        thread.start()
        for swap in range(2, 30):
            registry.register("clf", f"v{swap}")
        stop.set()
        thread.join()
        assert all(value.startswith("v") for value in seen)


class TestScoringService:
    def _service(self) -> tuple[ScoringService, DynamicModelTree, np.ndarray, np.ndarray]:
        X, y = make_linear_binary(600, n_features=4, seed=1)
        model = _train(DynamicModelTree(random_state=0), X, y, classes=[0, 1])
        service = ScoringService(max_batch_size=128)
        service.registry.register("dmt", model)
        return service, model, X, y

    def test_predictions_match_direct_model_calls(self):
        service, model, X, _ = self._service()
        assert np.array_equal(service.predict("dmt", X), model.predict(X))
        assert np.array_equal(service.predict_proba("dmt", X), model.predict_proba(X))

    def test_batched_scoring_equals_whole_batch(self):
        service, model, X, _ = self._service()
        unbatched = ScoringService(registry=service.registry, max_batch_size=None)
        assert np.array_equal(
            service.predict_proba("dmt", X), unbatched.predict_proba("dmt", X)
        )

    def test_stats_accounting(self):
        service, _, X, _ = self._service()
        service.predict("dmt", X[:100])
        service.predict_proba("dmt", X[:250])
        stats = service.stats("dmt")
        assert stats["n_requests"] == 2
        assert stats["n_rows"] == 350
        assert stats["rows_per_second"] > 0
        assert stats["mean_latency_seconds"] > 0
        assert stats["max_latency_seconds"] >= stats["min_latency_seconds"]
        assert "dmt" in service.metrics()

    def test_stats_reset(self):
        service, _, X, _ = self._service()
        service.predict("dmt", X[:50])
        service.reset_stats("dmt")
        assert service.stats("dmt")["n_requests"] == 0

    def test_hot_swap_is_picked_up_on_next_request(self):
        service, model, X, y = self._service()
        before = service.predict_proba("dmt", X[:50])
        other = _train(
            HoeffdingTreeClassifier(grace_period=50), X, y, classes=[0, 1]
        )
        service.registry.register("dmt", other)
        after = service.predict_proba("dmt", X[:50])
        assert np.array_equal(after, other.predict_proba(X[:50]))
        assert not np.array_equal(before, after)

    def test_invalid_batch_size_rejected(self):
        with pytest.raises(ValueError, match="max_batch_size"):
            ScoringService(max_batch_size=0)


class _FireAfter(BaseDriftDetector):
    """Deterministic stub: fires on every update once n_observations > n."""

    def __init__(self, n: int) -> None:
        super().__init__()
        self.n = n

    def update(self, value: float) -> bool:
        self.n_observations += 1
        self.in_drift = self.n_observations > self.n
        return self.in_drift


class TestChampionChallenger:
    def _concepts(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(0.0, 1.0, size=(3000, 4))
        weights = np.array([1.0, 1.0, -1.0, -1.0])
        y_stable = (X @ weights > 0).astype(int)
        return X, y_stable, 1 - y_stable

    def test_no_promotion_without_drift(self):
        X, y, _ = self._concepts()
        champion = _train(DynamicModelTree(random_state=0), X[:500], y[:500], [0, 1])
        registry = ModelRegistry()
        deployment = ChampionChallenger(
            registry, "clf", champion, drift_detector=DDM(min_observations=30)
        )
        deployment.set_challenger(DynamicModelTree(random_state=1))
        for start in range(500, 2000, 100):
            report = deployment.process_batch(X[start : start + 100], y[start : start + 100])
            assert not report["promoted"]
        assert deployment.n_promotions == 0
        assert registry.active_version("clf").version == 1

    def test_drift_triggers_promotion_and_hot_swap(self):
        X, y_stable, y_drifted = self._concepts()
        champion = _train(DynamicModelTree(random_state=0), X[:500], y_stable[:500], [0, 1])
        registry = ModelRegistry()
        deployment = ChampionChallenger(
            registry, "clf", champion, drift_detector=DDM(min_observations=30)
        )
        # Stable phase establishes the detector's baseline error rate.
        for start in range(500, 1500, 100):
            deployment.process_batch(X[start : start + 100], y_stable[start : start + 100])

        challenger = _train(
            DynamicModelTree(random_state=1), X[:300], y_drifted[:300], [0, 1]
        )
        deployment.set_challenger(challenger)
        promoted = False
        for start in range(1500, 3000, 100):
            report = deployment.process_batch(
                X[start : start + 100], y_drifted[start : start + 100]
            )
            if report["promoted"]:
                promoted = True
                break
        assert promoted
        assert deployment.n_promotions == 1
        assert deployment.challenger is None
        assert registry.active_version("clf").version == 2
        assert registry.get("clf") is challenger
        # The detector restarts for the new champion.
        assert deployment.drift_detector.n_observations == 0

    def test_drift_without_challenger_is_counted_but_not_promoted(self):
        X, y, _ = self._concepts()
        champion = _train(DynamicModelTree(random_state=0), X[:500], y[:500], [0, 1])
        registry = ModelRegistry()
        deployment = ChampionChallenger(
            registry, "clf", champion, drift_detector=_FireAfter(100)
        )
        for start in range(500, 1000, 100):
            report = deployment.process_batch(X[start : start + 100], y[start : start + 100])
            assert not report["promoted"]
        assert deployment.n_drifts > 0
        assert registry.active_version("clf").version == 1

    def test_challenger_without_shadow_evidence_is_not_promoted(self):
        """An untrained challenger (no shadow stats yet) must never be
        auto-promoted, even when the detector fires immediately."""
        X, y, _ = self._concepts()
        champion = _train(DynamicModelTree(random_state=0), X[:500], y[:500], [0, 1])
        registry = ModelRegistry()
        deployment = ChampionChallenger(
            registry, "clf", champion, drift_detector=_FireAfter(0)
        )
        deployment.set_challenger(DynamicModelTree(random_state=1))
        report = deployment.process_batch(X[500:600], y[500:600])
        assert report["drift"]
        assert not report["promoted"]
        assert registry.active_version("clf").version == 1

    def test_worse_challenger_is_not_promoted(self):
        X, y, y_flipped = self._concepts()
        champion = _train(DynamicModelTree(random_state=0), X[:1000], y[:1000], [0, 1])
        registry = ModelRegistry()
        deployment = ChampionChallenger(
            registry, "clf", champion, drift_detector=_FireAfter(200)
        )
        # Challenger trained on the *opposite* concept scores far worse on
        # the live stream; even when the detector fires it must not win.
        challenger = _train(
            DynamicModelTree(random_state=1), X[:1000], y_flipped[:1000], [0, 1]
        )
        deployment.set_challenger(challenger)
        for start in range(1000, 2000, 100):
            report = deployment.process_batch(X[start : start + 100], y[start : start + 100])
            assert not report["promoted"]
        assert deployment.n_drifts > 0
        assert registry.active_version("clf").version == 1

    def test_explicit_promote(self):
        X, y, _ = self._concepts()
        champion = _train(DynamicModelTree(random_state=0), X[:500], y[:500], [0, 1])
        registry = ModelRegistry()
        deployment = ChampionChallenger(registry, "clf", champion)
        with pytest.raises(RuntimeError, match="No challenger"):
            deployment.promote()
        challenger = DynamicModelTree(random_state=1)
        deployment.set_challenger(challenger)
        entry = deployment.promote()
        assert entry.version == 2
        assert registry.get("clf") is challenger
