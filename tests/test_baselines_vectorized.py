"""Bit-equivalence of the vectorized baseline kernels vs. the reference loops.

Every baseline has an oracle in ``tests/oracles.py`` that runs the original
per-row / per-threshold / per-value implementations.  These property tests
pin the vectorized kernels to that reference *bitwise*: observer statistics,
split suggestions, drift-detector firing indices, predictions and full
prequential ``deterministic_summary()`` must be identical under arbitrary
batch schedules (including single-row and constant-feature batches), for
binary and multiclass streams.

The legacy-persistence tests load model files written by the pre-refactor
code (dict-of-dataclass observers, committed under
``tests/golden/legacy_baselines/``) and check they migrate transparently
into the structure-of-arrays layout.
"""

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.drift.adwin import ADWIN
from repro.drift.ddm import DDM
from repro.drift.eddm import EDDM
from repro.drift.kswin import KSWIN
from repro.drift.page_hinkley import PageHinkley
from repro.ensembles.adaptive_random_forest import AdaptiveRandomForestClassifier
from repro.ensembles.bagging import OzaBaggingClassifier
from repro.ensembles.leveraging_bagging import LeveragingBaggingClassifier
from repro.evaluation.prequential import PrequentialEvaluator
from repro.persistence import load_model
from repro.streams.synthetic import LEDGenerator, SEAGenerator
from repro.trees.base import SMALL_BATCH, SplitNode
from repro.trees.criteria import GiniCriterion, InfoGainCriterion, VarianceReductionCriterion
from repro.trees.efdt import ExtremelyFastDecisionTreeClassifier
from repro.trees.fimtdd import FIMTDDClassifier
from repro.trees.hat import HoeffdingAdaptiveTreeClassifier
from repro.trees.observers import LeafObservers
from repro.trees.vfdt import HoeffdingTreeClassifier
from tests.oracles import ORACLES, ReferenceLeafObservers, fimtdd_predict_proba_per_row

LEGACY_DIR = os.path.join(os.path.dirname(__file__), "golden", "legacy_baselines")


def random_schedule(rng: np.random.Generator, n: int, single_rows: bool) -> list[int]:
    """A random batch schedule covering ``n`` rows (may include 1-row batches)."""
    sizes = []
    remaining = n
    while remaining > 0:
        if single_rows and rng.random() < 0.25:
            size = 1
        else:
            size = int(rng.integers(1, 70))
        size = min(size, remaining)
        sizes.append(size)
        remaining -= size
    return sizes


def stream_rows(multiclass: bool, n: int, seed: int, constant_feature: bool):
    if multiclass:
        X, y = LEDGenerator(n_samples=n + 10, seed=seed).next_sample(n)
        X = X[:, :6].copy()  # keep the feature space small for speed
        classes = list(range(10))
    else:
        X, y = SEAGenerator(n_samples=n + 10, noise=0.1, seed=seed).next_sample(n)
        classes = [0, 1]
    if constant_feature:
        X[:, 0] = 1.5
    return X, y, classes


def make_pair(model):
    """The product model and its oracle, configured alike."""
    product, params = model
    return product(**params), ORACLES[product](**params)


def train_pair(model, X, y, classes, sizes):
    fast, reference = make_pair(model)
    position = 0
    for size in sizes:
        batch_X, batch_y = X[position : position + size], y[position : position + size]
        fast.partial_fit(batch_X, batch_y, classes=classes)
        reference.partial_fit(batch_X, batch_y, classes=classes)
        position += size
    return fast, reference


def tree_signature(node):
    """Every statistic of a Hoeffding (sub)tree as nested lists, ``None`` for
    a missing child; the ``repr`` of two signatures compares them bit for bit."""
    if node is None:
        return None
    if isinstance(node, SplitNode):
        children = [tree_signature(child) for child in node.children]
        return [
            node.feature, node.threshold, node.is_nominal, node.depth,
            node.class_dist.tolist(), children,
        ]
    store, bayes = node.observers, node._naive_bayes
    return [
        node.depth, node.class_dist.tolist(), node.weight_at_last_split_attempt,
        node._mc_correct, node._nb_correct,
        [store._weights, store._means, store._m2, store._mins, store._maxs],
        None if bayes is None else [
            bayes.class_counts.tolist(), bayes._means.tolist(), bayes._m2.tolist()
        ],
    ]


def count_reference_leaves(tree) -> int:
    """Number of leaves of an oracle tree; each must score with the oracle store."""
    stack = [tree.root]
    leaves = 0
    while stack:
        node = stack.pop()
        stack.extend(child for child in getattr(node, "children", ()) if child)
        if hasattr(node, "observers"):
            assert type(node.observers) is ReferenceLeafObservers
            leaves += 1
    return leaves


# --------------------------------------------------------------- observers
class TestObserverStoreEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n_classes=st.sampled_from([2, 3, 10]),
        constant=st.booleans(),
    )
    def test_batch_update_matches_row_updates(self, seed, n_classes, constant):
        rng = np.random.default_rng(seed)
        n_features = 4
        bulk = LeafObservers(n_features=n_features, n_split_points=10)
        scalar = LeafObservers(n_features=n_features, n_split_points=10)
        for _ in range(rng.integers(1, 6)):
            size = int(rng.integers(1, 40))
            X = rng.normal(0.0, 2.0, size=(size, n_features))
            if constant:
                X[:, 1] = -3.25
            y = rng.integers(0, n_classes, size=size)
            bulk.update_batch(X, y)
            for row in range(size):
                scalar.update_row(X[row].tolist(), int(y[row]))
        assert bulk._weights == scalar._weights
        assert bulk._means == scalar._means
        assert bulk._m2 == scalar._m2
        assert bulk._mins == scalar._mins
        assert bulk._maxs == scalar._maxs

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n_classes=st.sampled_from([2, 3, 10]),
        criterion_name=st.sampled_from(["info_gain", "gini"]),
    )
    def test_split_suggestion_sweep_matches_reference(
        self, seed, n_classes, criterion_name
    ):
        rng = np.random.default_rng(seed)
        store, reference_store = (
            store_class(n_features=5, n_split_points=10, nominal_features={2})
            for store_class in (LeafObservers, ReferenceLeafObservers)
        )
        size = int(rng.integers(5, 200))
        X = rng.normal(0.0, 2.0, size=(size, 5))
        X[:, 2] = rng.integers(0, 4, size=size)  # nominal values
        y = rng.integers(0, n_classes, size=size)
        store.update_batch(X, y)
        reference_store.update_batch(X, y)
        pre_split = np.bincount(y, minlength=n_classes).astype(float)
        criterion = (
            InfoGainCriterion() if criterion_name == "info_gain" else GiniCriterion()
        )
        fast = store.best_split_suggestions(criterion, pre_split)
        reference = reference_store.best_split_suggestions(criterion, pre_split)
        assert len(fast) == len(reference)
        for a, b in zip(fast, reference):
            assert (a.feature, a.is_nominal) == (b.feature, b.is_nominal)
            assert a.threshold == b.threshold
            assert a.merit == b.merit or (np.isnan(a.merit) and np.isnan(b.merit))
            assert len(a.children_dists) == len(b.children_dists)
            for da, db in zip(a.children_dists, b.children_dists):
                assert np.array_equal(da, db)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), n_classes=st.sampled_from([2, 4]))
    def test_sdr_suggestion_sweep_matches_reference(self, seed, n_classes):
        rng = np.random.default_rng(seed)
        store, reference_store = (
            store_class(n_features=4, n_split_points=10)
            for store_class in (LeafObservers, ReferenceLeafObservers)
        )
        size = int(rng.integers(5, 150))
        X = rng.normal(0.0, 1.5, size=(size, 4))
        y = rng.integers(0, n_classes, size=size)
        store.update_batch(X, y)
        reference_store.update_batch(X, y)
        criterion = VarianceReductionCriterion()
        fast = store.best_sdr_suggestions(criterion)
        reference = reference_store.best_sdr_suggestions(criterion)
        assert len(fast) == len(reference)
        for a, b in zip(fast, reference):
            assert a.feature == b.feature
            assert a.threshold == b.threshold
            assert a.merit == b.merit or (np.isnan(a.merit) and np.isnan(b.merit))

    def test_empty_and_single_row_batches_are_safe(self):
        store = LeafObservers(n_features=3)
        store.update_batch(np.zeros((0, 3)), np.zeros(0, dtype=int))
        assert store.n_classes == 0
        store.update_batch(np.zeros(0), np.zeros(0, dtype=int))  # empty 1-D
        assert store.n_classes == 0
        store.update_batch(np.array([1.0, 2.0, 3.0]), np.array([1]))  # 1-D row
        assert store.n_classes == 2
        assert store._weights[1] == [1.0, 1.0, 1.0]


# -------------------------------------------------------------------- trees
#: Name -> (product class, constructor arguments); see :func:`make_pair`.
TREE_FACTORIES = {
    "vfdt_mc": (
        HoeffdingTreeClassifier, dict(grace_period=60, split_confidence=0.05)
    ),
    "vfdt_nba": (
        HoeffdingTreeClassifier,
        dict(grace_period=60, split_confidence=0.05, leaf_prediction="nba"),
    ),
    "ht_ada": (
        HoeffdingAdaptiveTreeClassifier,
        dict(
            grace_period=60,
            split_confidence=0.05,
            adwin_delta=0.05,
            alternate_min_weight=40,
        ),
    ),
    "efdt": (
        ExtremelyFastDecisionTreeClassifier,
        dict(grace_period=60, split_confidence=0.05, reevaluation_period=150),
    ),
    # Fractional post-split distributions + Naive Bayes leaves and the
    # max_depth bulk path exercise the sequential class-count accumulation.
    "vfdt_nb": (
        HoeffdingTreeClassifier,
        dict(grace_period=60, split_confidence=0.05, leaf_prediction="nb"),
    ),
    "vfdt_capped": (
        HoeffdingTreeClassifier,
        dict(grace_period=60, split_confidence=0.05, max_depth=2),
    ),
}


class TestTreeEquivalence:
    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        model=st.sampled_from(sorted(TREE_FACTORIES)),
        multiclass=st.booleans(),
        constant=st.booleans(),
        single_rows=st.booleans(),
    )
    def test_training_and_inference_bit_identical(
        self, seed, model, multiclass, constant, single_rows
    ):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(300, 1800))
        X, y, classes = stream_rows(multiclass, n, seed % 97, constant)
        if model == "ht_ada":
            # Force drifting errors so alternates and swaps are exercised.
            y = y.copy()
            y[n // 2 :] = (np.asarray(y[n // 2 :]) + 1) % len(classes)
        sizes = random_schedule(rng, n, single_rows)
        fast, reference = train_pair(TREE_FACTORIES[model], X, y, classes, sizes)
        assert fast.n_split_events == reference.n_split_events
        assert fast.n_nodes == reference.n_nodes
        assert fast.depth == reference.depth
        proba_fast = fast.predict_proba(X[:256])
        proba_reference = reference.predict_proba(X[:256])
        assert np.array_equal(proba_fast, proba_reference)

    @pytest.mark.parametrize("model", ["vfdt_mc", "vfdt_nba", "ht_ada", "efdt"])
    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 10_000), single_rows=st.booleans())
    def test_multiclass_trees_that_split_bit_identical(
        self, model, seed, single_rows
    ):
        """The multiclass examples above rarely split at the default tie
        threshold; at 0.5 every tree splits on the same LED rows."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(300, 1800))
        X, y, classes = stream_rows(True, n, seed % 97, False)
        product, params = TREE_FACTORIES[model]
        sizes = random_schedule(rng, n, single_rows)
        fast, reference = train_pair(
            (product, {**params, "tie_threshold": 0.5}), X, y, classes, sizes
        )
        assert fast.n_split_events >= 1
        assert fast.n_split_events == reference.n_split_events
        assert fast.n_nodes == reference.n_nodes
        assert fast.depth == reference.depth
        assert count_reference_leaves(reference) >= 2
        assert np.array_equal(
            fast.predict_proba(X[:256]), reference.predict_proba(X[:256])
        )

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 10_000), single_rows=st.booleans())
    def test_fimtdd_training_bit_identical(self, seed, single_rows):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(300, 1500))
        X, y, classes = stream_rows(False, n, seed % 89, False)
        sizes = random_schedule(rng, n, single_rows)
        fast, reference = train_pair(
            (FIMTDDClassifier, dict(grace_period=60, random_state=3)),
            X, y, classes, sizes,
        )
        assert fast.n_split_events == reference.n_split_events
        assert fast.n_nodes == reference.n_nodes
        assert fast.n_pruned_branches == reference.n_pruned_branches
        assert count_reference_leaves(reference) >= 2
        # Training statistics are identical; the per-row inference path must
        # agree bitwise (the batched path may differ in the last ulp because
        # BLAS blocks the batched matmul differently -- see the class docs).
        assert np.array_equal(
            fimtdd_predict_proba_per_row(fast, X[:200]),
            reference.predict_proba(X[:200]),
        )
        np.testing.assert_allclose(
            fast.predict_proba(X[:200]),
            fimtdd_predict_proba_per_row(fast, X[:200]),
            rtol=1e-12,
            atol=1e-15,
        )

    @pytest.mark.parametrize("model", ["vfdt_mc", "vfdt_nba"])
    @pytest.mark.parametrize("size", [1, SMALL_BATCH, SMALL_BATCH + 1, 40])
    def test_training_through_a_missing_child_bit_identical(self, model, size):
        """Rows that reach a split node's missing child: the router's group
        gets a fresh leaf, learns, splits and routes its remaining rows again,
        as the oracle's per-row descent does."""
        X, y, classes = stream_rows(False, 6000, 5, False)
        product, params = TREE_FACTORIES[model]
        fast, reference = train_pair(
            (product, {**params, "tie_threshold": 0.5}),
            X[:1500], y[:1500], classes, [50] * 30,
        )
        # Cut the left child of the last split node on each tree's leftmost
        # path; the rows that reach it go left at every node of that path.
        cut = []
        for tree in (fast, reference):
            leftmost = [tree.root]
            while isinstance(leftmost[-1].children[0], SplitNode):
                leftmost.append(leftmost[-1].children[0])
            leftmost[-1].children[0] = None
            tree._structure_changed()
            cut.append(leftmost[-1])
        assert cut[0].depth >= 1
        assert repr(tree_signature(fast.root)) == repr(tree_signature(reference.root))
        left = np.all([X[:, n.feature] <= n.threshold for n in leftmost], axis=0)
        rows = 1500 + np.flatnonzero(left[1500:])[:160]
        assert len(rows) == 160
        for start in range(0, len(rows), size):
            batch = rows[start : start + size]
            fast.partial_fit(X[batch], y[batch])
            reference.partial_fit(X[batch], y[batch])
        assert isinstance(cut[0].children[0], SplitNode)  # the new leaf split
        assert fast.n_split_events == reference.n_split_events
        assert repr(tree_signature(fast.root)) == repr(tree_signature(reference.root))
        assert fast.complexity() == reference.complexity()
        for batch in (X[rows[:SMALL_BATCH]], X[:256]):
            assert np.array_equal(
                fast.predict_proba(batch), reference.predict_proba(batch)
            )

    @pytest.mark.parametrize(
        "model", ["vfdt_mc", "vfdt_nba", "vfdt_nb", "vfdt_capped", "ht_ada", "efdt"]
    )
    def test_prequential_deterministic_summary_identical(self, model):
        summaries = []
        for classifier in make_pair(TREE_FACTORIES[model]):
            stream = SEAGenerator(n_samples=1500, noise=0.1, seed=11)
            result = PrequentialEvaluator(batch_size=64).evaluate(
                classifier, stream, model_name=model, dataset_name="sea"
            )
            summaries.append(result.deterministic_summary())
        assert summaries[0] == summaries[1]

    def test_single_row_and_1d_partial_fit(self):
        for product, params in TREE_FACTORIES.values():
            model = product(**params)
            model.partial_fit(np.array([1.0, 2.0, 3.0]), np.array([0]), classes=[0, 1])
            model.partial_fit(np.array([[2.0, 1.0, 0.0]]), np.array([1]))
            proba = model.predict_proba(np.array([1.5, 1.5, 1.5]))
            assert proba.shape == (1, 2)


# ---------------------------------------------------------------- detectors
DETECTOR_FACTORIES = {
    "adwin": lambda: ADWIN(delta=0.05),
    "ddm": lambda: DDM(min_observations=20),
    "eddm": lambda: EDDM(min_errors=10),
    "kswin": lambda: KSWIN(alpha=0.01, window_size=60, stat_size=20, seed=3),
    "page_hinkley": lambda: PageHinkley(
        delta=0.002, threshold=8.0, min_observations=15
    ),
}


class TestDetectorUpdateMany:
    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        name=st.sampled_from(sorted(DETECTOR_FACTORIES)),
    )
    def test_drift_indices_and_state_match_scalar_loop(self, seed, name):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(200, 2500))
        flip = rng.integers(50, max(n - 1, 51))
        values = np.concatenate(
            [
                rng.random(int(flip)) < rng.uniform(0.02, 0.4),
                rng.random(n - int(flip)) < rng.uniform(0.3, 0.9),
            ]
        ).astype(float)
        scalar = DETECTOR_FACTORIES[name]()
        batched = DETECTOR_FACTORIES[name]()
        scalar_drifts = [
            index for index, value in enumerate(values.tolist()) if scalar.update(value)
        ]
        batched_drifts = []
        start = 0
        while start < len(values):
            index = batched.update_many(values[start:])
            if index is None:
                break
            batched_drifts.append(start + index)
            start += index + 1
        assert scalar_drifts == batched_drifts
        assert scalar.n_observations == batched.n_observations
        assert scalar.in_drift == batched.in_drift
        assert scalar.in_warning == batched.in_warning
        scalar_state = {
            key: value
            for key, value in vars(scalar).items()
            if key not in ("_rows", "_rng", "mean_before_last_drift")
        }
        batched_state = {
            key: value
            for key, value in vars(batched).items()
            if key not in ("_rows", "_rng", "mean_before_last_drift")
        }
        assert scalar_state == batched_state

    def test_empty_input_is_a_no_op(self):
        for factory in DETECTOR_FACTORIES.values():
            detector = factory()
            detector.update(1.0)
            observed = detector.n_observations
            assert detector.update_many(np.zeros(0)) is None
            assert detector.n_observations == observed

    def test_invalid_value_raises_like_the_scalar_loop(self):
        for name in ("ddm", "eddm"):
            scalar = DETECTOR_FACTORIES[name]()
            batched = DETECTOR_FACTORIES[name]()
            values = [1.0, 0.0, 1.0, 0.5, 1.0]
            with pytest.raises(ValueError):
                for value in values:
                    scalar.update(value)
            with pytest.raises(ValueError):
                batched.update_many(values)
            assert scalar.n_observations == batched.n_observations
            assert scalar.in_drift == batched.in_drift
            assert scalar.in_warning == batched.in_warning
            # Invalid value at index 0: the scalar update validates before
            # mutating anything, so entry flags must survive unchanged.
            scalar.in_drift = batched.in_drift = True
            with pytest.raises(ValueError):
                scalar.update(0.5)
            with pytest.raises(ValueError):
                batched.update_many([0.5])
            assert scalar.in_drift == batched.in_drift == True
            assert scalar.n_observations == batched.n_observations


# ---------------------------------------------------------------- ensembles
class TestEnsembleEquivalence:
    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_vectorized_matches_reference(self, seed):
        factories = {
            "oza": (OzaBaggingClassifier, dict(random_state=7)),
            "leveraging": (LeveragingBaggingClassifier, dict(random_state=7)),
            "arf": (AdaptiveRandomForestClassifier, dict(random_state=7)),
        }
        # Every example checks every ensemble: sampling one name per example
        # left some ensembles out of a run, and a mutated ARF detector feed
        # then went unnoticed.
        for name, model in factories.items():
            rng = np.random.default_rng(seed)
            n = int(rng.integers(400, 1500))
            X, y, classes = stream_rows(False, n, seed % 83, False)
            y = y.copy()
            y[n // 2 :] = 1 - y[n // 2 :]  # drift exercises detectors and resets
            sizes = random_schedule(rng, n, False)
            fast, reference = train_pair(model, X, y, classes, sizes)
            assert np.array_equal(
                fast.predict_proba(X[:200]), reference.predict_proba(X[:200])
            )
            if name == "arf":
                assert fast.n_drifts == reference.n_drifts
                assert fast.n_warnings == reference.n_warnings
            if name == "leveraging":
                assert fast.n_member_resets == reference.n_member_resets


# -------------------------------------------------------------- persistence
LEGACY_TRAINING = {
    "vfdt_mc_sea": (
        lambda: HoeffdingTreeClassifier(grace_period=100, split_confidence=0.05),
        "sea", 2500,
    ),
    "ht_ada_sea": (
        lambda: HoeffdingAdaptiveTreeClassifier(
            grace_period=100, split_confidence=0.05
        ),
        "sea", 2500,
    ),
    "efdt_sea": (
        lambda: ExtremelyFastDecisionTreeClassifier(grace_period=100),
        "sea", 1500,
    ),
    "fimtdd_sea": (
        lambda: FIMTDDClassifier(grace_period=100, random_state=3),
        "sea", 1500,
    ),
    "vfdt_nba_led": (
        lambda: HoeffdingTreeClassifier(
            grace_period=100, leaf_prediction="nba"
        ),
        "led", 800,
    ),
}


def _legacy_training_rows(dataset: str, n: int):
    if dataset == "sea":
        stream = SEAGenerator(n_samples=4000, noise=0.1, seed=7)
        classes = [0, 1]
    else:
        stream = LEDGenerator(n_samples=4000, seed=7)
        classes = list(range(10))
    X, y = stream.next_sample(n + 500)
    return X, y, classes


class TestLegacyPersistenceMigration:
    """Files written by the pre-refactor code load into the SoA layout."""

    @pytest.mark.parametrize("name", sorted(LEGACY_TRAINING))
    def test_legacy_payload_matches_retrained_model(self, name):
        path = os.path.join(LEGACY_DIR, f"{name}.json")
        loaded = load_model(path)
        factory, dataset, n = LEGACY_TRAINING[name]
        X, y, classes = _legacy_training_rows(dataset, n)
        fresh = factory()
        for start in range(0, n, 50):
            fresh.partial_fit(X[start : start + 50], y[start : start + 50], classes=classes)
        X_heldout = X[n:]
        assert np.array_equal(
            loaded.predict_proba(X_heldout), fresh.predict_proba(X_heldout)
        )
        # The migrated observers must also keep *training* bit-identical.
        loaded.partial_fit(X_heldout, y[n:], classes=classes)
        fresh.partial_fit(X_heldout, y[n:], classes=classes)
        assert np.array_equal(
            loaded.predict_proba(X[:200]), fresh.predict_proba(X[:200])
        )

    def test_legacy_observer_dict_is_migrated_to_store(self):
        path = os.path.join(LEGACY_DIR, "vfdt_mc_sea.json")
        with open(path) as handle:
            raw = json.load(handle)
        assert '"observers"' in json.dumps(raw)  # really a pre-refactor file
        loaded = load_model(path)
        stack = [loaded.root]
        saw_leaf = False
        while stack:
            node = stack.pop()
            if hasattr(node, "children"):
                stack.extend(child for child in node.children if child is not None)
            if hasattr(node, "observers"):
                assert isinstance(node.observers, LeafObservers)
                saw_leaf = True
        assert saw_leaf

    def test_new_payload_roundtrip_preserves_store(self):
        X, y, classes = _legacy_training_rows("sea", 800)
        model = HoeffdingTreeClassifier(grace_period=80, split_confidence=0.05)
        model.partial_fit(X[:800], y[:800], classes=classes)
        clone = HoeffdingTreeClassifier.from_state(model.to_state())
        assert np.array_equal(
            clone.predict_proba(X[800:1000]), model.predict_proba(X[800:1000])
        )
        clone.partial_fit(X[800:1000], y[800:1000])
        model.partial_fit(X[800:1000], y[800:1000])
        assert np.array_equal(
            clone.predict_proba(X[:200]), model.predict_proba(X[:200])
        )
