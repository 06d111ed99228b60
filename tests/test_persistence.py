"""Serialization round-trips: every learner and detector saves, reloads and
behaves bit-identically afterwards."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import (
    AdaptiveRandomForestClassifier,
    DynamicModelTree,
    ExtremelyFastDecisionTreeClassifier,
    FIMTDDClassifier,
    HoeffdingAdaptiveTreeClassifier,
    HoeffdingTreeClassifier,
    LeveragingBaggingClassifier,
    load_model,
    save_model,
)
from repro.drift import ADWIN, DDM, EDDM, KSWIN, PageHinkley
from repro.ensembles.bagging import OzaBaggingClassifier
from repro.persistence import (
    FORMAT_VERSION,
    PersistableStateMixin,
    SerializationError,
    from_state,
    read_header,
    register,
    registered_classes,
    resolve,
    to_state,
)
from tests.conftest import make_linear_binary, make_multiclass_blobs, make_xor


def _train(model, X, y, classes, batch: int = 100):
    for start in range(0, len(X), batch):
        model.partial_fit(X[start : start + batch], y[start : start + batch], classes=classes)
    return model


MODEL_FACTORIES = {
    "dmt": lambda: DynamicModelTree(random_state=0),
    "vfdt_mc": lambda: HoeffdingTreeClassifier(grace_period=50),
    "vfdt_nba": lambda: HoeffdingTreeClassifier(grace_period=50, leaf_prediction="nba"),
    "hat": lambda: HoeffdingAdaptiveTreeClassifier(grace_period=50),
    "efdt": lambda: ExtremelyFastDecisionTreeClassifier(grace_period=50),
    "fimtdd": lambda: FIMTDDClassifier(random_state=0),
    "oza_bagging": lambda: OzaBaggingClassifier(n_estimators=3, random_state=0),
    "leveraging_bagging": lambda: LeveragingBaggingClassifier(
        n_estimators=3, random_state=0
    ),
    "arf": lambda: AdaptiveRandomForestClassifier(n_estimators=3, random_state=0),
}


class TestModelRoundTrips:
    @pytest.mark.parametrize("name", sorted(MODEL_FACTORIES))
    def test_round_trip_is_bit_identical_on_heldout_data(self, name, tmp_path):
        X, y = make_xor(1000, seed=3)
        model = _train(MODEL_FACTORIES[name](), X, y, classes=[0, 1])
        path = tmp_path / f"{name}.json"
        save_model(model, path)
        clone = load_model(path)

        X_heldout, _ = make_xor(300, seed=99)
        assert np.array_equal(
            model.predict_proba(X_heldout), clone.predict_proba(X_heldout)
        )
        assert np.array_equal(model.predict(X_heldout), clone.predict(X_heldout))

    @pytest.mark.parametrize(
        "name", ["dmt", "vfdt_mc", "leveraging_bagging", "arf", "fimtdd"]
    )
    def test_round_trip_preserves_future_training(self, name, tmp_path):
        """RNG and statistics state survive: continued training stays identical."""
        X, y = make_xor(800, seed=5)
        model = _train(MODEL_FACTORIES[name](), X, y, classes=[0, 1])
        clone = load_model(save_model(model, tmp_path / f"{name}.json"))

        X_more, y_more = make_xor(400, seed=6)
        _train(model, X_more, y_more, classes=[0, 1])
        _train(clone, X_more, y_more, classes=[0, 1])
        assert np.array_equal(model.predict_proba(X_more), clone.predict_proba(X_more))

    def test_round_trip_multiclass(self, tmp_path):
        X, y = make_multiclass_blobs(900, n_classes=3, n_features=4, seed=2)
        model = _train(DynamicModelTree(random_state=1), X, y, classes=[0, 1, 2])
        clone = load_model(save_model(model, tmp_path / "dmt3.json"))
        assert np.array_equal(model.predict_proba(X), clone.predict_proba(X))

    def test_round_trip_preserves_complexity_and_structure(self, tmp_path):
        X, y = make_xor(4000, seed=1)
        model = _train(DynamicModelTree(random_state=1), X * 3.0, y, classes=[0, 1])
        clone = load_model(save_model(model, tmp_path / "dmt.json"))
        assert clone.n_nodes == model.n_nodes
        assert clone.n_leaves == model.n_leaves
        assert clone.depth == model.depth
        assert clone.complexity() == model.complexity()

    def test_state_dict_round_trip_without_files(self):
        X, y = make_linear_binary(500, n_features=3, seed=4)
        model = _train(DynamicModelTree(random_state=2), X, y, classes=[0, 1])
        clone = DynamicModelTree.from_state(model.to_state())
        assert np.array_equal(model.predict_proba(X), clone.predict_proba(X))

    def test_from_state_rejects_wrong_class(self):
        X, y = make_linear_binary(300, n_features=3, seed=4)
        model = _train(HoeffdingTreeClassifier(grace_period=50), X, y, classes=[0, 1])
        with pytest.raises(TypeError, match="HoeffdingTreeClassifier"):
            DynamicModelTree.from_state(model.to_state())


#: Classes whose instances stored a ``vectorized`` attribute in the model
#: files written while the models had that option.
_FLAGGED_CLASSES = {
    "AdaptiveRandomForestClassifier",
    "CandidateManager",
    "DynamicModelTree",
    "ExtremelyFastDecisionTreeClassifier",
    "FIMTDDClassifier",
    "HoeffdingAdaptiveTreeClassifier",
    "HoeffdingTreeClassifier",
    "IncrementalGLM",
    "LeveragingBaggingClassifier",
    "OzaBaggingClassifier",
}


def _inject_vectorized_flag(node) -> int:
    """Store ``"vectorized": false`` in every flagged object of a state tree."""
    injected = 0
    if isinstance(node, dict):
        if node.get("__repro__") == "object" and node["class"] in _FLAGGED_CLASSES:
            node["state"]["vectorized"] = False
            injected += 1
        for value in node.values():
            injected += _inject_vectorized_flag(value)
    elif isinstance(node, list):
        for value in node:
            injected += _inject_vectorized_flag(value)
    return injected


class TestLegacyVectorizedFlag:
    """Files that stored the retired ``vectorized`` option keep loading."""

    @pytest.mark.parametrize("name", ["dmt", "vfdt_mc", "hat", "fimtdd", "arf"])
    def test_stored_flag_loads_predicts_and_trains_identically(self, name):
        X, y = make_xor(4000, seed=1)
        model = _train(MODEL_FACTORIES[name](), X * 3.0, y, classes=[0, 1])
        state = model.to_state()
        assert _inject_vectorized_flag(state) >= 1
        legacy = from_state(json.loads(json.dumps(state)))

        X_more, y_more = make_xor(600, seed=8)
        X_more = X_more * 3.0
        assert (
            legacy.predict_proba(X_more).tobytes()
            == model.predict_proba(X_more).tobytes()
        )
        _train(model, X_more, y_more, classes=[0, 1])
        _train(legacy, X_more, y_more, classes=[0, 1])
        assert (
            legacy.predict_proba(X * 3.0).tobytes()
            == model.predict_proba(X * 3.0).tobytes()
        )


class TestLinearModelRoundTrips:
    def test_incremental_glm_round_trip(self, tmp_path):
        from repro.linear.glm import IncrementalGLM

        X, y = make_linear_binary(1000, n_features=4, seed=8)
        model = IncrementalGLM(n_features=4, n_classes=2, rng=0)
        model.fit_incremental(X, y)
        clone = load_model(save_model(model, tmp_path / "glm.json"))
        assert np.array_equal(model.weights, clone.weights)
        assert np.array_equal(model.predict_proba(X), clone.predict_proba(X))

        # Weights keep evolving identically after the round trip.
        X_more, y_more = make_linear_binary(200, n_features=4, seed=9)
        model.fit_incremental(X_more, y_more)
        clone.fit_incremental(X_more, y_more)
        assert np.array_equal(model.weights, clone.weights)

    def test_multinomial_glm_round_trip(self, tmp_path):
        from repro.linear.glm import IncrementalGLM

        X, y = make_multiclass_blobs(1000, n_classes=3, n_features=4, seed=8)
        model = IncrementalGLM(n_features=4, n_classes=3, rng=0)
        model.fit_incremental(X, y)
        clone = load_model(save_model(model, tmp_path / "glm3.json"))
        assert np.array_equal(model.predict_proba(X), clone.predict_proba(X))

    def test_gaussian_naive_bayes_round_trip(self, tmp_path):
        from repro.linear.naive_bayes import GaussianNaiveBayes

        X, y = make_multiclass_blobs(1000, n_classes=3, n_features=4, seed=8)
        model = GaussianNaiveBayes(n_features=4, n_classes=3)
        model.update(X, y)
        clone = load_model(save_model(model, tmp_path / "gnb.json"))
        assert np.array_equal(model.predict_proba(X), clone.predict_proba(X))


class TestDriftDetectorRoundTrips:
    DETECTOR_FACTORIES = {
        "adwin": lambda: ADWIN(),
        "ddm": lambda: DDM(),
        "eddm": lambda: EDDM(),
        "kswin": lambda: KSWIN(window_size=60, stat_size=20, seed=1),
        "page_hinkley": lambda: PageHinkley(threshold=5.0),
    }

    @pytest.mark.parametrize("name", sorted(DETECTOR_FACTORIES))
    def test_round_trip_preserves_detection_state(self, name, tmp_path):
        rng = np.random.default_rng(11)
        values = (rng.random(600) < 0.2).astype(float)
        detector = self.DETECTOR_FACTORIES[name]()
        for value in values[:400]:
            detector.update(value)

        clone = load_model(save_model(detector, tmp_path / f"{name}.json"))
        assert clone.n_observations == detector.n_observations

        # Future detections (on a shifted signal) must match exactly.
        drifted = (rng.random(400) < 0.7).astype(float)
        original_flags = [detector.update(value) for value in drifted]
        clone_flags = [clone.update(value) for value in drifted]
        assert original_flags == clone_flags
        assert detector.in_drift == clone.in_drift
        assert detector.in_warning == clone.in_warning


class TestFormatAndErrors:
    def test_header_fields(self, tmp_path):
        X, y = make_linear_binary(200, n_features=3, seed=0)
        model = _train(DynamicModelTree(random_state=0), X, y, classes=[0, 1])
        path = save_model(model, tmp_path / "model.json")
        header = read_header(path)
        assert header["format"] == "repro-model"
        assert header["format_version"] == FORMAT_VERSION
        assert header["class"] == "DynamicModelTree"

    def test_file_is_plain_json(self, tmp_path):
        X, y = make_linear_binary(200, n_features=3, seed=0)
        model = _train(DynamicModelTree(random_state=0), X, y, classes=[0, 1])
        path = save_model(model, tmp_path / "model.json")
        with open(path) as handle:
            document = json.load(handle)
        assert document["class"] == "DynamicModelTree"

    def test_rejects_foreign_document(self):
        with pytest.raises(SerializationError, match="format"):
            from_state({"hello": "world"})

    def test_rejects_newer_format_version(self):
        with pytest.raises(SerializationError, match="format_version"):
            from_state(
                {
                    "format": "repro-model",
                    "format_version": FORMAT_VERSION + 1,
                    "class": "DynamicModelTree",
                    "payload": None,
                }
            )

    def test_rejects_unknown_class(self):
        with pytest.raises(KeyError, match="Unknown serialized class"):
            from_state(
                {
                    "format": "repro-model",
                    "format_version": FORMAT_VERSION,
                    "class": "NoSuchModel",
                    "payload": None,
                }
            )

    def test_unregistered_factory_raises_clear_error(self):
        X, y = make_linear_binary(300, n_features=3, seed=0)
        model = OzaBaggingClassifier(
            n_estimators=2,
            base_estimator_factory=lambda: HoeffdingTreeClassifier(grace_period=50),
            random_state=0,
        )
        _train(model, X, y, classes=[0, 1])
        with pytest.raises(SerializationError, match="not registered"):
            to_state(model)

    def test_default_factory_class_is_serialisable(self, tmp_path):
        """The default factory is the class itself -- stored as a class ref."""
        X, y = make_linear_binary(300, n_features=3, seed=0)
        model = _train(
            OzaBaggingClassifier(n_estimators=2, random_state=0), X, y, classes=[0, 1]
        )
        clone = load_model(save_model(model, tmp_path / "bagging.json"))
        assert clone.base_estimator_factory is HoeffdingTreeClassifier

    def test_atomic_save_leaves_no_temp_files(self, tmp_path):
        X, y = make_linear_binary(200, n_features=3, seed=0)
        model = _train(DynamicModelTree(random_state=0), X, y, classes=[0, 1])
        save_model(model, tmp_path / "model.json")
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []


# ------------------------------------------------------------ registration

LEGACY_DIR = Path(__file__).parent / "golden" / "legacy_baselines"


class _Tally(PersistableStateMixin):
    """A downstream persistable class, registered by subclassing alone."""

    def __init__(self, counts: dict[str, int]) -> None:
        self.counts = counts


class _MisspeltCache(PersistableStateMixin):
    """Its ``_repro_transient`` names ``_cahce``, but the cache is ``_cache``."""

    _repro_transient = ("_cahce",)

    def __init__(self) -> None:
        self._init_transient()

    def _init_transient(self) -> None:
        self._cache: dict[str, int] = {}


class TestRegistrationByConstruction:
    def test_mixin_subclass_round_trips_without_register(self, tmp_path):
        clone = load_model(save_model(_Tally({"a": 1}), tmp_path / "tally.json"))
        assert isinstance(clone, _Tally)
        assert clone.counts == {"a": 1}

    def test_second_class_under_a_registered_qualname_raises(self):
        with pytest.raises(ValueError, match="already taken"):
            type("DynamicModelTree", (PersistableStateMixin,), {})
        assert resolve("DynamicModelTree") is DynamicModelTree

    def test_transient_without_init_hook_raises_at_definition(self):
        with pytest.raises(TypeError, match="_init_transient"):
            type("_NoRebuild", (PersistableStateMixin,), {"_repro_transient": ("_c",)})
        assert "_NoRebuild" not in registered_classes()
        with pytest.raises(TypeError, match="_init_transient"):

            @register
            class _PlainNoRebuild:
                _repro_transient = ("_c",)

    def test_class_defined_in_a_function_is_not_registered(self):
        """Each call redefines it, so it opts in with an explicit register()."""

        def make() -> type:
            class Local(PersistableStateMixin):
                pass

            return Local

        first, second = make(), make()
        assert first is not second
        assert first not in registered_classes().values()

    def test_transient_typo_fails_the_first_load(self, tmp_path):
        path = save_model(_MisspeltCache(), tmp_path / "cache.json")
        with pytest.raises(SerializationError, match="_cahce"):
            load_model(path)

    def test_loading_needs_only_the_persistence_import(self, tmp_path):
        """A fresh process importing only ``repro.persistence`` can resolve
        every shipped class: they register where they are defined."""
        X, y = make_xor(400, seed=0)
        model = _train(DynamicModelTree(random_state=0), X * 3, y, classes=[0, 1])
        paths = sorted(str(path) for path in LEGACY_DIR.glob("*.json"))
        paths.append(save_model(model, tmp_path / "dmt.json"))
        script = (
            "import sys\n"
            "from repro.persistence import load_model\n"
            "for path in sys.argv[1:]:\n"
            "    print(type(load_model(path)).__qualname__)\n"
        )
        src = Path(repro.__file__).resolve().parent.parent
        result = subprocess.run(
            [sys.executable, "-c", script, *paths],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert result.returncode == 0, result.stderr
        assert len(paths) == 6
        assert result.stdout.split() == [read_header(path)["class"] for path in paths]
