"""Data-set, scenario and model registries of the reproduction.

The data-set registry mirrors Table I of the paper: ten real-world streams
(as surrogates, see :mod:`repro.streams.realworld`) and three synthetic
streams generated with the published SEA / Agrawal / Hyperplane definitions.
The model registry mirrors Section VI-C: the Dynamic Model Tree with the
configuration of Section V-D and the baselines with the configurations the
paper states.

Beyond the paper's grid, :data:`SCENARIO_REGISTRY` catalogues named stream
scenarios -- gradual/recurring/incremental drift, feature corruption, label
noise and prior shift.  Each is a pinned
:class:`~repro.streams.grammar.ScenarioProgram`, and ``fuzz-<seed>-<index>``
names denote programs sampled from the same grammar; both kinds compile
through :func:`~repro.streams.grammar.build_program` and run through the
parallel experiment engine (``python -m repro.experiments --scenarios`` or
``--fuzz-scenarios``).

Every factory takes a ``scale`` (fraction of the original stream length) and
a ``seed`` so that experiments are reproducible and laptop-sized by default.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import Callable

from repro.base import StreamClassifier
from repro.core.dmt import DynamicModelTree
from repro.ensembles.adaptive_random_forest import AdaptiveRandomForestClassifier
from repro.ensembles.leveraging_bagging import LeveragingBaggingClassifier
from repro.streams.base import Stream
from repro.streams.grammar import (
    LayerSpec,
    ScenarioProgram,
    build_program,
    sample_program,
)
from repro.streams.preprocessing import NormalizedStream
from repro.streams.realworld import REAL_WORLD_SPECS, make_surrogate
from repro.streams.scenarios import ScenarioPipeline
from repro.streams.synthetic import AgrawalGenerator, HyperplaneGenerator, SEAGenerator
from repro.trees.efdt import ExtremelyFastDecisionTreeClassifier
from repro.trees.fimtdd import FIMTDDClassifier
from repro.trees.hat import HoeffdingAdaptiveTreeClassifier
from repro.trees.vfdt import HoeffdingTreeClassifier


@dataclass(frozen=True)
class DatasetSpec:
    """One evaluation data set: metadata plus a stream factory."""

    name: str
    display_name: str
    n_samples: int
    n_features: int
    n_classes: int
    drift: str
    known_drift: bool
    factory: Callable[[float, int | None], Stream]


@dataclass(frozen=True)
class ModelSpec:
    """One evaluated model: display name, group and a factory."""

    name: str
    display_name: str
    group: str  # "standalone" or "ensemble"
    factory: Callable[[int | None], StreamClassifier]


# --------------------------------------------------------------------------
# Data sets (Table I)
# --------------------------------------------------------------------------
def _surrogate_factory(key: str) -> Callable[[float, int | None], Stream]:
    def factory(scale: float, seed: int | None) -> Stream:
        return make_surrogate(key, scale=scale, seed=seed)

    return factory


def _sea_factory(scale: float, seed: int | None) -> Stream:
    # The paper normalises all features to [0, 1]; the synthetic generators
    # produce their natural ranges, so the same online normalisation is
    # applied here.
    return NormalizedStream(
        SEAGenerator(n_samples=max(int(1_000_000 * scale), 500), noise=0.1, seed=seed)
    )


def _agrawal_factory(scale: float, seed: int | None) -> Stream:
    return NormalizedStream(
        AgrawalGenerator(
            n_samples=max(int(1_000_000 * scale), 500), perturbation=0.1, seed=seed
        )
    )


def _hyperplane_factory(scale: float, seed: int | None) -> Stream:
    return NormalizedStream(
        HyperplaneGenerator(
            n_samples=max(int(500_000 * scale), 500),
            n_features=50,
            n_drift_features=10,
            noise=0.1,
            seed=seed,
        )
    )


def _build_dataset_registry() -> dict[str, DatasetSpec]:
    registry: dict[str, DatasetSpec] = {}
    display = {
        "electricity": "Electricity",
        "airlines": "Airlines",
        "bank": "Bank",
        "tueyeq": "TüEyeQ",
        "poker": "Poker-Hand",
        "kdd": "KDDCup",
        "covertype": "Covertype",
        "gas": "Gas",
        "insects_abrupt": "Insects-Abrupt",
        "insects_incremental": "Insects-Incremental",
    }
    known_drift = {
        "tueyeq",
        "insects_abrupt",
        "insects_incremental",
    }
    for key, spec in REAL_WORLD_SPECS.items():
        registry[key] = DatasetSpec(
            name=key,
            display_name=display[key],
            n_samples=spec.n_samples,
            n_features=spec.n_features,
            n_classes=spec.n_classes,
            drift=spec.drift,
            known_drift=key in known_drift,
            factory=_surrogate_factory(key),
        )
    registry["sea"] = DatasetSpec(
        name="sea", display_name="SEA (synthetic, abrupt)", n_samples=1_000_000,
        n_features=3, n_classes=2, drift="abrupt", known_drift=True,
        factory=_sea_factory,
    )
    registry["agrawal"] = DatasetSpec(
        name="agrawal", display_name="Agrawal (synthetic, incremental)",
        n_samples=1_000_000, n_features=9, n_classes=2, drift="incremental",
        known_drift=True, factory=_agrawal_factory,
    )
    registry["hyperplane"] = DatasetSpec(
        name="hyperplane", display_name="Hyperplane (synthetic, incremental)",
        n_samples=500_000, n_features=50, n_classes=2, drift="incremental",
        known_drift=True, factory=_hyperplane_factory,
    )
    return registry


DATASET_REGISTRY: dict[str, DatasetSpec] = _build_dataset_registry()

#: Data sets used in Figure 3 of the paper (time-resolved drift behaviour).
FIGURE3_DATASETS = ("hyperplane", "sea", "insects_incremental", "tueyeq")


# --------------------------------------------------------------------------
# Stream scenarios (grammar programs: the catalogue and sampled fuzz names)
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class ScenarioSpec(DatasetSpec):
    """One named stream scenario: a :class:`DatasetSpec` (so the table and
    figure builders work on scenario grids unchanged) plus scenario-only
    metadata."""

    family: str  # "drift" | "corruption" | "label_noise" | "imbalance" | "composite"
    description: str


#: Nominal (scale=1.0) length of every scenario.
SCENARIO_NOMINAL_SAMPLES = 200_000

#: Registry-name prefix of grammar-sampled scenarios.
FUZZ_SCENARIO_PREFIX = "fuzz-"

_FUZZ_NAME = re.compile(
    re.escape(FUZZ_SCENARIO_PREFIX) + r"(0|[1-9][0-9]*)-(0|[1-9][0-9]*)"
)

#: Two stationary SEA concepts, theta 8 (concept 0) and theta 7 (concept 2).
_SEA_THETA_8 = LayerSpec.of("sea", noise=0.05, drift_positions=(), seed=1)
_SEA_THETA_7 = LayerSpec.of(
    "sea", noise=0.05, drift_positions=(), initial_concept=2, seed=2
)

#: The scenario catalogue: one pinned grammar program per name, beside its
#: display metadata (display name, drift label, family, description).  Seed
#: parameters are offsets that :func:`_run_seeded` maps onto a run seed; at
#: run seed 0 they are the seeds themselves, so each record is exactly the
#: program of run seed 0.
_CATALOGUE: dict[str, tuple[ScenarioProgram, str, str, str, str]] = {
    entry[0].name: entry
    for entry in (
        (
            ScenarioProgram(
                "sea_gradual", 0, _SEA_THETA_8, alternate=_SEA_THETA_7,
                drift=LayerSpec.of(
                    "drift_injector", mode="gradual", position=0.5, width=0.05,
                    seed=3,
                ),
            ),
            "SEA (gradual drift)", "gradual", "drift",
            "Sigmoid hand-over between two SEA concepts (theta 8 -> 7).",
        ),
        (
            ScenarioProgram(
                "sea_recurring", 0, _SEA_THETA_8, alternate=_SEA_THETA_7,
                drift=LayerSpec.of("drift_injector", mode="recurring", period=0.2),
            ),
            "SEA (recurring drift)", "recurring", "drift",
            "SEA concepts alternating every 20% of the stream.",
        ),
        (
            ScenarioProgram(
                "sine_incremental", 0,
                LayerSpec.of("sine", classification_function=0, seed=1),
                alternate=LayerSpec.of("sine", classification_function=1, seed=2),
                drift=LayerSpec.of(
                    "drift_injector", mode="incremental", position=0.35, width=0.3
                ),
            ),
            "Sine (incremental drift)", "incremental", "drift",
            "Features interpolate from SINE1 to reversed SINE1 over 30%.",
        ),
        (
            ScenarioProgram(
                "stagger_abrupt", 0,
                LayerSpec.of("stagger", classification_function=0, seed=1),
                alternate=LayerSpec.of("stagger", classification_function=2, seed=2),
                drift=LayerSpec.of("drift_injector", mode="abrupt", position=0.5),
            ),
            "STAGGER (abrupt drift)", "abrupt", "drift",
            "STAGGER concept 0 switches to concept 2 at midstream.",
        ),
        (
            ScenarioProgram(
                "agrawal_missing", 0,
                LayerSpec.of("agrawal", perturbation=0.1, drift_windows=(), seed=1),
                layers=(
                    LayerSpec.of(
                        "feature_corruptor", missing_rate=0.2, start=0.3, seed=2
                    ),
                ),
            ),
            "Agrawal (missing values)", "corruption", "corruption",
            "20% of feature cells go missing (MCAR) after 30% of the stream.",
        ),
        (
            ScenarioProgram(
                "hyperplane_noisy", 0,
                LayerSpec.of(
                    "hyperplane", n_features=20, n_drift_features=5, noise=0.05,
                    seed=1,
                ),
                layers=(
                    LayerSpec.of("feature_corruptor", noise_std=0.3, start=0.5, seed=2),
                ),
            ),
            "Hyperplane (sensor noise)", "corruption", "corruption",
            "Gaussian sensor noise (std 0.3) after 50% of the stream.",
        ),
        (
            ScenarioProgram(
                "waveform_swap", 0, LayerSpec.of("waveform", seed=1),
                layers=(
                    LayerSpec.of(
                        "feature_corruptor", swap=((0, 14), (3, 17), (7, 20)),
                        start=0.5,
                    ),
                ),
            ),
            "Waveform (feature swap)", "corruption", "corruption",
            "Three feature pairs swap columns (rewired sensors) at 50%.",
        ),
        (
            ScenarioProgram(
                "led_label_noise", 0, LayerSpec.of("led", noise=0.05, seed=1),
                layers=(LayerSpec.of("label_noiser", noise=0.25, start=0.5, seed=2),),
            ),
            "LED (label noise)", "label_noise", "label_noise",
            "25% uniform label flips in the second half of the stream.",
        ),
        (
            # RBF's natural prior is near-uniform (~1/3 each), so with the
            # base over-generated 1.5x a class can be pushed up to roughly
            # half the stream; the target squeezes the third class to 5%
            # within that supply limit.
            ScenarioProgram(
                "rbf_imbalance", 0,
                LayerSpec.of(
                    "rbf", n_features=8, n_classes=3, n_centroids=30, seed=1
                ),
                layers=(
                    LayerSpec.of(
                        "imbalance_shifter", class_weights=(0.5, 0.45, 0.05),
                        start=0.25, end=0.75, oversample=1.5,
                    ),
                ),
                oversample=1.5,
            ),
            "RBF (prior shift)", "imbalance", "imbalance",
            "Class prior ramps to (0.5, 0.45, 0.05) between 25% and 75%.",
        ),
        (
            ScenarioProgram(
                "electricity_corrupted", 0, LayerSpec.of("electricity", seed=1),
                layers=(
                    LayerSpec.of(
                        "feature_corruptor", missing_rate=0.1, noise_std=0.1,
                        start=0.2, seed=2,
                    ),
                    LayerSpec.of("label_noiser", noise=0.1, start=0.6, seed=3),
                ),
            ),
            "Electricity (corrupted)", "composite", "composite",
            "Electricity surrogate + missing values + noise + label flips.",
        ),
        (
            ScenarioProgram(
                "sea_storm", 0, _SEA_THETA_8, alternate=_SEA_THETA_7,
                drift=LayerSpec.of("drift_injector", mode="recurring", period=0.25),
                layers=(
                    LayerSpec.of(
                        "feature_corruptor", missing_rate=0.1, noise_std=0.2,
                        start=0.4, seed=3,
                    ),
                    LayerSpec.of("label_noiser", noise=0.15, start=0.6, seed=4),
                ),
            ),
            "SEA (storm)", "composite", "composite",
            "Recurring drift plus feature corruption plus label noise.",
        ),
    )
}


def _run_seeded(program: ScenarioProgram, seed: int | None) -> ScenarioProgram:
    """A catalogue program re-seeded for run seed ``seed``.

    The only place that knows the convention: each ``seed`` parameter of a
    catalogue program is an offset k, which becomes ``seed * 1000 + k``
    (``None`` for an unseeded run), so a scenario's sources are independent
    of each other and follow the run seed.
    """

    def reseed(spec: LayerSpec) -> LayerSpec:
        params = spec.kwargs()
        offset = params.get("seed")
        if isinstance(offset, int):
            params["seed"] = None if seed is None else seed * 1_000 + offset
        return LayerSpec.of(spec.kind, **params)

    return replace(
        program,
        seed=seed,
        base=reseed(program.base),
        alternate=None if program.alternate is None else reseed(program.alternate),
        drift=None if program.drift is None else reseed(program.drift),
        layers=tuple(reseed(layer) for layer in program.layers),
    )


def parse_fuzz_name(name: str) -> tuple[int, int] | None:
    """``(seed, index)`` of a ``fuzz-<seed>-<index>`` name, else ``None``.

    Both parts are ASCII decimals without leading zeros, so every sampled
    program has exactly one name.
    """
    match = _FUZZ_NAME.fullmatch(name)
    if match is None:
        return None
    return int(match[1]), int(match[2])


def fuzz_scenario_names(seed: int, count: int) -> list[str]:
    """Registry names of the first ``count`` programs of fuzz seed ``seed``."""
    return [f"{FUZZ_SCENARIO_PREFIX}{seed}-{index}" for index in range(count)]


def scenario_program(name: str, seed: int | None = 42) -> ScenarioProgram:
    """The grammar program a scenario name denotes under run seed ``seed``.

    A catalogued name yields its pinned program re-seeded for the run; a
    ``fuzz-<seed>-<index>`` program is a pure function of its name: the run
    seed is deliberately ignored, so any worker, given just the registry
    name, rebuilds the bit-identical scenario.
    """
    parsed = parse_fuzz_name(name)
    if parsed is not None:
        return sample_program(*parsed)
    if name not in _CATALOGUE:
        raise KeyError(
            f"Unknown scenario {name!r}; available: {sorted(_CATALOGUE)} or a "
            f"sampled program '{FUZZ_SCENARIO_PREFIX}<seed>-<index>'."
        )
    return _run_seeded(_CATALOGUE[name][0], seed)


def build_scenario_pipeline(
    name: str, n_samples: int, seed: int | None = 42
) -> ScenarioPipeline:
    """Build the raw (un-normalised) pipeline of a catalogued or sampled scenario.

    Exposed separately from the registry factories so tests and benchmarks
    can exercise the exact transform stack without the online normalisation
    wrapper (which is consumption-order dependent by design).
    """
    return build_program(scenario_program(name, seed), n_samples)


def _scenario_factory(name: str) -> Callable[[float, int | None], Stream]:
    def factory(scale: float, seed: int | None) -> Stream:
        n_samples = max(int(SCENARIO_NOMINAL_SAMPLES * scale), 500)
        return NormalizedStream(build_scenario_pipeline(name, n_samples, seed))

    return factory


def _scenario_spec(
    name: str,
    program: ScenarioProgram,
    display_name: str,
    drift: str,
    known_drift: bool,
    family: str,
    description: str,
) -> ScenarioSpec:
    """The spec of a scenario; its shape is read off the built ``program``."""
    probe = build_program(program, 500)
    return ScenarioSpec(
        name=name,
        display_name=display_name,
        n_samples=SCENARIO_NOMINAL_SAMPLES,
        n_features=probe.n_features,
        n_classes=probe.n_classes,
        drift=drift,
        known_drift=known_drift,
        family=family,
        description=description,
        factory=_scenario_factory(name),
    )


SCENARIO_REGISTRY: dict[str, ScenarioSpec] = {
    name: _scenario_spec(
        name, program, display, drift, known_drift=True, family=family,
        description=description,
    )
    for name, (program, display, drift, family, description) in _CATALOGUE.items()
}

_FUZZ_SPEC_CACHE: dict[str, ScenarioSpec] = {}


def get_fuzz_spec(name: str) -> ScenarioSpec:
    """Synthesise (and cache) the spec of a grammar-sampled scenario.

    ``fuzz-<seed>-<index>`` names are self-describing: the program is
    re-sampled from the embedded seed and index, so specs need no shared
    state -- a parallel worker in a fresh process resolves the name exactly
    like the submitting process did.
    """
    spec = _FUZZ_SPEC_CACHE.get(name)
    if spec is not None:
        return spec
    parsed = parse_fuzz_name(name)
    if parsed is None:
        raise KeyError(
            f"Malformed fuzz scenario name {name!r}; expected "
            f"'{FUZZ_SCENARIO_PREFIX}<seed>-<index>'."
        )
    program = scenario_program(name)
    drift = (
        program.drift.kind.replace("_", " ") if program.drift is not None else "none"
    )
    spec = _scenario_spec(
        name,
        program,
        display_name=f"Fuzz {parsed[0]}/{parsed[1]}",
        drift=drift,
        known_drift=program.drift is not None,
        family="fuzz",
        description=program.describe(),
    )
    _FUZZ_SPEC_CACHE[name] = spec
    return spec


# --------------------------------------------------------------------------
# Models (Section VI-C)
# --------------------------------------------------------------------------
def _vfdt_factory(**kwargs) -> Callable[[int | None], StreamClassifier]:
    def factory(seed: int | None) -> StreamClassifier:
        return HoeffdingTreeClassifier(**kwargs)

    return factory


def _build_model_registry() -> dict[str, ModelSpec]:
    registry: dict[str, ModelSpec] = {}
    registry["dmt"] = ModelSpec(
        name="dmt", display_name="DMT (ours)", group="standalone",
        factory=lambda seed: DynamicModelTree(
            learning_rate=0.05, epsilon=1e-8, random_state=seed
        ),
    )
    registry["fimtdd"] = ModelSpec(
        name="fimtdd", display_name="FIMT-DD", group="standalone",
        factory=lambda seed: FIMTDDClassifier(
            learning_rate=0.01, split_confidence=0.01, tie_threshold=0.05,
            random_state=seed,
        ),
    )
    registry["vfdt_mc"] = ModelSpec(
        name="vfdt_mc", display_name="VFDT (MC)", group="standalone",
        factory=lambda seed: HoeffdingTreeClassifier(leaf_prediction="mc"),
    )
    registry["vfdt_nba"] = ModelSpec(
        name="vfdt_nba", display_name="VFDT (NBA)", group="standalone",
        factory=lambda seed: HoeffdingTreeClassifier(leaf_prediction="nba"),
    )
    registry["ht_ada"] = ModelSpec(
        name="ht_ada", display_name="HT-ADA", group="standalone",
        factory=lambda seed: HoeffdingAdaptiveTreeClassifier(leaf_prediction="mc"),
    )
    registry["efdt"] = ModelSpec(
        name="efdt", display_name="EFDT", group="standalone",
        factory=lambda seed: ExtremelyFastDecisionTreeClassifier(
            leaf_prediction="mc", reevaluation_period=1000
        ),
    )
    registry["arf"] = ModelSpec(
        name="arf", display_name="Forest Ens.", group="ensemble",
        factory=lambda seed: AdaptiveRandomForestClassifier(
            n_estimators=3, random_state=seed
        ),
    )
    registry["leveraging_bagging"] = ModelSpec(
        name="leveraging_bagging", display_name="Bagging Ens.", group="ensemble",
        factory=lambda seed: LeveragingBaggingClassifier(
            n_estimators=3, random_state=seed
        ),
    )
    return registry


MODEL_REGISTRY: dict[str, ModelSpec] = _build_model_registry()

#: Stand-alone models compared in Tables III-V and the figures.
STANDALONE_MODELS = ("dmt", "fimtdd", "vfdt_mc", "vfdt_nba", "ht_ada", "efdt")


# --------------------------------------------------------------------------
# Convenience accessors
# --------------------------------------------------------------------------
def dataset_names() -> list[str]:
    """Names of all registered data sets, in the paper's ordering."""
    return list(DATASET_REGISTRY)


def scenario_names() -> list[str]:
    """Names of all catalogued stream scenarios."""
    return list(SCENARIO_REGISTRY)


def model_names(include_ensembles: bool = True) -> list[str]:
    """Names of all registered models."""
    names = list(MODEL_REGISTRY)
    if include_ensembles:
        return names
    return [name for name in names if MODEL_REGISTRY[name].group == "standalone"]


def get_dataset_spec(name: str) -> DatasetSpec:
    """Spec of a registered data set, scenario or fuzz program.

    ``fuzz-<seed>-<index>`` names are synthesised on demand from the
    scenario grammar (:func:`get_fuzz_spec`); everything else resolves
    through the shared data-set/scenario key space.
    """
    spec = DATASET_REGISTRY.get(name) or SCENARIO_REGISTRY.get(name)
    if spec is None and name.startswith(FUZZ_SCENARIO_PREFIX):
        return get_fuzz_spec(name)
    if spec is None:
        raise KeyError(
            f"Unknown dataset {name!r}; available datasets: "
            f"{sorted(DATASET_REGISTRY)}; scenarios: {sorted(SCENARIO_REGISTRY)}; "
            f"or a sampled program '{FUZZ_SCENARIO_PREFIX}<seed>-<index>'."
        )
    return spec


def make_dataset(name: str, scale: float = 0.02, seed: int | None = 42) -> Stream:
    """Instantiate a registered data set or scenario at the given scale."""
    return get_dataset_spec(name).factory(scale, seed)


def make_model(name: str, seed: int | None = 42) -> StreamClassifier:
    """Instantiate a registered model with the paper's configuration."""
    if name not in MODEL_REGISTRY:
        raise KeyError(
            f"Unknown model {name!r}; available: {sorted(MODEL_REGISTRY)}."
        )
    return MODEL_REGISTRY[name].factory(seed)
