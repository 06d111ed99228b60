"""Synthetic surrogates for the paper's real-world data sets.

The paper evaluates on ten real-world tabular streams (Table I) obtained from
OpenML, the UCI repository and two dedicated collections (TüEyeQ, Insects).
Those files are not redistributable with this repository and are unavailable
offline, so every data set is replaced by a *surrogate generator* that
reproduces the properties that drive the comparative behaviour of the
evaluated models:

* number of features, number of classes and stream length (scaled),
* the class-imbalance ratio reported in Table I,
* the drift structure described in Section VI-B (e.g. the four task blocks
  of TüEyeQ, the abrupt/incremental drift of the Insects streams, the sensor
  drift of Gas, the cyclic price dynamics of Electricity).

Surrogates are class-conditional Gaussian mixtures whose class prototypes
move over time according to the drift type.  This docstring documents the
substitution; it is not a claim of distributional equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.streams.base import SeededStream
from repro.utils.validation import check_in_range


@dataclass(frozen=True)
class SurrogateSpec:
    """Static description of one surrogate data set."""

    name: str
    n_samples: int
    n_features: int
    n_classes: int
    majority_fraction: float
    drift: str  # "none" | "abrupt" | "incremental" | "cyclic"
    n_drift_events: int = 0
    informative_fraction: float = 0.5
    noise_std: float = 0.18
    notes: str = ""


#: Table I of the paper, translated into surrogate specifications.
REAL_WORLD_SPECS: dict[str, SurrogateSpec] = {
    "electricity": SurrogateSpec(
        name="electricity", n_samples=45_312, n_features=8, n_classes=2,
        majority_fraction=26_075 / 45_312, drift="cyclic", n_drift_events=8,
        notes="Price up/down in the NSW electricity market; cyclic demand/supply drift.",
    ),
    "airlines": SurrogateSpec(
        name="airlines", n_samples=539_383, n_features=7, n_classes=2,
        majority_fraction=299_119 / 539_383, drift="incremental", n_drift_events=3,
        notes="Flight delay prediction; gradual seasonal drift.",
    ),
    "bank": SurrogateSpec(
        name="bank", n_samples=45_211, n_features=16, n_classes=2,
        majority_fraction=39_922 / 45_211, drift="none",
        notes="Portuguese bank marketing campaign; strong class imbalance.",
    ),
    "tueyeq": SurrogateSpec(
        name="tueyeq", n_samples=15_762, n_features=76, n_classes=2,
        majority_fraction=12_975 / 15_762, drift="abrupt", n_drift_events=3,
        informative_fraction=0.3,
        notes="IQ-test pass/fail; four task blocks give abrupt drift.",
    ),
    "poker": SurrogateSpec(
        name="poker", n_samples=1_025_000, n_features=10, n_classes=9,
        majority_fraction=513_701 / 1_025_000, drift="none",
        informative_fraction=1.0, noise_std=0.25,
        notes="Poker hands; hard multiclass problem without known drift.",
    ),
    "kdd": SurrogateSpec(
        name="kdd", n_samples=494_020, n_features=41, n_classes=23,
        majority_fraction=280_790 / 494_020, drift="none",
        notes="KDD Cup 1999 intrusion detection; shuffled, hence no drift.",
    ),
    "covertype": SurrogateSpec(
        name="covertype", n_samples=581_012, n_features=54, n_classes=7,
        majority_fraction=283_301 / 581_012, drift="incremental", n_drift_events=2,
        notes="Forest cover types; mild spatial/temporal drift.",
    ),
    "gas": SurrogateSpec(
        name="gas", n_samples=13_910, n_features=128, n_classes=6,
        majority_fraction=3_009 / 13_910, drift="incremental", n_drift_events=4,
        informative_fraction=0.25,
        notes="Chemical gas sensors; pronounced sensor drift.",
    ),
    "insects_abrupt": SurrogateSpec(
        name="insects_abrupt", n_samples=355_275, n_features=33, n_classes=6,
        majority_fraction=101_256 / 355_275, drift="abrupt", n_drift_events=5,
        notes="Flying-insect sensors with controlled abrupt drift.",
    ),
    "insects_incremental": SurrogateSpec(
        name="insects_incremental", n_samples=452_044, n_features=33, n_classes=6,
        majority_fraction=134_717 / 452_044, drift="incremental", n_drift_events=4,
        notes="Flying-insect sensors with controlled incremental drift.",
    ),
}

_VALID_DRIFTS = {"none", "abrupt", "incremental", "cyclic"}


def _class_weights(n_classes: int, majority_fraction: float) -> np.ndarray:
    """Class prior with the given majority fraction and geometric tail."""
    if n_classes == 2:
        return np.array([majority_fraction, 1.0 - majority_fraction])
    remaining = 1.0 - majority_fraction
    tail = np.array([0.7**k for k in range(n_classes - 1)])
    tail = tail / tail.sum() * remaining
    return np.concatenate([[majority_fraction], tail])


class SurrogateStream(SeededStream):
    """Class-conditional Gaussian stream with configurable concept drift.

    Parameters
    ----------
    n_samples, n_features, n_classes:
        Shape of the stream.
    class_weights:
        Class prior (defaults to uniform).
    drift:
        ``"none"``, ``"abrupt"``, ``"incremental"`` or ``"cyclic"``.
    n_drift_events:
        Number of drift events (abrupt switches, incremental waypoints or
        cycles, depending on ``drift``).
    informative_fraction:
        Fraction of features whose class prototypes actually differ between
        classes; the rest are noise dimensions shared by all classes.
    noise_std:
        Standard deviation of the additive Gaussian noise around the class
        prototype (controls class overlap / achievable accuracy).
    correlation:
        Strength of the cross-feature noise correlation in ``[0, 1)``.  Real
        tabular data has strongly correlated columns, which is exactly what
        breaks the independence assumption of Naive-Bayes-style leaf models;
        a value of 0 reproduces independent noise.
    seed:
        Random seed.
    name:
        Optional identifier (used by the experiment registry).
    """

    def __init__(
        self,
        n_samples: int,
        n_features: int,
        n_classes: int,
        class_weights: np.ndarray | None = None,
        drift: str = "none",
        n_drift_events: int = 0,
        informative_fraction: float = 0.5,
        noise_std: float = 0.18,
        correlation: float = 0.5,
        seed: int | None = None,
        name: str = "surrogate",
    ) -> None:
        super().__init__(
            n_samples=n_samples, n_features=n_features, n_classes=n_classes, seed=seed
        )
        if drift not in _VALID_DRIFTS:
            raise ValueError(f"drift must be one of {sorted(_VALID_DRIFTS)}, got {drift!r}.")
        check_in_range(informative_fraction, "informative_fraction", 0.0, 1.0)
        if noise_std <= 0:
            raise ValueError(f"noise_std must be > 0, got {noise_std!r}.")
        if not 0.0 <= correlation < 1.0:
            raise ValueError(f"correlation must be in [0, 1), got {correlation!r}.")
        if class_weights is None:
            class_weights = np.full(n_classes, 1.0 / n_classes)
        class_weights = np.asarray(class_weights, dtype=float)
        if len(class_weights) != n_classes:
            raise ValueError("class_weights must have one entry per class.")
        if not np.isclose(class_weights.sum(), 1.0):
            raise ValueError("class_weights must sum to one.")
        self.class_weights = class_weights
        self.drift = drift
        self.n_drift_events = max(int(n_drift_events), 0)
        self.informative_fraction = float(informative_fraction)
        self.noise_std = float(noise_std)
        self.correlation = float(correlation)
        self.name = name

    def _init_transient(self) -> None:
        super()._init_transient()
        self._concept: dict | None = None

    _repro_transient = SeededStream._repro_transient + ("_concept",)

    # ------------------------------------------------------------- concepts
    def _concept_draws(self) -> dict:
        """Class prototypes of every concept plus the latent-factor loadings."""
        if self._concept is not None:
            return self._concept
        setup_rng = self.setup_rng()
        n_informative = max(int(round(self.informative_fraction * self.n_features)), 1)
        informative = setup_rng.choice(
            self.n_features, size=n_informative, replace=False
        )
        informative = np.sort(informative)
        n_concepts = 1
        if self.drift == "abrupt":
            n_concepts = self.n_drift_events + 1
        elif self.drift == "incremental":
            n_concepts = max(self.n_drift_events + 1, 2)
        elif self.drift == "cyclic":
            n_concepts = 2
        prototypes = np.full(
            (n_concepts, self.n_classes, self.n_features), 0.5
        )
        shared_noise_profile = setup_rng.uniform(0.3, 0.7, size=self.n_features)
        prototypes[:, :, :] = shared_noise_profile
        for concept in range(n_concepts):
            for class_idx in range(self.n_classes):
                prototypes[concept, class_idx, informative] = (
                    setup_rng.uniform(0.1, 0.9, size=len(informative))
                )
        # Fixed per-feature loadings on a shared latent factor: the noise of
        # all features co-moves, emulating the correlated columns of real
        # tabular data (and breaking feature-independence assumptions).
        loadings = setup_rng.choice([-1.0, 1.0], size=self.n_features)
        self._concept = {
            "informative": informative,
            "prototypes": prototypes,
            "loadings": loadings,
        }
        return self._concept

    def _blend_weights(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-index (lower concept, upper concept, blend) of the drift path."""
        prototypes = self._concept_draws()["prototypes"]
        fractions = np.asarray(indices, dtype=float) / self.n_samples
        zeros = np.zeros(len(fractions))
        if self.drift == "none" or len(prototypes) == 1:
            lower = np.zeros(len(fractions), dtype=int)
            return lower, lower, zeros
        if self.drift == "abrupt":
            concept = np.minimum(
                (fractions * (self.n_drift_events + 1)).astype(int),
                self.n_drift_events,
            )
            return concept, concept, zeros
        if self.drift == "incremental":
            n_segments = len(prototypes) - 1
            position = fractions * n_segments
            lower = np.minimum(position.astype(int), n_segments - 1)
            return lower, lower + 1, position - lower
        # Cyclic drift: oscillate between the two prototype sets.
        cycles = max(self.n_drift_events, 1)
        blend = 0.5 * (1.0 + np.sin(2.0 * np.pi * cycles * fractions))
        lower = np.zeros(len(fractions), dtype=int)
        return lower, lower + 1, blend

    def prototype_at(self, index: int) -> np.ndarray:
        """Class prototypes active at stream position ``index``."""
        prototypes = self._concept_draws()["prototypes"]
        lower, upper, blend = self._blend_weights(np.array([index]))
        return (
            (1.0 - blend[0]) * prototypes[lower[0]]
            + blend[0] * prototypes[upper[0]]
        )

    # ------------------------------------------------------------- sampling
    def _generate_block(
        self, rng: np.random.Generator, start: int, count: int, state: object
    ) -> tuple[np.ndarray, np.ndarray, object]:
        concept = self._concept_draws()
        prototypes = concept["prototypes"]
        y = rng.choice(self.n_classes, size=count, p=self.class_weights)
        independent = rng.normal(0.0, 1.0, size=(count, self.n_features))
        shared = rng.normal(0.0, 1.0, size=count)
        lower, upper, blend = self._blend_weights(np.arange(start, start + count))
        blend = blend[:, None]
        proto_rows = (
            (1.0 - blend) * prototypes[lower, y] + blend * prototypes[upper, y]
        )
        noise = self.noise_std * (
            np.sqrt(1.0 - self.correlation) * independent
            + np.sqrt(self.correlation) * shared[:, None] * concept["loadings"]
        )
        X = proto_rows + noise
        np.clip(X, 0.0, 1.0, out=X)
        return X, y, None


def make_surrogate(
    name: str, scale: float = 1.0, seed: int | None = None
) -> SurrogateStream:
    """Instantiate the surrogate stream for one of the paper's data sets.

    Parameters
    ----------
    name:
        Key into :data:`REAL_WORLD_SPECS` (e.g. ``"electricity"``).
    scale:
        Fraction of the original stream length to generate (1.0 = full
        length).  The drift schedule scales with the stream, so smaller
        scales preserve the drift structure.
    seed:
        Random seed.
    """
    if name not in REAL_WORLD_SPECS:
        raise KeyError(
            f"Unknown surrogate {name!r}; available: {sorted(REAL_WORLD_SPECS)}."
        )
    if scale <= 0:
        raise ValueError(f"scale must be > 0, got {scale!r}.")
    spec = REAL_WORLD_SPECS[name]
    n_samples = max(int(round(spec.n_samples * scale)), 500)
    return SurrogateStream(
        n_samples=n_samples,
        n_features=spec.n_features,
        n_classes=spec.n_classes,
        class_weights=_class_weights(spec.n_classes, spec.majority_fraction),
        drift=spec.drift,
        n_drift_events=spec.n_drift_events,
        informative_fraction=spec.informative_fraction,
        noise_std=spec.noise_std,
        seed=seed,
        name=spec.name,
    )
