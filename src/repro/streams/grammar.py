"""Scenario grammar: the one way a stream scenario is defined and built.

A :class:`ScenarioProgram` is a declarative, JSON-safe description -- base
generator, optional drift construction, transform layers -- and
:func:`build_program` compiles it into a
:class:`~repro.streams.scenarios.ScenarioPipeline`.  Every scenario of the
repository is such a program: the named catalogue of
:mod:`repro.experiments.registry` pins one program per scenario, and
:func:`sample_program` draws programs from a seed.  Because a sampled
program is a pure function of ``(seed, index)`` and the compiled pipeline is
built from chunk-invariant transforms, any sampled scenario is

* reproducible from its name alone (``fuzz-<seed>-<index>``), which is how
  parallel experiment workers rebuild it in a fresh process,
* chunk-invariant and restart-deterministic, and
* persistable through :mod:`repro.persistence` like every catalogued stream.

The grammar covers the transform axes of :mod:`repro.streams.scenarios`:

========================  ==================================================
axis                      sampled layers
========================  ==================================================
concept drift             ``DriftInjector`` (abrupt / gradual / incremental
                          / recurring) or ``OscillatingDrift``
feature corruption        ``FeatureCorruptor`` (missing cells, sensor noise)
label noise               ``LabelNoiser``
prior shift               ``ImbalanceShifter``
schema evolution          ``SchemaShifter``
label realism             ``LabelDelayer`` (arrival lag), ``LabelMasker``
                          (labels that never arrive)
========================  ==================================================

Label-realism layers are always sampled outermost so their row indices
coincide with the output stream's (see
:func:`repro.streams.scenarios.label_realism`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.streams.base import SeededStream, Stream
from repro.streams.realworld import REAL_WORLD_SPECS, make_surrogate
from repro.streams.scenarios import (
    DriftInjector,
    FeatureCorruptor,
    ImbalanceShifter,
    LabelDelayer,
    LabelMasker,
    LabelNoiser,
    OscillatingDrift,
    ScenarioPipeline,
    SchemaShifter,
)
from repro.streams.synthetic import (
    AgrawalGenerator,
    HyperplaneGenerator,
    LEDGenerator,
    RandomRBFGenerator,
    SEAGenerator,
    SineGenerator,
    STAGGERGenerator,
    WaveformGenerator,
)
from repro.telemetry import SCENARIO_SAMPLED, TELEMETRY
from repro.utils.validation import check_random_state

__all__ = [
    "LayerSpec",
    "ScenarioProgram",
    "sample_program",
    "build_program",
    "GENERATOR_FAMILIES",
    "DRIFTABLE_FAMILIES",
]

Params = tuple[tuple[str, object], ...]


def _params(mapping: Mapping[str, object]) -> Params:
    """Normalise constructor kwargs into a hashable, ordered tuple."""
    return tuple(sorted(mapping.items()))


@dataclass(frozen=True)
class LayerSpec:
    """One grammar production: a transform (or generator) kind plus kwargs.

    ``params`` holds JSON-safe constructor keyword arguments as sorted
    ``(key, value)`` pairs, so specs are hashable and comparable; ``stream``
    arguments, ``n_samples`` and anything else only known at build time are
    injected by :func:`build_program`.
    """

    kind: str
    params: Params = ()

    @classmethod
    def of(cls, kind: str, **params: object) -> LayerSpec:
        """The spec of ``kind`` with keyword arguments ``params``."""
        return cls(kind, _params(params))

    def kwargs(self) -> dict[str, object]:
        return dict(self.params)

    def to_record(self) -> dict[str, object]:
        return {"kind": self.kind, **self.kwargs()}


@dataclass(frozen=True)
class ScenarioProgram:
    """A declarative scenario: the output of one grammar sample.

    ``base`` (and ``alternate``, when a drift layer is present) name a
    generator family from :data:`GENERATOR_FAMILIES` or a Table I surrogate
    from :data:`~repro.streams.realworld.REAL_WORLD_SPECS`; ``drift`` is the
    optional concept-drift construction combining them; ``layers`` are the
    remaining transform productions, applied innermost first.  ``oversample``
    records the base-stream over-generation factor an
    :class:`~repro.streams.scenarios.ImbalanceShifter` layer needs.
    ``seed`` is the fuzz seed of a sampled program, or the run seed a
    catalogue program was seeded for (``None`` for an unseeded run).
    """

    name: str
    seed: int | None
    base: LayerSpec
    alternate: LayerSpec | None = None
    drift: LayerSpec | None = None
    layers: tuple[LayerSpec, ...] = field(default_factory=tuple)
    oversample: float = 1.0

    def axes(self) -> list[str]:
        """Kinds of every production, innermost first (base included)."""
        kinds = [self.base.kind]
        if self.drift is not None:
            kinds.append(self.drift.kind)
        kinds.extend(layer.kind for layer in self.layers)
        return kinds

    def describe(self) -> str:
        """One-line description of the program."""
        return f"{self.name}: " + " -> ".join(self.axes())

    def to_record(self) -> dict[str, object]:
        """Flat JSON-safe description (golden files, telemetry, reports)."""
        record: dict[str, object] = {
            "name": self.name,
            "seed": self.seed,
            "base": self.base.to_record(),
            "oversample": self.oversample,
            "layers": [layer.to_record() for layer in self.layers],
        }
        if self.alternate is not None:
            record["alternate"] = self.alternate.to_record()
        if self.drift is not None:
            record["drift"] = self.drift.to_record()
        return record


# --------------------------------------------------------------------------
# Generator families
# --------------------------------------------------------------------------
_GENERATORS: dict[str, type[SeededStream]] = {
    "sea": SEAGenerator,
    "sine": SineGenerator,
    "stagger": STAGGERGenerator,
    "agrawal": AgrawalGenerator,
    "led": LEDGenerator,
    "waveform": WaveformGenerator,
    "rbf": RandomRBFGenerator,
    "hyperplane": HyperplaneGenerator,
}

#: Generator families the grammar samples bases from.
GENERATOR_FAMILIES: tuple[str, ...] = tuple(_GENERATORS)

#: Families with a second concept suitable for drift construction (either a
#: distinct classification function or, for RBF, re-drawn centroids).
DRIFTABLE_FAMILIES: frozenset[str] = frozenset(
    {"sea", "sine", "stagger", "agrawal", "rbf"}
)

_DRIFT_TRANSFORMS: dict[str, type[Stream]] = {
    "drift_injector": DriftInjector,
    "oscillating_drift": OscillatingDrift,
}

_LAYER_TRANSFORMS: dict[str, type[Stream]] = {
    "feature_corruptor": FeatureCorruptor,
    "label_noiser": LabelNoiser,
    "imbalance_shifter": ImbalanceShifter,
    "schema_shifter": SchemaShifter,
    "label_delayer": LabelDelayer,
    "label_masker": LabelMasker,
}


def _child_seed(rng: np.random.Generator) -> int:
    """One baked-in child seed (drawn at sample time, stored in the spec)."""
    return int(rng.integers(0, 2**31 - 1))


def _uniform(rng: np.random.Generator, low: float, high: float) -> float:
    """A uniform draw rounded to a JSON-stable float."""
    return round(float(rng.uniform(low, high)), 6)


def _sample_base(
    rng: np.random.Generator, family: str, drifting: bool
) -> tuple[LayerSpec, LayerSpec | None, int, int]:
    """Sample base (and alternate concept) specs of one generator family.

    Returns ``(base, alternate, n_features, n_classes)``; ``alternate`` is
    ``None`` when ``drifting`` is false.
    """
    base_seed = _child_seed(rng)
    alt_seed = _child_seed(rng)
    alternate: LayerSpec | None = None
    if family == "sea":
        concepts = rng.permutation(4)[:2]
        noise = _uniform(rng, 0.0, 0.1)
        common: dict[str, object] = {"noise": noise, "drift_positions": ()}
        base = LayerSpec(
            "sea",
            _params(
                {**common, "initial_concept": int(concepts[0]), "seed": base_seed}
            ),
        )
        if drifting:
            alternate = LayerSpec(
                "sea",
                _params(
                    {**common, "initial_concept": int(concepts[1]), "seed": alt_seed}
                ),
            )
        return base, alternate, 3, 2
    if family == "sine":
        concepts = rng.permutation(4)[:2]
        base = LayerSpec(
            "sine",
            _params(
                {
                    "classification_function": int(concepts[0]),
                    "drift_positions": (),
                    "seed": base_seed,
                }
            ),
        )
        if drifting:
            alternate = LayerSpec(
                "sine",
                _params(
                    {
                        "classification_function": int(concepts[1]),
                        "drift_positions": (),
                        "seed": alt_seed,
                    }
                ),
            )
        return base, alternate, 2, 2
    if family == "stagger":
        concepts = rng.permutation(3)[:2]
        base = LayerSpec(
            "stagger",
            _params(
                {
                    "classification_function": int(concepts[0]),
                    "drift_positions": (),
                    "seed": base_seed,
                }
            ),
        )
        if drifting:
            alternate = LayerSpec(
                "stagger",
                _params(
                    {
                        "classification_function": int(concepts[1]),
                        "drift_positions": (),
                        "seed": alt_seed,
                    }
                ),
            )
        return base, alternate, 3, 2
    if family == "agrawal":
        concepts = rng.permutation(5)[:2]
        perturbation = _uniform(rng, 0.0, 0.2)
        common = {"perturbation": perturbation, "drift_windows": ()}
        base = LayerSpec(
            "agrawal",
            _params(
                {
                    **common,
                    "classification_function": int(concepts[0]),
                    "seed": base_seed,
                }
            ),
        )
        if drifting:
            alternate = LayerSpec(
                "agrawal",
                _params(
                    {
                        **common,
                        "classification_function": int(concepts[1]),
                        "seed": alt_seed,
                    }
                ),
            )
        return base, alternate, 9, 2
    if family == "led":
        n_irrelevant = int(rng.integers(0, 11))
        base = LayerSpec(
            "led",
            _params(
                {
                    "noise": _uniform(rng, 0.0, 0.15),
                    "n_irrelevant": n_irrelevant,
                    "drift_positions": (),
                    "seed": base_seed,
                }
            ),
        )
        return base, None, 7 + n_irrelevant, 10
    if family == "waveform":
        base = LayerSpec(
            "waveform",
            _params({"noise_std": _uniform(rng, 0.2, 1.0), "seed": base_seed}),
        )
        return base, None, 21, 3
    if family == "rbf":
        n_features = int(rng.integers(4, 13))
        n_classes = int(rng.integers(2, 5))
        common = {
            "n_features": n_features,
            "n_classes": n_classes,
            "n_centroids": int(rng.integers(15, 41)),
        }
        base = LayerSpec("rbf", _params({**common, "seed": base_seed}))
        if drifting:
            # A re-seeded RBF re-draws its centroids: a genuine new concept.
            alternate = LayerSpec("rbf", _params({**common, "seed": alt_seed}))
        return base, alternate, n_features, n_classes
    if family == "hyperplane":
        n_features = int(rng.integers(8, 31))
        base = LayerSpec(
            "hyperplane",
            _params(
                {
                    "n_features": n_features,
                    "n_drift_features": int(rng.integers(2, 6)),
                    "noise": _uniform(rng, 0.0, 0.1),
                    "seed": base_seed,
                }
            ),
        )
        return base, None, n_features, 2
    raise ValueError(f"Unknown generator family {family!r}.")


def _sample_drift(rng: np.random.Generator) -> LayerSpec:
    """Sample one concept-drift construction."""
    kind = str(
        rng.choice(
            ["abrupt", "gradual", "incremental", "recurring", "oscillating"]
        )
    )
    if kind == "oscillating":
        return LayerSpec(
            "oscillating_drift",
            _params(
                {
                    "start": _uniform(rng, 0.2, 0.4),
                    "period": _uniform(rng, 0.08, 0.16),
                    "decay": _uniform(rng, 0.5, 0.8),
                    "min_period": 0.01,
                }
            ),
        )
    params: dict[str, object] = {"mode": kind}
    if kind == "recurring":
        params["period"] = _uniform(rng, 0.15, 0.35)
    else:
        params["position"] = _uniform(rng, 0.3, 0.7)
        if kind in ("gradual", "incremental"):
            params["width"] = _uniform(rng, 0.05, 0.3)
        if kind == "gradual":
            params["seed"] = _child_seed(rng)
    return LayerSpec("drift_injector", _params(params))


def sample_program(seed: int, index: int = 0) -> ScenarioProgram:
    """Sample the ``index``-th scenario program of fuzz seed ``seed``.

    A pure function of ``(seed, index)``: the same pair always yields the
    same program, which is what lets a parallel worker rebuild the scenario
    ``fuzz-<seed>-<index>`` from its registry name alone.
    """
    if seed < 0 or index < 0:
        raise ValueError(
            f"seed and index must be >= 0, got ({seed!r}, {index!r})."
        )
    rng = check_random_state(seed * 1_000_003 + index)

    drifting = bool(rng.random() < 0.6)
    family_pool = (
        sorted(DRIFTABLE_FAMILIES) if drifting else list(GENERATOR_FAMILIES)
    )
    family = str(rng.choice(family_pool))
    base, alternate, n_features, n_classes = _sample_base(rng, family, drifting)
    drift = _sample_drift(rng) if drifting else None

    layers: list[LayerSpec] = []
    if rng.random() < 0.4:
        corruption: dict[str, object] = {
            "start": _uniform(rng, 0.2, 0.6),
            "seed": _child_seed(rng),
        }
        if rng.random() < 0.5:
            corruption["missing_rate"] = _uniform(rng, 0.05, 0.2)
        else:
            corruption["noise_std"] = _uniform(rng, 0.05, 0.3)
        layers.append(LayerSpec("feature_corruptor", _params(corruption)))
    if rng.random() < 0.3:
        layers.append(
            LayerSpec(
                "label_noiser",
                _params(
                    {
                        "noise": _uniform(rng, 0.05, 0.25),
                        "start": _uniform(rng, 0.3, 0.7),
                        "seed": _child_seed(rng),
                    }
                ),
            )
        )
    if rng.random() < 0.3:
        n_shifted = int(rng.integers(1, min(n_features, 3) + 1))
        features = rng.permutation(n_features)[:n_shifted]
        schedule = []
        for feature in features:
            if rng.random() < 0.5:  # column appears mid-stream
                window = (_uniform(rng, 0.2, 0.6), 1.0)
            else:  # column disappears mid-stream
                window = (0.0, _uniform(rng, 0.4, 0.8))
            schedule.append((int(feature), window[0], window[1]))
        layers.append(
            LayerSpec("schema_shifter", _params({"schedule": tuple(schedule)}))
        )
    oversample = 1.0
    if rng.random() < 0.25:
        oversample = 1.5
        dominant = _uniform(rng, 0.6, 0.85)
        rest = round((1.0 - dominant) / (n_classes - 1), 6)
        weights = [rest] * n_classes
        weights[int(rng.integers(0, n_classes))] = round(
            1.0 - rest * (n_classes - 1), 6
        )
        layers.append(
            LayerSpec(
                "imbalance_shifter",
                _params(
                    {
                        "class_weights": tuple(weights),
                        "start": _uniform(rng, 0.1, 0.4),
                        "end": _uniform(rng, 0.6, 0.9),
                        "oversample": oversample,
                    }
                ),
            )
        )
    # Label realism is sampled last so the layers sit outermost: their row
    # indices then coincide with the output stream's (`label_realism`).
    if rng.random() < 0.35:
        layers.append(
            LayerSpec(
                "label_delayer",
                _params({"delay_fraction": _uniform(rng, 0.002, 0.02)}),
            )
        )
    if rng.random() < 0.3:
        layers.append(
            LayerSpec(
                "label_masker",
                _params(
                    {
                        "rate": _uniform(rng, 0.1, 0.5),
                        "start": _uniform(rng, 0.0, 0.3),
                        "end": _uniform(rng, 0.7, 1.0),
                        "seed": _child_seed(rng),
                    }
                ),
            )
        )

    program = ScenarioProgram(
        name=f"fuzz-{seed}-{index}",
        seed=seed,
        base=base,
        alternate=alternate,
        drift=drift,
        layers=tuple(layers),
        oversample=oversample,
    )
    if TELEMETRY.enabled:
        TELEMETRY.emit(
            SCENARIO_SAMPLED,
            name=program.name,
            base=family,
            n_layers=len(program.axes()) - 1,
            axes=" -> ".join(program.axes()),
        )
    return program


def _build_generator(spec: LayerSpec, n_samples: int) -> SeededStream:
    kwargs = spec.kwargs()
    surrogate = REAL_WORLD_SPECS.get(spec.kind)
    if surrogate is not None:
        scale = n_samples / surrogate.n_samples
        return make_surrogate(spec.kind, scale=scale, **kwargs)  # type: ignore[arg-type]
    cls = _GENERATORS.get(spec.kind)
    if cls is None:
        raise ValueError(f"Unknown generator kind {spec.kind!r}.")
    # JSON round-trips turn tuples into lists; generators expect tuples.
    for key in ("drift_positions", "drift_windows"):
        if key in kwargs:
            kwargs[key] = tuple(kwargs[key])  # type: ignore[arg-type]
    return cls(n_samples=n_samples, **kwargs)  # type: ignore[arg-type]


def _layer_kwargs(spec: LayerSpec, n_samples: int) -> dict[str, object]:
    """Translate a layer spec into constructor kwargs for ``n_samples``."""
    kwargs = spec.kwargs()
    if spec.kind == "label_delayer":
        fraction = float(kwargs.pop("delay_fraction"))  # type: ignore[arg-type]
        kwargs["delay"] = max(int(fraction * n_samples), 1)
    if spec.kind == "schema_shifter":
        kwargs["schedule"] = tuple(
            (int(f), float(a), float(d))
            for f, a, d in kwargs["schedule"]  # type: ignore[union-attr]
        )
    if spec.kind == "imbalance_shifter":
        kwargs["class_weights"] = tuple(kwargs["class_weights"])  # type: ignore[arg-type]
    return kwargs


def build_program(program: ScenarioProgram, n_samples: int) -> ScenarioPipeline:
    """Compile a sampled program into a runnable scenario pipeline.

    ``n_samples`` is the target output length; when the program carries an
    imbalance layer the base generator is over-generated accordingly so the
    shifter's re-sampling lands back on (approximately) ``n_samples``.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples!r}.")
    base_n = n_samples
    if program.oversample > 1.0:
        base_n = int(n_samples * program.oversample) + 1
    base: Stream = _build_generator(program.base, base_n)
    if program.drift is not None:
        if program.alternate is None:
            raise ValueError(
                f"Program {program.name!r} has a drift layer but no alternate."
            )
        alternate = _build_generator(program.alternate, base_n)
        drift_cls = _DRIFT_TRANSFORMS[program.drift.kind]
        base = drift_cls(base, alternate, **program.drift.kwargs())  # type: ignore[call-arg]
    layers: list[tuple[type, dict]] = []
    for spec in program.layers:
        cls = _LAYER_TRANSFORMS.get(spec.kind)
        if cls is None:
            raise ValueError(f"Unknown transform kind {spec.kind!r}.")
        layers.append((cls, _layer_kwargs(spec, n_samples)))
    return ScenarioPipeline(base, layers=layers, name=program.name)
