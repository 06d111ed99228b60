"""Golden lock on the scenario catalogue: rows, layer stacks and specs.

``tests/golden/scenario_catalogue.json`` pins every catalogued scenario bit
for bit:

* for run seeds {0, 11, 42} and lengths {500, 600, 2000}, the sha256 of the
  rows ``build_scenario_pipeline(name, n, seed).take()`` yields, the type
  names of the pipeline's ``layer_stack()`` and its shape;
* the sha256 of the normalised rows of ``make_dataset(name, 0.005, 3)``;
* every ``ScenarioSpec`` field except the factory.

Regenerate after an intentional change to a scenario with::

    PYTHONPATH=src python tests/test_scenario_catalogue.py --regen
"""

import dataclasses
import hashlib
import json
import os

import pytest

from repro.experiments.registry import (
    SCENARIO_REGISTRY,
    build_scenario_pipeline,
    make_dataset,
    scenario_names,
    scenario_program,
)

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "golden", "scenario_catalogue.json"
)

SEEDS = (0, 11, 42)
LENGTHS = (500, 600, 2000)
DATASET_SCALE = 0.005
DATASET_SEED = 3


def _digest(stream) -> str:
    X, y = stream.take()
    return hashlib.sha256(X.tobytes() + y.tobytes()).hexdigest()


def _keys() -> list[dict]:
    keys: list[dict] = []
    for name in scenario_names():
        keys += [
            {"kind": "pipeline", "name": name, "seed": seed, "n": n}
            for seed in SEEDS
            for n in LENGTHS
        ]
        keys.append(
            {
                "kind": "dataset",
                "name": name,
                "scale": DATASET_SCALE,
                "seed": DATASET_SEED,
            }
        )
        keys.append({"kind": "spec", "name": name})
    return keys


def compute(key: dict) -> dict:
    """The recorded value of one golden entry."""
    name = key["name"]
    if key["kind"] == "pipeline":
        pipeline = build_scenario_pipeline(name, key["n"], seed=key["seed"])
        return {
            "sha256": _digest(pipeline),
            "layers": [type(stream).__name__ for stream in pipeline.layer_stack()],
            "n_samples": pipeline.n_samples,
            "n_features": pipeline.n_features,
            "n_classes": pipeline.n_classes,
        }
    if key["kind"] == "dataset":
        return {"sha256": _digest(make_dataset(name, key["scale"], key["seed"]))}
    spec = SCENARIO_REGISTRY[name]
    return {
        field.name: getattr(spec, field.name)
        for field in dataclasses.fields(spec)
        if field.name != "factory"
    }


def _id(key: dict) -> str:
    return "-".join(str(value) for value in key.values())


def load_golden() -> dict[str, dict]:
    with open(GOLDEN_PATH) as handle:
        records = json.load(handle)
    return {record["id"]: record["value"] for record in records}


def regenerate() -> None:
    records = [{"id": _id(key), "value": compute(key)} for key in _keys()]
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(records, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"Wrote {len(records)} catalogue entries to {GOLDEN_PATH}")


def test_golden_covers_the_catalogue():
    golden = load_golden()
    assert set(golden) == {_id(key) for key in _keys()}
    assert len(golden) == 11 * (len(SEEDS) * len(LENGTHS) + 2)


@pytest.mark.parametrize("key", _keys(), ids=_id)
def test_catalogue_matches_golden(key):
    assert compute(key) == load_golden()[_id(key)], (
        f"scenario catalogue entry {_id(key)} drifted; if the change is "
        "intentional, regenerate tests/golden/scenario_catalogue.json (see "
        "module docstring) and explain the diff."
    )


def _layer_seeds(program) -> list:
    specs = (program.base, program.alternate, program.drift, *program.layers)
    return [spec.kwargs().get("seed") for spec in specs if spec is not None]


def test_catalogue_programs_follow_the_run_seed():
    """Run seed s maps a program's seed offset k to s * 1000 + k."""
    for name in scenario_names():
        offsets = _layer_seeds(scenario_program(name, 0))
        assert any(offset is not None for offset in offsets), name
        assert _layer_seeds(scenario_program(name, 7)) == [
            None if offset is None else 7_000 + offset for offset in offsets
        ]
        assert set(_layer_seeds(scenario_program(name, None))) == {None}
        record = json.loads(json.dumps(scenario_program(name, 7).to_record()))
        assert (record["name"], record["seed"]) == (name, 7)


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        regenerate()
    else:
        print(__doc__)
