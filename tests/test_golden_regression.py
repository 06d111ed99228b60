"""Golden regression suite: committed deterministic summaries of a small grid.

The fixture under ``tests/golden/small_grid.json`` holds the
``deterministic_summary()`` of every cell of a small (model x dataset x
scenario) grid.  The test recomputes each cell and asserts bit-equality, so
inference or metric refactors cannot silently change results: any legitimate
change to the numerics must regenerate the fixture explicitly with::

    PYTHONPATH=src python tests/test_golden_regression.py --regen

and justify the diff in review.
"""

import json
import os

import pytest

from repro.experiments.runner import run_experiment
from repro.experiments.store import RunConfig

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "small_grid.json")

#: The golden grid: two classic streams plus one catalogued scenario, small
#: enough to recompute in CI on every run, and two multiclass cells (KDDCup
#: with 23 classes, Poker-Hand with 9) that pin the summation order of the
#: class-weighted F1 beyond the binary case.  The two FIMT-DD cells grow a
#: tree and pin its leaf SGD bit for bit, binary (SEA) and with 7 classes
#: (Covertype).
GOLDEN_CONFIGS = [
    RunConfig(
        model=model, dataset=dataset, scale=0.002, seed=42, batch_fraction=0.05
    )
    for model in ("dmt", "vfdt_mc", "ht_ada")
    for dataset in ("sea", "electricity", "stagger_abrupt")
] + [
    RunConfig(model=model, dataset=dataset, scale=0.002, seed=42, batch_fraction=0.05)
    for model, dataset in (
        ("dmt", "kdd"),
        ("vfdt_mc", "poker"),
        ("fimtdd", "sea"),
        ("fimtdd", "covertype"),
    )
]


def compute_cell(config: RunConfig) -> dict:
    result = run_experiment(
        config.model,
        config.dataset,
        scale=config.scale,
        seed=config.seed,
        batch_fraction=config.batch_fraction,
        max_iterations=config.max_iterations,
    )
    return {"config": config.key(), "summary": result.deterministic_summary()}


def load_golden() -> dict[str, dict]:
    with open(GOLDEN_PATH) as handle:
        records = json.load(handle)
    return {json.dumps(r["config"], sort_keys=True): r["summary"] for r in records}


def regenerate() -> None:
    records = [compute_cell(config) for config in GOLDEN_CONFIGS]
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(records, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"Wrote {len(records)} golden cells to {GOLDEN_PATH}")


def test_golden_fixture_covers_the_grid():
    golden = load_golden()
    expected = {json.dumps(c.key(), sort_keys=True) for c in GOLDEN_CONFIGS}
    assert set(golden) == expected


@pytest.mark.parametrize(
    "config", GOLDEN_CONFIGS, ids=[f"{c.model}-{c.dataset}" for c in GOLDEN_CONFIGS]
)
def test_deterministic_summary_matches_golden(config):
    golden = load_golden()
    computed = compute_cell(config)["summary"]
    expected = golden[json.dumps(config.key(), sort_keys=True)]
    assert computed == expected, (
        f"deterministic_summary drifted for {config.model} on {config.dataset}; "
        "if the change is intentional, regenerate tests/golden/small_grid.json "
        "(see module docstring) and explain the numeric diff in the PR."
    )


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        regenerate()
    else:
        print(__doc__)
