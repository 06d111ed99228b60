"""Fuzz-grid harness for the scenario grammar.

A pinned-seed sample of :data:`N_PROGRAMS` grammar programs runs through the
real experiment entry point (``run_experiment`` on ``fuzz-<seed>-<index>``
dataset names) with every model of the registry distributed across the
programs.  Three layers of guarantees are pinned:

* **no crashes** -- every sampled program trains and scores every assigned
  model end to end,
* **golden envelopes** -- each cell's ``deterministic_summary()`` is
  bit-identical to ``tests/golden/scenario_envelopes.json``; regenerate
  after an intentional numeric change with::

      PYTHONPATH=src python tests/test_scenario_fuzz.py --regen

* **stream semantics** -- hypothesis draws arbitrary (seed, index) pairs and
  proves every sampled program chunk-invariant, restart-deterministic and
  bit-identical across a mid-stream persistence round-trip, including the
  label-realism views (arrival times and availability masks).
"""

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.registry import (
    ScenarioSpec,
    build_scenario_pipeline,
    fuzz_scenario_names,
    get_dataset_spec,
    make_dataset,
    model_names,
    parse_fuzz_name,
)
from repro.experiments.runner import run_experiment
from repro.experiments.store import RunConfig
from repro.persistence import from_state, to_state
from repro.streams import label_realism
from repro.streams.grammar import (
    DRIFTABLE_FAMILIES,
    GENERATOR_FAMILIES,
    ScenarioProgram,
    build_program,
    sample_program,
)
from repro.telemetry import SCENARIO_SAMPLED, TELEMETRY

ENVELOPE_PATH = os.path.join(
    os.path.dirname(__file__), "golden", "scenario_envelopes.json"
)

FUZZ_SEED = 42
N_PROGRAMS = 12
N = 600  # stream length for the hypothesis property tests

#: The fuzz grid: the pinned programs, with the whole model family spread
#: round-robin across them so every model meets several sampled scenarios.
FUZZ_CONFIGS = [
    RunConfig(
        model=model_names()[index % len(model_names())],
        dataset=name,
        scale=0.002,
        seed=FUZZ_SEED,
        batch_fraction=0.05,
    )
    for index, name in enumerate(fuzz_scenario_names(FUZZ_SEED, N_PROGRAMS))
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


def load_envelopes() -> dict[str, dict]:
    with open(ENVELOPE_PATH) as handle:
        records = json.load(handle)
    return {json.dumps(r["config"], sort_keys=True): r["summary"] for r in records}


def regenerate() -> None:
    records = [compute_cell(config) for config in FUZZ_CONFIGS]
    os.makedirs(os.path.dirname(ENVELOPE_PATH), exist_ok=True)
    with open(ENVELOPE_PATH, "w") as handle:
        json.dump(records, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"Wrote {len(records)} fuzz cells to {ENVELOPE_PATH}")


# ---------------------------------------------------------------------------
# The pinned fuzz grid: no crashes, summaries inside the golden envelopes
# ---------------------------------------------------------------------------
def test_grid_covers_the_full_model_family():
    assert {config.model for config in FUZZ_CONFIGS} == set(model_names())


def test_envelope_fixture_covers_the_grid():
    envelopes = load_envelopes()
    expected = {json.dumps(c.key(), sort_keys=True) for c in FUZZ_CONFIGS}
    assert set(envelopes) == expected


@pytest.mark.parametrize(
    "config", FUZZ_CONFIGS, ids=[f"{c.model}-{c.dataset}" for c in FUZZ_CONFIGS]
)
def test_fuzz_cell_matches_envelope(config):
    envelopes = load_envelopes()
    computed = compute_cell(config)["summary"]
    expected = envelopes[json.dumps(config.key(), sort_keys=True)]
    assert computed == expected, (
        f"deterministic_summary drifted for {config.model} on {config.dataset}; "
        "if the change is intentional, regenerate "
        "tests/golden/scenario_envelopes.json (see module docstring) and "
        "explain the numeric diff in the PR."
    )


def test_fuzz_cells_score_and_train(tmp_path):
    """Every cell actually scored and trained rows (not a degenerate run)."""
    for record in load_envelopes().values():
        assert record["n_scored_samples"] > 0
        assert record["n_trained_samples"] > 0
        assert record["n_samples"] > 0


# ---------------------------------------------------------------------------
# Grammar sampling: determinism, coverage, registry integration
# ---------------------------------------------------------------------------
@given(seed=st.integers(0, 10_000), index=st.integers(0, 100))
@settings(max_examples=25, deadline=None)
def test_sampling_is_deterministic(seed, index):
    """The same (seed, index) always yields the identical frozen program."""
    assert sample_program(seed, index) == sample_program(seed, index)


def test_programs_are_frozen_records():
    program = sample_program(FUZZ_SEED, 0)
    assert isinstance(program, ScenarioProgram)
    record = program.to_record()
    # JSON-safe (tuple-valued params round-trip as lists).
    assert json.loads(json.dumps(record))["name"] == program.name
    assert program.describe().startswith(program.name)
    with pytest.raises(AttributeError):
        program.name = "other"


def test_sample_program_rejects_negative_arguments():
    with pytest.raises(ValueError):
        sample_program(-1, 0)
    with pytest.raises(ValueError):
        sample_program(0, -1)


def test_pinned_sample_covers_every_axis():
    """Across a modest pinned sample, every grammar production appears."""
    axes: set[str] = set()
    families: set[str] = set()
    for index in range(40):
        program = sample_program(FUZZ_SEED, index)
        axes.update(program.axes())
        families.add(program.base.kind)
    assert families == set(GENERATOR_FAMILIES)
    assert {"drift_injector", "oscillating_drift"} <= axes
    assert {
        "feature_corruptor",
        "label_noiser",
        "imbalance_shifter",
        "schema_shifter",
        "label_delayer",
        "label_masker",
    } <= axes


def test_drift_only_on_driftable_families():
    for index in range(60):
        program = sample_program(7, index)
        if program.drift is not None:
            assert program.base.kind in DRIFTABLE_FAMILIES
            assert program.alternate is not None


def test_sampling_emits_scenario_sampled_event():
    TELEMETRY.reset()
    TELEMETRY.enable()
    try:
        program = sample_program(FUZZ_SEED, 3)
        records = TELEMETRY.events.records(SCENARIO_SAMPLED)
    finally:
        TELEMETRY.reset()
    assert len(records) == 1
    assert records[0]["name"] == program.name
    assert records[0]["base"] == program.base.kind
    # Every production above the base counts (drift wrapper included).
    assert records[0]["n_layers"] == len(program.axes()) - 1
    assert records[0]["axes"] == " -> ".join(program.axes())


def test_fuzz_names_resolve_through_the_dataset_registry():
    name = fuzz_scenario_names(FUZZ_SEED, 1)[0]
    assert parse_fuzz_name(name) == (FUZZ_SEED, 0)
    spec = get_dataset_spec(name)
    assert isinstance(spec, ScenarioSpec)
    assert spec.name == name
    stream = make_dataset(name, scale=0.002, seed=123)
    X, y = stream.next_sample(32)
    assert X.shape == (32, spec.n_features)
    assert y.shape == (32,)


def test_fuzz_factory_ignores_the_run_seed():
    """Workers rebuild the stream from the name alone, whatever their seed."""
    name = fuzz_scenario_names(FUZZ_SEED, 3)[2]
    X_a, y_a = make_dataset(name, scale=0.002, seed=1).take()
    X_b, y_b = make_dataset(name, scale=0.002, seed=999).take()
    np.testing.assert_array_equal(X_a, X_b)
    np.testing.assert_array_equal(y_a, y_b)


def test_malformed_fuzz_names_are_rejected():
    assert parse_fuzz_name("fuzz-1-two") is None
    assert parse_fuzz_name("sea") is None
    with pytest.raises(KeyError):
        get_dataset_spec("fuzz-oops")
    # Only ASCII decimals without leading zeros: a digit that int() cannot
    # parse, and spellings that would give one program several registry
    # names, are not fuzz names.
    for name in (
        "fuzz-\u00b2-3",  # superscript two
        "fuzz-042-3",
        "fuzz-42-03",
        "fuzz-\u0664\u0662-3",  # Arabic-Indic 42
        "fuzz-+42-3",
        "fuzz-42-3\n",
        "fuzz-42-3-1",
        "fuzz--3",
    ):
        assert parse_fuzz_name(name) is None, repr(name)
        with pytest.raises(KeyError):
            get_dataset_spec(name)
    # Every name fuzz_scenario_names writes is canonical and parses back.
    for seed in (0, 7, 42, 10_000):
        for index, name in enumerate(fuzz_scenario_names(seed, 12)):
            assert parse_fuzz_name(name) == (seed, index)


def test_fuzz_names_build_through_the_scenario_pipeline_path():
    """A fuzz name builds its sampled program, whatever the run seed."""
    expected = build_program(sample_program(FUZZ_SEED, 3), N)
    for run_seed in (0, None):
        pipeline = build_scenario_pipeline(f"fuzz-{FUZZ_SEED}-3", N, seed=run_seed)
        assert pipeline.describe() == expected.describe()
        for actual, wanted in zip(pipeline.take(), expected.take()):
            np.testing.assert_array_equal(actual, wanted)
        expected.restart()


# ---------------------------------------------------------------------------
# Hypothesis: every sampled program obeys the stream-semantics contract
# ---------------------------------------------------------------------------
program_keys = st.tuples(st.integers(0, 500), st.integers(0, 50))


def _consume_chunked(stream, schedule):
    stream.restart()
    X_parts, y_parts = [], []
    step = 0
    while stream.has_more_samples():
        X, y = stream.next_sample(schedule[step % len(schedule)])
        X_parts.append(X)
        y_parts.append(y)
        step += 1
    return np.concatenate(X_parts), np.concatenate(y_parts)


@given(
    key=program_keys,
    schedule=st.lists(st.integers(1, 2 * N), min_size=1, max_size=8),
)
@settings(max_examples=20, deadline=None)
def test_sampled_programs_are_chunk_invariant(key, schedule):
    """Any consumption schedule yields the bit-identical trace."""
    stream = build_program(sample_program(*key), N)
    X_full, y_full = stream.take()
    X_chunked, y_chunked = _consume_chunked(stream, schedule)
    np.testing.assert_array_equal(X_full, X_chunked)
    np.testing.assert_array_equal(y_full, y_chunked)


@given(key=program_keys)
@settings(max_examples=15, deadline=None)
def test_sampled_programs_restart_deterministically(key):
    stream = build_program(sample_program(*key), N)
    X_first, y_first = stream.take()
    stream.restart()
    X_second, y_second = stream.take()
    np.testing.assert_array_equal(X_first, X_second)
    np.testing.assert_array_equal(y_first, y_second)


@given(key=program_keys, cut=st.integers(1, N - 1))
@settings(max_examples=15, deadline=None)
def test_sampled_programs_survive_midstream_save_load(key, cut):
    """A persistence round-trip mid-stream continues bit-identically,
    including the label-realism views of the remaining rows."""
    reference = build_program(sample_program(*key), N)
    X_ref, y_ref = reference.take()

    stream = build_program(sample_program(*key), N)
    stream.restart()
    X_head, y_head = stream.next_sample(cut)
    clone = from_state(to_state(stream))
    assert clone.position == stream.position
    X_tail, y_tail = clone.next_sample(clone.n_samples - clone.position)
    np.testing.assert_array_equal(np.concatenate([X_head, X_tail]), X_ref)
    np.testing.assert_array_equal(np.concatenate([y_head, y_tail]), y_ref)

    realism = label_realism(stream)
    realism_clone = label_realism(clone)
    assert realism_clone.delay == realism.delay
    np.testing.assert_array_equal(
        realism_clone.arrival(cut, N - cut), realism.arrival(cut, N - cut)
    )
    np.testing.assert_array_equal(
        realism_clone.available(0, N), realism.available(0, N)
    )


@given(key=program_keys)
@settings(max_examples=15, deadline=None)
def test_label_realism_views_are_chunk_invariant(key):
    """Availability masks drawn per block never depend on the read split."""
    stream = build_program(sample_program(*key), N)
    realism = label_realism(stream)
    full = realism.available(0, N)
    split = np.concatenate(
        [realism.available(0, N // 3), realism.available(N // 3, N - N // 3)]
    )
    np.testing.assert_array_equal(full, split)
    arrival = realism.arrival(0, N)
    assert arrival.shape == (N,)
    np.testing.assert_array_equal(arrival, np.arange(N) + realism.delay)


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        regenerate()
    else:
        print(__doc__)
