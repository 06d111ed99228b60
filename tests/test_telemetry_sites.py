"""Telemetry at its instrumented call sites: spans, metric handles, counters.

Three contracts, checked through the models, the evaluator and the serving
layer rather than through the telemetry primitives alone:

* the span tree of a scoring request and of a prequential run (paths and
  counts);
* a registry reset between two calls leaves the registry counting only the
  calls made after it, at every site that looks up or caches a metric
  handle on its hot path;
* every counted event kind bumps its counter once per event, per label
  value -- for the product models and for the oracles of
  ``tests/oracles.py``, so a counter bumped twice shows as a mismatch.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

import repro.core.nodes
from repro.core import DynamicModelTree
from repro.drift import DDM
from repro.evaluation.prequential import PrequentialEvaluator
from repro.experiments.parallel import run_grid
from repro.experiments.registry import make_dataset, make_model
from repro.experiments.store import RunConfig
from repro.serving import ChampionChallenger, ModelRegistry, ScoringService
from repro.streams.synthetic import SEAGenerator
from repro.telemetry import (
    DMT_CANDIDATES,
    DMT_CANDIDATES_ADMITTED_TOTAL,
    DMT_CANDIDATES_EVICTED_TOTAL,
    DMT_CANDIDATES_SUMMED_TOTAL,
    DMT_PRUNE,
    DMT_PRUNES_TOTAL,
    DMT_RESPLIT,
    DMT_RESPLITS_TOTAL,
    DMT_SPLIT,
    DMT_SPLITS_TOTAL,
    DRIFT_DETECTED,
    DRIFT_DETECTIONS_TOTAL,
    ENSEMBLE_MEMBER_DRIFT,
    ENSEMBLE_MEMBER_DRIFTS_TOTAL,
    EVALUATION_BATCH_SECONDS,
    EVALUATION_COMPLETED,
    EVALUATION_RUNS_TOTAL,
    EXPERIMENTS_CELLS_TOTAL,
    GRID_CELL_COMPLETED,
    SERVING_CHAMPION_DRIFTS_TOTAL,
    SERVING_DRIFT,
    SERVING_LATENCY_SECONDS,
    SERVING_PROMOTION,
    SERVING_PROMOTIONS_TOTAL,
    SERVING_REQUESTS_TOTAL,
    SPAN_METRIC,
    TELEMETRY,
    TREE_ALTERNATE_STARTED,
    TREE_ALTERNATES_STARTED_TOTAL,
    TREE_PRUNE,
    TREE_PRUNES_TOTAL,
    TREE_SPLIT,
    TREE_SPLITS_TOTAL,
    TREE_SWAP,
    TREE_SWAPS_TOTAL,
)
from tests import oracles


@pytest.fixture(autouse=True)
def _clean_telemetry():
    TELEMETRY.reset()
    yield
    TELEMETRY.reset()


def _series(name: str) -> dict[tuple[tuple[str, str], ...], float]:
    """Labels -> value (counters) or observation count (histograms)."""
    return {
        tuple(sorted(record["labels"].items())): record.get(
            "value", record.get("count")
        )
        for record in TELEMETRY.registry.snapshot()
        if record["name"] == name
    }


def _span_counts() -> dict[str, int]:
    return {labels[0][1]: count for labels, count in _series(SPAN_METRIC).items()}


def _band(n_rows: int, scale: float, seed: int = 0):
    """A band of feature 0 crossed with the sign of feature 1.

    The DMT splits it below the root; at ``scale`` 50 its raw-scale inputs
    also make it resplit.
    """
    rng = np.random.default_rng(seed)
    X = rng.uniform(-3.0, 3.0, size=(n_rows, 2))
    y = ((np.abs(X[:, 0]) > 1.5) ^ (X[:, 1] > 0)).astype(int)
    return X * scale, y


def _fit(model, X, y, batch_size=100):
    for start in range(0, len(X), batch_size):
        stop = start + batch_size
        model.partial_fit(X[start:stop], y[start:stop], classes=[0, 1])
    return model


def _dmt_service(max_batch_size=None):
    """A service scoring a DMT trained while telemetry was off."""
    X, y = _band(1000, 1.0)
    registry = ModelRegistry()
    registry.register("dmt", _fit(DynamicModelTree(random_state=0), X, y))
    return ScoringService(registry, max_batch_size=max_batch_size), X


# ---------------------------------------------------------------------------
# The span tree
# ---------------------------------------------------------------------------
def test_scoring_request_span_tree():
    """One request chunked into three model calls: one span, three nested."""
    service, X = _dmt_service(max_batch_size=100)
    TELEMETRY.enable()
    service.predict_proba("dmt", X[:256])
    assert _span_counts() == {
        "serving.score": 1,
        "serving.score/dmt.predict_proba": 3,
    }


def test_prequential_run_span_tree():
    """Ten batches: ten fits, nine scored batches after the warm-up one."""
    TELEMETRY.enable()
    stream = SEAGenerator(n_samples=1000, seed=0)
    result = PrequentialEvaluator(batch_size=100).evaluate(
        DynamicModelTree(random_state=0), stream
    )
    assert result.n_iterations == 10
    spans = _span_counts()
    assert spans["evaluation.prequential"] == 1
    assert spans["evaluation.prequential/dmt.partial_fit"] == 10
    assert spans["evaluation.prequential/dmt.predict_proba"] == 9
    assert set(spans) == {
        "evaluation.prequential",
        "evaluation.prequential/dmt.partial_fit",
        "evaluation.prequential/dmt.predict_proba",
        "evaluation.prequential/stream.generate_block",
    }


# ---------------------------------------------------------------------------
# A reset between two calls
# ---------------------------------------------------------------------------
def _span_exit():
    X, y = _band(1000, 1.0)
    model = _fit(DynamicModelTree(random_state=0), X, y)

    def check(n_calls):
        assert _span_counts() == {"dmt.predict_proba": n_calls}

    return lambda: model.predict_proba(X[:50]), check


def _scoring_request():
    service, X = _dmt_service()

    def check(n_calls):
        model = (("model", "dmt"),)
        assert _series(SERVING_REQUESTS_TOTAL) == {model: n_calls}
        assert _series(SERVING_LATENCY_SECONDS) == {model: n_calls}
        assert _span_counts() == {
            "serving.score": n_calls,
            "serving.score/dmt.predict_proba": n_calls,
        }

    return lambda: service.predict("dmt", X[:50]), check


def _candidate_store():
    """Fifty features: the candidate stores keep admitting and evicting."""
    X, y = make_dataset("hyperplane", scale=0.05, seed=3).next_sample(1400)
    model = DynamicModelTree(random_state=3)
    batches = iter(range(0, len(X), 200))

    def call():
        start = next(batches)
        model.partial_fit(X[start : start + 200], y[start : start + 200], [0, 1])

    def check(n_calls):
        updates = TELEMETRY.events.records(DMT_CANDIDATES)
        admitted = sum(update["n_admitted"] for update in updates)
        evicted = sum(update["n_evicted"] for update in updates)
        assert admitted > 0 and evicted > 0
        assert _series(DMT_CANDIDATES_ADMITTED_TOTAL) == {(): admitted}
        assert _series(DMT_CANDIDATES_EVICTED_TOTAL) == {(): evicted}
        assert _series(DMT_CANDIDATES_SUMMED_TOTAL)[()] >= admitted

    return call, check


def _prequential_step():
    session = PrequentialEvaluator(batch_size=50).session(
        make_model("dmt", seed=0),
        SEAGenerator(n_samples=1000, seed=0),
        model_name="dmt",
        dataset_name="sea",
    )

    def check(n_calls):
        assert _series(EVALUATION_BATCH_SECONDS) == {
            (("dataset", "sea"), ("model", "dmt")): n_calls
        }

    return session.step, check


@pytest.mark.parametrize(
    "site",
    [_span_exit, _scoring_request, _candidate_store, _prequential_step],
    ids=lambda site: site.__name__.lstrip("_"),
)
def test_reset_between_calls_counts_only_later_calls(site):
    """A handle a site resolved before ``TELEMETRY.reset()`` must not
    receive the later calls: the registry counts exactly those."""
    call, check = site()
    TELEMETRY.enable()
    for _ in range(3):
        call()
    TELEMETRY.reset()
    TELEMETRY.enable()
    for _ in range(4):
        call()
    check(4)


# ---------------------------------------------------------------------------
# Counted event kinds
# ---------------------------------------------------------------------------
#: Each counted kind, the counter one event bumps, and the event fields whose
#: values label it.
COUNTED = {
    DRIFT_DETECTED: (DRIFT_DETECTIONS_TOTAL, ("detector",)),
    ENSEMBLE_MEMBER_DRIFT: (ENSEMBLE_MEMBER_DRIFTS_TOTAL, ("model",)),
    TREE_SPLIT: (TREE_SPLITS_TOTAL, ("model",)),
    TREE_PRUNE: (TREE_PRUNES_TOTAL, ("model",)),
    TREE_ALTERNATE_STARTED: (TREE_ALTERNATES_STARTED_TOTAL, ("model",)),
    TREE_SWAP: (TREE_SWAPS_TOTAL, ("model",)),
    DMT_SPLIT: (DMT_SPLITS_TOTAL, ()),
    DMT_RESPLIT: (DMT_RESPLITS_TOTAL, ()),
    DMT_PRUNE: (DMT_PRUNES_TOTAL, ()),
    SERVING_PROMOTION: (SERVING_PROMOTIONS_TOTAL, ("name",)),
    SERVING_DRIFT: (SERVING_CHAMPION_DRIFTS_TOTAL, ("name",)),
    GRID_CELL_COMPLETED: (EXPERIMENTS_CELLS_TOTAL, ()),
    EVALUATION_COMPLETED: (EVALUATION_RUNS_TOTAL, ("model",)),
}


def _drive_every_counted_kind(monkeypatch):
    """One enabled session in which each counted kind happens."""
    TELEMETRY.enable()
    # Abrupt drift: HT-Ada detects, starts alternates and swaps one in,
    # FIMT-DD prunes a branch, the ensembles reset members; the oracle
    # ensembles run too.
    evaluator = PrequentialEvaluator(batch_size=100)
    for model in (
        make_model("ht_ada", seed=1),
        make_model("fimtdd", seed=1),
        make_model("leveraging_bagging", seed=1),
        make_model("arf", seed=1),
        oracles.ReferenceLeveragingBagging(n_estimators=3, random_state=1),
        oracles.ReferenceARF(n_estimators=3, random_state=1),
    ):
        evaluator.evaluate(model, make_dataset("stagger_abrupt", scale=0.05, seed=1))
    # The DMT and its two-sweep oracle split and resplit on raw-scale
    # input.  No stream in the repository makes the DMT prune under its
    # AIC threshold (5), so a second pass lowers that threshold.
    X, y = _band(2000, 50.0)
    for tree in (DynamicModelTree, oracles.TwoSweepDynamicModelTree):
        _fit(tree(random_state=0), X, y)
    def never(*args):
        return float("-inf")

    monkeypatch.setattr(repro.core.nodes, "aic_prune_threshold", never)
    monkeypatch.setattr(oracles, "aic_prune_threshold", never)
    for tree in (DynamicModelTree, oracles.TwoSweepDynamicModelTree):
        _fit(tree(random_state=0), X, y)
    monkeypatch.undo()
    # A champion whose concept flips: DDM fires, the challenger is promoted.
    rng = np.random.default_rng(0)
    X = rng.uniform(0.0, 1.0, size=(3000, 4))
    y_stable = (X @ np.array([1.0, 1.0, -1.0, -1.0]) > 0).astype(int)
    registry = ModelRegistry()
    deployment = ChampionChallenger(
        registry,
        "clf",
        _fit(DynamicModelTree(random_state=0), X[:500], y_stable[:500]),
        drift_detector=DDM(min_observations=30),
    )
    for start in range(500, 1500, 100):
        deployment.process_batch(X[start : start + 100], y_stable[start : start + 100])
    deployment.set_challenger(
        _fit(DynamicModelTree(random_state=1), X[:300], 1 - y_stable[:300])
    )
    for start in range(1500, 3000, 100):
        deployment.process_batch(
            X[start : start + 100], 1 - y_stable[start : start + 100]
        )
    # One grid cell.
    run_grid([RunConfig(model="dmt", dataset="sea", scale=0.002, max_iterations=3)])


def test_each_counted_kind_counter_equals_its_events(monkeypatch):
    _drive_every_counted_kind(monkeypatch)
    records = TELEMETRY.events.records()
    assert records[-1]["seq"] == len(records), "the event ring dropped events"
    for kind, (counter, fields) in COUNTED.items():
        events = Counter(
            tuple((field, str(record[field])) for field in fields)
            for record in records
            if record["kind"] == kind
        )
        assert events, f"no {kind} event happened"
        assert _series(counter) == dict(events), kind


@pytest.mark.parametrize("name", ["vfdt_mc", "ht_ada", "efdt", "fimtdd"])
def test_each_tree_split_sends_one_event(name):
    """Every split a baseline counts in ``n_split_events`` sends one
    ``tree.split`` event and bumps ``repro.tree.splits_total`` once: HT-Ada's
    and EFDT's splits, re-splits included, go through VFDT's installer."""
    TELEMETRY.enable()
    model = make_model(name, seed=1)
    PrequentialEvaluator(batch_size=100).evaluate(
        model, make_dataset("agrawal", scale=0.1, seed=1)
    )
    records = TELEMETRY.events.records()
    assert records[-1]["seq"] == len(records), "the event ring dropped events"
    splits = [record for record in records if record["kind"] == TREE_SPLIT]
    assert model.n_split_events >= 1
    assert len(splits) == model.n_split_events
    label = (("model", type(model).__name__),)
    assert _series(TREE_SPLITS_TOTAL) == {label: model.n_split_events}
