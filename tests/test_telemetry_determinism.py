"""Telemetry must never perturb determinism.

The contract pinned here is the load-bearing invariant of the telemetry
subsystem: enabling metrics, events and spans reads no random generator and
writes no wall-clock value into model state, so
``PrequentialResult.deterministic_summary()`` is **bit-identical** with
telemetry on or off -- for any model, any stream, and any batch schedule.

A second group of tests pins the event-log content of a seeded drift run
(golden counts, not golden timestamps: ``ts`` is wall-clock and ``seq``
ordering is asserted instead).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.evaluation.prequential import PrequentialEvaluator
from repro.experiments.registry import make_dataset, make_model
from repro.streams.synthetic import SEAGenerator
from repro.telemetry import (
    DMT_CANDIDATES_ADMITTED_TOTAL,
    DMT_CANDIDATES_EVICTED_TOTAL,
    DMT_CANDIDATES_SUMMED_TOTAL,
    DRIFT_DETECTED,
    TELEMETRY,
    TREE_SPLIT,
)


@pytest.fixture(autouse=True)
def _clean_telemetry():
    TELEMETRY.reset()
    yield
    TELEMETRY.reset()


def _run_summary(model_key: str, seed: int, batch_size: int, enabled: bool):
    """One prequential run; returns the deterministic summary dict."""
    TELEMETRY.reset()
    if enabled:
        TELEMETRY.enable()
    stream = SEAGenerator(
        n_samples=900, noise=0.05, drift_positions=(0.5,), seed=seed
    )
    model = make_model(model_key, seed=seed)
    evaluator = PrequentialEvaluator(batch_size=batch_size)
    result = evaluator.evaluate(model, stream, max_iterations=12)
    TELEMETRY.reset()
    return result.deterministic_summary()


class TestBitIdenticalOnOff:
    """deterministic_summary() with telemetry on == off, bit for bit."""

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        batch_size=st.integers(min_value=16, max_value=160),
    )
    def test_dmt(self, seed, batch_size):
        off = _run_summary("dmt", seed, batch_size, enabled=False)
        on = _run_summary("dmt", seed, batch_size, enabled=True)
        assert on == off

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        batch_size=st.integers(min_value=16, max_value=160),
    )
    def test_vfdt(self, seed, batch_size):
        off = _run_summary("vfdt_mc", seed, batch_size, enabled=False)
        on = _run_summary("vfdt_mc", seed, batch_size, enabled=True)
        assert on == off

    @settings(max_examples=4, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        batch_size=st.integers(min_value=32, max_value=160),
    )
    def test_arf(self, seed, batch_size):
        off = _run_summary("arf", seed, batch_size, enabled=False)
        on = _run_summary("arf", seed, batch_size, enabled=True)
        assert on == off

    def test_ht_ada_and_efdt_fixed_schedules(self):
        # The adaptive trees are slower; pin two representative schedules.
        for model_key in ("ht_ada", "efdt"):
            for batch_size in (25, 90):
                off = _run_summary(model_key, 3, batch_size, enabled=False)
                on = _run_summary(model_key, 3, batch_size, enabled=True)
                assert on == off, model_key

    def test_dmt_candidate_counters_on_a_wide_stream(self):
        """Fifty features, so the candidate stores fill and the admission
        bound prunes: summed counts the fresh candidates the stores computed
        exactly, admitted those they kept."""

        def run(enabled):
            TELEMETRY.reset()
            if enabled:
                TELEMETRY.enable()
            stream = make_dataset("hyperplane", scale=0.05, seed=3)
            evaluator = PrequentialEvaluator(batch_size=100)
            result = evaluator.evaluate(
                make_model("dmt", seed=3), stream, max_iterations=8
            )
            counts = [
                TELEMETRY.registry.counter(name).value
                for name in (
                    DMT_CANDIDATES_SUMMED_TOTAL,
                    DMT_CANDIDATES_ADMITTED_TOTAL,
                    DMT_CANDIDATES_EVICTED_TOTAL,
                )
            ]
            TELEMETRY.reset()
            return result.deterministic_summary(), counts

        off, _ = run(False)
        on, (summed, admitted, evicted) = run(True)
        assert on == off
        assert evicted > 0
        assert summed >= admitted > 0

    def test_serving_stack_unaffected(self):
        """Champion/challenger decisions are identical with telemetry on."""
        from repro.serving import ChampionChallenger, ModelRegistry

        def run(enabled):
            TELEMETRY.reset()
            if enabled:
                TELEMETRY.enable()
            stream = SEAGenerator(
                n_samples=1200, noise=0.1, drift_positions=(0.4,), seed=11
            )
            registry = ModelRegistry()
            deployment = ChampionChallenger(
                registry, "m", make_model("vfdt_mc", seed=11)
            )
            deployment.set_challenger(make_model("dmt", seed=11))
            reports = []
            for _ in range(10):
                X, y = stream.next_sample(120)
                report = deployment.process_batch(X, y)
                reports.append((report["drift"], report["promoted"]))
            TELEMETRY.reset()
            return reports, deployment.n_drifts, deployment.n_promotions

        assert run(False) == run(True)


class TestEventLogGolden:
    """Seeded drift scenario: the event log is reproducible."""

    def _run_events(self):
        TELEMETRY.reset()
        TELEMETRY.enable()
        evaluator = PrequentialEvaluator(batch_size=200)
        # One enabled session, two models on the same seeded drift scenario:
        # HT-Ada's ADWINs produce the drift detections; both trees split.
        for model_key in ("ht_ada", "vfdt_mc"):
            stream = make_dataset("sea_gradual", scale=0.1, seed=42)
            model = make_model(model_key, seed=42)
            evaluator.evaluate(model, stream)
        counts = TELEMETRY.events.counts_by_kind()
        records = TELEMETRY.events.records()
        TELEMETRY.disable()
        return counts, records

    def test_event_log_reproducible_and_nonempty(self):
        counts_a, records_a = self._run_events()
        counts_b, records_b = self._run_events()
        # Same seed, same configuration: identical event streams (ignoring
        # the wall-clock ``ts`` field, which is informational only).
        assert counts_a == counts_b
        strip = lambda rec: {k: v for k, v in rec.items() if k != "ts"}
        assert [strip(r) for r in records_a] == [strip(r) for r in records_b]
        # A drifting stream under HT-Ada must produce drift + split events.
        assert counts_a.get(DRIFT_DETECTED, 0) >= 1
        assert counts_a.get(TREE_SPLIT, 0) >= 1
        # seq is strictly increasing from 1.
        assert [r["seq"] for r in records_a] == list(
            range(1, len(records_a) + 1)
        )

    def test_event_fields_golden(self):
        counts, records = self._run_events()
        drift = next(r for r in records if r["kind"] == DRIFT_DETECTED)
        assert drift["detector"] == "ADWIN"
        assert drift["n_observations"] >= 1
        split = next(
            r
            for r in records
            if r["kind"] == TREE_SPLIT and r["model"] == "HoeffdingTreeClassifier"
        )
        assert isinstance(split["feature"], int)
        assert isinstance(split["threshold"], float)
        assert split["depth"] >= 0
