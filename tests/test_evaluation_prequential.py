"""Tests for the prequential (test-then-train) evaluator."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.base import ComplexityReport, StreamClassifier
from repro.core.dmt import DynamicModelTree
from repro.evaluation import metrics, prequential
from repro.evaluation.prequential import (
    PrequentialEvaluator,
    PrequentialResult,
    PrequentialSession,
)
from repro.experiments.registry import make_dataset, make_model
from repro.streams import LabelDelayer, LabelMasker, label_realism
from repro.streams.base import ArrayStream
from repro.streams.realworld import make_surrogate
from repro.streams.synthetic import SEAGenerator
from repro.telemetry import EVALUATION_COMPLETED, LABEL_DELAYED_FLUSH, TELEMETRY
from tests.oracles import OneMatrixScores


class _CountingClassifier(StreamClassifier):
    """Classifier stub recording how it is called by the evaluator."""

    def __init__(self):
        super().__init__()
        self.fit_calls = 0
        self.predict_calls = 0
        self.samples_seen = 0

    def partial_fit(self, X, y, classes=None):
        X, y = self._validate_input(X, y)
        self._update_classes(y, classes)
        self.fit_calls += 1
        self.samples_seen += len(y)
        return self

    def predict_proba(self, X):
        X, _ = self._validate_input(X)
        if self.classes_ is None:
            raise RuntimeError("not fitted")
        self.predict_calls += 1
        proba = np.zeros((len(X), self.n_classes_))
        proba[:, 0] = 1.0
        return proba

    def complexity(self):
        return ComplexityReport(n_splits=1, n_parameters=2)

    def reset(self):
        return self


def _binary_stream(n=1000, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(n, 3))
    y = (X[:, 0] > 0.5).astype(int)
    return ArrayStream(X, y)


class TestPrequentialEvaluator:
    def test_invalid_arguments_raise(self):
        with pytest.raises(ValueError):
            PrequentialEvaluator(batch_fraction=0.0)
        with pytest.raises(ValueError):
            PrequentialEvaluator(warmup_batches=0)

    def test_unknown_f1_average_is_rejected_by_the_evaluator(self):
        with pytest.raises(ValueError, match="'micro'"):
            PrequentialEvaluator(f1_average="micro")

    def test_unknown_f1_average_is_rejected_by_the_session(self):
        stream = _binary_stream(n=100)
        model = _CountingClassifier()
        with pytest.raises(ValueError, match="'micro'"):
            PrequentialSession(model, stream, f1_average="micro")
        assert model.fit_calls == 0

    def test_binary_f1_needs_a_two_class_stream(self):
        """Rejected when the session starts, before any batch is trained on
        or counted (7-class covertype)."""
        stream = make_surrogate("covertype", scale=0.001, seed=0)
        model = _CountingClassifier()
        evaluator = PrequentialEvaluator(batch_size=50, f1_average="binary")
        with pytest.raises(ValueError, match="exactly two classes"):
            evaluator.evaluate(model, stream)
        assert model.fit_calls == 0 and stream.position == 0
        result = evaluator.evaluate(_CountingClassifier(), _binary_stream(n=100))
        assert len(result.f1_trace) == 1

    def test_test_then_train_call_pattern(self):
        """Every batch trains once; every batch except the warm-up is scored."""
        stream = _binary_stream(n=1000)
        model = _CountingClassifier()
        evaluator = PrequentialEvaluator(batch_fraction=0.01)
        result = evaluator.evaluate(model, stream)
        assert model.fit_calls == 100
        assert model.predict_calls == 99
        assert result.n_iterations == 100
        assert result.n_samples == 1000
        assert len(result.f1_trace) == 99
        assert len(result.n_splits_trace) == 100

    def test_all_samples_are_used_once(self):
        stream = _binary_stream(n=505)
        model = _CountingClassifier()
        PrequentialEvaluator(batch_fraction=0.01).evaluate(model, stream)
        assert model.samples_seen == 505

    def test_max_iterations_caps_run(self):
        stream = _binary_stream(n=1000)
        result = PrequentialEvaluator(batch_fraction=0.01).evaluate(
            _CountingClassifier(), stream, max_iterations=10
        )
        assert result.n_iterations == 10

    def test_explicit_batch_size(self):
        stream = _binary_stream(n=200)
        result = PrequentialEvaluator(batch_size=50).evaluate(
            _CountingClassifier(), stream
        )
        assert result.n_iterations == 4

    def test_result_names_default_to_types(self):
        stream = _binary_stream(n=100)
        result = PrequentialEvaluator(batch_size=50).evaluate(
            _CountingClassifier(), stream
        )
        assert result.model_name == "_CountingClassifier"

    def test_summary_contains_headline_fields(self):
        stream = _binary_stream(n=300)
        result = PrequentialEvaluator(batch_size=30).evaluate(
            _CountingClassifier(), stream, model_name="stub", dataset_name="toy"
        )
        summary = result.summary()
        for key in (
            "model", "dataset", "f1_mean", "f1_std", "n_splits_mean",
            "n_parameters_mean", "time_mean",
        ):
            assert key in summary
        assert summary["model"] == "stub"
        assert summary["n_splits_mean"] == pytest.approx(1.0)

    def test_windowed_traces_have_iteration_length(self):
        stream = _binary_stream(n=500)
        result = PrequentialEvaluator(batch_size=25).evaluate(
            _CountingClassifier(), stream
        )
        f1_mean, f1_std = result.windowed_f1(window=5)
        assert len(f1_mean) == len(result.f1_trace)
        log_mean, _ = result.windowed_log_splits(window=5)
        assert len(log_mean) == len(result.n_splits_trace)

    def test_dmt_on_sea_beats_constant_classifier(self):
        stream = SEAGenerator(n_samples=4000, noise=0.1, seed=3)
        dmt_result = PrequentialEvaluator(batch_fraction=0.01).evaluate(
            DynamicModelTree(random_state=3), stream
        )
        stream_again = SEAGenerator(n_samples=4000, noise=0.1, seed=3)
        constant_result = PrequentialEvaluator(batch_fraction=0.01).evaluate(
            _CountingClassifier(), stream_again
        )
        assert dmt_result.f1_mean > constant_result.f1_mean

    def test_overall_confusion_is_exposed(self):
        stream = _binary_stream(n=400)
        result = PrequentialEvaluator(batch_size=40).evaluate(
            _CountingClassifier(), stream
        )
        assert result.overall_confusion.total == 360  # all but the warm-up batch

    def test_consumed_stream_is_restarted(self):
        """Regression: a consumed stream must not yield a silent empty result."""
        stream = _binary_stream(n=400)
        stream.take()  # fully consume
        assert stream.position == 400
        result = PrequentialEvaluator(batch_size=40).evaluate(
            _CountingClassifier(), stream
        )
        assert result.n_iterations == 10
        assert result.n_samples == 400

    def test_partially_consumed_stream_evaluates_full_stream(self):
        stream = _binary_stream(n=400, seed=5)
        stream.next_sample(123)
        partial = PrequentialEvaluator(batch_size=40).evaluate(
            _CountingClassifier(), stream
        )
        fresh = PrequentialEvaluator(batch_size=40).evaluate(
            _CountingClassifier(), _binary_stream(n=400, seed=5)
        )
        assert partial.n_samples == fresh.n_samples == 400
        assert partial.f1_trace == fresh.f1_trace


class TestPrequentialResult:
    def test_empty_result_summaries_are_zero(self):
        result = PrequentialResult(model_name="m", dataset_name="d")
        assert result.f1_mean == 0.0
        assert result.n_splits_mean == 0.0
        assert result.time_mean == 0.0

    def test_deterministic_summary_drops_time_fields(self):
        stream = _binary_stream(n=300)
        result = PrequentialEvaluator(batch_size=30).evaluate(
            _CountingClassifier(), stream
        )
        deterministic = result.deterministic_summary()
        assert "time_mean" not in deterministic
        assert "time_std" not in deterministic
        assert deterministic["f1_mean"] == result.summary()["f1_mean"]

    def test_result_state_round_trip(self):
        stream = _binary_stream(n=300)
        result = PrequentialEvaluator(batch_size=30).evaluate(
            _CountingClassifier(), stream, model_name="stub", dataset_name="toy"
        )
        clone = PrequentialResult.from_state(result.to_state())
        assert clone.summary() == result.summary()
        assert clone.f1_trace == result.f1_trace
        np.testing.assert_array_equal(
            clone.overall_confusion.matrix, result.overall_confusion.matrix
        )


class TestLabelRealismEvaluation:
    """Delayed and missing labels: buffering, flushing, resume."""

    def test_zero_delay_reduces_to_the_plain_loop(self):
        reference = PrequentialEvaluator(batch_size=40).evaluate(
            DynamicModelTree(random_state=3),
            SEAGenerator(n_samples=600, seed=5),
            dataset_name="sea",
        )
        wrapped = PrequentialEvaluator(batch_size=40).evaluate(
            DynamicModelTree(random_state=3),
            LabelDelayer(SEAGenerator(n_samples=600, seed=5), delay=0),
            dataset_name="sea",
        )
        assert wrapped.deterministic_summary() == reference.deterministic_summary()
        assert wrapped.f1_trace == reference.f1_trace

    def test_delayed_labels_defer_training_then_flush(self):
        model = _CountingClassifier()
        stream = LabelDelayer(_binary_stream(n=300), delay=50)
        TELEMETRY.reset()
        TELEMETRY.enable()
        try:
            result = PrequentialEvaluator(batch_size=30).evaluate(model, stream)
            flushes = TELEMETRY.events.records(LABEL_DELAYED_FLUSH)
        finally:
            TELEMETRY.reset()
        # Every row eventually trains, exactly once.
        assert result.n_trained_samples == 300
        assert model.samples_seen == 300
        # Rows whose labels were still in flight at the end of the stream
        # (indices 251..299: arrival index+50 > 300) flush in one final fit.
        assert len(flushes) == 1
        assert flushes[0]["n_flushed"] == 49
        assert flushes[0]["n_pending"] == 0

    def test_delay_shifts_training_behind_the_batch(self):
        model = _CountingClassifier()
        evaluator = PrequentialEvaluator(batch_size=30)
        session = evaluator.session(
            model, LabelDelayer(_binary_stream(n=300), delay=45)
        )
        session.step()  # position 30, arrivals start at 45: nothing due yet
        assert model.samples_seen == 0
        assert len(session.pending_arrival) == 30
        session.step()  # position 60: rows 0..15 are due (45 + 15 <= 60)
        assert model.samples_seen == 16
        assert len(session.pending_arrival) == 44

    def test_fully_masked_stream_never_trains_or_scores(self):
        model = _CountingClassifier()
        stream = LabelMasker(
            _binary_stream(n=300), rate=1.0, start=0.0, end=1.0, seed=11
        )
        result = PrequentialEvaluator(batch_size=30).evaluate(model, stream)
        assert model.fit_calls == 0
        assert result.n_trained_samples == 0
        assert result.n_scored_samples == 0
        assert result.n_samples == 300

    def test_partial_mask_trains_exactly_the_available_rows(self):
        stream = LabelMasker(
            _binary_stream(n=300), rate=0.6, start=0.0, end=1.0, seed=11
        )
        available = label_realism(stream).available(0, 300)
        assert 0 < available.sum() < 300
        model = _CountingClassifier()
        result = PrequentialEvaluator(batch_size=30).evaluate(model, stream)
        assert result.n_trained_samples == int(available.sum())
        assert model.samples_seen == int(available.sum())
        # Scored batches exclude the warm-up batch and the masked rows.
        assert result.n_scored_samples == int(available[30:].sum())

    def test_resume_under_delayed_labels_is_bit_identical(self):
        """A mid-run persistence round-trip (pending labels in flight)
        finishes bit-identically to the uninterrupted run."""

        def make_session():
            stream = LabelMasker(
                LabelDelayer(SEAGenerator(n_samples=600, seed=5), delay=70),
                rate=0.8,
                start=0.1,
                end=0.9,
                seed=13,
            )
            return PrequentialEvaluator(batch_size=40).session(
                DynamicModelTree(random_state=3), stream
            )

        reference = make_session().run()

        session = make_session()
        for _ in range(7):
            assert session.step()
        assert len(session.pending_arrival) > 0  # labels genuinely in flight
        clone = PrequentialSession.from_state(session.to_state())
        np.testing.assert_array_equal(
            clone.pending_arrival, session.pending_arrival
        )
        resumed = clone.run()
        assert resumed.deterministic_summary() == reference.deterministic_summary()
        assert resumed.f1_trace == reference.f1_trace
        assert resumed.kappa_temporal_trace == reference.kappa_temporal_trace
        np.testing.assert_array_equal(
            resumed.overall_confusion.matrix, reference.overall_confusion.matrix
        )


@pytest.fixture
def still_clock(monkeypatch):
    """Every step takes 0.0 s, so whole results compare by ``to_state()``."""
    monkeypatch.setattr(
        prequential, "time", SimpleNamespace(perf_counter=lambda: 0.0)
    )


class TestDeferredScoring:
    """The traces are filled once, when the run ends, from every scored
    batch's counts; each batch scores as the per-batch scorer scores it."""

    @pytest.mark.parametrize(
        "model, dataset, scale, average",
        [
            ("vfdt_mc", "covertype", 0.002, "macro"),
            ("vfdt_mc", "kdd", 0.002, "weighted"),
            ("dmt", "electricity", 0.02, "binary"),
            ("dmt", "fuzz-42-3", 0.02, "weighted"),
        ],
    )
    def test_traces_match_the_per_batch_scorer(
        self, model, dataset, scale, average, monkeypatch
    ):
        """Each scored batch's rows, and the last arrived label before them
        (kappa-temporal's no-change reference), are derived from the stream
        here; fuzz-42-3 delays and masks labels, so both skip masked rows."""
        counted, scored = [], []
        counts = metrics.ConfusionMatrix.counts
        stream = make_dataset(dataset, scale=scale, seed=1)
        session = PrequentialEvaluator(batch_size=25, f1_average=average).session(
            make_model(model, seed=1), stream
        )

        def record_counts(self, y_true, y_pred):
            counted.append(counts(self, y_true, y_pred))
            return counted[-1]

        def record_reference(y_true, last_label=None):
            start = (session.stream.position - 1) // 25 * 25
            scored.append((start, np.array(y_true), last_label))
            return metrics.no_change_count(y_true, last_label)

        monkeypatch.setattr(metrics.ConfusionMatrix, "counts", record_counts)
        monkeypatch.setattr(prequential, "no_change_count", record_reference)
        result = session.run()
        assert len(counted) == len(scored) == len(result.f1_trace) > 20

        stream.restart()
        labels = stream.take()[1]
        realism = label_realism(stream)
        arrived = (
            realism.available(0, len(labels))
            if realism.maskers
            else np.ones(len(labels), dtype=bool)
        )
        expected = {name: [] for name in ("f1_trace", "accuracy_trace",
                                           "kappa_trace", "kappa_m_trace",
                                           "kappa_temporal_trace")}
        for matrix, (start, y_true, last_label) in zip(counted, scored):
            rows = slice(start, start + 25)
            np.testing.assert_array_equal(y_true, labels[rows][arrived[rows]])
            before = labels[:start][arrived[:start]]
            assert last_label == (int(before[-1]) if len(before) else None)
            one = OneMatrixScores(matrix, stream.classes)
            expected["f1_trace"].append(one.f1(average))
            expected["accuracy_trace"].append(one.accuracy())
            expected["kappa_trace"].append(one.kappa())
            expected["kappa_m_trace"].append(one.kappa_m())
            expected["kappa_temporal_trace"].append(
                one.kappa_temporal(y_true, last_label)
            )
        for name, values in expected.items():
            got = getattr(result, name)
            assert all(type(value) is float for value in got), name
            assert [v.hex() for v in got] == [v.hex() for v in values], name
        np.testing.assert_array_equal(
            result.overall_confusion.matrix, np.sum(counted, axis=0)
        )

    def test_a_step_keeps_counts_and_the_end_fills_the_traces(self):
        session = PrequentialEvaluator(batch_size=40).session(
            _CountingClassifier(), _binary_stream(n=400)
        )
        for _ in range(4):
            assert session.step()
        assert session.result.f1_trace == [] and session.result.kappa_trace == []
        assert len(session.batch_counts) == len(session.no_change) == 3
        assert session.result.n_scored_samples == 120
        session.run()
        assert len(session.result.f1_trace) == 9
        assert session.batch_counts == [] and session.no_change == []

    def test_resume_on_a_plain_stream_is_bit_identical(self, still_clock):
        """A session saved after several scored batches holds their counts;
        loaded and finished, it gives the uninterrupted run's result."""

        def make_session():
            return PrequentialEvaluator(batch_size=40, f1_average="macro").session(
                DynamicModelTree(random_state=3),
                SEAGenerator(n_samples=800, seed=5),
                dataset_name="sea",
            )

        reference = make_session().run()
        session = make_session()
        for _ in range(8):
            assert session.step()
        assert len(session.batch_counts) == 7
        clone = PrequentialSession.from_state(session.to_state())
        for kept, loaded in zip(session.batch_counts, clone.batch_counts):
            np.testing.assert_array_equal(loaded, kept)
        assert clone.no_change == session.no_change
        resumed = clone.run()
        assert resumed.to_state() == reference.to_state()
        assert len(resumed.f1_trace) == 19

    def test_the_end_pass_runs_once(self, still_clock, monkeypatch):
        """A step after the one that returned False, and a second run(),
        change no trace and not the overall matrix."""
        passes = []

        class CountingScores(metrics.MatrixScores):
            __slots__ = ()

            def __init__(self, matrices, classes):
                passes.append(len(matrices))
                super().__init__(matrices, classes)

        monkeypatch.setattr(prequential, "MatrixScores", CountingScores)
        session = PrequentialEvaluator(batch_size=40).session(
            DynamicModelTree(random_state=3), SEAGenerator(n_samples=600, seed=5)
        )
        TELEMETRY.reset()
        TELEMETRY.enable()
        try:
            result = session.run()
            assert passes == [14]
            state = result.to_state()
            assert not session.step()
            assert session.run() is result
            completed = TELEMETRY.events.records(EVALUATION_COMPLETED)
        finally:
            TELEMETRY.reset()
        assert passes == [14]
        assert result.to_state() == state
        assert len(completed) == 1
