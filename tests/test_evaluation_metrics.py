"""Tests for the evaluation metrics and trace aggregation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.evaluation.complexity import sliding_window_aggregate, summarize_trace
from repro.evaluation.metrics import (
    ConfusionMatrix,
    MatrixScores,
    accuracy_score,
    cohen_kappa_score,
    f1_score,
    kappa_m_score,
    kappa_temporal_score,
    no_change_count,
    precision_score,
    recall_score,
)
from tests.oracles import OneMatrixScores


class TestConfusionMatrix:
    def test_requires_two_classes(self):
        with pytest.raises(ValueError):
            ConfusionMatrix(np.array([1]))

    def test_update_accumulates(self):
        matrix = ConfusionMatrix(np.array([0, 1]))
        matrix.update(np.array([0, 1, 1]), np.array([0, 1, 0]))
        matrix.update(np.array([0]), np.array([1]))
        assert matrix.total == 4
        assert matrix.matrix[0, 0] == 1
        assert matrix.matrix[1, 0] == 1
        assert matrix.matrix[0, 1] == 1
        assert matrix.matrix[1, 1] == 1

    def test_unknown_label_raises(self):
        matrix = ConfusionMatrix(np.array([0, 1]))
        with pytest.raises(ValueError, match="Unknown"):
            matrix.update(np.array([2]), np.array([0]))
        with pytest.raises(ValueError, match="Unknown"):
            matrix.counts(np.array([0]), np.array([2]))
        assert matrix.total == 0

    def test_unsorted_classes_bin_correctly(self):
        """Regression: user-supplied unsorted classes must not mis-bin counts."""
        y_true = np.array([0, 0, 1, 1, 1])
        y_pred = np.array([0, 1, 1, 1, 0])
        unsorted = ConfusionMatrix(np.array([1, 0])).update(y_true, y_pred)
        sorted_ = ConfusionMatrix(np.array([0, 1])).update(y_true, y_pred)
        # Rows/columns follow the caller's order: row 0 is class 1 here.
        np.testing.assert_array_equal(unsorted.matrix, sorted_.matrix[::-1, ::-1])
        assert unsorted.accuracy() == sorted_.accuracy()
        assert unsorted.f1("weighted") == pytest.approx(sorted_.f1("weighted"))
        assert unsorted.f1("macro") == pytest.approx(sorted_.f1("macro"))

    def test_unsorted_classes_reject_truly_unknown_labels(self):
        matrix = ConfusionMatrix(np.array([3, 1, 2]))
        matrix.update(np.array([3, 1, 2]), np.array([1, 1, 2]))
        assert matrix.total == 3
        with pytest.raises(ValueError, match="Unknown"):
            matrix.update(np.array([0]), np.array([1]))

    def test_binary_average_is_order_independent(self):
        y_true = np.array([0, 0, 1, 1, 1])
        y_pred = np.array([0, 1, 1, 1, 0])
        unsorted = ConfusionMatrix(np.array([1, 0])).update(y_true, y_pred)
        sorted_ = ConfusionMatrix(np.array([0, 1])).update(y_true, y_pred)
        # Positive class is the larger label regardless of caller order.
        assert unsorted.f1("binary") == pytest.approx(sorted_.f1("binary"))
        assert unsorted.recall("binary") == pytest.approx(2.0 / 3.0)

    def test_duplicate_classes_raise(self):
        with pytest.raises(ValueError, match="Duplicate"):
            ConfusionMatrix(np.array([0, 1, 1]))

    def test_state_round_trip(self):
        matrix = ConfusionMatrix(np.array([1, 0]))
        matrix.update(np.array([0, 1, 1]), np.array([0, 1, 0]))
        clone = ConfusionMatrix.from_state(matrix.to_state())
        np.testing.assert_array_equal(clone.matrix, matrix.matrix)
        np.testing.assert_array_equal(clone.classes, matrix.classes)
        clone.update(np.array([0]), np.array([0]))
        assert clone.total == matrix.total + 1

    def test_length_mismatch_raises(self):
        matrix = ConfusionMatrix(np.array([0, 1]))
        with pytest.raises(ValueError):
            matrix.update(np.array([0, 1]), np.array([0]))
        with pytest.raises(ValueError, match="inconsistent lengths"):
            matrix.counts(np.array([0]), np.array([0, 1]))

    def test_perfect_predictions(self):
        matrix = ConfusionMatrix(np.array([0, 1, 2]))
        y = np.array([0, 1, 2, 1, 0])
        matrix.update(y, y)
        assert matrix.accuracy() == 1.0
        assert matrix.f1("macro") == 1.0
        assert matrix.precision("weighted") == 1.0

    def test_binary_average_targets_positive_class(self):
        matrix = ConfusionMatrix(np.array([0, 1]))
        matrix.update(np.array([1, 1, 0, 0]), np.array([1, 0, 0, 0]))
        precision = matrix.precision("binary")
        recall = matrix.recall("binary")
        assert precision == pytest.approx(1.0)
        assert recall == pytest.approx(0.5)
        assert matrix.f1("binary") == pytest.approx(2 / 3)

    def test_binary_average_requires_two_classes(self):
        matrix = ConfusionMatrix(np.array([0, 1, 2]))
        with pytest.raises(ValueError):
            matrix.f1("binary")

    def test_invalid_average_raises(self):
        matrix = ConfusionMatrix(np.array([0, 1]))
        with pytest.raises(ValueError):
            matrix.f1("micro-ish")

    def test_macro_ignores_absent_classes(self):
        matrix = ConfusionMatrix(np.array([0, 1, 2]))
        matrix.update(np.array([0, 0, 1]), np.array([0, 0, 1]))
        # Class 2 never appears; macro averaging must not dilute the score.
        assert matrix.f1("macro") == pytest.approx(1.0)


class TestFunctionalMetrics:
    def test_known_f1_value(self):
        y_true = np.array([0, 0, 1, 1, 1, 0])
        y_pred = np.array([0, 1, 1, 1, 0, 0])
        # per class: class0 p=2/3 r=2/3 f1=2/3; class1 p=2/3 r=2/3 f1=2/3
        assert f1_score(y_true, y_pred, average="macro") == pytest.approx(2 / 3)

    def test_accuracy(self):
        assert accuracy_score(np.array([0, 1, 1]), np.array([0, 0, 1])) == (
            pytest.approx(2 / 3)
        )

    def test_precision_recall_consistency(self):
        y_true = np.array([0, 1, 1, 1])
        y_pred = np.array([1, 1, 1, 0])
        precision = precision_score(y_true, y_pred, average="weighted")
        recall = recall_score(y_true, y_pred, average="weighted")
        assert 0.0 <= precision <= 1.0
        assert 0.0 <= recall <= 1.0

    def test_single_class_input_is_padded(self):
        # Degenerate batches with one observed class must not crash.
        score = f1_score(np.array([1, 1]), np.array([1, 1]))
        assert 0.0 <= score <= 1.0

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 60))
    def test_f1_bounds_property(self, seed, n):
        rng = np.random.default_rng(seed)
        y_true = rng.integers(0, 3, size=n)
        y_pred = rng.integers(0, 3, size=n)
        score = f1_score(y_true, y_pred)
        assert 0.0 <= score <= 1.0

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_perfect_prediction_property(self, seed):
        rng = np.random.default_rng(seed)
        y = rng.integers(0, 4, size=50)
        assert f1_score(y, y.copy()) == pytest.approx(1.0)
        assert accuracy_score(y, y.copy()) == pytest.approx(1.0)


class TestTraceAggregation:
    def test_summarize_trace(self):
        mean, std = summarize_trace([1.0, 2.0, 3.0])
        assert mean == pytest.approx(2.0)
        assert std == pytest.approx(np.std([1.0, 2.0, 3.0]))

    def test_summarize_empty_trace(self):
        assert summarize_trace([]) == (0.0, 0.0)

    def test_sliding_window_matches_trailing_mean(self):
        values = np.arange(10, dtype=float)
        means, stds = sliding_window_aggregate(values, window=3)
        assert means[0] == pytest.approx(0.0)
        assert means[2] == pytest.approx(1.0)
        assert means[-1] == pytest.approx(8.0)
        assert stds[0] == pytest.approx(0.0)

    def test_window_of_one_reproduces_trace(self):
        values = np.array([3.0, 1.0, 4.0])
        means, stds = sliding_window_aggregate(values, window=1)
        np.testing.assert_allclose(means, values)
        np.testing.assert_allclose(stds, 0.0)

    def test_invalid_window_raises(self):
        with pytest.raises(ValueError):
            sliding_window_aggregate([1.0], window=0)

    def test_empty_trace_aggregates_to_empty(self):
        means, stds = sliding_window_aggregate([], window=5)
        assert means.size == 0 and stds.size == 0

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 80), window=st.integers(1, 100))
    def test_vectorised_formulation_matches_naive_loop(self, seed, n, window):
        rng = np.random.default_rng(seed)
        values = rng.normal(100.0, 5.0, size=n)  # large offset stresses cancellation
        means, stds = sliding_window_aggregate(values, window)
        for index in range(n):
            chunk = values[max(index - window + 1, 0) : index + 1]
            assert means[index] == pytest.approx(chunk.mean(), abs=1e-9)
            assert stds[index] == pytest.approx(chunk.std(), abs=1e-7)

    def test_nan_input_poisons_its_windows(self):
        values = np.array([1.0, np.nan, 3.0, 4.0, 5.0])
        means, stds = sliding_window_aggregate(values, window=2)
        assert means[0] == pytest.approx(1.0)
        assert np.isnan(means[1]) and np.isnan(means[2])  # windows holding the NaN
        assert np.isnan(stds[1]) and np.isnan(stds[2])
        assert means[3] == pytest.approx(3.5)
        assert means[4] == pytest.approx(4.5)

    def test_huge_window_equals_expanding_statistics(self):
        values = np.array([3.0, 1.0, 4.0, 1.0, 5.0])
        means, stds = sliding_window_aggregate(values, window=50_000_000)
        for index in range(values.size):
            prefix = values[: index + 1]
            assert means[index] == pytest.approx(prefix.mean())
            assert stds[index] == pytest.approx(prefix.std())

    def test_regime_shift_trace_keeps_within_window_std(self):
        """Regression: a huge magnitude jump mid-trace (concept drift) must
        not wash out the genuine within-window spread of the stable regions."""
        rng = np.random.default_rng(1)
        values = np.concatenate(
            [rng.normal(0.0, 0.3, size=500), rng.normal(1e6, 0.3, size=500)]
        )
        window = 100
        means, stds = sliding_window_aggregate(values, window)
        for index in (250, 900):  # deep inside each stable regime
            chunk = values[index - window + 1 : index + 1]
            assert stds[index] == pytest.approx(chunk.std(), rel=1e-9)
            assert stds[index] > 0.2
            assert means[index] == pytest.approx(chunk.mean(), rel=1e-9)


# ---------------------------------------------------------------------------
# Differential tests: brute-force references vs the counting pass and scorer
# ---------------------------------------------------------------------------
def _tally(classes, y_true, y_pred):
    """The confusion matrix, one row at a time (rows: true, columns: predicted)."""
    position = {label: index for index, label in enumerate(classes)}
    tally = np.zeros((len(classes), len(classes)))
    for t, p in zip(y_true, y_pred):
        tally[position[t], position[p]] += 1
    return tally


def _accuracy_reference(y_true, y_pred):
    n = len(y_true)
    return sum(t == p for t, p in zip(y_true, y_pred)) / n if n else 0.0


def _f1_reference(classes, y_true, y_pred, average):
    """Averaged F1 from per-class true-positive, predicted and actual counts."""
    per_class, support = [], []
    for label in classes:
        hits = sum(t == label and p == label for t, p in zip(y_true, y_pred))
        predicted = sum(p == label for p in y_pred)
        actual = sum(t == label for t in y_true)
        precision = hits / predicted if predicted else 0.0
        recall = hits / actual if actual else 0.0
        total = precision + recall
        per_class.append(2 * precision * recall / total if total else 0.0)
        support.append(actual)
    if average == "macro":
        present = [f1 for f1, count in zip(per_class, support) if count]
        return sum(present) / len(present) if present else 0.0
    if average == "weighted":
        n = sum(support)
        return sum(f1 * count for f1, count in zip(per_class, support)) / n if n else 0.0
    return per_class[classes.index(max(classes))]  # binary: the larger label


def _kappa_reference(y_true, y_pred):
    """Cohen's kappa from first principles (per-class frequency products)."""
    n = len(y_true)
    if n == 0:
        return 0.0
    observed = sum(t == p for t, p in zip(y_true, y_pred)) / n
    labels = set(y_true) | set(y_pred)
    expected = sum(
        (list(y_true).count(label) / n) * (list(y_pred).count(label) / n)
        for label in labels
    )
    if expected >= 1.0:
        return 0.0
    return (observed - expected) / (1.0 - expected)


def _kappa_m_reference(y_true, y_pred):
    """Kappa-M from first principles (majority-class baseline accuracy)."""
    n = len(y_true)
    if n == 0:
        return 0.0
    observed = sum(t == p for t, p in zip(y_true, y_pred)) / n
    majority = max(list(y_true).count(label) for label in set(y_true)) / n
    if majority >= 1.0:
        return 0.0
    return (observed - majority) / (1.0 - majority)


def _kappa_temporal_reference(y_true, y_pred, last_label=None):
    """Kappa-temporal from first principles (no-change baseline accuracy)."""
    n = len(y_true)
    if n == 0:
        return 0.0
    observed = sum(t == p for t, p in zip(y_true, y_pred)) / n
    previous = [last_label] + list(y_true[:-1])
    reference = sum(
        prev is not None and t == prev for t, prev in zip(y_true, previous)
    ) / n
    if reference >= 1.0:
        return 0.0
    return (observed - reference) / (1.0 - reference)


#: Unsorted, non-contiguous class spaces of 2-25 labels, and a batch of
#: 0-60 rows (empty batches included) labelled from each.
labelled_batches = st.lists(
    st.integers(-1000, 1000), min_size=2, max_size=25, unique=True
).flatmap(
    lambda classes: st.integers(0, 60).flatmap(
        lambda n: st.tuples(
            st.just(classes),
            st.lists(st.sampled_from(classes), min_size=n, max_size=n),
            st.lists(st.sampled_from(classes), min_size=n, max_size=n),
        )
    )
)


def _scores(classes, y_true, y_pred):
    """The scorer on one counting pass over the batch: a stack of one, so
    every metric is an array of one value."""
    counts = ConfusionMatrix(classes).counts(y_true, y_pred)
    return MatrixScores(counts[np.newaxis], np.asarray(classes))


class TestKappaMetrics:
    @given(batch=labelled_batches)
    @settings(max_examples=120, deadline=None)
    def test_counts_match_per_row_tally(self, batch):
        classes, y_true, y_pred = batch
        matrix = ConfusionMatrix(classes)
        tally = _tally(classes, y_true, y_pred)
        counts = matrix.counts(y_true, y_pred)
        assert counts.dtype == matrix.matrix.dtype
        np.testing.assert_array_equal(counts, tally)
        matrix.update(y_true, y_pred).update(y_true, y_pred)
        np.testing.assert_array_equal(matrix.matrix, 2 * tally)

    @given(batch=labelled_batches)
    @settings(max_examples=120, deadline=None)
    def test_f1_and_accuracy_match_brute_force(self, batch):
        classes, y_true, y_pred = batch
        scores = _scores(classes, y_true, y_pred)
        matrix = ConfusionMatrix(classes).update(y_true, y_pred)
        averages = ["macro", "weighted"] + (["binary"] if len(classes) == 2 else [])
        for average in averages:
            expected = _f1_reference(classes, y_true, y_pred, average)
            assert scores.f1(average)[0] == pytest.approx(expected, abs=1e-12)
            assert matrix.f1(average) == scores.f1(average)[0]
        for average in ("macro", "weighted"):
            assert f1_score(y_true, y_pred, average) == pytest.approx(
                _f1_reference(classes, y_true, y_pred, average), abs=1e-12
            )
        expected = _accuracy_reference(y_true, y_pred)
        assert scores.accuracy()[0] == pytest.approx(expected, abs=1e-12)
        assert accuracy_score(y_true, y_pred) == pytest.approx(expected, abs=1e-12)

    @given(batch=labelled_batches)
    @settings(max_examples=120, deadline=None)
    def test_weighted_f1_keeps_numpys_average_reduction(self, batch):
        scores = _scores(*batch)
        if scores.total[0]:
            per_class = scores.per_class_f1()[0]
            assert scores.f1("weighted")[0] == float(
                np.average(per_class, weights=scores.support[0])
            )

    @given(batch=labelled_batches)
    @settings(max_examples=120, deadline=None)
    def test_cohen_kappa_matches_brute_force(self, batch):
        classes, y_true, y_pred = batch
        expected = _kappa_reference(y_true, y_pred)
        assert cohen_kappa_score(y_true, y_pred) == pytest.approx(expected, abs=1e-12)
        assert _scores(*batch).kappa()[0] == pytest.approx(expected, abs=1e-12)

    @given(batch=labelled_batches)
    @settings(max_examples=120, deadline=None)
    def test_kappa_m_matches_brute_force(self, batch):
        classes, y_true, y_pred = batch
        expected = _kappa_m_reference(y_true, y_pred)
        assert kappa_m_score(y_true, y_pred) == pytest.approx(expected, abs=1e-12)
        assert _scores(*batch).kappa_m()[0] == pytest.approx(expected, abs=1e-12)

    @given(batch=labelled_batches, data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_kappa_temporal_matches_brute_force(self, batch, data):
        classes, y_true, y_pred = batch
        last_label = data.draw(st.one_of(st.none(), st.sampled_from(classes)))
        expected = _kappa_temporal_reference(y_true, y_pred, last_label)
        assert kappa_temporal_score(
            y_true, y_pred, last_label=last_label
        ) == pytest.approx(expected, abs=1e-12)
        scores = _scores(*batch)
        assert scores.kappa_temporal(
            [no_change_count(np.asarray(y_true), last_label)]
        )[0] == pytest.approx(expected, abs=1e-12)

    @given(batch=labelled_batches)
    @settings(max_examples=60, deadline=None)
    def test_kappas_are_bounded_above_by_one(self, batch):
        classes, y_true, y_pred = batch
        assert cohen_kappa_score(y_true, y_pred) <= 1.0
        assert kappa_m_score(y_true, y_pred) <= 1.0
        assert kappa_temporal_score(y_true, y_pred) <= 1.0
        scores = _scores(*batch)
        assert max(scores.kappa()[0], scores.kappa_m()[0]) <= 1.0

    def test_perfect_agreement_scores_one(self):
        y = [0, 1, 2, 0, 1, 2, 2, 0]
        assert cohen_kappa_score(y, y) == pytest.approx(1.0)
        assert kappa_m_score(y, y) == pytest.approx(1.0)
        assert kappa_temporal_score(y, y) == pytest.approx(1.0)

    def test_single_class_windows_are_degenerate(self):
        # A window where only one class was ever observed: the chance and
        # majority baselines are already perfect, so those kappas collapse
        # to the 0.0 sentinel.
        y = [1, 1, 1, 1]
        assert cohen_kappa_score(y, y) == 0.0
        assert kappa_m_score(y, y) == 0.0
        # The no-change baseline only becomes perfect once the preceding
        # label is known (without it, the first row counts as a miss).
        assert kappa_temporal_score(y, y, last_label=1) == 0.0
        assert kappa_temporal_score(y, y) == pytest.approx(1.0)
        # ... even when the classifier is wrong: the denominators stay
        # degenerate, so the sentinel still applies.
        wrong = [1, 1, 0, 1]
        assert kappa_m_score(y, wrong) == 0.0
        assert kappa_temporal_score(y, wrong, last_label=1) == 0.0

    def test_empty_windows_score_zero(self):
        assert cohen_kappa_score([], []) == 0.0
        assert kappa_m_score([], []) == 0.0
        assert kappa_temporal_score([], []) == 0.0
        empty = ConfusionMatrix([0, 1])
        assert empty.kappa() == 0.0
        assert empty.kappa_m() == 0.0

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            kappa_temporal_score([0, 1], [0])

    def test_last_label_threads_across_batches(self):
        # Splitting a window into batches and carrying the previous batch's
        # final true label reproduces the single-window no-change baseline.
        y_true = [0, 0, 1, 1, 1, 2, 2, 0, 0, 0]
        y_pred = [0, 1, 1, 1, 2, 2, 2, 0, 1, 0]
        whole = kappa_temporal_score(y_true, y_pred)
        assert whole == pytest.approx(
            _kappa_temporal_reference(y_true, y_pred, None)
        )
        tail = kappa_temporal_score(
            y_true[5:], y_pred[5:], last_label=y_true[4]
        )
        assert tail == pytest.approx(
            _kappa_temporal_reference(y_true[5:], y_pred[5:], y_true[4])
        )

    def test_confusion_matrix_kappa_matches_functional_form(self):
        rng = np.random.default_rng(9)
        y_true = rng.integers(0, 3, size=200)
        y_pred = rng.integers(0, 3, size=200)
        matrix = ConfusionMatrix([0, 1, 2])
        matrix.update(y_true, y_pred)
        assert matrix.kappa() == pytest.approx(cohen_kappa_score(y_true, y_pred))
        assert matrix.kappa_m() == pytest.approx(kappa_m_score(y_true, y_pred))


# ---------------------------------------------------------------------------
# The stacked scorer against the per-batch scorer, bit for bit
# ---------------------------------------------------------------------------
@st.composite
def labelled_stacks(draw, min_classes=2, max_classes=30):
    """Unsorted class spaces of 2-30 labels and 1-50 batches of 0-150 rows:
    empty batches, batches missing most classes, and batches where every
    class is present."""
    classes = draw(
        st.lists(
            st.integers(-1000, 1000),
            min_size=min_classes,
            max_size=max_classes,
            unique=True,
        )
    )
    n_batches = draw(st.integers(1, 50))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    batches = []
    for _ in range(n_batches):
        kind = rng.integers(4)
        n = 0 if kind == 0 else int(rng.integers(1, 8 if kind == 1 else 150))
        if kind == 3:
            # Every class present: true labels cover the whole class space.
            y_true = rng.permutation(np.concatenate([classes, rng.choice(classes, n)]))
        else:
            pool = rng.choice(classes, size=int(rng.integers(1, len(classes) + 1)))
            y_true = rng.choice(pool, size=n)
        right = rng.random(len(y_true)) < rng.random()
        y_pred = np.where(right, y_true, rng.choice(classes, size=len(y_true)))
        batches.append((y_true, y_pred))
    last_label = draw(st.one_of(st.none(), st.sampled_from(classes)))
    return classes, batches, last_label


def _hex(values):
    return [float(value).hex() for value in values]


class TestStackedScorer:
    """``MatrixScores`` over a stack gives every matrix the per-batch
    scorer's values (``OneMatrixScores``), compared by ``float.hex``."""

    def _check(self, classes, batches, last_label):
        counter = ConfusionMatrix(classes)
        matrices = np.stack([counter.counts(t, p) for t, p in batches])
        no_change = []
        previous = []
        for y_true, _ in batches:
            previous.append(last_label)
            no_change.append(no_change_count(y_true, last_label))
            if len(y_true):
                last_label = y_true[-1]
        stack = MatrixScores(matrices, counter.classes)
        ones = [OneMatrixScores(matrix, counter.classes) for matrix in matrices]
        averages = ["macro", "weighted"] + (["binary"] if len(classes) == 2 else [])
        for average in averages:
            for metric in ("f1", "precision", "recall"):
                assert _hex(getattr(stack, metric)(average)) == _hex(
                    getattr(one, metric)(average) for one in ones
                ), (metric, average)
        assert _hex(stack.accuracy()) == _hex(one.accuracy() for one in ones)
        assert _hex(stack.kappa()) == _hex(one.kappa() for one in ones)
        assert _hex(stack.kappa_m()) == _hex(one.kappa_m() for one in ones)
        assert _hex(stack.kappa_temporal(np.array(no_change))) == _hex(
            one.kappa_temporal(y_true, label)
            for one, (y_true, _), label in zip(ones, batches, previous)
        )
        for metric in ("per_class_precision", "per_class_recall", "per_class_f1"):
            expected = np.stack([getattr(one, metric)() for one in ones])
            assert getattr(stack, metric)().tobytes() == expected.tobytes(), metric

    @given(stack=labelled_stacks())
    @settings(max_examples=150, deadline=None)
    def test_every_matrix_scores_as_on_its_own(self, stack):
        self._check(*stack)

    @given(stack=labelled_stacks(min_classes=8))
    @settings(max_examples=60, deadline=None)
    def test_eight_or_more_present_classes(self, stack):
        """From nine present classes on, numpy's pairwise sum adds a row in
        eight partial sums, not in sequence: the weighted and macro rows must
        still add as the one matrix does."""
        self._check(*stack)

    @given(stack=labelled_stacks(max_classes=2))
    @settings(max_examples=40, deadline=None)
    def test_binary_average_on_two_classes(self, stack):
        self._check(*stack)

    def test_a_nine_class_row_sums_pairwise(self):
        """A matrix whose nine per-class products add to different bits in
        sequence than in numpy's pairwise order scores the pairwise bits."""
        classes = np.arange(9)
        rng = np.random.default_rng(0)
        for _ in range(200):
            y_true = rng.permutation(np.concatenate([classes, rng.choice(9, 60)]))
            y_pred = np.where(rng.random(69) < 0.6, y_true, rng.choice(9, 69))
            matrix = ConfusionMatrix(classes).counts(y_true, y_pred)
            one = OneMatrixScores(matrix, classes)
            sequential = 0.0
            for product in one.per_class_f1() * one.support:
                sequential += product
            if sequential / one.total != one.f1("weighted"):
                break
        else:
            pytest.fail("no draw separates sequential from pairwise summation")
        stack = MatrixScores(np.stack([np.zeros_like(matrix), matrix]), classes)
        assert stack.f1("weighted")[1].hex() == one.f1("weighted").hex()
        assert stack.f1("weighted")[1] != sequential / one.total

    def test_a_stack_rejects_a_single_matrix(self):
        with pytest.raises(ValueError, match="stack of 2x2"):
            MatrixScores(np.zeros((2, 2)), np.array([0, 1]))
        with pytest.raises(ValueError, match="stack of 2x2"):
            MatrixScores(np.zeros((1, 3, 3)), np.array([0, 1]))

    def test_an_empty_stack_scores_nothing(self):
        stack = MatrixScores(np.zeros((0, 3, 3)), np.array([2, 0, 1]))
        for values in (stack.f1("macro"), stack.f1("weighted"), stack.kappa(),
                       stack.kappa_m(), stack.kappa_temporal(np.zeros(0))):
            assert values.shape == (0,)
