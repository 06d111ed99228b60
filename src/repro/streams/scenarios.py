"""Composable stream scenarios: vectorised, chunk-invariant stream transforms.

The paper evaluates learners on a fixed set of drifting streams; this module
turns drift construction into a library.  Every transform wraps a stream with
a pure ``_generate(start, count)`` (any :class:`~repro.streams.base.SeededStream`
or :class:`~repro.streams.base.ArrayStream`) and is itself a
:class:`SeededStream`, so arbitrary stacks of transforms stay

* **deterministic** -- the output is a pure function of (parameters, seed,
  row index),
* **chunk-invariant** -- any batch schedule yields the bit-identical trace,
* **restartable** -- ``restart()`` reproduces the identical stream, and
* **persistable** -- ``to_state()`` / ``from_state()`` round-trip the whole
  wrapper stack through :mod:`repro.persistence`, so a resumable experiment
  grid or a serving-side replay can rebuild the exact scenario.

Transforms never consume their wrapped stream (they read rows by index), so
one base stream instance can safely feed several scenarios.

Available transforms
--------------------
:class:`DriftInjector`
    Concept drift between two base streams: abrupt switch, gradual sigmoid
    hand-over, incremental feature interpolation, or recurring (periodic)
    concept alternation.
:class:`FeatureCorruptor`
    Missing values (MCAR), additive Gaussian sensor noise and feature swaps
    over a configurable stream window.
:class:`LabelNoiser`
    Uniform label flips over a configurable stream window.
:class:`ImbalanceShifter`
    Prior-probability shift: re-samples each block from an over-sampled
    window of the base stream so the class distribution ramps from the
    stream's natural prior to a target prior.
:class:`OscillatingDrift`
    Adversarial back-and-forth concept switching with shrinking periods,
    so drift detectors face an accelerating alternation.
:class:`SchemaShifter`
    Feature schema evolution: scheduled columns appear/disappear mid-stream
    (absent cells carry a fill value; every model rejects a NaN fill in its
    input validation).
:class:`LabelDelayer`
    Label-arrival lag metadata for delayed-label prequential evaluation
    (rows pass through untouched).
:class:`LabelMasker`
    Label scarcity metadata: a seeded fraction of labels never arrives
    (semi-supervised updates downstream).
:class:`ScenarioPipeline`
    Composes a base stream with a list of transform layers under a name.

The two label-realism transforms do not alter the data; they carry a
per-row label-arrival schedule that :func:`label_realism` collects for the
prequential evaluator.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.persistence.registry import register
from repro.streams.base import SeededStream, Stream
from repro.telemetry import SPAN_SCENARIO_GENERATE, TELEMETRY
from repro.streams.synthetic.drift import drift_sigmoid, wrapped_rows
from repro.utils.validation import check_in_range

__all__ = [
    "StreamTransform",
    "DriftInjector",
    "FeatureCorruptor",
    "LabelNoiser",
    "ImbalanceShifter",
    "OscillatingDrift",
    "SchemaShifter",
    "LabelDelayer",
    "LabelMasker",
    "LabelRealism",
    "label_realism",
    "ScenarioPipeline",
]


class StreamTransform(SeededStream):
    """Base class of single-input stream transforms.

    Wraps ``stream`` and exposes the full :class:`Stream` interface; the
    wrapped stream is read through its pure ``_generate`` and never consumed
    (its own position is untouched).
    """

    def __init__(self, stream: Stream, seed: int | None = None,
                 n_samples: int | None = None) -> None:
        super().__init__(
            n_samples=stream.n_samples if n_samples is None else n_samples,
            n_features=stream.n_features,
            n_classes=stream.n_classes,
            seed=seed,
        )
        self.stream = stream

    @property
    def classes(self) -> np.ndarray:
        return self.stream.classes

    def _source(self, start: int, count: int) -> tuple[np.ndarray, np.ndarray]:
        """Rows ``[start, start + count)`` of the wrapped stream.

        May alias the wrapped stream's block cache: transforms must copy
        before mutating in place (returning the arrays untouched or building
        new ones with vectorised ops is always safe -- the outer
        ``_generate`` copies aliased rows before handing them out).
        """
        return self.stream.peek_rows(start, count)

    def _class_positions(self, y: np.ndarray) -> np.ndarray:
        """Map label values to indices into :attr:`classes`."""
        classes = np.asarray(self.classes)
        if classes.shape == (self.n_classes,) and np.array_equal(
            classes, np.arange(self.n_classes)
        ):
            return y
        return np.searchsorted(classes, y)

    def _window_mask(
        self, start: int, count: int, window_start: float, window_end: float
    ) -> np.ndarray | bool:
        """Active-row mask of a ``[window_start, window_end)`` fraction window.

        Returns plain ``True`` / ``False`` when the whole block lies inside /
        outside the window, so the common case skips the per-row arrays.
        """
        first = start / self.n_samples
        last = (start + count - 1) / self.n_samples
        if last < window_start or first >= window_end:
            return False
        if first >= window_start and last < window_end:
            return True
        fractions = _fractions(np.arange(start, start + count), self.n_samples)
        return (fractions >= window_start) & (fractions < window_end)


def _fractions(indices: np.ndarray, n_samples: int) -> np.ndarray:
    return np.asarray(indices, dtype=float) / n_samples


class DriftInjector(StreamTransform):
    """Inject concept drift by combining two base streams.

    Row ``i`` of the output is row ``i`` (modulo child length) of either the
    base or the alternate stream; which one depends on the drift ``mode``:

    ``"abrupt"``
        Base before ``position`` (a stream fraction), alternate after.
    ``"gradual"``
        Random per-row hand-over with a sigmoid probability centred at
        ``position`` over a window of ``width`` (both stream fractions).
    ``"incremental"``
        Features interpolate linearly from base to alternate across the
        window ``[position, position + width)``; labels switch to the
        alternate concept at the window midpoint.
    ``"recurring"``
        The active concept alternates every ``period`` fraction of the
        stream (base during even periods, alternate during odd ones).

    Both streams must agree on ``n_features`` and ``n_classes``; they may
    have different lengths (rows are read modulo each child's length).
    """

    MODES = ("abrupt", "gradual", "incremental", "recurring")

    def __init__(
        self,
        stream: Stream,
        alternate: Stream,
        mode: str = "abrupt",
        position: float = 0.5,
        width: float = 0.1,
        period: float = 0.25,
        n_samples: int | None = None,
        seed: int | None = None,
    ) -> None:
        if stream.n_features != alternate.n_features:
            raise ValueError("Streams must have the same number of features.")
        if stream.n_classes != alternate.n_classes:
            raise ValueError("Streams must have the same number of classes.")
        if mode not in self.MODES:
            raise ValueError(f"mode must be one of {self.MODES}, got {mode!r}.")
        check_in_range(position, "position", 0.0, 1.0)
        if width <= 0.0:
            raise ValueError(f"width must be > 0, got {width!r}.")
        if period <= 0.0:
            raise ValueError(f"period must be > 0, got {period!r}.")
        super().__init__(stream, seed=seed, n_samples=n_samples)
        self.alternate = alternate
        self.mode = mode
        self.drift_position = float(position)
        self.width = float(width)
        self.period = float(period)

    #: Per-block cutoff on the *expected* number of sigmoid hand-overs:
    #: blocks whose expected alternate-row count is below this draw no
    #: coins and take the dominant side deterministically.  The decision is
    #: a pure function of the block indices, so chunk invariance holds; the
    #: sampled drift differs from the untruncated sigmoid by less than this
    #: many rows per block in expectation.
    GRADUAL_TAIL_CUTOFF = 1e-3

    def _gradual_probability(self, fraction: float) -> float:
        """Scalar fast path of :func:`drift_sigmoid` (the numpy version
        costs ~30us per scalar call, paid twice per block by the probes)."""
        exponent = -4.0 * (fraction - self.drift_position) / self.width
        return 1.0 / (1.0 + math.exp(min(max(exponent, -500.0), 500.0)))

    def _generate_block(
        self, rng: np.random.Generator, start: int, count: int, state: object
    ) -> tuple[np.ndarray, np.ndarray, object]:
        # Scalar block-level probes first: most blocks lie entirely on one
        # side of the transition and need neither index vectors nor coins
        # nor the second child stream.
        first = start / self.n_samples
        last = (start + count - 1) / self.n_samples
        take_alternate: np.ndarray | bool
        if self.mode == "abrupt":
            if last < self.drift_position:
                take_alternate = False
            elif first >= self.drift_position:
                take_alternate = True
            else:
                fractions = _fractions(np.arange(start, start + count), self.n_samples)
                take_alternate = fractions >= self.drift_position
        elif self.mode == "recurring":
            if int(first / self.period) == int(last / self.period):
                take_alternate = int(first / self.period) % 2 == 1
            else:
                fractions = _fractions(np.arange(start, start + count), self.n_samples)
                take_alternate = np.floor(fractions / self.period).astype(int) % 2 == 1
        elif self.mode == "incremental":
            return self._incremental_block(start, count, first, last)
        else:  # gradual
            if count * self._gradual_probability(last) < self.GRADUAL_TAIL_CUTOFF:
                take_alternate = False
            elif count * (1.0 - self._gradual_probability(first)) < self.GRADUAL_TAIL_CUTOFF:
                take_alternate = True
            else:
                fractions = _fractions(np.arange(start, start + count), self.n_samples)
                probabilities = drift_sigmoid(
                    fractions - self.drift_position, self.width
                )
                take_alternate = rng.random(count) < probabilities
        if take_alternate is False or (
            take_alternate is not True and not take_alternate.any()
        ):
            X, y = wrapped_rows(self.stream, start, count)
            return X, y, None
        if take_alternate is True or take_alternate.all():
            X, y = wrapped_rows(self.alternate, start, count)
            return X, y, None
        X_base, y_base = wrapped_rows(self.stream, start, count)
        X_alt, y_alt = wrapped_rows(self.alternate, start, count)
        X = np.where(take_alternate[:, None], X_alt, X_base)
        y = np.where(take_alternate, y_alt, y_base)
        return X, y, None

    def _incremental_block(
        self, start: int, count: int, first: float, last: float
    ) -> tuple[np.ndarray, np.ndarray, object]:
        if last <= self.drift_position:  # blend still exactly zero
            X, y = wrapped_rows(self.stream, start, count)
            return X, y, None
        if first >= self.drift_position + self.width:  # blend saturated at one
            X, y = wrapped_rows(self.alternate, start, count)
            return X, y, None
        fractions = _fractions(np.arange(start, start + count), self.n_samples)
        blend = np.clip((fractions - self.drift_position) / self.width, 0.0, 1.0)
        X_base, y_base = wrapped_rows(self.stream, start, count)
        X_alt, y_alt = wrapped_rows(self.alternate, start, count)
        X = (1.0 - blend[:, None]) * X_base + blend[:, None] * X_alt
        y = np.where(blend < 0.5, y_base, y_alt)
        return X, y, None


class FeatureCorruptor(StreamTransform):
    """Corrupt features over a stream window.

    Inside the active window ``[start, end)`` (stream fractions), in order:

    1. ``swap`` -- pairs of feature columns exchanged (simulating rewired
       sensors),
    2. ``noise_std`` -- additive Gaussian noise on every feature,
    3. ``missing_rate`` -- each cell independently replaced by
       ``missing_value`` (missing-completely-at-random).
    """

    def __init__(
        self,
        stream: Stream,
        missing_rate: float = 0.0,
        noise_std: float = 0.0,
        swap: Sequence[tuple[int, int]] | None = None,
        start: float = 0.0,
        end: float = 1.0,
        missing_value: float = 0.0,
        seed: int | None = None,
    ) -> None:
        super().__init__(stream, seed=seed)
        check_in_range(missing_rate, "missing_rate", 0.0, 1.0)
        if noise_std < 0:
            raise ValueError(f"noise_std must be >= 0, got {noise_std!r}.")
        check_in_range(start, "start", 0.0, 1.0)
        check_in_range(end, "end", 0.0, 1.0)
        if end < start:
            raise ValueError(f"end must be >= start, got ({start!r}, {end!r}).")
        swap = tuple((int(a), int(b)) for a, b in (swap or ()))
        for a, b in swap:
            if not (0 <= a < stream.n_features and 0 <= b < stream.n_features):
                raise ValueError(
                    f"swap pair ({a}, {b}) outside the {stream.n_features} features."
                )
        self.missing_rate = float(missing_rate)
        self.noise_std = float(noise_std)
        self.swap = swap
        self.start = float(start)
        self.end = float(end)
        self.missing_value = float(missing_value)

    def _generate_block(
        self, rng: np.random.Generator, start: int, count: int, state: object
    ) -> tuple[np.ndarray, np.ndarray, object]:
        X, y = self._source(start, count)
        active = self._window_mask(start, count, self.start, self.end)
        if active is False:
            # Fully inactive block: pass the source rows through untouched
            # (no draws made, so the lazy block generator is never built).
            return X, y, None
        X = X.copy()  # the source rows may alias the wrapped stream's cache
        if active is True:
            active = slice(None)
        for left, right in self.swap:
            swapped = X[active, left].copy()
            X[active, left] = X[active, right]
            X[active, right] = swapped
        if self.noise_std > 0:
            noise = rng.normal(0.0, self.noise_std, size=(count, self.n_features))
            X[active] += noise[active]
        if self.missing_rate > 0:
            missing = rng.random((count, self.n_features)) < self.missing_rate
            X[active] = np.where(missing[active], self.missing_value, X[active])
        return X, y, None


class LabelNoiser(StreamTransform):
    """Flip each label to a uniformly random *other* class.

    Inside the window ``[start, end)`` (stream fractions) every label is
    replaced with probability ``noise``; the replacement is drawn uniformly
    from the remaining classes, so the corruption is unbiased.
    """

    def __init__(
        self,
        stream: Stream,
        noise: float = 0.1,
        start: float = 0.0,
        end: float = 1.0,
        seed: int | None = None,
    ) -> None:
        super().__init__(stream, seed=seed)
        check_in_range(noise, "noise", 0.0, 1.0)
        check_in_range(start, "start", 0.0, 1.0)
        check_in_range(end, "end", 0.0, 1.0)
        if end < start:
            raise ValueError(f"end must be >= start, got ({start!r}, {end!r}).")
        self.noise = float(noise)
        self.start = float(start)
        self.end = float(end)

    def _generate_block(
        self, rng: np.random.Generator, start: int, count: int, state: object
    ) -> tuple[np.ndarray, np.ndarray, object]:
        X, y = self._source(start, count)
        active = self._window_mask(start, count, self.start, self.end)
        if active is False or self.noise == 0.0:
            return X, y, None
        flip = rng.random(count) < self.noise
        if active is not True:
            flip &= active
        if flip.any():
            shift = rng.integers(1, self.n_classes, size=count)
            classes = np.asarray(self.classes)
            positions = self._class_positions(y)
            y = np.where(flip, classes[(positions + shift) % len(classes)], y)
        return X, y, None


class ImbalanceShifter(StreamTransform):
    """Shift the class prior of a stream over time (prior-probability drift).

    Each output block is selected from an over-sampled window of the base
    stream: for a block at stream fraction ``t`` the desired class
    distribution interpolates linearly from the window's natural (empirical)
    distribution to ``class_weights`` as ``t`` ramps from ``start`` to
    ``end``.  Rows are picked greedily per class in temporal order (largest-
    remainder apportionment, deficits refilled with the earliest unused
    rows), so the transform is fully deterministic and chunk-invariant.

    The output stream is shorter than the base stream by the ``oversample``
    factor (``n_samples = floor(base.n_samples / oversample)``); a larger
    factor tracks the target prior more faithfully at higher generation
    cost.  The pool caps what is reachable: a class can make up at most
    roughly ``oversample`` times its natural fraction of the base stream --
    weights beyond that are silently served at the supply limit (the
    deficit refill keeps the stream length exact), so pick ``oversample``
    accordingly.
    """

    def __init__(
        self,
        stream: Stream,
        class_weights: Sequence[float],
        start: float = 0.0,
        end: float = 1.0,
        oversample: float = 1.5,
        seed: int | None = None,
    ) -> None:
        weights = np.asarray(class_weights, dtype=float)
        if len(weights) != stream.n_classes:
            raise ValueError(
                f"class_weights must have {stream.n_classes} entries, "
                f"got {len(weights)}."
            )
        if weights.min() < 0 or not np.isclose(weights.sum(), 1.0):
            raise ValueError("class_weights must be non-negative and sum to one.")
        check_in_range(start, "start", 0.0, 1.0)
        check_in_range(end, "end", 0.0, 1.0)
        if end < start:
            raise ValueError(f"end must be >= start, got ({start!r}, {end!r}).")
        if oversample < 1.0:
            raise ValueError(f"oversample must be >= 1, got {oversample!r}.")
        n_out = int(stream.n_samples / oversample)
        if n_out < 1:
            raise ValueError("Stream too short for the oversample factor.")
        super().__init__(stream, seed=seed, n_samples=n_out)
        self.class_weights = weights
        self.start = float(start)
        self.end = float(end)
        self.oversample = float(oversample)

    def _target_at(self, fraction: float, empirical: np.ndarray) -> np.ndarray:
        if self.end > self.start:
            ramp = np.clip((fraction - self.start) / (self.end - self.start), 0.0, 1.0)
        else:
            ramp = float(fraction >= self.start)
        return (1.0 - ramp) * empirical + ramp * self.class_weights

    def _generate_block(
        self, rng: np.random.Generator, start: int, count: int, state: object
    ) -> tuple[np.ndarray, np.ndarray, object]:
        source_lo = int(start * self.oversample)
        source_hi = min(
            int((start + count) * self.oversample), self.stream.n_samples
        )
        X_pool, y_pool = self._source(source_lo, source_hi - source_lo)
        positions = self._class_positions(y_pool)
        empirical = np.bincount(positions, minlength=self.n_classes) / len(y_pool)
        fraction = (start + 0.5 * count) / self.n_samples
        desired = self._target_at(fraction, empirical)
        # Largest-remainder apportionment of `count` rows over the classes.
        raw = desired * count
        counts = np.floor(raw).astype(int)
        remainder = count - counts.sum()
        if remainder > 0:
            order = np.argsort(-(raw - counts), kind="stable")
            counts[order[:remainder]] += 1
        chosen = np.zeros(len(y_pool), dtype=bool)
        for class_index in range(self.n_classes):
            rows = np.flatnonzero(positions == class_index)
            take = min(counts[class_index], len(rows))
            if take:
                # Evenly spaced over the pool, not the earliest rows: the
                # prior then holds within any sub-window of a block, not
                # just at block granularity.
                chosen[rows[np.arange(take) * len(rows) // take]] = True
        deficit = count - int(chosen.sum())
        if deficit > 0:
            unused = np.flatnonzero(~chosen)
            chosen[unused[:deficit]] = True
        selected = np.flatnonzero(chosen)[:count]
        return X_pool[selected], y_pool[selected], None


class OscillatingDrift(StreamTransform):
    """Adversarial back-and-forth concept alternation with shrinking periods.

    The active concept flips between the base and the alternate stream at a
    schedule of switch points that starts at stream fraction ``start`` with
    an interval of ``period`` and shrinks by ``decay`` after every switch
    (floored at ``min_period``), so the alternation *accelerates*: drift
    detectors that reset on detection face the next switch ever sooner.
    The schedule is a pure function of the parameters, so the transform is
    chunk-invariant and needs no randomness.
    """

    #: Hard cap on the number of switch points (the ``min_period`` floor
    #: bounds it anyway; this guards degenerate parameter combinations).
    MAX_SWITCHES = 10_000

    def __init__(
        self,
        stream: Stream,
        alternate: Stream,
        start: float = 0.25,
        period: float = 0.1,
        decay: float = 0.6,
        min_period: float = 0.01,
        n_samples: int | None = None,
        seed: int | None = None,
    ) -> None:
        if stream.n_features != alternate.n_features:
            raise ValueError("Streams must have the same number of features.")
        if stream.n_classes != alternate.n_classes:
            raise ValueError("Streams must have the same number of classes.")
        check_in_range(start, "start", 0.0, 1.0)
        if period <= 0.0:
            raise ValueError(f"period must be > 0, got {period!r}.")
        if not 0.0 < decay <= 1.0:
            raise ValueError(f"decay must be in (0, 1], got {decay!r}.")
        if min_period <= 0.0:
            raise ValueError(f"min_period must be > 0, got {min_period!r}.")
        super().__init__(stream, seed=seed, n_samples=n_samples)
        self.alternate = alternate
        self.start = float(start)
        self.period = float(period)
        self.decay = float(decay)
        self.min_period = float(min_period)

    def switch_fractions(self) -> np.ndarray:
        """Switch points (stream fractions) of the alternation schedule."""
        switches: list[float] = []
        fraction = self.start
        length = self.period
        while fraction < 1.0 and len(switches) < self.MAX_SWITCHES:
            switches.append(fraction)
            fraction += length
            length = max(length * self.decay, self.min_period)
        return np.asarray(switches)

    def _generate_block(
        self, rng: np.random.Generator, start: int, count: int, state: object
    ) -> tuple[np.ndarray, np.ndarray, object]:
        switches = self.switch_fractions()
        fractions = _fractions(np.arange(start, start + count), self.n_samples)
        passed = np.searchsorted(switches, fractions, side="right")
        take_alternate = passed % 2 == 1
        if not take_alternate.any():
            X, y = wrapped_rows(self.stream, start, count)
            return X, y, None
        if take_alternate.all():
            X, y = wrapped_rows(self.alternate, start, count)
            return X, y, None
        X_base, y_base = wrapped_rows(self.stream, start, count)
        X_alt, y_alt = wrapped_rows(self.alternate, start, count)
        X = np.where(take_alternate[:, None], X_alt, X_base)
        y = np.where(take_alternate, y_alt, y_base)
        return X, y, None


class SchemaShifter(StreamTransform):
    """Feature schema evolution: columns appear and disappear mid-stream.

    ``schedule`` maps feature columns to their *presence window*: a
    ``(feature, appear, disappear)`` triple keeps the column's values only
    while the stream fraction lies in ``[appear, disappear)`` and replaces
    them with ``fill_value`` elsewhere.  A column appearing mid-stream has
    ``appear > 0``; one disappearing has ``disappear < 1``.

    The physical width of the stream never changes (models see a fixed
    ``n_features``); absent cells carry ``fill_value``.  The default fill is
    ``0.0`` so every model in the family keeps working; pass ``float('nan')``
    to mark absent cells explicitly for consumers with their own imputation.
    No model of the package accepts such batches: each one's input
    validation (:func:`repro.utils.validation.check_features`) rejects NaN
    with a ``ValueError``.
    """

    def __init__(
        self,
        stream: Stream,
        schedule: Sequence[tuple[int, float, float]],
        fill_value: float = 0.0,
        seed: int | None = None,
    ) -> None:
        super().__init__(stream, seed=seed)
        entries: list[tuple[int, float, float]] = []
        for feature, appear, disappear in schedule:
            feature = int(feature)
            if not 0 <= feature < stream.n_features:
                raise ValueError(
                    f"schedule feature {feature} outside the "
                    f"{stream.n_features} features."
                )
            check_in_range(appear, "appear", 0.0, 1.0)
            check_in_range(disappear, "disappear", 0.0, 1.0)
            if disappear < appear:
                raise ValueError(
                    f"disappear must be >= appear, got ({appear!r}, {disappear!r})."
                )
            entries.append((feature, float(appear), float(disappear)))
        if len({feature for feature, _, _ in entries}) != len(entries):
            raise ValueError("schedule lists a feature more than once.")
        self.schedule = tuple(entries)
        self.fill_value = float(fill_value)

    def _generate_block(
        self, rng: np.random.Generator, start: int, count: int, state: object
    ) -> tuple[np.ndarray, np.ndarray, object]:
        X, y = self._source(start, count)
        copied = False
        for feature, appear, disappear in self.schedule:
            present = self._window_mask(start, count, appear, disappear)
            if present is True:
                continue
            if not copied:
                X = X.copy()  # the source rows may alias the wrapped cache
                copied = True
            if present is False:
                X[:, feature] = self.fill_value
            else:
                X[~present, feature] = self.fill_value
        return X, y, None


class LabelDelayer(StreamTransform):
    """Delayed-label metadata: every label arrives ``delay`` rows late.

    The rows themselves pass through untouched -- the transform only carries
    the arrival schedule, which :func:`label_realism` exposes to the
    prequential evaluator: the label of row ``i`` becomes available once the
    evaluator has consumed row ``i + delay`` (prequential with
    label-arrival lag); predictions are still made at test time.
    """

    def __init__(
        self, stream: Stream, delay: int, seed: int | None = None
    ) -> None:
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay!r}.")
        super().__init__(stream, seed=seed)
        self.delay = int(delay)

    def label_arrival(self, start: int, count: int) -> np.ndarray:
        """Stream index at which each row's label becomes available."""
        return np.arange(start, start + count, dtype=np.int64) + self.delay

    def _generate_block(
        self, rng: np.random.Generator, start: int, count: int, state: object
    ) -> tuple[np.ndarray, np.ndarray, object]:
        X, y = self._source(start, count)
        return X, y, None


class LabelMasker(StreamTransform):
    """Label-scarcity metadata: a seeded fraction of labels never arrives.

    Inside the window ``[start, end)`` (stream fractions) each row's label
    is withheld independently with probability ``rate``; the availability
    mask is drawn block-wise from the counter-based stream RNG, so it is a
    pure function of the row index (chunk-invariant and identical after a
    restart or a persistence round-trip).  Rows pass through untouched --
    the evaluator scores and trains only on rows whose label arrives
    (semi-supervised updates).
    """

    def __init__(
        self,
        stream: Stream,
        rate: float = 0.5,
        start: float = 0.0,
        end: float = 1.0,
        seed: int | None = None,
    ) -> None:
        super().__init__(stream, seed=seed)
        check_in_range(rate, "rate", 0.0, 1.0)
        check_in_range(start, "start", 0.0, 1.0)
        check_in_range(end, "end", 0.0, 1.0)
        if end < start:
            raise ValueError(f"end must be >= start, got ({start!r}, {end!r}).")
        self.rate = float(rate)
        self.start = float(start)
        self.end = float(end)

    def label_available(self, start: int, count: int) -> np.ndarray:
        """Availability mask of rows ``[start, start + count)``.

        Draws are made for whole blocks (and sliced to the request) so any
        consumption schedule sees the bit-identical mask.
        """
        available = np.ones(count, dtype=bool)
        if self.rate == 0.0 or count <= 0:
            return available
        size = self.block_size
        first, last = start // size, (start + count - 1) // size
        for block in range(first, last + 1):
            block_start = block * size
            block_count = self._block_row_count(block)
            withheld = self.block_rng(block).random(block_count) < self.rate
            lo = max(start - block_start, 0)
            hi = min(start + count - block_start, block_count)
            out_lo = block_start + lo - start
            available[out_lo : out_lo + (hi - lo)] = ~withheld[lo:hi]
        window = self._window_mask(start, count, self.start, self.end)
        if window is False:
            return np.ones(count, dtype=bool)
        if window is not True:
            available |= ~window
        return available

    def _generate_block(
        self, rng: np.random.Generator, start: int, count: int, state: object
    ) -> tuple[np.ndarray, np.ndarray, object]:
        X, y = self._source(start, count)
        return X, y, None


@register
class LabelRealism:
    """Combined label-arrival schedule of a stream's transform stack.

    Collected by :func:`label_realism`; consumed by the prequential
    evaluator.  ``delay`` is the total label-arrival lag (rows) and
    ``available`` the conjunction of every masker's availability mask.
    """

    def __init__(
        self, delay: int = 0, maskers: Sequence[LabelMasker] = ()
    ) -> None:
        self.delay = int(delay)
        self.maskers = tuple(maskers)

    @property
    def active(self) -> bool:
        return self.delay > 0 or bool(self.maskers)

    def arrival(self, start: int, count: int) -> np.ndarray:
        """Stream index at which each row's label becomes available."""
        return np.arange(start, start + count, dtype=np.int64) + self.delay

    def available(self, start: int, count: int) -> np.ndarray:
        """Mask of rows whose label ever arrives."""
        available = np.ones(count, dtype=bool)
        for masker in self.maskers:
            available &= masker.label_available(start, count)
        return available


def label_realism(stream: object) -> LabelRealism:
    """Collect the label-arrival schedule from a stream's wrapper stack.

    Walks through :class:`~repro.streams.preprocessing.NormalizedStream`,
    :class:`ScenarioPipeline` and :class:`StreamTransform` wrappers, summing
    :class:`LabelDelayer` delays and conjoining :class:`LabelMasker` masks.
    Label-realism transforms must sit above any row-reordering transform
    (e.g. :class:`ImbalanceShifter`), which is how the scenario grammar
    composes them; their row indices then coincide with the output stream's.
    """
    delay = 0
    maskers: list[LabelMasker] = []
    current = stream
    while current is not None:
        if isinstance(current, LabelDelayer):
            delay += current.delay
        elif isinstance(current, LabelMasker):
            maskers.append(current)
        current = getattr(current, "stream", None)
    return LabelRealism(delay=delay, maskers=maskers)


class ScenarioPipeline(Stream):
    """A named stack of scenario transforms over a base stream.

    Parameters
    ----------
    base:
        Innermost stream (any pure-``_generate`` stream).
    layers:
        Sequence of ``(transform_class, kwargs)`` pairs, applied innermost
        first; each class is instantiated as ``cls(current_stream, **kwargs)``.
    name:
        Scenario identifier (used by the experiment registry and reports).

    The pipeline delegates generation to the outermost transform and is
    itself chunk-invariant, restartable and persistable whenever its layers
    are.
    """

    def __init__(
        self,
        base: Stream,
        layers: Sequence[tuple[type, dict]] = (),
        name: str = "scenario",
    ) -> None:
        stream = base
        for transform_cls, kwargs in layers:
            stream = transform_cls(stream, **kwargs)
        super().__init__(
            n_samples=stream.n_samples,
            n_features=stream.n_features,
            n_classes=stream.n_classes,
        )
        self.base = base
        self.stream = stream
        self.name = str(name)

    @property
    def classes(self) -> np.ndarray:
        return self.stream.classes

    def layer_stack(self) -> list[Stream]:
        """Streams from the outermost transform down to the innermost
        wrapped generator (inclusive), following each transform's wrapped
        stream -- also through a base that is itself a transform (e.g. a
        :class:`DriftInjector` underneath corruption layers)."""
        stack: list[Stream] = []
        stream = self.stream
        while True:
            stack.append(stream)
            if not isinstance(stream, StreamTransform):
                break
            stream = stream.stream
        return stack

    def describe(self) -> str:
        """One-line description of the transform stack (outermost first)."""
        names = [type(stream).__name__ for stream in self.layer_stack()]
        return f"{self.name}: " + " -> ".join(names)

    def _generate(self, start: int, count: int) -> tuple[np.ndarray, np.ndarray]:
        with TELEMETRY.span(SPAN_SCENARIO_GENERATE):
            return self.stream._generate(start, count)
