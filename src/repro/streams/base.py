"""Base data-stream abstractions.

A :class:`Stream` produces observations in order; the prequential evaluator
consumes it in mini-batches of a fixed fraction of the stream (0.1% in the
paper).  Streams are finite here because every evaluated data set has a known
length, but the API mirrors a potentially infinite source.

:class:`SeededStream` is the deterministic backbone of every random
generator in this package: randomness is drawn block-wise from counter-based
seed sequences, which makes ``_generate(start, count)`` a pure function of
the stream parameters and the row indices.  Two consequences the rest of the
system relies on:

* **Chunk invariance** -- consuming a stream in any schedule of batch sizes
  yields the bit-identical trace as materialising it in one call, so the
  prequential batch fraction never changes the data itself.
* **Restart determinism** -- :meth:`Stream.restart` reproduces the identical
  trace, even for streams created with ``seed=None`` (a random entropy is
  drawn once at construction and kept).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterator

import numpy as np

from repro.persistence.mixin import PersistableStateMixin
from repro.telemetry import SPAN_STREAM_GENERATE_BLOCK, TELEMETRY


class Stream(PersistableStateMixin, ABC):
    """A finite, ordered source of ``(X, y)`` observations."""

    def __init__(self, n_samples: int, n_features: int, n_classes: int) -> None:
        if n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {n_samples!r}.")
        if n_features < 1:
            raise ValueError(f"n_features must be >= 1, got {n_features!r}.")
        if n_classes < 2:
            raise ValueError(f"n_classes must be >= 2, got {n_classes!r}.")
        self.n_samples = int(n_samples)
        self.n_features = int(n_features)
        self.n_classes = int(n_classes)
        self._position = 0

    # ------------------------------------------------------------------ API
    @abstractmethod
    def _generate(self, start: int, count: int) -> tuple[np.ndarray, np.ndarray]:
        """Produce ``count`` observations starting at index ``start``."""

    def next_sample(self, batch_size: int = 1) -> tuple[np.ndarray, np.ndarray]:
        """Return the next batch of at most ``batch_size`` observations."""
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size!r}.")
        count = min(batch_size, self.n_remaining_samples())
        if count == 0:
            raise StopIteration("The stream is exhausted.")
        X, y = self._generate(self._position, count)
        self._position += count
        return X, y

    def has_more_samples(self) -> bool:
        return self._position < self.n_samples

    def n_remaining_samples(self) -> int:
        return self.n_samples - self._position

    @property
    def position(self) -> int:
        return self._position

    def restart(self) -> "Stream":
        self._position = 0
        return self

    @property
    def classes(self) -> np.ndarray:
        return np.arange(self.n_classes)

    # ------------------------------------------------------------ materialise
    def take(self, n: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Materialise up to ``n`` observations (all remaining by default)."""
        count = self.n_remaining_samples() if n is None else min(n, self.n_remaining_samples())
        if count == 0:
            return np.empty((0, self.n_features)), np.empty(0, dtype=int)
        return self.next_sample(count)

    def peek_rows(self, start: int, count: int) -> tuple[np.ndarray, np.ndarray]:
        """Read rows by index without consuming the stream.

        May return views into internal caches (see the
        :class:`SeededStream` override): callers must treat the arrays as
        read-only.  The base implementation simply delegates to
        ``_generate``, which is required to be position-independent for
        every stream that participates in scenario composition.
        """
        return self._generate(start, count)


class _LazyBlockRng:
    """Deferred per-block generator: built on the first actual draw.

    Forwards every attribute to the real :class:`numpy.random.Generator`,
    constructing it only when touched -- so blocks whose generation turns
    out to be fully deterministic never pay the ~20us construction cost.
    """

    __slots__ = ("_stream", "_block", "_rng")

    def __init__(self, stream: "SeededStream", block: int) -> None:
        self._stream = stream
        self._block = block
        self._rng = None

    def __getattr__(self, name: str) -> object:
        if self._rng is None:
            self._rng = self._stream.block_rng(self._block)
        return getattr(self._rng, name)


class SeededStream(Stream):
    """Deterministic random stream built from counter-based blocks.

    Rows are produced in fixed-size blocks of :attr:`block_size`; the
    randomness of block ``b`` comes from a generator derived from
    ``(entropy, channel, b)`` via :class:`numpy.random.SeedSequence`, so the
    values of row ``i`` depend only on the stream parameters and ``i`` --
    never on how the stream has been consumed so far.  This makes every
    subclass chunk-invariant and restart-deterministic by construction.

    Subclasses implement :meth:`_generate_block` (vectorised over one
    block).  Streams whose concept evolves sequentially (e.g. the rotating
    hyperplane) set ``stateful = True`` and thread an explicit state value
    through ``_generate_block``; block-boundary states are cached so forward
    consumption stays O(rows).

    ``seed=None`` draws a random entropy once at construction; the stream is
    then still deterministic under :meth:`restart` and serialisation.
    """

    #: Number of rows generated per counter block.  Large enough to amortise
    #: the per-block generator construction (~20us), small enough that a
    #: cached block of a wide stream stays well under a megabyte.
    block_size = 1024

    #: Whether block generation threads a sequential state value.
    stateful = False

    #: RNG channel of per-row block draws.
    CHANNEL_ROWS = 0
    #: RNG channel of one-off concept/setup draws.
    CHANNEL_SETUP = 1

    #: Attributes skipped by the persistence codec and rebuilt by
    #: :meth:`_init_transient` (pure caches, cheap to regenerate).
    _repro_transient = ("_block_cache", "_boundary_states", "_rng_cache")

    def __init__(
        self,
        n_samples: int,
        n_features: int,
        n_classes: int,
        seed: int | None = None,
    ) -> None:
        super().__init__(
            n_samples=n_samples, n_features=n_features, n_classes=n_classes
        )
        self.seed = None if seed is None else int(seed)
        self._entropy = (
            # Deliberate one-time OS-entropy draw: seed=None streams stay
            # deterministic under restart()/persistence because the entropy
            # is drawn once here and kept. repro-lint: disable=RNG002
            int(np.random.SeedSequence().entropy) if seed is None else int(seed)
        )
        self._init_transient()

    # ------------------------------------------------------------------- rng
    def _init_transient(self) -> None:
        """(Re)create the transient caches (also called after decoding)."""
        self._block_cache: tuple[int, np.ndarray, np.ndarray] | None = None
        self._boundary_states: dict[int, object] = {}
        self._rng_cache: dict[int, tuple] = {}

    def block_rng(self, block: int, channel: int = 0) -> np.random.Generator:
        """Generator of the counter-based RNG stream ``(channel, block)``.

        One Philox generator is kept per ``channel`` and jumped to the
        block's counter on each call (constructing a fresh bit generator
        costs ~14us; resetting the counter ~4us, which matters at a
        thousand rows per block).  The returned generator is therefore
        shared: draws for one block must finish before the next
        ``block_rng`` call on the same stream, which the sequential block
        machinery guarantees.
        """
        entry = self._rng_cache.get(channel)
        if entry is None:
            key = np.random.SeedSequence(
                self._entropy, spawn_key=(channel,)
            ).generate_state(2, np.uint64)
            bit_generator = np.random.Philox(key=key)
            entry = (bit_generator, np.random.Generator(bit_generator), key)
            self._rng_cache[channel] = entry
        bit_generator, generator, key = entry
        bit_generator.state = {
            "bit_generator": "Philox",
            "state": {
                "counter": np.array([0, 0, block, 0], dtype=np.uint64),
                "key": key,
            },
            "buffer": np.zeros(4, dtype=np.uint64),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        return generator

    def _lazy_block_rng(self, block: int) -> "_LazyBlockRng":
        """Proxy that defers generator construction until a draw is made.

        Constructing a bit generator costs ~20us; blocks that turn out to
        need no randomness (an inactive corruption window, a deterministic
        transform) skip it entirely without changing any draw a block that
        *does* use randomness would make.
        """
        return _LazyBlockRng(self, block)

    def setup_rng(self) -> np.random.Generator:
        """Generator for one-off concept draws (centroids, prototypes, ...)."""
        return self.block_rng(0, channel=self.CHANNEL_SETUP)

    # ----------------------------------------------------------------- hooks
    def _initial_state(self) -> object:
        """Sequential state before row 0 (stateful streams only)."""
        return None

    @abstractmethod
    def _generate_block(
        self, rng: np.random.Generator, start: int, count: int, state: object
    ) -> tuple[np.ndarray, np.ndarray, object]:
        """Produce one whole block ``[start, start + count)``.

        ``state`` is the sequential state at ``start`` (``None`` for
        stateless streams); the third return value is the state after the
        block (ignored for stateless streams).  The number and order of RNG
        draws may depend on the stream parameters but never on ``state`` or
        on previous calls.
        """

    # ------------------------------------------------------------ block plan
    def _block_row_count(self, block: int) -> int:
        return min(self.block_size, self.n_samples - block * self.block_size)

    def _state_for_block(self, block: int) -> object:
        if not self.stateful:
            return None
        states = self._boundary_states
        if 0 not in states:
            states[0] = self._initial_state()
        known = max(index for index in states if index <= block)
        state = states[known]
        for replay in range(known, block):
            _, _, state = self._generate_block(
                self.block_rng(replay),
                replay * self.block_size,
                self._block_row_count(replay),
                state,
            )
            states[replay + 1] = state
        return state

    def _block(self, block: int) -> tuple[np.ndarray, np.ndarray]:
        cached = self._block_cache
        if cached is not None and cached[0] == block:
            return cached[1], cached[2]
        with TELEMETRY.span(SPAN_STREAM_GENERATE_BLOCK):
            state = self._state_for_block(block)
            X, y, next_state = self._generate_block(
                self._lazy_block_rng(block),
                block * self.block_size,
                self._block_row_count(block),
                state,
            )
            if self.stateful:
                self._boundary_states[block + 1] = next_state
        self._block_cache = (block, X, y)
        return X, y

    # ------------------------------------------------------------- assembly
    def peek_rows(self, start: int, count: int) -> tuple[np.ndarray, np.ndarray]:
        """Rows ``[start, start + count)`` without the defensive copy.

        The returned arrays may be views into the internal block cache:
        callers must treat them as read-only.  Used by the scenario
        transforms, whose non-mutating layers would otherwise copy every
        block once per layer; external consumers should call
        :meth:`next_sample` / :meth:`take` (or ``_generate``), which always
        return fresh arrays.
        """
        if count <= 0:
            return np.empty((0, self.n_features)), np.empty(0, dtype=int)
        if start < 0 or start + count > self.n_samples:
            raise ValueError(
                f"Requested rows [{start}, {start + count}) outside the "
                f"stream of length {self.n_samples}."
            )
        size = self.block_size
        first, last = start // size, (start + count - 1) // size
        X_parts: list[np.ndarray] = []
        y_parts: list[np.ndarray] = []
        for block in range(first, last + 1):
            X_block, y_block = self._block(block)
            lo = max(start - block * size, 0)
            hi = min(start + count - block * size, len(y_block))
            X_parts.append(X_block[lo:hi])
            y_parts.append(y_block[lo:hi])
        if len(X_parts) == 1:
            return X_parts[0], y_parts[0]
        return np.concatenate(X_parts), np.concatenate(y_parts)

    def _generate(self, start: int, count: int) -> tuple[np.ndarray, np.ndarray]:
        X, y = self.peek_rows(start, count)
        # Fresh arrays: the peeked rows may alias the block cache, and
        # callers (evaluators, preprocessing, transforms) may mutate them.
        if X.base is not None or y.base is not None:
            return X.copy(), y.copy()
        return X, y


class ArrayStream(Stream):
    """Stream backed by in-memory arrays (used for real data and tests)."""

    def __init__(self, X: np.ndarray, y: np.ndarray) -> None:
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-dimensional, got shape {X.shape}.")
        if len(X) != len(y):
            raise ValueError("X and y have inconsistent lengths.")
        classes = np.unique(y)
        super().__init__(
            n_samples=len(X), n_features=X.shape[1], n_classes=max(len(classes), 2)
        )
        self._X = X
        self._y = y
        self._classes = classes

    @property
    def classes(self) -> np.ndarray:
        return self._classes

    def _generate(self, start: int, count: int) -> tuple[np.ndarray, np.ndarray]:
        return (
            self._X[start : start + count].copy(),
            self._y[start : start + count].copy(),
        )


def drift_offsets(
    drift_positions: tuple[float, ...], indices: np.ndarray, n_samples: int
) -> np.ndarray:
    """Number of passed drift positions (stream fractions) per stream index.

    The shared "how many concept switches happened by row ``i``" primitive
    of the drifting generators (SEA, STAGGER, Sine, Mixed, LED): a drift
    position ``p`` is passed once ``i / n_samples >= p``.
    """
    fractions = np.asarray(indices, dtype=float) / n_samples
    return np.searchsorted(np.asarray(drift_positions), fractions, side="right")


def prequential_batches(
    stream: Stream,
    batch_fraction: float = 0.001,
    batch_size: int | None = None,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield test-then-train batches from a stream.

    The paper processes batches of 0.1% of the data per prequential
    iteration; pass ``batch_size`` to override the fraction with an absolute
    size.
    """
    if batch_size is None:
        if not 0.0 < batch_fraction <= 1.0:
            raise ValueError(
                f"batch_fraction must be in (0, 1], got {batch_fraction!r}."
            )
        batch_size = max(int(round(stream.n_samples * batch_fraction)), 1)
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size!r}.")
    while stream.has_more_samples():
        yield stream.next_sample(batch_size)
