"""Stream preprocessing mirroring the paper's pipeline.

The paper factorises categorical string variables and normalises all features
to the ``[0, 1]`` range before use.  In a true streaming setting the range is
unknown up-front, so the scaler here is incremental: it tracks running
minima/maxima and rescales with the statistics seen so far.
"""

from __future__ import annotations

import numpy as np

from repro.persistence.registry import register
from repro.streams.base import Stream


@register
class OnlineMinMaxScaler:
    """Incremental min-max normalisation to ``[0, 1]``.

    The scaler never "un-sees" an extreme value: the transform uses the
    minimum and maximum observed so far, so early batches may be scaled with
    looser bounds than later ones -- the same behaviour one gets when
    normalising a stream on the fly.
    """

    def __init__(self, clip: bool = True) -> None:
        self.clip = bool(clip)
        self._min: np.ndarray | None = None
        self._max: np.ndarray | None = None

    @property
    def is_fitted(self) -> bool:
        return self._min is not None

    def partial_fit(self, X: np.ndarray) -> "OnlineMinMaxScaler":
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-dimensional, got shape {X.shape}.")
        batch_min = X.min(axis=0)
        batch_max = X.max(axis=0)
        if self._min is None:
            self._min = batch_min
            self._max = batch_max
        else:
            self._min = np.minimum(self._min, batch_min)
            self._max = np.maximum(self._max, batch_max)
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        if self._min is None:
            raise RuntimeError("transform() called before partial_fit().")
        X = np.asarray(X, dtype=float)
        span = self._max - self._min
        span = np.where(span == 0.0, 1.0, span)
        scaled = (X - self._min) / span
        if self.clip:
            scaled = np.clip(scaled, 0.0, 1.0)
        return scaled

    def partial_fit_transform(self, X: np.ndarray) -> np.ndarray:
        return self.partial_fit(X).transform(X)


@register
class NormalizedStream:
    """Stream decorator applying online min-max normalisation to features.

    Mirrors the paper's preprocessing (features normalised to ``[0, 1]``) in
    a streaming-compatible way: the scaler is updated with every batch before
    the batch is transformed, so no future information is used.  The wrapper
    exposes the :class:`~repro.streams.base.Stream` interface and can be used
    anywhere a stream is expected.
    """

    def __init__(self, stream: Stream) -> None:
        self.stream = stream
        self.scaler = OnlineMinMaxScaler()
        self.name = getattr(stream, "name", type(stream).__name__)

    # -------------------------------------------------- delegated interface
    @property
    def n_samples(self) -> int:
        return self.stream.n_samples

    @property
    def n_features(self) -> int:
        return self.stream.n_features

    @property
    def n_classes(self) -> int:
        return self.stream.n_classes

    @property
    def classes(self) -> np.ndarray:
        return self.stream.classes

    @property
    def position(self) -> int:
        return self.stream.position

    def has_more_samples(self) -> bool:
        return self.stream.has_more_samples()

    def n_remaining_samples(self) -> int:
        return self.stream.n_remaining_samples()

    def next_sample(self, batch_size: int = 1) -> tuple[np.ndarray, np.ndarray]:
        X, y = self.stream.next_sample(batch_size)
        return self.scaler.partial_fit_transform(X), y

    def take(self, n: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        count = (
            self.n_remaining_samples() if n is None
            else min(n, self.n_remaining_samples())
        )
        if count == 0:
            return np.empty((0, self.n_features)), np.empty(0, dtype=int)
        return self.next_sample(count)

    def restart(self) -> "NormalizedStream":
        self.stream.restart()
        self.scaler = OnlineMinMaxScaler()
        return self


def factorize_columns(
    X: np.ndarray, columns: list[int] | None = None
) -> tuple[np.ndarray, dict[int, dict]]:
    """Replace categorical values by integer codes (the paper's factorisation).

    Parameters
    ----------
    X:
        Object or numeric array of shape ``(n, m)``.
    columns:
        Columns to factorise; ``None`` factorises every non-numeric column.

    Returns
    -------
    (encoded, mappings):
        ``encoded`` is a float array; ``mappings`` maps column index to the
        value-to-code dictionary used, so the same encoding can be re-applied.
    """
    X = np.asarray(X)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-dimensional, got shape {X.shape}.")
    n_rows, n_cols = X.shape
    if columns is None:
        columns = []
        for col in range(n_cols):
            try:
                np.asarray(X[:, col], dtype=float)
            except (TypeError, ValueError):
                columns.append(col)
    encoded = np.empty((n_rows, n_cols), dtype=float)
    mappings: dict[int, dict] = {}
    for col in range(n_cols):
        if col in columns:
            values, codes = np.unique(X[:, col], return_inverse=True)
            encoded[:, col] = codes.astype(float)
            mappings[col] = {value: code for code, value in enumerate(values)}
        else:
            encoded[:, col] = np.asarray(X[:, col], dtype=float)
    return encoded, mappings
