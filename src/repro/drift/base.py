"""Common interface of all concept-drift detectors."""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.persistence.mixin import PersistableStateMixin
from repro.telemetry import DRIFT_DETECTED, TELEMETRY


class BaseDriftDetector(PersistableStateMixin, ABC):
    """Streaming change detector over a univariate signal.

    Detectors consume one value at a time via :meth:`update` (typically a
    0/1 error indicator or a residual) and expose two flags:
    :attr:`in_drift` (change detected at the current step) and
    :attr:`in_warning` (early warning where supported).  Batch consumers
    use :meth:`update_many`, which feeds an array and stops at the first
    drift; subclasses override it with loop-free or tightened variants that
    stay bit-identical to the scalar loop.
    """

    def __init__(self) -> None:
        self.in_drift = False
        self.in_warning = False
        self.n_observations = 0

    @abstractmethod
    def update(self, value: float) -> bool:
        """Add one observation; return ``True`` when drift is detected."""

    def update_many(self, values) -> int | None:
        """Consume ``values`` until the first drift; return its index.

        Returns ``None`` when no value triggered a drift.  The detector
        state afterwards is exactly the state after scalar :meth:`update`
        calls over ``values[: index + 1]`` (or all values), so callers
        resume with the remaining slice to process a whole batch.
        """
        values = np.asarray(values, dtype=float).ravel()
        for index, value in enumerate(values.tolist()):
            if self.update(value):
                return index
        return None

    def _telemetry_drift(self, n_observations: int | None = None) -> None:
        """Emit the telemetry record for a detection that just fired.

        Only drift-fire sites call this (behind a ``TELEMETRY.enabled``
        guard), so the per-observation hot path pays nothing.  Pass
        ``n_observations`` explicitly when the fire site has already reset
        the counter (or kept it in a local).
        """
        TELEMETRY.emit(
            DRIFT_DETECTED,
            detector=type(self).__name__,
            n_observations=int(
                self.n_observations
                if n_observations is None
                else n_observations
            ),
        )

    def reset(self) -> "BaseDriftDetector":
        """Restore the initial state."""
        self.in_drift = False
        self.in_warning = False
        self.n_observations = 0
        return self
