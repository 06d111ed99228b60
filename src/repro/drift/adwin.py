"""ADWIN -- ADaptive WINdowing drift detector (Bifet & Gavaldà, 2007).

ADWIN maintains a variable-length window of recent values, stored as an
exponential histogram of buckets.  Whenever two adjacent sub-windows exhibit
a mean difference larger than a bound derived from the Hoeffding/Bernstein
inequality, the older sub-window is dropped and a drift is signalled.

This implementation follows the published algorithm (bucket rows with at most
``max_buckets`` buckets per row, each bucket in row ``i`` summarising ``2^i``
values) and is used by the Hoeffding Adaptive Tree, the Adaptive Random
Forest and Leveraging Bagging baselines.
"""

from __future__ import annotations

import math

import numpy as np

from repro.drift.base import BaseDriftDetector
from repro.persistence.registry import register
from repro.telemetry import TELEMETRY


@register
class _BucketRow:
    """A row of buckets that all summarise the same number of values."""

    __slots__ = ("totals", "variances")

    def __init__(self) -> None:
        self.totals: list[float] = []
        self.variances: list[float] = []

    def append(self, total: float, variance: float) -> None:
        self.totals.append(total)
        self.variances.append(variance)

    def drop_front(self, count: int = 1) -> None:
        del self.totals[:count]
        del self.variances[:count]

    def __len__(self) -> int:
        return len(self.totals)


class ADWIN(BaseDriftDetector):
    """Adaptive sliding-window change detector.

    Parameters
    ----------
    delta:
        Confidence parameter of the statistical test; smaller values make the
        detector more conservative.
    max_buckets:
        Maximum number of buckets per exponential-histogram row.
    min_window_length:
        Minimum length of each sub-window considered in a cut check.
    clock:
        Number of observations between change checks (the canonical
        implementation checks every 32 values).
    """

    #: Window mean immediately before the insertion that fired the last
    #: drift in :meth:`update_many` (class default for legacy payloads).
    mean_before_last_drift = 0.0

    def __init__(
        self,
        delta: float = 0.002,
        max_buckets: int = 5,
        min_window_length: int = 5,
        clock: int = 32,
    ) -> None:
        super().__init__()
        if not 0.0 < delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {delta!r}.")
        self.delta = float(delta)
        self.max_buckets = int(max_buckets)
        self.min_window_length = int(min_window_length)
        self.clock = int(clock)
        self._rows: list[_BucketRow] = [_BucketRow()]
        self.width = 0
        self.total = 0.0
        self.variance = 0.0
        self._tick = 0

    # ----------------------------------------------------------- properties
    @property
    def mean(self) -> float:
        """Mean of the values currently inside the adaptive window."""
        return self.total / self.width if self.width > 0 else 0.0

    @property
    def estimation(self) -> float:
        """Alias of :attr:`mean` (name used by the tree/ensemble code)."""
        return self.mean

    # -------------------------------------------------------------- updates
    def update(self, value: float) -> bool:
        """Insert one value; return ``True`` if the window was cut (drift)."""
        self.n_observations += 1
        tick = self._tick + 1
        value = float(value)
        # Inlined _insert: this method is the hot path of HT-Ada, ARF and
        # Leveraging Bagging (one call per node/member per observation).
        width = self.width
        total = self.total
        if width > 0:
            old_mean = total / width
            self.variance += (width / (width + 1.0)) * (value - old_mean) ** 2
        width += 1
        self.width = width
        self.total = total + value
        front = self._rows[0]
        front.totals.append(value)
        front.variances.append(0.0)
        if len(front.totals) > self.max_buckets:
            self._compress()
        if tick >= self.clock and width >= 2 * self.min_window_length:
            self._tick = 0
            drift = self._detect_change_and_shrink()
        else:
            self._tick = tick
            drift = False
        self.in_drift = drift
        if drift and TELEMETRY.enabled:
            self._telemetry_drift()
        return drift

    def update_many(self, values) -> int | None:
        """Feed values until the first drift; return its index or ``None``.

        Bit-identical to calling :meth:`update` per value; the detector state
        afterwards reflects exactly the values up to (and including) the
        drift.  Also records :attr:`mean_before_last_drift`, the window mean
        immediately before the firing insertion -- the quantity the ensemble
        wrappers previously tracked with a per-value Python loop.
        """
        values = np.asarray(values, dtype=float).ravel()
        if not len(values):
            return None
        clock = self.clock
        double_min = 2 * self.min_window_length
        for index, value in enumerate(values.tolist()):
            check_possible = (
                self._tick + 1 >= clock and self.width + 1 >= double_min
            )
            if check_possible:
                before = self.total / self.width if self.width > 0 else 0.0
            if self.update(value):
                self.mean_before_last_drift = before
                return index
        return None

    def _compress(self) -> None:
        # Direct list manipulation: at max_buckets=5 the front row overflows
        # every other insert, so this cascade is hot (the arithmetic is the
        # published merge, unchanged).
        rows = self._rows
        max_buckets = self.max_buckets
        row_idx = 0
        while row_idx < len(rows):
            row = rows[row_idx]
            totals = row.totals
            if len(totals) <= max_buckets:
                break
            if row_idx + 1 == len(rows):
                rows.append(_BucketRow())
            next_row = rows[row_idx + 1]
            variances = row.variances
            size = 2**row_idx
            total_1, total_2 = totals[0], totals[1]
            var_1, var_2 = variances[0], variances[1]
            mean_1, mean_2 = total_1 / size, total_2 / size
            merged_variance = (
                var_1 + var_2 + size * size * (mean_1 - mean_2) ** 2 / (2.0 * size)
            )
            next_row.totals.append(total_1 + total_2)
            next_row.variances.append(merged_variance)
            del totals[:2]
            del variances[:2]
            row_idx += 1

    # ---------------------------------------------------------- change test
    def _detect_change_and_shrink(self) -> bool:
        """Check every admissible cut point; drop old buckets when cut.

        The scan terms that are constant for one pass (the window variance
        and the ``log(2 / δ')`` factor of the Hoeffding/Bernstein bound) are
        hoisted out of the per-cut expression; the arithmetic per cut point
        is unchanged (see :meth:`_cut_expression`, kept as the reference).
        """
        change_detected = False
        keep_checking = True
        min_length = self.min_window_length
        while keep_checking:
            keep_checking = False
            total_n = float(self.width)
            if total_n <= 1:
                break
            delta_prime = self.delta / math.log(max(total_n, math.e))
            log_term = math.log(2.0 / delta_prime)
            window_variance = self.variance / self.width
            # Scan cut points from oldest to newest bucket.
            n0, sum0 = 0.0, 0.0
            n1, sum1 = total_n, float(self.total)
            for row_idx in range(len(self._rows) - 1, -1, -1):
                row_totals = self._rows[row_idx].totals
                size = float(2**row_idx)
                for bucket_total in row_totals:
                    n0 += size
                    sum0 += bucket_total
                    n1 -= size
                    sum1 -= bucket_total
                    if n1 < min_length:
                        break
                    if n0 < min_length:
                        continue
                    mean0, mean1 = sum0 / n0, sum1 / n1
                    m = 1.0 / (1.0 / n0 + 1.0 / n1)
                    epsilon = math.sqrt(
                        (2.0 / m) * window_variance * log_term
                    ) + (2.0 / (3.0 * m)) * log_term
                    if abs(mean0 - mean1) > epsilon:
                        change_detected = True
                        keep_checking = True
                        self._drop_oldest_bucket()
                        break
                if keep_checking:
                    break
        return change_detected

    def _cut_expression(
        self, n0: float, n1: float, mean0: float, mean1: float
    ) -> bool:
        total_n = float(self.width)
        if total_n <= 1:
            return False
        harmonic = 1.0 / n0 + 1.0 / n1
        delta_prime = self.delta / math.log(max(total_n, math.e))
        window_variance = self.variance / self.width
        m = 1.0 / harmonic
        epsilon = math.sqrt(
            (2.0 / m) * window_variance * math.log(2.0 / delta_prime)
        ) + (2.0 / (3.0 * m)) * math.log(2.0 / delta_prime)
        return abs(mean0 - mean1) > epsilon

    def _drop_oldest_bucket(self) -> None:
        for row_idx in range(len(self._rows) - 1, -1, -1):
            row = self._rows[row_idx]
            if len(row) == 0:
                continue
            size = 2**row_idx
            total = row.totals[0]
            variance = row.variances[0]
            mean = total / size
            if self.width > size:
                window_mean = self.total / self.width
                self.variance -= variance + (
                    size
                    * (self.width - size)
                    / self.width
                    * (mean - (self.total - total) / (self.width - size)) ** 2
                )
                self.variance = max(self.variance, 0.0)
            self.width -= size
            self.total -= total
            row.drop_front(1)
            break

    def reset(self) -> "ADWIN":
        super().reset()
        self._rows = [_BucketRow()]
        self.width = 0
        self.total = 0.0
        self.variance = 0.0
        self._tick = 0
        return self
