"""Host-speed probes: fixed pieces of work timed between the program's calls.

On a shared host the same code runs up to 3x slower from one second to the
next as other tenants load the machine, and it slows on CPU time as much as
on wall time, so no clock separates the program's cost from its neighbours'.
A timed run therefore takes a *probe* every ``EVERY_S`` seconds between the
program's calls: three fixed kernels that run no code of the program, each
timed on :data:`stats.clock` on its second run, so its time does not hang on
what the program left in the caches.  Around any instant, each kernel's
slowdown is
the median of its times over the nearest probes divided by its time on the
reference host, and the host's slowdown is the median of the three.  Each
interval the run measured is divided by the slowdown around it, so a scaled
time reads as it would on the reference host and moves when the program's
cost moves but not when the host's speed does.  Because the probe never calls
the program, a change that makes the program faster shows in full.

The kernels differ in what they wait on: the interpreter (a dictionary
loop), NumPy's per-call overhead (gradient steps of a logistic regression on
64 rows, as a DMT node fits its GLM on a batch) and the cache (a matrix
product and element-wise kernels over 8k values).  Kernels of these three
kinds were timed next to the program's calls (single-row and 512-row
``predict_proba``, a 100-row DMT ``partial_fit`` and prequential steps of
both workloads) in 2 s windows on a 2-vCPU shared host.  Each kernel alone
followed the program best for some calls and over-corrected others, in one
case 2.4x against the program's 1.1x; the median of the three cut the spread
of the window medians by half or more for all but EFDT steps, whose cost
varies most from step to step (by a third), near the best single kernel for
each call.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

import stats

#: Seconds between probes in a timed run: 1-2% of its time.
EVERY_S = 0.02
#: Probes on either side of a probe whose median is its local time, so a
#: slowdown is followed within about 0.1 s.
NEIGHBOURS = 4
#: In the open loop, probe only while the next event is at least this far off,
#: so the probe ends before the event is due ...
SLACK_S = 1.5e-3
#: ... unless there has been no probe for this long (a rung over capacity).
MAX_GAP_S = 0.1

#: A kernel and its time on the reference host, in seconds.
Kernel = tuple[Callable[[], object], float]


def default_kernels() -> dict[str, Kernel]:
    """The three probe kernels, with their inputs made once."""
    rng = np.random.default_rng(0x5EED)
    rows = rng.standard_normal((64, 8))
    labels = (rng.random(64) < 0.5).astype(float)
    start = rng.standard_normal(8)
    wide = rng.standard_normal((128, 32))
    weights = rng.standard_normal((32, 64)) / 8

    def interpreter() -> object:
        counts: dict[int, int] = {}
        for i in range(400):
            counts[i % 17] = counts.get(i % 17, 0) + i
        return counts

    def numpy_calls() -> object:
        w = start.copy()
        for _ in range(4):
            p = 1.0 / (1.0 + np.exp(-(rows @ w)))
            w -= 0.1 * (rows.T @ (p - labels)) / len(labels)
        return w

    def cache() -> object:
        return np.exp(-np.abs(wide @ weights)).sum()

    # Reference times: the medians of 140k probes over 30 s on a 2-vCPU host
    # (Python 3.11, NumPy 2.4, OpenBLAS on one thread).
    return {
        "interpreter": (interpreter, 41e-6),
        "numpy_calls": (numpy_calls, 32e-6),
        "cache": (cache, 28e-6),
    }


class SpeedProbe:
    """Times the probe kernels and scales measured intervals by them.

    ``clock``, ``kernels`` and ``spin`` (how :meth:`wait_until` waits once it
    is done probing) can be replaced, so tests can run it on a fake clock.
    """

    def __init__(
        self,
        clock: Callable[[], float] = stats.clock,
        kernels: dict[str, Kernel] | None = None,
        spin: Callable[[float], None] = stats.spin_until,
    ) -> None:
        self.clock = clock
        self.kernels = default_kernels() if kernels is None else kernels
        self.spin = spin
        #: Midpoint of every probe taken, and each kernel's time in it.
        self.at: list[float] = []
        self.took: list[list[float]] = []
        self._last = -np.inf

    def take(self) -> None:
        """Run one probe: each kernel twice, timing the second run."""
        started = self.clock()
        times = []
        for work, _ in self.kernels.values():
            work()
            begun = self.clock()
            work()
            times.append(self.clock() - begun)
        ended = self.clock()
        self.at.append((started + ended) / 2)
        self.took.append(times)
        self._last = ended

    def maybe(self) -> None:
        """Take a probe if ``EVERY_S`` has passed since the last one."""
        if self.clock() - self._last >= EVERY_S:
            self.take()

    def wait_until(self, deadline: float) -> None:
        """:func:`stats.spin_until`, probing on the way when there is time.

        A probe starts only if it is due and the deadline is ``SLACK_S`` off,
        or if none has run for ``MAX_GAP_S``; so a request below capacity
        starts on time while a saturated rung still gets probed.
        """
        now = self.clock()
        since = now - self._last
        if since >= EVERY_S and (deadline - now >= SLACK_S or since >= MAX_GAP_S):
            self.take()
        self.spin(deadline)

    def kernel_slowdowns(self) -> np.ndarray:
        """Each kernel's slowdown around each probe, one row per probe.

        A kernel's time around a probe is its median over the probe and its
        ``NEIGHBOURS`` on either side, so one probe a preemption stretched
        does not count.
        """
        if not self.took:
            raise ValueError("no probe was taken")
        took = np.asarray(self.took)
        reference = np.array([seconds for _, seconds in self.kernels.values()])
        k = NEIGHBOURS
        return np.array([
            np.median(took[max(j - k, 0):j + k + 1], axis=0)
            for j in range(len(took))
        ]) / reference

    def slowdown(self, at: Sequence[float] | np.ndarray) -> np.ndarray:
        """The host's slowdown around each instant ``at``: the median of the
        kernels' slowdowns around the probe nearest it."""
        per_probe = np.median(self.kernel_slowdowns(), axis=1)
        times = np.asarray(self.at)
        at = np.asarray(at, dtype=float)
        after = np.clip(np.searchsorted(times, at), 0, len(times) - 1)
        before = np.clip(after - 1, 0, len(times) - 1)
        nearest = np.where(
            np.abs(at - times[before]) <= np.abs(times[after] - at), before, after
        )
        return per_probe[nearest]

    def scaled(
        self, at: Sequence[float] | np.ndarray, seconds: Sequence[float] | np.ndarray
    ) -> np.ndarray:
        """``seconds`` measured at instants ``at``, on the reference host."""
        return np.asarray(seconds, dtype=float) / self.slowdown(at)
