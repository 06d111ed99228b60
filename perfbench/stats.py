"""The benchmark's own arithmetic: percentiles, span self time, open-loop timing.

Everything here is a pure function of its inputs (the open-loop runner takes
its clock as an argument), so ``test_perfbench.py`` checks it without timing
anything real.  :data:`clock` is the clock the timed runs read.
"""

from __future__ import annotations

import math
import statistics
import time
from collections.abc import Callable, Sequence

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10

#: The clock a timed run reads every interval, probe and due time on: CPU
#: seconds of this process.  A shared host takes the CPU away from a virtual
#: machine for milliseconds at a time (up to 44 ms, 3% of a 20 s run, on a
#: 2-vCPU host); wall time counts those stalls in whatever call they hit, and
#: they decided a run's p99.  CPU time stops while the process is off the CPU.
#: The benchmark is one thread that neither sleeps nor waits on I/O while
#: timed, so on a host of its own the two clocks agree.
clock = time.process_time


def draw_seed(seed: int, draw: int) -> int:
    """Seed of a run's input draw; draw 0 is the run's own seed.

    A run spreads its work over several draws of its streams and models, so
    its figures rest on more than one draw of the inputs.
    """
    return seed + 1_000_000 * draw


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (``0 < q < 1``) of ``values``.

    Raises :class:`TooFewSamples` unless at least :data:`MIN_BEYOND` samples
    lie above the reported one, so a p99 needs 1000 samples and a p90 100.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must be in (0, 1), got {q!r}")
    n = len(values)
    rank = max(math.ceil(q * n - 1e-9), 1)
    if n - rank < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q * 100:g} of {n} samples has {n - rank} beyond it; "
            f"{MIN_BEYOND} are needed"
        )
    return sorted(values)[rank - 1]


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[tuple[float, float, int]]) -> list[float]:
    """Self time of each ``(start, end, parent_index)`` span.

    A span's self time is its length minus the part of its interval that its
    children cover; overlapping children are counted once (their union), and
    a child sticking out of its parent only counts inside the parent.  The
    parent index is ``-1`` for a root span.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    return [
        (end - start) - covered(children.get(index, []), start, end)
        for index, (start, end, _) in enumerate(spans)
    ]


def spin_until(deadline: float) -> None:
    """Wait for ``deadline`` on :data:`clock` by spinning.

    Spinning rather than sleeping starts a request within a microsecond of
    when it is due and keeps the core as warm at a light rate as at a heavy
    one, so the rate, not the generator's wake-up, sets the latency.
    """
    while clock() < deadline:
        pass


def open_loop(
    dues: Sequence[float],
    serve: Callable[[int], None],
    after: Callable[[int], None] | None = None,
    clock: Callable[[], float] = clock,
    wait_until: Callable[[float], None] = spin_until,
) -> tuple[list[float], list[float]]:
    """Start event ``i`` at ``dues[i]`` seconds after the start, one at a time.

    The schedule never waits for the system: an event that comes due while an
    earlier one is still being served starts late, and that wait counts in
    its latency.  ``after(i)`` runs once event ``i`` has ended, e.g. to check
    its output; it delays later events but not the end of event ``i``.
    Returns the start and end of every event, in seconds after the start, so
    ``end - due`` is the latency and ``start - due`` the queue wait.
    """
    origin = clock()
    starts: list[float] = []
    ends: list[float] = []
    for index, due in enumerate(dues):
        wait_until(origin + due)
        started = clock()
        serve(index)
        ends.append(clock() - origin)
        starts.append(started - origin)
        if after is not None:
            after(index)
    return starts, ends


def backlog_max(dues: Sequence[float], starts: Sequence[float]) -> int:
    """Most events ever due but not yet started, seen at an event's start."""
    worst = 0
    due_index = 0
    for index, started in enumerate(starts):
        while due_index < len(dues) and dues[due_index] <= started:
            due_index += 1
        worst = max(worst, due_index - index - 1)
    return worst


def backlog_growing(
    dues: Sequence[float], starts: Sequence[float], threshold_s: float
) -> bool:
    """Whether the queue wait trends upward over the run.

    Below capacity the wait comes and goes with the pauses, so its median over
    the last quarter of events is close to that over the first quarter; above
    capacity it grows for as long as the run lasts.  Growth beyond
    ``threshold_s`` between the two quarters counts as a growing backlog.
    """
    waits = [start - due for start, due in zip(starts, dues)]
    quarter = max(len(waits) // 4, 1)
    early = statistics.median(waits[:quarter])
    late = statistics.median(waits[-quarter:])
    return late - early > threshold_s


def max_rate(rungs: Sequence[tuple[float, float, bool]], limit: float) -> float:
    """Highest sustainable rate from a ladder of ``(rate, p99, growing)`` rungs.

    The answer is the highest rung that meets the p99 ``limit`` with no
    growing backlog; a failing rung below it (a burst of host noise) does not
    cap it.  Between that rung and the next one up the p99 is interpolated
    linearly to where it crosses the limit, so the figure moves smoothly with
    the system instead of jumping a rung.  If no rung passes, the lowest
    rate is scaled by ``limit / p99``.
    """
    if not rungs:
        raise ValueError("max_rate needs at least one rung")
    passing = [i for i, (_, p99, growing) in enumerate(rungs) if p99 <= limit and not growing]
    if not passing:
        rate, p99, _ = rungs[0]
        return rate * min(limit / p99, 1.0)
    top = passing[-1]
    low_rate, low_p99, _ = rungs[top]
    if top + 1 == len(rungs):
        return low_rate
    rate, p99, _ = rungs[top + 1]
    if p99 <= max(low_p99, limit):
        # Failed on backlog growth alone: no crossing to interpolate to.
        return low_rate
    return low_rate + (limit - low_p99) / (p99 - low_p99) * (rate - low_rate)
