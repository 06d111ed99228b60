"""Tests of the benchmark's own arithmetic, with a fake clock where time matters.

Run from the root of the repository with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import hostspeed
import stats
from hostspeed import SpeedProbe
from tracing import Traced, Tracer, no_rows, unwrap

HERE = Path(__file__).resolve().parent


class FakeClock:
    """A clock that moves only when the system under test spends time."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def wait_until(self, deadline: float) -> None:
        self.now = max(self.now, deadline)


def play(dues: list[float], service: list[float]) -> tuple[list[float], list[float]]:
    clock = FakeClock()

    def serve(index: int) -> None:
        clock.now += service[index]

    return stats.open_loop(dues, serve, clock=clock, wait_until=clock.wait_until)


# --------------------------------------------------------------- percentiles
@pytest.mark.parametrize("q, enough", [(0.5, 20), (0.9, 100), (0.99, 1000)])
def test_percentile_needs_ten_samples_beyond_it(q: float, enough: int) -> None:
    values = [float(v) for v in range(enough)]
    reported = stats.percentile(values, q)
    assert sum(v > reported for v in values) == 10
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(values[:-1], q)


def test_percentile_is_nearest_rank_regardless_of_order() -> None:
    values = [float(v) for v in range(1, 1001)]
    assert stats.percentile(values[::-1], 0.99) == 990.0
    assert stats.percentile(values, 0.5) == 500.0


# ----------------------------------------------------------------- self time
def test_self_time_counts_overlapping_children_once() -> None:
    spans = [
        (0.0, 10.0, -1),
        (1.0, 4.0, 0),
        (3.0, 6.0, 0),  # overlaps its sibling by 1
        (8.0, 12.0, 0),  # sticks out of its parent by 2
        (1.5, 2.0, 1),  # grandchild: only its own parent loses it
    ]
    assert stats.self_times(spans) == pytest.approx([3.0, 2.5, 3.0, 4.0, 0.5])


def test_traced_self_times_add_up_to_the_root_total() -> None:
    tracer = Tracer()

    def inner() -> None:
        tracer.call("core.train", no_rows, sum, range(10_000))

    def outer() -> None:
        inner()
        tracer.call("core.predict", no_rows, inner)

    tracer.call("evaluation.step", no_rows, outer)
    tracer.call("streams.next_sample", no_rows, sorted, range(1_000))
    totals = tracer.totals()
    assert totals["core.train"]["calls"] == 2
    assert sum(t["self_s"] for t in totals.values()) == pytest.approx(
        tracer.root_seconds(), rel=1e-9
    )


def test_proxy_forwards_and_traces_only_the_named_methods() -> None:
    class Model:
        def __init__(self) -> None:
            self.classes_ = [0, 1]

        def predict(self, rows: list[int]) -> list[int]:
            return [0 for _ in rows]

        def reset(self) -> str:
            return "reset"

    tracer = Tracer()
    model = Model()
    proxy = Traced(model, tracer, {"predict": ("core.predict", lambda a, r: len(a[0]))})
    assert proxy.predict([1, 2, 3]) == [0, 0, 0]
    assert proxy.reset() == "reset" and proxy.classes_ == [0, 1]
    proxy.classes_ = [0, 1, 2]
    assert model.classes_ == [0, 1, 2] and "classes_" not in proxy.__dict__
    assert unwrap(proxy) is model and unwrap(model) is model
    assert [(s[0], s[5]) for s in tracer.spans] == [("core.predict", 3)]


# ---------------------------------------------------------- open-loop timing
def test_a_stall_raises_the_latency_of_the_requests_due_during_it() -> None:
    dues = [i * 1e-3 for i in range(30)]
    service = [1e-4] * 30
    service[5] = 10e-3  # a 10 ms training pause
    starts, ends = play(dues, service)
    latency = [end - due for end, due in zip(ends, dues)]
    assert latency[4] == pytest.approx(1e-4)
    assert latency[5] == pytest.approx(10e-3)
    # Request 6 was due 1 ms into the stall and waited the other 9 ms.
    assert latency[6] == pytest.approx(9e-3 + 1e-4)
    assert latency[6] > latency[7] > latency[8] > 1e-3
    assert latency[20] == pytest.approx(1e-4)
    # Timed from its start, as a closed loop would, the wait disappears.
    assert ends[6] - starts[6] == pytest.approx(1e-4)
    assert stats.backlog_max(dues, starts) == 9


def test_after_hook_delays_later_events_but_not_its_own() -> None:
    clock = FakeClock()

    def serve(index: int) -> None:
        clock.now += 1e-4

    def after(index: int) -> None:
        clock.now += 5e-3

    dues = [0.0, 1e-3]
    starts, ends = stats.open_loop(
        dues, serve, after, clock=clock, wait_until=clock.wait_until
    )
    assert ends[0] == pytest.approx(1e-4)
    assert starts[1] == pytest.approx(5.1e-3)


def poisson_dues(rate: float, n: int) -> list[float]:
    import random

    draw = random.Random(7)
    due, dues = 0.0, []
    for _ in range(n):
        due += draw.expovariate(rate)
        dues.append(due)
    return dues


def test_backlog_grows_only_above_capacity() -> None:
    n, service = 4000, [1e-3] * 4000  # capacity: 1000 per second
    for rate, expected in ((500.0, False), (800.0, False), (1200.0, True)):
        dues = poisson_dues(rate, n)
        starts, _ = play(dues, service)
        assert stats.backlog_growing(dues, starts, threshold_s=0.04) is expected
    assert stats.backlog_max(dues, starts) > 100


# ----------------------------------------------------------- host speed
def probed(took: list[list[float]]) -> SpeedProbe:
    """A probe on a fake clock, taken every ``EVERY_S``, whose three kernels
    took ``took[i]`` seconds in the ``i``-th probe; each takes 1 ms on the
    reference host."""
    clock = FakeClock()
    current = [0.0, 0.0, 0.0]

    def kernel(index: int) -> hostspeed.Kernel:
        def work() -> None:
            clock.now += current[index]

        return work, 1e-3

    probe = SpeedProbe(
        clock=clock, kernels={f"k{i}": kernel(i) for i in range(3)},
        spin=clock.wait_until,
    )
    for times in took:
        current[:] = times
        probe.take()
        clock.now += hostspeed.EVERY_S
    return probe


def test_scaling_follows_the_host_speed_where_the_interval_was_measured() -> None:
    probe = probed([[1e-3] * 3] * 40 + [[2e-3] * 3] * 40)
    slow_at = probe.at[60]
    assert probe.scaled([probe.at[10], slow_at], [0.01, 0.02]) == pytest.approx([0.01, 0.01])


def test_one_stretched_probe_does_not_move_the_scale() -> None:
    took = [[1e-3] * 3] * 40
    took[20] = [50e-3] * 3  # a probe preempted mid-way
    probe = probed(took)
    assert probe.slowdown(probe.at) == pytest.approx([1.0] * 40)


def test_one_kernel_slowing_alone_does_not_move_the_scale() -> None:
    probe = probed([[1e-3, 3e-3, 1e-3]] * 20 + [[2e-3, 2e-3, 6e-3]] * 20)
    assert probe.slowdown(probe.at) == pytest.approx([1.0] * 20 + [2.0] * 20)


def test_the_open_loop_probes_only_with_slack_or_after_a_long_gap() -> None:
    probe = probed([[1e-4] * 3])
    taken = len(probe.took)
    now = probe.clock()
    probe.wait_until(now + hostspeed.SLACK_S / 2)  # probe due, no slack
    assert len(probe.took) == taken
    probe.wait_until(probe.clock() + 2 * hostspeed.SLACK_S)  # slack
    assert len(probe.took) == taken + 1
    probe.clock.now += hostspeed.MAX_GAP_S  # a saturated rung
    probe.wait_until(probe.clock())
    assert len(probe.took) == taken + 2


# ------------------------------------------------------------------ max_rps
def test_max_rate_interpolates_to_where_p99_crosses_the_limit() -> None:
    ladder = [(1000.0, 10.0, False), (2000.0, 20.0, False), (3000.0, 60.0, False)]
    assert stats.max_rate(ladder, 40.0) == pytest.approx(2500.0)
    assert stats.max_rate(ladder[:2], 40.0) == 2000.0


def test_max_rate_takes_the_highest_passing_rung() -> None:
    ladder = [(1000.0, 10.0, False), (2000.0, 55.0, False), (3000.0, 20.0, False)]
    assert stats.max_rate(ladder, 40.0) == 3000.0
    assert stats.max_rate(ladder + [(4000.0, 60.0, False)], 40.0) == pytest.approx(3500.0)


def test_max_rate_stops_at_growth_and_scales_a_failing_first_rung() -> None:
    assert stats.max_rate([(1000.0, 10.0, False), (2000.0, 30.0, True)], 40.0) == 1000.0
    assert stats.max_rate([(1000.0, 80.0, False)], 40.0) == 500.0


# -------------------------------------------------------------- definitions
def test_every_benchmark_metric_and_workload_is_defined_in_the_spec() -> None:
    benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    spec = json.loads((HERE / "spec.json").read_text())
    assert {w["name"] for w in benchmark["workloads"]} == set(spec["workloads"])
    kinds = {w["kind"] for w in spec["workloads"].values()}
    for metric in benchmark["end_to_end"]:
        assert set(spec["end_to_end"][metric["name"]]) == kinds
    assert [m["name"] for m in benchmark["per_layer"]] == list(spec["per_layer"])
    predicted = {m for row in spec["predictions"] for m in row["layer_metrics"]}
    assert predicted == set(spec["per_layer"])
