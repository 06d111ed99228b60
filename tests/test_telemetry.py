"""Unit tests of the telemetry subsystem: metrics, events, spans, runtime.

The instrumented-call-site behaviour (events emitted by real models during
real runs, determinism with telemetry on/off) is covered by
``tests/test_telemetry_determinism.py``; this module pins the primitives.
"""

from __future__ import annotations

import json
import re

import numpy as np
import pytest

from repro import telemetry
from repro.telemetry import (
    DEFAULT_LATENCY_BUCKETS,
    DRIFT_DETECTED,
    DRIFT_DETECTIONS_TOTAL,
    SERVING_HOT_SWAP,
    TELEMETRY,
    TREE_SPLIT,
    Counter,
    EventLog,
    Gauge,
    Histogram,
    MetricsRegistry,
    check_metric_name,
    prometheus_name,
    read_jsonl,
)
from repro.telemetry.events import COUNTERS, SCHEMAS
from repro.telemetry.metrics import HandleCache
from repro.telemetry.report import render_report


@pytest.fixture(autouse=True)
def _clean_telemetry():
    TELEMETRY.reset()
    yield
    TELEMETRY.reset()


# ---------------------------------------------------------------------------
# Metric primitives
# ---------------------------------------------------------------------------
class TestCounterGauge:
    def test_counter_increments(self):
        counter = Counter()
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError, match="only increase"):
            Counter().inc(-1.0)

    def test_gauge_set_inc_dec(self):
        gauge = Gauge()
        gauge.set(10.0)
        gauge.inc(5.0)
        gauge.dec(2.0)
        assert gauge.value == 13.0


class TestHistogram:
    def test_exact_percentiles_small_sample(self):
        histogram = Histogram()
        values = [0.001 * i for i in range(1, 101)]
        for value in values:
            histogram.observe(value)
        assert histogram.exact
        p50, p95, p99 = histogram.percentiles((0.5, 0.95, 0.99))
        expected = np.quantile(values, [0.5, 0.95, 0.99])
        assert p50 == pytest.approx(expected[0])
        assert p95 == pytest.approx(expected[1])
        assert p99 == pytest.approx(expected[2])

    def test_snapshot_fields(self):
        histogram = Histogram()
        histogram.observe(0.01)
        histogram.observe(0.03)
        snap = histogram.snapshot()
        assert snap["count"] == 2
        assert snap["sum"] == pytest.approx(0.04)
        assert snap["mean"] == pytest.approx(0.02)
        assert snap["min"] == pytest.approx(0.01)
        assert snap["max"] == pytest.approx(0.03)
        assert snap["exact"] is True
        assert {"p50", "p95", "p99"} <= snap.keys()

    def test_bucket_fallback_beyond_max_samples(self):
        histogram = Histogram(buckets=(0.1, 0.2, 0.4), max_samples=10)
        rng = np.random.default_rng(0)
        values = rng.uniform(0.0, 0.4, size=1000)
        for value in values:
            histogram.observe(value)
        assert not histogram.exact
        p50 = histogram.percentile(0.5)
        # Bucket interpolation: within the right ballpark of the true median.
        assert abs(p50 - float(np.quantile(values, 0.5))) < 0.1
        assert histogram.count == 1000

    def test_empty_histogram(self):
        histogram = Histogram()
        assert histogram.percentiles() == [0.0, 0.0, 0.0]
        assert histogram.snapshot()["min"] == 0.0

    def test_rejects_bad_buckets(self):
        with pytest.raises(ValueError, match="ascend"):
            Histogram(buckets=(0.2, 0.1))
        with pytest.raises(ValueError, match="at least one"):
            Histogram(buckets=())


class TestMetricsRegistry:
    def test_same_identity_same_metric(self):
        registry = MetricsRegistry()
        a = registry.counter("repro.test.rows_total", model="dmt")
        b = registry.counter("repro.test.rows_total", model="dmt")
        c = registry.counter("repro.test.rows_total", model="vfdt")
        assert a is b
        assert a is not c

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("repro.test.thing")
        with pytest.raises(TypeError, match="is a counter"):
            registry.gauge("repro.test.thing")

    def test_name_validation(self):
        assert check_metric_name("repro.serving.latency_seconds")
        for bad in ("Repro.x", "1abc", "repro metric", ""):
            with pytest.raises(ValueError):
                check_metric_name(bad)

    def test_declared_names_are_distinct_and_well_formed(self):
        """The shipped metric and span names are constants of
        ``repro.telemetry``; each metric name has the layer shape."""
        values = [getattr(telemetry, name) for name in telemetry.__all__]
        names = [value for value in values if isinstance(value, str)]
        metrics = [name for name in names if name.startswith("repro.")]
        assert metrics
        assert len(names) == len(set(names))
        shape = re.compile(r"^repro\.[a-z][a-z0-9_]*\.[a-z0-9_]+$")
        assert all(shape.match(name) for name in metrics)
        assert all(check_metric_name(name) for name in names)

    def test_prometheus_name(self):
        assert prometheus_name("repro.serving.latency_seconds") == (
            "repro_serving_latency_seconds"
        )

    def test_prometheus_export_parses(self):
        registry = MetricsRegistry()
        registry.counter("repro.test.rows_total", model="dmt").inc(5)
        registry.gauge("repro.test.active_version", name="m").set(2)
        hist = registry.histogram("repro.test.latency_seconds")
        hist.observe(0.002)
        hist.observe(0.03)
        text = registry.to_prometheus()
        # Minimal structural parse of the exposition format.
        samples = 0
        for line in text.strip().splitlines():
            if line.startswith("#"):
                assert line.startswith("# TYPE ")
                continue
            name_part, value = line.rsplit(" ", 1)
            float(value)  # every sample value is a number
            assert name_part.startswith("repro_test_")
            samples += 1
        assert samples >= 2 + len(DEFAULT_LATENCY_BUCKETS)
        assert 'le="+Inf"' in text
        assert "repro_test_latency_seconds_sum" in text
        assert "repro_test_latency_seconds_count" in text
        # Cumulative bucket counts are monotone and end at the total count.
        bucket_values = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("repro_test_latency_seconds_bucket")
        ]
        assert bucket_values == sorted(bucket_values)
        assert bucket_values[-1] == 2

    def test_handle_cache_resolves_once_per_generation(self):
        registry = MetricsRegistry()
        calls = []

        def resolve(reg, key):
            calls.append(key)
            return reg.counter("repro.test.hits_total", key=key)

        cache = HandleCache(resolve)
        first = cache.get(registry, "a")
        assert cache.get(registry, "a") is first
        assert cache.get(registry, "b") is not first
        registry.clear()
        fresh = cache.get(registry, "a")
        assert fresh is not first
        fresh.inc()
        assert registry.counter("repro.test.hits_total", key="a").value == 1
        assert calls == ["a", "b", "a"]

    def test_handle_cache_resolves_again_after_a_racing_clear(self):
        """An entry resolved while a clear() landed keeps the generation
        read before it resolved, so its next use resolves it again."""
        registry = MetricsRegistry()

        def resolve(reg, key):
            handle = reg.counter("repro.test.hits_total")
            if reg.generation == 0:
                reg.clear()  # lands between the generation read and the store
            return handle

        cache = HandleCache(resolve)
        orphan = cache.get(registry, "a")
        live = cache.get(registry, "a")
        assert live is not orphan
        assert cache.get(registry, "a") is live
        live.inc()
        assert registry.counter("repro.test.hits_total").value == 1

    def test_snapshot_sorted_and_json_safe(self):
        registry = MetricsRegistry()
        registry.counter("repro.test.b_total").inc()
        registry.counter("repro.test.a_total").inc()
        snap = registry.snapshot()
        assert [record["name"] for record in snap] == [
            "repro.test.a_total", "repro.test.b_total",
        ]
        json.dumps(snap)


# ---------------------------------------------------------------------------
# Event log
# ---------------------------------------------------------------------------
class TestEventLog:
    def test_emit_and_query(self):
        log = EventLog()
        log.emit(DRIFT_DETECTED, detector="ADWIN", n_observations=100)
        log.emit(TREE_SPLIT, model="VFDT", feature=3, threshold=0.5)
        assert len(log) == 2
        assert log.counts_by_kind() == {DRIFT_DETECTED: 1, TREE_SPLIT: 1}
        records = log.records(DRIFT_DETECTED)
        assert records[0]["detector"] == "ADWIN"
        assert records[0]["seq"] == 1

    def test_schema_validation(self):
        log = EventLog()
        with pytest.raises(ValueError, match="missing fields"):
            log.emit(DRIFT_DETECTED, detector="ADWIN")  # n_observations absent
        with pytest.raises(ValueError, match="reserved"):
            log.emit("custom.kind", seq=1)
        # Unknown kinds skip validation entirely.
        log.emit("custom.kind", anything="goes")

    def test_ring_is_bounded(self):
        log = EventLog(max_events=5)
        for i in range(10):
            log.emit("custom.tick", i=i)
        assert len(log) == 5
        assert [r["i"] for r in log.records()] == [5, 6, 7, 8, 9]
        assert log.records()[-1]["seq"] == 10  # seq keeps counting

    def test_jsonl_round_trip(self, tmp_path):
        log = EventLog()
        log.emit(TREE_SPLIT, model="VFDT", feature=1, threshold=2.5)
        path = log.to_jsonl(tmp_path / "events.jsonl")
        records = read_jsonl(path)
        assert len(records) == 1
        assert records[0]["feature"] == 1

    def test_sink_streams_every_emit(self, tmp_path):
        path = tmp_path / "sink.jsonl"
        log = EventLog(max_events=2, sink_path=str(path))
        for i in range(5):
            log.emit("custom.tick", i=i)
        log.close_sink()
        # The ring only holds 2, but the sink has all 5.
        assert len(read_jsonl(path)) == 5

    def test_counted_kinds_label_by_required_fields(self):
        for kind, (name, fields) in COUNTERS.items():
            assert check_metric_name(name).endswith("_total"), kind
            assert set(fields) <= SCHEMAS[kind], kind

    def test_emit_bumps_the_counter_of_a_counted_kind_only(self):
        TELEMETRY.enable()
        TELEMETRY.emit(DRIFT_DETECTED, detector="ADWIN", n_observations=3)
        TELEMETRY.emit(DRIFT_DETECTED, detector="ADWIN", n_observations=9)
        TELEMETRY.emit(DRIFT_DETECTED, detector="DDM", n_observations=4)
        TELEMETRY.emit("custom.kind", detector="ADWIN")
        counts = {
            (record["name"], record["labels"]["detector"]): record["value"]
            for record in TELEMETRY.registry.snapshot()
        }
        assert counts == {
            (DRIFT_DETECTIONS_TOTAL, "ADWIN"): 2.0,
            (DRIFT_DETECTIONS_TOTAL, "DDM"): 1.0,
        }

    def test_sink_pid_expansion(self, tmp_path):
        import os

        log = EventLog(sink_path=str(tmp_path / "ev-{pid}.jsonl"))
        assert str(os.getpid()) in log.sink_path
        log.close_sink()


# ---------------------------------------------------------------------------
# Runtime singleton + spans
# ---------------------------------------------------------------------------
class TestRuntime:
    def test_disabled_span_is_shared_noop(self):
        from repro.telemetry.tracing import NOOP_SPAN

        assert TELEMETRY.span("a") is NOOP_SPAN
        assert TELEMETRY.span("b") is NOOP_SPAN  # no allocation per call

    def test_span_records_nested_paths(self):
        TELEMETRY.enable()
        with TELEMETRY.span("outer"):
            with TELEMETRY.span("inner"):
                pass
        snap = {
            tuple(sorted(record["labels"].items())): record
            for record in TELEMETRY.registry.snapshot()
        }
        outer = snap[(("span", "outer"),)]
        inner = snap[(("span", "outer/inner"),)]
        assert outer["count"] == 1 and inner["count"] == 1
        assert outer["name"] == "repro.trace.span_seconds"

    def test_tracer_call_nests_returns_and_records_on_error(self):
        TELEMETRY.enable()
        tracer = TELEMETRY.tracer
        with TELEMETRY.span("outer"):
            assert tracer.call("inner", divmod, 7, 2) == (3, 1)
            with pytest.raises(ZeroDivisionError):
                tracer.call("inner", divmod, 1, 0)
            assert tracer.current_path() == "outer"
        assert tracer.current_path() is None
        counts = {
            record["labels"]["span"]: record["count"]
            for record in TELEMETRY.registry.snapshot()
        }
        assert counts == {"outer": 1, "outer/inner": 2}

    def test_tracer_enter_exit_records_the_given_duration(self):
        TELEMETRY.enable()
        token = TELEMETRY.tracer.enter("timed")
        assert TELEMETRY.tracer.current_path() == "timed"
        TELEMETRY.tracer.exit(token, 0.25)
        assert TELEMETRY.tracer.current_path() is None
        (record,) = TELEMETRY.registry.snapshot()
        assert record["labels"] == {"span": "timed"}
        assert (record["count"], record["sum"]) == (1, 0.25)

    def test_enable_disable_reset(self):
        assert not TELEMETRY.enabled
        TELEMETRY.enable()
        assert TELEMETRY.enabled
        TELEMETRY.emit("custom.x", a=1)
        TELEMETRY.counter("repro.test.x_total").inc()
        TELEMETRY.disable()
        assert not TELEMETRY.enabled
        assert len(TELEMETRY.events) == 1  # data survives disable
        TELEMETRY.reset()
        assert len(TELEMETRY.events) == 0
        assert len(TELEMETRY.registry) == 0

    def test_export_run_and_report(self, tmp_path):
        TELEMETRY.enable()
        TELEMETRY.counter("repro.test.rows_total").inc(7)
        TELEMETRY.histogram("repro.test.latency_seconds").observe(0.004)
        TELEMETRY.emit(SERVING_HOT_SWAP, name="m", version=1, action="register")
        paths = TELEMETRY.export_run(tmp_path / "run")
        assert set(paths) == {"metrics.prom", "metrics.json", "events.jsonl"}
        assert read_jsonl(paths["events.jsonl"])[0]["kind"] == SERVING_HOT_SWAP
        with open(paths["metrics.json"], encoding="utf-8") as handle:
            metrics = json.load(handle)
        assert any(m["name"] == "repro.test.rows_total" for m in metrics)
        report = render_report(tmp_path / "run")
        assert "serving.hot_swap" in report
        assert "repro.test.latency_seconds" in report

    def test_report_cli(self, tmp_path, capsys):
        from repro.telemetry.__main__ import main

        TELEMETRY.enable()
        TELEMETRY.emit("custom.thing", a=1)
        TELEMETRY.export_run(tmp_path / "run")
        assert main(["report", str(tmp_path / "run")]) == 0
        assert "custom.thing" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# Instrumented serving layer
# ---------------------------------------------------------------------------
class TestServingTelemetry:
    def _service(self):
        from repro import DynamicModelTree, ModelRegistry, ScoringService

        rng = np.random.default_rng(7)
        X = rng.uniform(0, 1, size=(256, 4))
        y = (X[:, 0] > 0.5).astype(int)
        model = DynamicModelTree()
        model.partial_fit(X, y)
        registry = ModelRegistry()
        registry.register("dmt", model)
        return ScoringService(registry), X

    def test_scoring_stats_percentiles(self):
        service, X = self._service()
        for _ in range(8):
            service.predict("dmt", X)
        snap = service.stats("dmt")
        assert snap["n_requests"] == 8
        assert snap["p50_latency_seconds"] > 0
        assert snap["p50_latency_seconds"] <= snap["p95_latency_seconds"]
        assert snap["p95_latency_seconds"] <= snap["p99_latency_seconds"]
        assert snap["p99_latency_seconds"] <= snap["max_latency_seconds"]

    def test_stats_survive_hot_restart(self, tmp_path):
        service, X = self._service()
        for _ in range(5):
            service.predict("dmt", X)
        before = service.stats("dmt")
        path = tmp_path / "stats.json"
        service.save_stats(path)

        restarted, X2 = self._service()
        restarted.load_stats(path)
        after = restarted.stats("dmt")
        assert after["n_requests"] == before["n_requests"]
        assert after["p99_latency_seconds"] == pytest.approx(
            before["p99_latency_seconds"]
        )

    def test_serving_metrics_and_hot_swap_events(self):
        TELEMETRY.enable()
        service, X = self._service()
        service.predict("dmt", X)
        counts = TELEMETRY.events.counts_by_kind()
        assert counts.get(SERVING_HOT_SWAP) == 1
        snapshot = {
            (record["name"], tuple(sorted(record["labels"].items()))): record
            for record in TELEMETRY.registry.snapshot()
        }
        requests = snapshot[
            ("repro.serving.requests_total", (("model", "dmt"),))
        ]
        assert requests["value"] == 1.0
        latency = snapshot[
            ("repro.serving.latency_seconds", (("model", "dmt"),))
        ]
        assert latency["count"] == 1

    def test_grid_progress_elapsed(self):
        from repro.experiments.parallel import run_grid
        from repro.experiments.store import RunConfig

        events = []
        config = RunConfig(
            model="dmt", dataset="sea", scale=0.002, max_iterations=3
        )
        run_grid([config], jobs=1, progress=events.append)
        completed = [e for e in events if e.status == "completed"]
        assert len(completed) == 1
        assert completed[0].elapsed_seconds > 0
        submitted = [e for e in events if e.status == "submitted"]
        assert submitted[0].elapsed_seconds is None
