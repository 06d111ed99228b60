"""Thread-stress tests for the serving stack.

Scorer threads run against concurrent model hot-swaps, stats readers and
telemetry ``clear()`` storms in :class:`ScoringService`,
:class:`ModelRegistry` and the telemetry registry; they must observe no
torn state and lose no counts.  A pass shows these paths hold up under the
interleavings this run happened to produce, not that every field is
locked: a race that needs an unlucky schedule can pass many runs in a row.
The static rule LCK001 (``python -m repro.analysis``) checks the lock
discipline of the same classes without depending on the scheduler.
"""

from __future__ import annotations

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core import DynamicModelTree
from repro.linear.naive_bayes import GaussianNaiveBayes
from repro.serving.registry import ModelRegistry
from repro.serving.service import ScoringService
from repro.telemetry import (
    SERVING_CHAMPION_DRIFTS_TOTAL,
    SERVING_DRIFT,
    SERVING_REQUESTS_TOTAL,
    SPAN_METRIC,
    TELEMETRY,
)

N_THREADS = 8
N_REQUESTS = 40  # per scorer thread
ROWS = 16


class _ConstantModel:
    """Classifier stub with a fixed answer, cheap enough to hammer."""

    def __init__(self, label: int) -> None:
        self.label = int(label)
        self.classes_ = np.array([0, 1, 2, 3])

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X)
        return np.full(len(X), self.label)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X)
        proba = np.zeros((len(X), len(self.classes_)))
        proba[:, self.label] = 1.0
        return proba


@pytest.fixture(autouse=True)
def _clean_telemetry():
    TELEMETRY.registry.clear()
    yield
    TELEMETRY.registry.clear()


def test_scoring_during_hot_swaps_loses_no_counts():
    """Scorers racing registry hot-swaps: stats stay exact, rows intact.

    The swap is made certain to land mid-run: every scorer meets the
    swapper at a midpoint after half its requests and goes on only once
    the swapper has registered its first new version, which keeps swapping
    through the second half.  The first half therefore sees only label 0
    and the second half only labels 1-3.
    """
    registry = ModelRegistry()
    registry.register("clf", _ConstantModel(0))
    service = ScoringService(registry)
    X = np.zeros((ROWS, 3))
    start = threading.Barrier(N_THREADS + 1)
    midpoint = threading.Barrier(N_THREADS + 1, timeout=60)
    swapped = threading.Event()
    stop = threading.Event()

    def score(worker: int) -> list[int]:
        start.wait()
        labels = []
        for request in range(N_REQUESTS):
            if request == N_REQUESTS // 2:
                midpoint.wait()
                assert swapped.wait(timeout=60)
            out = service.predict("clf", X)
            # A torn read would mix labels inside one response; each
            # response must come from exactly one model version.
            assert len(set(out.tolist())) == 1
            labels.append(int(out[0]))
        return labels

    def swap() -> int:
        start.wait()
        midpoint.wait()
        version = 0
        while True:
            version += 1
            registry.register("clf", _ConstantModel(1 + version % 3))
            swapped.set()
            if stop.is_set():
                return version

    with ThreadPoolExecutor(max_workers=N_THREADS + 1) as pool:
        swapper = pool.submit(swap)
        scorers = [pool.submit(score, i) for i in range(N_THREADS)]
        try:
            seen = [f.result() for f in scorers]
        finally:
            stop.set()
        assert swapper.result() > 0

    stats = service.stats("clf")
    assert stats["n_requests"] == N_THREADS * N_REQUESTS
    assert stats["n_rows"] == N_THREADS * N_REQUESTS * ROWS
    # Several model versions were actually observed mid-run.
    assert len({label for labels in seen for label in labels}) >= 2


def test_scoring_during_telemetry_clears_is_consistent():
    """``MetricsRegistry.clear()`` storms never corrupt request counters.

    Every post-clear request lands in fresh counters (the service's handle
    cache resolves an entry again once the registry generation moved), so
    after a final clear plus a known number of requests the counter holds
    exactly that number.
    """
    registry = ModelRegistry()
    registry.register("clf", _ConstantModel(1))
    service = ScoringService(registry)
    TELEMETRY.enable()
    X = np.zeros((ROWS, 3))
    start = threading.Barrier(N_THREADS + 1)
    stop = threading.Event()

    def score() -> None:
        start.wait()
        for _ in range(N_REQUESTS):
            service.predict("clf", X)

    def clear_storm() -> None:
        start.wait()
        while not stop.is_set():
            TELEMETRY.registry.clear()
            len(TELEMETRY.registry)  # racing __len__ read

    try:
        with ThreadPoolExecutor(max_workers=N_THREADS + 1) as pool:
            storm = pool.submit(clear_storm)
            scorers = [pool.submit(score) for _ in range(N_THREADS)]
            for f in scorers:
                f.result()
            stop.set()
            storm.result()

        # Service-side stats are unaffected by telemetry clears.
        assert service.stats("clf")["n_requests"] == N_THREADS * N_REQUESTS

        # Deterministic epilogue: fresh generation, exact counts.
        TELEMETRY.registry.clear()
        for _ in range(5):
            service.predict("clf", X)
        counter = TELEMETRY.counter(
            "repro.serving.requests_total", model="clf"
        )
        assert counter.value == 5
    finally:
        TELEMETRY.disable()


def test_spans_requests_and_emits_racing_clears_count_exactly():
    """Clears racing nested spans, request metrics and counted emits.

    Scorer threads run a DMT through the service (``serving.score`` with the
    model's span nested in it), one thread emits a counted event in a loop
    and one clears the registry.  The span and request handle caches take
    no lock: an entry that raced a clear must be resolved again on its next
    use.  After a final clear, k requests and j emits read exactly k and j
    on every series they feed.
    """
    rng = np.random.default_rng(0)
    X = rng.uniform(-3.0, 3.0, size=(400, 2))
    model = DynamicModelTree(random_state=0)
    model.partial_fit(X, (np.abs(X[:, 0]) > 1.5).astype(int), classes=[0, 1])
    registry = ModelRegistry()
    registry.register("dmt", model)
    service = ScoringService(registry)
    X = X[:ROWS]
    TELEMETRY.enable()
    start = threading.Barrier(N_THREADS + 2, timeout=60)
    stop = threading.Event()

    def score() -> None:
        start.wait()
        for _ in range(N_REQUESTS):
            service.predict_proba("dmt", X)

    def emit() -> None:
        start.wait()
        while not stop.is_set():
            TELEMETRY.emit(SERVING_DRIFT, name="stress")

    def clear_storm() -> None:
        start.wait()
        while not stop.is_set():
            TELEMETRY.registry.clear()

    n_requests, n_emits = 7, 5
    switch_interval = sys.getswitchinterval()
    # Frequent thread switches make a clear more likely to land between a
    # cache's generation read and its store.
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=N_THREADS + 2) as pool:
            background = [pool.submit(emit), pool.submit(clear_storm)]
            scorers = [pool.submit(score) for _ in range(N_THREADS)]
            for f in scorers:
                f.result()
            stop.set()
            for f in background:
                f.result()
            sys.setswitchinterval(switch_interval)

            TELEMETRY.registry.clear()
            # One request at a time, on the pool's threads: each thread's
            # span stack must have come out of the storm balanced.
            for _ in range(n_requests):
                pool.submit(service.predict_proba, "dmt", X).result()
        for _ in range(n_emits):
            TELEMETRY.emit(SERVING_DRIFT, name="stress")

        metrics = TELEMETRY.registry
        assert metrics.counter(SERVING_REQUESTS_TOTAL, model="dmt").value == n_requests
        spans = {
            record["labels"]["span"]: record["count"]
            for record in metrics.snapshot()
            if record["name"] == SPAN_METRIC
        }
        assert spans == {
            "serving.score": n_requests,
            "serving.score/dmt.predict_proba": n_requests,
        }
        drifts = metrics.counter(SERVING_CHAMPION_DRIFTS_TOTAL, name="stress")
        assert drifts.value == n_emits
    finally:
        sys.setswitchinterval(switch_interval)
        TELEMETRY.reset()


def test_stats_readers_race_scorers():
    """Concurrent stats()/metrics()/reset_stats() never tear a snapshot."""
    registry = ModelRegistry()
    registry.register("clf", _ConstantModel(2))
    service = ScoringService(registry)
    X = np.zeros((ROWS, 3))
    start = threading.Barrier(4)
    stop = threading.Event()

    def score() -> None:
        start.wait()
        for _ in range(N_REQUESTS * 4):
            service.predict("clf", X)

    def read() -> None:
        start.wait()
        while not stop.is_set():
            snap = service.stats("clf")
            # Torn stats would break the row/request invariant.
            assert snap["n_rows"] == snap["n_requests"] * ROWS
            service.metrics()

    with ThreadPoolExecutor(max_workers=4) as pool:
        readers = [pool.submit(read) for _ in range(2)]
        scorers = [pool.submit(score) for _ in range(2)]
        for f in scorers:
            f.result()
        stop.set()
        for f in readers:
            f.result()

    assert service.stats("clf")["n_requests"] == 2 * N_REQUESTS * 4


def test_gaussian_nb_served_under_swap_smoke():
    """A real model class survives the same hammer (no stub artefacts)."""
    rng = np.random.default_rng(0)
    X = rng.standard_normal((64, 4))
    y = (rng.random(64) > 0.5).astype(int)

    def trained() -> GaussianNaiveBayes:
        model = GaussianNaiveBayes(n_features=4, n_classes=2)
        model.update(X, y)
        return model

    registry = ModelRegistry()
    registry.register("nb", trained())
    service = ScoringService(registry, max_batch_size=16)
    start = threading.Barrier(5)
    stop = threading.Event()

    def score() -> None:
        start.wait()
        for _ in range(N_REQUESTS):
            proba = service.predict_proba("nb", X)
            assert proba.shape == (64, 2)
            np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-9)

    def swap() -> None:
        start.wait()
        while not stop.is_set():
            registry.register("nb", trained())

    with ThreadPoolExecutor(max_workers=5) as pool:
        swapper = pool.submit(swap)
        scorers = [pool.submit(score) for _ in range(4)]
        for f in scorers:
            f.result()
        stop.set()
        swapper.result()

    assert service.stats("nb")["n_requests"] == 4 * N_REQUESTS
