"""Serving-path benchmark: per-row vs. vectorized DMT inference + service latency.

Measures, on a trained Dynamic Model Tree:

1. rows/sec of the legacy per-row inference loop
   (``dmt_predict_proba_per_row`` of ``tests/oracles.py``),
2. rows/sec of the vectorized inference path (``predict_proba`` via
   ``DMTNode.route_batch`` + per-leaf matrix ops),
3. end-to-end ``ScoringService.predict_proba`` latency (registry lookup,
   batching and metrics accounting included).

Writes ``BENCH_serving.json`` next to the repository root.  Run from the
repository root, with ``src`` and the root (for ``tests.oracles``) on the
path::

    PYTHONPATH=src:. python benchmarks/bench_serving_throughput.py
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from repro import DynamicModelTree, ModelRegistry, ScoringService
from tests.oracles import dmt_predict_proba_per_row

BATCH_ROWS = 10_000
REPEATS = 5


def _train_model(n_samples: int = 20_000, seed: int = 1) -> DynamicModelTree:
    """DMT trained on scaled XOR, which forces the tree to grow splits."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 3.0, size=(n_samples, 2))
    y = ((X[:, 0] > 1.5) ^ (X[:, 1] > 1.5)).astype(int)
    model = DynamicModelTree(random_state=seed)
    for start in range(0, n_samples, 100):
        model.partial_fit(X[start : start + 100], y[start : start + 100], classes=[0, 1])
    return model


def _time_call(fn, *args) -> float:
    """Best-of-REPEATS wall-clock seconds for one call."""
    best = float("inf")
    for _ in range(REPEATS):
        started = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - started)
    return best


def main() -> dict:
    model = _train_model()
    rng = np.random.default_rng(7)
    X = rng.uniform(0.0, 3.0, size=(BATCH_ROWS, 2))

    # Correctness gate before timing anything.
    np.testing.assert_allclose(
        model.predict_proba(X), dmt_predict_proba_per_row(model, X), rtol=0.0, atol=1e-12
    )

    per_row_seconds = _time_call(dmt_predict_proba_per_row, model, X)
    vectorized_seconds = _time_call(model.predict_proba, X)

    registry = ModelRegistry()
    registry.register("dmt", model)
    service = ScoringService(registry, max_batch_size=2048)
    service_seconds = _time_call(service.predict_proba, "dmt", X)
    service_stats = service.stats("dmt")

    results = {
        "benchmark": "serving_throughput",
        "batch_rows": BATCH_ROWS,
        "tree": {
            "n_nodes": model.n_nodes,
            "n_leaves": model.n_leaves,
            "depth": model.depth,
        },
        "per_row_inference": {
            "seconds": per_row_seconds,
            "rows_per_second": BATCH_ROWS / per_row_seconds,
        },
        "vectorized_inference": {
            "seconds": vectorized_seconds,
            "rows_per_second": BATCH_ROWS / vectorized_seconds,
        },
        "speedup": per_row_seconds / vectorized_seconds,
        "scoring_service": {
            "seconds": service_seconds,
            "rows_per_second": BATCH_ROWS / service_seconds,
            "max_batch_size": service.max_batch_size,
            "accumulated_stats": service_stats,
        },
    }

    out_path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_serving.json")
    out_path = os.path.normpath(out_path)
    with open(out_path, "w") as handle:
        json.dump(results, handle, indent=2)

    print(f"tree: {results['tree']}")
    print(
        f"per-row:    {results['per_row_inference']['rows_per_second']:>12,.0f} rows/s"
    )
    print(
        f"vectorized: {results['vectorized_inference']['rows_per_second']:>12,.0f} rows/s"
        f"  ({results['speedup']:.1f}x speedup)"
    )
    print(
        f"service:    {results['scoring_service']['rows_per_second']:>12,.0f} rows/s end-to-end"
    )
    print(f"wrote {out_path}")
    return results


if __name__ == "__main__":
    main()
