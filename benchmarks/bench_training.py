"""DMT training-path benchmark: per-row reference vs. vectorized ``partial_fit``.

For every dataset in {SEA, Agrawal, Hyperplane} and batch size in {1, 32,
256}, trains two trees with identical seeds on the same rows -- the
``DynamicModelTree`` (structure-of-arrays candidate store, fast
per-observation SGD) and its oracle ``ReferenceDynamicModelTree`` from
``tests/oracles.py`` (the per-row / per-candidate reference loops) -- and
times ``partial_fit``, each product repeat alternating with one reference
repeat.

Two gates:

1. **Bit-equivalence**: after training, both trees must have the same
   structure and produce byte-identical ``predict_proba`` output on held-out
   rows; one configuration also compares a full prequential
   ``deterministic_summary()`` between the two paths.
2. **Speedup**: at batch size >= 32 the vectorized path must be at least
   ``REPRO_BENCH_TRAINING_GATE``x (default 3.0) faster than the reference.
   Batch size 1 is reported for information only (both paths degenerate to
   per-row work at that granularity).

Writes ``BENCH_training.json`` next to the repository root.  Run from the
repository root, with ``src`` and the root (for ``tests.oracles``) on the
path::

    PYTHONPATH=src:. python benchmarks/bench_training.py

Environment knobs: ``REPRO_BENCH_TRAINING_ROWS`` (rows per batched run,
default 6000), ``REPRO_BENCH_TRAINING_ROWS_B1`` (rows for the batch-size-1
runs, default 1000), ``REPRO_BENCH_TRAINING_GATE`` (speedup gate, default
3.0), ``REPRO_BENCH_TRAINING_REPEATS`` (best-of timing repeats, default 2).
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from repro.core import DynamicModelTree
from repro.evaluation.prequential import PrequentialEvaluator
from repro.streams.synthetic import (
    AgrawalGenerator,
    HyperplaneGenerator,
    SEAGenerator,
)
from tests.oracles import ReferenceDynamicModelTree

OUTPUT_PATH = os.path.normpath(
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_training.json")
)

BATCH_SIZES = (1, 32, 256)
SEED = 42
#: Vectorized-vs-reference speedup required at batch size >= 32.
SPEEDUP_GATE = float(os.environ.get("REPRO_BENCH_TRAINING_GATE", "3.0"))


def _dataset_rows(name: str, n_rows: int) -> tuple[np.ndarray, np.ndarray, list]:
    factories = {
        "sea": lambda: SEAGenerator(n_samples=n_rows, noise=0.1, seed=SEED),
        "agrawal": lambda: AgrawalGenerator(n_samples=n_rows, seed=SEED),
        "hyperplane": lambda: HyperplaneGenerator(n_samples=n_rows, seed=SEED),
    }
    stream = factories[name]()
    X, y = stream.next_sample(n_rows)
    return X, y, list(stream.classes)


REPEATS = int(os.environ.get("REPRO_BENCH_TRAINING_REPEATS", "2"))


def _train(model: DynamicModelTree, X, y, classes, batch_size: int) -> float:
    started = time.perf_counter()
    for start in range(0, len(X), batch_size):
        model.partial_fit(
            X[start : start + batch_size], y[start : start + batch_size],
            classes=classes,
        )
    return time.perf_counter() - started


def _train_interleaved(X, y, classes, batch_size: int):
    """Best-of-REPEATS timings with product and reference runs interleaved.

    Returns ``[(seconds, model), (seconds, model)]`` for the product and
    the reference.  Training mutates the model, so every repeat trains a
    fresh instance (identical seeds -> identical work).  One product repeat
    alternates with one reference repeat, so a slow phase of the host
    (thermal throttling, noisy neighbours) cannot bias one side of the
    ratio; the minimum filters scheduler noise, as the other benchmarks do.
    """
    best = [(float("inf"), None), (float("inf"), None)]
    for _ in range(max(REPEATS, 1)):
        for side, model_class in enumerate(
            (DynamicModelTree, ReferenceDynamicModelTree)
        ):
            candidate = model_class(random_state=SEED)
            seconds = _train(candidate, X, y, classes, batch_size)
            if seconds < best[side][0]:
                best[side] = (seconds, candidate)
    return best


def _assert_bit_identical(fast, reference, X_heldout) -> None:
    # Explicit raises (not assert) so `python -O` cannot strip the gate.
    if fast.n_nodes != reference.n_nodes or fast.depth != reference.depth:
        raise SystemExit(
            f"tree structure diverged: {fast.n_nodes} nodes/depth {fast.depth} "
            f"vs {reference.n_nodes} nodes/depth {reference.depth}"
        )
    fast_proba = fast.predict_proba(X_heldout)
    reference_proba = reference.predict_proba(X_heldout)
    if not np.array_equal(fast_proba, reference_proba):
        raise SystemExit(
            "vectorized and reference training produced different predictions"
        )


def _summary_equivalence(n_rows: int) -> bool:
    """deterministic_summary() of a full prequential run, both paths."""
    summaries = []
    for model_class in (DynamicModelTree, ReferenceDynamicModelTree):
        stream = SEAGenerator(n_samples=n_rows, noise=0.1, seed=SEED)
        model = model_class(random_state=SEED)
        result = PrequentialEvaluator(batch_size=64).evaluate(
            model, stream, model_name="dmt", dataset_name="sea"
        )
        summaries.append(result.deterministic_summary())
    return summaries[0] == summaries[1]


def main() -> dict:
    n_rows = int(os.environ.get("REPRO_BENCH_TRAINING_ROWS", "6000"))
    n_rows_b1 = int(os.environ.get("REPRO_BENCH_TRAINING_ROWS_B1", "1000"))

    records: dict[str, dict] = {}
    failures: list[str] = []
    for dataset in ("sea", "agrawal", "hyperplane"):
        records[dataset] = {}
        for batch_size in BATCH_SIZES:
            rows = n_rows_b1 if batch_size == 1 else n_rows
            X, y, classes = _dataset_rows(dataset, rows + 500)
            X_train, y_train = X[:rows], y[:rows]
            X_heldout = X[rows:]

            (fast_seconds, fast), (reference_seconds, reference) = (
                _train_interleaved(X_train, y_train, classes, batch_size)
            )
            _assert_bit_identical(fast, reference, X_heldout)

            speedup = reference_seconds / fast_seconds
            gated = batch_size >= 32
            records[dataset][str(batch_size)] = {
                "rows": rows,
                "reference_seconds": round(reference_seconds, 4),
                "vectorized_seconds": round(fast_seconds, 4),
                "reference_rows_per_second": round(rows / reference_seconds),
                "vectorized_rows_per_second": round(rows / fast_seconds),
                "speedup": round(speedup, 2),
                "gated": gated,
                "tree_nodes": fast.n_nodes,
            }
            if gated and speedup < SPEEDUP_GATE:
                failures.append(
                    f"{dataset}@batch={batch_size}: {speedup:.2f}x < {SPEEDUP_GATE}x"
                )

    summary_identical = _summary_equivalence(n_rows=2000)
    if not summary_identical:
        raise SystemExit(
            "deterministic_summary() differs between vectorized and reference paths"
        )

    document = {
        "benchmark": "dmt_training_throughput",
        "seed": SEED,
        "batch_sizes": list(BATCH_SIZES),
        "speedup_gate_at_batch_ge_32": SPEEDUP_GATE,
        "deterministic_summary_bit_identical": summary_identical,
        "datasets": records,
        "gate_failures": failures,
    }
    with open(OUTPUT_PATH, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")

    print(f"{'dataset':<12} {'batch':>5} {'reference r/s':>14} {'vectorized r/s':>15} {'speedup':>8}")
    for dataset, batches in records.items():
        for batch_size, record in batches.items():
            print(
                f"{dataset:<12} {batch_size:>5} "
                f"{record['reference_rows_per_second']:>14,} "
                f"{record['vectorized_rows_per_second']:>15,} "
                f"{record['speedup']:>7.2f}x"
            )
    print("deterministic_summary bit-identical across paths:", summary_identical)
    if failures:
        raise SystemExit(
            f"Training speedup gate (>= {SPEEDUP_GATE}x at batch >= 32) failed: "
            f"{failures}"
        )
    print(f"all gated configurations >= {SPEEDUP_GATE}x -> {OUTPUT_PATH}")
    return document


if __name__ == "__main__":
    main()
