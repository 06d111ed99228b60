"""Baseline-model benchmark: per-row reference vs. vectorized ``partial_fit``.

For VFDT and HT-Ada (and, for information, the Adaptive Random Forest) on
SEA and Agrawal at batch sizes 32 and 256, trains two instances with
identical seeds on the same rows -- the model (batched leaf routing,
structure-of-arrays observers, sweep-based split scoring, batched detector
feeds) and its oracle from ``tests/oracles.py`` (the per-row /
per-threshold reference loops) -- and times ``partial_fit``.

Two gates:

1. **Bit-equivalence**: before any timing is trusted, both paths must grow
   the same tree structure and produce byte-identical ``predict_proba``
   output on held-out rows; one configuration also compares a full
   prequential ``deterministic_summary()`` between the two paths.
2. **Speedup**: VFDT and HT-Ada must be at least
   ``REPRO_BENCH_BASELINES_GATE``x (default 3.0) faster than the reference
   at every benchmarked batch size (all >= 32).  ARF numbers are reported
   but not gated (its wall clock is dominated by its member trees, which
   are gated directly).

Timings interleave the fast and reference runs and keep the best of
``REPRO_BENCH_BASELINES_REPEATS`` repeats each, which damps scheduler noise
on shared machines.  Writes ``BENCH_baselines.json`` next to the repository
root.  Run from the repository root, with ``src`` and the root (for
``tests.oracles``) on the path::

    PYTHONPATH=src:. python benchmarks/bench_baselines.py

Environment knobs: ``REPRO_BENCH_BASELINES_ROWS`` (rows per tree run,
default 12000), ``REPRO_BENCH_BASELINES_ROWS_ARF`` (rows per ARF run,
default 4000), ``REPRO_BENCH_BASELINES_GATE`` (speedup gate, default 3.0),
``REPRO_BENCH_BASELINES_REPEATS`` (best-of repeats, default 5).
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from repro.ensembles.adaptive_random_forest import AdaptiveRandomForestClassifier
from repro.evaluation.prequential import PrequentialEvaluator
from repro.streams.synthetic import AgrawalGenerator, SEAGenerator
from repro.trees.hat import HoeffdingAdaptiveTreeClassifier
from repro.trees.vfdt import HoeffdingTreeClassifier
from tests.oracles import (
    ReferenceARF,
    ReferenceHoeffdingAdaptiveTree,
    ReferenceHoeffdingTree,
)

OUTPUT_PATH = os.path.normpath(
    os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_baselines.json"
    )
)

BATCH_SIZES = (32, 256)
SEED = 42
SPEEDUP_GATE = float(os.environ.get("REPRO_BENCH_BASELINES_GATE", "3.0"))
REPEATS = int(os.environ.get("REPRO_BENCH_BASELINES_REPEATS", "5"))

MODELS = {
    "vfdt": {
        "factory": lambda reference: (
            ReferenceHoeffdingTree if reference else HoeffdingTreeClassifier
        )(),
        "rows_env": "REPRO_BENCH_BASELINES_ROWS",
        "rows_default": 12000,
        "gated": True,
    },
    "ht_ada": {
        "factory": lambda reference: (
            ReferenceHoeffdingAdaptiveTree
            if reference
            else HoeffdingAdaptiveTreeClassifier
        )(),
        "rows_env": "REPRO_BENCH_BASELINES_ROWS",
        "rows_default": 12000,
        "gated": True,
    },
    "arf": {
        "factory": lambda reference: (
            ReferenceARF if reference else AdaptiveRandomForestClassifier
        )(random_state=SEED),
        "rows_env": "REPRO_BENCH_BASELINES_ROWS_ARF",
        "rows_default": 4000,
        "gated": False,
    },
}


def _dataset_rows(name: str, n_rows: int):
    factories = {
        "sea": lambda: SEAGenerator(n_samples=n_rows, noise=0.1, seed=SEED),
        "agrawal": lambda: AgrawalGenerator(n_samples=n_rows, seed=SEED),
    }
    stream = factories[name]()
    X, y = stream.next_sample(n_rows)
    return X, y, list(stream.classes)


def _train(model, X, y, classes, batch_size: int) -> float:
    started = time.perf_counter()
    for start in range(0, len(X), batch_size):
        model.partial_fit(
            X[start : start + batch_size], y[start : start + batch_size],
            classes=classes,
        )
    return time.perf_counter() - started


def _train_interleaved(make_model, X, y, classes, batch_size: int):
    """Best-of-REPEATS timings with fast/reference runs interleaved.

    Training mutates the model, so every repeat trains a fresh instance
    (identical seeds -> identical work); interleaving the two variants keeps
    slow system-wide phases (thermal throttling, noisy neighbours) from
    biasing one side of the ratio.
    """
    fast_model = reference_model = None
    fast_seconds = reference_seconds = float("inf")
    for _ in range(max(REPEATS, 1)):
        candidate = make_model(False)
        seconds = _train(candidate, X, y, classes, batch_size)
        if seconds < fast_seconds:
            fast_seconds, fast_model = seconds, candidate
        candidate = make_model(True)
        seconds = _train(candidate, X, y, classes, batch_size)
        if seconds < reference_seconds:
            reference_seconds, reference_model = seconds, candidate
    return fast_model, fast_seconds, reference_model, reference_seconds


def _assert_bit_identical(name, fast, reference, X_heldout) -> None:
    # Explicit raises (not assert) so `python -O` cannot strip the gate.
    fast_shape = getattr(fast, "n_nodes", None), getattr(fast, "depth", None)
    reference_shape = (
        getattr(reference, "n_nodes", None),
        getattr(reference, "depth", None),
    )
    if fast_shape != reference_shape:
        raise SystemExit(
            f"{name}: tree structure diverged: {fast_shape} vs {reference_shape}"
        )
    if not np.array_equal(
        fast.predict_proba(X_heldout), reference.predict_proba(X_heldout)
    ):
        raise SystemExit(
            f"{name}: vectorized and reference training produced different "
            "predictions"
        )


def _summary_equivalence(n_rows: int) -> bool:
    """deterministic_summary() of a full prequential run, both paths."""
    summaries = []
    for model_class in (
        HoeffdingAdaptiveTreeClassifier, ReferenceHoeffdingAdaptiveTree
    ):
        stream = SEAGenerator(n_samples=n_rows, noise=0.1, seed=SEED)
        model = model_class()
        result = PrequentialEvaluator(batch_size=64).evaluate(
            model, stream, model_name="ht_ada", dataset_name="sea"
        )
        summaries.append(result.deterministic_summary())
    return summaries[0] == summaries[1]


def main() -> dict:
    records: dict[str, dict] = {}
    failures: list[str] = []
    for model_name, spec in MODELS.items():
        rows = int(os.environ.get(spec["rows_env"], str(spec["rows_default"])))
        records[model_name] = {}
        for dataset in ("sea", "agrawal"):
            X, y, classes = _dataset_rows(dataset, rows + 500)
            X_train, y_train = X[:rows], y[:rows]
            X_heldout = X[rows:]
            records[model_name][dataset] = {}
            for batch_size in BATCH_SIZES:
                fast, fast_seconds, reference, reference_seconds = _train_interleaved(
                    spec["factory"], X_train, y_train, classes, batch_size
                )
                _assert_bit_identical(
                    f"{model_name}/{dataset}@batch={batch_size}",
                    fast,
                    reference,
                    X_heldout,
                )
                speedup = reference_seconds / fast_seconds
                records[model_name][dataset][str(batch_size)] = {
                    "rows": rows,
                    "reference_seconds": round(reference_seconds, 4),
                    "vectorized_seconds": round(fast_seconds, 4),
                    "reference_rows_per_second": round(rows / reference_seconds),
                    "vectorized_rows_per_second": round(rows / fast_seconds),
                    "speedup": round(speedup, 2),
                    "gated": spec["gated"],
                }
                if spec["gated"] and speedup < SPEEDUP_GATE:
                    failures.append(
                        f"{model_name}/{dataset}@batch={batch_size}: "
                        f"{speedup:.2f}x < {SPEEDUP_GATE}x"
                    )

    summary_identical = _summary_equivalence(n_rows=2000)
    if not summary_identical:
        raise SystemExit(
            "deterministic_summary() differs between vectorized and reference paths"
        )

    document = {
        "benchmark": "baseline_training_throughput",
        "seed": SEED,
        "batch_sizes": list(BATCH_SIZES),
        "speedup_gate_at_batch_ge_32": SPEEDUP_GATE,
        "gated_models": [name for name, spec in MODELS.items() if spec["gated"]],
        "deterministic_summary_bit_identical": summary_identical,
        "models": records,
        "gate_failures": failures,
    }
    with open(OUTPUT_PATH, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")

    print(
        f"{'model':<8} {'dataset':<9} {'batch':>5} {'reference r/s':>14} "
        f"{'vectorized r/s':>15} {'speedup':>8}"
    )
    for model_name, datasets in records.items():
        for dataset, batches in datasets.items():
            for batch_size, record in batches.items():
                print(
                    f"{model_name:<8} {dataset:<9} {batch_size:>5} "
                    f"{record['reference_rows_per_second']:>14,} "
                    f"{record['vectorized_rows_per_second']:>15,} "
                    f"{record['speedup']:>7.2f}x"
                )
    print("deterministic_summary bit-identical across paths:", summary_identical)
    if failures:
        raise SystemExit(
            f"Baseline speedup gate (>= {SPEEDUP_GATE}x at batch >= 32) failed: "
            f"{failures}"
        )
    print(f"all gated configurations >= {SPEEDUP_GATE}x -> {OUTPUT_PATH}")
    return document


if __name__ == "__main__":
    main()
