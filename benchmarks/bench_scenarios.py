"""Scenario throughput benchmark: the catalogue and the sampled programs.

Every scenario is a grammar program, so one interleaved timing loop measures
three sets:

1. **Transform microbench** (informational): rows/sec of every transform
   wrapped around the cheapest generator in the repo (SEA, tens of millions
   of rows/sec), which bounds each transform's own per-row cost from above.
2. **Catalogue gate**: for every catalogued scenario, each layer's rows/sec
   against the stream it directly wraps (a ``DriftInjector`` against its
   base concept).  Every layer must cost less than ``OVERHEAD_GATE`` times
   its wrapped stream.  The stack total against the innermost base is
   reported as well (informational; a deep stack compounds).
3. **Sampled-program gate**: the pinned ``fuzz-42-<index>`` programs (the
   family the fuzz-grid test harness pins), each against the raw source
   generators it consumes.  A drifting program reads *two* concept streams
   and an imbalanced one over-generates its base, so the fair baseline is
   the summed time of all raw sources.  Every program must take less than
   ``OVERHEAD_GATE`` times that.  Per-layer overhead is reported as well
   (informational; a mixing layer over a near-free generator legitimately
   exceeds its single wrapped stream).

Results go to ``BENCH_scenarios.json`` next to the repository root.  Run
with::

    PYTHONPATH=src python benchmarks/bench_scenarios.py

Environment knobs: ``REPRO_BENCH_ROWS`` (stream length, default 200_000),
``REPRO_BENCH_BATCH`` (consumption batch size, default 2_048),
``REPRO_BENCH_REPEATS`` (timing repeats, best-of, default 3; the gated sets
use at least 5), ``REPRO_BENCH_PROGRAMS`` (number of sampled programs,
default 12) and ``REPRO_BENCH_OVERHEAD_GATE`` (default 2.0, for idle
machines; CI loosens it because wall-clock ratios on shared runners flake
under load).
"""

from __future__ import annotations

import json
import os
import time

from repro.experiments.registry import (
    build_scenario_pipeline,
    fuzz_scenario_names,
    scenario_names,
    scenario_program,
)
from repro.streams import (
    DriftInjector,
    FeatureCorruptor,
    ImbalanceShifter,
    LabelNoiser,
    ScenarioPipeline,
    SEAGenerator,
)

OUTPUT_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_scenarios.json")
GRAMMAR_SEED = 42
OVERHEAD_GATE = float(os.environ.get("REPRO_BENCH_OVERHEAD_GATE", "2.0"))


def _sea(n_rows: int, seed: int, concept: int = 0) -> SEAGenerator:
    return SEAGenerator(
        n_samples=n_rows, noise=0.05, drift_positions=(), initial_concept=concept,
        seed=seed,
    )


def _consume(stream, batch_size: int) -> int:
    stream.restart()
    rows = 0
    while stream.has_more_samples():
        X, _ = stream.next_sample(batch_size)
        rows += len(X)
    return rows


def _best_times(streams, batch_size: int, repeats: int) -> list[tuple[float, int]]:
    """Best-of (seconds, rows) per full consumption of every stream.

    Passes are interleaved (one timing pass per stream, repeated) instead of
    timing each stream back to back, so slow machine-load drift cannot bias
    the ratios between the streams.
    """
    best = [float("inf")] * len(streams)
    rows = [0] * len(streams)
    for _ in range(repeats):
        for index, stream in enumerate(streams):
            started = time.perf_counter()
            rows[index] = _consume(stream, batch_size)
            best[index] = min(best[index], time.perf_counter() - started)
    return list(zip(best, rows))


def transform_microbench(n_rows: int, batch_size: int, repeats: int) -> dict:
    """Every transform over the cheapest base stream (upper-bound cost)."""
    base = _sea(n_rows, seed=1)
    alternate = _sea(n_rows, seed=2, concept=2)
    transforms = {
        "drift_injector_gradual": DriftInjector(
            base, alternate, mode="gradual", position=0.5, width=0.1, seed=3
        ),
        "drift_injector_recurring": DriftInjector(
            base, alternate, mode="recurring", period=0.2
        ),
        "feature_corruptor": FeatureCorruptor(
            base, missing_rate=0.1, noise_std=0.1, swap=((0, 2),), seed=4
        ),
        "label_noiser": LabelNoiser(base, noise=0.2, seed=5),
        "imbalance_shifter": ImbalanceShifter(
            base, class_weights=(0.9, 0.1), oversample=1.5
        ),
        "pipeline_3_layers": ScenarioPipeline(
            DriftInjector(base, alternate, mode="gradual", seed=6),
            layers=[
                (FeatureCorruptor, dict(missing_rate=0.1, noise_std=0.1, seed=7)),
                (LabelNoiser, dict(noise=0.1, seed=8)),
            ],
            name="bench_pipeline",
        ),
    }
    timings = _best_times([base, *transforms.values()], batch_size, repeats)
    rates = [rows / seconds for seconds, rows in timings]
    records = {
        "raw_sea_stream": {"rows_per_second": round(rates[0]), "overhead_vs_raw": 1.0}
    }
    for name, rate in zip(transforms, rates[1:]):
        records[name] = {
            "rows_per_second": round(rate),
            "overhead_vs_raw": round(rates[0] / rate, 3),
        }
    return records


def catalogue_overhead(n_rows: int, batch_size: int, repeats: int) -> dict:
    """Per-layer rows/sec overhead of every catalogued scenario (gated)."""
    records = {}
    for name in scenario_names():
        stack = build_scenario_pipeline(name, n_rows, seed=42).layer_stack()
        timings = _best_times(stack, batch_size, max(repeats, 5))
        rates = [rows / seconds for seconds, rows in timings]  # outermost ... base
        layers = {}
        for outer in range(len(stack) - 1):
            layers[f"{outer}:{type(stack[outer]).__name__}"] = {
                "rows_per_second": round(rates[outer]),
                "overhead_vs_wrapped": round(rates[outer + 1] / rates[outer], 3),
            }
        records[name] = {
            "base_rows_per_second": round(rates[-1]),
            "scenario_rows_per_second": round(rates[0]),
            "stack_total_vs_base": round(rates[-1] / rates[0], 3),
            "layers": layers,
        }
    return records


def _raw_sources(stack) -> list:
    """Every raw generator the pipeline consumes.

    The wrapped chain's innermost stream, plus the alternate concept of
    every two-stream mixing layer (drift injectors, oscillation).
    """
    sources = [stack[-1]]
    for stream in stack:
        alternate = getattr(stream, "alternate", None)
        if alternate is not None:
            sources.append(alternate)
    return sources


def sampled_overhead(
    n_programs: int, n_rows: int, batch_size: int, repeats: int
) -> dict:
    """Total-time overhead of every sampled program vs its raw sources (gated).

    Total seconds -- not rows/sec -- is what the gate compares: an
    oversampling layer's source stream is longer than the pipeline it
    feeds, and that extra generation work is part of the raw cost.
    """
    records = {}
    for name in fuzz_scenario_names(GRAMMAR_SEED, n_programs):
        stack = build_scenario_pipeline(name, n_rows).layer_stack()
        sources = _raw_sources(stack)
        # The stack already times the innermost source.
        timings = _best_times(stack + sources[1:], batch_size, max(repeats, 5))
        raw_seconds = sum(seconds for seconds, _ in timings[len(stack) - 1 :])
        program_seconds, program_rows = timings[0]
        layers = {}
        for outer in range(len(stack) - 1):
            seconds, rows = timings[outer]
            layers[f"{outer}:{type(stack[outer]).__name__}"] = {
                "rows_per_second": round(rows / seconds),
                "overhead_vs_wrapped": round(seconds / timings[outer + 1][0], 3),
            }
        records[name] = {
            "axes": " -> ".join(scenario_program(name).axes()),
            "n_raw_sources": len(sources),
            "raw_sources_seconds": round(raw_seconds, 6),
            "program_seconds": round(program_seconds, 6),
            "program_rows_per_second": round(program_rows / program_seconds),
            "overhead_vs_raw_sources": round(program_seconds / raw_seconds, 3),
            "layers": layers,
        }
    return records


def main() -> dict:
    n_rows = int(os.environ.get("REPRO_BENCH_ROWS", "200000"))
    batch_size = int(os.environ.get("REPRO_BENCH_BATCH", "2048"))
    repeats = int(os.environ.get("REPRO_BENCH_REPEATS", "3"))
    n_programs = int(os.environ.get("REPRO_BENCH_PROGRAMS", "12"))

    transforms = transform_microbench(n_rows, batch_size, repeats)
    catalogue = catalogue_overhead(n_rows, batch_size, repeats)
    sampled = sampled_overhead(n_programs, n_rows, batch_size, repeats)
    failures = {
        f"{name}/{layer_name}": layer["overhead_vs_wrapped"]
        for name, record in catalogue.items()
        for layer_name, layer in record["layers"].items()
        if layer["overhead_vs_wrapped"] >= OVERHEAD_GATE
    }
    failures.update(
        (name, record["overhead_vs_raw_sources"])
        for name, record in sampled.items()
        if record["overhead_vs_raw_sources"] >= OVERHEAD_GATE
    )
    document = {
        "benchmark": "scenario_throughput",
        "n_rows": n_rows,
        "batch_size": batch_size,
        "repeats": repeats,
        "grammar_seed": GRAMMAR_SEED,
        "n_programs": n_programs,
        "overhead_gate": OVERHEAD_GATE,
        "transforms_over_sea": transforms,
        "catalogue": catalogue,
        "sampled": sampled,
        "overhead_gate_failures": failures,
    }
    with open(OUTPUT_PATH, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")

    width = max(len(name) for name in transforms)
    print(f"{'transform over SEA':<{width}}  rows/sec  vs raw SEA")
    for name, record in transforms.items():
        print(
            f"{name:<{width}}  {record['rows_per_second']:>10,}  "
            f"{record['overhead_vs_raw']:.3f}x"
        )
    width = max(len(name) for name in catalogue)
    print(
        f"\n{'catalogue scenario':<{width}}  scenario r/s    base r/s  stack total"
        "  worst layer"
    )
    for name, record in catalogue.items():
        worst = max(
            (layer["overhead_vs_wrapped"] for layer in record["layers"].values()),
            default=1.0,
        )
        print(
            f"{name:<{width}}  {record['scenario_rows_per_second']:>12,}"
            f"  {record['base_rows_per_second']:>10,}"
            f"  {record['stack_total_vs_base']:>10.3f}x"
            f"  {worst:>10.3f}x"
        )
    width = max(len(name) for name in sampled)
    print(
        f"\n{'sampled program':<{width}}  program r/s  program s  raw srcs s"
        "  sources  vs raw sources"
    )
    for name, record in sampled.items():
        print(
            f"{name:<{width}}  {record['program_rows_per_second']:>11,}"
            f"  {record['program_seconds']:>9.4f}"
            f"  {record['raw_sources_seconds']:>10.4f}"
            f"  {record['n_raw_sources']:>7}"
            f"  {record['overhead_vs_raw_sources']:>13.3f}x"
        )
    if failures:
        raise SystemExit(
            f"Overhead gate (< {OVERHEAD_GATE}x: catalogue layers vs their "
            f"wrapped stream, sampled programs vs their raw sources) failed "
            f"for: {sorted(failures)}"
        )
    print(
        f"\nEvery catalogue layer and sampled program under the "
        f"{OVERHEAD_GATE}x overhead gate -> {OUTPUT_PATH}"
    )
    return document


if __name__ == "__main__":
    main()
