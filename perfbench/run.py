"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload preq-narrow --seed 42 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing and
``repro.telemetry`` off, and reports its times scaled to a reference host
speed by probes taken between the program's calls (see ``hostspeed``).
``--trace 1`` is a separate invocation of the same workload that wraps the
objects handed to the program in tracing proxies and prints the per-layer
metrics.  Metric names and units come from
``BENCHMARK.json``; what each workload runs and what each metric means on it
is in ``perfbench/spec.json``.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  A report
with the run's facts, and for a traced run every span, is written under
``.bench_out/``.  The program is imported from ``src/`` of the checkout; all
load comes from this one process and thread.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"

#: Layers whose spans the traced run records (the ``repro`` subpackages).
LAYERS = (
    "streams", "core", "trees", "ensembles", "drift", "evaluation", "serving",
    "persistence",
)


def parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def facts(numpy: Any) -> dict[str, Any]:
    blas = "unknown"
    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "commit": git_commit(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def scaled(probe: Any, intervals: list[tuple[float, float]]) -> Any:
    """Lengths of ``(start, seconds)`` intervals on the reference host."""
    return probe.scaled([at for at, _ in intervals], [s for _, s in intervals])


def probe_line(probe: Any) -> str:
    import numpy as np

    took = np.median(np.asarray(probe.took), axis=0) * 1e6
    kernels = ", ".join(f"{name} {us:.1f} us" for name, us in zip(probe.kernels, took))
    slowdown = np.median(probe.kernel_slowdowns(), axis=1)
    return (
        f"host-speed probes: {len(probe.took)} (median {kernels}); host slowdown "
        f"median {np.median(slowdown):.3f}, min {slowdown.min():.3f}, max "
        f"{slowdown.max():.3f}; times below are scaled to the reference host "
        f"unless marked as measured"
    )


def prequential_metrics(outcome: Any) -> tuple[dict[str, float], list[str]]:
    import stats

    probe = outcome.probe
    steps = [s for p in outcome.passes for s in scaled(probe, p.steps)]
    rates = [
        p.rows / (scaled(probe, p.sessions).sum() + scaled(probe, p.steps).sum())
        for p in outcome.passes
    ]
    measured = [s for p in outcome.passes for _, s in p.steps]
    metrics = {
        "setup_s": statistics.median(
            statistics.median(scaled(probe, p.setups)) for p in outcome.passes
        ),
        "peak_rss_mb": peak_rss_mb(),
        "rows_per_s": statistics.median(rates),
        "p50_ms": stats.percentile(steps, 0.5) * 1e3,
    }
    lines = [
        probe_line(probe),
        f"passes = {len(outcome.passes)}, steps = {len(steps)}, "
        f"rows per pass = {outcome.passes[0].rows}",
        f"rows_per_s = {metrics['rows_per_s']:.1f} rows/s "
        f"(median of {len(rates)} passes; min {min(rates):.1f}, max {max(rates):.1f}; "
        f"measured {statistics.median(p.rows / p.cell_s for p in outcome.passes):.1f})",
        f"step_p50_ms = {metrics['p50_ms']:.4f} ms, "
        f"step_p99_ms = {stats.percentile(steps, 0.99) * 1e3:.4f} ms "
        f"(over {len(steps)} steps; measured "
        f"{stats.percentile(measured, 0.5) * 1e3:.4f} and "
        f"{stats.percentile(measured, 0.99) * 1e3:.4f} ms)",
    ]
    return metrics, lines


def serving_metrics(
    workload: dict[str, Any], draws: list[Any], plays: list[Any], probe: Any
) -> tuple[dict[str, float], list[str]]:
    import serve
    import stats

    limit = workload["p99_limit_ms"]
    measured = plays
    plays = [p.scaled(probe) for p in measured]
    rates = [p.rate for p in plays]
    rungs = [rates.index(workload[f"{rung}_rate_per_s"]) for rung in ("light", "heavy")]
    light, heavy = (plays[i] for i in rungs)
    measured_feedback = [ms for i in rungs for ms in measured[i].feedback_ms]
    max_rps = serve.max_rps(plays, limit)
    feedback = light.feedback_ms + heavy.feedback_ms
    rows = sum(p.rows for p in plays)
    metrics = {
        "setup_s": statistics.median(
            scaled(probe, [(d.setup_at, d.setup_s) for d in draws])
        ) + statistics.median(s for p in plays for _, s in p.setups),
        "peak_rss_mb": peak_rss_mb(),
        "rows_per_s": rows / sum(p.busy_s for p in plays),
        "p50_ms": stats.percentile(feedback, 0.5),
    }
    lines = [
        probe_line(probe),
        f"draws = {len(draws)}, requests per episode = "
        f"{workload['requests_per_episode']}, episodes = "
        f"{sum(len(p.setups) for p in plays)}, p99 limit = {limit} ms",
        f"measured: rows_per_s {rows / sum(p.busy_s for p in measured):.1f} rows/s, "
        f"feedback_p50_ms {stats.percentile(measured_feedback, 0.5):.4f} ms, "
        f"req_p99_ms.heavy {measured[rungs[1]].p99_ms:.4f} ms",
    ]
    for p in plays:
        lines.append(
            f"  rung {p.rate:>6g}/s x{len(p.setups):2d} episodes: p50 {p.p50_ms:8.3f} ms"
            f"  p99 {p.p99_ms:9.3f} ms  backlog max {p.backlog_max:5d}"
            f"  growing {p.growing!s:5}  busy {p.busy_s:6.3f} s"
        )
    named = {
        "req_p50_ms.light": light.p50_ms,
        "req_p99_ms.light": light.p99_ms,
        "req_p50_ms.heavy": heavy.p50_ms,
        "req_p99_ms.heavy": heavy.p99_ms,
        "feedback_p50_ms": metrics["p50_ms"],
    }
    lines += [f"{name} = {value:.4f} ms" for name, value in named.items()]
    try:
        lines.append(f"feedback_p90_ms = {stats.percentile(feedback, 0.9):.4f} ms")
    except stats.TooFewSamples as error:  # a run shorter than the ladder's
        lines.append(f"feedback_p90_ms = n/a ({error})")
    lines.append(f"(feedback latency over the {len(feedback)} batches of the light "
                 f"and heavy rungs)")
    lines.append(f"max_rps = {max_rps:.1f} 1/s")
    for seed, (_, outcome) in heavy.served.items():
        lines.append(f"draw {seed}: {outcome}")
    return metrics, lines


def layer_metrics(tracer: Any) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer figures from the spans, and each layer's summed self time."""
    totals = tracer.totals()

    def total(prefix: str, key: str) -> float:
        return sum(e[key] for name, e in totals.items() if name.startswith(prefix))

    metrics = {
        "evaluation.self_s": total("evaluation.", "self_s"),
        "core.complexity_s": total("core.complexity", "self_s"),
        "trees.complexity_s": total("trees.complexity", "self_s"),
        "streams.busy_s": total("streams.", "self_s"),
        "streams.rows": total("streams.next_sample", "rows"),
        "serving.score_self_s": total("serving.score", "self_s"),
        "serving.registry_s": total("serving.registry", "self_s"),
        "serving.requests": total("serving.score", "calls"),
        "serving.rows": total("serving.score", "rows"),
        "serving.deployment_self_s": total("serving.deployment", "self_s"),
        "drift.update_s": total("drift.", "self_s"),
        "drift.updates": total("drift.update", "calls"),
        "persistence.load_s": total("persistence.load", "self_s"),
        "persistence.save_s": total("persistence.save", "self_s"),
        "evaluation.steps": total("evaluation.step", "calls"),
        "trace.total_s": tracer.root_seconds(),
    }
    for layer in ("core", "trees", "ensembles"):
        metrics[f"{layer}.train_s"] = total(f"{layer}.train", "self_s")
        metrics[f"{layer}.predict_s"] = total(f"{layer}.predict", "self_s")
    steps = metrics["evaluation.steps"]
    metrics["evaluation.self_us_per_step"] = (
        metrics["evaluation.self_s"] / steps * 1e6 if steps else 0.0
    )
    by_layer = {layer: total(f"{layer}.", "self_s") for layer in LAYERS}
    return metrics, by_layer


def run(args: argparse.Namespace, spec: dict[str, Any], units: dict[str, str]) -> dict[str, Any]:
    import preq
    import serve
    import stats

    workload = spec["workloads"][args.workload]
    reference = json.loads((HERE / "reference.json").read_text()).get(args.workload, {})
    OUT.mkdir(exist_ok=True)
    lines: list[str] = []
    counts: dict[str, float] = {}
    if workload["kind"] == "serving":
        if args.trace:
            untraced, traced, tracer, draws, problems = serve.run_traced(
                workload, args.seed, args.seconds, OUT, reference
            )
            heavy = untraced[1]  # the first untraced play at the heavy rate
            counts = {
                "serving.queue_wait_p99_ms": stats.percentile(heavy.wait_ms, 0.99),
                "serving.backlog_max": heavy.backlog_max,
                "serving.drifts": sum(o["drifts"] for _, o in traced[1].served.values()),
                "serving.promotions": sum(o["promotions"] for _, o in traced[1].served.values()),
                "persistence.bytes": sum(d.model_bytes for d in draws),
                "trace.overhead": sum(a.busy_s for a in traced)
                / (sum(a.busy_s for a in untraced) / 2),
            }
            for play in traced:
                for layer, n in play.splits.items():
                    counts[f"{layer}.splits"] = counts.get(f"{layer}.splits", 0) + n
            attempted = sum(a.attempted for a in untraced + traced)
        else:
            draws, plays, probe, problems = serve.run_timed(
                workload, args.seed, args.seconds, OUT, reference
            )
            metrics, lines = serving_metrics(workload, draws, plays, probe)
            attempted = sum(p.attempted for p in plays)
    else:
        if args.trace:
            outcome = preq.run_traced(workload, args.seed, reference)
            tracer = outcome.tracer
            traced = outcome.passes[1]
            summaries = [s for s in traced.summaries.values() if isinstance(s, dict)]
            counts = {
                "evaluation.rows_scored": sum(s["n_scored_samples"] for s in summaries),
                "evaluation.rows_trained": sum(s["n_trained_samples"] for s in summaries),
                "trace.overhead": outcome.traced_s / outcome.untraced_s,
            }
            for layer, n in traced.splits.items():
                counts[f"{layer}.splits"] = n
        else:
            outcome = preq.run_timed(workload, args.seed, args.seconds, reference)
            metrics, lines = prequential_metrics(outcome)
        attempted, problems = outcome.attempted, outcome.problems

    if args.trace:
        # A layer the workload never calls reads 0 (serving on preq-*, ...).
        measured, by_layer = layer_metrics(tracer)
        metrics = dict.fromkeys(units, 0.0) | measured | counts
        total = metrics["trace.total_s"]
        summed = sum(by_layer.values())
        lines.append(f"trace: {len(tracer.spans)} spans, total {total:.6f} s, "
                     f"layer self times sum to {summed:.6f} s")
        for layer, seconds in by_layer.items():
            lines.append(f"  {layer:12s} self {seconds:10.6f} s  "
                         f"{seconds / total if total else 0.0:6.1%}")
        if abs(summed - total) > 1e-6 * max(total, 1.0):
            problems.append(f"layer self times sum to {summed} s, not {total} s")
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")

    missing = [name for name in units if name not in metrics]
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    failed = min(len(problems), attempted)
    return {
        "lines": lines,
        "problems": problems,
        "result": {
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": float(metrics[name]), "unit": unit}
                for name, unit in units.items()
            },
        },
    }


def main(argv: list[str] | None = None) -> int:
    args = parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    # One process, one thread: keep BLAS from starting a thread pool, and keep
    # telemetry off however the environment is set.
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(variable, "1")
    os.environ.pop("REPRO_TELEMETRY", None)
    sys.path.insert(0, str(ROOT / "src"))
    import numpy

    import repro.telemetry

    repro.telemetry.disable()
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = json.loads((HERE / "spec.json").read_text())
    if args.workload not in spec["workloads"]:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(spec['workloads'])}", file=sys.stderr)
        return 2
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in benchmark[section]}
    run_facts = facts(numpy)
    report = run(args, spec, units)
    result = report["result"]
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}")
    print("facts: " + ", ".join(f"{k} {v}" for k, v in run_facts.items()))
    for line in report["lines"]:
        print(line)
    for name, entry in result["metrics"].items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    print(f"error_rate = {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} failed of {result['attempted']} operations)")
    for problem in report["problems"][:20]:
        print(f"FAILED: {problem}")
    name = f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(
        {"args": vars(args), "facts": run_facts, "problems": report["problems"],
         **result}, indent=1,
    ))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
