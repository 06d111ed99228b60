"""Prequential workloads: whole test-then-train cells through the public API.

A pass builds every cell of the workload with the experiment factories
(``make_dataset``/``make_model``, timed as set-up) and runs each one with
``PrequentialEvaluator.session(...).step()`` to the end of its stream, timing
every step.  The timed run makes passes on new input draws until the time is
up, repeating the first draw once, and takes host-speed probes between steps
(see ``hostspeed``); the traced run makes a traced pass between two untraced
ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any

from repro import PrequentialEvaluator
from repro.experiments.registry import make_dataset, make_model

from hostspeed import SpeedProbe
from stats import clock, draw_seed
from tracing import Tracer, layer_of, traced_model, traced_stream, unwrap

#: Steps a run needs so that its p99 has ten samples beyond it.
MIN_STEPS = 1000
#: Passes a run needs: the first draw twice, and at least one more draw.
MIN_PASSES = 3
#: Steps of each cell run once, untimed, before the first pass.
WARMUP_STEPS = 10
#: Times a pass builds its cells; the set-up time is their median, as one
#: build takes about a millisecond and the first few of a pass run slower.
SETUP_REPEATS = 25

#: ``(start, seconds)`` of a timed interval on :data:`stats.clock`.
Interval = tuple[float, float]


@dataclass
class PassResult:
    seed: int
    #: Each build of the cells (set-up), each session's creation and each
    #: step, as measured.
    setups: list[Interval] = field(default_factory=list)
    sessions: list[Interval] = field(default_factory=list)
    steps: list[Interval] = field(default_factory=list)
    rows: int = 0
    #: ``"model/dataset" -> deterministic_summary()``, or the error it raised.
    summaries: dict[str, Any] = field(default_factory=dict)
    #: ``"model/dataset" -> rows in its stream``.
    stream_rows: dict[str, int] = field(default_factory=dict)
    splits: dict[str, int] = field(default_factory=dict)

    @property
    def cell_s(self) -> float:
        """Time in session creation and steps, as measured."""
        return sum(s for _, s in self.sessions) + sum(s for _, s in self.steps)


def cell_name(cell: dict[str, Any]) -> str:
    return f"{cell['model']}/{cell['dataset']}"


def build(cells: list[dict[str, Any]], seed: int) -> list[tuple[Any, Any]]:
    return [
        (make_dataset(c["dataset"], scale=c["scale"], seed=seed),
         make_model(c["model"], seed=seed))
        for c in cells
    ]


def run_pass(
    workload: dict[str, Any],
    seed: int,
    tracer: Tracer | None = None,
    max_iterations: int | None = None,
    probe: SpeedProbe | None = None,
) -> PassResult:
    """Build and run every cell once; ``max_iterations`` caps each cell.

    ``probe`` is given the chance to take a probe between builds and steps.
    """
    cells = workload["cells"]
    evaluator = PrequentialEvaluator(batch_fraction=workload["batch_fraction"])
    result = PassResult(seed)
    for _ in range(SETUP_REPEATS):
        if probe is not None:
            probe.maybe()
        started = clock()
        built = build(cells, seed)
        result.setups.append((started, clock() - started))
    for cell, (stream, model) in zip(cells, built):
        name = cell_name(cell)
        limit = cell.get("max_iterations") if max_iterations is None else max_iterations
        layer, model_name = layer_of(model), type(model).__name__
        result.stream_rows[name] = stream.n_samples
        if tracer is not None:
            stream, model = traced_stream(stream, tracer), traced_model(model, tracer)
        steps = result.steps
        try:
            # Named explicitly: the default, the model's class name, would
            # name the proxy in a traced pass.
            options = dict(model_name=model_name, max_iterations=limit)
            started = clock()
            if tracer is None:
                session = evaluator.session(model, stream, **options)
                step = session.step
            else:
                tracer.request = name
                session = tracer.wrap("evaluation.session", evaluator.session)(
                    model, stream, **options
                )
                step = tracer.wrap("evaluation.step", session.step)
            result.sessions.append((started, clock() - started))
            more = True
            while more:
                if tracer is not None:
                    tracer.request = f"{name}#{session.result.n_iterations}"
                started = clock()
                more = step()
                steps.append((started, clock() - started))
                if probe is not None:
                    probe.maybe()
        except Exception as error:  # one failed cell must not stop the run
            result.summaries[name] = f"{type(error).__name__}: {error}"
            continue
        result.rows += session.result.n_samples
        result.summaries[name] = session.result.deterministic_summary()
        # complexity() outside any span: it is the count, not the work.
        result.splits[layer] = result.splits.get(layer, 0) + int(
            unwrap(model).complexity().n_splits
        )
    return result


def check_summary(
    workload: dict[str, Any],
    cell: dict[str, Any],
    stream_rows: int,
    summary: Any,
    first: Any,
    reference: Any,
) -> str | None:
    """Why ``summary`` is wrong, or ``None``.

    Every pass must repeat the first pass bit for bit, and must equal the
    recorded reference where the seed has one.  Any seed must give counts
    that follow from the stream length and finite scores in range.
    """
    if isinstance(summary, str):
        return summary
    if reference is not None and summary != reference:
        return "differs from the recorded reference"
    if first is not None and summary != first:
        return "differs from the first pass"
    batch = max(int(round(stream_rows * workload["batch_fraction"])), 1)
    limit = cell.get("max_iterations")
    rows = stream_rows if limit is None else min(stream_rows, limit * batch)
    if summary["n_samples"] != rows or summary["n_iterations"] != math.ceil(rows / batch):
        return f"processed {summary['n_samples']} rows, expected {rows}"
    if not 0 < summary["n_scored_samples"] <= rows - batch:
        return f"scored {summary['n_scored_samples']} of {rows} rows"
    if not 0 < summary["n_trained_samples"] <= rows:
        return f"trained on {summary['n_trained_samples']} of {rows} rows"
    for key in ("f1_mean", "accuracy_mean"):
        if not 0.0 <= summary[key] <= 1.0:
            return f"{key} = {summary[key]!r}"
    for key, value in summary.items():
        if isinstance(value, float) and not math.isfinite(value):
            return f"{key} = {value!r}"
    return None


@dataclass
class Outcome:
    passes: list[PassResult]
    attempted: int
    problems: list[str]
    tracer: Tracer | None = None
    untraced_s: float = 0.0
    traced_s: float = 0.0
    probe: SpeedProbe | None = None


def check(
    workload: dict[str, Any],
    passes: list[PassResult],
    reference: dict[str, Any],
) -> tuple[int, list[str]]:
    """Attempted cell runs and one line per failed one.

    ``reference`` maps an input seed to the recorded summary of every cell.
    """
    problems: list[str] = []
    first: dict[tuple[int, str], Any] = {}
    for number, result in enumerate(passes):
        recorded = reference.get(str(result.seed), {})
        for cell in workload["cells"]:
            name = cell_name(cell)
            summary = result.summaries.get(name, "did not run")
            problem = check_summary(
                workload, cell, result.stream_rows.get(name, 0), summary,
                first.get((result.seed, name)), recorded.get(name),
            )
            if problem is not None:
                problems.append(f"pass {number} (seed {result.seed}) {name}: {problem}")
            first.setdefault((result.seed, name), summary)
    return len(passes) * len(workload["cells"]), problems


def warm_up(workload: dict[str, Any], seed: int) -> None:
    """Run the first steps of every cell once so lazy imports are done."""
    run_pass(workload, seed, max_iterations=WARMUP_STEPS)


def run_timed(
    workload: dict[str, Any], seed: int, seconds: float, reference: dict[str, Any]
) -> Outcome:
    """Passes for about ``seconds``, each on a new input draw, probed.

    The second pass repeats the first draw, so the run checks that it gets
    the same outputs twice.  The run stops when one more pass would
    overshoot the time, on the wall clock, by more than it would fall short
    without it.
    """
    warm_up(workload, seed)
    probe = SpeedProbe()
    passes: list[PassResult] = []
    started = perf_counter()
    while True:
        pass_started = perf_counter()
        passes.append(run_pass(
            workload, draw_seed(seed, max(len(passes) - 1, 0)), probe=probe
        ))
        now = perf_counter()
        enough = len(passes) >= MIN_PASSES and sum(len(p.steps) for p in passes) >= MIN_STEPS
        if enough and now - started + (now - pass_started) / 2 >= seconds:
            break
    probe.take()
    attempted, problems = check(workload, passes, reference)
    return Outcome(passes, attempted, problems, probe=probe)


def run_traced(
    workload: dict[str, Any], seed: int, reference: dict[str, Any]
) -> Outcome:
    """A traced pass between two untraced ones, whose mean time it is set against."""
    warm_up(workload, seed)
    before = run_pass(workload, seed)
    tracer = Tracer()
    traced = run_pass(workload, seed, tracer)
    after = run_pass(workload, seed)
    passes = [before, traced, after]
    attempted, problems = check(workload, passes, reference)
    return Outcome(
        passes, attempted, problems, tracer,
        untraced_s=(before.cell_s + after.cell_s) / 2, traced_s=traced.cell_s,
    )
