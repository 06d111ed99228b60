"""Command-line entry point for the parallel experiment engine.

Runs a (model, dataset) grid under the paper's prequential protocol,
sharding cells across worker processes and persisting every finished cell
to an on-disk result store, so an interrupted invocation resumes instead
of recomputing::

    python -m repro.experiments --jobs 4 --store results/
    python -m repro.experiments --models dmt vfdt_mc --datasets sea electricity \\
        --scale 0.002 --jobs 2 --store results/ --tables

``--scenarios`` switches the grid from the paper's thirteen streams to the
catalogue of stream scenarios (gradual/recurring/incremental drift, feature
corruption, label noise, prior shift), each a pinned program of the
scenario grammar (``repro.streams.grammar``)::

    python -m repro.experiments --scenarios --jobs 4 --store results-scenarios/

``--fuzz-scenarios N`` runs N scenario programs sampled from the scenario
grammar (``repro.streams.grammar``) under ``--seed``; program names are
self-describing (``fuzz-<seed>-<index>``), so workers and resumed
invocations rebuild the exact sampled streams::

    python -m repro.experiments --fuzz-scenarios 12 --seed 42 \\
        --scale 0.002 --batch-fraction 0.05 --jobs 2 --store results-fuzz/

``--tables`` regenerates Tables II-VI from the (possibly cached) results
after the grid finishes; ``--figure4`` prints the ASCII Figure 4 scatter.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.experiments.registry import (
    dataset_names,
    fuzz_scenario_names,
    model_names,
    scenario_names,
)
from repro.experiments.runner import ExperimentSuite, print_progress
from repro.experiments.tables import (
    table2_f1,
    table3_splits,
    table4_parameters,
    table5_time,
    table6_summary,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Parallel, resumable prequential experiment grids.",
    )
    parser.add_argument(
        "--models", nargs="+", default=None, metavar="MODEL",
        choices=model_names(),
        help=f"model registry keys (default: all of {', '.join(model_names())})",
    )
    parser.add_argument(
        "--datasets", nargs="+", default=None, metavar="DATASET",
        choices=dataset_names() + scenario_names(),
        help="data-set or scenario registry keys (default: the paper's "
        "thirteen streams); combined with --scenarios, the whole scenario "
        "catalogue is added to the listed keys",
    )
    parser.add_argument(
        "--scenarios", action="store_true",
        help="run the scenario catalogue "
        f"({', '.join(scenario_names())}) instead of the paper's data sets "
        "(with --datasets: in addition to the listed keys)",
    )
    parser.add_argument(
        "--fuzz-scenarios", type=int, default=0, metavar="N",
        help="add N scenario programs sampled from the scenario grammar "
        "under --seed (names fuzz-<seed>-<index>, e.g. "
        "'--fuzz-scenarios 12 --seed 42'); without --datasets/--scenarios "
        "the grid runs only the sampled programs",
    )
    parser.add_argument(
        "--scale", type=float, default=0.02,
        help="fraction of the original stream lengths (default: 0.02)",
    )
    parser.add_argument(
        "--seed", type=int, default=42, help="shared random seed (default: 42)"
    )
    parser.add_argument(
        "--batch-fraction", type=float, default=0.001,
        help="prequential batch fraction (paper: 0.001)",
    )
    parser.add_argument(
        "--max-iterations", type=int, default=None,
        help="optional cap on prequential iterations per cell",
    )
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes; 1 runs serially in-process (default: 1)",
    )
    parser.add_argument(
        "--store", default=None, metavar="DIR",
        help="result-store directory; finished cells are persisted here and "
        "reused on the next invocation",
    )
    parser.add_argument(
        "--tables", action="store_true",
        help="print Tables II-VI regenerated from the results",
    )
    parser.add_argument(
        "--figure4", action="store_true",
        help="print the ASCII rendering of Figure 4",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-cell progress output"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.fuzz_scenarios < 0:
        print("[repro] --fuzz-scenarios must be >= 0", file=sys.stderr)
        return 2
    if args.datasets:
        grid_datasets = tuple(args.datasets)
        if args.scenarios:
            grid_datasets += tuple(
                name for name in scenario_names() if name not in grid_datasets
            )
    elif args.scenarios:
        grid_datasets = tuple(scenario_names())
    elif args.fuzz_scenarios:
        grid_datasets = ()
    else:
        grid_datasets = tuple(dataset_names())
    if args.fuzz_scenarios:
        grid_datasets += tuple(fuzz_scenario_names(args.seed, args.fuzz_scenarios))
    suite = ExperimentSuite(
        model_names=tuple(args.models) if args.models else tuple(model_names()),
        dataset_names=grid_datasets,
        scale=args.scale,
        seed=args.seed,
        batch_fraction=args.batch_fraction,
        max_iterations=args.max_iterations,
        jobs=args.jobs,
        store=args.store,
    )
    cells = len(suite.configs())
    if not args.quiet:
        print(
            f"[repro] grid of {len(suite.model_names)} models x "
            f"{len(suite.dataset_names)} datasets = {cells} cells, "
            f"jobs={args.jobs}, store={args.store or '(none)'}"
        )
    cell_timings: dict[tuple[str, str], float] = {}

    def track_progress(event) -> None:
        if event.elapsed_seconds is not None:
            key = (event.config.model, event.config.dataset)
            cell_timings[key] = event.elapsed_seconds
        if not args.quiet:
            print_progress(event)

    started = time.perf_counter()
    suite.run(progress=track_progress)
    elapsed = time.perf_counter() - started
    if not args.quiet:
        print(f"[repro] {cells} cells finished in {elapsed:.1f}s")
        if cell_timings:
            (model, dataset), slowest = max(
                cell_timings.items(), key=lambda item: item[1]
            )
            print(
                f"[repro] slowest cell: {model} on {dataset} "
                f"({slowest:.2f}s of {sum(cell_timings.values()):.2f}s "
                "total cell time)"
            )

    if args.tables:
        for builder in (table2_f1, table3_splits, table4_parameters, table5_time, table6_summary):
            _, text = builder(suite)
            print()
            print(text)
    if args.figure4:
        from repro.experiments.figures import figure4_points, render_figure4_text

        print()
        print(render_figure4_text(figure4_points(suite)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
