"""Parallel, sharded, resumable execution of experiment grids.

:func:`run_grid` shards (model, dataset) cells across a
``ProcessPoolExecutor``: every cell is an independent prequential run that
re-seeds its own stream and model, so the parallel schedule is provably
equivalent to the serial one -- same seeds produce identical
:class:`~repro.evaluation.prequential.PrequentialResult` traces and
summaries (only wall-clock ``time_trace`` values are host-dependent; see
:meth:`PrequentialResult.deterministic_summary`).

Hooked to a :class:`~repro.experiments.store.ResultStore`, finished cells
are written to disk as they complete and already-stored cells are skipped,
so an interrupted grid resumes instead of recomputing.  Progress streams
through a callback receiving one :class:`GridProgress` event per state
change (``cached`` / ``submitted`` / ``completed``).
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.evaluation.prequential import PrequentialResult
from repro.experiments.store import ResultStore, RunConfig
from repro.telemetry import (
    EXPERIMENTS_CELL_SECONDS,
    GRID_CELL_COMPLETED,
    TELEMETRY,
)

#: Progress event states, in lifecycle order.
CACHED = "cached"
SUBMITTED = "submitted"
COMPLETED = "completed"


@dataclass(frozen=True)
class GridProgress:
    """One progress event of a grid run."""

    config: RunConfig
    status: str  # CACHED, SUBMITTED or COMPLETED
    completed: int  # cells finished so far (cached cells included)
    total: int  # cells in the grid
    #: Wall-clock duration of the cell's prequential run, measured inside
    #: the worker that executed it.  ``None`` for cached/submitted events.
    elapsed_seconds: float | None = None


ProgressCallback = Callable[[GridProgress], None]


def _execute_cell(config: RunConfig) -> PrequentialResult:
    """Worker entry point: run one fully specified experiment cell."""
    from repro.experiments.runner import run_experiment

    return run_experiment(
        config.model,
        config.dataset,
        scale=config.scale,
        seed=config.seed,
        batch_fraction=config.batch_fraction,
        max_iterations=config.max_iterations,
    )


def _execute_cell_timed(config: RunConfig) -> tuple[PrequentialResult, float]:
    """Run one cell and measure its wall-clock duration in the worker."""
    started = time.perf_counter()
    result = _execute_cell(config)
    return result, time.perf_counter() - started


def default_jobs() -> int:
    """Default worker count: one per CPU, at least one."""
    return max(os.cpu_count() or 1, 1)


def run_grid(
    configs: Iterable[RunConfig],
    jobs: int = 1,
    store: ResultStore | None = None,
    progress: ProgressCallback | None = None,
) -> dict[RunConfig, PrequentialResult]:
    """Run every configuration, sharding cells across worker processes.

    Parameters
    ----------
    configs:
        Grid cells to execute; duplicates are executed once.
    jobs:
        Worker processes.  ``1`` runs serially in-process (no executor);
        values above the cell count are clamped.
    store:
        Optional result store.  Stored cells are loaded instead of run, and
        every freshly computed cell is persisted the moment it completes, so
        a killed grid resumes from disk.
    progress:
        Optional callback receiving a :class:`GridProgress` per event.

    Returns
    -------
    dict mapping each configuration to its result, in input order.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs!r}.")
    ordered = list(dict.fromkeys(configs))
    total = len(ordered)
    results: dict[RunConfig, PrequentialResult] = {}

    def emit(
        config: RunConfig, status: str, elapsed_seconds: float | None = None
    ) -> None:
        if status == COMPLETED and TELEMETRY.enabled:
            TELEMETRY.emit(
                GRID_CELL_COMPLETED,
                model=config.model,
                dataset=config.dataset,
                elapsed_seconds=elapsed_seconds,
            )
            if elapsed_seconds is not None:
                TELEMETRY.histogram(EXPERIMENTS_CELL_SECONDS).observe(
                    elapsed_seconds
                )
        if progress is not None:
            progress(
                GridProgress(
                    config, status, len(results), total, elapsed_seconds
                )
            )

    pending: list[RunConfig] = []
    for config in ordered:
        cached = store.get(config) if store is not None else None
        if cached is not None:
            results[config] = cached
            emit(config, CACHED)
        else:
            pending.append(config)

    if not pending:
        return {config: results[config] for config in ordered}

    if jobs == 1:
        for config in pending:
            emit(config, SUBMITTED)
            result, elapsed = _execute_cell_timed(config)
            if store is not None:
                store.put(config, result)
            results[config] = result
            emit(config, COMPLETED, elapsed)
        return {config: results[config] for config in ordered}

    workers = min(jobs, len(pending))
    first_error: BaseException | None = None
    with ProcessPoolExecutor(max_workers=workers) as executor:
        futures = {}
        for config in pending:
            futures[executor.submit(_execute_cell_timed, config)] = config
            emit(config, SUBMITTED)
        not_done = set(futures)
        while not_done:
            done, not_done = wait(not_done, return_when=FIRST_COMPLETED)
            for future in done:
                config = futures[future]
                try:
                    result, elapsed = future.result()
                except BaseException as error:
                    if first_error is None:
                        first_error = error
                        # Fail fast: drop cells that never started (they have
                        # nothing to persist).  Cells already running finish
                        # and are still drained below, so with a store the
                        # resume-instead-of-recompute contract holds.
                        for pending_future in not_done:
                            pending_future.cancel()
                    continue
                if store is not None:
                    store.put(config, result)
                results[config] = result
                emit(config, COMPLETED, elapsed)
    if first_error is not None:
        raise first_error
    return {config: results[config] for config in ordered}


def grid_configs(
    model_names: Sequence[str],
    dataset_names: Sequence[str],
    **config_kwargs,
) -> list[RunConfig]:
    """The full (dataset-major) grid of configurations for a suite.

    ``config_kwargs`` (``scale``, ``seed``, ``batch_fraction``,
    ``max_iterations``) forward to :class:`RunConfig`, which owns the
    defaults.
    """
    return [
        RunConfig(model=model_name, dataset=dataset_name, **config_kwargs)
        for dataset_name in dataset_names
        for model_name in model_names
    ]
