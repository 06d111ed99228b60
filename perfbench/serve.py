"""Open-loop serving workload: scoring requests beside drift-monitored feedback.

One thread plays a seeded schedule against deployments built only from the
public API: a DMT champion is pretrained and written with ``save_model``;
every deployment reads it back with ``load_model`` and serves it through
``ModelRegistry``, ``ScoringService`` and ``ChampionChallenger``.  Requests
arrive as a Poisson process (independent callers), so a training pause makes
every request due during it wait; each latency is measured from the time the
request was due.

The unit of work is an *episode*: a fixed, seeded sequence of requests with a
labelled feedback batch after every ``requests_per_feedback`` of them, played
against a fresh deployment.  A run makes a few input *draws* (stream rows,
champion file, schedule), and a play at one rate runs whole episodes back to
back, cycling through the draws, on one continuous arrival schedule: each
episode has its own deployment, built before the play, and the queue carries
over from one episode to the next.  What an episode serves depends only on
its draw, never on timing, so every episode of a draw must serve identical
responses and reach the same drifts, promotions and active version.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro import ChampionChallenger, ModelRegistry, ScoringService, load_model, save_model
from repro.drift import ADWIN
from repro.experiments.registry import get_dataset_spec, make_dataset, make_model

import stats
from hostspeed import SpeedProbe
from tracing import (
    Tracer,
    layer_of,
    rows_in_first_argument,
    traced_detector,
    traced_model,
    traced_registry,
    traced_stream,
    unwrap,
)

NAME = "scorer"
REQUEST, FEEDBACK = 0, 1


@dataclass
class Schedule:
    """One episode's events, with due times for a rate of one per second."""

    unit_dues: np.ndarray
    #: Length of the episode on the arrival clock, up to the next episode.
    unit_period: float
    kinds: np.ndarray
    #: Request or feedback number of each event.
    numbers: np.ndarray
    sizes: np.ndarray
    offsets: np.ndarray
    verify: np.ndarray


def make_schedule(workload: dict[str, Any], seed: int, n_rows: int) -> Schedule:
    n_requests = workload["requests_per_episode"]
    every = workload["requests_per_feedback"]
    rng = np.random.default_rng([seed, 0x5E12])
    # Each size makes up exactly its share of an episode, in a seeded order,
    # so every draw asks for the same rows and only their order varies.
    sizes_and_shares = np.asarray(workload["request_sizes"])
    counts = np.round(sizes_and_shares[:, 1] * n_requests).astype(int)
    counts[0] += n_requests - counts.sum()
    sizes = rng.permutation(np.repeat(sizes_and_shares[:, 0].astype(int), counts))
    offsets = (rng.random(n_requests) * (n_rows - sizes + 1)).astype(int)
    verify = rng.random(n_requests) < workload["verify_share"]
    gaps = rng.exponential(1.0, size=n_requests + 1)
    arrivals = np.cumsum(gaps[:-1])
    kinds, numbers, unit_dues = [], [], []
    for request in range(n_requests):
        kinds.append(REQUEST)
        numbers.append(request)
        unit_dues.append(arrivals[request])
        if (request + 1) % every == 0:
            # The labels of the period's requests arrive with its last one
            # and are served right after it.
            kinds.append(FEEDBACK)
            numbers.append((request + 1) // every - 1)
            unit_dues.append(arrivals[request])
    return Schedule(
        np.asarray(unit_dues), float(gaps.sum()), np.asarray(kinds),
        np.asarray(numbers), sizes, offsets, verify,
    )


@dataclass
class Draw:
    """One input draw: stream rows, the schedule and the champion's file."""

    seed: int
    X: np.ndarray
    y: np.ndarray
    classes: np.ndarray
    schedule: Schedule
    path: Path
    model_bytes: int
    #: When making it started, and how long it took, as measured.
    setup_at: float
    setup_s: float


def make_draw(
    workload: dict[str, Any], seed: int, out_dir: Path, tracer: Tracer | None = None
) -> Draw:
    """Generate the rows, pretrain the champion and save it to a model file."""
    started = stats.clock()
    pretrain = workload["pretrain_rows"]
    batch = workload["feedback_rows"]
    n_feedback = workload["requests_per_episode"] // workload["requests_per_feedback"]
    n_rows = pretrain + n_feedback * batch
    scale = n_rows / get_dataset_spec(workload["dataset"]).n_samples
    stream = make_dataset(workload["dataset"], scale=scale, seed=seed)
    if tracer is not None:
        stream = traced_stream(stream, tracer)
    X, y = stream.next_sample(n_rows)
    classes = stream.classes
    champion = make_model(workload["model"], seed=seed)
    for start in range(0, pretrain, batch):
        champion.partial_fit(X[start:start + batch], y[start:start + batch], classes=classes)
    path = out_dir / f"champion-{seed}.json"
    save = save_model if tracer is None else tracer.wrap("persistence.save", save_model)
    save(champion, path)
    return Draw(
        seed, X, y, classes, make_schedule(workload, seed, len(y)), path,
        model_bytes=os.path.getsize(path), setup_at=started,
        setup_s=stats.clock() - started,
    )


def new_challenger(
    workload: dict[str, Any], draw: Draw, number: int, X: np.ndarray, y: np.ndarray,
    tracer: Tracer | None,
) -> Any:
    """A fresh model, trained on the latest labelled batch with every class."""
    model = make_model(workload["model"], seed=draw.seed + 1 + number)
    if tracer is not None:
        model = traced_model(model, tracer)
    model.partial_fit(X, y, classes=draw.classes)
    return model


@dataclass
class Episode:
    """One fresh deployment of a draw, and what it served."""

    workload: dict[str, Any]
    draw: Draw
    registry: ModelRegistry
    service: ScoringService
    deployment: ChampionChallenger
    setup_at: float
    setup_s: float
    tracer: Tracer | None
    challengers: int = 1
    responses: list[Any] = field(default_factory=list)
    reports: list[tuple[bool, bool]] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)


def deploy(workload: dict[str, Any], draw: Draw, tracer: Tracer | None = None) -> Episode:
    """Load the draw's champion and wire up registry, service and deployment."""
    started = stats.clock()
    load = load_model if tracer is None else tracer.wrap("persistence.load", load_model)
    served = load(draw.path)
    registry = ModelRegistry()
    detector: Any = ADWIN()
    handed_registry: Any = registry
    if tracer is not None:
        served = traced_model(served, tracer)
        detector = traced_detector(detector, tracer)
        handed_registry = traced_registry(registry, tracer)
    deployment = ChampionChallenger(handed_registry, NAME, served, drift_detector=detector)
    pretrain, batch = workload["pretrain_rows"], workload["feedback_rows"]
    last = slice(pretrain - batch, pretrain)
    deployment.set_challenger(
        new_challenger(workload, draw, 0, draw.X[last], draw.y[last], tracer)
    )
    return Episode(
        workload, draw, registry, ScoringService(handed_registry), deployment,
        setup_at=started, setup_s=stats.clock() - started, tracer=tracer,
        responses=[None] * len(draw.schedule.sizes),
    )


class Handlers:
    """The calls one episode's events make, bound once before the play."""

    def __init__(self, episode: Episode, label: str) -> None:
        self.episode = episode
        self.label = label
        tracer = episode.tracer
        self.predict_proba = episode.service.predict_proba
        self.process_batch = episode.deployment.process_batch
        if tracer is not None:
            self.predict_proba = tracer.wrap(
                "serving.score", self.predict_proba, lambda args, _: len(args[1])
            )
            self.process_batch = tracer.wrap(
                "serving.deployment", self.process_batch, rows_in_first_argument
            )

    def rows(self, number: int) -> np.ndarray:
        draw = self.episode.draw
        offset = draw.schedule.offsets[number]
        return draw.X[offset:offset + draw.schedule.sizes[number]]

    def serve(self, local: int) -> None:
        episode = self.episode
        draw = episode.draw
        number = int(draw.schedule.numbers[local])
        tracer = episode.tracer
        if draw.schedule.kinds[local] == REQUEST:
            if tracer is not None:
                tracer.request = f"{self.label}/req{number}"
            try:
                episode.responses[number] = self.predict_proba(NAME, self.rows(number))
            except Exception as error:  # counted, and the play goes on
                episode.problems.append(f"request {number}: {type(error).__name__}: {error}")
            return
        workload = episode.workload
        batch = workload["feedback_rows"]
        start = workload["pretrain_rows"] + number * batch
        rows, labels = draw.X[start:start + batch], draw.y[start:start + batch]
        if tracer is not None:
            tracer.request = f"{self.label}/feedback{number}"
        try:
            report = self.process_batch(rows, labels)
            if report["promoted"]:
                episode.deployment.set_challenger(new_challenger(
                    workload, draw, episode.challengers, rows, labels, tracer
                ))
                episode.challengers += 1
        except Exception as error:
            episode.problems.append(f"feedback {number}: {type(error).__name__}: {error}")
            return
        episode.reports.append((bool(report["drift"]), bool(report["promoted"])))

    def verify(self, local: int) -> None:
        """A sampled response must equal the active model's own answer."""
        episode = self.episode
        schedule = episode.draw.schedule
        number = int(schedule.numbers[local])
        if schedule.kinds[local] != REQUEST or not schedule.verify[number]:
            return
        response = episode.responses[number]
        if response is None:
            return
        own = unwrap(episode.registry.get(NAME)).predict_proba(self.rows(number))
        if not np.array_equal(own, response):
            episode.problems.append(f"request {number}: response differs from the model's own")


def close(episode: Episode) -> tuple[str, dict[str, int]]:
    """Check every response; the digest and outcome its draw's episodes share."""
    digest = hashlib.sha256()
    n_classes = len(episode.draw.classes)
    for number, response in enumerate(episode.responses):
        if response is None:
            continue
        size = int(episode.draw.schedule.sizes[number])
        if response.shape != (size, n_classes):
            episode.problems.append(f"request {number}: shape {response.shape}")
        elif not np.isfinite(response).all():
            episode.problems.append(f"request {number}: non-finite probabilities")
        elif np.abs(response.sum(axis=1) - 1.0).max() > 1e-9:
            episode.problems.append(f"request {number}: rows do not sum to 1")
        digest.update(np.ascontiguousarray(response).tobytes())
    digest.update(repr(episode.reports).encode())
    outcome = {
        "drifts": episode.deployment.n_drifts,
        "promotions": episode.deployment.n_promotions,
        "active_version": episode.registry.active_version(NAME).version,
    }
    return digest.hexdigest(), outcome


@dataclass
class Attempt:
    """One play at one rate: whole episodes on one arrival schedule.

    Times are as measured, or all on the reference host after
    :meth:`scaled`.
    """

    rate: float
    #: ``(start, seconds)`` of deploying each episode.
    setups: list[tuple[float, float]]
    #: Per event, in schedule order (``events_per_episode`` per episode): its
    #: due time on :data:`stats.clock`, whether it is a request, its
    #: wait from due time to start, and its length from start to end.
    due_at: np.ndarray
    is_request: np.ndarray
    wait_s: np.ndarray
    event_s: np.ndarray
    events_per_episode: int
    #: Rows scored plus rows trained on.
    rows: int
    backlog_max: int
    growing: bool
    #: ``draw seed -> (digest, outcome)``, which every episode of it shares.
    served: dict[int, tuple[str, dict[str, int]]]
    #: Final ``complexity().n_splits`` of every model deployed, by layer.
    splits: dict[str, int]
    attempted: int
    problems: list[str]

    @property
    def latency_ms(self) -> np.ndarray:
        """Latency of every event, from due time to end."""
        return (self.wait_s + self.event_s) * 1e3

    @property
    def request_ms(self) -> list[list[float]]:
        """Request latencies of each episode."""
        latency, n = self.latency_ms, self.events_per_episode
        return [
            latency[i:i + n][self.is_request[i:i + n]].tolist()
            for i in range(0, len(latency), n)
        ]

    @property
    def feedback_ms(self) -> list[float]:
        return self.latency_ms[~self.is_request].tolist()

    @property
    def wait_ms(self) -> list[float]:
        return (self.wait_s * 1e3).tolist()

    @property
    def busy_s(self) -> float:
        """Time spent serving events."""
        return float(self.event_s.sum())

    @property
    def p50_ms(self) -> float:
        """Median over episodes of each one's median latency."""
        return statistics.median(stats.percentile(ms, 0.5) for ms in self.request_ms)

    @property
    def p99_ms(self) -> float:
        """Median over episodes of each one's p99, so one burst of host noise
        in one episode does not decide it."""
        return statistics.median(stats.percentile(ms, 0.99) for ms in self.request_ms)

    def scaled(self, probe: SpeedProbe) -> Attempt:
        """This play with its times on the reference host.

        A wait and an event are scaled by the probes around the event's due
        time and start, a set-up by those around its start.  Scaling a wait is
        an approximation: arrivals keep their schedule whatever the host's
        speed, so on a slow host the queue is also longer.
        """
        starts = self.due_at + self.wait_s
        at, seconds = zip(*self.setups)
        return dataclasses.replace(
            self,
            setups=list(zip(at, probe.scaled(at, seconds).tolist())),
            wait_s=probe.scaled(self.due_at, self.wait_s),
            event_s=probe.scaled(starts, self.event_s),
        )


def play(
    workload: dict[str, Any], draws: list[Draw], rate: float, episodes: int,
    tracer: Tracer | None = None, probe: SpeedProbe | None = None,
) -> Attempt:
    """Play ``episodes`` episodes at ``rate``; episode ``i`` is on draw ``i``,
    cycling through ``draws``.  ``probe`` takes probes between deployments
    and while the loop waits for an event."""
    built = []
    for i in range(episodes):
        if probe is not None:
            probe.maybe()
        built.append(deploy(workload, draws[i % len(draws)], tracer))
    handlers = [Handlers(e, f"{rate:g}/{i}") for i, e in enumerate(built)]
    # Every draw's schedule has the same events; only their times differ.
    kinds = np.concatenate([e.draw.schedule.kinds for e in built])
    offsets = np.cumsum([0.0] + [e.draw.schedule.unit_period for e in built[:-1]])
    dues = np.concatenate([
        (offset + e.draw.schedule.unit_dues) / rate for offset, e in zip(offsets, built)
    ])
    per_episode = len(built[0].draw.schedule.kinds)

    def serve(index: int) -> None:
        episode, local = divmod(index, per_episode)
        handlers[episode].serve(local)

    def verify(index: int) -> None:
        episode, local = divmod(index, per_episode)
        handlers[episode].verify(local)

    origin = stats.clock()
    starts, ends = stats.open_loop(
        dues.tolist(), serve, verify,
        wait_until=stats.spin_until if probe is None else probe.wait_until,
    )

    problems: list[str] = []
    served: dict[int, tuple[str, dict[str, int]]] = {}
    for i, episode in enumerate(built):
        closed = close(episode)
        problems += [f"episode {i}: {p}" for p in episode.problems]
        if served.setdefault(episode.draw.seed, closed) != closed:
            problems.append(f"episode {i} served draw {episode.draw.seed} differently")
    splits: dict[str, int] = {}
    for episode in built:
        models = [v.model for v in episode.registry.versions(NAME)]
        for model in filter(None, models + [episode.deployment.challenger]):
            layer = layer_of(unwrap(model))
            splits[layer] = splits.get(layer, 0) + int(unwrap(model).complexity().n_splits)
    scored = sum(int(e.draw.schedule.sizes.sum()) for e in built)
    trained = episodes * workload["feedback_rows"] * int((kinds[:per_episode] == FEEDBACK).sum())
    return Attempt(
        rate=rate,
        setups=[(e.setup_at, e.setup_s) for e in built],
        due_at=origin + dues,
        is_request=kinds == REQUEST,
        wait_s=np.asarray(starts) - dues,
        event_s=np.asarray(ends) - np.asarray(starts),
        events_per_episode=per_episode,
        rows=scored + trained,
        backlog_max=stats.backlog_max(dues.tolist(), starts),
        growing=stats.backlog_growing(dues.tolist(), starts, workload["p99_limit_ms"] / 1e3),
        served=served,
        splits=splits,
        attempted=len(dues),
        problems=problems,
    )


def episodes_at(workload: dict[str, Any], rate: float, seconds: float) -> int:
    """Episodes of the play at ``rate``.

    ``episodes_per_rate`` gives them for a run of ``ladder_seconds``; a
    shorter or longer run scales them, keeping at least one.
    """
    episodes = workload["episodes_per_rate"][workload["rates_per_s"].index(rate)]
    return max(round(episodes * seconds / workload["ladder_seconds"]), 1)


def check(attempts: list[Attempt], reference: dict[str, Any]) -> list[str]:
    """Every play must serve each draw alike, and as recorded."""
    problems = [p for attempt in attempts for p in attempt.problems]
    seen: dict[int, tuple[str, dict[str, int]]] = {}
    for attempt in attempts:
        for seed, served in attempt.served.items():
            if seen.setdefault(seed, served) != served:
                problems.append(f"draw {seed} was served differently at {attempt.rate:g}/s")
    for seed, (_, outcome) in seen.items():
        recorded = reference.get(str(seed))
        if recorded is not None and outcome != recorded:
            problems.append(f"draw {seed}: outcome {outcome} differs from the reference {recorded}")
    return problems


def make_draws(
    workload: dict[str, Any], seed: int, out_dir: Path, tracer: Tracer | None = None,
    probe: SpeedProbe | None = None,
) -> list[Draw]:
    draws = []
    for draw in range(workload["draws"]):
        if probe is not None:
            probe.take()
        draws.append(make_draw(workload, stats.draw_seed(seed, draw), out_dir, tracer))
    return draws


def warm_up(workload: dict[str, Any], draws: list[Draw]) -> None:
    """Play a few episodes flat out, untimed, so lazy set-up is done."""
    play(workload, draws, 1e9, 3)


def run_timed(
    workload: dict[str, Any], seed: int, seconds: float, out_dir: Path,
    reference: dict[str, Any],
) -> tuple[list[Draw], list[Attempt], SpeedProbe, list[str]]:
    """One play per rung of the ladder, after an untimed warm-up, probed."""
    probe = SpeedProbe()
    draws = make_draws(workload, seed, out_dir, probe=probe)
    probe.take()
    warm_up(workload, draws)
    plays = [
        play(workload, draws, rate, episodes_at(workload, rate, seconds), probe=probe)
        for rate in workload["rates_per_s"]
    ]
    probe.take()
    return draws, plays, probe, check(plays, reference)


def run_traced(
    workload: dict[str, Any], seed: int, seconds: float, out_dir: Path,
    reference: dict[str, Any],
) -> tuple[list[Attempt], list[Attempt], Tracer, list[Draw], list[str]]:
    """The light and heavy rungs traced, between the same two played untraced.

    Returns the untraced plays (before, then after), the traced plays, the
    tracer, the traced draws and the problems found.
    """
    rates = (workload["light_rate_per_s"], workload["heavy_rate_per_s"])
    draws = make_draws(workload, seed, out_dir)
    warm_up(workload, draws)

    def untraced() -> list[Attempt]:
        return [play(workload, draws, rate, episodes_at(workload, rate, seconds)) for rate in rates]

    before = untraced()
    tracer = Tracer()
    traced_draws = make_draws(workload, seed, out_dir, tracer)
    traced = [
        play(workload, traced_draws, rate, episodes_at(workload, rate, seconds), tracer)
        for rate in rates
    ]
    after = untraced()
    plays = before + after
    return plays, traced, tracer, traced_draws, check(plays + traced, reference)


def max_rps(plays: list[Attempt], limit_ms: float) -> float:
    return stats.max_rate([(p.rate, p.p99_ms, p.growing) for p in plays], limit_ms)
