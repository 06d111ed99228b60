"""Champion/challenger deployment with drift-triggered promotion.

The champion serves live predictions; a challenger (typically a freshly
trained or differently configured model) is *shadow-scored* on the same
traffic: its predictions are recorded for comparison but never served.  Both
models keep training on the labelled stream (prequential protocol).  A drift
detector from :mod:`repro.drift` watches the champion's error stream; when it
fires -- i.e. the champion's error distribution changed, the classic symptom
of concept drift -- the challenger is promoted to a new active version in the
:class:`~repro.serving.registry.ModelRegistry`, an atomic hot swap that the
scoring layer picks up on its next request.
"""

from __future__ import annotations

from typing import cast

import numpy as np

from repro.base import StreamClassifier
from repro.drift.base import BaseDriftDetector
from repro.serving.registry import ModelRegistry, ModelVersion
from repro.telemetry import SERVING_DRIFT, SERVING_PROMOTION, TELEMETRY


class ChampionChallenger:
    """Shadow-score a challenger and promote it when the champion drifts.

    The deployment loop itself is **single-threaded by design**: exactly one
    driver thread feeds ``process_batch``.  Concurrency enters only through
    the registry hot swap -- ``promote`` publishes the challenger via
    :meth:`ModelRegistry.register`, whose lock makes the swap atomic for
    scorer threads reading through :class:`~repro.serving.service.
    ScoringService`.  Shadow counters (``_champion_errors`` & co.) are
    therefore deliberately unlocked; see ``tests/test_serving_concurrency``
    for the scorers-vs-swap stress test.

    Parameters
    ----------
    registry:
        Registry the champion is served from; promotions register the
        challenger there as a new active version.
    name:
        Registry name of the deployment.
    champion:
        The initially served model (registered as version 1).
    drift_detector:
        Detector run on the champion's 0/1 error stream; defaults to ADWIN.
        For detectors that expose a window ``mean`` (ADWIN), only
        *degradations* count: a detection while the error mean decreased
        (the champion merely improved) is ignored.  One-sided detectors
        without a ``mean`` (DDM, EDDM, Page-Hinkley) already fire on
        increases only, so every detection counts for them (as it does for
        the two-sided KSWIN, which also exposes no mean).
    require_challenger_not_worse:
        When ``True`` (default), a promotion additionally requires shadow
        evidence: the challenger must have been scored on at least one batch
        and must not have made more errors than the champion since it was
        installed.  A challenger with no shadow evidence yet is never
        auto-promoted.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        name: str,
        champion: StreamClassifier,
        drift_detector: BaseDriftDetector | None = None,
        require_challenger_not_worse: bool = True,
    ) -> None:
        if drift_detector is None:
            from repro.drift.adwin import ADWIN

            drift_detector = ADWIN()
        self.registry = registry
        self.name = name
        self.drift_detector = drift_detector
        self.require_challenger_not_worse = bool(require_challenger_not_worse)
        self.challenger: StreamClassifier | None = None
        self.n_promotions = 0
        self.n_drifts = 0
        self._champion_errors = 0.0
        self._challenger_errors = 0.0
        self._shadow_weight = 0.0
        registry.register(name, champion, metadata={"role": "champion"})

    # ------------------------------------------------------------ properties
    @property
    def champion(self) -> StreamClassifier:
        """The currently served model (resolved through the registry)."""
        return cast(StreamClassifier, self.registry.get(self.name))

    @property
    def champion_shadow_accuracy(self) -> float:
        if self._shadow_weight == 0:
            return 0.0
        return 1.0 - self._champion_errors / self._shadow_weight

    @property
    def challenger_shadow_accuracy(self) -> float:
        if self._shadow_weight == 0:
            return 0.0
        return 1.0 - self._challenger_errors / self._shadow_weight

    # ------------------------------------------------------------- lifecycle
    def set_challenger(self, model: StreamClassifier) -> None:
        """Install (or replace) the shadow-scored challenger."""
        self.challenger = model
        self._champion_errors = 0.0
        self._challenger_errors = 0.0
        self._shadow_weight = 0.0

    def process_batch(self, X: np.ndarray, y: np.ndarray) -> dict[str, object]:
        """One prequential step: score, monitor drift, train, maybe promote.

        Returns a report with both models' batch accuracy and whether a
        drift was observed / a promotion happened on this batch.

        ``X``/``y`` are passed through as-is: every consumer
        (``predict``/``partial_fit``) runs its own ``asarray`` validation,
        so a defensive copy here would be pure memory-bandwidth overhead
        on the hot path (removing it measured parity, 1.006x rows/s, on
        2048-row float64 batches).
        """
        champion = self.champion
        classes = champion.classes_

        drift = False
        champion_accuracy = None
        challenger_accuracy = None

        if classes is not None:
            errors = (champion.predict(X) != y).astype(float)
            champion_accuracy = float(1.0 - errors.mean()) if len(errors) else None
            # Detectors exposing a window mean (ADWIN) can shrink the window
            # on *improvements* too; only count detections where the error
            # estimate went up.  One-sided detectors (DDM, Page-Hinkley, ...)
            # have no `mean` and fire on increases by construction.
            has_mean = hasattr(self.drift_detector, "mean")
            for error in errors:
                mean_before = self.drift_detector.mean if has_mean else None
                fired = self.drift_detector.update(float(error))
                if fired:
                    degraded = (
                        not has_mean or self.drift_detector.mean > mean_before
                    )
                    drift = drift or degraded
            if self.challenger is not None and self.challenger.classes_ is not None:
                challenger_errors = (self.challenger.predict(X) != y).astype(float)
                challenger_accuracy = (
                    float(1.0 - challenger_errors.mean()) if len(challenger_errors) else None
                )
                self._champion_errors += float(errors.sum())
                self._challenger_errors += float(challenger_errors.sum())
                self._shadow_weight += float(len(y))
        if drift:
            self.n_drifts += 1
            if TELEMETRY.enabled:
                TELEMETRY.emit(
                    SERVING_DRIFT,
                    name=self.name,
                    detector=type(self.drift_detector).__name__,
                    n_drifts=self.n_drifts,
                )

        # Test-then-train: both models keep learning from the labelled stream.
        champion.partial_fit(X, y)
        if self.challenger is not None:
            self.challenger.partial_fit(X, y)

        promoted = False
        if drift and self.challenger is not None:
            if not self.require_challenger_not_worse or (
                self._shadow_weight > 0
                and self._challenger_errors <= self._champion_errors
            ):
                self.promote()
                promoted = True

        return {
            "n_samples": int(len(y)),
            "champion_accuracy": champion_accuracy,
            "challenger_accuracy": challenger_accuracy,
            "drift": drift,
            "promoted": promoted,
        }

    def promote(self) -> ModelVersion:
        """Hot-swap the challenger in as the new active champion version."""
        if self.challenger is None:
            raise RuntimeError("No challenger installed to promote.")
        entry = self.registry.register(
            self.name,
            self.challenger,
            metadata={
                "role": "champion",
                "promoted_from": "challenger",
                "champion_shadow_accuracy": self.champion_shadow_accuracy,
                "challenger_shadow_accuracy": self.challenger_shadow_accuracy,
            },
        )
        self.challenger = None
        self.drift_detector.reset()
        self._champion_errors = 0.0
        self._challenger_errors = 0.0
        self._shadow_weight = 0.0
        self.n_promotions += 1
        if TELEMETRY.enabled:
            TELEMETRY.emit(
                SERVING_PROMOTION,
                name=self.name,
                version=entry.version,
                champion_shadow_accuracy=entry.metadata[
                    "champion_shadow_accuracy"
                ],
                challenger_shadow_accuracy=entry.metadata[
                    "challenger_shadow_accuracy"
                ],
            )
        return entry
