"""Named, versioned model registry with atomic hot-swap.

The registry is the deployment-side companion of :mod:`repro.persistence`:
models are registered under a name, every registration creates a new
immutable :class:`ModelVersion`, and exactly one version per name is *active*
at any time.  Swapping the active version (deploying a retrained model,
rolling back a bad one) is a single pointer update under a lock, so scoring
threads never observe a half-deployed model.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.telemetry import (
    SERVING_ACTIVE_VERSION,
    SERVING_HOT_SWAP,
    SERVING_REGISTRATIONS_TOTAL,
    TELEMETRY,
)


@dataclass(frozen=True)
class ModelVersion:
    """One immutable registered version of a named model."""

    name: str
    version: int
    model: object
    created_at: float
    metadata: dict[str, object] = field(default_factory=dict)

    @property
    def key(self) -> str:
        return f"{self.name}@{self.version}"


class ModelRegistry:
    """Thread-safe store of named, versioned models.

    Every :meth:`register` call appends a new version; by default it also
    becomes the active one (a hot swap).  :meth:`activate` switches the
    active pointer to any historical version, which is how rollbacks and
    champion/challenger promotions are implemented.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._versions: dict[str, list[ModelVersion]] = {}
        self._active: dict[str, int] = {}

    # ------------------------------------------------------------- mutation
    def register(
        self,
        name: str,
        model: object,
        metadata: dict[str, object] | None = None,
        activate: bool = True,
    ) -> ModelVersion:
        """Add a new version of ``name``; optionally make it active."""
        if not name:
            raise ValueError("Model name must be a non-empty string.")
        with self._lock:
            history = self._versions.setdefault(name, [])
            entry = ModelVersion(
                name=name,
                version=len(history) + 1,
                model=model,
                created_at=time.time(),
                metadata=dict(metadata or {}),
            )
            history.append(entry)
            activated = activate or name not in self._active
            if activated:
                self._active[name] = entry.version
            if TELEMETRY.enabled:
                TELEMETRY.emit(
                    SERVING_HOT_SWAP,
                    name=name,
                    version=entry.version,
                    action="register",
                    activated=activated,
                )
                TELEMETRY.counter(
                    SERVING_REGISTRATIONS_TOTAL, name=name
                ).inc()
                if activated:
                    TELEMETRY.gauge(
                        SERVING_ACTIVE_VERSION, name=name
                    ).set(entry.version)
            return entry

    def activate(self, name: str, version: int) -> ModelVersion:
        """Atomically make an existing version the active one (hot swap)."""
        with self._lock:
            entry = self.get_version(name, version)
            self._active[name] = entry.version
            if TELEMETRY.enabled:
                TELEMETRY.emit(
                    SERVING_HOT_SWAP,
                    name=name,
                    version=entry.version,
                    action="activate",
                )
                TELEMETRY.gauge(
                    SERVING_ACTIVE_VERSION, name=name
                ).set(entry.version)
            return entry

    def rollback(self, name: str) -> ModelVersion:
        """Activate the version preceding the currently active one."""
        with self._lock:
            current = self.active_version(name)
            if current.version <= 1:
                raise ValueError(f"Model {name!r} has no earlier version.")
            return self.activate(name, current.version - 1)

    def unregister(self, name: str) -> None:
        """Drop a model and its whole version history."""
        with self._lock:
            self._versions.pop(name, None)
            self._active.pop(name, None)

    # -------------------------------------------------------------- queries
    def get(self, name: str) -> object:
        """The active model object for ``name``."""
        return self.active_version(name).model

    def active_version(self, name: str) -> ModelVersion:
        with self._lock:
            if name not in self._versions:
                raise KeyError(f"No model registered under {name!r}.")
            return self.get_version(name, self._active[name])

    def get_version(self, name: str, version: int) -> ModelVersion:
        with self._lock:
            history = self._versions.get(name)
            if not history:
                raise KeyError(f"No model registered under {name!r}.")
            if not 1 <= version <= len(history):
                raise KeyError(
                    f"Model {name!r} has versions 1..{len(history)}, "
                    f"not {version}."
                )
            return history[version - 1]

    def versions(self, name: str) -> list[ModelVersion]:
        with self._lock:
            return list(self._versions.get(name, []))

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._versions)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._versions

    # ---------------------------------------------------------- persistence
    def save_active(self, name: str, path: str | Path) -> str:
        """Write the active version of ``name`` to a model file."""
        from repro.persistence import save_model

        return save_model(self.get(name), path)

    def load(
        self,
        name: str,
        path: str | Path,
        metadata: dict[str, object] | None = None,
        activate: bool = True,
    ) -> ModelVersion:
        """Load a model file and register it as a new version of ``name``."""
        from repro.persistence import load_model

        model = load_model(path)
        meta = {"source_path": str(path), **(metadata or {})}
        return self.register(name, model, metadata=meta, activate=activate)
