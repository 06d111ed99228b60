"""Shared persistence hooks for model-like base classes.

Mixed into :class:`repro.base.StreamClassifier`,
:class:`repro.drift.base.BaseDriftDetector`, the streams and the evaluation
records.  Every subclass registers itself with the codec registry when it
is defined, so a persistable class cannot exist unregistered.  The
serialization imports inside the methods keep the import graph acyclic (the
model modules themselves import those bases).
"""

from __future__ import annotations

import os
from typing import Any, TypeVar

from repro.persistence.registry import register

_P = TypeVar("_P", bound="PersistableStateMixin")


class PersistableStateMixin:
    """``to_state`` / ``from_state`` / ``save`` backed by :mod:`repro.persistence`."""

    def __init_subclass__(cls, **kwargs: Any) -> None:
        """Register the subclass under its ``__qualname__``.

        Classes defined inside a function are skipped: their qualname names
        no stable location, and a second call would redefine it.  Such a
        class opts in with an explicit :func:`~repro.persistence.register`.
        """
        super().__init_subclass__(**kwargs)
        if "<locals>" not in cls.__qualname__:
            register(cls)

    def to_state(self) -> dict[str, object]:
        """Serialise this object into a versioned, JSON-safe state dict.

        The state captures the full object graph -- structure, weights,
        accumulated statistics and random-generator state -- so
        :meth:`from_state` restores an object with identical behaviour, both
        for prediction/detection and for future updates.
        """
        from repro.persistence.serialize import to_state

        return to_state(self)

    @classmethod
    def from_state(cls: type[_P], state: dict[str, object]) -> _P:
        """Rebuild an object from a state dict produced by :meth:`to_state`."""
        from repro.persistence.serialize import from_state

        obj = from_state(state)
        if not isinstance(obj, cls):
            raise TypeError(
                f"State holds a {type(obj).__name__}, not a {cls.__name__}."
            )
        return obj

    def save(self, path: str | os.PathLike[str]) -> str:
        """Write this object to ``path`` (see :func:`repro.persistence.save_model`)."""
        from repro.persistence.serialize import save_model

        return save_model(self, path)
