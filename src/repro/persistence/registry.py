"""Registry mapping serialized class names to classes.

Serialized state never stores import paths or pickles code: every class that
may appear in a model file is registered under a stable name, and it is
registered where it is defined.  Subclasses of
:class:`~repro.persistence.mixin.PersistableStateMixin` register themselves
under their ``__qualname__``; any other class opts in with the
:func:`register` decorator.  Downstream code does the same for its own
components.  Importing :mod:`repro.persistence` imports the :mod:`repro`
package, and with it every persistable class shipped there.
"""

from __future__ import annotations

from typing import Callable, TypeVar, overload

_T = TypeVar("_T", bound=type)

_CLASSES: dict[str, type] = {}
_NAMES: dict[type, str] = {}


@overload
def register(cls: _T, *, name: str | None = None) -> _T: ...


@overload
def register(cls: None = None, *, name: str | None = None) -> Callable[[_T], _T]: ...


def register(
    cls: _T | None = None, *, name: str | None = None
) -> _T | Callable[[_T], _T]:
    """Register ``cls`` under ``name`` (default: its ``__qualname__``).

    Usable directly (``register(MyClass)``) or as a decorator
    (``@register`` / ``@register(name="alias")``).  Re-registering the same
    class under the same name is a no-op; name collisions raise
    ``ValueError``.  A class declaring ``_repro_transient`` caches must
    define or inherit ``_init_transient()`` to rebuild them on load, or
    registration raises ``TypeError``.
    """

    def _register(klass: _T) -> _T:
        if getattr(klass, "_repro_transient", ()) and not hasattr(
            klass, "_init_transient"
        ):
            raise TypeError(
                f"{klass.__qualname__} declares _repro_transient but no "
                "_init_transient() to rebuild those attributes on load."
            )
        key = name or klass.__qualname__
        existing = _CLASSES.get(key)
        if existing is not None and existing is not klass:
            raise ValueError(
                f"Serialization name {key!r} is already taken by "
                f"{existing.__module__}.{existing.__qualname__}."
            )
        _CLASSES[key] = klass
        _NAMES.setdefault(klass, key)
        return klass

    if cls is None:
        return _register
    return _register(cls)


def registered_name(cls: type) -> str:
    """Stable serialization name of ``cls`` (raises ``KeyError`` if absent)."""
    return _NAMES[cls]


def resolve(name: str) -> type:
    """Class registered under ``name``."""
    try:
        return _CLASSES[name]
    except KeyError:
        raise KeyError(
            f"Unknown serialized class {name!r}. If the model file uses a "
            "custom component, register its class with "
            "repro.persistence.register() before loading."
        ) from None


def registered_classes() -> dict[str, type]:
    """Snapshot of the current name -> class mapping."""
    return dict(_CLASSES)
