"""Structural codec turning model object graphs into JSON-safe state trees.

The persistence layer serialises models by walking their object graphs: every
attribute of a registered class is encoded recursively into plain Python
containers that ``json`` can write.  Non-JSON values are wrapped in small
tagged dictionaries (``{"__repro__": <kind>, ...}``):

``map``
    Any ``dict`` -- encoded as a list of key/value pairs so non-string keys
    (feature indices, ``(feature, threshold)`` tuples, ...) survive.
``tuple`` / ``set`` / ``frozenset``
    The corresponding container with encoded items.
``ndarray`` / ``npscalar``
    Raw little/big-endian bytes (base64) plus dtype and shape, so weights and
    statistics round-trip bit-for-bit.
``rng``
    A :class:`numpy.random.Generator`, captured via its bit-generator state so
    reloaded models continue the exact same random stream.
``object``
    An instance of a class registered in :mod:`repro.persistence.registry`;
    its ``__dict__`` and ``__slots__`` attributes are encoded recursively.
``class``
    A registered class itself (e.g. an ensemble's ``base_estimator_factory``).
``ref``
    A back-reference to an object already encoded in this document; shared
    and cyclic references are preserved instead of being duplicated.

Anything else (open files, lambdas, arbitrary callables) raises
:class:`SerializationError` naming the offending attribute path.

Classes may declare a ``_repro_transient`` tuple of attribute names that are
pure caches: the encoder skips them and the decoder rebuilds them by calling
the instance's ``_init_transient()`` after all persisted attributes are set
(used by the counter-based streams, whose block caches are regenerable).
Registration rejects a class that declares the tuple without the hook, and
decoding rejects a hook that leaves one of the names unset (a typo in the
tuple would otherwise persist the cache it meant to exclude).
"""

from __future__ import annotations

import base64

import numpy as np

from repro.persistence.registry import registered_name, resolve

#: Tag key marking an encoded non-JSON value.
TAG = "__repro__"


class SerializationError(TypeError):
    """A value in the object graph cannot be serialised."""


def _slot_names(cls: type) -> list[str]:
    """All ``__slots__`` names declared along the MRO (dedup, in order)."""
    names: list[str] = []
    for klass in cls.__mro__:
        slots = klass.__dict__.get("__slots__", ())
        if isinstance(slots, str):
            slots = (slots,)
        for name in slots:
            if name not in ("__dict__", "__weakref__") and name not in names:
                names.append(name)
    return names


class Encoder:
    """One-shot encoder for a single object graph."""

    def __init__(self) -> None:
        self._memo: dict[int, int] = {}
        # Keep encoded objects alive so CPython cannot recycle their ids
        # while the memo is in use.
        self._keepalive: list[object] = []

    # ------------------------------------------------------------------ API
    def encode(self, obj: object, path: str = "$") -> object:
        if obj is None or isinstance(obj, (bool, int, str)):
            return obj
        if isinstance(obj, float):
            return obj
        if isinstance(obj, (np.generic,)):
            return self._encode_npscalar(obj)
        if isinstance(obj, np.ndarray):
            return self._encode_ndarray(obj, path)
        if isinstance(obj, (list,)):
            return [self.encode(item, f"{path}[{idx}]") for idx, item in enumerate(obj)]
        if isinstance(obj, tuple):
            return {
                TAG: "tuple",
                "items": [
                    self.encode(item, f"{path}[{idx}]") for idx, item in enumerate(obj)
                ],
            }
        if isinstance(obj, (set, frozenset)):
            kind = "frozenset" if isinstance(obj, frozenset) else "set"
            return {
                TAG: kind,
                "items": [self.encode(item, f"{path}{{}}") for item in obj],
            }
        if isinstance(obj, dict):
            return {
                TAG: "map",
                "items": [
                    [self.encode(key, f"{path}.key"), self.encode(value, f"{path}[{key!r}]")]
                    for key, value in obj.items()
                ],
            }
        if isinstance(obj, bytes):
            return {TAG: "bytes", "data": base64.b64encode(obj).decode("ascii")}
        if isinstance(obj, np.random.Generator):
            return self._encode_rng(obj)
        if isinstance(obj, type):
            return self._encode_class(obj, path)
        return self._encode_object(obj, path)

    # ------------------------------------------------------------- encoders
    def _encode_ndarray(self, array: np.ndarray, path: str) -> dict[str, object]:
        if array.dtype == object:
            raise SerializationError(
                f"Cannot serialise object-dtype array at {path}; "
                "convert it to a numeric or string dtype first."
            )
        contiguous = np.ascontiguousarray(array)
        return {
            TAG: "ndarray",
            "dtype": contiguous.dtype.str,
            "shape": list(contiguous.shape),
            "data": base64.b64encode(contiguous.tobytes()).decode("ascii"),
        }

    def _encode_npscalar(self, scalar: np.generic) -> dict[str, object]:
        return {
            TAG: "npscalar",
            "dtype": scalar.dtype.str,
            "data": base64.b64encode(scalar.tobytes()).decode("ascii"),
        }

    def _encode_rng(self, rng: np.random.Generator) -> dict[str, object]:
        ref = self._memo.get(id(rng))
        if ref is not None:
            return {TAG: "ref", "id": ref}
        ref = len(self._memo)
        self._memo[id(rng)] = ref
        self._keepalive.append(rng)
        state = rng.bit_generator.state
        return {TAG: "rng", "id": ref, "state": self.encode(state)}

    def _encode_class(self, cls: type, path: str) -> dict[str, object]:
        try:
            name = registered_name(cls)
        except KeyError:
            raise SerializationError(
                f"Cannot serialise class {cls.__module__}.{cls.__qualname__} at "
                f"{path}: it is not registered with repro.persistence.register()."
            ) from None
        return {TAG: "class", "class": name}

    def _encode_object(self, obj: object, path: str) -> dict[str, object]:
        ref = self._memo.get(id(obj))
        if ref is not None:
            return {TAG: "ref", "id": ref}
        try:
            name = registered_name(type(obj))
        except KeyError:
            raise SerializationError(
                f"Cannot serialise value of type "
                f"{type(obj).__module__}.{type(obj).__qualname__} at {path}: the "
                "class is not registered with repro.persistence.register(). "
                "Custom components (e.g. estimator factories given as lambdas) "
                "must be registered classes to be persisted."
            ) from None
        ref = len(self._memo)
        self._memo[id(obj)] = ref
        self._keepalive.append(obj)
        transient = frozenset(getattr(type(obj), "_repro_transient", ()))
        state: dict[str, object] = {}
        if hasattr(obj, "__dict__"):
            for attr, value in vars(obj).items():
                if attr in transient:
                    continue
                state[attr] = self.encode(value, f"{path}.{attr}")
        for attr in _slot_names(type(obj)):
            if attr not in transient and hasattr(obj, attr):
                state[attr] = self.encode(getattr(obj, attr), f"{path}.{attr}")
        return {TAG: "object", "class": name, "id": ref, "state": state}


class Decoder:
    """One-shot decoder mirroring :class:`Encoder`."""

    def __init__(self) -> None:
        self._memo: dict[int, object] = {}

    def decode(self, data: object) -> object:
        if data is None or isinstance(data, (bool, int, float, str)):
            return data
        if isinstance(data, list):
            return [self.decode(item) for item in data]
        if not isinstance(data, dict):
            raise SerializationError(f"Cannot decode value of type {type(data)!r}.")
        kind = data.get(TAG)
        if kind is None:
            # Plain string-keyed dicts only occur inside our own tagged
            # containers; a bare one means the document is corrupt.
            raise SerializationError("Untagged mapping in serialized state.")
        decoder = getattr(self, f"_decode_{kind}", None)
        if decoder is None:
            raise SerializationError(f"Unknown serialized kind {kind!r}.")
        return decoder(data)

    # ------------------------------------------------------------- decoders
    def _decode_map(self, data: dict[str, object]) -> dict[object, object]:
        return {self.decode(key): self.decode(value) for key, value in data["items"]}

    def _decode_tuple(self, data: dict[str, object]) -> tuple[object, ...]:
        return tuple(self.decode(item) for item in data["items"])

    def _decode_set(self, data: dict[str, object]) -> set[object]:
        return {self.decode(item) for item in data["items"]}

    def _decode_frozenset(self, data: dict[str, object]) -> frozenset[object]:
        return frozenset(self.decode(item) for item in data["items"])

    def _decode_bytes(self, data: dict[str, object]) -> bytes:
        return base64.b64decode(data["data"])

    def _decode_ndarray(self, data: dict[str, object]) -> np.ndarray:
        raw = base64.b64decode(data["data"])
        array = np.frombuffer(raw, dtype=np.dtype(data["dtype"]))
        return array.reshape(data["shape"]).copy()

    def _decode_npscalar(self, data: dict[str, object]) -> np.generic:
        raw = base64.b64decode(data["data"])
        return np.frombuffer(raw, dtype=np.dtype(data["dtype"]))[0]

    def _decode_rng(self, data: dict[str, object]) -> np.random.Generator:
        state = self.decode(data["state"])
        bit_generator_cls = getattr(np.random, state["bit_generator"])
        bit_generator = bit_generator_cls()
        bit_generator.state = state
        rng = np.random.Generator(bit_generator)
        self._memo[data["id"]] = rng
        return rng

    def _decode_class(self, data: dict[str, object]) -> type:
        return resolve(data["class"])

    def _decode_ref(self, data: dict[str, object]) -> object:
        try:
            return self._memo[data["id"]]
        except KeyError:
            raise SerializationError(
                f"Dangling reference #{data['id']} in serialized state."
            ) from None

    def _decode_object(self, data: dict[str, object]) -> object:
        cls = resolve(data["class"])
        obj = cls.__new__(cls)
        # Memoise before decoding attributes so cyclic references resolve.
        self._memo[data["id"]] = obj
        for attr, value in data["state"].items():
            setattr(obj, attr, self.decode(value))
        # Classes declaring transient attributes (pure caches skipped by the
        # encoder) rebuild them here so the decoded object is fully usable.
        transient = getattr(cls, "_repro_transient", ())
        if transient:
            obj._init_transient()
            unset = [attr for attr in transient if not hasattr(obj, attr)]
            if unset:
                raise SerializationError(
                    f"{cls.__qualname__}._init_transient() left transient "
                    f"attribute(s) {unset} unset; every name in "
                    "_repro_transient must be rebuilt (a typo in the tuple?)."
                )
        return obj


def encode(obj: object) -> object:
    """Encode an object graph into a JSON-safe state tree."""
    return Encoder().encode(obj)


def decode(data: object) -> object:
    """Rebuild an object graph from a state tree produced by :func:`encode`."""
    return Decoder().decode(data)
