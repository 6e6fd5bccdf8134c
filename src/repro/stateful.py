"""The ``Stateful`` protocol: one seam for every layer's durable run state.

A resumed run must be **bit-identical** to an uninterrupted one
(CONTRACTS.md I1/I2 make that falsifiable), which is only possible if
every layer that holds mutable run state can hand it over and take it
back.  This module defines that seam:

* :class:`Stateful` — ``state_dict() -> dict`` / ``load_state_dict(payload)``,
  both derived from the class's ``state_fields`` declaration.  Every
  payload carries a versioned schema tag under ``"schema"``
  (``"<Name>/v<N>"``, :func:`schema_tag`): the class's own name at ``v1``
  unless it sets ``schema`` (a new layout takes the next version, which
  subclasses inherit), so a checkpoint written by one code revision fails
  loudly — not subtly — against an incompatible reader.
* :func:`collect_schemas` — every tag in a nested payload, for the
  checkpoint manifest (CONTRACTS.md I9: every registrant appears in it).
* :func:`record_state` / :func:`record_from_state` — the codec of a
  *record* (a dataclass of run data: ``TrainingLog``, its records,
  in-flight ``ClientUpdate`` s), derived from its field types.

A component declares its payload once, in its own class body, as an
ordered table ``payload key -> (attribute, kind)``; declaration order is
payload key order, and the attribute may be a property over live state::

    state_fields = {
        "rounds_since_transform": ("_rounds_since_transform", int),
        "doc": ("doc", DoCTracker),
    }

The kinds, shared with record fields:

* ``int`` / ``float`` / ``bool`` / ``str`` are written as they are and read
  back checked, never coerced (an int held in a float field stays an int,
  so exports keep their bytes): a bool is no int, a float is an int or a
  float but no bool.  A ``float`` is a measurement (a loss, a norm) and
  round-trips NaN and Inf, which a diverging or poisoned run reaches; a
  ``Finite`` (a clock time, a pacing estimate) refuses them.  A
  component's ints are counters, non-negative; a record's may be negative.
* ``np.ndarray``: a copy out, a private copy in.  Array values may be
  non-finite (a poisoned in-flight update carries NaN or Inf until the
  quarantine gate drops it).
* ``list[X]``, ``tuple[X, ...]``, ``dict[int | str, X]`` (keys stringified
  out), ``X | None`` and records are rebuilt; a ``CellModel`` is rebuilt
  from its own spec.
* A ``Stateful`` or a :class:`LiveModel` is *live*: its payload carries no
  configuration, so it loads in place into the object the attribute
  holds; a model payload's spec must be the live model's.  ``S | None``
  must be present exactly when the live one is; a ``dict[str, S]`` that
  is a ``defaultdict`` is rebuilt by its factory, any other must hold
  exactly the saved keys.

The derived reader is strict: exactly ``schema`` plus the declared keys,
and a wrong payload is a ``ValueError`` naming the tag and the key (nested
readers prefix theirs, so the message reads as a path).  Every value is
checked before a live component loads or an attribute is set.  A class
whose caches must be rebuilt after a load overrides ``load_state_dict`` as
``super().load_state_dict(payload)`` followed by the rebuild, reading no
payload key.  The few payloads that are not a fixed set of named fields
(RNG state, columnar tables, ring buffers) keep strict hand-written
readers, allowlisted by ``test_a_component_payload_is_declared_once``.

Payloads are a JSON skeleton plus ``numpy`` arrays (JSON's shortest-repr
floats round-trip exactly); configuration is not payload, derived caches
are omitted, and a reader never defaults an absent key.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import functools
import inspect
import math
import operator
import types
import typing
from typing import Callable

import numpy as np

__all__ = [
    "Stateful",
    "Finite",
    "LiveModel",
    "schema_tag",
    "check_schema",
    "naming",
    "checked",
    "checked_array",
    "load_optional",
    "collect_schemas",
    "record_state",
    "record_from_state",
]


def schema_tag(name: str, version: int = 1) -> str:
    """The canonical schema tag: ``"<name>/v<version>"``."""
    return f"{name}/v{version}"


def check_schema(payload: object, expected: str, keys: typing.Iterable[str] | None = None) -> dict:
    """Validate a payload's schema tag and, given ``keys``, that its key set
    is exactly ``schema`` plus ``keys``; returns the payload for chaining."""
    if not isinstance(payload, dict):
        raise ValueError(
            f"state payload for {expected!r} must be a dict, got {type(payload).__name__}"
        )
    got = payload.get("schema")
    if got != expected:
        raise ValueError(f"state schema mismatch: expected {expected!r}, got {got!r}")
    if keys is not None:
        want = {"schema", *keys}
        if payload.keys() != want:
            raise ValueError(
                f"{expected}: missing keys {sorted(want - payload.keys())}, "
                f"unexpected keys {sorted(payload.keys() - want)}"
            )
    return payload


@contextlib.contextmanager
def naming(schema: str, key: str):
    """Re-raise a ``ValueError`` from reading ``key`` prefixed with the tag
    and the key, so a nested refusal reads as a path."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{schema} {key}: {exc}") from exc


def checked(schema: str, payload: dict, key: str, kind) -> object:
    """``payload[key]`` checked and rebuilt as a declared component field of
    ``kind`` would be: the field check of a hand-written reader."""
    with naming(schema, key):
        return _field_codec(kind, counts=True)[1](payload[key])


def checked_array(schema: str, payload: dict, key: str, dtype: type, shape: tuple) -> np.ndarray:
    """``payload[key]``, an array of exactly ``dtype`` and ``shape``: the
    column check of a hand-written columnar reader."""
    value = payload[key]
    ok = type(value) is np.ndarray
    if not (ok and value.dtype == dtype and value.shape == shape):
        got = f"{value.dtype} {value.shape}" if ok else type(value).__name__
        want = f"a {np.dtype(dtype)} array of shape {shape}"
        raise ValueError(f"{schema} {key}: must be {want}, got {got}")
    return value


def collect_schemas(payload: object) -> list[str]:
    """Every ``"schema"`` tag in a nested payload, sorted and deduplicated.

    The checkpoint manifest records this list so "every Stateful
    registrant appears in the manifest" is checkable from the file alone.
    """
    found: set[str] = set()

    def walk(node: object) -> None:
        if isinstance(node, dict):
            tag = node.get("schema")
            if isinstance(tag, str):
                found.add(tag)
            for v in node.values():
                walk(v)
        elif isinstance(node, (list, tuple)):
            for v in node:
                walk(v)

    walk(payload)
    return sorted(found)


def _keep(value):
    return value


def _optional(fn: Callable) -> Callable:
    return lambda value: None if value is None else fn(value)


def _kind(name: str, test: Callable[[object], bool]) -> Callable:
    """A decoder that returns a value passing ``test`` untouched."""

    def check(value):
        if not test(value):
            raise ValueError(f"{value!r} is not {name}")
        return value

    return check


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_int(value) or isinstance(value, float)


#: The kind of a float a run keeps finite (a clock time, a pacing estimate).
Finite = typing.Annotated[float, "finite"]


class LiveModel:
    """The kind of a ``CellModel`` loaded in place: its identity outlives a resume."""


_SCALARS = {
    int: _kind("an int", _is_int),
    float: _kind("a number", _is_number),
    Finite: _kind("a finite number", lambda v: _is_number(v) and -math.inf < v < math.inf),
    bool: _kind("a bool", lambda v: isinstance(v, bool)),
    str: _kind("a str", lambda v: isinstance(v, str)),
}
_COUNT = _kind("a non-negative int", lambda v: _is_int(v) and v >= 0)


def _array(value) -> np.ndarray:
    if type(value) is not np.ndarray:
        raise ValueError(f"{type(value).__name__} is not an array")
    return np.array(value)


def _container(kind: type) -> Callable:
    return _kind(f"a {kind.__name__}", lambda v: type(v) is kind)


def _int_key(key: str) -> int:
    """An int dict key as the encoder stringified it: ``str(int)``, exactly."""
    try:
        value = int(key)
    except (TypeError, ValueError):
        value = None
    if type(key) is not str or str(value) != key:
        raise ValueError(f"key {key!r} is not an int")
    return value


def _field_codec(tp, counts: bool = False) -> tuple[Callable, Callable]:
    """``(encode, decode)`` for one declared field type: ``encode`` makes the
    payload value, ``decode`` checks one — kinds exactly, nothing coerced —
    and rebuilds it.  ``counts``: an ``int`` must be non-negative."""
    # Imported here: repro.nn's own Stateful classes import this module.
    from .nn.model import CellModel
    from .nn.serialization import model_from_state, model_state_dict

    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if tp in _SCALARS:
        return _keep, _COUNT if counts and tp is int else _SCALARS[tp]
    if tp is np.ndarray:
        return np.array, _array
    if tp is CellModel:
        return model_state_dict, model_from_state
    if dataclasses.is_dataclass(tp):
        return record_state, functools.partial(record_from_state, tp)
    if origin in (typing.Union, types.UnionType) and len(args) == 2 and args[1] is type(None):
        enc, dec = _field_codec(args[0], counts)
        return (_keep if enc is _keep else _optional(enc)), _optional(dec)
    if origin is list or (origin is tuple and args[1:] == (Ellipsis,)):
        enc, dec = _field_codec(args[0], counts)
        is_list = _container(list)
        encode = list if enc is _keep else (lambda v: [enc(x) for x in v])
        return encode, (lambda v: origin(dec(x) for x in is_list(v)))
    if origin is dict and args[0] in (int, str):
        key = _int_key if args[0] is int else _SCALARS[str]
        (enc, dec), is_dict = _field_codec(args[1], counts), _container(dict)
        return (
            lambda v: {str(k): enc(x) for k, x in v.items()},
            lambda v: {key(k): dec(x) for k, x in is_dict(v).items()},
        )
    raise TypeError(f"no checkpoint codec for a field declared {tp!r}")


@functools.cache
def _record_plan(cls: type) -> tuple[tuple[str, ...], frozenset[str], frozenset[str], tuple, tuple]:
    """Field names in declaration order, the same as a key set, the keywords
    the constructor takes (fields plus init-only ones), ``(name, encode)``
    for the fields that are not written as they are, and ``(name, decode)``
    for every field.

    Resolved once per class: re-walking the annotations per record makes a
    654-arrival log cost ~80 ms to encode or decode instead of 1-2 ms.
    """
    hints = typing.get_type_hints(cls, include_extras=True)
    names = tuple(f.name for f in dataclasses.fields(cls))
    codecs = [(name, *_field_codec(hints[name])) for name in names]
    accepted = frozenset(inspect.signature(cls).parameters)
    encoders = tuple((name, enc) for name, enc, _ in codecs if enc is not _keep)
    return names, frozenset(names), accepted, encoders, tuple((n, d) for n, _, d in codecs)


def record_state(rec) -> dict:
    """Fresh Stateful payload of one record: field name -> encoded value."""
    names, _, _, encoders, _ = _record_plan(type(rec))
    payload = {name: getattr(rec, name) for name in names}
    for name, enc in encoders:
        payload[name] = enc(payload[name])
    return payload


def record_from_state(cls: type, payload: object):
    """Rebuild the exact ``cls`` record :func:`record_state` captured."""
    _, keys, accepted, _, decoders = _record_plan(cls)
    found = payload.keys() if isinstance(payload, dict) else set()
    if not keys <= found <= accepted:
        raise ValueError(
            f"{cls.__name__} payload ({type(payload).__name__}): missing keys "
            f"{sorted(keys - found)}, unexpected keys {sorted(found - accepted)}"
        )
    fields = dict(payload)
    for name, dec in decoders:
        with naming(cls.__name__, name):
            fields[name] = dec(fields[name])
    return cls(**fields)


def _is_stateful(tp) -> bool:
    return isinstance(tp, type) and issubclass(tp, Stateful)


def load_optional(live: Stateful | None, value) -> None:
    """Load ``value`` into ``live``; a payload must be present (not
    ``None``) exactly when the live component is."""
    if (live is None) != (value is None):
        raise ValueError(
            f"the payload {'lacks' if value is None else 'carries'} the state of a "
            f"component this run was built {'with' if live is not None else 'without'}"
        )
    if live is not None:
        live.load_state_dict(value)


def _load_each(live: dict, value, load_into: Callable) -> None:
    """Load a dict of live entries: a ``defaultdict`` is cleared and each
    saved entry loaded into the fresh one its factory builds; any other
    live dict must hold exactly the saved keys, each loaded in place."""
    if type(value) is not dict:
        raise ValueError(f"{type(value).__name__} is not a dict")
    if isinstance(live, collections.defaultdict):
        live.clear()
    elif value.keys() != live.keys():
        raise ValueError(f"entries {sorted(value)} saved, but the live ones are {sorted(live)}")
    for key, state in value.items():
        load_into(live[key], state)


def _live_codec(tp) -> tuple[Callable, Callable] | None:
    """``(encode, load_into)`` when ``tp`` is a live kind, else ``None``."""
    from .nn.serialization import load_live_model, model_state_dict

    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if tp is LiveModel:
        return model_state_dict, load_live_model
    if _is_stateful(tp):
        return operator.methodcaller("state_dict"), lambda live, value: live.load_state_dict(value)
    if origin in (typing.Union, types.UnionType) and args[1:] == (type(None),):
        if _is_stateful(args[0]):
            return _optional(_live_codec(args[0])[0]), load_optional
    if origin is dict and args[0] is str and (each := _live_codec(args[1])):
        enc, load_into = each
        return (lambda live: {k: enc(x) for k, x in live.items()}), (
            lambda live, value: _load_each(live, value, load_into)
        )
    return None


@functools.cache
def _component_plan(cls: type) -> tuple:
    """``(key, attribute, encode, decode, live)`` per declared field, in
    declaration order.  Resolved once per class, like a record's plan."""
    plan = []
    for key, (attr, kind) in cls.state_fields.items():
        live = _live_codec(kind)
        enc, dec = live or _field_codec(kind, counts=True)
        plan.append((key, attr, enc, dec, live is not None))
    return tuple(plan)


class Stateful:
    """Base protocol for objects whose run state survives a restart.

    A subclass declares ``state_fields`` in its own class body (the
    repro-lint RL008 rule checks exactly that: an inherited declaration
    cannot capture state the subclass added); an empty table documents
    that the class's state is derived.  ``state_dict`` returns a fresh
    payload — no live references, but for ``TransportCodec``'s residual
    tables, which a checkpoint writes before the next encode — and
    ``load_state_dict`` restores
    *exactly* the captured trajectory: after a restore, every future draw
    and cache hit behaves as if the run had never stopped.
    """

    schema: str = ""
    #: payload key -> (attribute, kind), in payload order (module docstring).
    state_fields: dict[str, tuple[str, object]] = {}
    _schema_set = False  # a class up the chain set ``schema`` itself

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "schema" in cls.__dict__:
            cls._schema_set = True
        elif not cls._schema_set:
            cls.schema = schema_tag(cls.__name__)

    def state_dict(self) -> dict:
        payload = {"schema": self.schema}
        for key, attr, enc, _, _ in _component_plan(type(self)):
            payload[key] = enc(getattr(self, attr))
        return payload

    def load_state_dict(self, payload: dict) -> None:
        check_schema(payload, self.schema, self.state_fields)
        plan, values = _component_plan(type(self)), {}
        for key, _, _, dec, live in plan:  # checked before anything loads or is set
            if not live:
                with naming(self.schema, key):
                    values[key] = dec(payload[key])
        for key, attr, _, load_into, live in plan:
            with naming(self.schema, key):
                if live:
                    load_into(getattr(self, attr), payload[key])
                else:
                    setattr(self, attr, values[key])
