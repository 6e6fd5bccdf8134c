"""The ``Stateful`` protocol: one seam for every layer's durable run state.

A resumed run must be **bit-identical** to an uninterrupted one
(CONTRACTS.md I1/I2 make that falsifiable), which is only possible if
every layer that holds mutable run state can hand it over and take it
back.  This module defines that seam:

* :class:`Stateful` — ``state_dict() -> dict`` / ``load_state_dict(payload)``.
  Every payload carries a versioned schema tag under ``"schema"``
  (``"<Name>/v<N>"``, built with :func:`schema_tag`), so a checkpoint
  written by one code revision fails loudly — not subtly — against an
  incompatible reader.
* :func:`check_schema` — the guard every ``load_state_dict`` runs first.
* :func:`collect_schemas` — walks a nested payload gathering every schema
  tag, so the checkpoint manifest can list all registrants
  (CONTRACTS.md I9: every registrant appears in the manifest).
* :func:`record_state` / :func:`record_from_state` — the payload codec of
  a *record* (a dataclass of run data: ``TrainingLog`` and the records it
  nests, in-flight ``ClientUpdate`` s), derived from the dataclass
  declaration so a field is checkpointed by being declared.

Payload conventions (what makes a ``state_dict`` checkpointable):

* JSON-serializable skeleton — dicts with ``str`` keys, lists, ``str`` /
  ``int`` / ``float`` / ``bool`` / ``None`` leaves — plus ``numpy``
  arrays anywhere a leaf is bulk data.  The checkpoint writer
  (:mod:`repro.fl.checkpoint`) splits arrays out losslessly; everything
  else round-trips through JSON, whose shortest-repr float encoding is
  exact, so bit-identity survives the disk.
* Scalars are native Python (``float(x)``, ``int(x)``) — never numpy
  scalars — and integer dict keys are stringified by the owner.
* Tuples come back as lists; a ``load_state_dict`` that cares about
  tuple-ness converts on the way in.
* Configuration (hyperparameters, policy knobs) is **not** payload: the
  restored object keeps its own construction-time config, and payloads
  carry only what training mutated.  Derived caches that a resumed run
  rebuilds deterministically may be omitted.
* A reader never defaults an absent key: a payload a current run can reach
  was written under the same run hash, hence with the same keys (``None``
  as a *value* may still mean "feature off").
* Records: the payload's keys are exactly the dataclass's field names.
  Scalar fields pass through untouched both ways — JSON round-trips them
  exactly, and coercing by annotation would turn an ``int`` held in a
  ``float`` field into ``1.0`` in the export.  Only containers are rebuilt
  from the declared type: ``tuple[X, ...]``, ``list[X]``, ``dict[int|str,
  X]`` (keys stringified out, restored in), ``X | None``, nested records,
  ``np.ndarray`` (copied out, ``asarray``'d in).  A payload that lacks a
  field or holds a key the constructor does not take (init-only keywords are
  taken: ``ClientUpdate``'s ``grad``) is refused before a constructor runs.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import types
import typing
from typing import Callable

import numpy as np

__all__ = [
    "Stateful",
    "schema_tag",
    "check_schema",
    "collect_schemas",
    "record_state",
    "record_from_state",
]


def schema_tag(name: str, version: int = 1) -> str:
    """The canonical schema tag: ``"<name>/v<version>"``."""
    return f"{name}/v{version}"


def check_schema(payload: object, expected: str) -> dict:
    """Validate a payload's schema tag; returns the payload for chaining."""
    if not isinstance(payload, dict):
        raise TypeError(
            f"state payload for {expected!r} must be a dict, "
            f"got {type(payload).__name__}"
        )
    got = payload.get("schema")
    if got != expected:
        raise ValueError(f"state schema mismatch: expected {expected!r}, got {got!r}")
    return payload


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


def _field_codec(tp) -> tuple[Callable, Callable]:
    """``(encode, decode)`` for one declared field type."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if tp in (int, float, bool, str):
        return _keep, _keep
    if tp is np.ndarray:
        return np.array, np.asarray
    if dataclasses.is_dataclass(tp):
        return record_state, functools.partial(record_from_state, tp)
    if origin in (typing.Union, types.UnionType) and len(args) == 2 and args[1] is type(None):
        enc, dec = _field_codec(args[0])
        return (_keep, _keep) if enc is _keep else (_optional(enc), _optional(dec))
    if origin is list or (origin is tuple and args[1:] == (Ellipsis,)):
        enc, dec = _field_codec(args[0])
        if enc is _keep:
            return list, origin
        return (lambda v: [enc(x) for x in v]), (lambda v: origin(dec(x) for x in v))
    if origin is dict and args[0] in (int, str):
        key, (enc, dec) = args[0], _field_codec(args[1])
        return (
            lambda v: {str(k): enc(x) for k, x in v.items()},
            lambda v: {key(k): dec(x) for k, x in v.items()},
        )
    raise TypeError(f"no checkpoint codec for a record field declared {tp!r}")


@functools.cache
def _record_plan(cls: type) -> tuple[tuple[str, ...], frozenset[str], frozenset[str], tuple]:
    """Field names in declaration order, the same as a key set, the keywords
    the constructor takes (fields plus init-only ones), and ``(name, encode,
    decode)`` for the fields that are not plain scalars.

    Resolved once per class: re-walking the annotations per record makes a
    654-arrival log cost ~80 ms to encode or decode instead of 1-2 ms.
    """
    hints = typing.get_type_hints(cls)
    names = tuple(f.name for f in dataclasses.fields(cls))
    codecs = ((name, *_field_codec(hints[name])) for name in names)
    accepted = frozenset(inspect.signature(cls).parameters)
    return names, frozenset(names), accepted, tuple(c for c in codecs if c[1] is not _keep)


def record_state(rec) -> dict:
    """Fresh Stateful payload of one record: field name -> encoded value."""
    names, _, _, coded = _record_plan(type(rec))
    payload = {name: getattr(rec, name) for name in names}
    for name, enc, _ in coded:
        payload[name] = enc(payload[name])
    return payload


def record_from_state(cls: type, payload: object):
    """Rebuild the exact ``cls`` record :func:`record_state` captured."""
    _, keys, accepted, coded = _record_plan(cls)
    found = payload.keys() if isinstance(payload, dict) else set()
    if not keys <= found <= accepted:
        raise ValueError(
            f"{cls.__name__} payload ({type(payload).__name__}): missing keys "
            f"{sorted(keys - found)}, unexpected keys {sorted(found - accepted)}"
        )
    fields = dict(payload)
    for name, _, dec in coded:
        fields[name] = dec(fields[name])
    return cls(**fields)


class Stateful:
    """Base protocol for objects whose run state survives a restart.

    Subclasses define both methods **in their own class body** (the
    repro-lint RL008 rule checks exactly that: an inherited default
    cannot capture state the subclass added) and set ``schema`` to their
    :func:`schema_tag`.  ``state_dict`` returns a fresh payload — no live
    references — and ``load_state_dict`` restores *exactly* the captured
    trajectory: after a restore, every future draw, cache hit, and
    version comparison behaves as if the run had never stopped.
    """

    schema: str = ""

    def state_dict(self) -> dict:
        raise NotImplementedError(
            f"{type(self).__name__} must implement state_dict()"
        )

    def load_state_dict(self, payload: dict) -> None:
        raise NotImplementedError(
            f"{type(self).__name__} must implement load_state_dict()"
        )
