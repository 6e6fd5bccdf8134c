"""Model checkpointing: save/load CellModels with full lineage metadata.

A saved model is one payload file of :mod:`repro.container` holding
:func:`model_state_dict`: a JSON spec of the architecture (cell types,
shapes, lineage ids, transform history) and every parameter and state
tensor in one arena per dtype.  ``load_model``
reconstructs the exact architecture — including widened widths and
inserted identity cells — and restores the weights, so a FedTrans model
suite can be persisted mid-run and resumed or deployed later.

Dtype: tensors are stored at the run's compute dtype; loading rebuilds the
model at the *current* process-wide dtype (:mod:`repro.nn.compute`) and
writes the stored values into it, casting on assignment.  Reloading under
the dtype the checkpoint was saved at is lossless; crossing dtypes rounds
(float64 -> float32) or merely widens (float32 -> float64) the weights.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ..container import read_payload, write_payload
from .cells import CELL_TYPES, Cell
from .model import CellModel, TransformRecord

__all__ = [
    "save_model",
    "load_model",
    "model_spec",
    "model_from_spec",
    "model_state_dict",
    "load_model_state",
    "load_live_model",
    "model_from_state",
]


_NONE = type(None)
#: The fields of a model spec, of one of its history entries, and the
#: lineage fields every cell spec holds before its class's ``ctor_args``
#: record — each with the types it may hold (exactly: a bool is no int).
_MODEL_KEYS = dict(
    format=int, model_id=str, parent_id=(str, _NONE), birth_round=int,
    input_shape=list, num_classes=int, cells=list, history=list,
)
_HISTORY_KEYS = dict(op=str, cell_id=str, round=int, detail=dict)
_LINEAGE_KEYS = dict(
    cell_id=str, origin=str, widen_count=int, last_op=(str, _NONE), transformable=bool
)
_CTOR_TYPES = (int, bool, str, _NONE)  # widths, kernel sizes, flags, names
#: The keys of a :func:`model_state_dict` payload.
_STATE_KEYS = {"spec", "params", "state"}


def _check(where: str, record: object, fields: dict) -> None:
    """``record`` is a dict of exactly ``fields``' keys and value types."""
    keys = record.keys() if type(record) is dict else set()
    if keys != fields.keys():
        raise ValueError(
            f"{where}: missing keys {sorted(fields.keys() - keys)}, "
            f"unexpected keys {sorted(keys - fields.keys())}"
        )
    for key, types in fields.items():
        if type(record[key]) not in (types if type(types) is tuple else (types,)):
            raise ValueError(f"{where}: {key} cannot be {record[key]!r}")


def _cell_spec(cell: Cell) -> dict:
    """JSON-serializable architecture description of one cell."""
    name = type(cell).__name__
    if CELL_TYPES.get(name) is not type(cell):
        raise TypeError(f"cannot serialize cell type {name}")
    return {
        "type": name,
        **{key: getattr(cell, key) for key in _LINEAGE_KEYS},
        **{key: read(cell) for key, read in cell.ctor_args.items()},
    }


def _cell_from_spec(spec: object) -> Cell:
    """Rebuild a cell (random weights; caller restores the real ones).

    Specs arrive from checkpoint payloads and snapshot headers: keys and
    field types are checked *before* any reaches a constructor's keywords,
    and the built cell must describe itself with exactly the spec's values.
    """
    kind = spec.get("type") if type(spec) is dict else None
    cls = CELL_TYPES.get(kind) if type(kind) is str else None
    if cls is None:
        raise ValueError(f"unknown cell type {kind!r} in checkpoint")
    ctor_types = dict.fromkeys(cls.ctor_args, _CTOR_TYPES)
    _check(f"{kind} spec", spec, {"type": str, **_LINEAGE_KEYS, **ctor_types})
    if not spec["cell_id"]:  # the constructor would mint a fresh id
        raise ValueError(f"{kind} spec: cell_id cannot be ''")
    args = {key: spec[key] for key in cls.ctor_args}
    where = f"{kind} {spec['cell_id']!r}"
    try:  # cell_id goes through the constructor so no fresh id is minted
        cell = cls(rng=np.random.default_rng(0), cell_id=spec["cell_id"], **args)
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise ValueError(f"{where} cannot be built: {exc}") from exc
    built = {key: read(cell) for key, read in cls.ctor_args.items()}
    if [(type(v), v) for v in built.values()] != [(type(v), v) for v in args.values()]:
        raise ValueError(f"{where}: {args} builds a cell of {built}")
    for key in _LINEAGE_KEYS:
        setattr(cell, key, spec[key])
    return cell


def model_spec(model: CellModel) -> dict:
    """Architecture + lineage of a model as a JSON-serializable dict."""
    return {
        "format": 1,
        "model_id": model.model_id,
        "parent_id": model.parent_id,
        "birth_round": model.birth_round,
        "input_shape": list(model.input_shape),
        "num_classes": model.num_classes,
        "cells": [_cell_spec(c) for c in model.cells],
        "history": [
            {"op": h.op, "cell_id": h.cell_id, "round": h.round, "detail": h.detail}
            for h in model.history
        ],
    }


def model_from_spec(spec: dict) -> CellModel:
    """Rebuild the architecture described by :func:`model_spec`.  A key set
    other than the spec's own, a wrongly typed field, or a cell (named) or
    chain that cannot be built is a ``ValueError``."""
    _check("model spec", spec, _MODEL_KEYS)
    if spec["format"] != 1:
        raise ValueError(f"unsupported checkpoint format {spec['format']!r}")
    if not spec["model_id"]:  # the constructor would mint a fresh id
        raise ValueError("model spec: model_id cannot be ''")
    if any(type(d) is not int for d in spec["input_shape"]):
        raise ValueError(f"model spec: input_shape cannot be {spec['input_shape']!r}")
    for h in spec["history"]:
        _check("model spec history entry", h, _HISTORY_KEYS)
    cells = [_cell_from_spec(c) for c in spec["cells"]]
    try:
        model = CellModel(
            cells,
            tuple(spec["input_shape"]),
            spec["num_classes"],
            model_id=spec["model_id"],
            parent_id=spec["parent_id"],
            birth_round=spec["birth_round"],
        )
    except (TypeError, ArithmeticError) as exc:  # a None or zero stride, say
        raise ValueError(f"model {spec['model_id']!r} cannot be built: {exc}") from exc
    model.history = [
        TransformRecord(h["op"], h["cell_id"], h["round"], h["detail"])
        for h in spec["history"]
    ]
    return model


def save_model(model: CellModel, path: str | Path) -> None:
    """Write the model (architecture + weights + BN state) to ``path``.

    The write is crash-consistent: bytes land in a same-directory temp
    file and are renamed over ``path`` only once durable, so a crash
    mid-save never leaves a torn file where a good one used to be.
    """
    write_payload(path, model_state_dict(model))


def load_model(path: str | Path) -> CellModel:
    """Reconstruct a model saved by :func:`save_model`; a file that is not
    one is a ``ValueError`` naming it."""
    payload = read_payload(path)
    try:
        return model_from_state(payload)
    except (KeyError, TypeError, AttributeError, OverflowError, ValueError) as exc:
        raise ValueError(f"{path} is not a saved model: {type(exc).__name__}: {exc}") from exc


def _check_keys(where: str, payload: object) -> None:
    if type(payload) is not dict or payload.keys() != _STATE_KEYS:
        got = sorted(payload) if type(payload) is dict else type(payload).__name__
        raise ValueError(f"{where}: keys {got} are not {sorted(_STATE_KEYS)}")


def model_state_dict(model: CellModel) -> dict:
    """Stateful payload of one model (and what :func:`save_model` writes):
    spec + tensors."""
    return {
        "spec": model_spec(model),
        "params": {k: v.copy() for k, v in model.params().items()},
        "state": {k: v.copy() for k, v in model.state().items()},
    }


def load_model_state(model: CellModel, payload: dict) -> None:
    """Restore a :func:`model_state_dict` payload into a live model of the
    same architecture: exactly its tensor keys and shapes, parameters and
    state both, each a real-floating ``np.ndarray``, else a ``ValueError``
    naming the model.  Every tensor is checked before any is written, so a
    refused payload leaves the model's bytes as they were."""
    _check_keys(f"model {model.model_id}", payload)
    trees = {"param": payload["params"], "state": payload["state"]}
    for scope, tree in trees.items():
        if type(tree) is not dict:
            raise ValueError(f"model {model.model_id}: {scope} tensors are not a dict")
        for key, value in tree.items():
            if type(value) is not np.ndarray or value.dtype.kind != "f":
                what = value.dtype if type(value) is np.ndarray else type(value).__name__
                raise ValueError(
                    f"model {model.model_id}: tensor {key} ({what}) is not a real-floating array"
                )
    try:
        model.set_tensors(**trees)
    except (KeyError, ValueError) as exc:
        raise ValueError(f"model {model.model_id}: checkpoint tensors do not fit: {exc}") from exc


def _spec_text(spec: object) -> str | None:
    """``spec`` as canonical JSON (a bool is no int), ``None`` when it is no
    JSON tree."""
    try:
        return json.dumps(spec, sort_keys=True)
    except (TypeError, ValueError):
        return None


def load_live_model(model: CellModel, payload: dict) -> None:
    """:func:`load_model_state` into a model that outlives the load (a
    strategy's suite, a baseline's global model), whose spec the payload's
    must equal: its architecture, lineage and history are configuration,
    not state, so a payload of another is a ``ValueError`` naming the spec."""
    _check_keys(f"model {model.model_id}", payload)
    if _spec_text(payload["spec"]) != _spec_text(model_spec(model)):
        raise ValueError(f"model {model.model_id}: the checkpoint's spec is not the live model's")
    load_model_state(model, payload)


def model_from_state(payload: dict) -> CellModel:
    """Rebuild the exact model :func:`model_state_dict` captured; a payload
    it could not have written is a ``ValueError``."""
    _check_keys("model payload", payload)
    model = model_from_spec(payload["spec"])
    load_model_state(model, payload)
    return model
