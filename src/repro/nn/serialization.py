"""Model checkpointing: save/load CellModels with full lineage metadata.

A checkpoint is a single ``.npz`` file holding every parameter and state
tensor plus a JSON header describing the architecture (cell types, shapes,
lineage ids, transform history).  ``load_model`` reconstructs the exact
architecture — including widened widths and inserted identity cells — and
restores the weights, so a FedTrans model suite can be persisted mid-run
and resumed or deployed later.

Dtype: tensors are stored at the run's compute dtype; loading rebuilds the
model at the *current* process-wide dtype (:mod:`repro.nn.compute`) and
writes the stored values into it, casting on assignment.  Reloading under
the dtype the checkpoint was saved at is lossless; crossing dtypes rounds
(float64 -> float32) or merely widens (float32 -> float64) the weights.
"""

from __future__ import annotations

import io
import json
from pathlib import Path

import numpy as np

from ..atomicio import atomic_write
from .cells import CELL_TYPES, Cell
from .model import CellModel, TransformRecord

__all__ = [
    "save_model",
    "load_model",
    "model_spec",
    "model_from_spec",
    "model_state_dict",
    "load_model_state",
    "model_from_state",
]


#: Spec keys common to every cell; the architecture keys after them are the
#: class's ``ctor_args`` record.
_LINEAGE_KEYS = ("cell_id", "origin", "widen_count", "last_op", "transformable")


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


def _cell_from_spec(spec: dict) -> Cell:
    """Rebuild a cell (random weights; caller restores the real ones).

    Specs arrive from checkpoint payloads and snapshot headers: the key set
    is checked against the class's declared record *before* any of it
    reaches a constructor's keywords.
    """
    kind = spec.get("type")
    cls = CELL_TYPES.get(kind)
    if cls is None:
        raise TypeError(f"unknown cell type {kind!r} in checkpoint")
    expected = {"type", *_LINEAGE_KEYS, *cls.ctor_args}
    if spec.keys() != expected:
        raise ValueError(
            f"{kind} spec: missing keys {sorted(expected - spec.keys())}, "
            f"unexpected keys {sorted(spec.keys() - expected)}"
        )
    # cell_id goes through the constructor so no fresh id is minted.
    cell = cls(
        rng=np.random.default_rng(0),
        cell_id=spec["cell_id"],
        **{key: spec[key] for key in cls.ctor_args},
    )
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
    """Rebuild the architecture described by :func:`model_spec`."""
    if spec.get("format") != 1:
        raise ValueError(f"unsupported checkpoint format {spec.get('format')!r}")
    model = CellModel(
        [_cell_from_spec(c) for c in spec["cells"]],
        tuple(spec["input_shape"]),
        spec["num_classes"],
        model_id=spec["model_id"],
        parent_id=spec["parent_id"],
        birth_round=spec["birth_round"],
    )
    model.history = [
        TransformRecord(h["op"], h["cell_id"], h["round"], h["detail"])
        for h in spec["history"]
    ]
    return model


def save_model(model: CellModel, path: str | Path) -> None:
    """Write the model (architecture + weights + BN state) to ``path``.

    The write is crash-consistent: bytes land in a same-directory temp
    file and are renamed over ``path`` only once durable, so a crash
    mid-save never leaves a torn ``.npz`` where a good one used to be.
    """
    arrays = {f"param::{k}": v for k, v in model.params().items()}
    arrays.update({f"state::{k}": v for k, v in model.state().items()})
    arrays["__spec__"] = np.frombuffer(
        json.dumps(model_spec(model)).encode(), dtype=np.uint8
    )
    with atomic_write(path) as f:
        np.savez(f, **arrays)


def load_model(path: str | Path) -> CellModel:
    """Reconstruct a model saved by :func:`save_model`."""
    with np.load(path) as data:
        spec = json.loads(bytes(data["__spec__"]).decode())
        model = model_from_spec(spec)
        params = {
            k[len("param::"):]: data[k] for k in data.files if k.startswith("param::")
        }
        state = {
            k[len("state::"):]: data[k] for k in data.files if k.startswith("state::")
        }
    model.set_params(params)
    if state:
        model.set_state(state)
    return model


def model_state_dict(model: CellModel) -> dict:
    """In-memory Stateful payload of one model: spec + tensors + version.

    Unlike :func:`save_model` (a file format) this keeps the exact mutation
    ``version``, because version-keyed consumers — the coordinator's
    evaluation cache, the process executor's delta snapshots — must observe
    the restored model as *the same* version the checkpoint captured, not
    as freshly mutated.
    """
    return {
        "spec": model_spec(model),
        "params": {k: v.copy() for k, v in model.params().items()},
        "state": {k: v.copy() for k, v in model.state().items()},
        "version": model.version,
    }


def load_model_state(model: CellModel, payload: dict) -> None:
    """Restore a :func:`model_state_dict` payload into a live model of the
    same architecture (``set_params`` refuses any other)."""
    model.set_params({k: np.asarray(v) for k, v in payload["params"].items()})
    if payload["state"]:
        model.set_state({k: np.asarray(v) for k, v in payload["state"].items()})
    # set_params/set_state bumped the counter; restamp to the checkpoint's
    # value so version-keyed caches key identically after resume.
    model.sync_version(int(payload["version"]))


def model_from_state(payload: dict) -> CellModel:
    """Rebuild the exact model :func:`model_state_dict` captured."""
    model = model_from_spec(payload["spec"])
    load_model_state(model, payload)
    return model
