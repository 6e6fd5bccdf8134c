"""Refactor witness for the cell transforms (widen / expand / narrow / roles).

The run goldens pin one live transform (a single ``widen c0001 x2`` on a
``DenseCell``); no deepen, no conv/residual/ViT widen and no ``narrow`` is
pinned anywhere, so a refactor of the per-cell transform code could reorder
RNG draws or re-tag an axis without any fixture noticing.  The fixture
``tests/data/golden_cell_transforms.json`` was written by this file's
``__main__`` at the commit it records (the parent of the wiring-table
refactor, where every cell class carried hand-written ``widen_output`` /
``widen_internal`` / ``expand_input`` / ``narrow`` / ``axis_roles``
methods) and holds:

* per cell configuration the zoo can produce x every op x {dup, zero} x
  noise {0, 0.05}: blake2b digests of every ``params()``/``state()`` tensor
  (dtype and shape included), every ``grads()`` shape,
  ``list(axis_roles().items())``, the returned mapping, and the RNG's
  ``bit_generator.state`` after the call — or, for an op the cell does not
  support, the exception type and that the cell was left untouched;
* per zoo model, before and after ``widen_cell`` + ``deepen_after``:
  ``ratio_spec`` / ``build_subnet`` / ``param_index_map`` at ratio 0.5
  (leading and score-ranked), FLuID's ``_channel_movement``, and
  ``json.dumps(model_spec(m))`` *without* ``sort_keys`` (the spec's key order
  is pickled into every snapshot header and checkpoint).

Regenerate (only ever at a commit whose transforms are the reference):
``PYTHONPATH=src python tests/test_cell_tables.py``.
"""

import hashlib
import json
import subprocess
from pathlib import Path

import numpy as np
import pytest

from repro.baselines.fluid import _channel_movement
from repro.baselines.subnet import build_subnet, param_index_map, ratio_spec
from repro.nn import mlp, small_cnn, small_resnet, vit_tiny
from repro.nn.cells import (
    ConvCell,
    ConvClassifierCell,
    DenseCell,
    FlatClassifierCell,
    ResidualConvCell,
    TokenClassifierCell,
    ViTCell,
    ViTStemCell,
    make_widen_mapping,
    set_cell_id_counter,
)
from repro.nn.compute import compute_dtype_name, set_compute_dtype
from repro.nn.model import set_model_id_counter
from repro.nn.serialization import model_from_spec, model_spec

GOLDEN = Path(__file__).parent / "data" / "golden_cell_transforms.json"

# ----------------------------------------------------------------------
# every cell configuration the zoo (and deepen) can produce
# ----------------------------------------------------------------------
CELLS = {
    "conv_norm": lambda rng: ConvCell(3, 4, rng),
    "conv_norm_maxpool": lambda rng: ConvCell(3, 4, rng, pool="max"),
    "conv_plain": lambda rng: ConvCell(3, 4, rng, norm=False),
    "conv_plain_avgpool_fixed": lambda rng: ConvCell(
        3, 4, rng, kernel=1, stride=2, norm=False, pool="avg", transformable=False
    ),
    "conv_identity": lambda rng: ConvCell.identity(4),
    "residual": lambda rng: ResidualConvCell(3, 5, rng, hidden=4),
    "residual_strided": lambda rng: ResidualConvCell(4, 4, rng, stride=2),
    "residual_identity": lambda rng: ResidualConvCell.identity(4),
    "dense": lambda rng: DenseCell(5, 6, rng),
    "dense_identity": lambda rng: DenseCell.identity(5),
    "vit": lambda rng: ViTCell(8, 2, 12, rng),
    "vit_identity": lambda rng: ViTCell.identity(8, 2, 12, rng),
    "vit_stem": lambda rng: ViTStemCell(3, 8, 4, 8, rng),
    "conv_classifier": lambda rng: ConvClassifierCell(6, 4, rng),
    "flat_classifier": lambda rng: FlatClassifierCell(6, 4, rng),
    "token_classifier": lambda rng: TokenClassifierCell(8, 4, rng),
}
#: replayed under float32 as well: transforms must preserve the tensor dtype
FLOAT32_CELLS = ("conv_norm_maxpool", "conv_plain", "residual", "dense", "vit")
CONFIGS = sorted(CELLS) + [f"{name}@float32" for name in FLOAT32_CELLS]

MODELS = {
    "mlp": lambda rng: mlp((12,), 5, rng, width=8, depth=3),
    "small_cnn": lambda rng: small_cnn((3, 8, 8), 5, rng, width=4),
    "small_resnet": lambda rng: small_resnet((3, 8, 8), 5, rng, width=4),
    "vit_tiny": lambda rng: vit_tiny((3, 8, 8), 5, rng, dim=8, heads=2, mlp_hidden=12),
}


# ----------------------------------------------------------------------
# digests (lists of pairs, not dicts: key *order* is part of the pin)
# ----------------------------------------------------------------------
def _blake(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def _tensor(arr: np.ndarray) -> str:
    head = f"{arr.dtype.str}{arr.shape}".encode()
    return _blake(head + np.ascontiguousarray(arr).tobytes())


def _tensors(holder) -> list:
    """``holder`` is a Cell or a CellModel."""
    return [[k, _tensor(v)] for k, v in {**holder.params(), **holder.state()}.items()]


def _grad_shapes(holder) -> list:
    return [[k, list(v.shape)] for k, v in holder.grads().items()]


def _snapshot(cell) -> dict:
    return {
        "tensors": _tensors(cell),
        "grad_shapes": _grad_shapes(cell),
        "axis_roles": [[k, list(r)] for k, r in cell.axis_roles().items()],
        "dims": [cell.in_dim, cell.out_dim, getattr(cell, "hidden_dim", None)],
    }


def _sealed(sections: dict) -> dict:
    """One digest per section: a mismatch still names what moved (tensors,
    roles, RNG position, ...) while the fixture stays reviewable."""
    return {k: _blake(json.dumps(v).encode()) for k, v in sections.items()}


def _randomize(holder, seed: int) -> None:
    """Distinct values everywhere (fresh biases and BN rows are constants,
    which would make a wrong gather invisible)."""
    fill = np.random.default_rng(seed)
    for key, arr in {**holder.params(), **holder.state()}.items():
        arr[...] = fill.normal(size=arr.shape)
        if key.endswith("running_var"):
            arr[...] = np.abs(arr) + 0.5


def _pick(width: int, seed: int) -> np.ndarray:
    """A non-leading, order-preserving half of ``range(width)``."""
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(width, size=max(1, (width + 1) // 2), replace=False))


# ----------------------------------------------------------------------
# per-cell cases
# ----------------------------------------------------------------------
def _ops(cell) -> dict:
    """label -> op(cell, rng) for every transform entry point."""

    def expand(mode, noise, with_rng=True):
        def op(c, rng):
            wm = make_widen_mapping(c.in_dim, 1.5, rng, mode)
            c.expand_input(wm, rng if with_rng else None, noise)
            return wm

        return op

    ops = {}
    for mode in ("dup", "zero"):
        for noise in (0.0, 0.05):
            tag = f"{mode}/noise{noise:g}"
            ops[f"widen_output/{tag}"] = (
                lambda c, rng, m=mode, n=noise: c.widen_output(1.5, rng, n, m)
            )
            ops[f"widen_internal/{tag}"] = (
                lambda c, rng, m=mode, n=noise: c.widen_internal(1.5, rng, n, m)
            )
            ops[f"expand_input/{tag}"] = expand(mode, noise)
        ops[f"expand_input/{mode}/no_rng"] = expand(mode, 0.05, with_rng=False)

    keep = {
        "out": _pick(cell.out_dim, 11),
        "in": _pick(cell.in_dim, 12),
        "hidden": _pick(getattr(cell, "hidden_dim", 4), 13),
    }
    for role, idx in keep.items():
        ops[f"narrow/{role}"] = lambda c, rng, r=role, i=idx: c.narrow(**{f"{r}_idx": i})
    have = {r for roles in cell.axis_roles().values() for r in roles if r is not None}
    ops["narrow/every_role_it_has"] = lambda c, rng: c.narrow(
        **{f"{r}_idx": keep[r] for r in sorted(have)}
    )
    return ops


def _fresh(config: str):
    name, _, dtype = config.partition("@")
    set_compute_dtype(dtype or "float64")
    set_cell_id_counter(0)
    return CELLS[name](np.random.default_rng(0))


def _cell_cases(config: str) -> dict:
    before_dtype = compute_dtype_name()
    try:
        built = _fresh(config)
        # As constructed, readable (one JSON string per section): this is
        # where the identity cells' weights and every axis_roles() table sit.
        as_built = {k: json.dumps(v) for k, v in _snapshot(built).items()}
        out = {"type": type(built).__name__, "built": as_built, "ops": {}}
        for label in _ops(built):
            cell = _fresh(config)
            _randomize(cell, 1)
            before = _snapshot(cell)
            rng = np.random.default_rng(7)
            try:
                result = _ops(cell)[label](cell, rng)
            except (NotImplementedError, ValueError) as exc:
                untouched = "untouched" if _snapshot(cell) == before else "MODIFIED"
                out["ops"][label] = f"raises {type(exc).__name__}, cell {untouched}"
                continue
            out["ops"][label] = _sealed(
                {
                    **_snapshot(cell),
                    "mapping": None if result is None else result.mapping.tolist(),
                    "rng_state": repr(rng.bit_generator.state),
                }
            )
        return out
    finally:
        set_compute_dtype(before_dtype)


# ----------------------------------------------------------------------
# per-model cases: the subnet machinery reads axis_roles(); the spec is
# what checkpoints and snapshot headers carry
# ----------------------------------------------------------------------
def _subnet_view(model) -> dict:
    noise = np.random.default_rng(5)
    delta = {k: noise.normal(size=v.shape) for k, v in model.params().items()}
    scores = _channel_movement(model, delta)
    out = _sealed({"movement": [[k, _tensor(v)] for k, v in scores.items()]})
    for label, spec in (
        ("leading", ratio_spec(model, 0.5)),
        ("ranked", ratio_spec(model, 0.5, scores)),
    ):
        sub = build_subnet(model, spec)
        out[label] = _sealed({
            "keep_out": [[k, v.tolist()] for k, v in spec.keep_out.items()],
            "keep_hidden": [[k, v.tolist()] for k, v in spec.keep_hidden.items()],
            "subnet": _tensors(sub),
            "grad_shapes": _grad_shapes(sub),
            "macs": sub.macs(),
            "index_map": [
                [k, [None if i is None else i.tolist() for i in idxs]]
                for k, idxs in param_index_map(model, spec).items()
            ],
        })
    return out


def _transformed(name: str):
    """The zoo model after widen (dup) + deepen + widen (zero): the first
    widen's consumer is a body cell, the last one's is the classifier."""
    set_model_id_counter(0)
    set_cell_id_counter(0)
    model = MODELS[name](np.random.default_rng(0))
    _randomize(model, 2)
    fresh = _subnet_view(model)
    rng = np.random.default_rng(3)
    first, last = model.transformable_cells()[0], model.transformable_cells()[-1]
    model.widen_cell(first.cell_id, 1.5, rng, round_idx=2, noise=0.05, mode="dup")
    model.deepen_after(first.cell_id, rng, round_idx=4)
    model.widen_cell(last.cell_id, 1.3, rng, round_idx=6, mode="zero")
    return model, fresh, rng


def _shapes(model) -> list:
    return [[k, list(v.shape)] for k, v in {**model.params(), **model.state()}.items()]


def _lineage(model) -> list:
    return [
        [type(c).__name__, c.cell_id, c.origin, c.widen_count, c.last_op, c.transformable]
        for c in model.cells
    ]


def _model_cases(name: str) -> dict:
    model, fresh, rng = _transformed(name)
    return {
        "fresh": fresh,
        "transformed": _subnet_view(model),
        "spec_json": json.dumps(model_spec(model)),
        "shapes": json.dumps(_shapes(model)),
        "lineage": json.dumps(_lineage(model)),
        "macs": model.macs(),
        **_sealed(
            {
                "tensors": _tensors(model),
                "grad_shapes": _grad_shapes(model),
                "rng_state": repr(rng.bit_generator.state),
            }
        ),
    }


def _golden() -> dict:
    with open(GOLDEN) as f:
        return json.load(f)


# ----------------------------------------------------------------------
@pytest.mark.parametrize("config", CONFIGS)
def test_cell_transforms_match_parent_commit(config):
    assert _cell_cases(config) == _golden()["cells"][config]


@pytest.mark.parametrize("name", sorted(MODELS))
def test_model_transforms_match_parent_commit(name):
    assert _model_cases(name) == _golden()["models"][name]


def test_every_supported_op_is_pinned():
    """Canary: a regeneration on code whose transforms silently stopped
    working would otherwise still "match"."""
    cells = _golden()["cells"]
    supported = {
        config: sorted(
            {label.split("/")[0] for label, r in case["ops"].items() if isinstance(r, dict)}
        )
        for config, case in cells.items()
    }
    assert supported["conv_norm"] == ["expand_input", "narrow", "widen_output"]
    assert supported["residual"] == ["expand_input", "narrow", "widen_internal"]
    assert supported["dense@float32"] == ["expand_input", "narrow", "widen_output"]
    assert supported["vit"] == ["narrow", "widen_internal"]
    assert supported["flat_classifier"] == ["expand_input", "narrow"]
    assert supported["vit_stem"] == supported["token_classifier"] == []
    assert not any(
        "MODIFIED" in r for case in cells.values() for r in case["ops"].values()
    )


@pytest.mark.parametrize("name", sorted(MODELS))
def test_parent_commit_spec_rebuilds_the_same_model(name):
    """A spec written by the parent commit (checkpoint payloads and ``RSNP``
    snapshot headers carry exactly this dict) rebuilds the architecture and
    lineage it described."""
    golden = _golden()["models"][name]
    spec = json.loads(golden["spec_json"])
    rebuilt = model_from_spec(spec)
    assert _shapes(rebuilt) == json.loads(golden["shapes"])
    assert _lineage(rebuilt) == json.loads(golden["lineage"])
    assert (rebuilt.model_id, rebuilt.parent_id) == (spec["model_id"], spec["parent_id"])
    assert rebuilt.macs() == golden["macs"]
    # ...and writes the very same bytes back, key order included.
    assert json.dumps(model_spec(rebuilt)) == golden["spec_json"]


if __name__ == "__main__":
    sha = subprocess.run(
        ["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=True,
        cwd=Path(__file__).parent,
    ).stdout.strip()
    out = {
        "generated_at_commit": sha,
        "cells": {c: _cell_cases(c) for c in CONFIGS},
        "models": {n: _model_cases(n) for n in sorted(MODELS)},
    }
    with open(GOLDEN, "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {GOLDEN} at {sha}")
