"""Shared submodel machinery for the width-scaling baselines.

HeteroFL, SplitMix, and FLuID all carve *subnetworks* out of a large global
model by keeping a subset of channels per cell.  A :class:`SubnetSpec`
records which output/hidden channel indices each cell keeps; from it we can

* :func:`build_subnet` — materialize the submodel (same ``cell_id`` lineage
  as the global model, narrowed tensors), and
* :func:`scatter_average` — average submodel updates back into global
  coordinates, where each global coordinate averages exactly the client
  updates that covered it (HeteroFL's aggregation rule);
  :func:`scatter_updates` applies it to a round's updates.

:func:`largest_compatible` is the ladder's assignment rule.

``leading`` specs (``arange`` indices) give HeteroFL's nested subnetworks;
score-ranked specs give FLuID's invariant dropout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..fl.strategy import compatible_model_ids
from ..fl.types import ClientUpdate, FLClient
from ..nn.model import CellModel
from ..nn.param_ops import ParamTree

__all__ = [
    "SubnetSpec",
    "ratio_spec",
    "build_subnet",
    "param_index_map",
    "scatter_average",
    "scatter_updates",
    "largest_compatible",
]


@dataclass(frozen=True)
class SubnetSpec:
    """Kept channel indices per cell (missing cell => full width)."""

    keep_out: dict[str, np.ndarray] = field(default_factory=dict)
    keep_hidden: dict[str, np.ndarray] = field(default_factory=dict)

    def is_full(self) -> bool:
        return not self.keep_out and not self.keep_hidden


def _keep_count(width: int, ratio: float) -> int:
    return max(1, int(round(width * ratio)))


def ratio_spec(
    global_model: CellModel,
    ratio: float,
    scores: dict[str, np.ndarray] | None = None,
) -> SubnetSpec:
    """Build a spec keeping a ``ratio`` fraction of every narrowable width.

    Without ``scores``, the *leading* channels are kept (HeteroFL's nested
    subnets).  With ``scores`` (one array per cell/axis key, larger =
    more important), the top-scoring channels are kept — FLuID's invariant
    dropout, which drops the least-recently-changing neurons.  Indices are
    sorted so kept channels preserve their relative order.
    """
    if not 0.0 < ratio <= 1.0:
        raise ValueError("ratio must lie in (0, 1]")
    keep_out: dict[str, np.ndarray] = {}
    keep_hidden: dict[str, np.ndarray] = {}
    if ratio == 1.0:
        return SubnetSpec()

    def pick(width: int, key: str) -> np.ndarray:
        k = _keep_count(width, ratio)
        if scores is not None and key in scores:
            s = scores[key]
            if len(s) != width:
                raise ValueError(f"score length {len(s)} != width {width} for {key}")
            return np.sort(np.argsort(-s)[:k])
        return np.arange(k)

    for cell in global_model.cells:
        roles = {r for axroles in cell.axis_roles().values() for r in axroles}
        if "out" in roles:
            keep_out[cell.cell_id] = pick(cell.out_dim, f"{cell.cell_id}/out")
        if "hidden" in roles:
            keep_hidden[cell.cell_id] = pick(cell.hidden_dim, f"{cell.cell_id}/hidden")
    return SubnetSpec(keep_out, keep_hidden)


def build_subnet(global_model: CellModel, spec: SubnetSpec) -> CellModel:
    """Materialize the submodel described by ``spec`` (shares cell ids): a
    fresh model built from narrowed copies of the global model's cells, so
    its costs are the narrowed structure's from the start."""
    cells = [cell.clone() for cell in global_model.cells]
    prev_out: np.ndarray | None = None
    for cell in cells:
        out_idx = spec.keep_out.get(cell.cell_id)
        hid_idx = spec.keep_hidden.get(cell.cell_id)
        if out_idx is not None or hid_idx is not None or prev_out is not None:
            cell.narrow(out_idx=out_idx, in_idx=prev_out, hidden_idx=hid_idx)
        prev_out = out_idx
    sub = CellModel(
        cells,
        global_model.input_shape,
        global_model.num_classes,
        parent_id=global_model.model_id,
        birth_round=global_model.birth_round,
    )
    sub.history = list(global_model.history)
    return sub


def param_index_map(
    global_model: CellModel, spec: SubnetSpec
) -> dict[str, tuple[np.ndarray | None, ...]]:
    """Per-tensor kept-index tuples, in *global* coordinates.

    For each (possibly narrowed) tensor, yields one entry per axis: the
    global indices the subnet's coordinates map to, or ``None`` for axes
    that kept full width.
    """
    cells = global_model.cells
    # A cell's input channels are the ones its predecessor kept.
    fed = {nxt.cell_id: spec.keep_out.get(prev.cell_id) for prev, nxt in zip(cells, cells[1:])}
    out: dict[str, tuple[np.ndarray | None, ...]] = {}
    for key, (cell, axroles) in global_model.axis_roles().items():
        sel = {
            "out": spec.keep_out.get(cell.cell_id),
            "hidden": spec.keep_hidden.get(cell.cell_id),
            "in": fed.get(cell.cell_id),
            None: None,
        }
        idxs = tuple(sel[r] for r in axroles)
        if any(i is not None for i in idxs):
            out[key] = idxs
    return out


def _global_index(
    idxs: tuple[np.ndarray | None, ...], shape: tuple[int, ...]
) -> tuple[np.ndarray, ...]:
    full = [
        i if i is not None else np.arange(dim)
        for i, dim in zip(list(idxs) + [None] * (len(shape) - len(idxs)), shape)
    ]
    return np.ix_(*full)


def scatter_average(
    global_params: ParamTree,
    contributions: list[tuple[ParamTree, SubnetSpec, float]],
    index_maps: dict[int, dict[str, tuple[np.ndarray | None, ...]]],
) -> ParamTree:
    """Average submodel updates back into the global tensors.

    ``contributions`` holds ``(params, spec, weight)`` per update;
    ``index_maps[id(spec)]`` must hold the precomputed
    :func:`param_index_map` for each distinct spec.  Coordinates covered by
    no update keep the current global value.
    """
    sums = {k: np.zeros_like(v) for k, v in global_params.items()}
    weight = {k: np.zeros(v.shape) for k, v in global_params.items()}
    for params, spec, w in contributions:
        imap = index_maps[id(spec)]
        for k, v in params.items():
            if k not in global_params:
                continue
            idxs = imap.get(k)
            if idxs is None:
                sums[k] += w * v
                weight[k] += w
            else:
                gix = _global_index(idxs, global_params[k].shape)
                sums[k][gix] += w * v
                weight[k][gix] += w
    out: ParamTree = {}
    for k, g in global_params.items():
        covered = weight[k] > 0
        merged = g.copy()
        merged[covered] = sums[k][covered] / weight[k][covered]
        out[k] = merged
    return out


def scatter_updates(
    global_model: CellModel,
    updates: list[ClientUpdate],
    spec_of_model: dict[str, SubnetSpec],
    index_maps: dict[int, dict[str, tuple[np.ndarray | None, ...]]],
) -> None:
    """Scatter-average a round's subnet updates into ``global_model``:
    parameters, then the non-trainable state of the updates that carry any."""
    contribs = [(u.params, spec_of_model[u.model_id], float(u.num_samples)) for u in updates]
    global_model.set_params(scatter_average(global_model.params(), contribs, index_maps))
    contribs = [
        (u.state, spec_of_model[u.model_id], float(u.num_samples)) for u in updates if u.state
    ]
    if contribs:
        global_model.set_state(scatter_average(global_model.state(), contribs, index_maps))


def largest_compatible(models: dict[str, CellModel], clients: list[FLClient]) -> list[str]:
    """Per client, the id of the largest ladder model that fits its MAC
    budget (fit rule and too-weak-client fallback:
    :func:`~repro.fl.strategy.compatible_model_ids`), resolved once per
    distinct capacity, in first-seen order."""
    picks: dict[float, str] = {}
    for cap in {c.capacity_macs: None for c in clients}:
        picks[cap] = max(compatible_model_ids(models, cap), key=lambda mid: (models[mid].macs(), mid))
    return [picks[c.capacity_macs] for c in clients]
