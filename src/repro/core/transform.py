"""Transformation policy: which cells, and widen vs. deepen (§4.1, Fig. 5).

Pure functions here; :mod:`repro.core.transformer` wires them into the
training loop.  The control flow per selected cell ``l`` follows Fig. 5::

    act_l > α · max(act) ?   no  -> keep l
                             yes -> widened in last transformation?
                                        no  -> widen l
                                        yes -> deepen l (insert identity)

alternating width and depth per the compound-scaling insight of
EfficientNet (Tan & Le) that the paper cites.
"""

from __future__ import annotations

import numpy as np

from ..nn.model import CellModel

__all__ = ["select_cells", "select_cells_random", "apply_transform", "reinitialize"]


def select_cells(activeness: dict[str, float], alpha: float) -> list[str]:
    """Cells whose activeness exceeds ``alpha`` times the maximum (§4.1)."""
    if not activeness:
        return []
    peak = max(activeness.values())
    if peak <= 0.0:
        return []
    return [cid for cid, act in activeness.items() if act >= alpha * peak]


def select_cells_random(
    model: CellModel, rng: np.random.Generator, count: int = 1
) -> list[str]:
    """Random-cell fallback used by the Table 3 '-l' ablation."""
    candidates = [c.cell_id for c in model.transformable_cells()]
    if not candidates:
        return []
    count = min(count, len(candidates))
    picked = rng.choice(len(candidates), size=count, replace=False)
    return [candidates[i] for i in picked]


def apply_transform(
    model: CellModel,
    cell_ids: list[str],
    rng: np.random.Generator,
    widen_factor: float,
    deepen_cells: int,
    round_idx: int,
    widen_noise: float = 0.0,
    widen_mode: str = "dup",
) -> list[str]:
    """Widen/deepen each selected cell of ``model`` in place (Fig. 5).

    Returns event strings describing what happened.  The widen/deepen
    alternation keys off each cell's ``last_op`` marker, which survives
    cloning, so a cell widened when model ``M1`` was spawned is deepened
    when ``M2`` is spawned from ``M1``.  ``widen_noise`` breaks duplicated-
    channel gradient symmetry (Net2Net's noise trick).
    """
    events: list[str] = []
    for cell_id in cell_ids:
        cell = model.get_cell(cell_id)
        if not cell.transformable:
            continue
        if cell.last_op == "widen":
            inserted = model.deepen_after(cell_id, rng, count=deepen_cells, round_idx=round_idx)
            events.append(f"deepen {cell_id} (+{len(inserted)} identity cells)")
        else:
            model.widen_cell(
                cell_id,
                widen_factor,
                rng,
                round_idx=round_idx,
                noise=widen_noise,
                mode=widen_mode,
            )
            events.append(f"widen {cell_id} x{widen_factor:g}")
    return events


def reinitialize(model: CellModel, rng: np.random.Generator) -> None:
    """Replace all weights with fresh random values (the '-w' ablation).

    Used to measure the value of function-preserving warmup (Table 3):
    identical architecture, no inherited knowledge.  Initialization mimics
    the he/xavier conventions by tensor name.
    """
    for _, _, _, name, p in model.tensors("param"):
        if name in ("b", "beta", "b_qkv", "b_out"):
            p[...] = 0.0
        elif name == "gamma":
            p[...] = 1.0
        elif name == "pos":
            p[...] = rng.normal(0.0, 0.02, p.shape)
        else:  # weight matrices / conv kernels
            fan_in = int(np.prod(p.shape[1:])) if p.ndim > 1 else p.shape[0]
            p[...] = rng.normal(0.0, np.sqrt(2.0 / max(fan_in, 1)), p.shape)
    for _, _, _, name, s in model.tensors("state"):
        if name == "running_mean":
            s[...] = 0.0
        elif name == "running_var":
            s[...] = 1.0
