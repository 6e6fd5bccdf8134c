"""Cell-activeness tracking: which cells bottleneck model accuracy (§4.1).

FedTrans selects the cells to transform by *activeness*, the weight-
normalized gradient norm ``‖∇w_l‖ / ‖w_l‖`` of each cell, averaged over the
last ``T`` rounds (Table 7: T = 5).  Normalizing by the weight norm
"mitigate[s] the bias in selecting cells due to gradient vanishing".

Only *aggregate* gradients are used, matching the paper's privacy posture
("FedTrans solely utilizes aggregate gradients, not the gradients of
individual clients"): the tracker is fed the frontier's FedAvg
pseudo-gradient as :meth:`ModelAggregator.aggregate` returns it — under plain
SGD ``lr * local_steps`` times the mean step gradient; the scale drops out.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..nn.model import CellModel
from ..nn.param_ops import ParamTree
from ..stateful import Stateful, check_schema, schema_tag

__all__ = ["cell_gradient_norms", "ActivenessTracker"]


def cell_gradient_norms(model: CellModel, grad: ParamTree) -> dict[str, float]:
    """Per-cell ``‖∇w_l‖ / ‖w_l‖`` for one aggregate gradient tree.

    Keys missing from ``grad`` (possible when aggregating across model
    generations) contribute nothing to that cell's norm.
    """
    out: dict[str, float] = {}
    params = model.params()
    for cell in model.cells:
        g2 = 0.0
        w2 = 0.0
        for key in cell.params():
            full = f"{cell.cell_id}/{key}"
            w2 += float(np.sum(params[full] ** 2))
            if full in grad:
                g2 += float(np.sum(grad[full] ** 2))
        out[cell.cell_id] = float(np.sqrt(g2) / max(np.sqrt(w2), 1e-12))
    return out


class ActivenessTracker(Stateful):
    """Sliding-window (length ``T``) average of per-cell activeness."""

    schema = schema_tag("ActivenessTracker")

    def __init__(self, window: int):
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self._history: dict[str, deque[float]] = {}

    def update(self, model: CellModel, aggregate_grad: ParamTree) -> None:
        """Record one round's aggregate gradient for ``model``."""
        norms = cell_gradient_norms(model, aggregate_grad)
        for cell_id, value in norms.items():
            dq = self._history.setdefault(cell_id, deque(maxlen=self.window))
            dq.append(value)

    def reset(self) -> None:
        """Clear all history (called when the frontier model changes)."""
        self._history.clear()

    def activeness(self, model: CellModel) -> dict[str, float]:
        """Windowed mean activeness for every *transformable* cell."""
        out: dict[str, float] = {}
        for cell in model.cells:
            if not cell.transformable:
                continue
            dq = self._history.get(cell.cell_id)
            out[cell.cell_id] = float(np.mean(dq)) if dq else 0.0
        return out

    def ready(self) -> bool:
        """True once at least one full observation exists."""
        return any(len(dq) > 0 for dq in self._history.values())

    def state_dict(self) -> dict:
        return {
            "schema": self.schema,
            "history": {cid: list(dq) for cid, dq in self._history.items()},
        }

    def load_state_dict(self, payload: dict) -> None:
        check_schema(payload, self.schema)
        self._history = {
            cid: deque((float(x) for x in vals), maxlen=self.window)
            for cid, vals in payload["history"].items()
        }
