"""Model Transformer: when / where / how to transform (§4.1).

Watches the frontier (newest, largest) model's convergence through a
:class:`~repro.core.doc.DoCTracker` and its per-cell gradient dynamics
through an :class:`~repro.core.activeness.ActivenessTracker`.  When the DoC
crosses β, it spawns a new model from the frontier:

1. clone the frontier model (inheriting all weights — the warmup);
2. rank cells by activeness, select those above ``α · max`` (or one random
   cell under the '-l' ablation);
3. widen or deepen each selected cell, alternating per cell (Fig. 5);
4. optionally re-initialize (the '-w' ablation measures warmup's value).

A transformation is suppressed when the frontier already exceeds the
fleet's maximum capacity (the paper's stopping rule: "the model
architecture complexity reaches the maximum supported by any participant")
or when the suite is at ``max_models``.
"""

from __future__ import annotations

import numpy as np

from ..nn.model import CellModel
from ..nn.param_ops import ParamTree
from ..stateful import Stateful
from .activeness import ActivenessTracker
from .config import FedTransConfig
from .doc import DoCTracker
from .transform import apply_transform, reinitialize, select_cells, select_cells_random

__all__ = ["ModelTransformer"]


class ModelTransformer(Stateful):
    """Decides and performs model transformations during training."""

    state_fields = {
        "doc": ("doc", DoCTracker),
        "activeness": ("activeness", ActivenessTracker),
        "rounds_since_transform": ("_rounds_since_transform", int),
        "transforms_done": ("transforms_done", int),
        "exhausted": ("exhausted", bool),
    }

    def __init__(self, config: FedTransConfig, max_capacity_macs: float):
        self.config = config
        self.max_capacity_macs = max_capacity_macs
        self.doc = DoCTracker(config.gamma, config.delta)
        self.activeness = ActivenessTracker(config.activeness_window)
        self._rounds_since_transform = 10**9
        self.transforms_done = 0
        self.exhausted = False  # frontier hit the fleet's max capacity

    # ------------------------------------------------------------------
    def observe_round(
        self, frontier: CellModel, mean_loss: float, aggregate_grad: ParamTree | None
    ) -> None:
        """Feed one round's training feedback (loss + aggregate gradients)."""
        self.doc.update(mean_loss)
        if aggregate_grad is not None:
            self.activeness.update(frontier, aggregate_grad)
        self._rounds_since_transform += 1

    # ------------------------------------------------------------------
    def should_transform(self, num_models: int) -> bool:
        """The Eq. 1 trigger plus the budget/capacity guards."""
        cfg = self.config
        if self.exhausted or num_models >= cfg.max_models:
            return False
        if self._rounds_since_transform < cfg.min_rounds_between_transforms:
            return False
        if not self.activeness.ready():
            return False
        return self.doc.should_transform(cfg.beta)

    # ------------------------------------------------------------------
    def transform(
        self, frontier: CellModel, rng: np.random.Generator, round_idx: int
    ) -> tuple[CellModel | None, list[str]]:
        """Spawn a transformed child of ``frontier``.

        Returns ``(child, events)``; ``child`` is ``None`` when the
        transformation would exceed the fleet's maximum capacity, in which
        case the transformer marks itself exhausted.
        """
        cfg = self.config
        if cfg.gradient_cell_selection:
            selected = select_cells(self.activeness.activeness(frontier), cfg.alpha)
        else:
            selected = select_cells_random(frontier, rng)
        if not selected:
            return None, ["transform skipped: no active cells"]

        child = frontier.clone(birth_round=round_idx)
        events = apply_transform(
            child,
            selected,
            rng,
            cfg.widen_factor,
            cfg.deepen_cells,
            round_idx,
            widen_noise=cfg.widen_noise,
            widen_mode=cfg.widen_mode,
        )
        if not events:
            return None, ["transform skipped: no transformable cells selected"]
        if child.macs() > self.max_capacity_macs:
            self.exhausted = True
            return None, [
                f"transform suppressed: child macs {child.macs():,} exceeds "
                f"fleet capacity {self.max_capacity_macs:,.0f}"
            ]
        if not cfg.warmup:
            reinitialize(child, rng)
            events.append("warmup disabled: child re-initialized")

        self.doc.reset()
        self.activeness.reset()
        self._rounds_since_transform = 0
        self.transforms_done += 1
        return child, events
