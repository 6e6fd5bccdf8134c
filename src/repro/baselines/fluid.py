"""FLuID (Wang et al., NeurIPS 2023): invariant dropout for stragglers.

One global model; weaker clients receive a submodel in which each layer's
most *invariant* neurons — those whose aggregated weights changed least in
recent rounds — are dropped.  The intuition: converged neurons lose the
least from skipping a straggler's updates.  Kept-channel choices therefore
change over training as different neurons stabilize, unlike HeteroFL's
fixed leading crops.

Implementation:

* per narrowable axis we keep an EMA of per-channel global-weight change;
* each round, submodels for the ratio ladder are rebuilt keeping the
  *highest*-movement channels;
* aggregation scatters updates into global coordinates exactly as HeteroFL
  does, then the movement scores are refreshed from the global delta.
"""

from __future__ import annotations

import numpy as np

from ..fl.strategy import Strategy
from ..fl.types import ClientUpdate, FLClient
from ..nn.model import CellModel
from ..nn.param_ops import ParamTree
from ..nn.serialization import load_model_state, model_state_dict
from ..stateful import check_schema, schema_tag
from .subnet import (
    SubnetSpec,
    build_subnet,
    largest_compatible,
    param_index_map,
    ratio_spec,
    scatter_updates,
)

__all__ = ["FLuIDStrategy"]

DEFAULT_RATIOS = (1.0, 0.5, 0.25)


def _channel_movement(global_model: CellModel, delta: ParamTree) -> dict[str, np.ndarray]:
    """Per-channel L2 movement for every narrowable axis.

    Returns scores keyed ``"{cell_id}/out"`` / ``"{cell_id}/hidden"``; each
    channel's score sums the squared delta of every tensor slice owned by
    that channel.
    """
    scores: dict[str, np.ndarray] = {}
    for cell in global_model.cells:
        for key, axroles in cell.axis_roles().items():
            full = f"{cell.cell_id}/{key}"
            if full not in delta:
                continue
            d = delta[full]
            for axis, role in enumerate(axroles):
                if role not in ("out", "hidden"):
                    continue
                skey = f"{cell.cell_id}/{role}"
                other_axes = tuple(a for a in range(d.ndim) if a != axis)
                contrib = (d**2).sum(axis=other_axes) if other_axes else d**2
                if skey in scores:
                    scores[skey] += contrib
                else:
                    scores[skey] = contrib.copy()
    return {k: np.sqrt(v) for k, v in scores.items()}


class FLuIDStrategy(Strategy):
    """Invariant-dropout submodels over a single global model."""

    name = "fluid"

    def __init__(
        self,
        global_model: CellModel,
        ratios: tuple[float, ...] = DEFAULT_RATIOS,
        score_momentum: float = 0.5,
    ):
        if not ratios or any(not 0 < r <= 1 for r in ratios):
            raise ValueError("ratios must lie in (0, 1]")
        if 1.0 not in ratios:
            raise ValueError("FLuID keeps the full model for capable clients (ratio 1.0)")
        self.global_model = global_model
        self._ratios = tuple(sorted(set(ratios), reverse=True))
        self.score_momentum = score_momentum
        # Neutral initial scores -> initial subnets equal leading crops.
        self._scores: dict[str, np.ndarray] = {}
        self._models: dict[str, CellModel] = {}
        self._spec_of_model: dict[str, SubnetSpec] = {}
        self._index_maps: dict[int, dict] = {}
        self._rebuild_submodels()

    # ------------------------------------------------------------------
    def _rebuild_submodels(self) -> None:
        self._models = {}
        self._spec_of_model = {}
        self._index_maps = {}
        for r in self._ratios:
            spec = ratio_spec(self.global_model, r, scores=self._scores or None)
            mid = f"fluid_r{r:g}"
            sub = build_subnet(self.global_model, spec)
            sub.model_id = mid
            self._models[mid] = sub
            self._spec_of_model[mid] = spec
            self._index_maps[id(spec)] = param_index_map(self.global_model, spec)

    def models(self) -> dict[str, CellModel]:
        return dict(self._models)

    # ------------------------------------------------------------------
    # durability (Stateful): the global model and the movement scores are
    # the state; kept-channel specs, index maps and submodels are rebuilt
    # from them exactly as aggregate() last did.
    # ------------------------------------------------------------------
    schema = schema_tag("FLuIDStrategy")

    def state_dict(self) -> dict:
        return {
            "schema": self.schema,
            "global_model": model_state_dict(self.global_model),
            "scores": {key: s.copy() for key, s in self._scores.items()},
        }

    def load_state_dict(self, payload: dict) -> None:
        check_schema(payload, self.schema)
        load_model_state(self.global_model, payload["global_model"])
        self._scores = {key: np.asarray(s) for key, s in payload["scores"].items()}
        self._rebuild_submodels()

    # ------------------------------------------------------------------
    def assign(
        self, round_idx: int, participants: list[FLClient], rng: np.random.Generator
    ) -> dict[int, list[str]]:
        picks = self.eval_models(participants)
        return {c.client_id: [mid] for c, mid in zip(participants, picks)}

    # ------------------------------------------------------------------
    def aggregate(
        self, round_idx: int, updates: list[ClientUpdate], rng: np.random.Generator
    ) -> list[str]:
        if not updates:
            return []
        before = self.global_model.get_params()
        scatter_updates(self.global_model, updates, self._spec_of_model, self._index_maps)
        # Refresh invariance scores from this round's global movement.
        delta = {k: v - before[k] for k, v in self.global_model.params().items()}
        fresh = _channel_movement(self.global_model, delta)
        for key, s in fresh.items():
            if key in self._scores:
                self._scores[key] = (
                    self.score_momentum * self._scores[key] + (1 - self.score_momentum) * s
                )
            else:
                self._scores[key] = s
        self._rebuild_submodels()
        return []

    def eval_models(self, clients: list[FLClient]) -> list[str]:
        return largest_compatible(self._models, clients)
