"""HeteroFL (Diao et al., ICLR 2020): static nested width-scaled subnets.

The server keeps one global model and a fixed ladder of width ratios
(e.g. 1, 1/2, 1/4, 1/8).  Every client trains the largest ratio its
hardware fits; submodels are the *leading* channels of the global model
(nested), and aggregation averages each global coordinate over exactly the
client updates that covered it.

Following the paper's Appendix A.1, the global model handed to HeteroFL in
the benches is the largest model FedTrans produced, so both methods span
the same complexity range.
"""

from __future__ import annotations

import numpy as np

from ..fl.strategy import Strategy
from ..fl.types import ClientUpdate, FLClient
from ..nn.model import CellModel
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

__all__ = ["HeteroFLStrategy"]

DEFAULT_RATIOS = (1.0, 0.5, 0.25, 0.125)


class HeteroFLStrategy(Strategy):
    """Static width-ratio submodels with crop/scatter aggregation."""

    name = "heterofl"

    def __init__(self, global_model: CellModel, ratios: tuple[float, ...] = DEFAULT_RATIOS):
        if not ratios or any(not 0 < r <= 1 for r in ratios):
            raise ValueError("ratios must lie in (0, 1]")
        self.global_model = global_model
        self._ratios = tuple(sorted(set(ratios), reverse=True))
        self._specs: dict[str, SubnetSpec] = {}
        self._index_maps: dict[int, dict] = {}
        self._models: dict[str, CellModel] = {}
        for r in self._ratios:
            spec = ratio_spec(global_model, r)
            self._specs[f"heterofl_r{r:g}"] = spec
            self._index_maps[id(spec)] = param_index_map(global_model, spec)
        self._refresh_submodels()

    # ------------------------------------------------------------------
    def _refresh_submodels(self) -> None:
        """Re-derive every submodel from the current global weights."""
        self._models = {}
        for mid, spec in self._specs.items():
            sub = build_subnet(self.global_model, spec)
            sub.model_id = mid  # stable ids across rounds
            self._models[mid] = sub

    def models(self) -> dict[str, CellModel]:
        return dict(self._models)

    # ------------------------------------------------------------------
    # durability (Stateful): the global model is the state; the ladder is
    # re-derived from it, under the version build_subnet stamps, so eval-
    # cache and snapshot keys line up after a resume.
    # ------------------------------------------------------------------
    schema = schema_tag("HeteroFLStrategy")

    def state_dict(self) -> dict:
        return {
            "schema": self.schema,
            "global_model": model_state_dict(self.global_model),
        }

    def load_state_dict(self, payload: dict) -> None:
        check_schema(payload, self.schema)
        load_model_state(self.global_model, payload["global_model"])
        self._refresh_submodels()

    # ------------------------------------------------------------------
    def assign(
        self, round_idx: int, participants: list[FLClient], rng: np.random.Generator
    ) -> dict[int, list[str]]:
        picks = self.eval_models(participants)
        return {c.client_id: [mid] for c, mid in zip(participants, picks)}

    def aggregate(
        self, round_idx: int, updates: list[ClientUpdate], rng: np.random.Generator
    ) -> list[str]:
        if not updates:
            return []
        scatter_updates(self.global_model, updates, self._specs, self._index_maps)
        self._refresh_submodels()
        return []

    def eval_models(self, clients: list[FLClient]) -> list[str]:
        return largest_compatible(self._models, clients)
