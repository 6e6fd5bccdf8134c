"""SplitMix (Hong et al., ICLR 2022): split a wide net, mix an ensemble.

The width-``1`` budget is split into ``k`` independent narrow *base* models
(each a 1/k-width network with its own random initialization).  Every round
a participant trains **all** the base models its budget affords — which is
why SplitMix's network volume dwarfs everyone else's in Table 2 — and
deploys the ensemble (averaged logits) of that many base nets.

Aggregation is plain FedAvg per base model.
"""

from __future__ import annotations

import numpy as np

from ..core.transform import reinitialize
from ..fl.strategy import Strategy
from ..fl.types import ClientUpdate, FLClient
from ..nn.model import CellModel
from ..nn.param_ops import tree_average
from .subnet import build_subnet, ratio_spec

__all__ = ["SplitMixStrategy"]


class SplitMixStrategy(Strategy):
    """k independent narrow base nets, ensembled per client budget."""

    name = "splitmix"

    def __init__(self, global_model: CellModel, k: int = 4, seed: int = 0):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        rng = np.random.default_rng(seed)
        spec = ratio_spec(global_model, 1.0 / k)
        self._base_ids: list[str] = []
        self._models: dict[str, CellModel] = {}
        for i in range(k):
            base = build_subnet(global_model, spec)
            base.model_id = f"splitmix_b{i}"
            reinitialize(base, rng)  # independent random init per base net
            self._base_ids.append(base.model_id)
            self._models[base.model_id] = base
        self._base_macs = self._models[self._base_ids[0]].macs()

    # ------------------------------------------------------------------
    def models(self) -> dict[str, CellModel]:
        return dict(self._models)

    def budget_count(self, client: FLClient) -> int:
        """How many base nets this client can train/deploy."""
        m = int(client.capacity_macs // max(self._base_macs, 1))
        return int(np.clip(m, 1, self.k))

    def assign(
        self, round_idx: int, participants: list[FLClient], rng: np.random.Generator
    ) -> dict[int, list[str]]:
        out: dict[int, list[str]] = {}
        for c in participants:
            m = self.budget_count(c)
            # Rotate which base nets the client trains so all k receive
            # updates even from low-budget fleets.
            start = int(rng.integers(0, self.k))
            out[c.client_id] = [self._base_ids[(start + j) % self.k] for j in range(m)]
        return out

    def aggregate(
        self, round_idx: int, updates: list[ClientUpdate], rng: np.random.Generator
    ) -> list[str]:
        by_model: dict[str, list[ClientUpdate]] = {}
        for u in updates:
            by_model.setdefault(u.model_id, []).append(u)
        for mid, ups in by_model.items():
            weights = [float(u.num_samples) for u in ups]
            self._models[mid].set_params(tree_average([u.params for u in ups], weights))
            states = [u.state for u in ups]
            if states and states[0]:
                self._models[mid].set_state(tree_average(states, weights))
        return []

    # ------------------------------------------------------------------
    def eval_models(self, clients: list[FLClient]) -> list[str]:
        return [self._base_ids[0]] * len(clients)

    def eval_ensemble(self, client: FLClient, model_id: str) -> tuple[str, ...]:
        """Ensemble the first ``budget_count`` base nets (averaged logits)."""
        return tuple(self._base_ids[: self.budget_count(client)])
