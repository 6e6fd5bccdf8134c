"""FedTransStrategy: Algorithm 1 as a :class:`~repro.fl.strategy.Strategy`.

Per round (matching the pseudo-code's line numbers):

* **assign** (l.5-8) — for each selected client, filter the suite to
  compatible models (``MAC(M) <= T_c``) and sample one from the utility
  softmax (Client Manager, Eqs. 2-3).
* **aggregate** (l.11-22) — update utilities from the round's losses
  (Eq. 4); run within-model FedAvg plus cross-model soft aggregation
  (Eq. 5); feed the mean loss and the frontier's FedAvg pseudo-gradient to
  the Model Transformer, which maintains the DoC (Eq. 1) and per-cell
  activeness; when the DoC crosses β, clone the frontier, transform its
  most-active cells (Fig. 5), and register the child with inherited
  weights and utilities.

Deployment (``eval_models``) gives each client its highest-utility
compatible model — the rule §5.1 uses for all reported accuracies.
"""

from __future__ import annotations

import numpy as np

from ..fl.strategy import Strategy, compatible_model_ids
from ..fl.types import ClientUpdate, FLClient
from ..nn.model import CellModel
from .aggregator import ModelAggregator
from .client_manager import ClientManager, SimilarityCache
from .config import FedTransConfig
from .transformer import ModelTransformer

__all__ = ["FedTransStrategy"]


class FedTransStrategy(Strategy):
    """The FedTrans multi-model training runtime."""

    name = "fedtrans"
    # The suite grows mid-run, so the default fixed-suite restore does not
    # apply: models are rebuilt from their serialized specs (weights and
    # lineage) and every component's trajectory is
    # composed into one payload.
    state_fields = {
        "models": ("_models", dict[str, CellModel]),
        "birth_order": ("_birth_order", list[str]),
        "capacity": ("_capacity", dict[int, float]),
        "evicted_unreported": ("_evicted_unreported", int),
        "client_manager": ("client_manager", ClientManager),
        "aggregator": ("aggregator", ModelAggregator),
        "transformer": ("transformer", ModelTransformer),
    }

    def __init__(
        self,
        initial_model: CellModel,
        config: FedTransConfig,
        max_capacity_macs: float,
        server_opt_factory=None,
    ):
        if initial_model.macs() > max_capacity_macs:
            raise ValueError(
                "initial model exceeds the fleet's maximum capacity; the paper "
                "sizes it to the *least* capable client"
            )
        self.config = config
        self.sim_cache = SimilarityCache()
        self.client_manager = ClientManager(
            self.sim_cache,
            utility_decay=config.utility_decay,
            utility_clamp=config.utility_clamp,
            evict_after=config.evict_after,
        )
        self.aggregator = ModelAggregator(config, self.sim_cache, server_opt_factory)
        self.transformer = ModelTransformer(config, max_capacity_macs)
        self._models: dict[str, CellModel] = {initial_model.model_id: initial_model}
        self._birth_order: list[str] = [initial_model.model_id]
        # Capacity budget per client, remembered at assignment time so
        # aggregate() can re-derive each updater's compatible set (the
        # Eq. 4 walk skips models the client could never run).
        self._capacity: dict[int, float] = {}
        self._evicted_unreported = 0

    # ------------------------------------------------------------------
    # Strategy interface
    # ------------------------------------------------------------------
    def models(self) -> dict[str, CellModel]:
        return dict(self._models)

    @property
    def frontier(self) -> CellModel:
        """The newest (largest) model — the transformation target."""
        return self._models[self._birth_order[-1]]

    def assign(
        self,
        round_idx: int,
        participants: list[FLClient],
        rng: np.random.Generator,
    ) -> dict[int, list[str]]:
        out: dict[int, list[str]] = {}
        for client in participants:
            compatible = self.compatible_models(client)
            self._capacity[client.client_id] = float(client.capacity_macs)
            out[client.client_id] = [
                self.client_manager.sample_model(client.client_id, compatible, rng)
            ]
        return out

    def aggregate(
        self,
        round_idx: int,
        updates: list[ClientUpdate],
        rng: np.random.Generator,
    ) -> list[str]:
        events: list[str] = []
        # Utility-table bookkeeping: advance the activity clock first so a
        # client evicted for long inactivity that participates *this* round
        # rehydrates fresh below rather than surviving on a stale stamp.
        evicted_ids = self.client_manager.advance_round(round_idx)
        if evicted_ids:
            self._evicted_unreported += len(evicted_ids)
            for cid in evicted_ids:
                self._capacity.pop(cid, None)
            events.append(
                f"evicted {len(evicted_ids)} inactive client(s) from utility store"
            )
        # l.11 — joint utility learning from this round's losses, restricted
        # to each updater's compatible set (capacities remembered at assign;
        # a client seen without one falls back to the all-models walk).
        # compatible_model_ids carries the cheapest-model fallback, so a
        # too-weak client's trained-and-deployed model keeps learning.
        compatible = {
            cid: set(compatible_model_ids(self._models, self._capacity[cid]))
            for cid in {u.client_id for u in updates}
            if cid in self._capacity
        }
        self.client_manager.update(updates, self._models, compatible)
        # l.13 — inter-model weight aggregation.
        pseudo = self.aggregator.aggregate(self._models, self._birth_order, updates, round_idx)
        # l.15 — convergence + activeness feedback for the frontier model
        # (no pseudo-gradient in a round nobody trained it).
        frontier = self.frontier
        mean_loss = float(np.mean([u.train_loss for u in updates]))
        self.transformer.observe_round(frontier, mean_loss, pseudo.get(frontier.model_id))
        # l.16-22 — transformation.
        if self.transformer.should_transform(len(self._models)):
            child, ev = self.transformer.transform(frontier, rng, round_idx)
            events.extend(ev)
            if child is not None:
                self._models[child.model_id] = child
                self._birth_order.append(child.model_id)
                self.client_manager.register_model(child.model_id, frontier.model_id)
                events.append(
                    f"spawned {child.model_id} from {frontier.model_id} "
                    f"(macs {frontier.macs():,} -> {child.macs():,})"
                )
        return events

    def eval_models(self, clients: list[FLClient]) -> list[str]:
        """Each client's highest-utility compatible model: one compatible set
        per distinct capacity, one :meth:`ClientManager.best_model` call per
        distinct set."""
        capacities, owner = np.unique([c.capacity_macs for c in clients], return_inverse=True)
        sets: dict[tuple[str, ...], list[int]] = {}
        for k, cap in enumerate(capacities.tolist()):
            sets.setdefault(tuple(compatible_model_ids(self._models, cap)), []).append(k)
        client_ids = np.array([c.client_id for c in clients], dtype=np.int64)
        picks = np.empty(len(clients), dtype=object)
        for compatible, caps in sets.items():
            members = np.flatnonzero(np.isin(owner, caps))
            picks[members] = self.client_manager.best_model(client_ids[members], list(compatible))
        return picks.tolist()

    def drain_evicted(self) -> int:
        evicted, self._evicted_unreported = self._evicted_unreported, 0
        return evicted

    # ------------------------------------------------------------------
    def suite_summary(self) -> str:
        """Human-readable description of the current model suite."""
        lines = [f"FedTrans suite: {len(self._models)} models"]
        for mid in self._birth_order:
            m = self._models[mid]
            lines.append(
                f"  {mid}: macs={m.macs():,} params={m.num_params():,} "
                f"cells={len(m.cells)} born=r{m.birth_round}"
            )
        return "\n".join(lines)
