"""The Strategy interface: what a server-side FL algorithm must provide.

A strategy owns the model suite, decides which model(s) each participant
trains (``assign`` — SplitMix ships several base nets per client, everyone
else exactly one), merges returned updates (``aggregate``; the async engine
routes buffered, possibly stale batches through ``aggregate_buffered``,
which discounts staleness and delegates here), and defines how
a client is *evaluated*: ``eval_models`` names every client's deployed
model in one call per sweep — the paper evaluates "each client only on its
compatible models and assign[s] it the model with the highest utility" —
and ``eval_ensemble`` the models whose averaged logits form the deployment
(by default that one model).

FedTrans and every baseline implement this interface, so the coordinator,
cost accounting, and bench harness are shared across all methods.

Version contract: strategies mutate their suite through
``CellModel.set_params`` / ``set_state`` / the transformation methods,
which bump each model's monotone ``version`` counter.  The process
executor's snapshot publish (reused when no version moved) keys on those
versions — a strategy that writes weights through the live ``params()``
references instead must call ``bump_version()`` on the model or its
workers will train and score stale weights.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import replace

import numpy as np

from ..nn.model import CellModel
from ..stateful import LiveModel, Stateful
from .types import ClientUpdate, FLClient

__all__ = ["Strategy", "compatible_model_ids"]


def compatible_model_ids(
    models: dict[str, CellModel], capacity_macs: float
) -> list[str]:
    """Model ids whose complexity fits a budget (``MAC(M) <= T_c``).

    Falls back to the single cheapest model when the budget is below every
    model — the paper guarantees this cannot happen by construction
    (initial model == weakest client), but bench configs may be looser.
    The single definition of the fit rule: :meth:`Strategy.compatible_models`
    and FedTrans's Eq. 4 compatible-set restriction both delegate here, so
    assignment and utility learning can never disagree about what fits.
    """
    fits = [mid for mid, m in models.items() if m.macs() <= capacity_macs]
    if not fits:
        fits = [min(models, key=lambda mid: models[mid].macs())]
    return fits


class Strategy(Stateful, ABC):
    """Server-side algorithm driving a multi- (or single-) model FL run."""

    name: str = "strategy"

    # ------------------------------------------------------------------
    # durability (Stateful).  Default: the whole suite — specs, tensors
    # and exact versions.  Sufficient for every fixed-suite strategy (the
    # suite's *structure* is reconstructed from configuration; only
    # weights and versions are trajectory).  Strategies that grow or retire
    # models mid-run, or hold extra run state, declare their own payload.
    # ------------------------------------------------------------------
    state_fields = {"models": ("_suite", dict[str, LiveModel])}

    @property
    def _suite(self) -> dict[str, CellModel]:
        return self.models()

    @abstractmethod
    def models(self) -> dict[str, CellModel]:
        """Live server models, keyed by model id."""

    @abstractmethod
    def assign(
        self,
        round_idx: int,
        participants: list[FLClient],
        rng: np.random.Generator,
    ) -> dict[int, list[str]]:
        """Model id(s) every participant trains this round."""

    @abstractmethod
    def aggregate(
        self,
        round_idx: int,
        updates: list[ClientUpdate],
        rng: np.random.Generator,
    ) -> list[str]:
        """Merge client updates into the server models.

        Returns human-readable event strings (e.g. transformations) for the
        round log.
        """

    def aggregate_buffered(
        self,
        round_idx: int,
        updates: list[ClientUpdate],
        staleness: list[int],
        rng: np.random.Generator,
        staleness_discount: float = 1.0,
    ) -> list[str]:
        """Merge a buffered-asynchronous batch of (possibly stale) updates.

        ``staleness[i]`` counts the server aggregation steps that fired
        between ``updates[i]``'s dispatch and its arrival — 0 means the
        update trained against the current server weights, exactly the
        synchronous case.

        The default is a FedAsync/FedBuff-style discount that composes with
        *any* :meth:`aggregate` implementation: a stale update's weights and
        non-trainable state (e.g. normalization running stats) are pulled
        toward the current server values of its model with factor
        ``f = staleness_discount ** staleness`` (``f * client + (1 - f) *
        server``) — which also scales its pseudo-gradient against the current
        server weights by ``f`` — then the regular synchronous
        :meth:`aggregate` runs on the adjusted batch.  A fully
        discounted update therefore degenerates to a no-op contribution
        rather than dragging the suite toward obsolete weights or
        statistics.  Strategies with bespoke staleness handling override
        this hook.
        """
        if staleness_discount >= 1.0 or not any(s > 0 for s in staleness):
            return self.aggregate(round_idx, updates, rng)
        models = self.models()
        adjusted: list[ClientUpdate] = []
        for u, s in zip(updates, staleness):
            server = models.get(u.model_id)
            if s <= 0 or server is None:
                adjusted.append(u)
                continue
            f = staleness_discount**s
            ref = server.params()
            ref_state = server.state()
            params = {k: f * v + (1.0 - f) * ref[k] for k, v in u.params.items()}
            state = {k: f * v + (1.0 - f) * ref_state[k] for k, v in u.state.items()}
            adjusted.append(replace(u, params=params, state=state))
        return self.aggregate(round_idx, adjusted, rng)

    @abstractmethod
    def eval_models(self, clients: list[FLClient]) -> list[str]:
        """Model id each client deploys, in ``clients`` order.

        The one deployment rule, resolved for a whole fleet at once: a sweep
        calls it once, so a strategy resolves each distinct capacity (and
        ranks utilities) once per sweep instead of once per client.
        """

    # ------------------------------------------------------------------
    # evaluation hooks
    # ------------------------------------------------------------------
    def eval_ensemble(self, client: FLClient, model_id: str) -> tuple[str, ...]:
        """Model ids whose *averaged* logits form this client's deployment.

        ``model_id`` is the client's already-resolved :meth:`eval_models`
        entry (threaded through so utility ranking runs once per sweep).  The
        default deployment is that single model; ensemble methods
        (SplitMix) override.  The coordinator batches evaluation by this
        key: clients sharing an ensemble share one big forward pass.
        """
        return (model_id,)

    def client_logits(
        self, client: FLClient, x: np.ndarray, model_id: str | None = None
    ) -> np.ndarray:
        """Logits the client's deployment produces on ``x``.

        The per-client reference for the deployment :meth:`eval_ensemble`
        declares — what a device would compute, and the oracle the batched
        fleet sweep is tested against.  The sweep itself never calls it:
        :meth:`eval_ensemble` is the hook, and the coordinator refuses a
        strategy that overrides this method.  ``model_id`` lets callers
        that already resolved :meth:`eval_models` thread it through
        instead of re-ranking; when omitted it is resolved here.
        """
        mid = self.eval_models([client])[0] if model_id is None else model_id
        models = self.models()
        ids = self.eval_ensemble(client, mid)
        if len(ids) == 1:
            return models[ids[0]].predict(x)
        return np.mean([models[i].predict(x) for i in ids], axis=0)

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
    def compatible_models(self, client: FLClient) -> list[str]:
        """Model ids whose complexity fits the client's budget (MAC(M) <= T_c).

        Delegates to :func:`compatible_model_ids` (shared with the
        coordinator-side consumers of stored capacities) — see there for
        the too-weak-client fallback.
        """
        return compatible_model_ids(self.models(), client.capacity_macs)

    def storage_bytes(self) -> int:
        """Server-side storage footprint of the whole model suite."""
        return sum(m.nbytes() for m in self.models().values())

    def drain_evicted(self) -> int:
        """Clients whose per-client state was evicted since the last call,
        metered after each aggregation on ``SchedulerRecord.evicted``; the
        default strategy keeps none."""
        return 0
