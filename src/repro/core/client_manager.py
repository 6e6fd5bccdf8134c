"""Client Manager: utility-based model assignment (§4.2, Eqs. 2-4).

Per client the manager keeps a loss-based utility per model.  When a
client participates, a model is *sampled* from the softmax of its
utilities over the compatible set (Eqs. 2-3) — soft assignment that keeps
exploring while favouring models that fit the client's data.  After each
round the utilities of the client's **compatible** models are jointly
updated from the round's standardized training loss, scaled by
architectural similarity (Eq. 4), so new and rarely-trained models inherit
signal from their relatives.  (Models outside a client's compatible set
are skipped: the client can never train or deploy them — capacities are
fixed and the suite only grows upward — so maintaining their utilities was
pure per-update cost.)

Utility state lives in a sparse
:class:`~repro.fl.scheduling.store.ClientStateStore`: entries materialize
on first participation and, with ``evict_after`` set, clients inactive for
that many rounds are evicted — memory stays proportional to the *active*
fleet, not the registered one.  Decay/clamp already bound utility
magnitudes, so a rehydrated client restarts from the all-zero prior
(exactly a fresh client) and relearns within a few participations.
"""

from __future__ import annotations

import numpy as np

from ..fl.scheduling.store import ClientStateStore
from ..nn.model import CellModel
from ..stateful import Stateful, check_schema, schema_tag
from .similarity import model_similarity

__all__ = ["SimilarityCache", "ClientManager"]


class SimilarityCache(Stateful):
    """Memoized ``sim(src, dst)`` lookups.

    Safe to key on model ids because a model's *architecture* is immutable
    after birth — transformations always clone the frontier into a new
    model rather than editing one in place.
    """

    schema = schema_tag("SimilarityCache")

    def __init__(self) -> None:
        self._cache: dict[tuple[str, str], float] = {}

    def get(self, src: CellModel, dst: CellModel) -> float:
        key = (src.model_id, dst.model_id)
        if key not in self._cache:
            self._cache[key] = model_similarity(src, dst)
        return self._cache[key]

    def state_dict(self) -> dict:
        # The cache is a pure memo over immutable architectures: every
        # entry is recomputable from the restored model suite, so the
        # payload is just the tag and restore starts cold.
        return {"schema": self.schema}

    def load_state_dict(self, payload: dict) -> None:
        check_schema(payload, self.schema)
        self._cache = {}


class ClientManager(Stateful):
    """Tracks per-client model utilities and samples assignments.

    Utilities are kept bounded: without a bound they accumulate without
    limit round over round, the Eq. 3 softmax saturates to a one-hot, and
    assignment stops exploring.  ``utility_decay`` multiplies a client's
    utilities each round it participates (exponential forgetting, recency-
    weighted signal) and ``utility_clamp`` hard-limits ``|u|`` so the
    softmax temperature stays finite — even at the worst case of two
    models pinned to opposite clamps, the softmax gap is ``2 * clamp``
    (probability floor ``~e^-10`` at the default 5.0), so assignment
    keeps exploring.  Set ``1.0`` / ``0.0`` respectively to disable
    either.  ``evict_after`` bounds *memory*: clients inactive for that
    many rounds (see :meth:`advance_round`) are dropped from the store;
    ``None`` (the default) keeps every entry forever.
    """

    def __init__(
        self,
        sim_cache: SimilarityCache | None = None,
        utility_decay: float = 0.99,
        utility_clamp: float = 5.0,
        evict_after: int | None = None,
    ):
        if not 0.0 < utility_decay <= 1.0:
            raise ValueError("utility_decay must lie in (0, 1]")
        if utility_clamp < 0.0:
            raise ValueError("utility_clamp must be non-negative (0 disables)")
        self.sim_cache = sim_cache or SimilarityCache()
        self.utility_decay = utility_decay
        self.utility_clamp = utility_clamp
        self.store = ClientStateStore(evict_after=evict_after)

    # ------------------------------------------------------------------
    def utility(self, client_id: int, model_id: str) -> float:
        """Current utility (0 for never-updated or evicted pairs)."""
        st = self.store.get(client_id)
        return st.get(model_id, 0.0) if st else 0.0

    def register_model(self, new_id: str, parent_id: str) -> None:
        """New model inherits its parent's utility per client (Alg. 1 l.18)."""
        for utils in self.store.values():
            if parent_id in utils:
                utils[new_id] = utils[parent_id]

    def advance_round(self, round_idx: int) -> list[int]:
        """Advance the store's activity clock; returns the evicted ids."""
        return self.store.advance(round_idx)

    # ------------------------------------------------------------------
    def assignment_probabilities(
        self, client_id: int, compatible_ids: list[str]
    ) -> np.ndarray:
        """Eq. 3: softmax of the client's utilities over compatible models."""
        if not compatible_ids:
            raise ValueError("no compatible models to sample from")
        u = np.array([self.utility(client_id, mid) for mid in compatible_ids])
        z = u - u.max()
        e = np.exp(z)
        return e / e.sum()

    def sample_model(
        self, client_id: int, compatible_ids: list[str], rng: np.random.Generator
    ) -> str:
        """Eq. 2: probabilistic model assignment."""
        p = self.assignment_probabilities(client_id, compatible_ids)
        return compatible_ids[int(rng.choice(len(compatible_ids), p=p))]

    def best_model(self, client_id: int, compatible_ids: list[str]) -> str:
        """Deployment choice: the compatible model with the highest utility.

        Ties (e.g. clients that never participated) break toward the model
        with the highest fleet-wide mean utility, then the earliest-born
        (most-trained) model.
        """
        if not compatible_ids:
            raise ValueError("no compatible models")

        def global_mean(mid: str) -> float:
            vals = [u[mid] for u in self.store.values() if mid in u]
            return float(np.mean(vals)) if vals else 0.0

        ranked = sorted(
            range(len(compatible_ids)),
            key=lambda i: (
                self.utility(client_id, compatible_ids[i]),
                global_mean(compatible_ids[i]),
                -i,
            ),
            reverse=True,
        )
        return compatible_ids[ranked[0]]

    # ------------------------------------------------------------------
    def update(
        self,
        updates,
        models: dict[str, CellModel],
        compatible: dict[int, set[str]] | None = None,
    ) -> None:
        """Eq. 4 joint utility update after a round.

        ``updates`` is the round's list of :class:`ClientUpdate`; losses are
        standardized *across the round's participants* so a below-average
        loss raises utility and an above-average loss lowers it.
        ``compatible`` maps client ids to their compatible model ids; when
        given, the similarity-scaled update only walks that set (a missing
        client id, or ``compatible=None``, falls back to all models — the
        legacy behavior, still right for callers without capacity
        information).
        """
        if not updates:
            return
        losses = np.array([u.train_loss for u in updates], dtype=float)
        mean = losses.mean()
        std = losses.std()
        if std < 1e-12:
            standardized = np.zeros_like(losses)
        else:
            standardized = (losses - mean) / std
        if self.utility_decay < 1.0:
            for cid in dict.fromkeys(u.client_id for u in updates):
                utils = self.store.get(cid)
                if utils:
                    for mid in utils:
                        utils[mid] *= self.utility_decay
        for u, l_std in zip(updates, standardized):
            assigned = models[u.model_id]
            allowed = compatible.get(u.client_id) if compatible is not None else None
            utils = self.store.materialize(u.client_id)
            for mid, model in models.items():
                if allowed is not None and mid not in allowed:
                    continue
                sim = self.sim_cache.get(model, assigned)
                if sim <= 0.0:
                    continue
                val = utils.get(mid, 0.0) - float(l_std) * sim
                if self.utility_clamp:
                    val = min(max(val, -self.utility_clamp), self.utility_clamp)
                utils[mid] = val

    # ------------------------------------------------------------------
    schema = schema_tag("ClientManager")

    def state_dict(self) -> dict:
        return {
            "schema": self.schema,
            "store": self.store.state_dict(),
            "sim_cache": self.sim_cache.state_dict(),
        }

    def load_state_dict(self, payload: dict) -> None:
        check_schema(payload, self.schema)
        evict_after = self.store.evict_after
        self.store.load_state_dict(payload["store"])
        # The eviction horizon is configuration, not checkpoint payload.
        self.store.evict_after = evict_after
        self.sim_cache.load_state_dict(payload["sim_cache"])
