"""The dict-of-dicts Client Manager, kept as the oracle of the utility table.

``ClientStateStore`` and ``ClientManager`` below are the implementation the
``(clients x models)`` block in :mod:`repro.core.client_manager` replaced,
copied verbatim (only the imports are rewritten; ``best_model`` is the
batched call a sweep makes now, over the verbatim per-client
``best_model_for``), and
``tests/test_utility_table.py`` holds the table to them bit for bit.  Its
``state_dict`` is the ``ClientManager/v1`` payload of the retired format,
which the table no longer reads.
"""

from __future__ import annotations

import sys

import numpy as np

from repro.core.client_manager import SimilarityCache
from repro.nn.model import CellModel
from repro.stateful import Stateful, check_schema, schema_tag


class ClientStateStore(Stateful):
    """Lazily materialized ``client_id -> {key: float}`` state with eviction.

    ``evict_after=None`` disables eviction entirely (bit-identical to the
    dense behavior); ``evict_after=n`` drops any client whose last
    participation is more than ``n`` rounds behind the counter passed to
    :meth:`advance`.
    """

    def __init__(self, evict_after: int | None = None):
        if evict_after is not None and evict_after < 1:
            raise ValueError("evict_after must be >= 1 (None disables eviction)")
        self.evict_after = evict_after
        self._state: dict[int, dict[str, float]] = {}
        self._last_active: dict[int, int] = {}
        self._round = 0
        self.evicted_total = 0

    # ------------------------------------------------------------------
    def get(self, client_id: int) -> dict[str, float] | None:
        """This client's state, or ``None`` if never materialized/evicted."""
        return self._state.get(client_id)

    def materialize(self, client_id: int) -> dict[str, float]:
        """State for a participating client, created on first touch."""
        st = self._state.get(client_id)
        if st is None:
            st = self._state[client_id] = {}
        self._last_active[client_id] = self._round
        return st

    def advance(self, round_idx: int) -> list[int]:
        """Move the activity clock; evict and return the long-inactive ids."""
        self._round = max(self._round, round_idx)
        if self.evict_after is None:
            return []
        dead = [
            cid
            for cid, last in self._last_active.items()
            if self._round - last > self.evict_after
        ]
        for cid in dead:
            self._state.pop(cid, None)
            del self._last_active[cid]
        if dead:
            # Rebuild the containers: a dict's hash table never shrinks, so
            # after a mass eviction the old one would keep the registered
            # fleet's slot count allocated forever.  O(live) per eviction
            # round, which is exactly the footprint we are bounding.
            self._state = dict(self._state)
            self._last_active = dict(self._last_active)
        self.evicted_total += len(dead)
        return dead

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._state)

    def __contains__(self, client_id: int) -> bool:
        return client_id in self._state

    def values(self):
        return self._state.values()

    def resident_clients(self) -> int:
        return len(self._state)

    def resident_bytes(self) -> int:
        """Approximate resident footprint of the stored state.

        Container + per-entry sizes via ``sys.getsizeof`` — good enough for
        the dense-vs-sparse memory comparisons the benchmarks report
        (the ratio is dominated by entry counts, not per-object slack).
        """
        total = sys.getsizeof(self._state) + sys.getsizeof(self._last_active)
        for cid, st in self._state.items():
            total += sys.getsizeof(cid) + sys.getsizeof(st)
            for k, v in st.items():
                total += sys.getsizeof(k) + sys.getsizeof(v)
        return total

    # ------------------------------------------------------------------
    schema = schema_tag("ClientStateStore")

    def state_dict(self) -> dict:
        """JSON-friendly snapshot (checkpoint/restore round-trips)."""
        return {
            "schema": self.schema,
            "evict_after": self.evict_after,
            "round": self._round,
            "evicted_total": self.evicted_total,
            "state": {str(cid): dict(st) for cid, st in self._state.items()},
            "last_active": {str(cid): r for cid, r in self._last_active.items()},
        }

    def load_state_dict(self, payload: dict) -> None:
        check_schema(payload, self.schema)
        self.evict_after = payload["evict_after"]
        self.evicted_total = int(payload["evicted_total"])
        self._round = int(payload["round"])
        self._state = {int(cid): dict(st) for cid, st in payload["state"].items()}
        self._last_active = {
            int(cid): int(r) for cid, r in payload["last_active"].items()
        }


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

    def best_model(self, client_ids, compatible_ids: list[str]) -> list[str]:
        """The batched call deployment makes once per sweep: the per-client
        rule below, client by client."""
        if not compatible_ids:
            raise ValueError("no compatible models")
        return [self.best_model_for(int(cid), compatible_ids) for cid in client_ids]

    def best_model_for(self, client_id: int, compatible_ids: list[str]) -> str:
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
