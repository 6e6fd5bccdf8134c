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

The utilities are one client × model table: a float64 ``(rows, models)``
block, a bool ``present`` block of the pairs ever written (what the fleet
mean and a child's inheritance read), and an int64 ``last_active`` column.
Rows materialize on first participation and keep first-seen order, the
order the fleet mean sums them in.  With ``evict_after`` set, rows idle for
more than that many rounds are dropped and the block compacts in order (a
returning client's row is appended), so memory tracks the *active* fleet;
decay/clamp bound utilities, so a rehydrated client is exactly a fresh one.
"""

from __future__ import annotations

import numpy as np

from ..fl.types import train_losses
from ..nn.model import CellModel
from ..stateful import Stateful, check_schema, checked, checked_array, naming, schema_tag
from .similarity import model_similarity

__all__ = ["SimilarityCache", "ClientManager"]


class SimilarityCache(Stateful):
    """Memoized ``sim(src, dst)`` lookups.

    Safe to key on model ids because a model's *architecture* is immutable
    after birth — transformations always clone the frontier into a new
    model rather than editing one in place.
    """

    # A pure memo over immutable architectures: every entry is recomputable
    # from the restored model suite, so the payload is just the tag and a
    # restore starts cold.
    state_fields = {}

    def __init__(self) -> None:
        self._cache: dict[tuple[str, str], float] = {}

    def get(self, src: CellModel, dst: CellModel) -> float:
        key = (src.model_id, dst.model_id)
        if key not in self._cache:
            self._cache[key] = model_similarity(src, dst)
        return self._cache[key]

    def load_state_dict(self, payload: dict) -> None:
        super().load_state_dict(payload)
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
    either.  ``evict_after`` bounds *memory*: clients inactive for more
    than that many rounds (see :meth:`advance_round`) lose their row;
    ``None`` (the default) keeps every row forever.
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
        if evict_after is not None and evict_after < 1:
            raise ValueError("evict_after must be >= 1 (None disables eviction)")
        self.sim_cache = sim_cache or SimilarityCache()
        self.utility_decay = utility_decay
        self.utility_clamp = utility_clamp
        self.evict_after = evict_after
        self._round = self.evicted_total = 0
        self._set_table([], [], [], [], [])

    def _set_table(self, clients, models, utility, present, last_active) -> None:
        """Install the table (copies every array; rows in the given order)."""
        self._clients = np.array(clients, dtype=np.int64)
        self._row = {cid: i for i, cid in enumerate(self._clients.tolist())}
        self._col = {mid: j for j, mid in enumerate(models)}
        self._u = np.array(utility, dtype=np.float64).reshape(len(self._row), len(self._col))
        self._present = np.array(present, dtype=bool).reshape(self._u.shape)
        self._last_active = np.array(last_active, dtype=np.int64)
        self._fleet_mean: np.ndarray | None = None
        self._index: tuple[np.ndarray, np.ndarray] | None = None

    def _grow(self, client_ids, model_ids) -> None:
        """Append zero rows for unseen clients and columns for unseen models."""
        rows = [cid for cid in client_ids if cid not in self._row]
        cols = [mid for mid in dict.fromkeys(model_ids) if mid not in self._col]
        if rows or cols:
            n, k = self._u.shape
            self._row.update((int(cid), n + i) for i, cid in enumerate(rows))
            self._col.update((mid, k + j) for j, mid in enumerate(cols))
            shape = (len(self._row), len(self._col))
            u, held = np.zeros(shape), np.zeros(shape, dtype=bool)
            u[:n, :k], held[:n, :k] = self._u, self._present
            self._u, self._present = u, held
            self._clients = np.append(self._clients, np.array(rows, dtype=np.int64))
            self._last_active = np.append(self._last_active, np.zeros(len(rows), dtype=np.int64))
            self._index = None

    # ------------------------------------------------------------------
    def utility(self, client_id: int, model_id: str) -> float:
        """Current utility (0 for never-updated or evicted pairs)."""
        row, col = self._row.get(client_id), self._col.get(model_id)
        return 0.0 if row is None or col is None else float(self._u[row, col])

    def register_model(self, new_id: str, parent_id: str) -> None:
        """New model inherits its parent's utility per client (Alg. 1 l.18)."""
        self._grow([], [parent_id, new_id])
        parent, child = self._col[parent_id], self._col[new_id]
        held = self._present[:, parent]
        self._u[held, child] = self._u[held, parent]
        self._present[held, child] = True
        self._fleet_mean = None

    def advance_round(self, round_idx: int) -> list[int]:
        """Advance the activity clock; evict and return the long-inactive ids."""
        self._round = max(self._round, round_idx)
        if self.evict_after is None:
            return []
        dead = self._round - self._last_active > self.evict_after
        evicted = self._clients[dead].tolist()
        if evicted:  # compact in order: survivors keep first-seen order
            live = ~dead
            self._set_table(
                self._clients[live], self._col, self._u[live], self._present[live],
                self._last_active[live],
            )
        self.evicted_total += len(evicted)
        return evicted

    # ------------------------------------------------------------------
    def assignment_probabilities(
        self, client_id: int, compatible_ids: list[str]
    ) -> np.ndarray:
        """Eq. 3: softmax of the client's utilities over compatible models."""
        if not compatible_ids:
            raise ValueError("no compatible models to sample from")
        u = np.array([self.utility(client_id, mid) for mid in compatible_ids])
        e = np.exp(u - u.max())
        return e / e.sum()

    def sample_model(
        self, client_id: int, compatible_ids: list[str], rng: np.random.Generator
    ) -> str:
        """Eq. 2: probabilistic model assignment."""
        p = self.assignment_probabilities(client_id, compatible_ids)
        return compatible_ids[int(rng.choice(len(compatible_ids), p=p))]

    def best_model(self, client_ids, compatible_ids: list[str]) -> list[str]:
        """Deployment choice per client: the compatible model with the
        highest utility, in ``client_ids`` order.

        Ties (e.g. clients that never participated) break toward the model
        with the highest fleet-wide mean utility, then the earliest in
        ``compatible_ids`` (birth order: the most-trained model).  The means
        and the row index are cached until the block changes, so a call
        costs a lookup and a few passes over a ``(clients, compatible)``
        slice of the block, however many rows are resident.
        """
        if not compatible_ids:
            raise ValueError("no compatible models")
        if self._fleet_mean is None:
            held, u = self._present, self._u
            self._fleet_mean = np.array(
                [u[held[:, j], j].mean() if held[:, j].any() else 0.0 for j in self._col.values()]
            )
        # One lookup per compatible model (-1: a model the table never saw).
        cols = np.array(list(map(self._col.get, compatible_ids, [-1] * len(compatible_ids))))
        rows = self._rows(client_ids)
        known, seen = cols >= 0, rows >= 0
        u = np.zeros((len(rows), len(cols)))
        u[np.ix_(seen, known)] = self._u[np.ix_(rows[seen], cols[known])]
        means = np.zeros(len(cols))
        means[known] = self._fleet_mean[cols[known]]
        # Lexicographic argmax of (utility, fleet mean, -position) per row.
        best = u == u.max(axis=1, keepdims=True)
        tied_means = np.where(best, means, -np.inf)
        best &= tied_means == tied_means.max(axis=1, keepdims=True)
        picks = best.argmax(axis=1)
        # A NaN has no rank, so where one is compared the order is the one
        # ``sorted`` gives the per-client keys (the rule as first stated).
        unranked = np.flatnonzero(np.isnan(u).any(axis=1) | np.isnan(means).any())
        picks[unranked] = list(map(_sorted_first, u[unranked].tolist(), [means] * len(unranked)))
        return np.array(compatible_ids, dtype=object)[picks].tolist()

    def _rows(self, client_ids) -> np.ndarray:
        """Row of each client id, -1 for a client without one: a binary
        search over the client column, sorted once per change of the rows."""
        if self._index is None:
            order = np.argsort(self._clients, kind="stable")
            self._index = (self._clients[order], order)
        ids, order = self._index
        wanted = np.asarray(client_ids, dtype=np.int64)
        if not len(ids):
            return np.full(len(wanted), -1)
        at = np.minimum(np.searchsorted(ids, wanted), len(ids) - 1)
        return np.where(ids[at] == wanted, order[at], -1)

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
        information).  Updates apply in order: with the clamp, a client's
        repeated updates do not commute.
        """
        if not updates:
            return
        losses = train_losses(self._round, updates)
        std = losses.std()
        standardized = np.zeros_like(losses) if std < 1e-12 else (losses - losses.mean()) / std
        client_ids = list(dict.fromkeys(u.client_id for u in updates))
        self._grow(client_ids, models)
        rows = [self._row[c] for c in client_ids]
        self._last_active[rows] = self._round
        # Eq. 4 runs on the rows as lists: one gather, one scatter.  New rows
        # and never-written pairs hold 0.0, which decay leaves at 0.0.
        gathered = self._u[rows]
        if self.utility_decay < 1.0:
            gathered *= self.utility_decay
        block = dict(zip(rows, gathered.tolist()))
        written, clamp = [], self.utility_clamp
        for u, l_std in zip(updates, standardized):
            assigned = models[u.model_id]
            allowed = compatible.get(u.client_id) if compatible is not None else None
            row = self._row[u.client_id]
            for mid, model in models.items():
                if allowed is None or mid in allowed:
                    sim = self.sim_cache.get(model, assigned)
                    if sim > 0.0:
                        j = self._col[mid]
                        val = block[row][j] - float(l_std) * sim
                        block[row][j] = min(max(val, -clamp), clamp) if clamp else val
                        written.append((row, j))
        self._u[rows] = list(block.values())
        if written:
            self._present[tuple(zip(*written))] = True
        self._fleet_mean = None

    # ------------------------------------------------------------------
    schema = schema_tag("ClientManager", 2)

    def state_dict(self) -> dict:
        return {
            "schema": self.schema,
            "clients": self._clients.copy(),
            "models": list(self._col),
            "utility": self._u.copy(),
            "present": self._present.copy(),
            "last_active": self._last_active.copy(),
            "round": self._round,
            "evicted_total": self.evicted_total,
            "sim_cache": self.sim_cache.state_dict(),
        }

    def load_state_dict(self, payload: dict) -> None:
        """Strict: the table's columns are arrays of their own dtype, one
        row per client and one column per model id, and the counters are
        non-negative ints; anything else is a ``ValueError`` naming the
        field, before anything changes (a repeated client or model id
        too: each is one row or column).  The eviction horizon is
        configuration, not checkpoint payload."""
        check_schema(payload, self.schema, (
            "clients", "models", "utility", "present", "last_active",
            "round", "evicted_total", "sim_cache",
        ))
        models = checked(self.schema, payload, "models", list[str])
        n = getattr(payload["clients"], "size", -1)  # a misshapen column fails below
        clients, utility, present, last_active = (
            checked_array(self.schema, payload, key, dtype, shape)
            for key, dtype, shape in (
                ("clients", np.int64, (n,)), ("utility", np.float64, (n, len(models))),
                ("present", np.bool_, (n, len(models))), ("last_active", np.int64, (n,)),
            )
        )
        counters = [checked(self.schema, payload, key, int) for key in ("round", "evicted_total")]
        for key, ids in (("models", models), ("clients", clients.tolist())):
            if len(set(ids)) != len(ids):
                raise ValueError(f"{self.schema} {key}: repeats an id")
        with naming(self.schema, "sim_cache"):
            self.sim_cache.load_state_dict(payload["sim_cache"])
        self._set_table(clients, models, utility, present, last_active)
        self._round, self.evicted_total = counters


def _sorted_first(utilities: list[float], means: np.ndarray) -> int:
    """Position ranked first by ``(utility, fleet mean, -position)``,
    sorted in descending order."""
    mean = means.tolist()
    return sorted(
        range(len(utilities)), key=lambda i: (utilities[i], mean[i], -i), reverse=True
    )[0]
