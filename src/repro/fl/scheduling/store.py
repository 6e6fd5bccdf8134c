"""Sparse per-client state with inactivity eviction.

``ClientManager`` used to keep a utility dict per client it ever saw and
never let go — at million-client registration counts that is memory
proportional to the *registered* fleet even though only a sliver is ever
in flight.  :class:`ClientStateStore` keeps memory proportional to the
*active* fleet instead: state materializes lazily on first participation
and is evicted after ``evict_after`` rounds of inactivity.  Eviction is
safe because utility magnitudes are already bounded by decay/clamp — a
rehydrated client restarts from the neutral prior (all-zero utilities,
i.e. exactly a fresh client) and relearns within a few participations.

**Why this is not a** :class:`~repro.fl.scheduling.fleet.FleetStore`
**column.**  The fleet store holds one scalar per client per column; the
payload here is ragged — a ``model_id -> utility`` dict per client whose
key set grows every time a transformation births a model — so it has no
fixed-width column to live in.  And :class:`~repro.core.ClientManager` is
built (and benchmarked, ``core.client_manager.update_us``) without a
coordinator, so it has no ``FleetStore`` to borrow columns from.
"""

from __future__ import annotations

import sys

from ...stateful import Stateful, check_schema, schema_tag

__all__ = ["ClientStateStore"]


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
