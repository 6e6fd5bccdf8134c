"""Columnar (structure-of-arrays) fleet store for O(active) scheduling.

The object-per-client hot path rebuilt a dense Python list of
``FLClient`` objects every dispatch wave (``[c for c in clients if
c.client_id not in in_flight]``) and looped over it per policy — O(registered)
Python work per tick, which at 1M registered / 1k active clients is ~50ms
of pure list churn before a single byte of training happens.
:class:`FleetStore` keeps the fleet as parallel numpy columns instead:

* ``ids`` (int64) — client ids in **registration order**.  Row order *is*
  the candidate order every selector sees, which is what keeps the
  vectorized selectors bit-identical to the list-of-clients selection
  they replaced (CONTRACTS.md I1/I12): the same ``rng.choice`` call over
  the same candidate ordering picks the same clients.
* capacity class (int16) — equal-occupancy compute-speed classes, the
  classes :class:`~repro.fl.scheduling.pacing.QuantilePacing` keeps a
  deadline for (sort by ``(compute_speed, client_id)``, cut into
  contiguous groups).
* last-seen round (int64) + Oort utility EMA (float64, with a validity
  mask) — the selector state that used to live in an unbounded dict.
* device columns (compute speed, bandwidth, local train-set size) — the
  inputs of the vectorized straggler predictor
  (:meth:`FleetStore.predict_round_times`).
* per-class round-time ring buffers (:class:`RoundTimeStats`) — the
  sliding windows quantile pacing estimates deadlines from.

Selection never materializes the available pool.  The in-flight set is a
small sorted row array; :func:`positions_to_rows` maps ``rng.choice``
positions over the *compacted* candidate sequence back to physical rows
through the gaps (an order-statistics fixpoint over ``searchsorted``), so
a default-stack dispatch tick is O(active · log in_flight) instead of
O(registered) — and provably selects the exact clients the list
comprehension would have (the oracle in ``tests/test_fleet_store.py``).

Row removal (:meth:`FleetStore.remove`) compacts every column in place,
preserving the surviving row order, so selection streams are unchanged
for the survivors.  The store is :class:`~repro.stateful.Stateful`; its
payload round-trips row order exactly (CONTRACTS.md I9).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from ...stateful import Stateful, check_schema, schema_tag

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ...nn.model import CellModel
    from ..client import LocalTrainerConfig
    from ..types import FLClient

__all__ = ["FleetStore", "FleetView", "RoundTimeStats", "positions_to_rows"]


def positions_to_rows(positions: np.ndarray, removed: np.ndarray) -> np.ndarray:
    """Map positions in a gap-compacted row sequence to physical rows.

    ``removed`` is a sorted array of deleted row indices; the compacted
    sequence is ``np.delete(np.arange(n), removed)``.  For each position
    ``p`` the physical row ``r`` satisfies ``r - |{s in removed : s <= r}|
    == p`` — solved by iterating ``r <- p + searchsorted(removed, r,
    'right')`` to its fixpoint.  The iterate is non-decreasing and bounded,
    so it terminates (in practice a handful of passes); cost is
    O(len(positions) · log len(removed)) per pass, never O(n).
    """
    positions = np.asarray(positions)
    if removed.size == 0:
        return positions
    rows = positions
    while True:
        shifted = positions + np.searchsorted(removed, rows, side="right")
        if np.array_equal(shifted, rows):
            return shifted
        rows = shifted


class RoundTimeStats:
    """Per-class sliding windows of completed round times, as ring buffers.

    Replaces one ``deque(maxlen=window)`` per device class with a single
    ``(num_classes, window)`` float64 array plus write cursors: an
    observation is one scatter write, and a quantile query is
    ``np.quantile`` over a contiguous slice — no per-arrival ``list()``
    materialization.  The window holds the same multiset of values the
    deque held (a full ring overwrites the oldest entry, exactly the
    deque's eviction), and quantiles are order-invariant, so estimates are
    bit-identical to the list implementation.
    """

    def __init__(self, num_classes: int, window: int):
        if num_classes < 1:
            raise ValueError("num_classes must be >= 1")
        if window < 1:
            raise ValueError("window must be >= 1")
        self.num_classes = num_classes
        self.window = window
        self._buf = np.zeros((num_classes, window), dtype=np.float64)
        self._len = np.zeros(num_classes, dtype=np.int64)
        self._pos = np.zeros(num_classes, dtype=np.int64)

    def observe(self, cls: int, duration: float) -> None:
        pos = int(self._pos[cls])
        self._buf[cls, pos] = duration
        self._pos[cls] = (pos + 1) % self.window
        if self._len[cls] < self.window:
            self._len[cls] += 1

    def count(self, cls: int) -> int:
        return int(self._len[cls])

    def quantile(self, cls: int, q: float) -> float:
        k = int(self._len[cls])
        if k == 0:
            raise ValueError(f"class {cls} has no observations")
        return float(np.quantile(self._buf[cls, :k], q))

    def chronological(self) -> list[list[float]]:
        """Per-class samples oldest-first (the deque serialization order)."""
        out: list[list[float]] = []
        for cls in range(self.num_classes):
            k = int(self._len[cls])
            pos = int(self._pos[cls])
            if k < self.window:
                vals = self._buf[cls, :k]
            else:  # full ring: oldest entry sits at the write cursor
                vals = np.concatenate([self._buf[cls, pos:], self._buf[cls, :pos]])
            out.append([float(v) for v in vals])
        return out

    # RoundTimeStats instances are embedded in the FleetStore payload
    # rather than checkpointed standalone, but they follow the Stateful
    # protocol so the owner can delegate.
    schema = schema_tag("RoundTimeStats")

    def state_dict(self) -> dict:
        return {"schema": self.schema, "durations": self.chronological()}

    def load_state_dict(self, payload: dict) -> None:
        check_schema(payload, self.schema)
        durations = payload["durations"]
        if len(durations) != self.num_classes:
            raise ValueError(
                f"payload has {len(durations)} device classes; "
                f"these stats were built with {self.num_classes}"
            )
        self._buf[:] = 0.0
        self._len[:] = 0
        self._pos[:] = 0
        for cls, samples in enumerate(durations):
            vals = [float(x) for x in samples][-self.window :]
            k = len(vals)
            self._buf[cls, :k] = vals
            self._len[cls] = k
            self._pos[cls] = k % self.window


class FleetView:
    """A read-only window onto a subset of a :class:`FleetStore`'s rows.

    Three shapes, cheapest first: all rows (``rows is None, excluded is
    None``), all-but-a-few (``excluded`` is a small sorted row array — the
    in-flight exclusion; rows materialize only if a consumer needs ids),
    and an explicit row array.  ``len`` and :meth:`take` are O(taken) on
    the first two shapes, which is what makes the default-stack dispatch
    tick O(active).
    """

    __slots__ = ("store", "_rows", "_excluded")

    def __init__(
        self,
        store: "FleetStore",
        rows: np.ndarray | None = None,
        excluded: np.ndarray | None = None,
    ):
        if rows is not None and excluded is not None:
            raise ValueError("a view is either explicit rows or an exclusion, not both")
        self.store = store
        self._rows = rows
        self._excluded = excluded

    def __len__(self) -> int:
        if self._rows is not None:
            return int(self._rows.size)
        n = self.store.num_rows
        if self._excluded is not None:
            n -= int(self._excluded.size)
        return n

    def rows(self) -> np.ndarray:
        """Physical row indices, materialized (ascending for gap views)."""
        if self._rows is not None:
            return self._rows
        n = self.store.num_rows
        if self._excluded is None or self._excluded.size == 0:
            return np.arange(n, dtype=np.int64)
        return np.delete(np.arange(n, dtype=np.int64), self._excluded)

    @property
    def ids(self) -> np.ndarray:
        if self._rows is None and (self._excluded is None or self._excluded.size == 0):
            return self.store.ids
        return self.store.ids[self.rows()]

    @property
    def classes(self) -> np.ndarray:
        if self._rows is None and (self._excluded is None or self._excluded.size == 0):
            return self.store.classes
        return self.store.classes[self.rows()]

    def take_rows(self, positions: np.ndarray) -> np.ndarray:
        """Physical rows for ``positions`` into this view's ordering.

        O(len(positions)) for the all-rows and exclusion shapes — the
        exclusion shape routes through :func:`positions_to_rows` instead
        of materializing the survivor list.
        """
        positions = np.asarray(positions)
        if self._rows is not None:
            return self._rows[positions]
        if self._excluded is None or self._excluded.size == 0:
            return positions
        return positions_to_rows(positions, self._excluded)

    def take(self, positions: np.ndarray) -> "list[FLClient]":
        return self.store.clients_at(self.take_rows(positions))

    def restrict(self, mask: np.ndarray) -> "FleetView":
        """Subview of the positions where ``mask`` is True (order kept)."""
        return FleetView(self.store, rows=self.rows()[np.asarray(mask, dtype=bool)])


class FleetStore(Stateful):
    """Structure-of-arrays registry of the client fleet.

    Construct from the client list (registration order becomes row order)
    or, for object-free scale tests, :meth:`from_columns`.  ``evict_after``
    bounds the *utility* columns the same way
    :class:`~repro.fl.scheduling.store.ClientStateStore` bounds the
    strategy-side dict: a client unseen for more than ``evict_after``
    rounds has its utility EMA reset to the unseen state (it re-enters at
    the optimistic prior on next selection), so selector state stays
    proportional to the active fleet no matter how many clients ever
    participated.  Row membership is separate — :meth:`remove`
    deregisters clients outright, compacting all columns in place.
    """

    def __init__(
        self,
        clients: "Sequence[FLClient] | None" = None,
        *,
        evict_after: int | None = None,
        num_classes: int = 4,
        rt_window: int = 256,
    ):
        if evict_after is not None and evict_after < 1:
            raise ValueError("evict_after must be >= 1 (None disables eviction)")
        clients = list(clients or [])
        n = len(clients)
        self.evict_after = evict_after
        self._clients: list | None = clients
        self.ids = np.fromiter(
            (c.client_id for c in clients), dtype=np.int64, count=n
        )
        speed = np.fromiter(
            (c.device.compute_speed for c in clients), dtype=np.float64, count=n
        )
        bandwidth = np.fromiter(
            (c.device.bandwidth for c in clients), dtype=np.float64, count=n
        )
        num_train = np.fromiter(
            (c.data.num_train for c in clients), dtype=np.int64, count=n
        )
        self._init_columns(speed, bandwidth, num_train, num_classes, rt_window)

    @classmethod
    def from_columns(
        cls,
        ids: np.ndarray,
        *,
        compute_speed: np.ndarray | None = None,
        bandwidth: np.ndarray | None = None,
        num_train: np.ndarray | None = None,
        evict_after: int | None = None,
        num_classes: int = 4,
        rt_window: int = 256,
    ) -> "FleetStore":
        """Object-free construction (1M-row tests without 1M ``FLClient``s).

        Views over such a store cannot :meth:`FleetView.take` client
        objects — selection-level consumers use :meth:`FleetView.take_rows`
        and the id column instead.
        """
        store = cls.__new__(cls)
        if evict_after is not None and evict_after < 1:
            raise ValueError("evict_after must be >= 1 (None disables eviction)")
        store.evict_after = evict_after
        store._clients = None
        store.ids = np.asarray(ids, dtype=np.int64)
        n = store.ids.size
        ones = np.ones(n, dtype=np.float64)
        speed = (
            ones if compute_speed is None else np.asarray(compute_speed, dtype=np.float64)
        )
        bw = ones if bandwidth is None else np.asarray(bandwidth, dtype=np.float64)
        nt = (
            np.ones(n, dtype=np.int64)
            if num_train is None
            else np.asarray(num_train, dtype=np.int64)
        )
        store._init_columns(speed, bw, nt, num_classes, rt_window)
        return store

    def _init_columns(
        self,
        speed: np.ndarray,
        bandwidth: np.ndarray,
        num_train: np.ndarray,
        num_classes: int,
        rt_window: int,
    ) -> None:
        n = self.ids.size
        if len(set(self.ids.tolist())) != n:
            raise ValueError("client ids must be unique")
        self._speed = speed
        self._bandwidth = bandwidth
        self._num_train = num_train
        self._last_seen = np.zeros(n, dtype=np.int64)
        self._utility = np.zeros(n, dtype=np.float64)
        self._has_utility = np.zeros(n, dtype=bool)
        self._in_flight = np.zeros(n, dtype=bool)
        self._in_flight_rows: set[int] = set()
        self._in_flight_sorted: np.ndarray | None = None  # rebuilt lazily
        self._row_of: dict[int, int] = {
            int(cid): i for i, cid in enumerate(self.ids)
        }
        # Equal-occupancy compute-speed classes (quantile pacing's deadline
        # classes): sort by (speed, client_id), cut into contiguous groups.
        self.num_classes = max(1, min(num_classes, n or 1))
        self.classes = np.zeros(n, dtype=np.int16)
        if n:
            order = np.lexsort((self.ids, speed))
            self.classes[order] = np.minimum(
                np.arange(n, dtype=np.int64) * self.num_classes // n,
                self.num_classes - 1,
            ).astype(np.int16)
        self.stats = RoundTimeStats(self.num_classes, rt_window)
        self._round = 0
        self.evicted_total = 0

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        return int(self.ids.size)

    def __len__(self) -> int:
        return self.num_rows

    def __contains__(self, client_id: int) -> bool:
        return int(client_id) in self._row_of

    def row_of(self, client_id: int) -> int:
        return self._row_of[int(client_id)]

    def rows_of(self, client_ids: Iterable[int]) -> np.ndarray:
        ro = self._row_of
        ids = list(client_ids)
        return np.fromiter((ro[int(c)] for c in ids), dtype=np.int64, count=len(ids))

    def class_of_id(self, client_id: int) -> int:
        """Device class of a registered client; ``KeyError`` for any other id."""
        return int(self.classes[self._row_of[int(client_id)]])

    def clients_at(self, rows: np.ndarray) -> "list[FLClient]":
        if self._clients is None:
            raise ValueError(
                "this store was built from columns (no client objects); "
                "use take_rows()/ids for selection results"
            )
        cl = self._clients
        return [cl[int(r)] for r in rows]

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def view(self) -> FleetView:
        """All registered rows, in registration order."""
        return FleetView(self)

    def available_view(self) -> FleetView:
        """Rows not currently in flight — the dispatch-wave candidate pool.

        O(in_flight · log in_flight) to produce (the exclusion array),
        never O(registered); candidate order is registration order, the
        same order the old ``[c for c in clients if ...]`` rebuild yielded.
        """
        if not self._in_flight_rows:
            return FleetView(self)
        if self._in_flight_sorted is None:
            self._in_flight_sorted = np.fromiter(
                sorted(self._in_flight_rows),
                dtype=np.int64,
                count=len(self._in_flight_rows),
            )
        return FleetView(self, excluded=self._in_flight_sorted)

    # ------------------------------------------------------------------
    # in-flight bookkeeping (async engine)
    # ------------------------------------------------------------------
    def mark_in_flight(self, client_id: int) -> None:
        row = self._row_of[int(client_id)]
        self._in_flight[row] = True
        self._in_flight_rows.add(row)
        self._in_flight_sorted = None

    def clear_in_flight(self, client_id: int) -> None:
        row = self._row_of.get(int(client_id))
        if row is not None and self._in_flight[row]:
            self._in_flight[row] = False
            self._in_flight_rows.discard(row)
            self._in_flight_sorted = None

    def set_in_flight_ids(self, client_ids: Iterable[int]) -> None:
        """Reset the in-flight set wholesale (engine checkpoint restore)."""
        self._in_flight[:] = False
        self._in_flight_rows.clear()
        self._in_flight_sorted = None
        for cid in client_ids:
            self.mark_in_flight(cid)

    def in_flight_count(self) -> int:
        return len(self._in_flight_rows)

    def in_flight_ids(self) -> list[int]:
        """Ids of the in-flight clients, ascending (the checkpoint order)."""
        return sorted(int(self.ids[r]) for r in self._in_flight_rows)

    # ------------------------------------------------------------------
    # Oort utility columns
    # ------------------------------------------------------------------
    def max_utility(self) -> float:
        """Running max over live utilities (optimistic init for the unseen)."""
        if not self._has_utility.any():
            return 1.0
        return float(self._utility[self._has_utility].max())

    def utilities(self, rows: np.ndarray, default: float) -> np.ndarray:
        return np.where(
            self._has_utility[rows], self._utility[rows], np.float64(default)
        )

    def observe_utility(
        self,
        round_idx: int,
        client_ids: Sequence[int],
        losses: Sequence[float],
        momentum: float,
    ) -> None:
        """Scatter an EMA update onto the utility column.

        Bit-identical to the sequential dict loop it replaces: the
        vectorized path applies ``(1 - m) * prev + m * loss`` elementwise
        (same IEEE ops), and duplicate client ids in one batch — a
        multi-model assignment delivering several updates — fall back to
        the sequential chain so later updates see earlier ones.
        """
        self._round = max(self._round, int(round_idx))
        if not client_ids:
            return
        rows = self.rows_of(client_ids)
        loss = np.asarray(losses, dtype=np.float64)
        m = momentum
        if len(set(rows.tolist())) == rows.size:
            prev_known = self._has_utility[rows]
            blended = (1.0 - m) * self._utility[rows] + m * loss
            self._utility[rows] = np.where(prev_known, blended, loss)
            self._has_utility[rows] = True
        else:
            for row, x in zip(rows, loss):
                if self._has_utility[row]:
                    self._utility[row] = (1.0 - m) * self._utility[row] + m * float(x)
                else:
                    self._utility[row] = float(x)
                    self._has_utility[row] = True
        self._last_seen[rows] = self._round

    def resident_utilities(self) -> int:
        return int(self._has_utility.sum())

    def advance(self, round_idx: int) -> int:
        """Move the activity clock; evict long-inactive utility state.

        Returns the number of clients whose utility was reset.  Mirrors
        ``ClientStateStore.advance`` (strictly-greater-than comparison,
        ``evict_after=None`` disables), but is one vectorized mask over
        the columns instead of a dict scan — and "eviction" is a column
        reset, so resident memory is already bounded by the fleet columns
        and the evicted client simply rehydrates at the optimistic prior.
        """
        self._round = max(self._round, int(round_idx))
        if self.evict_after is None:
            return 0
        stale = self._has_utility & (
            self._round - self._last_seen > self.evict_after
        )
        count = int(stale.sum())
        if count:
            self._utility[stale] = 0.0
            self._has_utility[stale] = False
        self.evicted_total += count
        return count

    # ------------------------------------------------------------------
    # row removal (deregistration) with in-place compaction
    # ------------------------------------------------------------------
    def remove(self, client_ids: Iterable[int]) -> int:
        """Deregister clients; compact all columns in place, order kept.

        Surviving rows keep their relative (registration) order, so the
        candidate ordering every selector sees — and therefore the
        selection stream at a given RNG state — is exactly the ordering a
        store constructed from the surviving fleet would produce.
        Removing an in-flight client is a bug in the caller (its
        completion event would dangle) and raises.
        """
        rows = [self._row_of[int(c)] for c in set(int(c) for c in client_ids)]
        if not rows:
            return 0
        for r in rows:
            if self._in_flight[r]:
                raise ValueError(
                    f"cannot remove in-flight client {int(self.ids[r])}"
                )
        n = self.num_rows
        keep = np.ones(n, dtype=bool)
        keep[rows] = False
        m = int(keep.sum())
        for name in (
            "ids",
            "classes",
            "_speed",
            "_bandwidth",
            "_num_train",
            "_last_seen",
            "_utility",
            "_has_utility",
            "_in_flight",
        ):
            col = getattr(self, name)
            col[:m] = col[keep]
            setattr(self, name, col[:m])
        if self._clients is not None:
            self._clients = [c for c, k in zip(self._clients, keep) if k]
        self._row_of = {int(cid): i for i, cid in enumerate(self.ids)}
        self._in_flight_rows = set(np.flatnonzero(self._in_flight).tolist())
        self._in_flight_sorted = None
        return n - m

    # ------------------------------------------------------------------
    # vectorized straggler predictor
    # ------------------------------------------------------------------
    def predict_round_times(
        self, rows: np.ndarray, model: "CellModel", trainer: "LocalTrainerConfig"
    ) -> np.ndarray:
        """Vectorized ``estimate_round_time`` over the device columns.

        Same memoized ``macs()``/``nbytes()`` inputs and the same
        elementwise IEEE operation order as the scalar
        ``client_round_time`` arithmetic, so per-row results are
        bit-identical to calling the scalar estimator per client.
        """
        samples = (
            np.minimum(np.int64(trainer.batch_size), self._num_train[rows])
            * np.int64(trainer.local_steps)
        )
        transfer = model.nbytes() / self._bandwidth[rows]
        training = (3 * model.macs()) * samples / self._speed[rows]
        return transfer + training + transfer

    # ------------------------------------------------------------------
    # footprint
    # ------------------------------------------------------------------
    def nbytes(self) -> int:
        """Resident bytes of the columnar state (excludes client objects)."""
        total = 0
        for col in (
            self.ids,
            self.classes,
            self._speed,
            self._bandwidth,
            self._num_train,
            self._last_seen,
            self._utility,
            self._has_utility,
            self._in_flight,
        ):
            total += col.nbytes
        total += self.stats._buf.nbytes
        return total

    # ------------------------------------------------------------------
    # durability (Stateful)
    # ------------------------------------------------------------------
    schema = schema_tag("FleetStore")

    def state_dict(self) -> dict:
        """Trajectory state: row order, activity stamps, utility columns,
        round-time windows.  Device columns and classes are configuration
        (a pure function of the fleet) and are rebuilt at construction."""
        return {
            "schema": self.schema,
            "ids": self.ids.copy(),
            "last_seen": self._last_seen.copy(),
            "utility": self._utility.copy(),
            "has_utility": self._has_utility.copy(),
            "round": self._round,
            "evicted_total": self.evicted_total,
            "stats": self.stats.state_dict(),
        }

    def load_state_dict(self, payload: dict) -> None:
        check_schema(payload, self.schema)
        ids = np.asarray(payload["ids"], dtype=np.int64)
        if ids.size != self.num_rows or not np.array_equal(ids, self.ids):
            # A checkpointed store may have removed rows the freshly
            # constructed one still carries: replay the membership by
            # compacting to the payload's ids (order must match — row
            # order is part of the contract).
            payload_set = set(ids.tolist())
            extra = [int(c) for c in self.ids if int(c) not in payload_set]
            if len(ids) + len(extra) != self.num_rows:
                raise ValueError(
                    "fleet checkpoint names clients outside the constructed fleet"
                )
            self.remove(extra)
            if not np.array_equal(ids, self.ids):
                raise ValueError(
                    "fleet checkpoint row order does not match registration order"
                )
        self._last_seen = np.asarray(payload["last_seen"], dtype=np.int64).copy()
        self._utility = np.asarray(payload["utility"], dtype=np.float64).copy()
        self._has_utility = np.asarray(payload["has_utility"], dtype=bool).copy()
        self._round = int(payload["round"])
        self.evicted_total = int(payload["evicted_total"])
        self.stats.load_state_dict(payload["stats"])
