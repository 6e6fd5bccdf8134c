"""Columnar (structure-of-arrays) fleet store for vectorized scheduling.

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
* in-flight flag (bool) — the async engine's dispatched-but-unfinished
  clients.
* device columns (compute speed, bandwidth, local train-set size) — the
  inputs of the vectorized straggler predictor
  (:meth:`FleetStore.predict_round_times`).
* per-class round-time ring buffers (:class:`RoundTimeStats`) — the
  sliding windows quantile pacing estimates deadlines from.

Rows are fixed at registration: nothing adds or removes one after
construction.  The dispatch-wave candidate pool is one vectorized pass
over the in-flight column (``np.flatnonzero(~in_flight)``: the free rows,
ascending, which is registration order), never a Python loop over the
registered set.  The store is :class:`~repro.stateful.Stateful`; a
checkpoint names exactly the constructed fleet, in order, and its reader
refuses any other payload (CONTRACTS.md I9/I12).
"""

from __future__ import annotations

import bisect
import math
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from ...stateful import Stateful, check_schema, checked, checked_array, naming

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ...nn.model import CellModel
    from ..client import LocalTrainerConfig
    from ..types import FLClient

__all__ = ["FleetStore", "FleetView", "RoundTimeStats"]


class RoundTimeStats(Stateful):
    """Per-class sliding windows of completed round times, as ring buffers.

    One ``(num_classes, window)`` float64 array plus write cursors holds
    the windows in arrival order (a full ring overwrites its oldest entry,
    exactly a ``deque(maxlen=window)``'s eviction).  Beside each ring sits
    a sorted copy of the same samples: an observation is one scatter
    write, one ``bisect`` delete of the evicted sample and one ``insort``,
    and a quantile is an O(1) read of two order statistics, interpolated
    exactly as NumPy's ``quantile`` (``method="linear"``) does, so
    estimates are bit-identical to it over the window.  The sorted copies
    are derived state: rebuilt on load, never checkpointed.
    """

    def __init__(self, num_classes: int, window: int):
        if num_classes < 1:
            raise ValueError("num_classes must be >= 1")
        if window < 1:
            raise ValueError("window must be >= 1")
        self.num_classes = num_classes
        self.window = window
        self._buf = np.zeros((num_classes, window), dtype=np.float64)
        self._pos = np.zeros(num_classes, dtype=np.int64)
        self._sorted: list[list[float]] = [[] for _ in range(num_classes)]

    def observe(self, cls: int, duration: float) -> None:
        duration = _duration(cls, duration)
        pos = int(self._pos[cls])
        window = self._sorted[cls]
        if len(window) == self.window:  # full ring: its oldest sample leaves
            del window[bisect.bisect_left(window, float(self._buf[cls, pos]))]
        bisect.insort(window, duration)
        self._buf[cls, pos] = duration
        self._pos[cls] = (pos + 1) % self.window

    def count(self, cls: int) -> int:
        return len(self._sorted[cls])

    def quantile(self, cls: int, q: float) -> float:
        """NumPy's ``quantile(window, q)`` as a float, step for step: the
        virtual index ``(k - 1) * q``, its floor (both neighbours the
        maximum at or past the last index), and ``_lerp``'s two-sided
        interpolation."""
        window = self._sorted[cls]
        k = len(window)
        if k == 0:
            raise ValueError(f"class {cls} has no observations")
        virtual = (k - 1) * q
        if virtual >= k - 1:
            lo = hi = k - 1
            gamma = virtual + 1.0  # numpy's clamped floor is index -1
        else:
            lo = math.floor(virtual)
            hi = lo + 1
            gamma = virtual - lo
        a, b = window[lo], window[hi]
        diff = b - a
        if gamma >= 0.5:
            return b - diff * (1 - gamma)
        return a + diff * gamma

    def chronological(self) -> list[list[float]]:
        """Per-class samples oldest-first (the deque serialization order)."""
        out: list[list[float]] = []
        for cls in range(self.num_classes):
            k = len(self._sorted[cls])
            pos = int(self._pos[cls])
            if k < self.window:
                vals = self._buf[cls, :k]
            else:  # full ring: oldest entry sits at the write cursor
                vals = np.concatenate([self._buf[cls, pos:], self._buf[cls, :pos]])
            out.append([float(v) for v in vals])
        return out

    # Embedded in the FleetStore payload rather than checkpointed standalone.
    def state_dict(self) -> dict:
        return {"schema": self.schema, "durations": self.chronological()}

    def load_state_dict(self, payload: dict) -> None:
        """Restore the windows; a payload this class could not have written
        (a sample that is not a finite, non-negative JSON number, or more
        samples than the window holds) is a ``ValueError`` naming the
        class, before anything changes."""
        check_schema(payload, self.schema, ("durations",))
        with naming(self.schema, "durations"):
            durations = payload["durations"]
            if not isinstance(durations, list):
                raise ValueError("RoundTimeStats: durations must be a list per device class")
            if len(durations) != self.num_classes:
                raise ValueError(
                    f"payload has {len(durations)} device classes; "
                    f"these stats were built with {self.num_classes}"
                )
            windows = []
            for cls, samples in enumerate(durations):
                if not isinstance(samples, list):
                    raise ValueError(f"RoundTimeStats class {cls}: samples must be a list")
                if len(samples) > self.window:
                    raise ValueError(
                        f"RoundTimeStats class {cls}: {len(samples)} samples "
                        f"overflow a window of {self.window}"
                    )
                windows.append([_duration(cls, x) for x in samples])
        self._buf[:] = 0.0
        for cls, vals in enumerate(windows):
            k = len(vals)
            self._buf[cls, :k] = vals
            self._pos[cls] = k % self.window
            self._sorted[cls] = sorted(vals)


def _duration(cls: int, value) -> float:
    """A round time as a window stores it: a finite, non-negative number
    (a NaN would make the class's deadline NaN; bools and strings are not
    numbers), and -0.0 stored as 0.0 (a sum of positive terms has no sign
    of zero, and mixed zeros would order ties unlike ``np.quantile``)."""
    if type(value) is bool or not isinstance(value, (int, float)):
        raise ValueError(f"RoundTimeStats class {cls}: {value!r} is not a number")
    try:
        duration = float(value)
    except OverflowError:  # an int past float's range
        duration = math.inf
    if not 0.0 <= duration < math.inf:
        raise ValueError(
            f"RoundTimeStats class {cls}: a round time must be finite and "
            f"non-negative, got {duration!r}"
        )
    return duration + 0.0


class FleetView:
    """A read-only window onto a subset of a :class:`FleetStore`'s rows.

    Two shapes: all rows (``rows is None``: zero-copy, ``ids`` and
    ``classes`` are the store's own columns and a position is a row) and
    an explicit row array (:meth:`FleetStore.available_view`'s free rows,
    or a :meth:`restrict` subset), positions in its order.
    """

    __slots__ = ("store", "_rows")

    def __init__(self, store: "FleetStore", rows: np.ndarray | None = None):
        self.store = store
        self._rows = rows

    def __len__(self) -> int:
        if self._rows is not None:
            return int(self._rows.size)
        return self.store.num_rows

    def rows(self) -> np.ndarray:
        """Physical row indices, materialized."""
        if self._rows is not None:
            return self._rows
        return np.arange(self.store.num_rows, dtype=np.int64)

    @property
    def ids(self) -> np.ndarray:
        if self._rows is None:
            return self.store.ids
        return self.store.ids[self._rows]

    @property
    def classes(self) -> np.ndarray:
        if self._rows is None:
            return self.store.classes
        return self.store.classes[self._rows]

    def take_rows(self, positions: np.ndarray) -> np.ndarray:
        """Physical rows for ``positions`` into this view's ordering."""
        positions = np.asarray(positions)
        if self._rows is not None:
            return self._rows[positions]
        return positions

    def take(self, positions: np.ndarray) -> "list[FLClient]":
        return self.store.clients_at(self.take_rows(positions))

    def restrict(self, mask: np.ndarray) -> "FleetView":
        """Subview of the positions where ``mask`` is True (order kept)."""
        return FleetView(self.store, rows=self.rows()[np.asarray(mask, dtype=bool)])


class FleetStore(Stateful):
    """Structure-of-arrays registry of the client fleet.

    Construct from the client list (registration order becomes row order)
    or, for object-free scale tests, :meth:`from_columns`.  ``evict_after``
    bounds the *utility* columns the way it bounds FedTrans's utility
    table (:class:`~repro.core.ClientManager`): a client unseen for more
    than ``evict_after`` rounds has its utility EMA reset to the unseen
    state (it re-enters at the optimistic prior on next selection), so
    selector state stays proportional to the active fleet no matter how
    many clients ever participated.  Row membership is fixed at
    construction.
    """

    def __init__(
        self,
        clients: "Sequence[FLClient] | None" = None,
        *,
        evict_after: int | None = None,
        num_classes: int = 4,
        rt_window: int = 256,
    ):
        clients = list(clients or [])
        self._init_columns(
            np.array([c.client_id for c in clients], dtype=np.int64),
            np.array([c.device.compute_speed for c in clients], dtype=np.float64),
            np.array([c.device.bandwidth for c in clients], dtype=np.float64),
            np.array([c.data.num_train for c in clients], dtype=np.int64),
            evict_after,
            num_classes,
            rt_window,
        )
        self._clients: list | None = clients

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
        ids = np.asarray(ids, dtype=np.int64)
        ones = np.ones(ids.size, dtype=np.float64)
        store._init_columns(
            ids,
            ones if compute_speed is None else np.asarray(compute_speed, dtype=np.float64),
            ones if bandwidth is None else np.asarray(bandwidth, dtype=np.float64),
            np.asarray(ones if num_train is None else num_train, dtype=np.int64),
            evict_after,
            num_classes,
            rt_window,
        )
        store._clients = None
        return store

    def _init_columns(
        self,
        ids: np.ndarray,
        speed: np.ndarray,
        bandwidth: np.ndarray,
        num_train: np.ndarray,
        evict_after: int | None,
        num_classes: int,
        rt_window: int,
    ) -> None:
        if evict_after is not None and evict_after < 1:
            raise ValueError("evict_after must be >= 1 (None disables eviction)")
        self.evict_after = evict_after
        self.ids = ids
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

        One vectorized pass over the in-flight column; the free rows come
        out ascending, which is registration order, the same order the old
        ``[c for c in clients if ...]`` rebuild yielded.
        """
        return FleetView(self, rows=np.flatnonzero(~self._in_flight))

    # ------------------------------------------------------------------
    # in-flight bookkeeping (async engine)
    # ------------------------------------------------------------------
    def mark_in_flight(self, client_id: int) -> None:
        self._in_flight[self._row_of[int(client_id)]] = True

    def clear_in_flight(self, client_id: int) -> None:
        """Clear a registered client's flag (a no-op if it is not in
        flight); an unregistered id is a ``KeyError``."""
        self._in_flight[self._row_of[int(client_id)]] = False

    def set_in_flight_ids(self, client_ids: Iterable[int]) -> None:
        """Reset the in-flight set wholesale (engine checkpoint restore)."""
        rows = self.rows_of(client_ids)
        self._in_flight[:] = False
        self._in_flight[rows] = True

    def in_flight_count(self) -> int:
        return int(np.count_nonzero(self._in_flight))

    def in_flight_ids(self) -> list[int]:
        """Ids of the in-flight clients, ascending (the checkpoint order)."""
        return sorted(self.ids[self._in_flight].tolist())

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
        ``ClientManager.advance_round`` (strictly-greater-than comparison,
        ``evict_after=None`` disables), but "eviction" here is a column
        reset rather than a dropped row: fleet rows are registration, so
        resident memory is already bounded by the fleet columns and the
        evicted client simply rehydrates at the optimistic prior.
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
        """Restore the trajectory state from a payload this fleet could have
        written: ``ids`` exactly the constructed fleet, in registration
        order (rows are fixed at construction); each column 1-D, as long as
        the fleet and of its own dtype; utilities finite; ``round`` and
        ``evicted_total`` non-negative ints.  Anything else is a
        ``ValueError`` naming the field, before anything changes."""
        check_schema(
            payload, self.schema,
            ("ids", "last_seen", "utility", "has_utility", "round", "evicted_total", "stats"),
        )
        ids, last_seen, utility, has_utility = (
            checked_array(self.schema, payload, name, dtype, (self.num_rows,))
            for name, dtype in (
                ("ids", np.int64), ("last_seen", np.int64),
                ("utility", np.float64), ("has_utility", np.bool_),
            )
        )
        if not np.array_equal(ids, self.ids):
            raise ValueError(
                f"{self.schema} ids: a fleet checkpoint must name exactly the "
                "constructed fleet, in registration order"
            )
        if not np.isfinite(utility).all():
            raise ValueError(f"{self.schema} utility: holds a non-finite value")
        round_idx, evicted_total = (
            checked(self.schema, payload, key, int) for key in ("round", "evicted_total")
        )
        with naming(self.schema, "stats"):
            self.stats.load_state_dict(payload["stats"])
        self._last_seen = last_seen.copy()
        self._utility = utility.copy()
        self._has_utility = has_utility.copy()
        self._round = round_idx
        self.evicted_total = evicted_total

