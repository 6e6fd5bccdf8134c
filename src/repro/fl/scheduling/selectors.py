"""Client selection policies: uniform, availability-aware, utility-skewed.

``uniform`` reproduces the pre-subsystem ``select_uniform`` bit-for-bit
(same ``rng.choice`` call on the coordinator RNG).  ``availability``
models intermittent edge clients — each ``(round, client)`` pair flips a
deterministic seeded coin, and selection draws uniformly from the clients
that are online.  ``oort`` skews selection toward high-recent-loss clients
(the statistical-utility half of Oort, Lai et al. OSDI'21): clients whose
data the current models fit worst are the most informative to train next,
and never-tried clients enter at the current maximum utility so
exploration never starves.

The pool every selector draws from is a
:class:`~repro.fl.scheduling.fleet.FleetView` over the engine's columnar
:class:`~repro.fl.scheduling.fleet.FleetStore`.  Row order is registration
order and registration order is candidate order, so ``rng.choice`` over a
view's positions picks exactly the clients the same call over the
``[c for c in clients if ...]`` list would, with no Python list over the
registered fleet: a view is all rows or one row array (CONTRACTS.md I12;
the list forms are test oracles in ``tests/test_fleet_store.py``).
Per-client selector state lives in the store's columns
(:meth:`ClientSelector.bind_fleet`): Oort's utility EMA is a masked
gather + scatter, and ``evict_after`` inactivity eviction bounds it for
free.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..types import ClientUpdate, FLClient, train_losses
from .availability import AvailabilityModel
from .base import ClientSelector
from .fleet import FleetStore, FleetView

__all__ = [
    "UniformSelector",
    "AvailabilityAwareSelector",
    "OortSelector",
    "uniform_choice",
]

# Salt separating availability draws from every other seeded stream in
# the run (executors derive theirs from SeedSequence spawn keys).
_AVAIL_SALT = np.uint64(0xA11A_5EED_0B5E_11AB)
_U64 = np.uint64


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer over a uint64 array (wrapping arithmetic)."""
    x = x + _U64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> _U64(27))) * _U64(0x94D049BB133111EB)
    return x ^ (x >> _U64(31))


def uniform_choice(
    pool: FleetView, num: int, rng: np.random.Generator
) -> list[FLClient]:
    """Uniform selection without replacement (Algorithm 1's Select).

    Clamps ``num`` to the pool size (the caller records under-provisioning)
    but rejects ``num < 1`` — a silently empty round is a configuration
    error, not a schedule.  One ``rng.choice(len(pool), ...)`` call; the
    view maps the chosen positions straight to rows.
    """
    size = len(pool)
    if size == 0:
        raise ValueError("no registered clients")
    if num < 1:
        raise ValueError(f"cannot select {num} clients; num must be >= 1")
    num = min(num, size)
    return pool.take(rng.choice(size, size=num, replace=False))


class UniformSelector(ClientSelector):
    """The default: uniform without replacement, on the coordinator RNG."""

    name = "uniform"

    def __init__(self, seed: int = 0):
        del seed  # uniform consumes the coordinator RNG; no private stream

    def select(self, round_idx, clients, num, rng):
        return uniform_choice(clients, num, rng)


class AvailabilityAwareSelector(ClientSelector):
    """Uniform selection restricted to the clients online this round.

    Availability is a per-``(round, client)`` Bernoulli draw from a
    counter-based SplitMix64 hash of ``(seed, round, client_id)`` — a
    deterministic function of the run seed that is independent of pool
    order or in-flight composition, so the same client is online in the
    same rounds across backends and repeat runs.  Counter-based (rather
    than one ``SeedSequence``-derived generator per client per wave)
    because a dispatch wave asks about every client in the pool: the whole
    mask is one vectorized hash over the ids, not ``O(pool)`` generator
    constructions.  When fewer than ``num`` clients are online the whole
    online pool is taken, and the engine's round record surfaces the
    shortfall.

    An optional :class:`~repro.fl.scheduling.availability.AvailabilityModel`
    reshapes the *rate* per round and device class (diurnal cycles, trace
    tables); the coin stays the same hash stream, so masks remain pool-order
    and backend invariant.  A fully offline round falls back to the whole
    pool rather than deadlocking — metered in ``offline_fallback_rounds``
    and surfaced on the round's ``SchedulerRecord``.
    """

    name = "availability"
    state_fields = {"offline_fallback_rounds": ("offline_fallback_rounds", int)}

    def __init__(
        self,
        seed: int = 0,
        availability: float = 0.8,
        model: AvailabilityModel | None = None,
    ):
        if not 0.0 < availability <= 1.0:
            raise ValueError("availability must lie in (0, 1]")
        self.seed = seed
        self.availability = availability
        self.model = model
        self.offline_fallback_rounds = 0

    def _rates(self, round_idx: int, classes: np.ndarray | None):
        if self.model is None:
            return self.availability
        return self.model.rates(round_idx, classes)

    def _online_mask(
        self,
        round_idx: int,
        client_ids: np.ndarray,
        classes: np.ndarray | None = None,
    ) -> np.ndarray:
        with np.errstate(over="ignore"):  # wrapping uint64 arithmetic is the point
            base = _splitmix64(
                np.asarray([self.seed], dtype=np.uint64) ^ _AVAIL_SALT
            ) ^ _splitmix64(np.asarray([round_idx], dtype=np.uint64))
            draws = _splitmix64(client_ids.astype(np.uint64) ^ base)
        # Top 53 bits -> uniform double in [0, 1).
        return (draws >> _U64(11)) / float(1 << 53) < self._rates(round_idx, classes)

    def select(self, round_idx, clients, num, rng):
        if num < 1:
            raise ValueError(f"cannot select {num} clients; num must be >= 1")
        classes = None
        if self.model is not None and self.model.uses_classes:
            classes = clients.classes
        mask = self._online_mask(round_idx, clients.ids, classes)
        if mask.any():
            online = clients.restrict(mask)
        else:
            # A fully offline round would stall the engine; fall back
            # to the offline pool rather than deadlock (surfaced as
            # offline_fallback_rounds on the SchedulerRecord).
            self.offline_fallback_rounds += 1
            online = clients
        return uniform_choice(online, min(num, len(online)), rng)


class OortSelector(ClientSelector):
    """Utility-skewed selection (Oort's statistical utility, simplified).

    Keeps an exponential moving average of each client's training loss;
    selection samples without replacement with probability proportional to
    ``(floor + utility) ** alpha``.  Unseen clients enter at the running
    maximum utility (optimistic initialization), which is what keeps the
    policy exploring the long tail instead of re-picking early winners.
    The full Oort also divides by observed system speed; our simulated
    fleets express slowness through the pacing/straggler policies instead,
    so this selector stays purely statistical.

    Utilities live in the utility column of the
    :class:`~repro.fl.scheduling.fleet.FleetStore` handed to
    :meth:`bind_fleet` (the coordinator binds before the first round):
    ``_weights`` is a masked gather, ``observe_round`` a scatter, and the
    store's ``evict_after`` inactivity eviction bounds the resident state
    at O(fleet columns) with churned clients rehydrating at the optimistic
    prior.
    """

    name = "oort"
    # The utilities are the bound fleet store's columns and travel in its
    # payload; alpha and momentum are configuration.
    state_fields = {}

    def __init__(self, seed: int = 0, alpha: float = 2.0, momentum: float = 0.5):
        del seed  # samples on the coordinator RNG, like uniform
        if alpha < 0:
            raise ValueError("alpha must be non-negative")
        if not 0.0 < momentum <= 1.0:
            raise ValueError("momentum must lie in (0, 1]")
        self.alpha = alpha
        self.momentum = momentum
        self._fleet: FleetStore | None = None

    def bind_fleet(self, fleet: FleetStore) -> None:
        self._fleet = fleet

    def _weights(self, pool: FleetView) -> np.ndarray:
        u = self._fleet.utilities(pool.rows(), self._fleet.max_utility())
        # Floor keeps every probability positive (sampling without
        # replacement needs full support even for converged clients).
        w = (1e-6 + np.maximum(u, 0.0)) ** self.alpha
        return w / w.sum()

    def select(self, round_idx, clients, num, rng):
        size = len(clients)
        if size == 0:
            raise ValueError("no registered clients")
        if num < 1:
            raise ValueError(f"cannot select {num} clients; num must be >= 1")
        num = min(num, size)
        return clients.take(
            rng.choice(size, size=num, replace=False, p=self._weights(clients))
        )

    def observe_round(self, round_idx: int, updates: Iterable[ClientUpdate]) -> None:
        ups = list(updates)
        self._fleet.observe_utility(
            round_idx, [u.client_id for u in ups], train_losses(round_idx, ups), self.momentum
        )
