"""Policy interfaces of the scheduling subsystem.

Who participates, when the server aggregates, and what happens to a
predicted-late client used to be inline coordinator code (a bare
``select_uniform`` call, a hard-coded global ``deadline_s`` drop, a static
``buffer_k``).  This package makes the three decisions first-class
policies:

* :class:`ClientSelector` — which clients join a round / dispatch wave.
* :class:`PacingPolicy` — how many arrivals trigger a buffered
  aggregation (``buffer_k``) and the per-client deadline after which the
  server stops waiting.
* :class:`StragglerPolicy` — what to do with a client whose *predicted*
  round time exceeds its deadline, decided at dispatch time (before any
  compute is spent).

**Determinism contract.** Policies must not introduce hidden
nondeterminism: any randomness either consumes the coordinator RNG passed
into the hook (the default uniform selector) or derives from
``np.random.SeedSequence(seed, spawn_key=...)`` streams owned by the
policy (the availability selector).  The default stack — ``uniform``
selection, ``static`` pacing, ``drop`` stragglers — consumes the
coordinator RNG in exactly the pre-subsystem order, so default-config runs
stay bit-identical to the inline implementation they replaced.

Feedback flows through ``observe_*`` hooks: the engines call them with
completed updates and arrival timings, never mid-decision, so a policy
cannot perturb the work it is currently scheduling.

**Durability contract.** Every policy is :class:`~repro.stateful.Stateful`:
the ABCs inherit the empty declaration (a bare schema tag) for stateless
policies (uniform, oort, static, drop, downsize), and stateful ones (the
availability selector, adaptive / quantile pacing) declare their fields so
a resumed run replays the exact trajectory an uninterrupted one would have taken.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Iterable, Mapping

import numpy as np

from ...device.latency import client_round_time
from ...nn.model import CellModel
from ...stateful import Stateful
from ..client import LocalTrainerConfig
from ..types import ClientUpdate, FLClient
from .fleet import FleetStore, FleetView

__all__ = [
    "ClientSelector",
    "PacingPolicy",
    "StragglerPolicy",
    "estimate_round_time",
]


def estimate_round_time(
    client: FLClient, model: CellModel, trainer: LocalTrainerConfig
) -> float:
    """Predicted download + train + upload seconds for one work item.

    Exactly the arithmetic :class:`~repro.fl.client.LocalTrainer` uses for
    the realized ``ClientUpdate.round_time`` (same memoized ``macs()`` /
    ``nbytes()`` accessors, same effective batch size), so a straggler
    policy that admits a client under this estimate is never contradicted
    by the simulated clock afterwards.
    """
    return client_round_time(
        client.device,
        model.macs(),
        model.nbytes(),
        min(trainer.batch_size, client.data.num_train),
        trainer.local_steps,
    )


class ClientSelector(Stateful, ABC):
    """Chooses the participants of a round (sync) or dispatch wave (async)."""

    name: str = "selector"
    # Selection calls that found nobody online and fell back to the whole
    # pool; only the availability selector ever advances it.
    offline_fallback_rounds: int = 0

    def bind_fleet(self, fleet: FleetStore) -> None:
        """Attach the engine's columnar :class:`FleetStore`.

        Stateless selectors ignore it; oort keeps its per-client state in
        the store's columns, so selection is a vectorized gather and
        ``evict_after`` eviction bounds it.
        """

    @abstractmethod
    def select(
        self,
        round_idx: int,
        clients: FleetView,
        num: int,
        rng: np.random.Generator,
    ) -> list[FLClient]:
        """Pick up to ``num`` participants from ``clients``.

        ``clients`` is the currently eligible pool as a columnar
        :class:`~repro.fl.scheduling.fleet.FleetView` (the whole fleet in
        sync mode; the async engine excludes in-flight rows).  Positions
        follow registration order, which is the candidate order the
        selection stream is defined over (CONTRACTS.md I12).
        Implementations clamp to the pool size — the caller surfaces
        under-provisioning in the round record — but must raise on
        ``num < 1`` or an empty pool.
        """

    def observe_round(self, round_idx: int, updates: Iterable[ClientUpdate]) -> None:
        """Feedback hook: the round's completed updates (post-aggregation)."""


class PacingPolicy(Stateful, ABC):
    """Controls aggregation cadence (``buffer_k``) and per-client deadlines."""

    name: str = "pacing"

    @abstractmethod
    def buffer_k(self, step_idx: int) -> int:
        """Arrivals that trigger aggregation step ``step_idx``."""

    @abstractmethod
    def deadline_for(self, client: FLClient) -> float | None:
        """Seconds after dispatch before this client's slot is reclaimed.

        ``None`` disables the deadline (the server waits indefinitely).
        """

    def observe_arrival(
        self, client_id: int, duration: float, now: float, dropped: bool
    ) -> None:
        """Feedback hook: one completed work item.

        ``duration`` is the client's *true* simulated round time (even for
        dropped arrivals, whose event fired at the deadline instead) and
        ``now`` the simulated clock at the event.
        """

    def deadline_quantiles(self) -> tuple[float, ...]:
        """Currently active per-class deadlines, for scheduler metrics."""
        return ()


class StragglerPolicy(Stateful, ABC):
    """Decides the fate of a predicted-late client at dispatch time."""

    name: str = "straggler"

    @abstractmethod
    def resolve(
        self,
        client: FLClient,
        model_ids: list[str],
        deadline: float | None,
        models: Mapping[str, CellModel],
        trainer: LocalTrainerConfig,
        compatible_fn: Callable[[FLClient], list[str]],
    ) -> tuple[list[str], bool]:
        """Return ``(assignment, downsized)`` for one dispatch.

        Called before any training runs.  ``model_ids`` is the strategy's
        assignment; a policy may substitute a cheaper one (``downsized``
        True) or leave it alone, in which case an arrival past ``deadline``
        is dropped by the engine exactly as before this subsystem existed.
        ``compatible_fn`` is :meth:`Strategy.compatible_models` — the
        substitute must come from the client's compatible set.
        """

    def resolve_wave(
        self,
        clients: list[FLClient],
        assignments: Mapping[int, list[str]],
        deadlines: Mapping[int, float | None],
        models: Mapping[str, CellModel],
        trainer: LocalTrainerConfig,
        compatible_fn: Callable[[FLClient], list[str]],
        fleet: FleetStore,
    ) -> dict[int, tuple[list[str], bool]]:
        """Resolve one whole dispatch wave: ``{client_id: (assignment, downsized)}``.

        The default loops :meth:`resolve` per client in wave order.
        Policies with a vectorizable predicate (downsize's predicted-late
        prescreen) override this and batch the estimates over ``fleet`` —
        the engine's columnar
        :class:`~repro.fl.scheduling.fleet.FleetStore`, which holds every
        client of the wave; results must match the per-client loop exactly.
        """
        del fleet
        return {
            client.client_id: self.resolve(
                client,
                assignments[client.client_id],
                deadlines[client.client_id],
                models,
                trainer,
                compatible_fn,
            )
            for client in clients
        }
