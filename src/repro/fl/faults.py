"""Deterministic fault injection, bounded recovery, and update quarantine.

FedTrans targets fleets of flaky edge clients, but until this module the
engine only survived the failures the paper models (stragglers, deadline
drops): a worker-process crash, a torn shared-memory segment, or a
NaN-poisoned client update killed or corrupted the whole run.  This module
supplies the three pieces of the fault-tolerance story:

* **Deterministic fault injection** — :class:`FaultPlan` draws every fault
  decision from ``SeedSequence(seed, spawn_key=(FAULT_DOMAIN, round,
  client, sub))``, a private integer domain tag beside the work-item RNG's
  ``(round, client, sub)`` spawn keys, so a chaos run is replayable
  bit-for-bit: the same spec + seed injects the same crashes at the same
  work items on every backend.  Faults are drawn **once per item** (at
  attempt 0); a retried item runs clean, which is what lets a recovered
  run converge back onto the fault-free trajectory.
* **Bounded recovery** — :class:`RetryPolicy` caps attempts per work item
  and charges exponential backoff into the item's *simulated* round time
  (``VirtualClock`` seconds, never wall-clock — CONTRACTS.md I2) for
  task-level failures.  Infrastructure faults (worker crash, shm
  attach/publish) cost **zero** simulated time on recovery: the fleet's
  devices did not run slower because the coordinator's pool died, and
  charging nothing is precisely what makes a crash-recovered run
  bit-identical to the fault-free run at the same seed (CONTRACTS.md
  I10).  An item that exhausts its attempts becomes an
  :class:`ItemFailure` sentinel in the executor's result slot; the
  coordinator folds it into the drop/straggler accounting instead of
  aborting the round.
* **Update quarantine** — :class:`UpdateValidator` screens every client
  update before aggregation: a NaN/Inf scan over params/state plus a
  norm-outlier gate keyed off a running per-model norm estimate.  Rejects
  divert into the quarantine ledger (``TrainingLog.quarantined_updates`` +
  :class:`~repro.fl.types.FaultRecord`) rather than Eq. 5.  The gate never
  perturbs a clean run: validation mutates nothing it accepts, so a run
  with quarantine enabled and no poisoned updates is bit-identical to the
  same run with it disabled.

The five injectable fault kinds (spec string ``"kind=rate,..."``):

========  ==============================================================
``crash``   SIGKILL the worker process mid-task (process backend); on
            serial/thread the same decision raises
            :class:`InjectedWorkerCrash` (an infrastructure fault — the
            in-process stand-in for a dead worker).
``exc``     raise :class:`InjectedTaskError` from the work function (a
            task-level fault: retries charge simulated backoff).
``shm``     shared-memory failure: worker-side the item's attach raises
            :class:`InjectedShmFault` before the snapshot segment loads;
            coordinator-side each publish ordinal may fail once and is
            retried (process backend only for the publish half).
``hang``    the client's simulated round time is multiplied by
            ``hang_factor`` — a deterministic virtual-time hang that
            pushes the arrival past async deadlines and into the
            existing straggler/drop accounting.  (Real wall-clock task
            timeouts would violate I2; the engine's notion of a timeout
            *is* the virtual deadline.)
``poison``  the returned update's parameters are overwritten with NaN
            (or +inf, a second deterministic draw) after training — the
            quarantine gate's target.
========  ==============================================================
"""

from __future__ import annotations

import math
import os
import signal
from dataclasses import dataclass

import numpy as np

from ..stateful import Stateful
from .transport import spec_number
from .types import ClientUpdate

__all__ = [
    "FAULT_KINDS",
    "FaultConfig",
    "FaultPlan",
    "ItemFaults",
    "RetryPolicy",
    "ItemFailure",
    "QuarantineConfig",
    "UpdateValidator",
    "InjectedFault",
    "InjectedWorkerCrash",
    "InjectedTaskError",
    "InjectedShmFault",
    "SnapshotChainError",
    "is_infrastructure_fault",
    "fault_kind",
]

FAULT_KINDS = ("crash", "exc", "shm", "hang", "poison")

# Integer domain tag separating fault draws from work-item RNG streams.
# SeedSequence spawn keys are integer tuples; the work items use
# (round, client, sub) directly, so any distinct leading tag keeps the
# fault streams disjoint from every training stream.
FAULT_DOMAIN = 0xFA017
# Sub-domain for coordinator-side snapshot-publish faults (keyed by
# publish ordinal, not by work item).
PUBLISH_DOMAIN = 0x9B15


class InjectedFault(RuntimeError):
    """Base class of every deterministically injected failure."""


class InjectedWorkerCrash(InjectedFault):
    """Stand-in for a dead worker on backends with no process to kill."""


class InjectedTaskError(InjectedFault):
    """A task-level exception raised from inside the work function."""


class InjectedShmFault(InjectedFault):
    """A simulated shared-memory attach or publish failure."""


class SnapshotChainError(RuntimeError):
    """A worker could not attach the published snapshot segment.

    Raised with the expected ``(version, segment)`` and the segment the
    worker has attached (the opaque ``FileNotFoundError`` this replaces
    named neither).  Classified as an infrastructure fault: after a pool
    heal republishes a fresh segment, a re-dispatched item should not see
    it again — and recovering from it must not charge simulated time.
    """


def is_infrastructure_fault(err: BaseException) -> bool:
    """Whether recovering from ``err`` is free in simulated time.

    Infrastructure faults happen to the *coordinator's* machinery (dead
    pool, torn segment) — the simulated fleet never observed them, so
    retries charge no virtual-clock backoff and a recovered run stays
    bit-identical to a fault-free one.  Task-level failures happened "on
    the device" and their retries cost simulated backoff time.
    """
    return isinstance(err, (InjectedWorkerCrash, InjectedShmFault, SnapshotChainError))


def fault_kind(err: BaseException) -> str:
    """Ledger kind for an exception a recovery action handled."""
    if isinstance(err, InjectedWorkerCrash):
        return "worker_crash"
    if isinstance(err, (InjectedShmFault, SnapshotChainError)):
        return "shm"
    return "task_error"


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FaultConfig:
    """Per-kind injection rates in [0, 1] plus the hang multiplier.

    Built from a ``--faults`` spec string like ``"crash=0.05,poison=0.2"``
    (unnamed kinds default to 0); :meth:`spec` round-trips the canonical
    form, which is what the run-registry config hash sees.
    """

    crash: float = 0.0
    exc: float = 0.0
    shm: float = 0.0
    hang: float = 0.0
    poison: float = 0.0
    hang_factor: float = 10.0

    def __post_init__(self) -> None:
        for kind in FAULT_KINDS:
            rate = getattr(self, kind)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"fault rate {kind}={rate!r} must lie in [0, 1]")
        if not 1.0 < self.hang_factor < math.inf:
            raise ValueError(
                f"hang_factor must be finite and exceed 1 (it multiplies "
                f"round time), got {self.hang_factor!r}"
            )

    @classmethod
    def parse(cls, spec: str) -> "FaultConfig":
        """Parse ``"kind=rate,kind=rate,..."`` (``hang_factor=`` allowed)."""
        values: dict[str, float] = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            key, sep, raw = part.partition("=")
            key = key.strip()
            if not sep or key not in (*FAULT_KINDS, "hang_factor"):
                raise ValueError(
                    f"bad --faults entry {part!r}; expected kind=rate with "
                    f"kind in {(*FAULT_KINDS, 'hang_factor')}"
                )
            if key in values:
                raise ValueError(f"duplicate --faults entry for {key!r}")
            try:
                values[key] = float(raw)
            except ValueError:
                raise ValueError(f"bad --faults rate {raw!r} for {key!r}") from None
        if not values:
            raise ValueError(f"empty --faults spec {spec!r}")
        return cls(**values)

    def spec(self) -> str:
        """Canonical spec string (kinds in declaration order, zeros elided;
        the all-default config spells one zero rate, since an empty spec
        does not parse): :meth:`parse` reads it back to an equal config."""
        parts = [f"{k}={spec_number(getattr(self, k))}" for k in FAULT_KINDS if getattr(self, k)]
        if self.hang_factor != 10.0:
            parts.append(f"hang_factor={spec_number(self.hang_factor)}")
        return ",".join(parts) or f"{FAULT_KINDS[0]}=0"

    def any_enabled(self) -> bool:
        return any(getattr(self, k) for k in FAULT_KINDS)


@dataclass(frozen=True)
class ItemFaults:
    """The fault decision for one work item: which kinds fire this attempt."""

    crash: bool = False
    exc: bool = False
    shm: bool = False
    hang: bool = False
    poison: bool = False
    poison_inf: bool = False
    hang_factor: float = 10.0
    item: str = ""

    def fire_pre(self, worker_side: bool) -> None:
        """Raise (or kill the process) for the pre-training fault kinds.

        Order is fixed — shm, crash, exc — so the same decision produces
        the same failure classification on every backend.  ``worker_side``
        selects a real SIGKILL for ``crash`` (the pool worker dies
        mid-task and the coordinator sees ``BrokenProcessPool``); in-process
        backends raise :class:`InjectedWorkerCrash` instead, which the
        retry path classifies identically (infrastructure, zero simulated
        cost).
        """
        if self.shm:
            raise InjectedShmFault(f"injected shm attach failure for {self.item}")
        if self.crash:
            if worker_side:
                os.kill(os.getpid(), signal.SIGKILL)
            raise InjectedWorkerCrash(f"injected worker crash for {self.item}")
        if self.exc:
            raise InjectedTaskError(f"injected task exception for {self.item}")

    def apply_post(self, update: ClientUpdate) -> None:
        """Apply the post-training fault kinds to a finished update."""
        if self.hang:
            update.round_time *= self.hang_factor
        if self.poison:
            value = np.inf if self.poison_inf else np.nan
            for arr in update.params.values():
                arr.fill(value)


_CLEAN = ItemFaults()


class FaultPlan:
    """Deterministic per-work-item fault decisions for one run.

    Stateless after construction: every decision is a pure function of
    ``(seed, round, client, sub)``, so coordinator and workers holding the
    same plan agree on every item without any communication — and the
    coordinator can re-derive a crashed item's decision to know which
    re-dispatched item must advance its attempt counter.
    """

    def __init__(self, seed: int, config: FaultConfig):
        self.seed = seed
        self.config = config

    def item_faults(self, round_idx: int, item) -> ItemFaults:
        """The fault decision for one ``TrainItem`` (attempt 0 only).

        A fixed-width draw (one uniform per kind, in :data:`FAULT_KINDS`
        order, plus the poison-value draw) keeps decisions independent
        across kinds: toggling one rate in the spec never shifts another
        kind's stream.
        """
        cfg = self.config
        ss = np.random.SeedSequence(
            self.seed,
            spawn_key=(FAULT_DOMAIN, round_idx, item.client_id, item.sub_idx),
        )
        draws = np.random.default_rng(ss).random(len(FAULT_KINDS) + 1)
        fired = {
            kind: bool(draws[i] < getattr(cfg, kind))
            for i, kind in enumerate(FAULT_KINDS)
        }
        if not any(fired.values()):
            return _CLEAN
        return ItemFaults(
            **fired,
            poison_inf=bool(draws[len(FAULT_KINDS)] < 0.5),
            hang_factor=cfg.hang_factor,
            item=f"(round={round_idx}, client={item.client_id}, sub={item.sub_idx})",
        )

    def publish_fails(self, ordinal: int) -> bool:
        """Whether snapshot publish number ``ordinal`` fails (once)."""
        if not self.config.shm:
            return False
        ss = np.random.SeedSequence(
            self.seed, spawn_key=(FAULT_DOMAIN, PUBLISH_DOMAIN, ordinal)
        )
        return bool(np.random.default_rng(ss).random() < self.config.shm)


# ----------------------------------------------------------------------
# recovery policy + permanent-failure sentinel
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff in *simulated* seconds.

    ``max_attempts`` counts executions, not retries: 3 means the original
    try plus two retries.  ``backoff(n)`` is the simulated delay charged
    before attempt ``n`` (1-based retry count) — added to the item's
    ``round_time`` for task-level failures only (see
    :func:`is_infrastructure_fault`), so in async mode a flaky client's
    retries genuinely push it toward the deadline.
    """

    max_attempts: int = 3
    backoff_s: float = 0.5
    backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff_s < 0:
            raise ValueError(f"backoff_s must be >= 0, got {self.backoff_s}")
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )

    def backoff(self, retry: int) -> float:
        return self.backoff_s * self.backoff_factor ** (retry - 1)


@dataclass(frozen=True)
class ItemFailure:
    """A work item that exhausted its retry budget.

    Returned in the item's result slot (train rounds only — a failed
    evaluation has no graceful degradation and raises instead), so the
    coordinator can exclude exactly the failed clients from aggregation
    while the rest of the round proceeds.
    """

    model_id: str
    client_id: int
    sub_idx: int
    error: str
    attempts: int


# ----------------------------------------------------------------------
# update quarantine
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class QuarantineConfig:
    """Validation gates applied to every update before aggregation.

    ``norm_multiplier`` rejects an update whose parameter L2 norm exceeds
    that multiple of the model's running mean norm (0 disables the gate);
    the estimate warms up over ``min_history`` accepted updates per model
    before it gates anything, so legitimately large early updates pass.
    The NaN/Inf scan is unconditional.
    """

    norm_multiplier: float = 8.0
    min_history: int = 4

    def __post_init__(self) -> None:
        # Stated as what holds: NaN fails every comparison, and a NaN or
        # infinite multiplier would leave the norm gate silently off.
        if not 0 <= self.norm_multiplier < math.inf:
            raise ValueError(
                f"norm_multiplier must be >= 0 and finite (0 disables), "
                f"got {self.norm_multiplier}"
            )
        if self.min_history < 1:
            raise ValueError(f"min_history must be >= 1, got {self.min_history}")


@dataclass
class _NormStats:
    """The running norm statistics of one model's accepted updates."""

    model_id: str
    sum: float
    count: int


class UpdateValidator(Stateful):
    """Screens client updates; accepted ones feed its running norm estimate.

    Deterministic and side-effect-free on rejection: rejected updates
    never contribute to the per-model norm statistics, so one poisoned
    client cannot widen the gate for the next one.  The running state is
    part of the coordinator's checkpoint payload — a resumed run gates
    exactly like the uninterrupted one (CONTRACTS.md I9).
    """

    state_fields = {"norms": ("_norm_list", list[_NormStats])}

    def __init__(self, config: QuarantineConfig | None = None):
        self.config = config or QuarantineConfig()
        self._norms: dict[str, _NormStats] = {}  # accepted updates, by model id

    def admit(self, update: ClientUpdate) -> str | None:
        """``None`` to admit; a human-readable rejection reason otherwise."""
        for scope_name, tree in (("params", update.params), ("state", update.state)):
            for key, arr in tree.items():
                if not np.isfinite(arr).all():
                    # Param keys are prefixed with a per-process clone tag
                    # ("c0003/fc.w"); only the stable suffix may appear in
                    # the rejection reason or event logs diverge across
                    # backends (CONTRACTS.md I10).
                    name = key.rsplit("/", 1)[-1]
                    return (
                        f"non-finite values in {scope_name}[{name}] from "
                        f"client {update.client_id} for model {update.model_id}"
                    )
        norm = math.sqrt(
            sum(float((arr * arr).sum()) for arr in update.params.values())
        )
        cfg = self.config
        mid = update.model_id
        stats = self._norms.get(mid)
        if stats is not None and cfg.norm_multiplier > 0 and stats.count >= cfg.min_history:
            mean = stats.sum / stats.count
            if norm > cfg.norm_multiplier * mean:
                return (
                    f"update norm {norm:.6g} from client {update.client_id} "
                    f"exceeds {cfg.norm_multiplier:g}x the running mean "
                    f"{mean:.6g} for model {mid}"
                )
        if stats is None:
            stats = self._norms[mid] = _NormStats(mid, 0.0, 0)
        stats.sum += norm
        stats.count += 1
        return None

    @property
    def _norm_list(self) -> list[_NormStats]:
        """The statistics in model-id order, the payload's."""
        return sorted(self._norms.values(), key=lambda s: s.model_id)

    @_norm_list.setter
    def _norm_list(self, norms: list[_NormStats]) -> None:
        self._norms = {s.model_id: s for s in norms}

