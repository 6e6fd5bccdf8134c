"""Core datatypes shared across the FL engine."""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np

from ..data.federated import ClientData
from ..device.traces import DeviceTrace
from ..nn.param_ops import ParamTree

__all__ = [
    "FLClient",
    "ClientUpdate",
    "ArrivalRecord",
    "FaultRecord",
    "SchedulerRecord",
    "RoundRecord",
    "EvalRecord",
    "TrainingLog",
]


@dataclass
class FLClient:
    """A registered FL client: local data plus device capabilities."""

    client_id: int
    data: ClientData
    device: DeviceTrace

    @property
    def capacity_macs(self) -> float:
        """The hardware budget T_c used for compatible-model filtering."""
        return self.device.capacity_macs


@dataclass
class ClientUpdate:
    """What one participant returns to the coordinator after local training.

    Algorithm 1's ``ClientTrain`` returns weights ``W``, gradients ``G`` and
    loss ``L``.  An update carries ``W``, ``L`` and the cost accounting; the
    server derives ``G`` from ``W`` (the aggregator's FedAvg pseudo-gradient:
    ``lr * local_steps`` times the mean step gradient under plain SGD, the
    FedOpt pseudo-gradient under momentum or weight decay).
    """

    client_id: int
    model_id: str
    params: ParamTree
    state: ParamTree
    train_loss: float
    num_samples: int
    macs_spent: float
    bytes_down: int
    bytes_up: int
    round_time: float
    # Uncompressed upload size.  ``bytes_up`` is the on-wire count: equal
    # to this unless a transport codec (repro.fl.transport) re-encoded the
    # update, in which case the cost ledger reports both.
    raw_bytes_up: int = 0
    # Init-only and discarded: the frozen harness and parent checkpoints pass it.
    grad: InitVar[ParamTree | None] = None


@dataclass(frozen=True)
class ArrivalRecord:
    """One client's update reaching the server in the async engine.

    ``dispatch_seq`` is the global dispatch counter — event ties at equal
    simulated finish times break on it, which is what makes async runs
    bit-reproducible.  ``staleness`` counts server aggregation steps between
    this work's dispatch and its arrival; ``dropped`` marks an arrival the
    deadline straggler policy discarded (its compute/download cost is still
    metered, its upload never lands); ``downsized`` marks a dispatch the
    straggler policy re-assigned to a smaller compatible model before
    training (``model_ids`` already names the substitute).
    """

    dispatch_seq: int
    client_id: int
    model_ids: tuple[str, ...]
    dispatch_time: float
    finish_time: float
    staleness: int
    dropped: bool
    downsized: bool = False
    # The arrival reached the server but every one of its updates failed
    # validation (NaN/Inf or norm-outlier) and was diverted to the
    # quarantine ledger: costs are metered like a kept arrival (the
    # upload landed), but it buffers nothing toward aggregation.
    quarantined: bool = False


@dataclass(frozen=True)
class FaultRecord:
    """One recovery or quarantine action in the fault ledger.

    ``kind`` classifies the failure (``worker_crash`` / ``task_error`` /
    ``shm`` / ``shm_publish`` / ``update_rejected``); ``action`` records
    what the engine did about it (``pool_rebuild`` / ``retry`` /
    ``failed`` / ``quarantined``).  ``round_idx`` is the training round
    (sync) or aggregation-step/dispatch-wave index (async); -1 for
    actions outside any training round (evaluation waves).  Work-item
    actions carry ``client_id``/``model_id``; pool-level actions leave
    them ``None``.  The ledger exports via
    :func:`~repro.fl.export.recovery_to_dict`, deliberately *outside* the
    run export — recovery telemetry necessarily differs between a faulty
    and a fault-free run whose trajectories are bit-identical
    (CONTRACTS.md I10).
    """

    round_idx: int
    kind: str
    action: str
    client_id: int | None = None
    model_id: str | None = None
    detail: str = ""
    attempts: int = 0


@dataclass(frozen=True)
class SchedulerRecord:
    """What the scheduling subsystem decided for one round/aggregation step.

    ``requested``/``selected`` meter participation supply (``selected <
    requested`` is an under-provisioned round — the fleet or the selector's
    available pool was short).  The async-only fields record the *effective*
    pacing decisions: the ``buffer_k`` this step aggregated on, the global
    deadline (``None`` when disabled), the per-device-class deadline
    quantiles currently active (quantile pacing), and how many dispatches
    the straggler policy downsized.  ``evicted`` counts clients the sparse
    utility store let go this round.  ``offline_fallback_rounds`` counts
    how many selection calls this round found *nobody* online and fell
    back to the full pool rather than deadlock (availability selector
    only) — a nonzero value means the availability model starved the
    round and the participation mix is not what the mask prescribed.
    """

    selector: str
    pacing: str
    straggler: str
    requested: int
    selected: int
    effective_buffer_k: int | None = None
    deadline_s: float | None = None
    deadline_quantiles: tuple[float, ...] = ()
    downsized: int = 0
    dropped: int = 0
    evicted: int = 0
    offline_fallback_rounds: int = 0


@dataclass
class RoundRecord:
    """Per-round bookkeeping.

    In sync mode ``round_time`` is the barrier time — the max over
    participants of download + train + upload.  In async mode one record
    covers one buffered aggregation step and ``round_time`` is the
    simulated-clock time elapsed since the previous aggregation, so
    ``sum(round_time)`` is the run's total simulated time in both modes.
    ``arrivals`` is populated by the async engine only (including dropped
    stragglers); sync rounds leave it empty.
    """

    round_idx: int
    participants: list[int]
    assignments: dict[int, list[str]]
    mean_loss: float
    macs: float
    bytes_down: int
    bytes_up: int
    round_time: float
    num_models: int
    events: list[str] = field(default_factory=list)
    arrivals: list[ArrivalRecord] = field(default_factory=list)
    # Scheduling-subsystem metrics (selector/pacing/straggler decisions);
    # populated by both engines since PR 4.
    scheduler: SchedulerRecord | None = None
    # Transport-codec split of the cost ledger.  ``raw_bytes_up`` is the
    # uncompressed client→server total for the round (== ``bytes_up``
    # without a codec); the publish pair splits this round's server→worker
    # snapshot segment bytes into uncompressed vs. on-wire.  The publish
    # counters are infrastructure telemetry — a healed run republishes more
    # than a fault-free one — so they export via the transport ledger, not
    # the trajectory export (CONTRACTS.md I10).
    raw_bytes_up: int = 0
    publish_raw_bytes: int = 0
    publish_wire_bytes: int = 0


@dataclass
class EvalRecord:
    """One evaluation sweep over every registered client.

    ``cached_clients`` / ``evaluated_clients`` meter the incremental
    evaluation cache: clients whose deployment group's accuracies were
    served from the version-keyed cache vs. recomputed with forward passes.
    They always sum to ``len(client_accuracy)``.
    """

    round_idx: int
    cumulative_macs: float
    client_accuracy: np.ndarray  # (num_clients,)
    client_model: list[str]  # model evaluated per client
    mean_accuracy: float
    cached_clients: int = 0
    evaluated_clients: int = 0


@dataclass
class TrainingLog:
    """Everything a finished run reports; feeds every table and figure."""

    strategy: str
    mode: str = "sync"
    rounds: list[RoundRecord] = field(default_factory=list)
    evals: list[EvalRecord] = field(default_factory=list)
    total_macs: float = 0.0
    total_bytes_down: int = 0
    total_bytes_up: int = 0
    peak_storage_bytes: int = 0
    stopped_round: int = 0
    stop_reason: str = "budget"
    # Async deadline policy: work the server paid for but discarded.
    # ``dropped_macs`` is already included in ``total_macs`` (the fleet spent
    # the compute either way); these fields meter how much of it was wasted.
    dropped_updates: int = 0
    dropped_macs: float = 0.0
    # Scheduling subsystem: dispatches the straggler policy re-assigned to a
    # smaller compatible model, and clients the sparse utility store evicted.
    downsized_updates: int = 0
    evicted_clients: int = 0
    # Fault-tolerance meters (repro.fl.faults).  ``worker_restarts`` counts
    # process-pool rebuilds after a BrokenProcessPool; ``retries`` counts
    # re-dispatched work items and snapshot republishes; ``failed_updates``
    # counts work items that exhausted their retry budget (their clients
    # are excluded from the round, like drops); ``quarantined_updates``
    # counts updates the validator diverted from aggregation.  ``faults``
    # is the full ledger of FaultRecord actions, exported separately from
    # the run export (see recovery_to_dict) so a crash-recovered run's
    # trajectory export stays byte-identical to the fault-free run's.
    worker_restarts: int = 0
    retries: int = 0
    failed_updates: int = 0
    quarantined_updates: int = 0
    faults: list[FaultRecord] = field(default_factory=list)
    # Transport codec (repro.fl.transport).  ``compress`` is the canonical
    # codec spec (None = uncompressed); ``total_raw_bytes_up`` is the
    # uncompressed client→server total (``total_bytes_up`` is on-wire).
    # The publish totals split snapshot segment bytes the same way; they
    # include evaluation-wave publishes and, like the per-round publish
    # counters, export only via transport_to_dict (CONTRACTS.md I10).
    compress: str | None = None
    total_raw_bytes_up: int = 0
    publish_raw_bytes_total: int = 0
    publish_wire_bytes_total: int = 0

    # ---- headline metrics -------------------------------------------------
    def final_eval(self) -> EvalRecord:
        if not self.evals:
            raise ValueError("run produced no evaluations")
        return self.evals[-1]

    def best_eval(self) -> EvalRecord:
        """Evaluation with the best mean accuracy (paper reports converged acc)."""
        return max(self.evals, key=lambda e: e.mean_accuracy)

    def final_accuracy(self) -> float:
        return self.final_eval().mean_accuracy

    def accuracy_iqr(self) -> float:
        """Interquartile range of per-client accuracy (Table 2's IQR column)."""
        acc = self.final_eval().client_accuracy
        q75, q25 = np.percentile(acc, [75, 25])
        return float(q75 - q25)

    def network_mb(self) -> float:
        return (self.total_bytes_down + self.total_bytes_up) / 1e6

    def storage_mb(self) -> float:
        return self.peak_storage_bytes / 1e6

    def pmacs(self) -> float:
        """Total training cost in peta-MACs (Table 2's Cost column)."""
        return self.total_macs / 1e15

    def round_times(self) -> np.ndarray:
        return np.array([r.round_time for r in self.rounds])

    def simulated_time(self) -> float:
        """Total simulated seconds of the run (both modes: sum of rounds)."""
        return float(self.round_times().sum()) if self.rounds else 0.0

    def time_to_accuracy(self, target: float) -> float | None:
        """Simulated seconds until mean eval accuracy first reaches ``target``.

        ``None`` when the run never got there.  The clock for an eval at
        round ``r`` is the simulated time of rounds ``0..r`` inclusive —
        evaluation itself is free (the paper's round times exclude it).
        """
        cum = np.cumsum(self.round_times())
        for ev in self.evals:
            if ev.mean_accuracy >= target:
                idx = min(ev.round_idx, len(cum) - 1)
                return float(cum[idx]) if len(cum) else 0.0
        return None

    def cost_accuracy_curve(self) -> tuple[np.ndarray, np.ndarray]:
        """(cumulative MACs, mean accuracy) series — Fig. 7's axes."""
        xs = np.array([e.cumulative_macs for e in self.evals])
        ys = np.array([e.mean_accuracy for e in self.evals])
        return xs, ys
