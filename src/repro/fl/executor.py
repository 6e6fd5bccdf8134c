"""Pluggable round-execution engine: serial, thread-pool, and process-pool.

The coordinator describes a round as *work items* — ``(model_id, client_id,
sub_idx)`` triples for local training, ``(model_ids, client_ids)`` groups
for evaluation — and a :class:`RoundExecutor` decides how they run.  Three
backends ship:

* :class:`SerialExecutor` — the reference implementation; one Python loop,
  zero overhead, the default.
* :class:`ThreadPoolRoundExecutor` — a shared-memory thread pool.  NumPy
  releases the GIL inside BLAS kernels, so matmul-heavy local training
  overlaps across clients without any data copying.
* :class:`ProcessPoolRoundExecutor` — a persistent worker-process pool for
  true multi-core scaling.  The static fleet (client datasets + trainer
  config) ships to each worker exactly once at pool start; per round the
  server models are published once as a versioned read-only snapshot that
  every worker loads at most once per round, so a work item carries only
  ``(model_id, client_id, seed material)`` — never a pickled model.

Shared-memory delta snapshot publishing
---------------------------------------
The process backend publishes *deltas* into a shared-memory arena
(:mod:`~repro.fl.shm`): :meth:`ProcessPoolRoundExecutor._publish` compares
each model's :attr:`~repro.nn.model.CellModel.version` against the
versions it last published and writes only the changed (or new) models'
tensors — raw bytes, written once, no serialization — into a fresh
segment, plus the removed ids in the segment header.  Workers patch their
cached suite by replaying the segment chain from whatever snapshot
version they last loaded, mapping each model's tensors as read-only views
into the shared buffer (a delta is ``(offset, version)`` records, not
pickled bytes); a full snapshot re-compacts the chain every
``FULL_SNAPSHOT_EVERY`` deltas (and on first publish) so the chain a
lagging worker must replay stays short, and workers drop their older
mappings when they rebase onto it.  A publish where *no* version changed
reuses the current snapshot outright — even when the caller passes a
freshly built dict.  This is what keeps the buffered-async engine cheap:
each aggregation step touches at most ``buffer_k`` models, so each
publish ships ``buffer_k`` models, not the whole suite.  The contract is
the model version counter: any code that mutates a model outside
``set_params``/``set_state``/transformations must call ``bump_version()``
or workers will train against stale weights.

Segments are owned by the coordinator process: the chain's segments are
unlinked on compaction, on :meth:`~ProcessPoolRoundExecutor.close`, on a
broken pool (the futures-drain failure path releases the arena — dead
workers hold no mappings worth preserving), and — as a crash backstop —
by a ``weakref.finalize`` hook at interpreter exit.

**Determinism contract.** Every work item derives its RNG as
``np.random.default_rng(SeedSequence(seed, spawn_key=(round, client,
sub)))`` via :func:`derive_client_rng`, results are returned in submission
order, and training mutates only a private clone of the server model.
Because the arithmetic per item is identical and nothing depends on
completion order, serial, thread, and process runs of the same seed produce
bit-identical :class:`~repro.fl.types.TrainingLog` records.
"""

from __future__ import annotations

import concurrent.futures
import logging
import os
import pickle
import secrets
import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from ..analysis import sanitize as _sanitize
from ..nn.compute import compute_dtype_name, set_compute_dtype
from ..nn.losses import accuracy
from ..nn.model import CellModel
from ..stateful import Stateful, check_schema, schema_tag
from . import shm as _shm
from .client import LocalTrainer, LocalTrainerConfig
from .transport import TransportConfig
from .faults import (
    FaultConfig,
    FaultPlan,
    InjectedShmFault,
    ItemFailure,
    RetryPolicy,
    SnapshotChainError,
    fault_kind,
    is_infrastructure_fault,
)
from .types import ClientUpdate, FaultRecord, FLClient

__all__ = [
    "EXECUTOR_BACKENDS",
    "FULL_SNAPSHOT_EVERY",
    "POOL_REBUILD_LIMIT",
    "TrainItem",
    "EvalTask",
    "derive_client_rng",
    "RoundExecutor",
    "SerialExecutor",
    "ThreadPoolRoundExecutor",
    "ProcessPoolRoundExecutor",
    "make_executor",
]

EXECUTOR_BACKENDS = ("serial", "thread", "process")

# Delta chain length cap: a full snapshot is rewritten after this many
# consecutive delta publishes, bounding both the number of live
# shared-memory segments and the replay work of a worker that sat idle for
# many publishes.
FULL_SNAPSHOT_EVERY = 8

# Self-healing bound: how many times the process pool may break (and be
# rebuilt) within a single dispatch wave before the executor gives up and
# propagates the failure.  An injected crash heals in one rebuild (faults
# fire at attempt 0 only); a pool that keeps dying is a real environment
# problem that retrying cannot fix.
POOL_REBUILD_LIMIT = 3


@dataclass(frozen=True)
class TrainItem:
    """One unit of local training: a client trains one assigned model."""

    model_id: str
    client_id: int
    sub_idx: int  # position in the client's multi-model assignment (SplitMix)


@dataclass(frozen=True)
class EvalTask:
    """One batched evaluation group: clients sharing a deployment ensemble.

    All listed clients are evaluated by averaging the logits of
    ``model_ids`` over their concatenated test sets — a few large forward
    passes instead of one per client.
    """

    model_ids: tuple[str, ...]
    client_ids: tuple[int, ...]


def derive_client_rng(
    seed: int, round_idx: int, client_id: int, sub_idx: int
) -> np.random.Generator:
    """The canonical per-work-item RNG.

    ``SeedSequence`` spawn keys guarantee distinct, well-mixed streams for
    distinct ``(round, client, sub)`` triples — unlike the earlier
    hand-rolled ``round*1009 + client*31`` hash, which collided (e.g.
    ``(round=31, client=0)`` vs ``(round=0, client=1009)``) and handed two
    clients identical sampling streams.
    """
    ss = np.random.SeedSequence(seed, spawn_key=(round_idx, client_id, sub_idx))
    return np.random.default_rng(ss)


# ----------------------------------------------------------------------
# shared per-item work functions (every backend funnels through these)
# ----------------------------------------------------------------------
def _train_item(
    models: dict[str, CellModel],
    clients_by_id: dict[int, FLClient],
    trainer: LocalTrainer,
    seed: int,
    round_idx: int,
    item: TrainItem,
) -> ClientUpdate:
    work = models[item.model_id].clone(keep_id=True)
    rng = derive_client_rng(seed, round_idx, item.client_id, item.sub_idx)
    return trainer.train(work, clients_by_id[item.client_id], rng)


def ensemble_accuracies(
    member_logits,
    num_members: int,
    clients_by_id: dict[int, FLClient],
    client_ids: tuple[int, ...],
) -> np.ndarray:
    """Shared tail of ensemble evaluation: average, slice, score per client.

    ``member_logits`` yields each member model's logits over the group's
    concatenated test rows, in ensemble order (an iterable, so callers can
    stream forward passes without holding every member at once).  Both the
    uncached :func:`_eval_task` path and the coordinator's cache-combine
    path run THIS function, which is what makes the cache-on/off
    bit-identity contract structural rather than two hand-mirrored copies.

    A test-less client inside a non-empty group scores 0.0 — accuracy()
    over a zero-length slice would yield NaN and poison the eval's mean.
    """
    logits: np.ndarray | None = None
    for out in member_logits:
        logits = out if logits is None else logits + out
    logits = logits / num_members
    accs = np.zeros(len(client_ids))
    offset = 0
    for j, cid in enumerate(client_ids):
        data = clients_by_id[cid].data
        n = data.num_test
        accs[j] = accuracy(logits[offset : offset + n], data.y_test) if n else 0.0
        offset += n
    return accs


def _eval_task(
    models: dict[str, CellModel],
    clients_by_id: dict[int, FLClient],
    task: EvalTask,
    batch_size: int,
) -> np.ndarray:
    """Per-client accuracies for one deployment group, batched forward.

    Runs on throwaway clones: the thread backend would otherwise race on
    the live server models' layer caches, and any backend would leave the
    group's concatenated activations pinned on them after predict().
    """
    xs = np.concatenate([clients_by_id[cid].data.x_test for cid in task.client_ids])
    if len(xs) == 0:
        # Every client in the group has an empty test set; predict() cannot
        # run on zero samples, and accuracy() defines the score as 0.0.
        return np.zeros(len(task.client_ids))
    return ensemble_accuracies(
        (models[mid].clone(keep_id=True).predict(xs, batch_size) for mid in task.model_ids),
        len(task.model_ids),
        clients_by_id,
        task.client_ids,
    )


def _logits_task(
    models: dict[str, CellModel],
    clients_by_id: dict[int, FLClient],
    task: EvalTask,
    batch_size: int,
) -> np.ndarray:
    """Raw logits of one model over one client chunk's concatenated tests.

    The building block of the coordinator's incremental evaluation cache:
    per-``(model version, chunk)`` logits are computed once and shared
    across every ensemble that contains the model.  The arithmetic is
    *identical* to one member-model pass of :func:`_eval_task` (a clone's
    ``predict`` over the same concatenation), which is what keeps cache-on
    and cache-off evaluations bit-identical.
    """
    if len(task.model_ids) != 1:
        raise ValueError(f"logits tasks carry exactly one model, got {task.model_ids}")
    model = models[task.model_ids[0]]
    xs = np.concatenate([clients_by_id[cid].data.x_test for cid in task.client_ids])
    if len(xs) == 0:
        return np.zeros((0, model.num_classes))
    return model.clone(keep_id=True).predict(xs, batch_size)


# ----------------------------------------------------------------------
# interface
# ----------------------------------------------------------------------
class RoundExecutor(Stateful, ABC):
    """Executes one round's training / evaluation work items.

    The executor is bound to a fleet at construction (client datasets never
    change during a run); server models are passed per call because they do.
    Implementations must return results in submission order — the
    coordinator's aggregation and logs are order-sensitive.

    Executors are :class:`~repro.stateful.Stateful` with empty payloads by
    design: pools, snapshot chains, and publish meters are all *derived*
    runtime state, rebuilt lazily from the models a resumed coordinator
    republishes — a checkpoint carries no executor bytes, which is also
    what lets a run resume under a different backend.  (The fault ledger
    and recovery counters are telemetry, not trajectory: the coordinator
    drains them into the log each round, and the log is what checkpoints.)

    Fault tolerance (:mod:`~repro.fl.faults`): with a ``faults`` config
    the executor injects the plan's deterministic failures into its work
    items; with a ``retry`` policy failed train items are re-run up to
    ``max_attempts`` times (task-level failures charging simulated backoff
    into the item's round time; infrastructure failures charging nothing)
    and an exhausted item returns an :class:`~repro.fl.faults.ItemFailure`
    sentinel in its result slot instead of aborting the round.  With
    ``retry=None`` (the default) the first failure propagates — exactly
    the pre-fault-subsystem behavior.
    """

    backend: str = "abstract"
    # Snapshot bytes published to workers so far (uncompressed / on-wire);
    # only the process backend publishes, the others stay at zero.
    raw_bytes_published_total: int = 0
    bytes_published_total: int = 0

    def state_dict(self) -> dict:
        return {"schema": schema_tag(type(self).__name__)}

    def load_state_dict(self, payload: dict) -> None:
        check_schema(payload, schema_tag(type(self).__name__))

    def __init__(
        self,
        clients: list[FLClient],
        trainer_config: LocalTrainerConfig,
        seed: int,
        max_workers: int | None = None,
        *,
        faults: FaultConfig | None = None,
        retry: RetryPolicy | None = None,
        transport: TransportConfig | None = None,
    ):
        self.clients_by_id = {c.client_id: c for c in clients}
        self.trainer_config = trainer_config
        self.trainer = LocalTrainer(trainer_config)
        self.seed = seed
        self.max_workers = max_workers
        self.faults = faults
        self.retry = retry
        # Transport codec config: only the snapshot section matters to an
        # executor (the in-process backends publish nothing, so they just
        # carry it; the process backend run-length encodes delta segments).
        self.transport = transport
        self.fault_plan = (
            FaultPlan(seed, faults)
            if faults is not None and faults.any_enabled()
            else None
        )
        # Recovery telemetry (public: read by the coordinator, benchmarks,
        # and tests).  Guarded by a lock — the thread backend's retry path
        # meters from worker threads.
        self.worker_restarts = 0
        self.retries = 0
        self.failed_items = 0
        self._fault_records: list[FaultRecord] = []
        self._meter_lock = threading.Lock()

    # ------------------------------------------------------------------
    # fault metering + the shared in-process resilient train path
    # ------------------------------------------------------------------
    def _record_fault(
        self,
        round_idx: int,
        kind: str,
        action: str,
        client_id: int | None = None,
        model_id: str | None = None,
        detail: str = "",
        attempts: int = 0,
    ) -> None:
        with self._meter_lock:
            self._fault_records.append(
                FaultRecord(
                    round_idx=round_idx,
                    kind=kind,
                    action=action,
                    client_id=client_id,
                    model_id=model_id,
                    detail=detail,
                    attempts=attempts,
                )
            )
            if action == "pool_rebuild":
                self.worker_restarts += 1
            elif action == "retry":
                self.retries += 1
            elif action == "failed":
                self.failed_items += 1

    def drain_fault_records(self) -> list[FaultRecord]:
        """Hand the accumulated fault ledger to the caller (and reset it)."""
        with self._meter_lock:
            records, self._fault_records = self._fault_records, []
        return records

    def _run_train_item(
        self, round_idx: int, item: TrainItem, models: dict[str, CellModel]
    ) -> ClientUpdate | ItemFailure:
        """One train item with fault injection and bounded retry.

        The in-process backends (serial, thread) funnel through this; the
        process backend mirrors the exact same semantics coordinator-side
        in :meth:`ProcessPoolRoundExecutor._run_wave`, so every backend
        agrees on when a fault fires (attempt 0 only), what a retry costs
        (simulated backoff for task-level failures, nothing for
        infrastructure ones), and when an item fails permanently.
        """
        attempts = 0
        delay = 0.0
        while True:
            decision = (
                self.fault_plan.item_faults(round_idx, item)
                if self.fault_plan is not None and attempts == 0
                else None
            )
            try:
                if decision is not None:
                    decision.fire_pre(worker_side=False)
                update = _train_item(
                    models, self.clients_by_id, self.trainer, self.seed, round_idx, item
                )
                if decision is not None:
                    decision.apply_post(update)
                if delay:
                    update.round_time += delay
                return update
            except Exception as err:
                attempts += 1
                if self.retry is None:
                    raise
                if attempts >= self.retry.max_attempts:
                    self._record_fault(
                        round_idx, fault_kind(err), "failed",
                        client_id=item.client_id, model_id=item.model_id,
                        detail=str(err), attempts=attempts,
                    )
                    return ItemFailure(
                        item.model_id, item.client_id, item.sub_idx, str(err), attempts
                    )
                self._record_fault(
                    round_idx, fault_kind(err), "retry",
                    client_id=item.client_id, model_id=item.model_id,
                    detail=str(err), attempts=attempts,
                )
                if not is_infrastructure_fault(err):
                    delay += self.retry.backoff(attempts)

    @abstractmethod
    def train_round(
        self, round_idx: int, items: list[TrainItem], models: dict[str, CellModel]
    ) -> list[ClientUpdate]:
        """Run local training for every item; results in item order.

        With a retry policy configured, a slot may hold an
        :class:`~repro.fl.faults.ItemFailure` instead of an update.
        """

    @abstractmethod
    def eval_round(
        self, tasks: list[EvalTask], models: dict[str, CellModel], batch_size: int
    ) -> list[np.ndarray]:
        """Per-client accuracies for every group; results in task order."""

    @abstractmethod
    def logits_round(
        self, tasks: list[EvalTask], models: dict[str, CellModel], batch_size: int
    ) -> list[np.ndarray]:
        """Raw per-model logits for every single-model task; in task order."""

    def eval_and_logits_round(
        self,
        eval_tasks: list[EvalTask],
        logits_tasks: list[EvalTask],
        models: dict[str, CellModel],
        batch_size: int,
    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Run accuracy groups and logits tasks as one wave; two result lists.

        The coordinator's cached evaluation dispatches both kinds per sweep
        (accuracy tasks for single-model groups — per-client accuracies
        over the wire, nothing retained — and member-logits tasks for
        ensembles); a combined wave keeps parallel backends' workers busy
        across both instead of draining two back-to-back barriers.  The
        base implementation runs them sequentially (correct everywhere);
        pooled backends override to interleave.
        """
        return (
            self.eval_round(eval_tasks, models, batch_size),
            self.logits_round(logits_tasks, models, batch_size),
        )

    def close(self) -> None:
        """Release pooled resources (idempotent; pools recreate lazily)."""


class SerialExecutor(RoundExecutor):
    """The reference backend: one in-process loop (previous behavior).

    Round bodies run under :func:`repro.analysis.sanitize.published` (a
    no-op unless the sanitizer is on): while a round is in flight the
    server models are published and must not be written — work items see
    clones or read-only views, and a write from anywhere else is exactly
    the race the guard exists to catch.
    """

    backend = "serial"

    def train_round(self, round_idx, items, models):
        with _sanitize.published(models):
            return [self._run_train_item(round_idx, it, models) for it in items]

    def eval_round(self, tasks, models, batch_size):
        with _sanitize.published(models):
            return [_eval_task(models, self.clients_by_id, t, batch_size) for t in tasks]

    def logits_round(self, tasks, models, batch_size):
        with _sanitize.published(models):
            return [_logits_task(models, self.clients_by_id, t, batch_size) for t in tasks]


class ThreadPoolRoundExecutor(RoundExecutor):
    """Thread-pool backend: shared memory, BLAS-released-GIL parallelism."""

    backend = "thread"

    def __init__(self, clients, trainer_config, seed, max_workers=None, *,
                 faults=None, retry=None, transport=None):
        super().__init__(clients, trainer_config, seed, max_workers,
                         faults=faults, retry=retry, transport=transport)
        self._pool: concurrent.futures.ThreadPoolExecutor | None = None

    def _ensure_pool(self) -> concurrent.futures.ThreadPoolExecutor:
        if self._pool is None:
            workers = self.max_workers or (os.cpu_count() or 1)
            self._pool = concurrent.futures.ThreadPoolExecutor(max_workers=workers)
        return self._pool

    def train_round(self, round_idx, items, models):
        pool = self._ensure_pool()
        with _sanitize.published(models):
            futures = [
                pool.submit(self._run_train_item, round_idx, it, models)
                for it in items
            ]
            return [f.result() for f in futures]

    def eval_round(self, tasks, models, batch_size):
        pool = self._ensure_pool()
        with _sanitize.published(models):
            futures = [
                pool.submit(_eval_task, models, self.clients_by_id, t, batch_size) for t in tasks
            ]
            return [f.result() for f in futures]

    def logits_round(self, tasks, models, batch_size):
        pool = self._ensure_pool()
        with _sanitize.published(models):
            futures = [
                pool.submit(_logits_task, models, self.clients_by_id, t, batch_size)
                for t in tasks
            ]
            return [f.result() for f in futures]

    def eval_and_logits_round(self, eval_tasks, logits_tasks, models, batch_size):
        pool = self._ensure_pool()
        with _sanitize.published(models):
            efs = [
                pool.submit(_eval_task, models, self.clients_by_id, t, batch_size)
                for t in eval_tasks
            ]
            lfs = [
                pool.submit(_logits_task, models, self.clients_by_id, t, batch_size)
                for t in logits_tasks
            ]
            return [f.result() for f in efs], [f.result() for f in lfs]

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def state_dict(self) -> dict:
        # The pool is recreated lazily on first use; nothing to persist.
        return {"schema": schema_tag(type(self).__name__)}

    def load_state_dict(self, payload: dict) -> None:
        check_schema(payload, schema_tag(type(self).__name__))


# ----------------------------------------------------------------------
# process-pool backend
# ----------------------------------------------------------------------
# Worker-process state, installed once per worker by _proc_init and
# patched forward at most once per snapshot version by _proc_models.
_WORKER: dict = {}


def _proc_init(payload: bytes) -> None:
    clients, trainer_config, seed, dtype, fault_config = pickle.loads(payload)
    set_compute_dtype(dtype)
    _WORKER["clients_by_id"] = {c.client_id: c for c in clients}
    _WORKER["trainer"] = LocalTrainer(trainer_config)
    _WORKER["seed"] = seed
    _WORKER["fault_plan"] = (
        FaultPlan(seed, fault_config) if fault_config is not None else None
    )
    _WORKER["version"] = 0  # published snapshot versions start at 1
    _WORKER["models"] = None
    # name -> SharedMemory: segments whose buffers installed models view
    # into.  Unlinking by the coordinator only removes the name; these
    # mappings stay valid until closed, which happens wholesale when a
    # full snapshot rebases the suite.
    _WORKER["segments"] = {}


def _worker_segment(name: str, chain: tuple = ()):
    seg = _WORKER["segments"].get(name)
    if seg is None:
        try:
            seg = _shm.attach_segment(name)
        except FileNotFoundError:
            expected = [(v, k, n) for v, k, n in chain] if chain else "unknown"
            raise SnapshotChainError(
                f"shared-memory segment {name!r} does not exist; expected "
                f"snapshot chain {expected}, worker has attached "
                f"{sorted(_WORKER['segments'])}. The coordinator unlinks "
                "segments on chain compaction, pool heal, and close() — a "
                "worker asked to replay a retired chain (or a stale future "
                "from before a pool rebuild) hits exactly this."
            ) from None
        _WORKER["segments"][name] = seg
    return seg


_WORKER_LOG = logging.getLogger(__name__ + ".worker")


def _worker_rebase(keep: str) -> None:
    """Close every attached segment except ``keep`` (full-snapshot rebase)."""
    segments = _WORKER["segments"]
    for name in [n for n in segments if n != keep]:
        try:
            segments.pop(name).close()
        except OSError as err:
            # A close() failure leaks one worker-side mapping until process
            # exit — worth a log line, never worth failing the rebase (the
            # segment itself is coordinator-owned and already retired).
            _WORKER_LOG.warning("closing rebased segment %r failed: %s", name, err)


def _proc_models(
    version: int, chain: tuple[tuple[int, str, str], ...]
) -> dict[str, CellModel]:
    """Bring this worker's cached suite up to ``version`` and return it.

    ``chain`` is the server's currently retained snapshot segments,
    ordered by version: one full snapshot first, then the deltas published
    since.  A worker already past the full snapshot replays only the
    deltas newer than its cached version; a worker that lagged behind the
    full snapshot (or never loaded one) rebases on it first — closing its
    older segment mappings, since every model is rebuilt from the full
    segment.  Each segment is mapped at most once per worker, and a
    model's tensors are read-only views into the mapping — replaying a
    delta installs offsets, it never copies tensor bytes.
    """
    if _WORKER["version"] == version:
        return _WORKER["models"]
    models = _WORKER["models"]
    cur = _WORKER["version"]
    base_ver, base_kind, base_name = chain[0]
    if models is None or cur < base_ver:
        if base_kind != "full":
            raise RuntimeError(
                f"snapshot chain must start with a full snapshot, got {base_kind!r}"
            )
        kind, models, _, _ = _shm.read_snapshot_segment(
            _worker_segment(base_name, chain)
        )
        _worker_rebase(keep=base_name)
        cur = base_ver
    for ver, kind, name in chain[1:]:
        if ver <= cur:
            continue
        # Deltas replay in publish order, so the worker's current suite is
        # byte-for-byte the state the coordinator run-length encoded
        # against (when snapshot compression is on; raw deltas ignore it).
        _, changed, removed, all_ids = _shm.read_snapshot_segment(
            _worker_segment(name, chain), prev_models=models
        )
        models.update(changed)
        for rid in removed:
            models.pop(rid, None)
        if set(models) != set(all_ids):
            raise RuntimeError(
                f"snapshot delta v{ver} left an incoherent suite: "
                f"{sorted(set(models) ^ set(all_ids))}"
            )
        cur = ver
    if cur != version:
        raise RuntimeError(
            f"worker could not reach snapshot v{version} (stuck at v{cur})"
        )
    _WORKER["models"] = models
    _WORKER["version"] = version
    return models


def _proc_train(
    version: int, chain: tuple, round_idx: int, item: TrainItem, attempt: int = 0
) -> ClientUpdate:
    """One train item in a worker: faults fire here, on attempt 0 only.

    ``fire_pre`` runs *before* the snapshot replay so an injected SIGKILL
    takes the worker down mid-task exactly as a real crash would — with the
    item's future unresolved and the pool broken.  Retried items arrive
    with ``attempt >= 1`` and run clean (the coordinator owns attempt
    accounting across pool rebuilds).
    """
    plan = _WORKER.get("fault_plan")
    decision = plan.item_faults(round_idx, item) if plan is not None and attempt == 0 else None
    if decision is not None:
        decision.fire_pre(worker_side=True)
    models = _proc_models(version, chain)
    update = _train_item(
        models, _WORKER["clients_by_id"], _WORKER["trainer"], _WORKER["seed"], round_idx, item
    )
    if decision is not None:
        decision.apply_post(update)
    return update


def _proc_eval(version: int, chain: tuple, task: EvalTask, batch_size: int) -> np.ndarray:
    models = _proc_models(version, chain)
    return _eval_task(models, _WORKER["clients_by_id"], task, batch_size)


def _proc_logits(version: int, chain: tuple, task: EvalTask, batch_size: int) -> np.ndarray:
    models = _proc_models(version, chain)
    return _logits_task(models, _WORKER["clients_by_id"], task, batch_size)


class ProcessPoolRoundExecutor(RoundExecutor):
    """Process-pool backend: true multi-core rounds.

    The fleet ships to workers once via the pool initializer; each round's
    models are published once as a versioned shared-memory snapshot that
    workers map lazily (at most one attach per worker per segment), so the
    per-item payload stays a few hundred bytes.  Publishing is
    *incremental*: only models whose
    :attr:`~repro.nn.model.CellModel.version` moved since the last publish
    land in the new segment (see the module docstring).  The public
    ``publish_*`` / ``*_bytes`` counters meter it for benchmarks and
    tests; byte counts are segment payload bytes (header + raw tensors).
    """

    backend = "process"

    def __init__(self, clients, trainer_config, seed, max_workers=None, *,
                 faults=None, retry=None, transport=None):
        super().__init__(clients, trainer_config, seed, max_workers,
                         faults=faults, retry=retry, transport=transport)
        self._pool: concurrent.futures.ProcessPoolExecutor | None = None
        self._version = 0
        # (version, "full" | "delta", segment name) of every retained
        # snapshot segment: the latest full snapshot plus the deltas
        # published since it.
        self._chain: list[tuple[int, str, str]] = []
        # Owned shared-memory segments by name; the finalizer holds this
        # dict (not self), so an abandoned executor still unlinks at exit.
        self._segments: dict = {}
        self._arena_prefix = f"repro-{os.getpid()}-{secrets.token_hex(4)}"
        self._finalizer = _shm.make_finalizer(self, self._segments)
        # model_id -> CellModel.version at last publish; None = never published.
        self._published_versions: dict[str, int] | None = None
        # Sanitizer cross-check (no-op unless enabled): a model whose bytes
        # moved but whose version did not would be silently reused by the
        # version-compare below — exactly the bug class RL004 guards
        # statically and this watch catches dynamically.
        self._version_watch = _sanitize.VersionWatch()
        self._deltas_since_full = 0
        # Snapshot transport codec: when the config asks for snapshot rle,
        # delta segments are byte-diffed against the shadow — each tensor's
        # bytes as of its previous publish, exactly the state workers hold
        # when they replay the delta (see shm.write_snapshot_segment).
        self._snapshot_rle = bool(transport is not None and transport.snapshot_rle)
        self._shadow: dict[tuple[str, str, str], bytes] = {}
        # Publish metering (public: read by benchmarks and tests).  Byte
        # counters are on-wire segment payload sizes; the raw counter keeps
        # the uncompressed total so the transport ledger can report both.
        self.publish_count = 0
        self.full_publish_count = 0
        self.delta_publish_count = 0
        self.reused_publish_count = 0
        self.bytes_published_total = 0
        self.raw_bytes_published_total = 0
        self.full_bytes_total = 0
        self.delta_bytes_total = 0
        self.last_publish_bytes = 0

    def _ensure_pool(self) -> concurrent.futures.ProcessPoolExecutor:
        if self._pool is None:
            payload = pickle.dumps(
                (
                    list(self.clients_by_id.values()),
                    self.trainer_config,
                    self.seed,
                    compute_dtype_name(),
                    # Workers rebuild the same FaultPlan from (seed, config):
                    # worker-side decisions (SIGKILL, task errors, poison)
                    # match the coordinator's replay of the same spawn keys.
                    self.faults if self.fault_plan is not None else None,
                )
            )
            workers = self.max_workers or (os.cpu_count() or 1)
            self._pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=workers, initializer=_proc_init, initargs=(payload,)
            )
        return self._pool

    def _drain(self, futures: list[concurrent.futures.Future]) -> list:
        """Gather results only after *every* future has settled.

        A plain ``[f.result() for f in futures]`` aborts on the first
        failure while later futures are still running — the next
        ``_publish`` would then unlink the snapshot segment those workers
        are attaching mid-load.  Waiting first keeps the snapshot
        lifecycle safe; the first failure still propagates to the caller.
        A *broken pool* (a worker died) additionally releases the arena on
        the spot: the workers are gone, nothing holds the mappings, and a
        crashed run must not leave segments behind.
        """
        concurrent.futures.wait(futures)
        try:
            return [f.result() for f in futures]
        except concurrent.futures.process.BrokenProcessPool:
            self._release_arena()
            raise

    def _release_arena(self) -> None:
        """Unlink every owned segment and reset publish state (idempotent)."""
        _shm.unlink_segments(self._segments)
        self._chain = []
        self._published_versions = None
        self._deltas_since_full = 0
        # Fresh workers rebase on a full (raw) snapshot, so the rle shadow
        # restarts with them — a stale shadow would diff against bytes the
        # new workers never held.
        self._shadow.clear()

    def _publish(
        self, models: dict[str, CellModel], fault_attempt: int = 0
    ) -> tuple[int, tuple[tuple[int, str, str], ...]]:
        """Publish the current suite; returns ``(version, snapshot chain)``.

        Per-model versions decide what (if anything) ships:

        * every version matches the last publish — the snapshot is reused
          outright, even for a freshly built dict (the async engine's many
          dispatch waves between aggregations, and repeated evaluations of
          an idle suite, publish nothing);
        * some versions moved — only those models' tensors land in a delta
          segment appended to the chain;
        * first publish, every model changed, or ``FULL_SNAPSHOT_EVERY``
          deltas accumulated — a full snapshot segment is written and the
          old chain segments are unlinked (safe: train/eval/logits rounds
          drain all futures before returning, including on failure — see
          :meth:`_drain` — so no worker is mid-attach between publishes,
          and workers' existing mappings survive the unlink).
        """
        self._version_watch.check_all(models, where="snapshot publish")
        versions = {mid: m.version for mid, m in models.items()}
        if versions == self._published_versions:
            self.reused_publish_count += 1
            return self._version, tuple(self._chain)
        # Deterministic publish fault: keyed on the ordinal of *real*
        # publishes (reuses never fault, and the counter only advances on
        # success), injected before any state mutates so the retry sees a
        # clean slate.  Attempt 0 only — the retry runs clean.
        if (
            self.fault_plan is not None
            and fault_attempt == 0
            and self.fault_plan.publish_fails(self.publish_count)
        ):
            raise InjectedShmFault(
                f"injected snapshot publish failure (publish ordinal {self.publish_count})"
            )
        prev = self._published_versions
        changed = {
            mid: m
            for mid, m in models.items()
            if prev is None or prev.get(mid) != m.version
        }
        removed = frozenset(prev or ()) - frozenset(models)
        self._version += 1
        full = (
            prev is None
            or len(changed) == len(models)
            or self._deltas_since_full >= FULL_SNAPSHOT_EVERY
        )
        name = f"{self._arena_prefix}-v{self._version}"
        shadow = self._shadow if self._snapshot_rle else None
        if full:
            seg, nbytes, raw_nbytes = _shm.write_snapshot_segment(
                name, "full", dict(models), shadow=shadow
            )
            for _, _, old in self._chain:
                shm_old = self._segments.pop(old, None)
                if shm_old is not None:
                    shm_old.close()
                    shm_old.unlink()
            self._segments[name] = seg
            self._chain = [(self._version, "full", name)]
            self._deltas_since_full = 0
            self.full_publish_count += 1
            self.full_bytes_total += nbytes
        else:
            seg, nbytes, raw_nbytes = _shm.write_snapshot_segment(
                name, "delta", changed, removed, frozenset(models),
                rle=self._snapshot_rle, shadow=shadow,
            )
            self._segments[name] = seg
            self._chain.append((self._version, "delta", name))
            self._deltas_since_full += 1
            self.delta_publish_count += 1
            self.delta_bytes_total += nbytes
        if shadow is not None:
            # The shadow tracks the *current* suite only: retired models'
            # bytes must never anchor a future diff.
            for skey in [k for k in shadow if k[0] not in models]:
                del shadow[skey]
        self._published_versions = versions
        self.publish_count += 1
        self.last_publish_bytes = nbytes
        self.bytes_published_total += nbytes
        self.raw_bytes_published_total += raw_nbytes
        return self._version, tuple(self._chain)

    def _publish_resilient(
        self, models: dict[str, CellModel], round_idx: int
    ) -> tuple[int, tuple[tuple[int, str, str], ...]]:
        """Publish with bounded retry over injected publish failures.

        An :class:`~repro.fl.faults.InjectedShmFault` fires before the
        publish mutates anything, so the retry republishes from a clean
        slate; it is infrastructure (zero simulated time) and attempt 0
        only, so one retry always heals it.  Exhaustion propagates — a
        publish that keeps failing has no sane degraded mode.
        """
        fault_attempt = 0
        while True:
            try:
                return self._publish(models, fault_attempt=fault_attempt)
            except InjectedShmFault as err:
                fault_attempt += 1
                limit = self.retry.max_attempts if self.retry is not None else 2
                if fault_attempt >= limit:
                    raise
                self._record_fault(
                    round_idx, "shm_publish", "retry",
                    detail=str(err), attempts=fault_attempt,
                )

    def _discard_pool(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def _heal(self, round_idx: int, err: BaseException) -> None:
        """Recover from a broken pool: rebuild workers, reset the arena.

        The dead workers' shared-memory mappings are gone with them, so the
        arena is released outright; the next publish writes a fresh full
        snapshot, which is how the chain is replayed to the fresh workers.
        """
        self._record_fault(
            round_idx, "worker_crash", "pool_rebuild",
            detail=str(err) or type(err).__name__,
        )
        self._discard_pool()
        self._release_arena()

    def _run_wave(
        self, models: dict[str, CellModel], jobs: list[tuple], round_idx: int
    ) -> list:
        """Dispatch one wave of work with self-healing and bounded retry.

        ``jobs`` is ``[(kind, payload), ...]`` with kind ``"train"``
        (payload: the :class:`TrainItem`) or ``"eval"``/``"logits"``
        (payload: ``(task, batch_size)``); results come back in job order.

        A broken pool (worker SIGKILL — injected or real) triggers
        :meth:`_heal` and re-dispatches only the unfinished items, at most
        ``POOL_REBUILD_LIMIT`` times per wave.  Completed items keep their
        attempt-0 results, and re-dispatched items re-derive the same
        ``(round, client, sub)`` RNG streams, so a healed wave is
        bit-identical to a fault-free one.  When a fault plan is present,
        re-dispatched train items whose plan decision was the crash are
        bumped to attempt 1 (their fault already fired; retries run clean)
        while innocent victims of the shared pool keep attempt 0 so their
        own faults still fire exactly once — cross-backend parity.

        Task-level exceptions follow the same retry semantics as the
        in-process backends (:meth:`RoundExecutor._run_train_item`):
        bounded retries charging simulated backoff, permanent train
        failures degrade to :class:`~repro.fl.faults.ItemFailure`,
        eval/logits failures propagate on exhaustion, and with no retry
        policy the first failure propagates after the wave settles.
        """
        results: list = [None] * len(jobs)
        attempts = [0] * len(jobs)
        delays = [0.0] * len(jobs)
        pending = list(range(len(jobs)))
        rebuilds = 0
        while pending:
            broken: BaseException | None = None
            futures: dict[int, concurrent.futures.Future] = {}
            try:
                pool = self._ensure_pool()
                version, chain = self._publish_resilient(models, round_idx)
                for i in pending:
                    kind, payload = jobs[i]
                    if kind == "train":
                        futures[i] = pool.submit(
                            _proc_train, version, chain, round_idx, payload, attempts[i]
                        )
                    elif kind == "eval":
                        futures[i] = pool.submit(
                            _proc_eval, version, chain, payload[0], payload[1]
                        )
                    else:
                        futures[i] = pool.submit(
                            _proc_logits, version, chain, payload[0], payload[1]
                        )
            except concurrent.futures.process.BrokenProcessPool as err:
                broken = err
            if futures:
                # Settle the whole wave before touching any result: a
                # publish must never unlink segments under a mid-attach
                # worker (see the old _drain contract).
                concurrent.futures.wait(list(futures.values()))
            retry_idx: list[int] = []
            for i in sorted(futures):
                kind, payload = jobs[i]
                try:
                    res = futures[i].result()
                except (
                    concurrent.futures.process.BrokenProcessPool,
                    concurrent.futures.CancelledError,
                ) as err:
                    # Lost to the pool breaking, not to its own failure:
                    # re-dispatch without charging an attempt (the culprit
                    # bump below covers the item whose fault killed the pool).
                    if broken is None:
                        broken = err
                    retry_idx.append(i)
                except Exception as err:
                    attempts[i] += 1
                    if self.retry is None:
                        raise
                    item = payload if kind == "train" else None
                    if attempts[i] >= self.retry.max_attempts:
                        if item is None:
                            raise  # eval work has no degraded mode
                        self._record_fault(
                            round_idx, fault_kind(err), "failed",
                            client_id=item.client_id, model_id=item.model_id,
                            detail=str(err), attempts=attempts[i],
                        )
                        results[i] = ItemFailure(
                            item.model_id, item.client_id, item.sub_idx,
                            str(err), attempts[i],
                        )
                    else:
                        self._record_fault(
                            round_idx, fault_kind(err), "retry",
                            client_id=item.client_id if item else None,
                            model_id=item.model_id if item else None,
                            detail=str(err), attempts=attempts[i],
                        )
                        if not is_infrastructure_fault(err):
                            delays[i] += self.retry.backoff(attempts[i])
                        retry_idx.append(i)
                else:
                    if delays[i] and isinstance(res, ClientUpdate):
                        res.round_time += delays[i]
                    results[i] = res
            pending = sorted(set(retry_idx) | {i for i in pending if i not in futures})
            if broken is not None:
                rebuilds += 1
                if rebuilds > POOL_REBUILD_LIMIT:
                    self._discard_pool()
                    self._release_arena()
                    raise RuntimeError(
                        f"process pool broke {rebuilds} times in one dispatch "
                        f"wave (limit {POOL_REBUILD_LIMIT}); giving up"
                    ) from broken
                self._heal(round_idx, broken)
                if self.fault_plan is not None:
                    for i in pending:
                        kind, payload = jobs[i]
                        if (
                            kind == "train"
                            and attempts[i] == 0
                            and self.fault_plan.item_faults(round_idx, payload).crash
                        ):
                            attempts[i] = 1
        return results

    def train_round(self, round_idx, items, models):
        with _sanitize.published(models):
            return self._run_wave(models, [("train", it) for it in items], round_idx)

    def eval_round(self, tasks, models, batch_size):
        with _sanitize.published(models):
            jobs = [("eval", (t, batch_size)) for t in tasks]
            return self._run_wave(models, jobs, -1)

    def logits_round(self, tasks, models, batch_size):
        with _sanitize.published(models):
            jobs = [("logits", (t, batch_size)) for t in tasks]
            return self._run_wave(models, jobs, -1)

    def eval_and_logits_round(self, eval_tasks, logits_tasks, models, batch_size):
        with _sanitize.published(models):
            jobs = [("eval", (t, batch_size)) for t in eval_tasks] + [
                ("logits", (t, batch_size)) for t in logits_tasks
            ]
            results = self._run_wave(models, jobs, -1)  # one publish per dispatch
            return results[: len(eval_tasks)], results[len(eval_tasks) :]

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        self._release_arena()

    def state_dict(self) -> dict:
        # Pool, snapshot chain, published versions, and publish meters are
        # all rebuilt from the first post-resume publish; persisting them
        # would pin a checkpoint to this backend for no benefit.
        return {"schema": schema_tag(type(self).__name__)}

    def load_state_dict(self, payload: dict) -> None:
        check_schema(payload, schema_tag(type(self).__name__))


_BACKENDS = {
    "serial": SerialExecutor,
    "thread": ThreadPoolRoundExecutor,
    "process": ProcessPoolRoundExecutor,
}


def make_executor(
    backend: str,
    clients: list[FLClient],
    trainer_config: LocalTrainerConfig,
    seed: int,
    max_workers: int | None = None,
    *,
    faults: FaultConfig | None = None,
    retry: RetryPolicy | None = None,
    transport: TransportConfig | None = None,
) -> RoundExecutor:
    """Instantiate a round executor by backend name."""
    try:
        cls = _BACKENDS[backend]
    except KeyError:
        raise ValueError(
            f"unknown executor backend {backend!r}; choose from {EXECUTOR_BACKENDS}"
        ) from None
    if max_workers is not None and max_workers < 1:
        raise ValueError(f"max_workers must be >= 1, got {max_workers}")
    return cls(
        clients, trainer_config, seed, max_workers=max_workers,
        faults=faults, retry=retry, transport=transport,
    )
