"""Pluggable round-execution engine: serial, thread-pool, and process-pool.

The coordinator describes a round as *work items* — ``(model_id, client_id,
sub_idx)`` triples for local training, ``(model_ids, client_ids)`` groups
for evaluation — and a :class:`RoundExecutor` decides how they run.  Three
backends ship:

=================================  ==================================  =======================
backend                            how it submits a wave               what it adds
=================================  ==================================  =======================
:class:`SerialExecutor`            a list comprehension                nothing (the reference)
:class:`ThreadPoolRoundExecutor`   ``submit`` + ordered ``result()``   a thread pool
:class:`ProcessPoolRoundExecutor`  settle-then-redispatch over a pool  pool + publisher + heal
=================================  ==================================  =======================

Everything else exists once: :class:`RoundExecutor`'s two entry points
(``train_round``, ``eval_and_logits_round``) build a job list for the
backend's ``_run_wave``,
:func:`_attempt` is the only place a work item runs (in this process or in
a pool worker), and :meth:`RoundExecutor._dispose` decides what a failed
attempt becomes.  The process backend ships the static fleet to each worker
once at pool start and the models as a versioned shared-memory snapshot
chain, so a work item carries ``(model_id, client_id, seed material)`` —
never a pickled model.

**Cohorts.**  The unit a backend dispatches is a *cohort*, not an item:
``train_round`` groups a wave's items by ``(model_id, min(batch_size, n))``
in first-appearance order (:meth:`RoundExecutor._cohorts`), each group
trains as K replicas of one NumPy loop on a K-replica workspace
(:func:`_train_item`; :mod:`repro.fl.client` describes the replica axis),
and the updates are scattered back to item order.  Parallel backends cut a
group into at most ``workers`` contiguous sub-cohorts.  The singleton rule:
an item is its own cohort when its model holds a layer without a replica
axis (conv, norms, attention, dropout) and whenever a fault plan or a retry
policy is configured, so injected faults, attempt counts, backoff and the
recovery ledger stay per item.  There is no switch: cohorts form from what
the wave contains, and how a wave is cut is not part of the trajectory.

**Determinism contract.** Every work item derives its RNG as
``np.random.default_rng(SeedSequence(seed, spawn_key=(round, client,
sub)))`` via :func:`derive_client_rng`, results are returned in submission
order, and training mutates only a private clone of the server model.
Because the arithmetic per item is identical and nothing depends on
completion order — nor on which cohort an item rode in: replica ``r`` of a
stacked step equals the item trained alone, bit for bit — serial, thread,
and process runs of the same seed produce bit-identical
:class:`~repro.fl.types.TrainingLog` records.
"""

from __future__ import annotations

import concurrent.futures
import os
import pickle
import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from ..analysis import sanitize as _sanitize
from ..nn.compute import compute_dtype_name, set_compute_dtype
from ..nn.losses import accuracy
from ..nn.model import CellModel
from ..stateful import Stateful, check_schema, schema_tag
from . import snapshot as _snapshot
from .client import LocalTrainer, LocalTrainerConfig
from .transport import TransportConfig
from .faults import (
    FaultConfig,
    FaultPlan,
    InjectedShmFault,
    ItemFailure,
    RetryPolicy,
    fault_kind,
    is_infrastructure_fault,
)
from .types import ClientUpdate, FaultRecord, FLClient

__all__ = [
    "EXECUTOR_BACKENDS",
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
    cohort: tuple[TrainItem, ...],
) -> list[ClientUpdate]:
    """Train one cohort — items of one model and one batch size — as one
    call; a singleton trains on a plain clone, K > 1 on a K-replica
    workspace.  Either way a private copy: published models are never
    written through."""
    model = models[cohort[0].model_id]
    clients = [clients_by_id[it.client_id] for it in cohort]
    rngs = [derive_client_rng(seed, round_idx, it.client_id, it.sub_idx) for it in cohort]
    if len(cohort) == 1:
        return [trainer.train(model.clone(keep_id=True), clients[0], rngs[0])]
    return trainer.train(model.replicate(len(cohort)), clients, rngs)


def ensemble_accuracies(
    member_logits,
    num_members: int,
    clients_by_id: dict[int, FLClient],
    client_ids: tuple[int, ...],
) -> np.ndarray:
    """Average member logits, slice per client, score: the one scorer.

    ``member_logits`` yields each member model's logits over the group's
    concatenated test rows, in ensemble order.  A single-model group
    (:func:`_eval_task`, worker-side) and an ensemble combined from cached
    member logits (:class:`~repro.fl.eval_cache.EvalCache`) both end here,
    over arrays :func:`_logits_task` produced.

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
    """Per-client accuracies of a single-model group: score one logits task.

    Scored where the logits are, so only the accuracies cross the wire.  An
    all-empty group scores zeros like any other test-less client.
    """
    logits = _logits_task(models, clients_by_id, task, batch_size)
    return ensemble_accuracies([logits], 1, clients_by_id, task.client_ids)


def _logits_task(
    models: dict[str, CellModel],
    clients_by_id: dict[int, FLClient],
    task: EvalTask,
    batch_size: int,
) -> np.ndarray:
    """Raw logits of one model over one client chunk's concatenated tests.

    The only forward pass of a sweep.  Runs on a throwaway clone: the
    thread backend would otherwise race on the live server model's layer
    caches, and any backend would leave the chunk's concatenated
    activations pinned on it after predict().
    """
    if len(task.model_ids) != 1:
        raise ValueError(f"logits tasks carry exactly one model, got {task.model_ids}")
    model = models[task.model_ids[0]]
    xs = np.concatenate([clients_by_id[cid].data.x_test for cid in task.client_ids])
    if len(xs) == 0:
        # predict() cannot run on zero samples.
        return np.zeros((0, model.num_classes))
    return model.clone(keep_id=True).predict(xs, batch_size)


def _attempt(env, load_models, round_idx: int, job: tuple, attempt: int, worker_side: bool):
    """One attempt at one job — the only place work actually runs.  A train
    job's payload is a cohort (a tuple of :class:`TrainItem`) and its result
    the list of their updates.

    ``env`` (the executor in-process, :data:`_WORKER` in a pool worker)
    carries ``fault_plan`` / ``clients_by_id`` / ``trainer`` / ``seed``.
    Faults fire on attempt 0 only — a retried item runs clean on every
    backend — and ``fire_pre`` runs *before* ``load_models`` replays a
    worker's snapshot, so an injected SIGKILL takes the worker down
    mid-task exactly as a real crash would: future unresolved, pool broken.
    """
    kind, payload = job
    if kind != "train":
        task, batch_size = payload
        run = _eval_task if kind == "eval" else _logits_task
        return run(load_models(), env.clients_by_id, task, batch_size)
    plan = env.fault_plan
    # A fault plan makes every cohort a singleton (RoundExecutor._cohorts).
    decision = plan.item_faults(round_idx, payload[0]) if plan is not None and attempt == 0 else None
    if decision is not None:
        decision.fire_pre(worker_side=worker_side)
    updates = _train_item(
        load_models(), env.clients_by_id, env.trainer, env.seed, round_idx, payload
    )
    if decision is not None:
        decision.apply_post(updates[0])
    return updates


# ----------------------------------------------------------------------
# interface
# ----------------------------------------------------------------------
class RoundExecutor(Stateful, ABC):
    """Executes one round's training / evaluation work items.

    The executor is bound to a fleet at construction (client datasets never
    change during a run); server models are passed per call because they do.
    Results come back in submission order — the coordinator's aggregation
    and logs are order-sensitive.  A backend implements :meth:`_run_wave`
    and nothing else round-shaped.

    Every wave runs under :func:`repro.analysis.sanitize.published` (a
    no-op unless the sanitizer is on; CONTRACTS.md I7): while a round is in
    flight the server models are published and must not be written — work
    items see clones or read-only views, and a write from anywhere else is
    exactly the race the guard exists to catch.

    Executors are :class:`~repro.stateful.Stateful` with empty payloads by
    design: pools, snapshot chains, and publish meters are all *derived*
    runtime state, rebuilt lazily from the models a resumed coordinator
    republishes — a checkpoint carries no executor bytes, which is also
    what lets a run resume under a different backend.  (The fault ledger
    is telemetry, not trajectory: the coordinator drains it into the log
    each round, and the log is what checkpoints.)

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
        # carry it; the process backend hands it to its publisher).
        self.transport = transport
        self.fault_plan = (
            FaultPlan(seed, faults)
            if faults is not None and faults.any_enabled()
            else None
        )
        # Recovery ledger, drained by the coordinator each round.  Guarded
        # by a lock — the thread backend's retry path meters from worker
        # threads.
        self._fault_records: list[FaultRecord] = []
        self._meter_lock = threading.Lock()

    # ------------------------------------------------------------------
    # the two entry points: build the job list, publish-guard, one wave
    # ------------------------------------------------------------------
    def train_round(
        self, round_idx: int, items: list[TrainItem], models: dict[str, CellModel]
    ) -> list[ClientUpdate]:
        """Run local training for every item; results in item order.

        The wave is dispatched as cohorts (:meth:`_cohorts`), one job each.
        With a retry policy configured, a slot may hold an
        :class:`~repro.fl.faults.ItemFailure` instead of an update.
        """
        cohorts = self._cohorts(items, models)
        jobs = [("train", tuple(items[i] for i in cohort)) for cohort in cohorts]
        with _sanitize.published(models):
            results = self._run_wave(models, jobs, round_idx)
        updates: list = [None] * len(items)
        for cohort, trained in zip(cohorts, results):
            for i, update in zip(cohort, trained):
                updates[i] = update
        return updates

    def _cohorts(self, items: list[TrainItem], models: dict[str, CellModel]) -> list[list[int]]:
        """Cut a wave into cohorts: lists of item positions, one job each.

        Items sharing ``(model_id, min(batch_size, n))`` train as one stacked
        step, grouped in first-appearance order and cut into at most
        :attr:`workers` contiguous sub-cohorts so a pool stays busy.  An
        item of a model without a replica axis (``CellModel.stackable``) is
        its own cohort, and so is every item when faults or retries are
        configured — injected faults, attempt counts, backoff and the
        recovery ledger are per item.  Any cut yields the same bytes
        (CONTRACTS.md I1), so this is a cost decision only.
        """
        if self.fault_plan is not None or self.retry is not None:
            return [[i] for i in range(len(items))]
        groups: dict[object, list[int]] = {}
        stackable = {model_id: model.stackable for model_id, model in models.items()}
        for i, item in enumerate(items):
            n = self.clients_by_id[item.client_id].data.num_train
            key = (item.model_id, min(self.trainer_config.batch_size, n))
            groups.setdefault(key if stackable[item.model_id] else i, []).append(i)
        cohorts = []
        for group in groups.values():
            parts = min(self.workers, len(group))
            cuts = [len(group) * p // parts for p in range(parts + 1)]
            cohorts += [group[a:b] for a, b in zip(cuts, cuts[1:])]
        return cohorts

    def eval_and_logits_round(
        self,
        eval_tasks: list[EvalTask],
        logits_tasks: list[EvalTask],
        models: dict[str, CellModel],
        batch_size: int,
    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Run accuracy groups and logits tasks as one wave; two result lists.

        A sweep (:class:`~repro.fl.eval_cache.EvalCache`) dispatches both
        kinds — accuracy tasks for single-model groups, member-logits
        tasks for ensembles; one wave keeps parallel backends' workers busy
        across both and the process backend publishes once for it.
        """
        jobs = [("eval", (t, batch_size)) for t in eval_tasks] + [
            ("logits", (t, batch_size)) for t in logits_tasks
        ]
        with _sanitize.published(models):
            results = self._run_wave(models, jobs, -1)
        return results[: len(eval_tasks)], results[len(eval_tasks) :]

    @abstractmethod
    def _run_wave(
        self, models: dict[str, CellModel], jobs: list[tuple], round_idx: int
    ) -> list:
        """Submit one wave of jobs; results in job order.

        ``jobs`` is ``[(kind, payload), ...]`` with kind ``"train"``
        (payload: a cohort, i.e. a tuple of :class:`TrainItem`; result: the
        list of their updates) or ``"eval"``/``"logits"`` (payload:
        ``(task, batch_size)``; ``round_idx`` is then -1).
        """

    @property
    def workers(self) -> int:
        """How many jobs run at once (the pool size)."""
        return self.max_workers or (os.cpu_count() or 1)

    def close(self) -> None:
        """Release pooled resources (idempotent; pools recreate lazily)."""

    # ------------------------------------------------------------------
    # fault ledger + the two shared decisions
    # ------------------------------------------------------------------
    def _record_fault(self, round_idx: int, kind: str, action: str, **fields) -> None:
        with self._meter_lock:
            self._fault_records.append(FaultRecord(round_idx, kind, action, **fields))

    def drain_fault_records(self) -> list[FaultRecord]:
        """Hand the accumulated fault ledger to the caller (and reset it)."""
        with self._meter_lock:
            records, self._fault_records = self._fault_records, []
        return records

    def _dispose(
        self, round_idx: int, item: TrainItem | None, err: Exception, attempts: int
    ) -> tuple[ItemFailure | None, float]:
        """What a failed attempt becomes — the one retry/fail/propagate decision.

        Called by both retry loops (:meth:`_run_job`, the process
        ``_run_wave``) with ``attempts`` counting the failed one and
        ``item=None`` for eval work.  Propagates ``err`` with no retry
        policy and for exhausted eval work (no degraded mode); otherwise
        records the fault and returns ``(failure, backoff)`` — the
        permanent-failure sentinel, or ``None`` and the simulated seconds
        the retry charges (task-level failures only: I10).
        """
        if self.retry is None:
            raise err
        exhausted = attempts >= self.retry.max_attempts
        if exhausted and item is None:
            raise err
        self._record_fault(
            round_idx, fault_kind(err), "failed" if exhausted else "retry",
            client_id=item.client_id if item else None,
            model_id=item.model_id if item else None,
            detail=str(err), attempts=attempts,
        )
        if exhausted:
            failure = ItemFailure(
                item.model_id, item.client_id, item.sub_idx, str(err), attempts
            )
            return failure, 0.0
        return None, 0.0 if is_infrastructure_fault(err) else self.retry.backoff(attempts)

    def _run_job(self, models: dict[str, CellModel], job: tuple, round_idx: int):
        """One job in this process (serial, thread): train items retry in place."""
        attempts = 0
        delay = 0.0
        while True:
            try:
                result = _attempt(
                    self, lambda: models, round_idx, job, attempts, worker_side=False
                )
            except Exception as err:
                if job[0] != "train":
                    raise  # in-process eval work is never retried
                attempts += 1
                failure, backoff = self._dispose(round_idx, job[1][0], err, attempts)
                if failure is not None:
                    return [failure]
                delay += backoff
            else:
                if delay:
                    for update in result:
                        update.round_time += delay
                return result


class SerialExecutor(RoundExecutor):
    """The reference backend: one in-process loop."""

    backend = "serial"
    workers = 1

    def _run_wave(self, models, jobs, round_idx):
        return [self._run_job(models, job, round_idx) for job in jobs]


class ThreadPoolRoundExecutor(RoundExecutor):
    """Thread-pool backend: shared memory, BLAS-released-GIL parallelism."""

    backend = "thread"
    _pool: concurrent.futures.ThreadPoolExecutor | None = None

    def _ensure_pool(self) -> concurrent.futures.ThreadPoolExecutor:
        if self._pool is None:
            self._pool = concurrent.futures.ThreadPoolExecutor(max_workers=self.workers)
        return self._pool

    def _run_wave(self, models, jobs, round_idx):
        pool = self._ensure_pool()
        futures = [pool.submit(self._run_job, models, job, round_idx) for job in jobs]
        return [f.result() for f in futures]

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
# Worker-process fleet state (the ``env`` of _attempt), installed once per
# worker by _proc_init; the worker's snapshot state lives with its reader
# in repro.fl.snapshot.
_WORKER = SimpleNamespace()


def _proc_init(payload: bytes) -> None:
    clients, trainer_config, _WORKER.seed, dtype, _WORKER.fault_plan = pickle.loads(payload)
    set_compute_dtype(dtype)
    _WORKER.clients_by_id = {c.client_id: c for c in clients}
    _WORKER.trainer = LocalTrainer(trainer_config)
    _snapshot.worker_reset()


def _proc_job(version: int, chain: tuple, round_idx: int, job: tuple, attempt: int = 0):
    """One job in a worker.  Retried train items arrive with ``attempt >= 1``
    (the coordinator owns attempt accounting across pool rebuilds)."""
    return _attempt(
        _WORKER, lambda: _snapshot.worker_models(version, chain),
        round_idx, job, attempt, worker_side=True,
    )


class ProcessPoolRoundExecutor(RoundExecutor):
    """Process-pool backend: true multi-core rounds.

    The fleet ships to workers once via the pool initializer; each wave's
    models are published once through :attr:`publisher` (a
    :class:`~repro.fl.snapshot.SnapshotPublisher`: incremental, versioned,
    shared-memory) and workers map them lazily, so the per-item payload
    stays a few hundred bytes.  What this class adds to the wave contract
    is pool lifecycle, bounded publish retry, and the heal loop.
    """

    backend = "process"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._pool: concurrent.futures.ProcessPoolExecutor | None = None
        self.publisher = _snapshot.SnapshotPublisher(
            rle=bool(self.transport is not None and self.transport.snapshot_rle),
            fault_plan=self.fault_plan,
        )

    # The three publish meters the coordinator and the benchmark harness
    # read off the executor; the other six are on the publisher.
    publish_count = property(lambda self: self.publisher.publish_count)
    bytes_published_total = property(lambda self: self.publisher.bytes_published_total)
    raw_bytes_published_total = property(
        lambda self: self.publisher.raw_bytes_published_total
    )

    def _ensure_pool(self) -> concurrent.futures.ProcessPoolExecutor:
        if self._pool is None:
            payload = pickle.dumps(
                (
                    list(self.clients_by_id.values()),
                    self.trainer_config,
                    self.seed,
                    compute_dtype_name(),
                    # Workers hold the same stateless FaultPlan: worker-side
                    # decisions (SIGKILL, task errors, poison) match the
                    # coordinator's replay of the same spawn keys.
                    self.fault_plan,
                )
            )
            self._pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.workers, initializer=_proc_init, initargs=(payload,)
            )
        return self._pool

    def _publish_resilient(
        self, models: dict[str, CellModel], round_idx: int
    ) -> tuple[int, tuple]:
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
                return self.publisher.publish(models, fault_attempt=fault_attempt)
            except InjectedShmFault as err:
                fault_attempt += 1
                limit = self.retry.max_attempts if self.retry is not None else 2
                if fault_attempt >= limit:
                    raise
                self._record_fault(
                    round_idx, "shm_publish", "retry",
                    detail=str(err), attempts=fault_attempt,
                )

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
        self.close()

    def _run_wave(
        self, models: dict[str, CellModel], jobs: list[tuple], round_idx: int
    ) -> list:
        """Dispatch one wave of work with self-healing and bounded retry.

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

        Task-level exceptions get the in-process backends' verdicts
        (:meth:`RoundExecutor._dispose`): bounded retries charging
        simulated backoff, permanent train failures degrade to
        :class:`~repro.fl.faults.ItemFailure`, eval/logits failures
        propagate on exhaustion, and with no retry policy the first
        failure propagates after the wave settles.
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
                    futures[i] = pool.submit(
                        _proc_job, version, chain, round_idx, jobs[i], attempts[i]
                    )
            except concurrent.futures.process.BrokenProcessPool as err:
                broken = err
            if futures:
                # Settle the whole wave before touching any result: a plain
                # ``[f.result() ...]`` aborts on the first failure while
                # later futures are still running, and the next publish
                # must never retire a snapshot under a mid-attach worker.
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
                    failure, backoff = self._dispose(
                        round_idx, payload[0] if kind == "train" else None, err, attempts[i]
                    )
                    if failure is not None:
                        results[i] = [failure]
                    else:
                        delays[i] += backoff
                        retry_idx.append(i)
                else:
                    if delays[i] and kind == "train":
                        for update in res:
                            update.round_time += delays[i]
                    results[i] = res
            pending = sorted(set(retry_idx) | {i for i in pending if i not in futures})
            if broken is not None:
                rebuilds += 1
                if rebuilds > POOL_REBUILD_LIMIT:
                    self.close()
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
                            and self.fault_plan.item_faults(round_idx, payload[0]).crash
                        ):
                            attempts[i] = 1
        return results

    def close(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)
        self.publisher.release()

    def state_dict(self) -> dict:
        # Pool and publisher are rebuilt from the first post-resume wave;
        # persisting them would pin a checkpoint to this backend for no
        # benefit.
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
