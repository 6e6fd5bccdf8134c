"""Pluggable round-execution engine: serial, thread-pool, and process-pool.

The coordinator describes a round as *work items* — ``(model_id, client_id,
sub_idx)`` triples for local training, ``(model_ids, client_ids)`` groups
for evaluation — and a :class:`RoundExecutor` decides how they run.  Three
backends ship:

=================================  ==============================================
backend                            its pool (:meth:`RoundExecutor._make_pool`)
=================================  ==============================================
:class:`SerialExecutor`            inline: ``submit`` runs the call (the reference)
:class:`ThreadPoolRoundExecutor`   a ``ThreadPoolExecutor``
:class:`ProcessPoolRoundExecutor`  a ``ProcessPoolExecutor`` fed by a publisher
=================================  ==============================================

Everything else exists once: :class:`RoundExecutor`'s two entry points
(``train_round``, ``eval_round``) build a job list for its one wave loop
(:meth:`RoundExecutor._run_wave`: submit, settle the whole wave, dispose of
each failure in job order, re-dispatch, heal a broken pool),
:func:`_attempt` is the only place a work item runs (in this process or in
a pool worker), and :meth:`RoundExecutor._dispose` decides what a failed
attempt becomes.  A process-pool worker inherits the static fleet when it
forks (``multiprocessing`` pickles the fleet into each worker only under
the spawn or forkserver start method) and maps the models from a
shared-memory snapshot segment, published once per pass of the loop, so
a work item carries ``(model_id, client_id, seed material)`` — never a
pickled model.

**Cohorts.**  The unit a backend dispatches is a *cohort*, not an item:
``train_round`` groups a wave's items by ``(model_id, min(batch_size, n))``
in first-appearance order (:meth:`RoundExecutor._cohorts`), each group
trains as K replicas of one NumPy loop on a K-replica workspace
(:func:`_train_item`; :mod:`repro.fl.client` describes the replica axis),
and the updates are scattered back to item order.  A sweep's unit is a
*row range*: ``eval_round`` cuts each of a wave's ``g`` deployment groups
into ``ceil(workers / g)`` contiguous ranges of its concatenated test rows
(no more than it has batches, so a wave of at least ``workers`` groups is
not cut), cut only at multiples of the sweep's batch size
(:meth:`RoundExecutor._row_ranges`); a range's job carries only the
clients it overlaps, runs the ``predict`` batches the whole group would
and returns per-client hit counts, which are summed over the ranges and
divided once.  Both cuts split evenly by one rule (:func:`_even_cuts`).

**Workspaces persist.**  Each thread (serial: the caller's; thread: each
pool thread; process: each worker) keeps one workspace per model id
(:func:`_workspace`), and every forward pass runs on one: a training
cohort's and a sweep's alike.  A model's first job in a thread builds it
(:meth:`CellModel.replicate`); later jobs refill it in place
(:meth:`CellModel.refill`: ``np.copyto`` from the published model into its
flat arena) instead of deep-copying the model — a sweep's member forward
at K = 1, a cohort at its own K.  It is rebuilt when
the model's tensor shapes moved and dropped once the model is absent from
a wave.  Its layers' forward caches are dropped when each job returns;
their pooled scratch buffers stay warm until the thread checks out a
different model, so a thread holds one model's scratch at most.  Parallel
backends cut a group into at most ``workers`` contiguous sub-cohorts.  The
singleton rule: an item is its own cohort when its model holds a layer
without a replica axis (conv, norms, attention, dropout) and whenever a
fault plan or a retry policy is configured, so injected faults, attempt
counts, backoff and the recovery ledger stay per item.  There is no
switch: cohorts form from what the wave contains, and how a wave is cut is
not part of the trajectory.

**Determinism contract.** Every work item derives its RNG as
``np.random.default_rng(SeedSequence(seed, spawn_key=(round, client,
sub)))`` via :func:`derive_client_rng`, results are returned in submission
order, and training mutates only a private workspace refilled from the
published model.  Because the arithmetic per item is identical and nothing
depends on completion order — nor on which cohort an item rode in, nor on
what its workspace trained before: replica ``r`` of a stacked step equals
the item trained alone on a fresh clone, bit for bit — serial, thread, and
process runs of the same seed produce bit-identical
:class:`~repro.fl.types.TrainingLog` records.
"""

from __future__ import annotations

import concurrent.futures
import os
import threading
from abc import ABC, abstractmethod
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate, chain
from types import SimpleNamespace

import numpy as np

from ..analysis import sanitize as _sanitize
from ..nn.compute import compute_dtype_name, set_compute_dtype
from ..nn.model import CellModel
from ..stateful import Stateful
from . import snapshot as _snapshot
from .client import LocalTrainer, LocalTrainerConfig
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
    # The round or dispatch wave that seeds the item; None: the round
    # ``train_round`` runs it in.  Set when one call trains several waves.
    round_idx: int | None = None


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
def _workspace(
    workspaces: dict[int, dict[str, CellModel]],
    models: dict[str, CellModel],
    model_id: str,
    k: int,
) -> CellModel:
    """This thread's workspace for ``k`` replicas of ``models[model_id]``.

    ``workspaces`` maps a thread to its workspaces by model id, so two jobs
    running at once never share one (a pool worker process holds its own
    map).  A workspace (:meth:`CellModel.replicate`) is built on a model's
    first job in a thread — a training cohort or a sweep's member forward
    (K = 1) — and refilled in place for every later one
    (:meth:`CellModel.refill`: ``np.copyto`` from the published model),
    rebuilt when the model's tensor shapes moved, and
    dropped once the model is absent from a wave.

    A workspace keeps its layers' pooled scratch buffers between jobs, so a
    model's next job runs on warm memory; checking out a different model
    releases the buffers of the one this thread ran last, so a thread holds
    one model's scratch at most.  ``held`` is kept in run order: its last
    key is that workspace, found without a scan.
    """
    held = workspaces.setdefault(threading.get_ident(), {})
    for absent in held.keys() - models.keys():
        del held[absent]
    last = next(reversed(held), model_id)
    if last != model_id:
        held[last].release_scratch()
    model = models[model_id]
    work = held.pop(model_id, None)
    if work is None or not work.refill(model, k):
        work = model.replicate(k)
    held[model_id] = work
    return work


def _train_item(
    models: dict[str, CellModel], env, round_idx: int, cohort: tuple[TrainItem, ...]
) -> list[ClientUpdate]:
    """Train one cohort — items of one model and one batch size — as one
    call on this thread's workspace of K replicas (K = 1: no replica axis).
    The workspace is private and refilled from the published model, which
    is never written through; its layers' forward caches are dropped when
    the item returns, and their pooled scratch buffers stay for the
    thread's next job (:func:`_workspace`)."""
    work = _workspace(env.workspaces, models, cohort[0].model_id, len(cohort))
    clients = [env.clients_by_id[it.client_id] for it in cohort]
    rngs = [
        derive_client_rng(
            env.seed, round_idx if it.round_idx is None else it.round_idx, it.client_id, it.sub_idx
        )
        for it in cohort
    ]
    try:
        if len(cohort) == 1:
            return [env.trainer.train(work, clients[0], rngs[0])]
        return env.trainer.train(work, clients, rngs)
    finally:
        work.drop_caches()


def ensemble_hits(
    member_logits,
    num_members: int,
    clients_by_id: dict[int, FLClient],
    client_ids: tuple[int, ...],
    lo: int,
    hi: int,
) -> np.ndarray:
    """Average member logits, count each client's hits: the one scorer.

    ``member_logits`` yields each member model's logits over rows
    ``[lo, hi)`` of ``client_ids``' concatenated test rows, in ensemble
    order (:func:`_eval_task` feeds it :func:`_member_logits` output).

    One ``argmax`` over the range, hits counted per client with
    ``bincount``: exact integers in float64, so the counts of a group's
    ranges sum to the count of the group scored whole, whatever the cut.
    :meth:`RoundExecutor.eval_round` divides the sum by each client's row
    count once — the bits a per-client bool ``mean()`` gives.
    """
    logits: np.ndarray | None = None
    for out in member_logits:
        logits = out if logits is None else logits + out
    logits = logits / num_members
    ys = [clients_by_id[cid].data.y_test for cid in client_ids]
    owner = np.repeat(np.arange(len(ys)), [len(y) for y in ys])[lo:hi]
    correct = logits.argmax(axis=-1) == np.concatenate(ys)[lo:hi]
    return np.bincount(owner, weights=correct, minlength=len(ys))


def _eval_task(
    models: dict[str, CellModel], env, task: EvalTask, lo: int, hi: int, batch_size: int
) -> np.ndarray:
    """Per-client hit counts over rows ``[lo, hi)`` of ``task``'s clients'
    concatenated test rows, one row range of a deployment group
    (:meth:`RoundExecutor.eval_round`): each member's logits over those
    rows, in member order, scored where they are computed, so only the
    counts cross the wire."""
    return ensemble_hits(
        (
            _member_logits(models, env, mid, task.client_ids, lo, hi, batch_size)
            for mid in task.model_ids
        ),
        len(task.model_ids),
        env.clients_by_id,
        task.client_ids,
        lo,
        hi,
    )


def _member_logits(
    models: dict[str, CellModel],
    env,
    model_id: str,
    client_ids: tuple[int, ...],
    lo: int,
    hi: int,
    batch_size: int,
) -> np.ndarray:
    """Raw logits of one model over rows ``[lo, hi)`` of ``client_ids``'
    concatenated test rows.

    The only forward pass of a sweep.  The range starts at a multiple of
    ``batch_size`` counted from its group's first row
    (:meth:`RoundExecutor.eval_round`), so ``predict`` runs the very
    batches a forward over the whole group would.  It runs on this
    thread's workspace of the model (:func:`_workspace`, K = 1: refilled
    from the published model with ``np.copyto``), never on the published
    model itself, whose layer caches two threads would otherwise race on.
    The workspace's forward caches are dropped when the call returns, so no
    range of test rows stays pinned between sweeps; its pooled buffers stay
    warm (:func:`_workspace`).
    """
    xs = np.concatenate([env.clients_by_id[cid].data.x_test for cid in client_ids])[lo:hi]
    work = _workspace(env.workspaces, models, model_id, 1)
    try:
        return work.predict(xs, batch_size)
    finally:
        work.drop_caches()


def _even_cuts(n: int, parts: int) -> list[int]:
    """The ``parts + 1`` boundaries that cut ``range(n)`` into ``parts``
    contiguous runs whose lengths differ by at most one: the one split rule
    of training cohorts and sweep row ranges."""
    return [n * p // parts for p in range(parts + 1)]


def _attempt(env, load_models, round_idx: int, job: tuple, attempt: int, worker_side: bool):
    """One attempt at one job — the only place work actually runs.  A train
    job's payload is a cohort (a tuple of :class:`TrainItem`) and its result
    the list of their updates.

    ``env`` (the executor in-process, :data:`_WORKER` in a pool worker)
    carries ``fault_plan`` / ``clients_by_id`` / ``trainer`` / ``seed`` /
    ``workspaces``.
    Faults fire on attempt 0 only — a retried item runs clean on every
    backend — and ``fire_pre`` runs *before* ``load_models`` replays a
    worker's snapshot, so an injected SIGKILL takes the worker down
    mid-task exactly as a real crash would: future unresolved, pool broken.
    """
    kind, payload = job
    if kind == "eval":
        return _eval_task(load_models(), env, *payload)
    plan = env.fault_plan
    # A fault plan makes every cohort a singleton (RoundExecutor._cohorts).
    decision = plan.item_faults(round_idx, payload[0]) if plan is not None and attempt == 0 else None
    if decision is not None:
        decision.fire_pre(worker_side=worker_side)
    updates = _train_item(load_models(), env, round_idx, payload)
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
    and logs are order-sensitive.  A backend supplies its pool
    (:meth:`_make_pool`) and nothing else round-shaped; the process backend
    also publishes the models once per pass (:meth:`_submitter`).

    Every wave runs under :func:`repro.analysis.sanitize.published` (a
    no-op unless the sanitizer is on; CONTRACTS.md I7): while a round is in
    flight the server models are published and must not be written — work
    items read them into private workspaces, and a write from anywhere else
    is exactly the race the guard exists to catch.

    Executors are :class:`~repro.stateful.Stateful` with empty payloads by
    design: pools, snapshot segments, and publish meters are all *derived*
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
    sentinel in its result slot instead of aborting the round; eval jobs
    retry the same way and raise when exhausted.  With ``retry=None`` (the
    default) the first failure propagates — exactly the
    pre-fault-subsystem behavior.
    """

    backend: str = "abstract"
    _pool: concurrent.futures.Executor | None = None
    # Snapshot bytes published to workers so far (a segment is always raw,
    # so these are its on-wire bytes too); only the process backend
    # publishes, the others stay at zero.
    bytes_published_total: int = 0
    # Pools, published segments and meters are derived, so a checkpoint
    # taken under one backend resumes under any other.
    state_fields = {}

    def __init__(
        self,
        clients: list[FLClient],
        trainer_config: LocalTrainerConfig,
        seed: int,
        max_workers: int | None = None,
        *,
        faults: FaultConfig | None = None,
        retry: RetryPolicy | None = None,
    ):
        self.clients_by_id = {c.client_id: c for c in clients}
        # Test-row count by client id, read once: a fleet's data is fixed at
        # registration, and eval_round cuts every sweep by these counts.
        self.num_test = {c.client_id: c.data.num_test for c in clients}
        self.trainer_config = trainer_config
        self.trainer = LocalTrainer(trainer_config)
        # Training workspaces by thread, then model id (_workspace).
        self.workspaces: dict[int, dict[str, CellModel]] = {}
        self.seed = seed
        self.max_workers = max_workers
        self.faults = faults
        self.retry = retry
        self.fault_plan = (
            FaultPlan(seed, faults)
            if faults is not None and faults.any_enabled()
            else None
        )
        # Recovery ledger, drained by the coordinator each round; written
        # only by the thread running the wave loop, so it is in job order.
        self._fault_records: list[FaultRecord] = []

    # ------------------------------------------------------------------
    # the two entry points: build the job list, publish-guard, one wave
    # ------------------------------------------------------------------
    def train_round(
        self, round_idx: int, items: list[TrainItem], models: dict[str, CellModel]
    ) -> list[ClientUpdate]:
        """Run local training for every item; results in item order.

        The wave is dispatched as cohorts (:meth:`_cohorts`), one job each.
        An item seeds from its own ``round_idx`` when it carries one (the
        async engine trains several dispatch waves in one call), else from
        ``round_idx``.  With a retry policy configured, a slot may hold an
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
            cuts = _even_cuts(len(group), min(self.workers, len(group)))
            cohorts += [group[a:b] for a, b in zip(cuts, cuts[1:])]
        return cohorts

    def eval_round(
        self, tasks: list[EvalTask], models: dict[str, CellModel], batch_size: int
    ) -> list[np.ndarray]:
        """Score every deployment group as one wave; accuracies in task order.

        A sweep (:meth:`~repro.fl.coordinator.Coordinator.evaluate`)
        dispatches every deployment group, single models and ensembles
        alike, each cut into row ranges (:meth:`_row_ranges`), one job each,
        which carries only the run of the group's clients its range
        overlaps.  A job
        returns its rows' per-client hit counts; a group's counts are summed
        over its ranges (exact integers in float64) and the wave's clients
        divided by their row counts in one op, a test-less client scoring
        0.0 — a mean over a zero-length slice would be NaN and poison the
        eval's mean.
        """
        counts = [[self.num_test[cid] for cid in task.client_ids] for task in tasks]
        # The wave's clients are the tasks' clients concatenated; ``at`` is
        # where each job's first client sits among them.
        jobs, at, offset = [], [], 0
        for task, rows in zip(tasks, counts):
            starts = [0, *accumulate(rows)]
            for lo, hi in self._row_ranges(starts[-1], batch_size, len(tasks)):
                # A job holds only the clients its range overlaps, so each
                # client's rows are joined once per member, whatever the cut.
                first = bisect_right(starts, lo) - 1
                last = bisect_left(starts, hi)
                base = starts[first]
                part = EvalTask(task.model_ids, task.client_ids[first:last])
                jobs.append(("eval", (part, lo - base, hi - base, batch_size)))
                at.append(offset + first)
            offset += len(rows)
        with _sanitize.published(models):
            results = self._run_wave(models, jobs, -1)
        num_test = np.fromiter(chain.from_iterable(counts), np.int64, offset)
        hits = np.zeros(offset)
        for start, hit in zip(at, results):
            hits[start : start + len(hit)] += hit
        accs = np.divide(hits, num_test, out=np.zeros(offset), where=num_test > 0)
        bounds = [0, *accumulate(len(rows) for rows in counts)]
        return [accs[a:b] for a, b in zip(bounds, bounds[1:])]

    def _row_ranges(self, rows: int, batch_size: int, groups: int) -> list[tuple[int, int]]:
        """Cut one of a wave's ``groups`` deployment groups, ``rows`` test
        rows long, into contiguous ``[lo, hi)`` ranges, one job each.

        A wave of fewer groups than :attr:`workers` would leave workers
        idle, so each group is cut into ``ceil(workers / groups)`` ranges,
        no more than it has batches; a wave of at least as many groups as
        workers already keeps a pool busy and is not cut (more jobs would
        only add dispatch, workspace refills and joins).  On serial every
        group is one range.  Cuts fall only at multiples of ``batch_size``
        from the group's first row and the last range ends at ``rows``, so
        each range runs the very ``predict`` batches the uncut group would;
        a group without rows is no job.  As with :meth:`_cohorts`, any cut
        yields the same bytes.
        """
        if rows == 0:
            return []
        batches = -(-rows // batch_size)
        parts = min(-(-self.workers // groups), batches)
        cuts = [c * batch_size for c in _even_cuts(batches, parts)]
        cuts[-1] = rows
        return list(zip(cuts, cuts[1:]))

    @property
    def workers(self) -> int:
        """How many jobs run at once (the pool size)."""
        return self.max_workers or (os.cpu_count() or 1)

    # ------------------------------------------------------------------
    # the pool (the one thing a backend supplies) and the one wave loop
    # ------------------------------------------------------------------
    @abstractmethod
    def _make_pool(self) -> concurrent.futures.Executor:
        """A fresh pool of :attr:`workers` for :meth:`_run_wave`."""

    def _ensure_pool(self) -> concurrent.futures.Executor:
        if self._pool is None:
            self._pool = self._make_pool()
        return self._pool

    def _submitter(self, models: dict[str, CellModel], round_idx: int):
        """One pass's ``submit(job, attempt)``; in-process, a job reads ``models``."""
        pool = self._ensure_pool()
        return lambda job, attempt: pool.submit(
            _attempt, self, lambda: models, round_idx, job, attempt, worker_side=False
        )

    def close(self) -> None:
        """Release pooled resources (idempotent; pools recreate lazily)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)
        self.workspaces.clear()

    def _run_wave(
        self, models: dict[str, CellModel], jobs: list[tuple], round_idx: int
    ) -> list:
        """Run one wave of jobs, retrying and healing; results in job order.

        ``jobs`` is ``[(kind, payload), ...]`` with kind ``"train"``
        (payload: a cohort, i.e. a tuple of :class:`TrainItem`; result: the
        list of their updates) or ``"eval"`` (payload: ``(task, lo, hi,
        batch_size)``, ``task`` the clients of one row range of a group;
        result: per-client hit counts over rows ``[lo, hi)`` of their test
        rows; ``round_idx`` is then -1).

        Each pass submits the pending jobs, settles the whole wave, and
        puts each failure through :meth:`_dispose` in job order, so the
        recovery ledger is in job order on every backend: a retry runs in
        the next pass charging simulated backoff, an exhausted train item
        degrades to :class:`~repro.fl.faults.ItemFailure`, exhausted eval
        work raises, and with no retry policy the first job's failure raises.

        A broken pool (a worker SIGKILL — injected or real) triggers
        :meth:`_heal` and re-dispatches only the unfinished jobs, at most
        ``POOL_REBUILD_LIMIT`` times per wave.  Finished jobs keep their
        attempt-0 results, and re-dispatched ones re-derive the same
        ``(round, client, sub)`` RNG streams, so a healed wave is
        bit-identical to a fault-free one.  With a fault plan, re-dispatched
        train items whose plan decision was the crash are bumped to attempt
        1 (their fault already fired; retries run clean) while innocent
        victims of the shared pool keep attempt 0 so their own faults still
        fire exactly once — cross-backend parity.
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
                submit = self._submitter(models, round_idx)
                for i in pending:
                    futures[i] = submit(jobs[i], attempts[i])
            except concurrent.futures.BrokenExecutor as err:
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
                    concurrent.futures.BrokenExecutor,
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
                        f"pool broke {rebuilds} times in one dispatch "
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

    def _heal(self, round_idx: int, err: BaseException) -> None:
        """Recover from a broken pool: record it and :meth:`close`; the next
        pass builds a fresh pool (and, on the process backend, publishes a
        fresh full snapshot: the dead workers' mappings went with them)."""
        self._record_fault(
            round_idx, "worker_crash", "pool_rebuild",
            detail=str(err) or type(err).__name__,
        )
        self.close()

    # ------------------------------------------------------------------
    # fault ledger + the retry verdict
    # ------------------------------------------------------------------
    def _record_fault(self, round_idx: int, kind: str, action: str, **fields) -> None:
        self._fault_records.append(FaultRecord(round_idx, kind, action, **fields))

    def drain_fault_records(self) -> list[FaultRecord]:
        """Hand the accumulated fault ledger to the caller (and reset it)."""
        records, self._fault_records = self._fault_records, []
        return records

    def _dispose(
        self, round_idx: int, item: TrainItem | None, err: Exception, attempts: int
    ) -> tuple[ItemFailure | None, float]:
        """What a failed attempt becomes — the one retry/fail/propagate decision.

        Called by :meth:`_run_wave` with ``attempts`` counting the failed
        one and ``item=None`` for eval work.  Propagates ``err`` with no
        retry policy and for exhausted eval work (no degraded mode);
        otherwise records the fault and returns ``(failure, backoff)`` — the
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


class _Settled:
    """A future born settled: what the serial pool's ``submit`` returns.

    It holds what ``concurrent.futures.wait`` and ``result`` read of a
    ``Future`` — a finished state and a condition to acquire — and none of
    what a live one needs (a condition variable, waiters, callbacks).
    Nothing can settle it again, so its condition is a no-op.
    """

    __slots__ = ("_value", "_error")
    _state = concurrent.futures._base.FINISHED
    _condition = SimpleNamespace(acquire=lambda: True, release=lambda: None)

    def __init__(self, value=None, error: Exception | None = None):
        self._value, self._error = value, error

    def result(self, timeout=None):
        if self._error is not None:
            raise self._error
        return self._value


class _InlinePool(concurrent.futures.Executor):
    """The serial pool: ``submit`` runs the call before it returns."""

    def submit(self, fn, /, *args, **kwargs) -> _Settled:
        try:
            return _Settled(fn(*args, **kwargs))
        except Exception as err:
            return _Settled(error=err)


class SerialExecutor(RoundExecutor):
    """The reference backend: every job runs inline on the caller's thread."""

    backend = "serial"
    workers = 1

    def _make_pool(self) -> concurrent.futures.Executor:
        return _InlinePool()


class ThreadPoolRoundExecutor(RoundExecutor):
    """Thread-pool backend: shared memory, BLAS-released-GIL parallelism."""

    backend = "thread"

    def _make_pool(self) -> concurrent.futures.Executor:
        return concurrent.futures.ThreadPoolExecutor(max_workers=self.workers)


# ----------------------------------------------------------------------
# process-pool backend
# ----------------------------------------------------------------------
# Worker-process fleet state (the ``env`` of _attempt), installed once per
# worker by _proc_init; the worker's snapshot state lives with its reader
# in repro.fl.snapshot.
_WORKER = SimpleNamespace()


def _proc_init(clients, trainer_config, seed, dtype, fault_plan) -> None:
    _WORKER.seed, _WORKER.fault_plan = seed, fault_plan
    set_compute_dtype(dtype)
    _WORKER.clients_by_id = {c.client_id: c for c in clients}
    _WORKER.trainer = LocalTrainer(trainer_config)
    _WORKER.workspaces = {}
    _snapshot.worker_reset()


def _proc_job(version: int, segment: str, round_idx: int, job: tuple, attempt: int = 0):
    """One job in a worker.  Retried train items arrive with ``attempt >= 1``
    (the coordinator owns attempt accounting across pool rebuilds)."""
    return _attempt(
        _WORKER, lambda: _snapshot.worker_models(version, segment),
        round_idx, job, attempt, worker_side=True,
    )


class ProcessPoolRoundExecutor(RoundExecutor):
    """Process-pool backend: true multi-core rounds.

    Workers inherit the fleet: the pool initializer is handed the live
    client objects, which a forked worker shares copy-on-write with this
    process and which ``multiprocessing`` pickles into each worker only
    under the spawn or forkserver start method.  Each wave's models are
    published once through :attr:`publisher` (a
    :class:`~repro.fl.snapshot.SnapshotPublisher`: one shared-memory
    segment, reused while it holds the suite's specs and bytes) and
    workers map it lazily, so the per-item payload stays a few hundred
    bytes.  What this class adds to the wave loop is its pool, the
    once-per-pass publish with bounded retry, and the arena release on
    :meth:`close`.
    """

    backend = "process"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.publisher = _snapshot.SnapshotPublisher(fault_plan=self.fault_plan)

    # The publish meters the coordinator and the benchmark harness read off
    # the executor.
    publish_count = property(lambda self: self.publisher.publish_count)
    bytes_published_total = property(lambda self: self.publisher.bytes_published_total)

    def _make_pool(self) -> concurrent.futures.Executor:
        initargs = (
            list(self.clients_by_id.values()),
            self.trainer_config,
            self.seed,
            compute_dtype_name(),
            # Workers hold the same stateless FaultPlan: worker-side
            # decisions (SIGKILL, task errors, poison) match the
            # coordinator's replay of the same spawn keys.
            self.fault_plan,
        )
        return concurrent.futures.ProcessPoolExecutor(
            max_workers=self.workers, initializer=_proc_init, initargs=initargs
        )

    def _submitter(self, models: dict[str, CellModel], round_idx: int):
        """One pass's ``submit``: the models are published once, and a job
        carries only the snapshot version and the segment its worker maps."""
        pool = self._ensure_pool()
        version, segment = self._publish_resilient(models, round_idx)
        return lambda job, attempt: pool.submit(
            _proc_job, version, segment, round_idx, job, attempt
        )

    def _publish_resilient(
        self, models: dict[str, CellModel], round_idx: int
    ) -> tuple[int, str]:
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

    def close(self) -> None:
        super().close()
        self.publisher.release()


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
        faults=faults, retry=retry,
    )
