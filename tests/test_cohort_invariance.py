"""How a wave is cut into cohorts is not part of the trajectory (CONTRACTS.md I1).

``RoundExecutor.train_round`` groups a wave's items by ``(model_id,
min(batch_size, n))`` and trains each group as one stacked step.  This file
is the differential witness: for one seeded wave — a three-model FedTrans
family, ragged clients, FedProx, momentum, weight decay, a clip threshold
some steps cross and some do not — **every** partition of the items into
cohorts (all singletons, one per model, random cuts) returns the same
bytes, field by field, on all three backends, and those bytes are what the
per-item loop of the parent commit produced (kept below as the oracle).
Conv cohorts and waves under faults or retries stay singletons.

Nor is the history of a thread's training workspaces: they persist across
items and waves, refilled from the published model, and a wave trained
through them again and again — after an aggregation bump, after a widened
child appears, after an item failed mid-way — still returns the bytes of a
fresh clone per item.  A workspace keeps its layers' pooled scratch between
items and a thread holds one model's at most; conv sweeps and waves
through that warm scratch return a fresh clone's bytes too.
"""

import os
import sys
import threading
import uuid

import numpy as np
import pytest

import oracle_deployment as oracle
import repro.fl.client as client_mod
import repro.fl.executor as executor_mod
from repro.data.federated import ClientData
from repro.device import DeviceTrace
from repro.device.latency import client_round_time
from repro.fl import FLClient, LocalTrainer, LocalTrainerConfig
from repro.fl.faults import FaultConfig, RetryPolicy
from repro.fl.executor import (
    EvalTask,
    TrainItem,
    derive_client_rng,
    make_executor,
)
from repro.nn import mlp, small_cnn
from repro.nn.model import CellModel
from repro.nn.optim import SGD

SEED = 11
ROUND = 3
TRAINER = LocalTrainerConfig(
    batch_size=10, local_steps=6, lr=0.1, momentum=0.9, weight_decay=1e-3,
    prox_mu=0.05, clip_norm=2.0,
)
BACKENDS = [("serial", None), ("thread", 3), ("process", 2)]
FIELDS = ("params", "state")
SCALARS = (
    "client_id", "model_id", "train_loss", "num_samples", "macs_spent",
    "bytes_down", "bytes_up", "round_time", "raw_bytes_up",
)


# ----------------------------------------------------------------------
# oracle: LocalTrainer.train as the parent commit wrote it
# ----------------------------------------------------------------------
def parent_train(cfg, model, client, rng):
    x, y = client.data.x_train, client.data.y_train
    n = len(y)
    opt = SGD(cfg.lr, cfg.momentum, cfg.weight_decay)
    global_params = {k: v.copy() for k, v in model.params().items()} if cfg.prox_mu else None
    losses = []
    for _ in range(cfg.local_steps):
        idx = rng.integers(0, n, size=min(cfg.batch_size, n))
        model.zero_grad()
        losses.append(model.loss_and_grad(x[idx], y[idx]))
        grads = model.grads()
        params = model.params()
        if cfg.clip_norm:
            gnorm = float(np.sqrt(sum(float((g**2).sum()) for g in grads.values())))
            if gnorm > cfg.clip_norm:
                scale = cfg.clip_norm / gnorm
                for g in grads.values():
                    g *= scale
        if cfg.prox_mu:
            for k in grads:
                grads[k] = grads[k] + cfg.prox_mu * (params[k] - global_params[k])
        opt.step(params, grads)
    batch = min(cfg.batch_size, n)
    nbytes = model.nbytes()
    return dict(
        client_id=client.client_id,
        model_id=model.model_id,
        params=model.get_params(),
        state=model.get_state(),
        train_loss=float(np.mean(losses)),
        num_samples=n,
        macs_spent=float(model.train_macs_per_sample()) * cfg.local_steps * batch,
        bytes_down=nbytes,
        bytes_up=nbytes,
        round_time=client_round_time(client.device, model.macs(), nbytes, batch, cfg.local_steps),
        raw_bytes_up=nbytes,
    )


# ----------------------------------------------------------------------
# the wave
# ----------------------------------------------------------------------
def _fleet(sizes, features, classes, rng):
    clients = []
    for cid, n in enumerate(sizes):
        x = rng.normal(size=(n, features)) * (0.2 if cid % 3 else 4.0)  # small and large gradients
        data = ClientData(cid, x, rng.integers(0, classes, n), x[:2], rng.integers(0, classes, 2))
        clients.append(FLClient(cid, data, DeviceTrace(cid, 10.0 ** (8 + cid % 3), 1e6, 1e15)))
    return clients


@pytest.fixture(scope="module")
def wave():
    rng = np.random.default_rng(SEED)
    base = mlp((12,), 5, rng, width=8)
    wide = base.clone()
    wide.widen_cell(wide.transformable_cells()[0].cell_id, 2.0, rng, noise=0.01)
    deep = wide.clone()
    deep.deepen_after(deep.transformable_cells()[0].cell_id, rng)
    models = {m.model_id: m for m in (base, wide, deep)}
    # Ragged: n < batch_size at several sizes, so one model spans cohorts.
    sizes = [40, 7, 25, 7, 3, 31, 12, 7, 18, 3, 22, 9, 7, 50]
    clients = _fleet(sizes, 12, 5, rng)
    ids = list(models)
    items = [TrainItem(ids[(3 * c.client_id) % 5 % 3], c.client_id, 0) for c in clients]
    items += [TrainItem(ids[2], 0, 1), TrainItem(ids[0], 5, 1)]  # a client training two models
    return clients, models, items


def _partitions(ex, items, models, rng):
    natural = ex._cohorts(items, models)
    per_group = {}
    for cohort in natural:
        per_group.setdefault((items[cohort[0]].model_id, _batch(ex, items[cohort[0]])), []).extend(cohort)
    yield "singletons", [[i] for i in range(len(items))]
    yield "natural", natural
    yield "whole groups", list(per_group.values())
    for trial in range(4):
        cut = []
        for group in per_group.values():
            lanes = rng.integers(0, rng.integers(1, len(group) + 1), size=len(group))
            cut += [[i for i, lane in zip(group, lanes) if lane == v] for v in set(lanes.tolist())]
        yield f"random {trial}", [cut[j] for j in rng.permutation(len(cut))]


def _batch(ex, item):
    return min(TRAINER.batch_size, ex.clients_by_id[item.client_id].data.num_train)


def _assert_same(update, ref, where):
    for name in SCALARS:
        assert getattr(update, name) == ref[name], (where, name)
    for name in FIELDS:
        got = getattr(update, name)
        assert list(got) == list(ref[name]), (where, name)
        for key, value in got.items():
            assert value.dtype == ref[name][key].dtype and np.array_equal(value, ref[name][key]), (
                where, name, key,
            )
            assert value.tobytes() == ref[name][key].tobytes(), (where, name, key)


@pytest.mark.parametrize("backend,workers", BACKENDS)
def test_any_cut_of_a_wave_gives_the_parents_bytes(wave, backend, workers, monkeypatch):
    clients, models, items = wave
    by_id = {c.client_id: c for c in clients}
    oracle = [
        parent_train(
            TRAINER, models[it.model_id].clone(keep_id=True), by_id[it.client_id],
            derive_client_rng(SEED, ROUND, it.client_id, it.sub_idx),
        )
        for it in items
    ]
    # The clip threshold is crossed by some replicas of a step and not by
    # others (seen on the in-process backends; pool workers are out of reach).
    crossed = []
    real_clip = client_mod.clip_by_global_norm

    def spy(arena, clip_norm):
        sq = sum((rows**2).sum(-1) for rows in arena.grad_rows)
        crossed.extend((np.sqrt(sq) > clip_norm).tolist())
        real_clip(arena, clip_norm)

    monkeypatch.setattr(client_mod, "clip_by_global_norm", spy)
    published = {mid: m.get_params() for mid, m in models.items()}
    ex = make_executor(backend, clients, TRAINER, SEED, workers)
    try:
        sizes = set()
        for name, partition in _partitions(ex, items, models, np.random.default_rng(5)):
            assert sorted(i for cohort in partition for i in cohort) == list(range(len(items)))
            sizes |= {len(cohort) for cohort in partition}
            ex._cohorts = lambda *_, partition=partition: partition
            updates = ex.train_round(ROUND, items, models)
            for i, (update, ref) in enumerate(zip(updates, oracle)):
                _assert_same(update, ref, (backend, name, i))
        assert max(sizes) >= 4 and 1 in sizes
    finally:
        ex.close()
    if backend != "process":
        assert True in crossed and False in crossed
    # A workspace copies: the published models were never written through.
    for mid, tree in published.items():
        assert all(np.array_equal(v, models[mid].params()[k]) for k, v in tree.items())


# ----------------------------------------------------------------------
# workspaces persist: refilled, rebuilt, dropped, never shared
# ----------------------------------------------------------------------
SENTINEL = 0.3125  # every feature of the client whose item fails mid-way


def _oracle(models, clients, items):
    by_id = {c.client_id: c for c in clients}
    return [
        parent_train(
            TRAINER, models[it.model_id].clone(keep_id=True), by_id[it.client_id],
            derive_client_rng(SEED, ROUND, it.client_id, it.sub_idx),
        )
        for it in items
    ]


def _pooled(work) -> list[np.ndarray]:
    """The pooled scratch buffers a workspace's layers and its model's
    shared workspace hold."""
    return [
        buf
        for cell in work.cells
        for _, layer in cell._named_layers()
        if hasattr(layer, "_ws")
        for buf in layer._ws._bufs.values()
    ] + list(work._shared_ws._bufs.values())


def _assert_between_items(held, ran, outputs):
    """What a thread's workspaces hold once a job returned: no forward
    cache; pooled buffers in ``ran``, the workspace that ran last, at most;
    and no returned array aliasing an arena, a state tensor or a buffer."""
    buffers = []
    for work in held.values():
        pooled = _pooled(work)
        assert work is ran or not pooled, "a thread kept a second model's scratch"
        for cell in work.cells:
            for _, layer in cell._named_layers():
                for cache in ("_cache", "_x", "_shape"):
                    assert getattr(layer, cache, None) is None, cache
        arena = work.arena
        buffers += [arena.params, arena.grads, arena.scratch, *work.state().values(), *pooled]
    for value in outputs:
        assert not any(np.may_share_memory(value, buf) for buf in buffers)


def _checked(real_train_item, seen):
    """``_train_item``, then the workspace invariants, asserted where the
    item ran (a pool worker's failure propagates to the test)."""

    def train_item(models, env, round_idx, cohort):
        updates = real_train_item(models, env, round_idx, cohort)
        held = env.workspaces[threading.get_ident()]
        assert held.keys() <= models.keys(), "a workspace outlived its model's wave"
        ran = held[cohort[0].model_id]
        seen.append((threading.get_ident(), ran))
        _assert_between_items(
            held, ran, [v for u in updates for v in (*u.params.values(), *u.state.values())]
        )
        return updates

    return train_item


def _checked_logits(real_member_logits, marks):
    """``_member_logits``, then the same invariants over its logits, its
    range overlaps the first and the last client it carries, and its logits
    equal a fresh clone's forward bytes over that slice of those clients'
    rows — asserted where the call ran, which leaves one file in ``marks``
    (pool workers' calls count too)."""

    def member_logits(models, env, model_id, client_ids, lo, hi, batch_size):
        logits = real_member_logits(models, env, model_id, client_ids, lo, hi, batch_size)
        held = env.workspaces[threading.get_ident()]
        _assert_between_items(held, held[model_id], [logits])
        rows = [env.clients_by_id[c].data.num_test for c in client_ids]
        assert 0 <= lo < rows[0] and sum(rows) - rows[-1] < hi <= sum(rows), (lo, hi, rows)
        xs = np.concatenate([env.clients_by_id[c].data.x_test for c in client_ids])[lo:hi]
        want = models[model_id].clone(keep_id=True).predict(xs, batch_size)
        assert logits.tobytes() == want.tobytes(), model_id
        (marks / f"{os.getpid()}-{threading.get_ident()}-{uuid.uuid4().hex}").touch()
        return logits

    return member_logits


def _fails_once_mid_item(real, marker):
    """``target_loss_and_grad`` that raises at the third step of the sentinel
    client's item, once across all processes (whoever removes ``marker``)."""
    calls = []

    def target_loss_and_grad(self, x, target):
        if (x == SENTINEL).any():
            calls.append(None)
            if len(calls) >= 3 and marker.exists():
                try:
                    marker.unlink()
                except FileNotFoundError:
                    pass
                else:
                    raise RuntimeError("injected mid-item")
        return real(self, x, target)

    return target_loss_and_grad


@pytest.mark.parametrize("backend,workers", BACKENDS)
def test_reused_workspaces_give_the_parents_bytes(wave, backend, workers, monkeypatch, tmp_path):
    clients, wave_models, items = wave
    rng = np.random.default_rng(23)
    x = np.full((12, 12), SENTINEL)
    sentinel = ClientData(99, x, rng.integers(0, 5, 12), x[:2], rng.integers(0, 5, 2))
    fleet = clients + [FLClient(99, sentinel, clients[0].device)]
    models = {mid: m.clone(keep_id=True) for mid, m in wave_models.items()}
    base_id, wide_id, deep_id = models
    child = models[wide_id].clone(birth_round=ROUND)  # a fresh id, born before the pool
    child.widen_cell(child.transformable_cells()[0].cell_id, 2.0, rng, noise=0.01)
    marker = tmp_path / "fail-once"
    seen: list = []
    monkeypatch.setattr(executor_mod, "_train_item", _checked(executor_mod._train_item, seen))
    monkeypatch.setattr(
        CellModel, "target_loss_and_grad",
        _fails_once_mid_item(CellModel.target_loss_and_grad, marker),
    )
    ex = make_executor(backend, fleet, TRAINER, SEED, workers)

    def check(phase, wave_items):
        updates = ex.train_round(ROUND, wave_items, models)
        for i, (update, ref) in enumerate(zip(updates, _oracle(models, fleet, wave_items))):
            _assert_same(update, ref, (backend, phase, i))

    try:
        check("first", items)
        check("reused", items)
        bumped = models[base_id]
        bumped.set_params({k: v + 0.01 for k, v in bumped.params().items()})
        check("after an aggregation bump", items)
        # The widened child joins, the deep model widens in place under its
        # id (its workspaces are rebuilt), and the base model leaves.
        del models[base_id]
        models[child.model_id] = child
        deep = models[deep_id]
        deep.widen_cell(deep.transformable_cells()[0].cell_id, 1.5, rng, noise=0.01)
        grown = [
            TrainItem(child.model_id if it.model_id == base_id else it.model_id,
                      it.client_id, it.sub_idx)
            for it in items
        ]
        check("after a widened child appears", grown)
        faulty = grown + [TrainItem(wide_id, 99, 0)]
        marker.touch()
        with pytest.raises(RuntimeError, match="injected mid-item"):
            ex.train_round(ROUND, faulty, models)
        assert not marker.exists()
        check("after an injected task error mid-item", faulty)
    finally:
        ex.close()
    if backend != "process":  # pool workers check the rest themselves
        threads: dict[int, set] = {}
        for ident, work in seen:
            threads.setdefault(id(work), set()).add(ident)
        assert all(len(owners) == 1 for owners in threads.values())  # never shared
        assert len(threads) < len(seen) / 2  # and mostly reused, not rebuilt
        assert (len({ident for ident, _ in seen}) > 1) == (backend == "thread")


def test_thread_workspaces_under_a_short_switch_interval(wave, monkeypatch):
    """More threads than cores, switching every microsecond, all singleton
    jobs: each thread's workspaces stay its own and the bytes stay the
    parent's, wave after wave."""
    clients, models, items = wave
    seen: list = []
    monkeypatch.setattr(executor_mod, "_train_item", _checked(executor_mod._train_item, seen))
    oracle = _oracle(models, clients, items)
    ex = make_executor("thread", clients, TRAINER, SEED, 8)
    ex._cohorts = lambda *_: [[i] for i in range(len(items))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for repeat in range(3):
            for i, (update, ref) in enumerate(zip(ex.train_round(ROUND, items, models), oracle)):
                _assert_same(update, ref, ("switching", repeat, i))
    finally:
        sys.setswitchinterval(interval)
        ex.close()
    threads: dict[int, set] = {}
    for ident, work in seen:
        threads.setdefault(id(work), set()).add(ident)
    assert len(seen) == 3 * len(items) and all(len(owners) == 1 for owners in threads.values())


# ----------------------------------------------------------------------
# conv workspaces: warm scratch between items, one model's per thread
# ----------------------------------------------------------------------
CONV_TRAINER = LocalTrainerConfig(batch_size=4, local_steps=3, lr=0.1, momentum=0.9, clip_norm=2.0)
SWEEP_BATCH = 4  # the training batch: a sweep's full batches reuse its buffers


@pytest.fixture(scope="module")
def conv_wave():
    """Two conv models of different widths over ragged image clients whose
    test chunks end in a ragged batch; the items alternate models."""
    rng = np.random.default_rng(SEED)
    narrow = small_cnn((3, 8, 8), 3, rng, width=4)
    wide = small_cnn((3, 8, 8), 3, rng, width=6)
    models = {m.model_id: m for m in (narrow, wide)}
    clients = []
    for cid, (n, n_test) in enumerate([(9, 5), (3, 3), (6, 7), (12, 2), (5, 6), (4, 1)]):
        x = rng.normal(size=(n + n_test, 3, 8, 8))
        y = rng.integers(0, 3, n + n_test)
        data = ClientData(cid, x[:n], y[:n], x[n:], y[n:])
        clients.append(FLClient(cid, data, DeviceTrace(cid, 1e9, 1e6, 1e15)))
    ids = list(models)
    items = [TrainItem(ids[c.client_id % 2], c.client_id, 0) for c in clients]
    return clients, models, items


@pytest.mark.parametrize("backend,workers", BACKENDS)
def test_conv_reuse_history_gives_a_fresh_clones_bytes(
    conv_wave, backend, workers, monkeypatch, tmp_path
):
    """A sweep with a ragged last batch, a training wave, a sweep, another
    wave and a sweep, all through warm conv workspaces (conv, BatchNorm,
    max-pool scratch): every member logit and update is a fresh clone's
    bytes, every group (single models and the two-model ensemble) scores
    its clones' ensemble, and after each job a thread holds the scratch of
    the model it ran last only."""
    clients, models, items = conv_wave
    by_id = {c.client_id: c for c in clients}
    seen: list = []
    monkeypatch.setattr(executor_mod, "_train_item", _checked(executor_mod._train_item, seen))
    monkeypatch.setattr(
        executor_mod, "_member_logits", _checked_logits(executor_mod._member_logits, tmp_path)
    )
    chunks = [(0, 1, 2), (3, 4, 5), (2,)]
    ensembles = [(mid,) for mid in models] + [tuple(models)]
    tasks = [EvalTask(ens, ids) for ids in chunks for ens in ensembles]
    ex = make_executor(backend, clients, CONV_TRAINER, SEED, workers)

    def sweep(phase):
        # The whole wave, then each group alone: a lone group is cut into
        # one range per worker, or per batch if it has fewer.
        for wave in [tasks, *([t] for t in tasks)]:
            before = sum(1 for _ in tmp_path.iterdir())
            accs = ex.eval_round(wave, models, SWEEP_BATCH)
            checked = sum(1 for _ in tmp_path.iterdir()) - before
            share = -(-ex.workers // len(wave))
            batches = [-(-sum(by_id[c].data.num_test for c in t.client_ids) // SWEEP_BATCH) for t in wave]
            assert checked == sum(len(t.model_ids) * min(share, b) for t, b in zip(wave, batches)), (
                backend, phase,
            )
            for task, acc in zip(wave, accs):
                xs = np.concatenate([by_id[c].data.x_test for c in task.client_ids])
                assert len(xs) % SWEEP_BATCH, "the chunk ends in a full batch"
                want = [models[mid].clone(keep_id=True).predict(xs, SWEEP_BATCH) for mid in task.model_ids]
                assert acc.tobytes() == oracle.ensemble_accuracies(
                    want, len(want), by_id, task.client_ids
                ).tobytes(), (backend, phase, task)

    def train(phase, round_idx):
        updates = ex.train_round(round_idx, items, models)
        for i, (update, it) in enumerate(zip(updates, items)):
            ref = parent_train(
                CONV_TRAINER, models[it.model_id].clone(keep_id=True), by_id[it.client_id],
                derive_client_rng(SEED, round_idx, it.client_id, 0),
            )
            _assert_same(update, ref, (backend, phase, i))

    try:
        sweep("cold")
        train("first wave", ROUND)
        sweep("after training")
        train("second wave", ROUND + 1)
        sweep("again")
    finally:
        ex.close()
    if backend != "process":  # pool workers check the rest themselves
        assert len(seen) == 2 * len(items)


def test_a_models_second_item_allocates_no_pooled_buffer(conv_wave):
    """The steady state: the second item of one model on one thread runs on
    the very buffers the first left behind."""
    clients, models, items = conv_wave
    mid = items[0].model_id
    same = [it for it in items if it.model_id == mid and len(clients[it.client_id].data.y_train) >= 4]
    ex = make_executor("serial", clients, CONV_TRAINER, SEED)
    try:
        ex.train_round(ROUND, same[:1], models)
        work = ex.workspaces[threading.get_ident()][mid]
        first = _pooled(work)  # held, so no id below can be recycled
        assert first
        ex.train_round(ROUND, same[1:2], models)
        assert {id(b) for b in _pooled(work)} == {id(b) for b in first}
        # Another model's item releases them: one model's scratch per thread.
        other = next(it for it in items if it.model_id != mid)
        ex.train_round(ROUND, [other], models)
        assert not _pooled(work)
        assert _pooled(ex.workspaces[threading.get_ident()][other.model_id])
    finally:
        ex.close()


def test_natural_cohorts_group_by_model_and_batch_in_first_appearance_order(wave):
    clients, models, items = wave
    for backend, workers in BACKENDS:
        ex = make_executor(backend, clients, TRAINER, SEED, workers)
        try:
            cohorts = ex._cohorts(items, models)
        finally:
            ex.close()
        keys = [(items[c[0]].model_id, _batch(ex, items[c[0]])) for c in cohorts]
        for cohort, key in zip(cohorts, keys):
            assert cohort == sorted(cohort)  # contiguous in wave order
            assert all((items[i].model_id, _batch(ex, items[i])) == key for i in cohort)
        firsts = {}
        for cohort, key in zip(cohorts, keys):
            firsts.setdefault(key, cohort[0])
        assert list(firsts.values()) == sorted(firsts.values())
        per_key = {key: keys.count(key) for key in keys}
        if backend == "serial":
            assert set(per_key.values()) == {1}
        else:  # a group is cut into at most `workers` contiguous sub-cohorts
            assert max(per_key.values()) == workers


def test_conv_wave_stays_all_singleton():
    rng = np.random.default_rng(0)
    model = small_cnn((3, 8, 8), 3, rng, width=4)
    clients = []
    for cid in range(4):
        x = rng.normal(size=(12, 3, 8, 8))
        data = ClientData(cid, x, rng.integers(0, 3, 12), x[:2], rng.integers(0, 3, 2))
        clients.append(FLClient(cid, data, DeviceTrace(cid, 1e9, 1e6, 1e15)))
    items = [TrainItem(model.model_id, c.client_id, 0) for c in clients]
    trainer = LocalTrainerConfig(batch_size=4, local_steps=2)
    ex = make_executor("serial", clients, trainer, SEED)
    assert ex._cohorts(items, {model.model_id: model}) == [[0], [1], [2], [3]]
    updates = ex.train_round(0, items, {model.model_id: model})
    for item, update in zip(items, updates):
        ref = parent_train(
            trainer, model.clone(keep_id=True), clients[item.client_id],
            derive_client_rng(SEED, 0, item.client_id, 0),
        )
        _assert_same(update, ref, item)


# The recovery ledger of the faulted wave below, as the parent commit
# (per-item jobs) recorded it: (kind, action, client, attempts).
PARENT_LEDGER = [
    ("task_error", "retry", 0, 1),
    ("task_error", "retry", 5, 1),
    ("task_error", "retry", 8, 1),
    ("task_error", "retry", 9, 1),
    ("task_error", "retry", 10, 1),
    ("task_error", "retry", 12, 1),
    ("task_error", "retry", 13, 1),
    ("task_error", "retry", 0, 1),
    ("task_error", "retry", 5, 1),
]


def test_wave_under_faults_or_retries_stays_all_singleton(wave):
    clients, models, items = wave
    singletons = [[i] for i in range(len(items))]
    for kwargs in (
        dict(retry=RetryPolicy()),
        dict(faults=FaultConfig(exc=0.4)),
        dict(faults=FaultConfig(exc=0.4), retry=RetryPolicy(max_attempts=3)),
    ):
        ex = make_executor("serial", clients, TRAINER, SEED, **kwargs)
        assert ex._cohorts(items, models) == singletons
    updates = ex.train_round(ROUND, items, models)
    ledger = [(r.kind, r.action, r.client_id, r.attempts) for r in ex.drain_fault_records()]
    assert ledger == PARENT_LEDGER
    clean = make_executor("serial", clients, TRAINER, SEED).train_round(ROUND, items, models)
    for item, update, ref in zip(items, updates, clean):
        retried = ex.fault_plan.item_faults(ROUND, item).exc
        assert all(np.array_equal(v, ref.params[k]) for k, v in update.params.items())
        assert update.round_time == ref.round_time + retried * ex.retry.backoff(1)
    assert sum(ex.fault_plan.item_faults(ROUND, it).exc for it in items) == len(ledger)


# ----------------------------------------------------------------------
# the trainer's own checks hold inside a cohort
# ----------------------------------------------------------------------
def test_empty_shard_raises_the_same_error_inside_a_cohort(wave):
    clients, models, items = wave
    model = next(iter(models.values()))
    empty = ClientData(99, clients[0].data.x_train[:0], clients[0].data.y_train[:0],
                       clients[0].data.x_test, clients[0].data.y_test)
    fleet = clients[:3] + [FLClient(99, empty, clients[0].device), FLClient(98, empty, clients[0].device)]
    trainer = LocalTrainer(TRAINER)
    rngs = [np.random.default_rng(i) for i in range(2)]
    with pytest.raises(ValueError, match="^client 99 has no training data$"):
        trainer.train(model.clone(keep_id=True), fleet[3], rngs[0])
    with pytest.raises(ValueError, match="^client 99 has no training data$"):
        trainer.train(model.replicate(2), [fleet[0], fleet[3]], rngs)
    # Through the executor: two empty clients of one model form a cohort.
    ex = make_executor("serial", fleet, TRAINER, SEED)
    wave_items = [TrainItem(model.model_id, cid, 0) for cid in (0, 99, 2, 98)]
    assert ex._cohorts(wave_items, models) == [[0, 2], [1, 3]]
    with pytest.raises(ValueError, match="^client 99 has no training data$"):
        ex.train_round(0, wave_items, models)


def test_trainer_refuses_a_mismatched_cohort(wave):
    clients, models, _ = wave
    model = next(iter(models.values()))
    trainer = LocalTrainer(TRAINER)
    rngs = [np.random.default_rng(i) for i in range(3)]
    with pytest.raises(ValueError, match="one batch size"):
        trainer.train(model.replicate(2), [clients[0], clients[1]], rngs[:2])  # n = 40 and 7
    with pytest.raises(ValueError, match="replicas=2"):
        trainer.train(model.replicate(2), clients[:3], rngs)
    with pytest.raises(ValueError, match="replicas=None"):
        trainer.train(model.clone(keep_id=True), [clients[0]], rngs[:1])
    with pytest.raises(ValueError, match="replicas=2"):
        trainer.train(model.replicate(2), clients[0], rngs[0])
