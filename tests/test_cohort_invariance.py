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
"""

import numpy as np
import pytest

import repro.fl.client as client_mod
from repro.data import ClientData
from repro.device import DeviceTrace
from repro.device.latency import client_round_time
from repro.fl import FaultConfig, FLClient, LocalTrainer, LocalTrainerConfig, RetryPolicy
from repro.fl.executor import TrainItem, derive_client_rng, make_executor
from repro.nn import mlp, small_cnn
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
        model.bump_version()
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

    def spy(grads, clip_norm, lead=()):
        sq = sum((g**2).reshape(lead + (-1,)).sum(-1) for g in grads.values())
        crossed.extend(np.atleast_1d(np.sqrt(sq) > clip_norm).tolist())
        real_clip(grads, clip_norm, lead)

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
