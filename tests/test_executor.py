"""Round-execution engine: backend determinism, RNG streams, batched eval.

The determinism contract (fl/executor.py): serial, thread, and process
backends produce bit-identical ``TrainingLog`` records for the same seed —
round losses, eval accuracies, spawn events, cost accounting, everything.
"""

import re

import numpy as np
import pytest

from repro.baselines import fedavg
from repro.core import FedTransConfig, FedTransStrategy
from repro.data import SyntheticTaskConfig, build_federated_dataset
from repro.device import DeviceTrace
from repro.fl import (
    EXECUTOR_BACKENDS,
    Coordinator,
    CoordinatorConfig,
    EvalTask,
    FLClient,
    LocalTrainerConfig,
    SerialExecutor,
    TrainItem,
    derive_client_rng,
    make_executor,
)
from repro.fl.strategy import Strategy
from repro.nn import mlp

BACKENDS = EXECUTOR_BACKENDS


def _dataset(num_clients=10, seed=0):
    cfg = SyntheticTaskConfig(
        num_classes=4,
        input_shape=(8,),
        latent_dim=6,
        teacher_width=12,
        class_sep=3.0,
        seed=seed,
    )
    return build_federated_dataset(cfg, num_clients, mean_samples=25, seed=seed)


def _clients(ds, capacity=1e12):
    return [
        FLClient(c.client_id, c, DeviceTrace(c.client_id, 1e9, 1e6, capacity))
        for c in ds.clients
    ]


def _coord_cfg(executor, rounds=6, **over):
    cfg = dict(
        rounds=rounds,
        clients_per_round=5,
        trainer=LocalTrainerConfig(batch_size=8, local_steps=5, lr=0.2),
        eval_every=3,
        seed=0,
        executor=executor,
        max_workers=2,
    )
    cfg.update(over)
    return CoordinatorConfig(**cfg)


def _run_fedavg(executor, rounds=6):
    ds = _dataset(num_clients=12)
    clients = _clients(ds)
    model = mlp(ds.input_shape, ds.num_classes, np.random.default_rng(0), width=16)
    coord = Coordinator(fedavg(model), clients, _coord_cfg(executor, rounds))
    return coord.run()


def _run_fedtrans(executor, rounds=12):
    ds = _dataset(num_clients=10)
    rng = np.random.default_rng(0)
    init = mlp(ds.input_shape, ds.num_classes, rng, width=8)
    clients = _clients(ds, capacity=init.macs() * 16)
    strategy = FedTransStrategy(
        init,
        FedTransConfig(gamma=2, delta=2, beta=0.5, max_models=3),
        max_capacity_macs=init.macs() * 16,
    )
    coord = Coordinator(strategy, clients, _coord_cfg(executor, rounds))
    return coord.run()


def _id_map(log):
    """Model ids come from a process-global counter, so two runs of the same
    workload mint different ids; map each to its first-appearance index."""
    mapping: dict[str, str] = {}

    def norm(mid):
        if mid not in mapping:
            mapping[mid] = f"M{len(mapping)}"
        return mapping[mid]

    for r in log.rounds:
        for mids in r.assignments.values():
            for mid in mids:
                norm(mid)
    for e in log.evals:
        for mid in e.client_model:
            norm(mid)
    return mapping


def _assert_logs_identical(a, b):
    ma, mb = _id_map(a), _id_map(b)

    def norm_events(events, mapping):
        # Cell ids (c0013, ...) are also process-global; canonicalize every
        # id token by first appearance, seeding with the model-id mapping.
        table = dict(mapping)

        def sub(match):
            tok = match.group(0)
            if tok not in table:
                table[tok] = f"ID{len(table)}"
            return table[tok]

        return [re.sub(r"\b[mc]\d{3,}\b", sub, ev) for ev in events]

    assert len(a.rounds) == len(b.rounds)
    for ra, rb in zip(a.rounds, b.rounds):
        assert ra.participants == rb.participants
        assert {c: [ma[m] for m in mids] for c, mids in ra.assignments.items()} == {
            c: [mb[m] for m in mids] for c, mids in rb.assignments.items()
        }
        assert ra.mean_loss == rb.mean_loss  # bit-identical, no tolerance
        assert ra.round_time == rb.round_time
        assert norm_events(ra.events, ma) == norm_events(rb.events, mb)
    assert len(a.evals) == len(b.evals)
    for ea, eb in zip(a.evals, b.evals):
        assert (ea.client_accuracy == eb.client_accuracy).all()
        assert [ma[m] for m in ea.client_model] == [mb[m] for m in eb.client_model]
        assert ea.mean_accuracy == eb.mean_accuracy
    assert a.total_macs == b.total_macs
    assert a.total_bytes_down == b.total_bytes_down
    assert a.stop_reason == b.stop_reason


class TestBackendDeterminism:
    @pytest.mark.parametrize("backend", [b for b in BACKENDS if b != "serial"])
    def test_fedavg_bit_identical_to_serial(self, backend):
        _assert_logs_identical(_run_fedavg("serial"), _run_fedavg(backend))

    @pytest.mark.parametrize("backend", [b for b in BACKENDS if b != "serial"])
    def test_fedtrans_bit_identical_to_serial(self, backend):
        """Spawn events, multi-model assignment, and utilities all match."""
        _assert_logs_identical(_run_fedtrans("serial"), _run_fedtrans(backend))

    def test_fedtrans_spawns_models(self):
        """The determinism workload actually exercises transformations."""
        log = _run_fedtrans("serial")
        assert any("spawned" in e for r in log.rounds for e in r.events)

    def test_unknown_backend_rejected(self):
        ds = _dataset()
        with pytest.raises(ValueError, match="unknown executor backend"):
            make_executor("gpu", _clients(ds), LocalTrainerConfig(), 0)


class TestRngStreams:
    def test_distinct_pairs_distinct_streams(self):
        """Regression: the old hash ``round*1009 + client*31`` collided for
        e.g. (round=31, client=0) vs (round=0, client=1009) — SeedSequence
        spawn keys must give every (round, client, sub) its own stream."""
        colliding = [(31, 0, 0), (0, 1009, 0), (0, 0, 0), (1, 31, 0), (31, 1, 0)]
        draws = {key: derive_client_rng(0, *key).integers(0, 2**63, 8).tobytes()
                 for key in colliding}
        assert len(set(draws.values())) == len(colliding)

    def test_sub_idx_separates_streams(self):
        a = derive_client_rng(0, 3, 7, 0).integers(0, 2**63, 8)
        b = derive_client_rng(0, 3, 7, 1).integers(0, 2**63, 8)
        assert not (a == b).all()

    def test_same_key_same_stream(self):
        a = derive_client_rng(5, 2, 9, 0).integers(0, 2**63, 8)
        b = derive_client_rng(5, 2, 9, 0).integers(0, 2**63, 8)
        assert (a == b).all()

    def test_seed_separates_streams(self):
        a = derive_client_rng(0, 2, 9, 0).integers(0, 2**63, 8)
        b = derive_client_rng(1, 2, 9, 0).integers(0, 2**63, 8)
        assert not (a == b).all()


class TestBatchedEvaluation:
    def test_batched_matches_per_client(self, rng):
        """The grouped forward pass equals the per-client logits path."""
        ds = _dataset(num_clients=8)
        clients = _clients(ds)
        strategy = fedavg(mlp(ds.input_shape, ds.num_classes, rng, width=16))
        coord = Coordinator(strategy, clients, _coord_cfg("serial", rounds=2))
        ev = coord.evaluate(0, 0.0)
        for i, client in enumerate(clients):
            logits = strategy.client_logits(client, client.data.x_test)
            expect = float((logits.argmax(axis=-1) == client.data.y_test).mean())
            assert ev.client_accuracy[i] == pytest.approx(expect)
        coord.close()

    def test_empty_test_set_scores_zero_not_nan(self, rng):
        """A client with no test data must not poison mean_accuracy (nan
        would also disable the convergence stop rule forever)."""
        ds = _dataset(num_clients=4)
        clients = _clients(ds)
        clients[1].data.x_test = clients[1].data.x_test[:0]
        clients[1].data.y_test = clients[1].data.y_test[:0]
        strategy = fedavg(mlp(ds.input_shape, ds.num_classes, rng, width=8))
        coord = Coordinator(strategy, clients, _coord_cfg("serial", rounds=2))
        ev = coord.evaluate(0, 0.0)
        assert ev.client_accuracy[1] == 0.0
        assert np.isfinite(ev.mean_accuracy)
        coord.close()

    def test_batched_matches_per_client_for_ensembles(self, rng):
        """Pins the two ensemble-averaging implementations to each other:
        ensemble_accuracies' batched sum/len must agree with the per-client
        Strategy.client_logits np.mean path for a multi-model deployment
        (SplitMix)."""
        from repro.baselines import SplitMixStrategy

        ds = _dataset(num_clients=8)
        big = mlp(ds.input_shape, ds.num_classes, rng, width=16)
        # Mixed capacities => ensembles of different sizes across clients.
        clients = [
            FLClient(
                c.client_id,
                c,
                DeviceTrace(c.client_id, 1e9, 1e6, big.macs() * (0.3 + 0.2 * c.client_id)),
            )
            for c in ds.clients
        ]
        strategy = SplitMixStrategy(big, k=4, seed=0)
        assert len({strategy.budget_count(c) for c in clients}) > 1
        coord = Coordinator(strategy, clients, _coord_cfg("serial", rounds=2))
        ev = coord.evaluate(0, 0.0)
        for i, client in enumerate(clients):
            logits = strategy.client_logits(client, client.data.x_test)
            expect = float((logits.argmax(axis=-1) == client.data.y_test).mean())
            assert ev.client_accuracy[i] == pytest.approx(expect)
        coord.close()

    def test_mixed_empty_and_nonempty_group(self, rng):
        """A test-less client *inside* a non-empty group scores 0.0 and the
        other members are unaffected (regression: only the all-empty case
        was guarded, so a zero-length slice hit accuracy() and returned
        NaN, poisoning the group's mean)."""
        ds = _dataset(num_clients=4)
        clients = _clients(ds)
        model = mlp(ds.input_shape, ds.num_classes, rng, width=8)
        ex = SerialExecutor(clients, LocalTrainerConfig(), seed=0)
        mid = model.model_id
        solo, _ = ex.eval_and_logits_round(
            [EvalTask((mid,), (0,)), EvalTask((mid,), (2,)), EvalTask((mid,), (3,))],
            [],
            {mid: model},
            16,
        )
        clients[1].data.x_test = clients[1].data.x_test[:0]
        clients[1].data.y_test = clients[1].data.y_test[:0]
        ex = SerialExecutor(clients, LocalTrainerConfig(), seed=0)
        (mixed,), _ = ex.eval_and_logits_round(
            [EvalTask((mid,), (0, 1, 2, 3))], [], {mid: model}, 16
        )
        assert np.isfinite(mixed).all()
        assert mixed[1] == 0.0
        assert mixed[0] == solo[0][0]
        assert mixed[2] == solo[1][0]
        assert mixed[3] == solo[2][0]

    def test_all_empty_group_scores_zero(self, rng):
        """A singleton/all-empty deployment group (routine under FedTrans,
        where groups are often per-client) must not crash predict()."""
        ds = _dataset(num_clients=2)
        clients = _clients(ds)
        for c in clients:
            c.data.x_test = c.data.x_test[:0]
            c.data.y_test = c.data.y_test[:0]
        model = mlp(ds.input_shape, ds.num_classes, rng, width=8)
        ex = SerialExecutor(clients, LocalTrainerConfig(), seed=0)
        task = EvalTask((model.model_id,), (0, 1))
        accs, logits = ex.eval_and_logits_round(
            [task], [task], {model.model_id: model}, 16
        )
        assert (accs[0] == 0.0).all()
        assert logits[0].shape == (0, 4)

    def test_eval_model_resolved_once(self, rng):
        """The recorded client_model is the model that produced the logits,
        even when eval_model_for is stateful (regression for the double
        re-rank in the old evaluate path)."""
        ds = _dataset(num_clients=4)
        clients = _clients(ds)
        base = fedavg(mlp(ds.input_shape, ds.num_classes, rng, width=8))

        calls = {"n": 0}

        class CountingStrategy(type(base)):
            def eval_model_for(self, client):
                calls["n"] += 1
                return super().eval_model_for(client)

        base.__class__ = CountingStrategy
        coord = Coordinator(base, clients, _coord_cfg("serial", rounds=2))
        ev = coord.evaluate(0, 0.0)
        assert calls["n"] == len(clients)  # exactly once per client
        assert ev.client_model == [base.model.model_id] * len(clients)
        coord.close()

    def test_client_logits_override_is_refused(self, rng):
        """The sweep groups clients by eval_ensemble and never calls
        client_logits: an override would be silently ignored, so the
        coordinator refuses the strategy at construction."""
        ds = _dataset(num_clients=4)
        clients = _clients(ds)
        inner = fedavg(mlp(ds.input_shape, ds.num_classes, rng, width=8))

        class ConstantLogits(type(inner)):
            def client_logits(self, client, x, model_id=None):
                return np.zeros((len(x), 4))

        inner.__class__ = ConstantLogits
        with pytest.raises(TypeError, match="overrides client_logits.*eval_ensemble"):
            Coordinator(inner, clients, _coord_cfg("serial", rounds=2))


class TestExecutorUnits:
    def test_serial_train_round_matches_manual(self, rng):
        ds = _dataset(num_clients=3)
        clients = _clients(ds)
        model = mlp(ds.input_shape, ds.num_classes, rng, width=8)
        trainer_cfg = LocalTrainerConfig(batch_size=4, local_steps=3, lr=0.1)
        ex = SerialExecutor(clients, trainer_cfg, seed=0)
        items = [TrainItem(model.model_id, c.client_id, 0) for c in clients]
        before = model.get_params()
        updates = ex.train_round(1, items, {model.model_id: model})
        assert [u.client_id for u in updates] == [c.client_id for c in clients]
        assert all(u.model_id == model.model_id for u in updates)
        # the server model is untouched — training runs on clones
        after = model.params()
        assert all(np.array_equal(before[k], after[k]) for k in before)

    def test_eval_and_logits_round_order_and_shapes(self, rng):
        ds = _dataset(num_clients=4)
        clients = _clients(ds)
        model = mlp(ds.input_shape, ds.num_classes, rng, width=8)
        ex = SerialExecutor(clients, LocalTrainerConfig(), seed=0)
        tasks = [
            EvalTask((model.model_id,), (0, 1)),
            EvalTask((model.model_id,), (2, 3)),
        ]
        out, logits = ex.eval_and_logits_round(
            tasks, tasks[::-1], {model.model_id: model}, batch_size=16
        )
        assert len(out) == 2
        assert out[0].shape == (2,) and out[1].shape == (2,)
        assert all(0.0 <= a <= 1.0 for accs in out for a in accs)
        rows = [sum(clients[c].data.num_test for c in t.client_ids) for t in tasks[::-1]]
        assert [l.shape for l in logits] == [(n, ds.num_classes) for n in rows]

    def test_process_snapshot_reused_while_versions_unchanged(self, rng):
        """Snapshot reuse is keyed on model *versions*, not dict identity:
        any publish where no model's version moved — including one with a
        freshly built dict — reuses the current snapshot; a mutation (which
        bumps the version) triggers a republish, and that republish is a
        delta, not a full suite."""
        ds = _dataset(num_clients=3)
        clients = _clients(ds)
        model = mlp(ds.input_shape, ds.num_classes, rng, width=8)
        idle = mlp(ds.input_shape, ds.num_classes, rng, width=8)
        trainer_cfg = LocalTrainerConfig(batch_size=4, local_steps=2, lr=0.1)
        ex = make_executor("process", clients, trainer_cfg, seed=0, max_workers=2)
        try:
            models = {model.model_id: model, idle.model_id: idle}
            ex.train_round(0, [TrainItem(model.model_id, 0, 0)], models)
            pub = ex.publisher
            v1 = pub.version
            assert pub.full_publish_count == 1  # first publish ships the suite
            reused = ex.train_round(1, [TrainItem(model.model_id, 1, 0)], models)
            assert pub.version == v1  # same object, same versions => reused
            ex.train_round(2, [TrainItem(model.model_id, 2, 0)], dict(models))
            assert pub.version == v1  # fresh dict, same versions => reused
            assert pub.reused_publish_count == 2
            ref_ex = SerialExecutor(clients, trainer_cfg, seed=0)
            ref = ref_ex.train_round(1, [TrainItem(model.model_id, 1, 0)], models)
            assert reused[0].train_loss == ref[0].train_loss
            model.set_params({k: v + 0.5 for k, v in model.get_params().items()})
            changed = ex.train_round(3, [TrainItem(model.model_id, 0, 0)], dict(models))
            assert pub.version == v1 + 1  # version moved => republished
            assert pub.delta_publish_count == 1  # ...as a delta, not a full
            ref3 = ref_ex.train_round(3, [TrainItem(model.model_id, 0, 0)], models)
            assert changed[0].train_loss == ref3[0].train_loss
        finally:
            ex.close()

    def test_process_pool_survives_item_failure(self, rng):
        """When one work item raises, the executor must drain the rest
        before surfacing the error — otherwise the next round's publish
        unlinks the snapshot segment still-running workers are attaching.  The
        observable contract: the failure propagates, and the *same*
        executor then completes a follow-up round correctly."""
        ds = _dataset(num_clients=4)
        clients = _clients(ds)
        # Client 2 has no training data => its work item raises in-worker.
        clients[2].data.x_train = clients[2].data.x_train[:0]
        clients[2].data.y_train = clients[2].data.y_train[:0]
        model = mlp(ds.input_shape, ds.num_classes, rng, width=8)
        trainer_cfg = LocalTrainerConfig(batch_size=4, local_steps=3, lr=0.1)
        ex = make_executor("process", clients, trainer_cfg, seed=0, max_workers=2)
        try:
            items = [TrainItem(model.model_id, c.client_id, 0) for c in clients]
            with pytest.raises(ValueError, match="no training data"):
                ex.train_round(0, items, {model.model_id: model})
            good = [TrainItem(model.model_id, c.client_id, 0) for c in clients if c.client_id != 2]
            updates = ex.train_round(1, good, {model.model_id: model})
            assert [u.client_id for u in updates] == [0, 1, 3]
            # and matches a fresh serial run (snapshot was never corrupted)
            ref = SerialExecutor(clients, trainer_cfg, seed=0).train_round(
                1, good, {model.model_id: model}
            )
            assert all(u.train_loss == r.train_loss for u, r in zip(updates, ref))
        finally:
            ex.close()

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_close_then_reuse_recreates_pool(self, backend, rng):
        ds = _dataset(num_clients=3)
        clients = _clients(ds)
        model = mlp(ds.input_shape, ds.num_classes, rng, width=8)
        trainer_cfg = LocalTrainerConfig(batch_size=4, local_steps=2, lr=0.1)
        ex = make_executor(backend, clients, trainer_cfg, seed=0, max_workers=2)
        items = [TrainItem(model.model_id, 0, 0)]
        first = ex.train_round(0, items, {model.model_id: model})
        ex.close()
        second = ex.train_round(0, items, {model.model_id: model})
        assert first[0].train_loss == second[0].train_loss
        ex.close()
