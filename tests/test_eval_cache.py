"""Version-tracked model suite: eval cache, cost memoization, delta snapshots.

Three contracts under test:

* **Version counter** — every mutation path of a :class:`CellModel`
  (``set_params``/``set_state``, optimizer steps, transformations,
  subnet narrowing, re-initialization) bumps the monotone ``version``,
  and ``clone(keep_id=True)`` carries it.
* **Incremental evaluation cache** — bit-identical logs cache-on vs
  cache-off across all executor backends in both round modes; unchanged
  deployment groups are served from cache (metered on ``EvalRecord``);
  partially changed ensembles recompute only their changed members.
* **Delta snapshot publishing** — the process backend ships only
  version-changed models per publish, workers replay the delta chain, and
  a full snapshot re-compacts the chain periodically.
"""

import numpy as np
import pytest

from repro.baselines import SplitMixStrategy, fedavg
from repro.baselines.subnet import SubnetSpec, build_subnet, ratio_spec
from repro.core import FedTransConfig, FedTransStrategy
from repro.core.transform import reinitialize
from repro.data import SyntheticTaskConfig, build_federated_dataset
from repro.device import DeviceTrace
from repro.fl import (
    EXECUTOR_BACKENDS,
    Coordinator,
    CoordinatorConfig,
    FLClient,
    LocalTrainer,
    LocalTrainerConfig,
    TrainItem,
    make_executor,
)
from repro.fl.snapshot import FULL_SNAPSHOT_EVERY
from repro.nn import mlp

from test_executor import _assert_logs_identical


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


def _coord_cfg(rounds=6, **over):
    cfg = dict(
        rounds=rounds,
        clients_per_round=5,
        trainer=LocalTrainerConfig(batch_size=8, local_steps=5, lr=0.2),
        eval_every=3,
        seed=0,
        max_workers=2,
    )
    cfg.update(over)
    return CoordinatorConfig(**cfg)


def _perturbed(model):
    return {k: v + 0.25 for k, v in model.get_params().items()}


# ----------------------------------------------------------------------
# version counter
# ----------------------------------------------------------------------
class TestVersionCounter:
    def test_set_params_and_state_bump(self, rng):
        m = mlp((8,), 4, rng, width=8)
        v0 = m.version
        m.set_params(_perturbed(m))
        assert m.version == v0 + 1
        m.set_state(m.get_state())
        assert m.version == v0 + 2

    def test_transformations_bump(self, rng):
        m = mlp((8,), 4, rng, width=8)
        cell = m.transformable_cells()[0]
        v0 = m.version
        m.widen_cell(cell.cell_id, 1.5, rng)
        assert m.version > v0
        v1 = m.version
        m.deepen_after(cell.cell_id, rng)
        assert m.version > v1

    def test_optimizer_steps_bump_trained_replica(self, rng):
        ds = _dataset(num_clients=2)
        clients = _clients(ds)
        server = mlp(ds.input_shape, ds.num_classes, rng, width=8)
        work = server.clone(keep_id=True)
        assert work.version == server.version  # replica carries the version
        trainer = LocalTrainer(LocalTrainerConfig(batch_size=4, local_steps=3, lr=0.1))
        trainer.train(work, clients[0], np.random.default_rng(0))
        assert work.version > server.version  # one bump per optimizer step
        assert server.version == 0  # the server model itself is untouched

    def test_fresh_clone_starts_new_history(self, rng):
        m = mlp((8,), 4, rng, width=8)
        m.set_params(_perturbed(m))
        assert m.clone(keep_id=True).version == m.version
        assert m.clone().version == 0

    def test_reinitialize_bumps(self, rng):
        m = mlp((8,), 4, rng, width=8)
        v0 = m.version
        reinitialize(m, rng)
        assert m.version > v0

    def test_subnet_carries_global_version(self, rng):
        """A rebuilt subnet under a stable id must track the *global*
        model's version (regression: fresh clones restarted at a constant,
        so HeteroFL/FLuID rebuilds after aggregation looked unchanged to
        the eval cache and the snapshot publisher — frozen accuracies and
        workers training on round-1 weights)."""
        g = mlp((8,), 4, rng, width=8)
        spec = ratio_spec(g, 0.5)
        v0 = build_subnet(g, spec).version
        assert build_subnet(g, SubnetSpec()).version == g.version  # full ratio too
        g.set_params(_perturbed(g))
        assert build_subnet(g, spec).version != v0
        assert build_subnet(g, spec).version == g.version

    def test_subnet_narrowing_yields_fresh_costs(self, rng):
        """build_subnet narrows cells in place after the constructor cached
        costs — the bump must invalidate them (regression: the first
        memoization draft reported the *global* model's macs for every
        subnet, collapsing HeteroFL's nested complexity ladder)."""
        g = mlp((8,), 4, rng, width=8)
        quarter = build_subnet(g, ratio_spec(g, 0.25))
        half = build_subnet(g, ratio_spec(g, 0.5))
        assert quarter.macs() < half.macs() < g.macs()
        assert quarter.num_params() < half.num_params() < g.num_params()


class TestCostMemoization:
    def test_values_track_structure(self, rng):
        m = mlp((8,), 4, rng, width=8)
        macs0, params0, bytes0 = m.macs(), m.num_params(), m.nbytes()
        m.widen_cell(m.transformable_cells()[0].cell_id, 2.0, rng)
        assert m.macs() > macs0
        assert m.num_params() > params0
        assert m.nbytes() > bytes0
        # the memoized values match an explicit recount of the live tensors
        assert m.num_params() == sum(v.size for v in m.params().values())
        assert m.nbytes() == sum(v.nbytes for v in m.params().values())

    def test_repeated_calls_do_not_rewalk(self, rng, monkeypatch):
        m = mlp((8,), 4, rng, width=8)
        m.macs()  # warm
        calls = {"n": 0}
        orig = type(m.cells[0]).macs

        def counting(self, shape):
            calls["n"] += 1
            return orig(self, shape)

        for cell in m.cells:
            monkeypatch.setattr(type(cell), "macs", counting, raising=True)
        for _ in range(5):
            m.macs()
            m.num_params()
            m.nbytes()
        assert calls["n"] == 0  # all served from the version-keyed cache
        m.set_params(_perturbed(m))  # bump => one recompute on next access
        m.macs()
        assert calls["n"] == len(m.cells)


# ----------------------------------------------------------------------
# cache-on vs cache-off determinism
# ----------------------------------------------------------------------
def _run_fedavg(backend, mode, eval_cache, rounds=6):
    ds = _dataset(num_clients=12)
    clients = _clients(ds)
    model = mlp(ds.input_shape, ds.num_classes, np.random.default_rng(0), width=16)
    over = {"mode": mode, "buffer_k": 3} if mode == "async" else {}
    cfg = _coord_cfg(rounds, executor=backend, eval_cache=eval_cache, **over)
    return Coordinator(fedavg(model), clients, cfg).run()


def _run_fedtrans(eval_cache, rounds=12):
    ds = _dataset(num_clients=10)
    rng = np.random.default_rng(0)
    init = mlp(ds.input_shape, ds.num_classes, rng, width=8)
    clients = _clients(ds, capacity=init.macs() * 16)
    strategy = FedTransStrategy(
        init,
        FedTransConfig(gamma=2, delta=2, beta=0.5, max_models=3),
        max_capacity_macs=init.macs() * 16,
    )
    return Coordinator(strategy, clients, _coord_cfg(rounds, eval_cache=eval_cache)).run()


def _run_subnet_method(method, backend, eval_cache, rounds=6):
    from repro.baselines import FLuIDStrategy, HeteroFLStrategy

    ds = _dataset(num_clients=10)
    big = mlp(ds.input_shape, ds.num_classes, np.random.default_rng(0), width=16)
    # Mixed capacities => several ratios of the ladder actually deployed.
    clients = [
        FLClient(
            c.client_id,
            c,
            DeviceTrace(c.client_id, 1e9, 1e6, big.macs() * (0.2 + 0.15 * c.client_id)),
        )
        for c in ds.clients
    ]
    cls = HeteroFLStrategy if method == "heterofl" else FLuIDStrategy
    strategy = cls(big.clone())
    cfg = _coord_cfg(rounds, executor=backend, eval_cache=eval_cache)
    return Coordinator(strategy, clients, cfg).run()


def _splitmix_coord(eval_cache=True, num_clients=8, seed=0):
    ds = _dataset(num_clients=num_clients)
    rng = np.random.default_rng(seed)
    big = mlp(ds.input_shape, ds.num_classes, rng, width=16)
    clients = [
        FLClient(
            c.client_id,
            c,
            DeviceTrace(c.client_id, 1e9, 1e6, big.macs() * (0.3 + 0.2 * c.client_id)),
        )
        for c in ds.clients
    ]
    strategy = SplitMixStrategy(big, k=4, seed=seed)
    assert len({strategy.budget_count(c) for c in clients}) > 1  # nested ensembles
    coord = Coordinator(strategy, clients, _coord_cfg(rounds=2, eval_cache=eval_cache))
    return coord, strategy, clients


class TestCacheDeterminism:
    @pytest.mark.parametrize("mode", ["sync", "async"])
    @pytest.mark.parametrize("backend", EXECUTOR_BACKENDS)
    def test_bit_identical_on_vs_off(self, backend, mode):
        """The headline contract: enabling the cache changes nothing
        observable but the meters, on every backend in both round modes."""
        on = _run_fedavg(backend, mode, eval_cache=True)
        off = _run_fedavg(backend, mode, eval_cache=False)
        _assert_logs_identical(on, off)
        assert all(e.cached_clients == 0 for e in off.evals)

    def test_fedtrans_transforming_suite_bit_identical(self):
        """Model spawns mid-run (new ids, fresh versions) don't perturb the
        cached path."""
        _assert_logs_identical(_run_fedtrans(True), _run_fedtrans(False))

    @pytest.mark.parametrize("method", ["heterofl", "fluid"])
    def test_rebuilt_submodel_suites_bit_identical(self, method):
        """HeteroFL/FLuID re-derive their whole suite under stable ids
        after every aggregation (regression: constant rebuild versions froze
        the eval cache at the first sweep and let the process backend reuse
        stale snapshots)."""
        serial_on = _run_subnet_method(method, "serial", eval_cache=True)
        serial_off = _run_subnet_method(method, "serial", eval_cache=False)
        _assert_logs_identical(serial_on, serial_off)
        # Accuracies must actually move across sweeps (the frozen-cache bug
        # made every post-first sweep a stale hit).
        assert len({e.mean_accuracy for e in serial_on.evals}) > 1
        process_on = _run_subnet_method(method, "process", eval_cache=True)
        _assert_logs_identical(serial_on, process_on)

    def test_splitmix_nested_ensembles_bit_identical(self):
        coord_on, strat_on, clients = _splitmix_coord(eval_cache=True)
        coord_off, strat_off, _ = _splitmix_coord(eval_cache=False)
        ev_on = coord_on.evaluate(0, 0.0)
        ev_off = coord_off.evaluate(0, 0.0)
        assert (ev_on.client_accuracy == ev_off.client_accuracy).all()
        # ...and both match the per-client reference path
        for i, client in enumerate(clients):
            logits = strat_on.client_logits(client, client.data.x_test)
            expect = float((logits.argmax(axis=-1) == client.data.y_test).mean())
            assert ev_on.client_accuracy[i] == pytest.approx(expect)
        coord_on.close()
        coord_off.close()


# ----------------------------------------------------------------------
# cache behavior: hits, invalidation, partial-ensemble reuse
# ----------------------------------------------------------------------
class _CountingExecutor:
    """Wraps an executor, counting the logits tasks that actually run."""

    def __init__(self, inner):
        self._inner = inner
        self.logits_tasks = []

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def logits_round(self, tasks, models, batch_size):
        self.logits_tasks.extend(tasks)
        return self._inner.logits_round(tasks, models, batch_size)

    def eval_and_logits_round(self, eval_tasks, logits_tasks, models, batch_size):
        self.logits_tasks.extend(logits_tasks)
        return self._inner.eval_and_logits_round(
            eval_tasks, logits_tasks, models, batch_size
        )


class TestCacheBehavior:
    def test_idle_suite_fully_cached_on_repeat(self, rng):
        ds = _dataset(num_clients=9)
        clients = _clients(ds)
        strategy = fedavg(mlp(ds.input_shape, ds.num_classes, rng, width=8))
        coord = Coordinator(strategy, clients, _coord_cfg(rounds=2))
        first = coord.evaluate(0, 0.0)
        again = coord.evaluate(1, 0.0)
        assert first.cached_clients == 0
        assert first.evaluated_clients == len(clients)
        assert again.cached_clients == len(clients)
        assert again.evaluated_clients == 0
        assert (first.client_accuracy == again.client_accuracy).all()
        coord.close()

    def test_mutation_invalidates(self, rng):
        ds = _dataset(num_clients=6)
        clients = _clients(ds)
        strategy = fedavg(mlp(ds.input_shape, ds.num_classes, rng, width=8))
        coord = Coordinator(strategy, clients, _coord_cfg(rounds=2))
        coord.evaluate(0, 0.0)
        strategy.model.set_params(_perturbed(strategy.model))
        ev = coord.evaluate(1, 0.0)
        assert ev.cached_clients == 0  # version moved: every group recomputed
        # and the recomputation is real: fresh weights, fresh accuracies
        ref = Coordinator(
            fedavg(strategy.model.clone(keep_id=True)), clients, _coord_cfg(rounds=2)
        )
        ev_ref = ref.evaluate(0, 0.0)
        assert (ev.client_accuracy == ev_ref.client_accuracy).all()
        ref.close()
        coord.close()

    def test_partial_ensemble_recomputes_only_changed_member(self):
        """SplitMix nested deployments: mutating the *last* base model keeps
        every smaller ensemble's accuracies cached, and the full ensemble
        reuses its unchanged members' logits — exactly one logits task (the
        changed model over the one group that deploys it) is dispatched."""
        coord, strategy, clients = _splitmix_coord(eval_cache=True)
        counting = _CountingExecutor(coord.executor)
        coord.executor = counting
        coord.evaluate(0, 0.0)
        first_tasks = len(counting.logits_tasks)
        assert first_tasks > 0
        # A fully idle sweep in between: everything hits the accuracy
        # cache, and — regression — the hit groups' member logits must
        # stay warm rather than being evicted with the sweep.
        idle = coord.evaluate(1, 0.0)
        assert idle.cached_clients == len(clients)
        top = strategy._base_ids[-1]
        deployed_top = [
            c for c in clients if top in strategy.eval_ensemble(c, strategy.eval_model_for(c))
        ]
        assert deployed_top  # the workload exercises the full ensemble
        counting.logits_tasks.clear()
        strategy._models[top].set_params(_perturbed(strategy._models[top]))
        ev = coord.evaluate(2, 0.0)
        assert [t.model_ids for t in counting.logits_tasks] == [(top,)]
        assert ev.cached_clients == len(clients) - len(deployed_top)
        assert ev.evaluated_clients == len(deployed_top)
        coord.close()

    def test_bespoke_client_logits_counts_as_evaluated(self, rng):
        ds = _dataset(num_clients=4)
        clients = _clients(ds)
        inner = fedavg(mlp(ds.input_shape, ds.num_classes, rng, width=8))

        class Bespoke(type(inner)):
            def client_logits(self, client, x, model_id=None):
                return super().client_logits(client, x, model_id)

        inner.__class__ = Bespoke
        coord = Coordinator(inner, clients, _coord_cfg(rounds=2))
        ev = coord.evaluate(0, 0.0)
        assert ev.cached_clients == 0
        assert ev.evaluated_clients == len(clients)
        coord.close()

    def test_cache_eviction_bounds_memory(self, rng):
        """Entries untouched by the latest sweep are dropped: steady-state
        cache size is one sweep's working set, not run history."""
        ds = _dataset(num_clients=6)
        clients = _clients(ds)
        strategy = fedavg(mlp(ds.input_shape, ds.num_classes, rng, width=8))
        coord = Coordinator(strategy, clients, _coord_cfg(rounds=2))
        coord.evaluate(0, 0.0)
        size = len(coord.eval_cache.accs)
        for _ in range(4):
            strategy.model.set_params(_perturbed(strategy.model))
            coord.evaluate(1, 0.0)
            assert len(coord.eval_cache.accs) == size
        coord.close()


# ----------------------------------------------------------------------
# config knobs (the CLI flag mapping is tests/test_serialization_cli.py)
# ----------------------------------------------------------------------
class TestConfigValidation:
    def test_eval_cache_must_be_bool(self):
        with pytest.raises(ValueError, match="eval_cache"):
            CoordinatorConfig(eval_cache="yes")

    def test_eval_group_clients_validated(self):
        with pytest.raises(ValueError, match="eval_group_clients"):
            CoordinatorConfig(eval_group_clients=0)

    def test_eval_batch_size_validated(self):
        with pytest.raises(ValueError, match="eval_batch_size"):
            CoordinatorConfig(eval_batch_size=0)


# ----------------------------------------------------------------------
# delta snapshot publishing (process backend)
# ----------------------------------------------------------------------
class TestDeltaSnapshots:
    def _setup(self, rng, num_models=3, num_clients=4):
        ds = _dataset(num_clients=num_clients)
        clients = _clients(ds)
        models = {}
        for _ in range(num_models):
            m = mlp(ds.input_shape, ds.num_classes, rng, width=8)
            models[m.model_id] = m
        trainer_cfg = LocalTrainerConfig(batch_size=4, local_steps=2, lr=0.1)
        ex = make_executor("process", clients, trainer_cfg, seed=0, max_workers=2)
        return clients, models, ex

    def test_delta_ships_fewer_bytes_than_full(self, rng):
        clients, models, ex = self._setup(rng)
        some_id = next(iter(models))
        try:
            ex.train_round(0, [TrainItem(some_id, 0, 0)], dict(models))
            full_bytes = ex.publisher.last_publish_bytes
            assert ex.publisher.full_publish_count == 1
            models[some_id].set_params(_perturbed(models[some_id]))
            ex.train_round(1, [TrainItem(some_id, 0, 0)], dict(models))
            assert ex.publisher.delta_publish_count == 1
            assert ex.publisher.last_publish_bytes < full_bytes  # strictly fewer bytes
        finally:
            ex.close()

    def test_worker_replays_delta_chain_correctly(self, rng):
        """Several mutate-then-train cycles: the process results must match
        a serial executor fed the same live models at every step."""
        clients, models, ex = self._setup(rng)
        ids = sorted(models)
        serial = make_executor(
            "serial", clients, LocalTrainerConfig(batch_size=4, local_steps=2, lr=0.1), seed=0
        )
        try:
            for step in range(5):
                changed = ids[step % len(ids)]
                models[changed].set_params(_perturbed(models[changed]))
                items = [TrainItem(changed, c.client_id, 0) for c in clients]
                got = ex.train_round(step, items, dict(models))
                want = serial.train_round(step, items, models)
                assert [u.train_loss for u in got] == [u.train_loss for u in want]
            assert ex.publisher.delta_publish_count >= 4
        finally:
            ex.close()

    def test_new_model_ships_in_delta(self, rng):
        clients, models, ex = self._setup(rng, num_models=2)
        try:
            ex.train_round(0, [TrainItem(next(iter(models)), 0, 0)], dict(models))
            child = mlp((8,), 4, rng, width=8)
            models[child.model_id] = child
            updates = ex.train_round(1, [TrainItem(child.model_id, 0, 0)], dict(models))
            assert ex.publisher.delta_publish_count == 1
            assert updates[0].model_id == child.model_id
        finally:
            ex.close()

    def test_chain_compacts_to_full_snapshot(self, rng):
        clients, models, ex = self._setup(rng, num_models=2)
        some_id = next(iter(models))
        try:
            for step in range(FULL_SNAPSHOT_EVERY + 2):
                models[some_id].set_params(_perturbed(models[some_id]))
                ex.train_round(step, [TrainItem(some_id, 0, 0)], dict(models))
            assert ex.publisher.full_publish_count >= 2  # initial + periodic compaction
            assert len(ex.publisher.chain) <= FULL_SNAPSHOT_EVERY + 1
            # the retained chain is exactly the live shared-memory segments
            from repro.fl.shm import segment_exists

            assert all(segment_exists(name) for _, _, name in ex.publisher.chain)
            assert set(ex.publisher.segments) == {name for _, _, name in ex.publisher.chain}
            retained = [name for _, _, name in ex.publisher.chain]
        finally:
            ex.close()
        # close() unlinks every owned segment — nothing may leak.
        assert not any(segment_exists(name) for name in retained)
