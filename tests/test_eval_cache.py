"""Version-tracked model suite: eval cache, cost memoization, delta snapshots.

Three contracts under test:

* **Version counter** — every mutation path of a :class:`CellModel`
  (``set_params``/``set_state``, optimizer steps, transformations,
  subnet narrowing, re-initialization) bumps the monotone ``version``,
  and ``clone(keep_id=True)`` carries it.
* **Incremental evaluation cache** — exports bit-identical whether sweeps
  run warm or cold (cache emptied before each one) across all executor
  backends in both round modes; unchanged deployment groups are served
  from cache (metered on ``EvalRecord``); partially changed ensembles
  recompute only their changed members.
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
from repro.fl.export import log_to_dict
from repro.fl.snapshot import FULL_SNAPSHOT_EVERY
from repro.nn import mlp
from repro.nn.cells import cell_id_counter, set_cell_id_counter
from repro.nn.model import model_id_counter, set_model_id_counter


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
# warm vs cold sweeps
# ----------------------------------------------------------------------
def _fedavg_coord():
    ds = _dataset(num_clients=12)
    clients = _clients(ds)
    model = mlp(ds.input_shape, ds.num_classes, np.random.default_rng(0), width=16)
    return Coordinator(fedavg(model), clients, _coord_cfg())


def _fedtrans_coord(rounds=12, **over):
    ds = _dataset(num_clients=10)
    rng = np.random.default_rng(0)
    init = mlp(ds.input_shape, ds.num_classes, rng, width=8)
    clients = _clients(ds, capacity=init.macs() * 16)
    strategy = FedTransStrategy(
        init,
        FedTransConfig(gamma=2, delta=2, beta=0.5, max_models=3),
        max_capacity_macs=init.macs() * 16,
    )
    return Coordinator(strategy, clients, _coord_cfg(rounds, **over))


def _sparse_fedtrans_coord(backend, mode):
    """A sweep after every round and one update per aggregation: most
    rounds leave the deployed models untouched, so most sweeps are hits."""
    if mode == "async":
        over = dict(rounds=16, clients_per_round=2, mode="async", buffer_k=1)
    else:
        over = dict(rounds=12, clients_per_round=1)
    return _fedtrans_coord(eval_every=1, executor=backend, **over)


def _subnet_coord(method, backend, rounds=6):
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
    return Coordinator(strategy, clients, _coord_cfg(rounds, executor=backend))


def _splitmix_coord(num_clients=8, seed=0, rounds=2, **over):
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
    coord = Coordinator(strategy, clients, _coord_cfg(rounds=rounds, **over))
    return coord, strategy, clients


def _empty_before_each_sweep(coord):
    """Make every sweep of ``coord`` a *cold* one: the cache is emptied
    first, so the sweep runs exactly the code a first sweep runs and never
    reads an entry.  That is the reference a warm run must reproduce."""
    sweep = coord.evaluate

    def cold_sweep(round_idx, cumulative_macs):
        coord.eval_cache.accs.clear()
        coord.eval_cache.logits.clear()
        return sweep(round_idx, cumulative_macs)

    coord.evaluate = cold_sweep


def _export(build, ids, cold=False):
    """``(export minus the cache meters, [cached_clients per sweep])`` of
    one run of ``build()``'s coordinator, built at id-counter position
    ``ids`` so the runs of a pair mint the same model / cell ids."""
    set_model_id_counter(ids[0])
    set_cell_id_counter(ids[1])
    coord = build()
    if cold:
        _empty_before_each_sweep(coord)
    doc = log_to_dict(coord.run())
    cached = [ev.pop("cached_clients") for ev in doc["evals"]]
    for ev in doc["evals"]:
        ev.pop("evaluated_clients")
    return doc, cached


def _assert_warm_equals_cold(build):
    """Run ``build()`` twice — sweeps warm, then cold — and require equal
    exports (everything but the two meters).  Returns the warm ``(export,
    cached)``."""
    ids = model_id_counter(), cell_id_counter()
    warm, warm_cached = _export(build, ids)
    cold, cold_cached = _export(build, ids, cold=True)
    assert warm == cold
    assert not any(cold_cached)  # the reference never read an entry
    return warm, warm_cached


class TestCacheDeterminism:
    @pytest.mark.parametrize("mode", ["sync", "async"])
    @pytest.mark.parametrize("backend", EXECUTOR_BACKENDS)
    def test_bit_identical_warm_vs_cold(self, backend, mode):
        """The headline contract: serving a sweep from the cache changes
        nothing observable but the meters, on every backend in both round
        modes."""
        _, cached = _assert_warm_equals_cold(
            lambda: _sparse_fedtrans_coord(backend, mode)
        )
        assert any(cached)  # the warm run did read entries

    def test_fedtrans_transforming_suite_bit_identical(self):
        """Model spawns mid-run (new ids, fresh versions) don't perturb the
        cached path."""
        warm, _ = _assert_warm_equals_cold(_fedtrans_coord)
        assert any("spawned" in e for r in warm["rounds"] for e in r["events"])

    @pytest.mark.parametrize("method", ["heterofl", "fluid"])
    def test_rebuilt_submodel_suites_bit_identical(self, method):
        """HeteroFL/FLuID re-derive their whole suite under stable ids
        after every aggregation (regression: constant rebuild versions froze
        the eval cache at the first sweep and let the process backend reuse
        stale snapshots)."""
        ids = model_id_counter(), cell_id_counter()
        serial, _ = _assert_warm_equals_cold(lambda: _subnet_coord(method, "serial"))
        # Accuracies must actually move across sweeps (the frozen-cache bug
        # made every post-first sweep a stale hit).
        assert len({e["mean_accuracy"] for e in serial["evals"]}) > 1
        process, _ = _export(lambda: _subnet_coord(method, "process"), ids)
        assert process == serial

    def test_missed_version_bump_fails_the_pair(self):
        """The regression above, reintroduced: a strategy whose aggregation
        moves the weights but restamps a constant version serves every
        later sweep from the first one's entries — and the warm/cold pair
        is what catches it."""
        def frozen():
            coord = _fedavg_coord()
            strategy = coord.strategy

            class ConstantVersion(type(strategy)):
                def aggregate(self, round_idx, updates, rng):
                    events = super().aggregate(round_idx, updates, rng)
                    self.model.sync_version(0)
                    return events

            strategy.__class__ = ConstantVersion
            return coord

        with pytest.raises(AssertionError):
            _assert_warm_equals_cold(frozen)

    def test_splitmix_nested_ensembles_bit_identical(self):
        coord, strategy, clients = _splitmix_coord()
        warm_first = coord.evaluate(0, 0.0)
        warm_again = coord.evaluate(1, 0.0)
        assert warm_again.cached_clients == len(clients)
        _empty_before_each_sweep(coord)
        cold = coord.evaluate(2, 0.0)
        assert cold.cached_clients == 0
        assert (warm_first.client_accuracy == cold.client_accuracy).all()
        assert (warm_again.client_accuracy == cold.client_accuracy).all()
        # ...and all match the per-client reference path
        for i, client in enumerate(clients):
            logits = strategy.client_logits(client, client.data.x_test)
            expect = float((logits.argmax(axis=-1) == client.data.y_test).mean())
            assert cold.client_accuracy[i] == pytest.approx(expect)
        coord.close()

    def test_splitmix_training_run_reuses_idle_members(self):
        """Ensembles whose members train at different rates: a run's warm
        sweeps reuse the idle members' logits (fewer forward tasks than the
        cold reference) and still export the same accuracies."""
        dispatched = []

        def build():
            coord, _, _ = _splitmix_coord(rounds=8, eval_every=1, clients_per_round=1)
            coord.executor = _CountingExecutor(coord.executor)
            dispatched.append(coord.executor.logits_tasks)
            return coord

        _assert_warm_equals_cold(build)
        warm, cold = dispatched
        assert 0 < len(warm) < len(cold)


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
        coord, strategy, clients = _splitmix_coord()
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
