"""A model suite without a mutation counter: costs are structure, and a
snapshot is reused when its bytes are the suite's.

Three contracts under test:

* **Costs are structure** — ``macs`` / ``num_params`` / ``nbytes`` are
  computed at construction and by ``widen_cell`` / ``deepen_after``, and
  served from memory after any write of the weights; a subnet is built
  from its narrowed cells, so its costs are its own.
* **Snapshot publishing** — a publish is reused exactly when the current
  segment holds the suite's ids, specs and tensor bits; otherwise the
  process backend writes one full segment, unlinks the one before, and
  workers move to it.
* **Backends agree** — a run exports the serial run's bytes on every
  backend in both round modes, however the server writes its models: even
  in place, with no call at all.
"""

import numpy as np
import pytest

from repro.baselines import fedavg
from repro.baselines.single_model import SingleModelStrategy
from repro.baselines.subnet import SubnetSpec, build_subnet, ratio_spec
from repro.core import FedTransConfig, FedTransStrategy
from repro.core.transform import reinitialize
from repro.data import SyntheticTaskConfig, build_federated_dataset
from repro.device import DeviceTrace
from repro.fl import (
    Coordinator,
    CoordinatorConfig,
    FLClient,
    LocalTrainer,
    LocalTrainerConfig,
    TrainItem,
    make_executor,
)
from repro.fl.executor import EXECUTOR_BACKENDS
from repro.fl.export import log_to_dict
from repro.fl.faults import FaultConfig, FaultPlan, InjectedShmFault
from repro.fl.shm import segment_exists
from repro.fl.snapshot import _WORKER, SnapshotPublisher, worker_models, worker_reset
from repro.nn import mlp, small_cnn
from repro.nn.cells import cell_id_counter, set_cell_id_counter
from repro.nn.model import model_id_counter, set_model_id_counter
from repro.nn.param_ops import tree_average
from repro.nn.serialization import model_from_spec, model_spec
from repro.stateful import schema_tag


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


def _rebuilt(model):
    """A fresh object of ``model``'s spec, parameters and state."""
    twin = model_from_spec(model_spec(model))
    twin.set_tensors(param=model.params(), state=model.state())
    return twin


def _first_tensor(model):
    return next(iter(model.params().values()))


# ----------------------------------------------------------------------
# costs are structure
# ----------------------------------------------------------------------
class TestStructureCosts:
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
        macs1 = m.macs()
        m.deepen_after(m.transformable_cells()[0].cell_id, rng)
        assert m.macs() > macs1

    def test_subnet_narrowing_yields_fresh_costs(self, rng):
        """A subnet is constructed from its narrowed cells (regression: the
        first memoization draft reported the *global* model's macs for every
        subnet, collapsing HeteroFL's nested complexity ladder)."""
        g = mlp((8,), 4, rng, width=8)
        quarter = build_subnet(g, ratio_spec(g, 0.25))
        half = build_subnet(g, ratio_spec(g, 0.5))
        assert quarter.macs() < half.macs() < g.macs()
        assert quarter.num_params() < half.num_params() < g.num_params()
        assert quarter.num_params() == sum(v.size for v in quarter.params().values())
        full = build_subnet(g, SubnetSpec())
        assert (full.macs(), full.num_params()) == (g.macs(), g.num_params())
        assert full.parent_id == g.model_id and full.model_id != g.model_id

    @pytest.mark.parametrize("ratio", [0.25, 0.5, 1.0])
    def test_a_subnet_is_the_narrowed_clone(self, rng, ratio):
        """``build_subnet`` builds from narrowed cell copies what narrowing
        a clone of the global model in place built: the same spec (but the
        fresh id) and the same tensor bytes."""
        g = small_cnn((3, 8, 8), 4, rng, width=8)
        spec = ratio_spec(g, ratio)
        sub = build_subnet(g, spec)
        oracle = g.clone()
        prev_out = None
        for cell in oracle.cells:
            out_idx, hid_idx = spec.keep_out.get(cell.cell_id), spec.keep_hidden.get(cell.cell_id)
            if out_idx is not None or hid_idx is not None or prev_out is not None:
                cell.narrow(out_idx=out_idx, in_idx=prev_out, hidden_idx=hid_idx)
            prev_out = out_idx
        want, got = model_spec(oracle), model_spec(sub)
        assert got["model_id"] != want.pop("model_id") == oracle.model_id
        got.pop("model_id")
        assert got == want
        for scope in ("params", "state"):
            mine, theirs = getattr(sub, scope)(), getattr(oracle, scope)()
            assert {k: v.tobytes() for k, v in mine.items()} == {
                k: v.tobytes() for k, v in theirs.items()
            }

    def test_costs_after_a_write_are_served_without_a_rewalk(self, rng, monkeypatch):
        """``set_params``, a training step, a re-initialization and a
        workspace refill write weights, not structure: no cost is recounted."""
        ds = _dataset(num_clients=2)
        m = mlp(ds.input_shape, ds.num_classes, rng, width=8)
        costs = (m.macs(), m.num_params(), m.nbytes())
        work = m.replicate(3)
        calls = {"n": 0}
        for cell in m.cells:
            orig = type(cell).macs

            def counting(self, shape, orig=orig):
                calls["n"] += 1
                return orig(self, shape)

            monkeypatch.setattr(type(cell), "macs", counting)
        m.set_params(_perturbed(m))
        assert (m.macs(), m.num_params(), m.nbytes()) == costs
        reinitialize(m, rng)
        assert (m.macs(), m.num_params(), m.nbytes()) == costs
        trainer = LocalTrainer(LocalTrainerConfig(batch_size=4, local_steps=3, lr=0.1))
        trainer.train(m, _clients(ds)[0], np.random.default_rng(0))
        assert (m.macs(), m.num_params(), m.nbytes()) == costs
        assert work.refill(m, 2)
        assert (work.macs(), work.num_params(), work.nbytes()) == costs
        assert calls["n"] == 0


# ----------------------------------------------------------------------
# rebuilt suites: a derived model's version tracks its source
# ----------------------------------------------------------------------
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


def _export(build, ids):
    """The export of one run of ``build()``'s coordinator, built at
    id-counter position ``ids`` so the runs of a pair mint the same model /
    cell ids."""
    set_model_id_counter(ids[0])
    set_cell_id_counter(ids[1])
    return log_to_dict(build().run())


class TestRebuiltSuites:
    @pytest.mark.parametrize("method", ["heterofl", "fluid"])
    def test_rebuilt_submodel_suites_bit_identical(self, method):
        """HeteroFL/FLuID re-derive their whole suite under stable ids
        after every aggregation (regression: rebuilt subnets once looked
        unchanged to the process backend, whose workers then trained and
        scored round-1 weights)."""
        ids = model_id_counter(), cell_id_counter()
        serial = _export(lambda: _subnet_coord(method, "serial"), ids)
        # Accuracies must actually move across sweeps.
        assert len({e["mean_accuracy"] for e in serial["evals"]}) > 1
        process = _export(lambda: _subnet_coord(method, "process"), ids)
        assert process == serial


# ----------------------------------------------------------------------
# every backend runs the same trajectory
# ----------------------------------------------------------------------
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
    rounds move only some of the deployed models."""
    if mode == "async":
        over = dict(rounds=16, clients_per_round=2, mode="async", buffer_k=1)
    else:
        over = dict(rounds=12, clients_per_round=1)
    return _fedtrans_coord(eval_every=1, executor=backend, **over)


class InPlaceFedAvg(SingleModelStrategy):
    """FedAvg whose aggregation writes the weighted average through the live
    ``params()`` references: no model method sees the write."""

    def aggregate(self, round_idx, updates, rng):
        avg = tree_average([u.params for u in updates], [float(u.num_samples) for u in updates])
        for key, live in self.model.params().items():
            live[...] = avg[key]
        return []


def _fedavg_coord(backend, in_place=False, mode="sync"):
    """FedAvg on twelve clients; ``in_place`` writes each aggregate into the
    server model in place (:class:`InPlaceFedAvg`)."""
    ds = _dataset(num_clients=12)
    model = mlp(ds.input_shape, ds.num_classes, np.random.default_rng(0), width=16)
    strategy = InPlaceFedAvg(model) if in_place else fedavg(model)
    over = dict(mode="async", buffer_k=3) if mode == "async" else {}
    return Coordinator(strategy, _clients(ds), _coord_cfg(executor=backend, **over))


class TestBackendsAgree:
    @pytest.mark.parametrize("mode", ["sync", "async"])
    @pytest.mark.parametrize("backend", EXECUTOR_BACKENDS)
    def test_sweeps_bit_identical_across_backends(self, backend, mode):
        """A sweep after every round, on every backend in both round
        modes, exports the serial run's bytes."""
        ids = model_id_counter(), cell_id_counter()
        serial = _export(lambda: _sparse_fedtrans_coord("serial", mode), ids)
        assert len({e["mean_accuracy"] for e in serial["evals"]}) > 1
        assert _export(lambda: _sparse_fedtrans_coord(backend, mode), ids) == serial

    def test_fedtrans_transforming_suite_bit_identical(self):
        """Models spawned mid-run (new ids, fresh versions) reach the
        process backend's workers as they reach the serial one."""
        ids = model_id_counter(), cell_id_counter()
        serial = _export(lambda: _fedtrans_coord(executor="serial"), ids)
        assert any("spawned" in e for r in serial["rounds"] for e in r["events"])
        assert _export(lambda: _fedtrans_coord(executor="process"), ids) == serial

    @pytest.mark.parametrize("mode", ["sync", "async"])
    def test_an_in_place_write_between_rounds_reaches_the_workers(self, mode):
        """A server model written in place between rounds, with no call at
        all, reaches the process backend's workers: its export is the serial
        one (it was the first snapshot's, trained and scored again, while a
        publish was reused on a model counter)."""
        ids = model_id_counter(), cell_id_counter()
        serial = _export(lambda: _fedavg_coord("serial", mode=mode), ids)
        assert _export(lambda: _fedavg_coord("serial", True, mode), ids) == serial
        assert _export(lambda: _fedavg_coord("process", True, mode), ids) == serial


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
# snapshot publishing (process backend)
# ----------------------------------------------------------------------
class TestOneSegmentSnapshots:
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

    def test_a_moved_suite_replaces_the_one_live_segment(self, rng):
        """Each real publish writes the whole suite into one new segment and
        unlinks the one before: exactly one segment is ever live."""
        clients, models, ex = self._setup(rng)
        some_id = next(iter(models))
        seen = []
        try:
            for step in range(4):
                models[some_id].set_params(_perturbed(models[some_id]))
                ex.train_round(step, [TrainItem(some_id, 0, 0)], dict(models))
                (name,) = ex.publisher.segments
                assert name == ex.publisher.name and segment_exists(name)
                assert not any(segment_exists(old) for old in seen)
                seen.append(name)
            assert ex.publisher.publish_count == 4
            # one model moved, yet every publish carries the whole suite
            assert ex.publisher.bytes_published_total == 4 * ex.publisher.last_publish_bytes
        finally:
            ex.close()
        assert not any(segment_exists(name) for name in seen)

    def test_worker_follows_segments_correctly(self, rng):
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
            assert ex.publisher.publish_count == 5
        finally:
            ex.close()

    def test_new_model_ships_in_the_next_segment(self, rng):
        clients, models, ex = self._setup(rng, num_models=2)
        try:
            ex.train_round(0, [TrainItem(next(iter(models)), 0, 0)], dict(models))
            first = ex.publisher.last_publish_bytes
            child = mlp((8,), 4, rng, width=8)
            models[child.model_id] = child
            updates = ex.train_round(1, [TrainItem(child.model_id, 0, 0)], dict(models))
            assert ex.publisher.publish_count == 2
            assert ex.publisher.last_publish_bytes > first  # the suite grew
            assert updates[0].model_id == child.model_id
        finally:
            ex.close()


class TestPublisherAndWorkerInProcess:
    """The publisher and the worker-side reader driven in this process, so
    each step of the one-segment protocol is visible without a pool."""

    @pytest.fixture
    def publisher(self):
        worker_reset()
        pub = SnapshotPublisher()
        yield pub
        pub.release()
        if _WORKER["segment"] is not None:
            _WORKER["segment"].close()
        worker_reset()

    @staticmethod
    def _suite(rng, n=2):
        return {m.model_id: m for m in (mlp((8,), 4, rng, width=8) for _ in range(n))}

    def test_an_unmoved_suite_reuses_its_segment_even_from_a_fresh_dict(self, rng, publisher):
        models = self._suite(rng)
        first = publisher.publish(models)
        assert publisher.publish(dict(models)) == first
        assert publisher.publish({mid: models[mid] for mid in reversed(models)}) == first
        assert (publisher.publish_count, publisher.reused_publish_count) == (1, 2)
        assert publisher.bytes_published_total == publisher.last_publish_bytes > 0
        assert list(publisher.segments) == [first[1]]

    def test_fresh_objects_of_equal_bytes_reuse_and_one_moved_byte_republishes(
        self, rng, publisher
    ):
        models = self._suite(rng)
        first = publisher.publish(models)
        rebuilt = {mid: _rebuilt(m) for mid, m in models.items()}
        assert publisher.publish(rebuilt) == first
        _first_tensor(rebuilt[next(iter(rebuilt))]).view(np.uint8).flat[0] ^= 1
        second = publisher.publish(rebuilt)
        assert second[0] == first[0] + 1
        assert (publisher.publish_count, publisher.reused_publish_count) == (2, 1)
        assert publisher.publish(rebuilt) == second

    @pytest.mark.parametrize("was, now", [(0.0, -0.0), (np.nan, -np.nan), (1.0, 1.0 + 2**-52)])
    def test_values_compare_by_their_bits(self, rng, publisher, was, now):
        """``-0.0 == 0.0`` and ``nan != nan`` as numbers; the segment holds
        bits, so a sign or NaN payload that moved republishes and an
        unmoved NaN reuses."""
        models = self._suite(rng, n=1)
        (model,) = models.values()
        _first_tensor(model)[0, 0] = was
        first = publisher.publish(models)
        assert publisher.publish(models) == first
        _first_tensor(model)[0, 0] = now
        assert publisher.publish(models)[0] == first[0] + 1

    def test_a_state_write_republishes(self, rng, publisher):
        """BatchNorm running statistics are part of the suite's bytes."""
        cnn = small_cnn((3, 8, 8), 4, rng, width=4)
        models = {cnn.model_id: cnn}
        first = publisher.publish(models)
        next(iter(cnn.state().values()))[0] += 1.0
        assert publisher.publish(models)[0] == first[0] + 1

    def test_a_respecified_model_of_equal_bytes_republishes(self, rng, publisher):
        models = self._suite(rng)
        first = publisher.publish(models)
        next(iter(models.values())).birth_round = 7
        assert publisher.publish(models)[0] == first[0] + 1

    def test_a_dropped_model_leaves_the_next_segment(self, rng, publisher):
        models = self._suite(rng, n=3)
        v1, n1 = publisher.publish(models)
        assert worker_models(v1, n1).keys() == models.keys()
        dropped = next(iter(models))
        kept = {mid: m for mid, m in models.items() if mid != dropped}
        v2, n2 = publisher.publish(kept)
        assert v2 == v1 + 1 and n2 != n1
        assert not segment_exists(n1)
        assert worker_models(v2, n2).keys() == kept.keys()
        assert publisher.last_publish_bytes < publisher.bytes_published_total - publisher.last_publish_bytes

    def test_worker_serves_its_cached_suite_until_the_version_moves(self, rng, publisher):
        models = self._suite(rng)
        v1, n1 = publisher.publish(models)
        suite = worker_models(v1, n1)
        assert worker_models(v1, n1) is suite
        first = _WORKER["segment"]
        moved = next(iter(models))
        models[moved].set_params(_perturbed(models[moved]))
        v2, n2 = publisher.publish(models)
        fresh = worker_models(v2, n2)
        assert fresh is not suite and _WORKER["name"] == n2
        assert _WORKER["segment"] is not first
        assert first.buf is None  # the old mapping was closed

    def test_worker_views_are_read_only_copies_of_the_published_bytes(self, rng, publisher):
        models = self._suite(rng)
        for m in models.values():
            m.set_params(_perturbed(m))
        got = worker_models(*publisher.publish(models))
        for mid, model in models.items():
            replica = got[mid]
            for key, want in (*model.params().items(), *model.state().items()):
                arr = {**replica.params(), **replica.state()}[key]
                np.testing.assert_array_equal(arr, want)
                assert arr.dtype == want.dtype and not arr.flags.writeable

    def test_release_is_idempotent_and_the_next_publish_writes_afresh(self, rng, publisher):
        models = self._suite(rng)
        v1, n1 = publisher.publish(models)
        publisher.release()
        publisher.release()
        assert publisher.segments == {} and publisher.name is None
        assert not segment_exists(n1)
        # Nothing moved, but a released publisher owns no segment to reuse.
        v2, n2 = publisher.publish(models)
        assert v2 == v1 + 1 and segment_exists(n2)
        assert (publisher.publish_count, publisher.reused_publish_count) == (2, 0)

    def test_an_injected_publish_fault_moves_no_state(self, rng):
        pub = SnapshotPublisher(fault_plan=FaultPlan(0, FaultConfig(shm=1.0)))
        try:
            models = self._suite(rng)
            with pytest.raises(InjectedShmFault, match="publish ordinal 0"):
                pub.publish(models)
            assert (pub.version, pub.name, pub.segments) == (0, None, {})
            assert (pub.publish_count, pub.bytes_published_total) == (0, 0)
            # The retry runs clean and takes the version the fault did not.
            version, name = pub.publish(models, fault_attempt=1)
            assert version == 1 and list(pub.segments) == [name]
        finally:
            pub.release()

    def test_publisher_state_is_its_schema_only(self, rng, publisher):
        publisher.publish(self._suite(rng))
        state = publisher.state_dict()
        assert state == {"schema": schema_tag("SnapshotPublisher")}
        SnapshotPublisher().load_state_dict(state)
        with pytest.raises(ValueError, match="schema mismatch"):
            publisher.load_state_dict({"schema": "SnapshotPublisher/v0"})
