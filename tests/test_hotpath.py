"""Hot-path compute pass: dtype substrate, pooled kernels, shm snapshots.

Contracts pinned here:

* **Golden bit-identity** — with every hot-path optimization enabled (the
  defaults: pooled kernels, in-place optimizer/aggregation, shared-memory
  snapshot publishing, vectorized Eq. 5), default-dtype runs still
  reproduce ``tests/data/golden_prerefactor_scheduling.json`` exactly,
  and swapping in a fresh-allocating ``Workspace.get`` changes nothing
  (arithmetic transparency).
* **Allocation regression** — pooled kernels cut steady-state per-step
  transient heap allocation by >= 5x against that fresh-allocating
  ``get`` on the conv workload (measured with tracemalloc, which tracks
  NumPy buffer churn).
* **float32 mode** — loss decreases and accuracies stay finite on every
  executor backend; the whole pipeline stays float32.  How much faster
  it runs is a ledger number (``nn.*.fwdbwd_us.{f64,f32}`` in
  ``benchmarks/e2e``), not a gate here.
* **Shared-memory hygiene** — segments never outlive the executor: close,
  finalizer, and the injected-worker-crash path all unlink.
* **In-place rewrites match their naive forms bit for bit** — SGD,
  ``tree_average``, BatchNorm running stats, and Eq. 5 cross-model
  aggregation.
"""

from __future__ import annotations

import gc
import glob
import json
import os
import tracemalloc
from contextlib import contextmanager
from multiprocessing import resource_tracker
from pathlib import Path

import numpy as np
import pytest

from repro.baselines import fedavg
from repro.core import FedTransConfig
from repro.core.aggregator import ModelAggregator, project_overlap
from repro.core.client_manager import SimilarityCache
from repro.data import SyntheticTaskConfig, build_federated_dataset
from repro.device import DeviceTrace
from repro.fl import (
    Coordinator,
    CoordinatorConfig,
    FaultConfig,
    FLClient,
    LocalTrainerConfig,
    RetryPolicy,
    log_to_dict,
)
from repro.fl import executor as executor_mod
from repro.fl import shm as shm_mod
from repro.fl.client import LocalTrainer
from repro.fl.executor import TrainItem, make_executor
from repro.fl.shm import segment_exists
from repro.nn import (
    SGD,
    CellModel,
    ConvCell,
    ConvClassifierCell,
    Workspace,
    mlp,
    set_compute_dtype,
    small_cnn,
    small_resnet,
    tree_average,
)
from repro.nn.compute import compute_dtype_name

GOLDEN = Path(__file__).parent / "data" / "golden_prerefactor_scheduling.json"

TRAINER = LocalTrainerConfig(batch_size=8, local_steps=5, lr=0.2)


@pytest.fixture(autouse=True)
def _restore_compute_dtype():
    """Never leak a dtype change into the rest of the suite."""
    yield
    set_compute_dtype("float64")


def _fresh_get(self, name, shape, dtype, zero_first=False):
    """``Workspace.get`` without the pool: a new buffer on every call."""
    return np.zeros(shape, dtype) if zero_first else np.empty(shape, dtype)


@contextmanager
def _workspaces(pooled: bool):
    """Run the body on pooled workspaces, or on fresh buffers (the unpooled
    side of the identity and allocation tests); ``get`` is restored on exit."""
    with pytest.MonkeyPatch.context() as mp:
        if not pooled:
            mp.setattr(Workspace, "get", _fresh_get)
        yield


def _flat_dataset(num_clients=12, seed=0):
    task = SyntheticTaskConfig(
        num_classes=4,
        input_shape=(8,),
        latent_dim=6,
        teacher_width=12,
        class_sep=3.0,
        seed=seed,
    )
    return build_federated_dataset(task, num_clients, mean_samples=25, seed=seed)


def _conv_dataset(num_clients=4, seed=0):
    task = SyntheticTaskConfig(
        num_classes=4,
        input_shape=(3, 8, 8),
        latent_dim=6,
        teacher_width=12,
        class_sep=3.0,
        seed=seed,
    )
    return build_federated_dataset(task, num_clients, mean_samples=30, seed=seed)


def _clients(ds, num_slow=2):
    return [
        FLClient(
            c.client_id,
            c,
            DeviceTrace(
                c.client_id,
                1e7 if c.client_id < num_slow else 1e9,
                2e4 if c.client_id < num_slow else 1e6,
                1e15,
            ),
        )
        for c in ds.clients
    ]


def _golden_run(mode, **over):
    ds = _flat_dataset()
    clients = _clients(ds)
    model = mlp(ds.input_shape, ds.num_classes, np.random.default_rng(0), width=16)
    cfg = dict(
        rounds=8, clients_per_round=6, trainer=TRAINER, eval_every=4, seed=0, mode=mode
    )
    cfg.update(over)
    coord = Coordinator(
        fedavg(model.clone(keep_id=True)), clients, CoordinatorConfig(**cfg)
    )
    return coord.run()


def _digest(log):
    return {
        "participants": [list(r.participants) for r in log.rounds],
        "mean_loss": [r.mean_loss for r in log.rounds],
        "round_time": [r.round_time for r in log.rounds],
        "macs": [r.macs for r in log.rounds],
        "eval_acc": [[float(a) for a in e.client_accuracy] for e in log.evals],
        "total_macs": log.total_macs,
        "total_bytes_up": log.total_bytes_up,
        "dropped_updates": log.dropped_updates,
        "dropped_macs": log.dropped_macs,
    }


# ----------------------------------------------------------------------
# golden bit-identity with the hot path fully enabled
# ----------------------------------------------------------------------
class TestGoldenBitIdentity:
    @pytest.fixture(scope="class")
    def golden(self):
        with open(GOLDEN) as f:
            return json.load(f)

    @pytest.mark.parametrize("backend", ["serial", "process"])
    @pytest.mark.parametrize("mode", ["sync", "async"])
    def test_hotpath_defaults_match_prerefactor(self, golden, backend, mode):
        """Pooled kernels + shm snapshots + vectorized Eq. 5 (all default-on)
        reproduce the pre-refactor fixture at the default dtype."""
        assert compute_dtype_name() == "float64"
        over = {} if backend == "serial" else {"executor": backend, "max_workers": 2}
        if mode == "async":
            over["buffer_k"] = 3
        assert _digest(_golden_run(mode, **over)) == golden[mode]

    def test_pooling_off_is_bit_identical(self, golden):
        with _workspaces(pooled=False):
            assert _digest(_golden_run("sync")) == golden["sync"]


# ----------------------------------------------------------------------
# allocation regression (the pooled-kernel contract)
# ----------------------------------------------------------------------
def _steady_state_step_bytes(pooling: bool, steps: int = 5) -> float:
    """Mean transient traced bytes per *training step* (forward + backward +
    clip + optimizer update — the loop body of ``LocalTrainer.train``),
    post warm-up.  Per-round costs (cloning the server model, building the
    ClientUpdate) are deliberately outside the window: the pooled-kernel
    contract is about the inner step that runs ``local_steps`` times.

    The workload is sized so genuine per-step allocations dominate:
    NumPy's broadcasted-ufunc iteration buffers (bounded at 8192 elements
    per call, unpoolable from Python) put a small constant floor under the
    pooled number, while unpooled allocations scale with activation size.
    """
    rng = np.random.default_rng(3)
    model = small_cnn((3, 16, 16), 4, np.random.default_rng(0), width=16)
    opt = SGD(0.05)
    x = rng.normal(size=(32, 3, 16, 16))
    y = rng.integers(0, 4, size=32)

    def one_step():
        model.zero_grad()
        model.loss_and_grad(x, y)
        grads = model.grads()
        gnorm = float(np.sqrt(sum(float((g**2).sum()) for g in grads.values())))
        if gnorm > 10.0:
            for g in grads.values():
                g *= 10.0 / gnorm
        opt.step(model.params(), grads)

    gc.collect()
    with _workspaces(pooling):
        tracemalloc.start()
        try:
            for _ in range(3):  # warm-up: size the pools
                one_step()
            gc.collect()
            samples = []
            for _ in range(steps):
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                one_step()
                peak = tracemalloc.get_traced_memory()[1]
                samples.append(peak - base)
        finally:
            tracemalloc.stop()
    return float(np.mean(samples))


def _stride2_cnn(input_shape, num_classes, rng):
    """A stem plus a stride-2 cell: the dilated input-gradient path."""
    cells = [
        ConvCell(input_shape[0], 8, rng, transformable=False),
        ConvCell(8, 8, rng, stride=2),
        ConvClassifierCell(8, num_classes, rng),
    ]
    return CellModel(cells, input_shape, num_classes)


_CONV_FAMILIES = {
    "small_cnn": lambda shape, classes, rng: small_cnn(shape, classes, rng, width=8),
    "small_resnet": lambda shape, classes, rng: small_resnet(shape, classes, rng, width=8),
    "stride2": _stride2_cnn,
}


class TestAllocationRegression:
    def test_pooled_kernels_cut_step_allocations_5x(self):
        unpooled = _steady_state_step_bytes(pooling=False)
        pooled = _steady_state_step_bytes(pooling=True)
        assert pooled > 0
        ratio = unpooled / pooled
        assert ratio >= 5.0, (
            f"pooled step allocates {pooled:.0f}B vs {unpooled:.0f}B unpooled "
            f"(ratio {ratio:.1f}x < 5x): a hot-path kernel regressed to "
            "allocating per step"
        )

    @pytest.mark.parametrize("family", _CONV_FAMILIES)
    def test_pooling_toggle_is_bit_identical_on_conv(self, family):
        ds = _conv_dataset()
        client = _clients(ds, num_slow=0)[0]
        model = _CONV_FAMILIES[family](
            ds.input_shape, ds.num_classes, np.random.default_rng(0)
        )
        trainer = LocalTrainer(LocalTrainerConfig(batch_size=8, local_steps=4, lr=0.1))
        outs = {}
        for pooling in (True, False):
            with _workspaces(pooling):
                outs[pooling] = trainer.train(
                    model.clone(keep_id=True), client, np.random.default_rng(7)
                )
        assert outs[True].train_loss == outs[False].train_loss
        for k, v in outs[True].params.items():
            assert np.array_equal(v, outs[False].params[k]), k
        for k, v in outs[True].state.items():
            assert np.array_equal(v, outs[False].state[k]), k


def test_conv_fedavg_export_is_identical_across_backends():
    """I1 on a conv model: the goldens pin Dense/MLP stacks only, so the
    conv/pool/BatchNorm kernels get their backend identity here."""
    ds = _conv_dataset(num_clients=6, seed=2)
    clients = _clients(ds, num_slow=0)
    model = small_cnn(ds.input_shape, ds.num_classes, np.random.default_rng(2), width=8)
    exports = {}
    for backend in ("serial", "thread", "process"):
        over = {} if backend == "serial" else {"executor": backend, "max_workers": 2}
        cfg = CoordinatorConfig(
            rounds=2,
            clients_per_round=4,
            trainer=LocalTrainerConfig(batch_size=8, local_steps=3, lr=0.1),
            eval_every=1,
            seed=0,
            **over,
        )
        served = model.clone(keep_id=True)
        log = Coordinator(fedavg(served), clients, cfg).run()
        exports[backend] = (
            json.dumps(log_to_dict(log), sort_keys=True),
            {k: v.tobytes() for k, v in {**served.params(), **served.state()}.items()},
        )
    assert exports["thread"] == exports["serial"]
    assert exports["process"] == exports["serial"]


# ----------------------------------------------------------------------
# float32 mode
# ----------------------------------------------------------------------
class TestFloat32Mode:
    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_smoke_across_backends(self, backend):
        set_compute_dtype("float32")
        ds = _conv_dataset(num_clients=6, seed=1)
        clients = _clients(ds, num_slow=0)
        model = small_cnn(
            ds.input_shape, ds.num_classes, np.random.default_rng(1), width=8
        )
        over = {} if backend == "serial" else {"executor": backend, "max_workers": 2}
        cfg = CoordinatorConfig(
            rounds=6,
            clients_per_round=4,
            trainer=LocalTrainerConfig(batch_size=8, local_steps=5, lr=0.1),
            eval_every=3,
            seed=0,
            compute_dtype="float32",
            **over,
        )
        log = Coordinator(fedavg(model.clone(keep_id=True)), clients, cfg).run()
        losses = [r.mean_loss for r in log.rounds]
        assert losses[-1] < losses[0]  # the run learns
        for ev in log.evals:
            assert np.isfinite(ev.client_accuracy).all()
            assert np.isfinite(ev.mean_accuracy)
        for v in model.params().values():
            assert v.dtype == np.float32

    def test_float32_runs_are_deterministic_per_seed(self):
        set_compute_dtype("float32")

        def run():
            ds = _flat_dataset(num_clients=8, seed=2)
            clients = _clients(ds, num_slow=0)
            model = mlp(
                ds.input_shape, ds.num_classes, np.random.default_rng(2), width=16
            )
            cfg = CoordinatorConfig(
                rounds=4,
                clients_per_round=4,
                trainer=TRAINER,
                eval_every=2,
                seed=0,
                compute_dtype="float32",
            )
            return Coordinator(fedavg(model.clone(keep_id=True)), clients, cfg).run()

        assert _digest(run()) == _digest(run())

    def test_config_rejects_unknown_dtype(self):
        with pytest.raises(ValueError, match="compute_dtype"):
            CoordinatorConfig(compute_dtype="float16")


# ----------------------------------------------------------------------
# shared-memory snapshot hygiene
# ----------------------------------------------------------------------
def _crash_worker(*args):  # pragma: no cover - child side
    os._exit(13)


class TestSharedMemoryLifecycle:
    def _workload(self):
        ds = _flat_dataset(num_clients=4)
        clients = _clients(ds, num_slow=0)
        models = {}
        m = mlp(ds.input_shape, ds.num_classes, np.random.default_rng(0), width=8)
        models[m.model_id] = m
        return clients, models

    def test_segments_unlinked_on_close(self):
        clients, models = self._workload()
        ex = make_executor("process", clients, TRAINER, seed=0, max_workers=2)
        try:
            ex.train_round(0, [TrainItem(next(iter(models)), 0, 0)], dict(models))
            names = [name for _, _, name in ex.publisher.chain]
            assert names and all(segment_exists(n) for n in names)
        finally:
            ex.close()
        assert not any(segment_exists(n) for n in names)

    def test_no_segment_leak_after_worker_crash(self, monkeypatch):
        """A worker hard-crashing mid-round must not leave segments behind:
        the heal releases the arena of the broken pool, a pool that keeps
        breaking releases it on the way out, and close() stays idempotent
        afterwards.  Driven through train_round: first every item SIGKILLs
        its worker on attempt 0 (healed), then on every attempt (given up)."""
        clients, models = self._workload()
        item = TrainItem(next(iter(models)), 0, 0)
        ex = make_executor(
            "process", clients, TRAINER, seed=0, max_workers=2,
            faults=FaultConfig(crash=1.0), retry=RetryPolicy(),
        )
        try:
            ex.publisher.publish(dict(models))  # a chain from before the crash
            before = [name for _, _, name in ex.publisher.chain]
            assert before and all(segment_exists(n) for n in before)
            (update,) = ex.train_round(0, [item], dict(models))
            assert update.client_id == 0  # healed: the re-dispatch ran clean
            assert [r.action for r in ex.drain_fault_records()] == ["pool_rebuild"]
            # The heal released the old arena; the re-dispatch published anew.
            assert not any(segment_exists(n) for n in before)
            after = [name for _, _, name in ex.publisher.chain]
            assert after and all(segment_exists(n) for n in after)
            # A pool that dies on every dispatch gives up — and leaks nothing.
            monkeypatch.setattr(executor_mod, "_train_item", _crash_worker)
            ex.close()  # the next wave forks fresh workers, which see the patch
            with pytest.raises(RuntimeError, match="giving up"):
                ex.train_round(1, [item], dict(models))
            assert ex.publisher.chain == [] and not ex.publisher.segments
        finally:
            ex.close()
        assert not any(segment_exists(n) for n in before + after)

    def test_compaction_survives_externally_unlinked_segment(self):
        """An old chain segment that is already gone (an external /dev/shm
        cleaner) must not abort the compacting publish: the new segment used
        to be registered only *after* the old ones were unlinked bare, so the
        FileNotFoundError left it owned by nobody and it outlived close()."""
        clients, models = self._workload()
        mid = next(iter(models))
        ex = make_executor("process", clients, TRAINER, seed=0, max_workers=2)
        try:
            ex.train_round(0, [TrainItem(mid, 0, 0)], dict(models))
            ((_, _, gone),) = ex.publisher.chain
            os.unlink(f"/dev/shm/{gone}")  # out from under the publisher
            models[mid].bump_version()  # the whole suite changed: a full publish
            metered = shm_mod.cleanup_failures
            (update,) = ex.train_round(1, [TrainItem(mid, 1, 0)], dict(models))
            assert update.client_id == 1
            assert shm_mod.cleanup_failures == metered + 1  # the logged no-op
            ((_, kind, name),) = ex.publisher.chain
            assert kind == "full" and name != gone
            assert list(ex.publisher.segments) == [name] and segment_exists(name)
        finally:
            ex.close()
            # os.unlink bypassed the resource tracker; settle its books.
            resource_tracker.unregister(f"/{gone}", "shared_memory")
        assert not glob.glob(f"/dev/shm/{gone.rsplit('-v', 1)[0]}*")

    def test_finalizer_unlinks_abandoned_executor(self):
        clients, models = self._workload()
        ex = make_executor("process", clients, TRAINER, seed=0, max_workers=2)
        ex.train_round(0, [TrainItem(next(iter(models)), 0, 0)], dict(models))
        names = [name for _, _, name in ex.publisher.chain]
        assert all(segment_exists(n) for n in names)
        ex._pool.shutdown(wait=True)  # don't leak processes; keep segments
        finalizer = ex.publisher.finalizer
        del ex
        gc.collect()
        assert not finalizer.alive  # fired when the executor died
        assert not any(segment_exists(n) for n in names)


# ----------------------------------------------------------------------
# in-place rewrites == naive forms
# ----------------------------------------------------------------------
class TestInPlaceEquivalence:
    def test_sgd_matches_naive_reference(self, rng):
        shapes = {"w": (6, 5), "b": (5,)}
        for momentum, wd in [(0.0, 0.0), (0.9, 0.0), (0.0, 1e-3), (0.9, 1e-3)]:
            params = {k: rng.normal(size=s) for k, s in shapes.items()}
            ref = {k: v.copy() for k, v in params.items()}
            opt = SGD(0.1, momentum, wd)
            velocity: dict[str, np.ndarray] = {}
            for step in range(4):
                grads = {
                    k: np.random.default_rng(step).normal(size=s)
                    for k, s in shapes.items()
                }
                opt.step(params, grads)
                for k in ref:  # the naive pre-rewrite arithmetic
                    g = grads[k]
                    if wd:
                        g = g + wd * ref[k]
                    if momentum:
                        v = velocity.get(k)
                        v = np.zeros_like(ref[k]) if v is None else v
                        v = momentum * v + g
                        velocity[k] = v
                        g = v
                    ref[k] -= 0.1 * g
            for k in ref:
                assert np.array_equal(params[k], ref[k]), (k, momentum, wd)

    def test_tree_average_matches_naive_reference(self, rng):
        trees = [
            {"a": rng.normal(size=(4, 3)), "b": rng.normal(size=(7,))}
            for _ in range(5)
        ]
        weights = [3.0, 1.0, 2.0, 5.0, 4.0]
        got = tree_average(trees, weights)
        w = np.asarray(weights) / np.sum(weights)
        ref = {k: trees[0][k] * float(w[0]) for k in trees[0]}
        for wi, tree in zip(w[1:], trees[1:]):
            ref = {k: ref[k] + float(wi) * tree[k] for k in ref}
        for k in ref:
            assert np.array_equal(got[k], ref[k])

    def test_batchnorm_running_stats_update_in_place(self, rng):
        from repro.nn import BatchNorm2d

        bn = BatchNorm2d(3)
        mean_ref = bn.state()["running_mean"]
        var_ref = bn.state()["running_var"]
        x = rng.normal(size=(4, 3, 5, 5))
        bn.forward(x, train=True)
        # Same arrays (live state() references stay valid)... with new values.
        assert bn.running_mean is mean_ref and bn.running_var is var_ref
        assert not np.allclose(mean_ref, 0.0)

    def test_eq5_matches_naive_reference(self, rng):
        """Vectorized Eq. 5 == the per-key project_overlap loop, bit for bit,
        including cross-shape (widened) pairs."""
        parent = small_cnn((3, 8, 8), 4, rng, width=6)
        child = parent.clone(birth_round=1)
        cid = child.transformable_cells()[0].cell_id
        child.widen_cell(cid, 2.0, rng, noise=0.05, mode="dup")
        models = {parent.model_id: parent, child.model_id: child}
        birth_order = [parent.model_id, child.model_id]
        config = FedTransConfig(share_l2s=True)  # exercise both directions
        sim_cache = SimilarityCache()

        def naive(snapshot):
            result = {}
            for j, dst_id in enumerate(birth_order):
                dst = models[dst_id]
                source_ids = list(birth_order)
                decay = float(config.eta**3)
                new_params = {}
                dst_params = snapshot[dst_id]
                for key, dst_val in dst_params.items():
                    num = np.zeros_like(dst_val)
                    den = 0.0
                    for src_id in source_ids:
                        src_params = snapshot[src_id]
                        if key not in src_params:
                            continue
                        sim = sim_cache.get(models[src_id], dst)
                        if sim <= 0.0:
                            continue
                        w_num = sim if src_id == dst_id else decay * sim
                        num += w_num * project_overlap(src_params[key], dst_val)
                        den += w_num
                    new_params[key] = num / den if den > 0 else dst_val
                result[dst_id] = new_params
            return result

        snapshot = {mid: models[mid].get_params() for mid in birth_order}
        expected = naive(snapshot)
        agg = ModelAggregator(config, sim_cache)
        agg._across_models(models, birth_order, round_idx=3)
        for mid, tree in expected.items():
            got = models[mid].params()
            for k, v in tree.items():
                assert np.array_equal(got[k], v), (mid, k)
