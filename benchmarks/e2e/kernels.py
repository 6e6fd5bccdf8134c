"""Per-layer kernels: direct timed calls on fixed seeded inputs.

Run as a fresh process by ``run.py`` (BLAS threads pinned); prints one
``E2E_RESULT {json}`` line mapping metric name to value.  Every kernel is
timed as the median of up to 30 calls after 3 warm-ups; a kernel whose 30
calls would not fit its time slice stops early (never below 3 calls), so
the whole module stays inside the traced invocation's time box.  Inputs
are workload-independent: they depend on ``--seed`` only.
"""

from __future__ import annotations

import itertools
import json
import os
import statistics
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

from child import check_blas_pinned, emit
from metrics import KERNELS

WARMUPS = 3
MAX_CALLS = 30
MIN_CALLS = 3
SLICE_S = 0.12  # per-kernel time slice once warmed up

_SCALE = {"us": 1e6, "ms": 1e3}


def timed(fn, prepare=None, slice_s: float = SLICE_S, warmups: int = WARMUPS) -> float:
    """Median seconds per call of ``fn(*prepare())`` (``prepare`` is untimed)."""
    samples = []
    spent = 0.0
    for i in range(warmups + MAX_CALLS):
        args = prepare() if prepare is not None else ()
        start = time.perf_counter()
        fn(*args)
        elapsed = time.perf_counter() - start
        if i < warmups:
            continue
        samples.append(elapsed)
        spent += elapsed
        if spent > slice_s and len(samples) >= MIN_CALLS:
            break
    return statistics.median(samples)


def run_kernels(seed: int, out_dir: Path) -> dict[str, float]:
    import copy

    import numpy as np

    from repro.core import ClientManager, FedTransConfig, ModelAggregator, SimilarityCache
    from repro.core.transform import apply_transform
    from repro.data.federated import ClientData
    from repro.device import DeviceTrace
    from repro.fl import (
        ClientUpdate,
        Coordinator,
        FLClient,
        LocalTrainerConfig,
        TrainItem,
        TransportCodec,
        TransportConfig,
        make_executor,
        make_selector,
    )
    from repro.fl import shm
    from repro.fl.checkpoint import flatten_payload, read_payload, write_payload
    from repro.fl.scheduling import FleetStore
    from repro.nn import SGD, mlp, set_compute_dtype, small_cnn, small_resnet, vit_tiny
    from repro.nn.param_ops import tree_average

    from workloads import (
        CNN_TRAINER,
        MAX_WORKERS,
        STRAGGLER_TRAINER,
        WORKLOADS,
        cnn_fleet,
        straggler_fleet,
    )

    out: dict[str, float] = {}

    def record(name: str, seconds: float) -> None:
        out[name] = seconds * _SCALE[KERNELS[name][0]]

    # -- repro.nn: zoo models at the workloads' batch sizes ---------------
    image, classes = (3, 16, 16), 8
    zoo = {
        "mlp": (lambda r: mlp((16,), 6, r, width=32), (16,), 6, STRAGGLER_TRAINER.batch_size),
        "cnn": (lambda r: small_cnn(image, classes, r, width=16), image, classes, 32),
        "resnet": (lambda r: small_resnet(image, classes, r, width=8), image, classes, 32),
        "vit": (lambda r: vit_tiny(image, classes, r), image, classes, 32),
    }
    for dtype, tag in (("float64", "f64"), ("float32", "f32")):
        set_compute_dtype(dtype)
        try:
            for name, (make, shape, num_classes, batch) in zoo.items():
                rng = np.random.default_rng(seed)
                model = make(rng)
                x = rng.normal(size=(batch, *shape)).astype(dtype)
                y = rng.integers(0, num_classes, size=batch)

                def fwdbwd():
                    model.zero_grad()
                    model.loss_and_grad(x, y)

                record(f"nn.{name}.fwdbwd_us.{tag}", timed(fwdbwd))
                record(
                    f"nn.{name}.fwd_us.{tag}",
                    timed(lambda: model.forward(x, train=False)),
                )
                if name == "cnn":
                    opt = SGD(CNN_TRAINER.lr)
                    record(
                        f"nn.sgd.step_us.{tag}",
                        timed(lambda: opt.step(model.params(), model.grads())),
                    )
        finally:
            set_compute_dtype("float64")

    cnn_clients, cnn_model = cnn_fleet(seed)
    trees = [cnn_model.get_params() for _ in range(8)]
    weights = [float(c.data.num_train) for c in cnn_clients[:8]]
    record("nn.param_ops.tree_average_us", timed(lambda: tree_average(trees, weights)))

    # -- repro.core: a fixed 5-model widen/deepen suite, 16 updates -------
    rng = np.random.default_rng(seed)
    cfg = FedTransConfig()
    suite = [mlp((64,), 62, rng, width=16, depth=2)]

    def grow(parent, round_idx):
        child = parent.clone(birth_round=round_idx)
        cells = [c.cell_id for c in child.transformable_cells()]
        apply_transform(
            child, cells, rng, cfg.widen_factor, cfg.deepen_cells, round_idx,
            widen_noise=cfg.widen_noise, widen_mode=cfg.widen_mode,
        )
        return child

    for round_idx in range(1, 5):  # widen, deepen, widen, deepen
        suite.append(grow(suite[-1], round_idx))
    models = {m.model_id: m for m in suite}
    birth_order = [m.model_id for m in suite]
    # suite[-1] was deepened last, so its cells widen next; suite[-2]'s deepen.
    record("core.transform.widen_ms", timed(lambda: grow(suite[-1], 9)))
    record("core.transform.deepen_ms", timed(lambda: grow(suite[-2], 9)))
    record("nn.model.clone_us", timed(lambda: suite[-1].clone(keep_id=True)))

    def update_for(client_id: int, model) -> ClientUpdate:
        params = {
            k: v + 0.01 * rng.normal(size=v.shape) for k, v in model.get_params().items()
        }
        return ClientUpdate(
            client_id=client_id,
            model_id=model.model_id,
            params=params,
            state=model.get_state(),
            grad={k: 0.01 * rng.normal(size=v.shape) for k, v in params.items()},
            train_loss=float(rng.uniform(0.5, 2.0)),
            num_samples=int(rng.integers(10, 60)),
            macs_spent=0.0,
            bytes_down=model.nbytes(),
            bytes_up=model.nbytes(),
            round_time=1.0,
            raw_bytes_up=model.nbytes(),
        )

    updates = [update_for(i, suite[i % len(suite)]) for i in range(16)]
    sim_cache = SimilarityCache()
    aggregator = ModelAggregator(cfg, sim_cache)
    record(
        "core.aggregator.eq5_ms",
        timed(lambda: aggregator.aggregate(models, birth_order, updates, 10)),
    )
    manager = ClientManager(
        sim_cache, utility_decay=cfg.utility_decay, utility_clamp=cfg.utility_clamp
    )
    record("core.client_manager.update_us", timed(lambda: manager.update(updates, models)))

    # -- repro.fl.transport / shm ------------------------------------------
    fleet_clients, fleet_model = straggler_fleet(seed, 64)
    fleet_update = update_for(0, fleet_model)
    for spec, tag in (("update:rle", "rle"), ("update:topk0.05+int8", "topk_int8")):
        codec = TransportCodec(TransportConfig.parse(spec))
        record(
            f"fl.transport.encode_us.{tag}",
            timed(
                lambda u: codec.encode_update(u, fleet_model),
                prepare=lambda: (copy.deepcopy(fleet_update),),
            ),
        )

    segments: dict = {}
    try:
        serial = itertools.count()

        def write():
            name = f"e2e-kernels-{os.getpid()}-{next(serial)}"
            segments[name] = shm.write_snapshot_segment(name, "full", models)[0]
            return name

        record("fl.shm.write_ms", timed(write))
        name = write()
        record(
            "fl.shm.read_ms", timed(lambda: shm.read_snapshot_segment(segments[name]))
        )
    finally:
        shm.unlink_segments(segments)

    # -- repro.fl.checkpoint: the fleet workload's state after 10 steps ----
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        built = WORKLOADS["fleet_async_mixed"].build(seed, False, Path(tmp))
        built.close()
        coord = Coordinator(
            built.strategy,
            built.clients,
            replace(
                built.config, rounds=10, eval_every=10,
                checkpoint_every=None, checkpoint_dir=None,
            ),
        )
        coord.run()
        payload = coord.state_dict()
        path = Path(tmp) / "payload.npz"
        record(
            "fl.checkpoint.write_ms", timed(lambda: write_payload(path, payload), slice_s=0.4)
        )
        record("fl.checkpoint.read_ms", timed(lambda: read_payload(path), slice_s=0.4))
        out["fl.checkpoint.bytes"] = float(path.stat().st_size)
        out["fl.checkpoint.arrays"] = float(len(flatten_payload(payload)[1]))

    # -- repro.fl.scheduling: 100k registered / 64 picked ------------------
    blank = np.zeros((8, 4))
    labels = np.zeros(8, dtype=np.int64)
    shared = ClientData(0, blank, labels, blank, labels)
    tiers = [DeviceTrace(t, 10.0 ** (8 + t), 10.0 ** (5 + t), 1e15) for t in range(4)]
    store = FleetStore([FLClient(i, shared, tiers[i % 4]) for i in range(100_000)])
    for policy in ("uniform", "availability", "oort"):
        selector = make_selector(policy, seed=seed)
        selector.bind_fleet(store)
        tick_rng = np.random.default_rng(seed)
        record(
            f"fl.scheduling.tick_us.{policy}",
            timed(lambda: selector.select(0, store.view(), 64, tick_rng)),
        )

    # -- repro.fl.executor: one wave per backend ---------------------------
    cnn_models = {cnn_model.model_id: cnn_model}
    cnn_items = [TrainItem(cnn_model.model_id, c.client_id, 0) for c in cnn_clients[:6]]
    mlp_models = {fleet_model.model_id: fleet_model}
    mlp_items = [TrainItem(fleet_model.model_id, c.client_id, 0) for c in fleet_clients[:8]]
    one_step = LocalTrainerConfig(batch_size=STRAGGLER_TRAINER.batch_size, local_steps=1)
    waves = (
        # One wave of the CNN workloads (6 items x 5 steps) costs ~0.5 s, so
        # it gets MIN_CALLS calls and no more.
        ("wave_ms", cnn_clients, CNN_TRAINER, cnn_items, cnn_models, 0.0),
        ("wave_overhead_ms", fleet_clients, one_step, mlp_items, mlp_models, SLICE_S),
    )
    for backend in ("serial", "thread", "process"):
        for metric, clients, trainer, items, served, slice_s in waves:
            executor = make_executor(backend, clients, trainer, seed, MAX_WORKERS)
            try:
                record(
                    f"fl.executor.{metric}.{backend}",
                    timed(
                        lambda: executor.train_round(0, items, served),
                        slice_s=slice_s,
                        warmups=1,  # the first wave starts the pool
                    ),
                )
            finally:
                executor.close()
    for backend in ("thread", "process"):
        out[f"fl.executor.parallel_efficiency.{backend}"] = out[
            "fl.executor.wave_ms.serial"
        ] / (out[f"fl.executor.wave_ms.{backend}"] * MAX_WORKERS)

    missing = set(KERNELS) - set(out)
    if missing:
        raise RuntimeError(f"kernels not measured: {sorted(missing)}")
    return out


if __name__ == "__main__":
    check_blas_pinned()
    spec = json.loads(sys.argv[1])
    out_dir = Path(spec["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    emit({"kernels": run_kernels(spec["seed"], out_dir)})
