"""The four reference workloads (names are fixed; later issues cite them).

Each builder turns ``--seed`` into the dataset, the fleet, the initial
model and ``CoordinatorConfig.seed`` and returns a constructed — not yet
run — :class:`~repro.fl.Coordinator`; the program sees only those
generated inputs.  Sizes are cut from the ISSUE's 10-12 s runs to 3-5 s
so that several cold-process repeats fit the benchmark contract's
per-invocation time box (README.md, "Sizing").
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from repro.baselines import HeteroFLStrategy, fedavg
from repro.bench import active_profile, build_dataset, build_fleet, make_initial_model
from repro.bench.workloads import coordinator_config, fedtrans_config
from repro.core import FedTransStrategy
from repro.data import SyntheticTaskConfig, build_federated_dataset
from repro.device import DeviceTrace
from repro.fl import Coordinator, CoordinatorConfig, FLClient, LocalTrainerConfig
from repro.fl.scheduling import estimate_round_time
from repro.nn import mlp, small_cnn

__all__ = ["Workload", "WORKLOADS", "MAX_WORKERS", "cnn_fleet", "straggler_fleet"]

# Never more than ``nproc`` on the 2-core reference box.
MAX_WORKERS = 2
# Early stopping would make the amount of work depend on the accuracy
# trajectory; every run spends its whole round budget.
_NO_EARLY_STOP = dict(convergence_patience=10_000)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # Mean client accuracy the run must reach (frozen after checking it
    # reachable, with margin, on seeds 0-9; see README.md).
    target: float
    # (seed, smoke, scratch dir) -> constructed Coordinator
    build: Callable[[int, bool, Path], Coordinator]


# ----------------------------------------------------------------------
def _fedtrans_mlp_sync(seed: int, smoke: bool, scratch: Path) -> Coordinator:
    profile = active_profile("femnist_like", "tiny").with_(
        scale=0.1, rounds=2 if smoke else 120, eval_every=40, clients_per_round=16
    )
    dataset = build_dataset(profile, seed=seed)
    init = make_initial_model(dataset, profile, np.random.default_rng(seed))
    clients, max_capacity = build_fleet(dataset, init.macs(), profile, seed)
    strategy = FedTransStrategy(
        init, fedtrans_config(profile), max_capacity_macs=max_capacity
    )
    return Coordinator(
        strategy, clients, coordinator_config(profile, seed, **_NO_EARLY_STOP)
    )


# ----------------------------------------------------------------------
def cnn_fleet(seed: int, num_clients: int = 16):
    """The ``bench_hotpath.py`` conv fleet and its ``small_cnn(width=16)``.

    Equal-sized clients (Dirichlet label skew, 60 samples each) instead of
    the natural size-imbalanced partition: with 16 clients the total sample
    count — and with it eval time and training MACs — would otherwise swing
    by tens of percent from seed to seed.
    """
    task = SyntheticTaskConfig(
        num_classes=3, input_shape=(3, 16, 16), latent_dim=8, teacher_width=16,
        class_sep=6.0, drift_std=0.1, seed=seed,
    )
    dataset = build_federated_dataset(
        task, num_clients, mean_samples=60, seed=seed, partition="dirichlet", h=5.0
    )
    clients = [
        FLClient(c.client_id, c, DeviceTrace(c.client_id, 1e9, 1e6, 1e15))
        for c in dataset.clients
    ]
    model = small_cnn(
        dataset.input_shape, dataset.num_classes, np.random.default_rng(seed), width=16
    )
    return clients, model


CNN_TRAINER = LocalTrainerConfig(batch_size=32, local_steps=5, lr=0.3)


def _cnn_fedavg(executor: str) -> Callable[[int, bool, Path], Coordinator]:
    def build(seed: int, smoke: bool, scratch: Path) -> Coordinator:
        clients, model = cnn_fleet(seed)
        config = CoordinatorConfig(
            rounds=2 if smoke else 4,
            clients_per_round=4 if smoke else 6,
            trainer=replace(CNN_TRAINER, local_steps=1) if smoke else CNN_TRAINER,
            eval_every=2,
            # The default 256 makes each sweep allocate 75 MB im2col
            # buffers, which malloc maps fresh every time; first touch of
            # fresh pages stalls for up to seconds on the shared reference
            # host (README.md, "Estimator").
            eval_batch_size=CNN_TRAINER.batch_size,
            seed=seed,
            executor=executor,
            max_workers=None if executor == "serial" else MAX_WORKERS,
            **_NO_EARLY_STOP,
        )
        return Coordinator(fedavg(model.clone(keep_id=True)), clients, config)

    return build


# ----------------------------------------------------------------------
STRAGGLER_TRAINER = LocalTrainerConfig(batch_size=20, local_steps=20, lr=0.2)
FLEET_COMPRESS = "update:topk0.05+int8,snapshot:rle"


def straggler_fleet(seed: int, num_clients: int):
    """16-feature fleet where every 5th device is a straggler.

    Stragglers compute 100x slower and upload 50x slower, so deadlines,
    downsizing and drops all fire.
    """
    task = SyntheticTaskConfig(
        num_classes=6, input_shape=(16,), latent_dim=8, teacher_width=16,
        class_sep=2.5, seed=seed,
    )
    dataset = build_federated_dataset(
        task, num_clients, mean_samples=24, seed=seed, partition="dirichlet"
    )
    clients = [
        FLClient(
            c.client_id,
            c,
            DeviceTrace(
                c.client_id,
                1e7 if c.client_id % 5 == 0 else 1e9,
                2e4 if c.client_id % 5 == 0 else 1e6,
                1e15,
            ),
        )
        for c in dataset.clients
    ]
    model = mlp(
        dataset.input_shape, dataset.num_classes, np.random.default_rng(seed), width=32
    )
    return clients, model


def _fleet_async_mixed(seed: int, smoke: bool, scratch: Path) -> Coordinator:
    clients, model = straggler_fleet(seed, 200 if smoke else 2000)
    strategy = HeteroFLStrategy(model)
    smallest = min(strategy.models().values(), key=lambda m: m.macs())
    config = CoordinatorConfig(
        rounds=2 if smoke else 20,
        clients_per_round=16 if smoke else 64,
        trainer=STRAGGLER_TRAINER,
        eval_every=10,
        seed=seed,
        mode="async",
        buffer_k=8 if smoke else 32,
        # clients[0] is a straggler (id 0 is a multiple of 5).
        deadline_s=2 * estimate_round_time(clients[0], smallest, STRAGGLER_TRAINER),
        selector="oort",
        pacing="quantile",
        straggler="downsize",
        evict_after=20,
        compress=FLEET_COMPRESS,
        wire_time=True,
        quarantine=True,
        checkpoint_every=1 if smoke else 8,
        checkpoint_dir=str(scratch),
        **_NO_EARLY_STOP,
    )
    return Coordinator(strategy, clients, config)


# ----------------------------------------------------------------------
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "fedtrans_mlp_sync",
            "FedTrans on 340 MLP clients, sync, serial: utility assignment, Eq. 4/5 "
            "aggregation, widen/deepen, 3 fleet eval sweeps; repro.core and per-step "
            "Python overhead dominate, BLAS/IPC/codec idle",
            0.30,
            _fedtrans_mlp_sync,
        ),
        Workload(
            "cnn_fedavg_serial",
            "FedAvg of small_cnn(width=16) on 3x16x16 images, serial: repro.nn "
            "conv/im2col/BatchNorm/SGD kernels are ~95% of the run, repro.core idles; "
            "single-worker baseline of cnn_fedavg_process",
            0.55,
            _cnn_fedavg("serial"),
        ),
        Workload(
            "cnn_fedavg_process",
            "same inputs on the 2-worker process pool: pool start, shm snapshot "
            "publish, pickling and dispatch/drain sit on the blocking path; "
            "trajectory digest must equal the serial one",
            0.55,
            _cnn_fedavg("process"),
        ),
        Workload(
            "fleet_async_mixed",
            "2000-client async HeteroFL fleet with stragglers (oort, quantile pacing, "
            "downsize, topk+int8, quarantine, checkpoints): only here checkpoint, "
            "codec, scheduling and ~35 one-item waves/step show",
            0.40,
            _fleet_async_mixed,
        ),
    )
}
