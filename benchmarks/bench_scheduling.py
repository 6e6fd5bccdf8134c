"""Scheduling subsystem — downsize vs drop, and utility-table memory.

Two claims from the scheduling PR, measured:

1. **Straggler downsizing beats dropping.**  On the straggler-heavy fleet
   of ``bench_async_rounds.py`` (a slow minority with ~100x less compute
   and ~50x less bandwidth) running HeteroFL's multi-size subnet ladder,
   the ``drop`` policy wastes every slow client's slot — dispatched, held
   to the deadline, discarded — while ``downsize`` re-assigns each
   predicted-late client the largest subnet whose estimated round time
   fits the deadline.  Same fleet, same deadline, same seed: downsize
   reaches the shared target accuracy in less simulated time, with zero
   dropped updates.

2. **Evicting utility table.**  ``ClientManager``'s client × model table
   at 100k registered / 1k active clients: with eviction the resident rows
   (and the bytes of the checkpoint payload's arrays) track the *active*
   fleet and land well under 5% of the never-evicting table's.

Run directly via pytest:
PYTHONPATH=src python -m pytest -q -s benchmarks/bench_scheduling.py
"""

import os

import numpy as np

from repro.baselines import HeteroFLStrategy
from repro.bench import ascii_table
from repro.core import ClientManager
from repro.data import SyntheticTaskConfig, build_federated_dataset
from repro.device import DeviceTrace
from repro.fl import ClientUpdate, Coordinator, CoordinatorConfig, FLClient, LocalTrainerConfig
from repro.fl.checkpoint import flatten_payload
from repro.fl.scheduling import estimate_round_time
from repro.nn import mlp

NUM_CLIENTS = 20
NUM_SLOW = 4  # 20% stragglers: 100x slower compute, 50x slower network
ROUNDS = 24
CLIENTS_PER_ROUND = 8
BUFFER_K = 4
TRAINER = LocalTrainerConfig(batch_size=10, local_steps=8, lr=0.2)

# Store-memory scenario (overridable for constrained CI runs).
REGISTERED = int(os.environ.get("SCHED_BENCH_REGISTERED", 100_000))
ACTIVE = int(os.environ.get("SCHED_BENCH_ACTIVE", 1_000))


def _workload(seed: int = 0):
    task = SyntheticTaskConfig(
        num_classes=6,
        input_shape=(16,),
        latent_dim=8,
        teacher_width=16,
        class_sep=2.5,
        seed=seed,
    )
    ds = build_federated_dataset(task, NUM_CLIENTS, mean_samples=40, seed=seed)
    clients = [
        FLClient(
            c.client_id,
            c,
            DeviceTrace(
                c.client_id,
                1e7 if c.client_id < NUM_SLOW else 1e9,
                2e4 if c.client_id < NUM_SLOW else 1e6,
                1e15,
            ),
        )
        for c in ds.clients
    ]
    model = mlp(ds.input_shape, ds.num_classes, np.random.default_rng(seed), width=32)
    return ds, model, clients


def _deadline(clients, model) -> float:
    """Fast clients' full model fits; slow clients only fit downsized."""
    suite = HeteroFLStrategy(model.clone()).models()
    smallest = min(suite.values(), key=lambda m: m.macs())
    full = max(suite.values(), key=lambda m: m.macs())
    deadline = 2 * max(
        estimate_round_time(c, smallest, TRAINER) for c in clients[:NUM_SLOW]
    )
    assert max(estimate_round_time(c, full, TRAINER) for c in clients[NUM_SLOW:]) < deadline
    assert deadline < min(estimate_round_time(c, full, TRAINER) for c in clients[:NUM_SLOW])
    return deadline


def _run(straggler: str, seed: int = 0):
    ds, model, clients = _workload(seed)
    cfg = CoordinatorConfig(
        rounds=ROUNDS,
        clients_per_round=CLIENTS_PER_ROUND,
        trainer=TRAINER,
        eval_every=4,
        seed=seed,
        mode="async",
        buffer_k=BUFFER_K,
        deadline_s=_deadline(clients, model),
        straggler=straggler,
    )
    return Coordinator(HeteroFLStrategy(model.clone()), clients, cfg).run()


def test_downsize_beats_drop_time_to_accuracy(report):
    runs = {"drop": _run("drop"), "downsize": _run("downsize")}

    # Shared target: just under the weakest run's best accuracy, so both
    # configurations reach it and times are comparable.
    target = 0.95 * min(log.best_eval().mean_accuracy for log in runs.values())
    rows, times = [], {}
    for name, log in runs.items():
        t = log.time_to_accuracy(target)
        times[name] = t
        rows.append(
            {
                "straggler": name,
                f"time_to_{target:.0%}_s": round(t, 4) if t is not None else "n/a",
                "sim_time_total_s": round(log.simulated_time(), 4),
                "final_acc_pct": round(log.final_accuracy() * 100, 2),
                "dropped": log.dropped_updates,
                "downsized": log.downsized_updates,
                "dropped_pmacs": round(log.dropped_macs / 1e15, 9),
            }
        )
    report(
        "scheduling_straggler",
        ascii_table(rows, "drop vs downsize on the straggler-heavy fleet (HeteroFL)"),
    )

    drop, down = runs["drop"], runs["downsize"]
    assert drop.dropped_updates > 0 and drop.downsized_updates == 0
    assert down.downsized_updates > 0 and down.dropped_updates == 0
    assert all(t is not None for t in times.values())
    # The headline claim: converting predicted-late slots into small-model
    # updates reaches the target accuracy in less simulated time than
    # discarding them at the deadline.
    assert times["downsize"] < times["drop"]


def test_sparse_store_memory_at_scale(report):
    rng = np.random.default_rng(0)
    parent = mlp((6,), 3, rng, width=4)
    child = parent.clone()
    child.widen_cell(child.transformable_cells()[0].cell_id, 2.0, rng)
    models = {parent.model_id: parent, child.model_id: child}

    def upd(cid, loss):
        return ClientUpdate(cid, parent.model_id, {}, {}, loss, 1, 0.0, 0, 0, 0.0)

    losses = np.random.default_rng(1).uniform(0.1, 2.0, REGISTERED)

    def churn(cm: ClientManager) -> None:
        # Round 0: every registered client participates once.
        cm.advance_round(0)
        cm.update([upd(cid, losses[cid]) for cid in range(REGISTERED)], models)
        # Rounds 1..30: only the active slice keeps participating.
        for r in range(1, 31):
            cm.advance_round(r)
            cm.update([upd(cid, losses[cid]) for cid in range(ACTIVE)], models)

    dense = ClientManager()  # evict_after=None keeps every row
    churn(dense)
    sparse = ClientManager(evict_after=20)
    churn(sparse)

    def footprint(cm: ClientManager) -> tuple[int, int]:
        """Resident rows and the bytes of the checkpoint payload's arrays."""
        payload = cm.state_dict()
        _, arrays = flatten_payload(payload)
        return len(payload["clients"]), sum(a.nbytes for a in arrays.values())

    (dense_rows, dense_bytes), (sparse_rows, sparse_bytes) = footprint(dense), footprint(sparse)
    ratio = sparse_bytes / dense_bytes
    report(
        "scheduling_store_memory",
        ascii_table(
            [
                {
                    "table": name,
                    "resident_clients": rows,
                    "payload_array_mb": round(nbytes / 1e6, 3),
                    "evicted": cm.evicted_total,
                }
                for name, cm, (rows, nbytes) in (
                    ("never-evict", dense, (dense_rows, dense_bytes)),
                    ("evict_after=20", sparse, (sparse_rows, sparse_bytes)),
                )
            ],
            f"utility table at {REGISTERED:,} registered / {ACTIVE:,} active clients "
            f"(evicting/never-evict = {ratio:.2%})",
        ),
    )

    assert dense_rows == REGISTERED
    assert sparse_rows == ACTIVE
    # The acceptance bar: resident state proportional to the active fleet.
    assert ratio <= 0.05
    # Evicted clients still answer (with the fresh-client prior).
    assert sparse.utility(REGISTERED - 1, parent.model_id) == 0.0
