"""Fault-tolerance subsystem — recovery overhead and churn degradation.

Two claims from the fault-tolerance PR, measured:

1. **Crash recovery is invisible in the trajectory and cheap in wall
   time.**  The process backend under injected worker SIGKILLs rebuilds
   the pool, republishes the snapshot segment, and re-dispatches only the
   lost items — the export is byte-identical to the fault-free run at
   the same seed (CONTRACTS.md I10), and the measured wall-clock
   overhead is the cost of the pool rebuilds alone, not a restart of the
   run.

2. **Bounded degradation under churn.**  Task-level failures charge
   simulated backoff and exhausted retries become excluded clients, so
   accuracy degrades smoothly with the failure rate instead of the run
   aborting; quarantine keeps NaN-poisoning at 20% of updates from
   destroying the aggregate.

Run directly via pytest:
PYTHONPATH=src python -m pytest -q -s benchmarks/bench_faults.py
"""

import json
import re
import time

import numpy as np

from repro.baselines import fedavg
from repro.bench import ascii_table
from repro.data import SyntheticTaskConfig, build_federated_dataset
from repro.device import DeviceTrace
from repro.fl import (
    Coordinator,
    CoordinatorConfig,
    FLClient,
    LocalTrainerConfig,
    log_to_dict,
    recovery_summary,
)
from repro.nn import mlp

NUM_CLIENTS = 16
ROUNDS = 10
CLIENTS_PER_ROUND = 8
TRAINER = LocalTrainerConfig(batch_size=10, local_steps=8, lr=0.2)


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
        FLClient(c.client_id, c, DeviceTrace(c.client_id, 1e9, 1e6, 1e15))
        for c in ds.clients
    ]
    model = mlp(ds.input_shape, ds.num_classes, np.random.default_rng(seed), width=32)
    return clients, model


def _run(**over):
    clients, model = _workload()
    cfg = dict(
        rounds=ROUNDS,
        clients_per_round=CLIENTS_PER_ROUND,
        trainer=TRAINER,
        eval_every=5,
        seed=0,
    )
    cfg.update(over)
    coord = Coordinator(
        fedavg(model.clone(keep_id=True)), clients, CoordinatorConfig(**cfg)
    )
    t0 = time.perf_counter()
    log = coord.run()
    return log, time.perf_counter() - t0


def _export(log) -> str:
    """Canonical export with process-global model ids normalized away."""
    raw = json.dumps(log_to_dict(log), sort_keys=True)
    ids: dict[str, str] = {}
    return re.sub(
        r"m\d+", lambda m: ids.setdefault(m.group(0), f"M{len(ids)}"), raw
    )


def test_crash_recovery_overhead(report):
    kw = dict(executor="process", max_workers=2)
    clean_log, clean_s = _run(**kw)
    rows = [
        {
            "faults": "none",
            "wall_s": round(clean_s, 3),
            "restarts": 0,
            "retries": 0,
            "identical_export": "-",
        }
    ]
    for spec in ("crash=0.1", "crash=0.3", "crash=0.3,shm=0.3"):
        log, secs = _run(**kw, faults=spec)
        rec = recovery_summary(log)
        identical = _export(log) == _export(clean_log)
        rows.append(
            {
                "faults": spec,
                "wall_s": round(secs, 3),
                "restarts": rec["worker_restarts"],
                "retries": rec["retries"],
                "identical_export": identical,
            }
        )
        assert identical, f"{spec}: recovered run diverged from fault-free"
        assert rec["worker_restarts"] + rec["retries"] >= 1
    report(
        "faults_recovery_overhead",
        ascii_table(
            rows,
            "worker-crash recovery on the process backend "
            "(export byte-identical to fault-free in every row)",
        ),
    )


def test_degradation_under_churn(report):
    clean_log, _ = _run(executor="serial")
    clean_acc = clean_log.final_accuracy()
    rows = [
        {
            "scenario": "fault-free",
            "final_acc_pct": round(clean_acc * 100, 2),
            "sim_time_s": round(clean_log.simulated_time(), 4),
            "retries": 0,
            "failed": 0,
            "quarantined": 0,
        }
    ]
    scenarios = [
        ("exc=0.1 retries=3", dict(faults="exc=0.1")),
        ("exc=0.3 retries=3", dict(faults="exc=0.3")),
        ("exc=0.3 retries=1", dict(faults="exc=0.3", retries=1)),
        ("poison=0.2 +quarantine", dict(faults="poison=0.2", quarantine=True)),
    ]
    accs = {}
    for name, over in scenarios:
        log, _ = _run(executor="serial", **over)
        rec = recovery_summary(log)
        accs[name] = log.final_accuracy()
        rows.append(
            {
                "scenario": name,
                "final_acc_pct": round(log.final_accuracy() * 100, 2),
                "sim_time_s": round(log.simulated_time(), 4),
                "retries": rec["retries"],
                "failed": rec["failed_updates"],
                "quarantined": rec["quarantined_updates"],
            }
        )
        assert len(log.rounds) == ROUNDS  # every scenario completes the run
    report(
        "faults_churn_degradation",
        ascii_table(rows, "degradation under task failures and poisoning"),
    )
    # Retried-to-success runs sit on the fault-free trajectory (retries
    # only charge simulated time); quarantine must keep poisoning from
    # collapsing accuracy.
    assert accs["exc=0.1 retries=3"] == clean_acc
    assert accs["poison=0.2 +quarantine"] >= 0.7 * clean_acc
