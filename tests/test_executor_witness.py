"""Refactor witness for the round executors (wave runner + snapshot publisher).

The goldens pin the trajectory, and CONTRACTS.md I10 pins a recovered run
to the fault-free one — but a refactor that reorders the fault ledger,
double-charges a retry or publishes a different number of snapshot bytes
leaves both untouched.  The fixture ``tests/data/golden_executor_waves.json``
was written by this file's ``__main__`` at the commit it records (the
parent of the one-wave-runner refactor, before ``executor.py`` was
touched) and holds, per scenario, blake2b digests of the run export and of
the recovery ledger plus the nine publish meters in plain text.

Scenarios: ``{serial, thread, process}`` x four sync fault specs on a
SplitMix fleet whose low budgets leave some base nets untouched each round
(so the process backend publishes full, delta, reused *and* compacting
snapshots), plus one async ``snapshot:rle`` process run whose heals reset
the rle shadow.  Ledger record order is part of the digest for serial and
process; the thread backend meters from worker threads in lock-arrival
order, so its records are sorted first.  Two things a real SIGKILL makes
host-dependent are normalised (measured at the parent: four regenerations
otherwise differ in exactly these): the ``pool_rebuild`` detail is the
stdlib's ``BrokenProcessPool`` text, which depends on whether the pool
died during ``submit`` or during a future; and in the one process scenario
mixing ``crash`` with ``shm`` item faults a neighbour's own shm fault fires
before the pool dies or after the rebuild (one more all-reused retry wave)
— or never, when the neighbour's plan also holds a crash and the culprit
bump skips its attempt 0 — so that scenario pins the trajectory, the real
publishes and the rebuild count, not the retry records or the reuse count.

Regenerate (only ever at a commit whose executor is the reference):
``PYTHONPATH=src python tests/test_executor_witness.py``.
"""

import hashlib
import json
import subprocess
from pathlib import Path

import numpy as np
import pytest

from repro.baselines import SplitMixStrategy
from repro.data import SyntheticTaskConfig, build_federated_dataset
from repro.device import DeviceTrace
from repro.fl import Coordinator, CoordinatorConfig, FLClient, LocalTrainerConfig, log_to_dict
from repro.fl.export import recovery_to_dict
from repro.nn import mlp
from repro.nn.cells import set_cell_id_counter
from repro.nn.model import set_model_id_counter

GOLDEN = Path(__file__).parent / "data" / "golden_executor_waves.json"

PUBLISH_METERS = (
    "publish_count",
    "full_publish_count",
    "delta_publish_count",
    "reused_publish_count",
    "bytes_published_total",
    "raw_bytes_published_total",
    "full_bytes_total",
    "delta_bytes_total",
    "last_publish_bytes",
)

BACKENDS = {
    "serial": {"executor": "serial"},
    "thread": {"executor": "thread", "max_workers": 3},
    "process": {"executor": "process", "max_workers": 2},
}

FAULTS = {
    "crash": {"faults": "crash=0.5"},
    "shm": {"faults": "shm=0.8"},
    "exc_retries2": {"faults": "exc=0.4", "retries": 2},
    "exc_retries1": {"faults": "exc=0.4", "retries": 1},  # permanent failures
    "crash_shm": {"faults": "crash=0.4,shm=0.5"},
}

SCENARIOS = {
    f"{backend}_sync_{fault}": {**bkw, **fkw}
    for backend, bkw in BACKENDS.items()
    for fault, fkw in FAULTS.items()
}
SCENARIOS["process_async_rle_crash"] = {
    **BACKENDS["process"],
    "mode": "async",
    "buffer_k": 2,
    "async_concurrency": 3,
    "compress": "update:rle,snapshot:rle",
    "faults": "crash=0.4",
}
# See the module docstring: a SIGKILL races the wave's other faulting items.
RACY = "process_sync_crash_shm"


def _coordinator(**over) -> Coordinator:
    task = SyntheticTaskConfig(
        num_classes=4, input_shape=(8,), latent_dim=6, teacher_width=12,
        class_sep=3.0, seed=0,
    )
    ds = build_federated_dataset(task, 10, mean_samples=25, seed=0)
    big = mlp(ds.input_shape, ds.num_classes, np.random.default_rng(0), width=16)
    strategy = SplitMixStrategy(big, k=4, seed=0)
    # Budgets of one (or, every third client, two) of the four base nets: a
    # 2-client round leaves bases untouched, which is what makes a publish
    # a delta, and 16 rounds of them run the chain into a compaction.
    base_macs = next(iter(strategy.models().values())).macs()
    clients = [
        FLClient(
            c.client_id,
            c,
            DeviceTrace(c.client_id, 1e9, 1e6, base_macs * (2.5 if c.client_id % 3 == 0 else 1.5)),
        )
        for c in ds.clients
    ]
    config = CoordinatorConfig(
        rounds=16, clients_per_round=2, eval_every=4, seed=0,
        trainer=LocalTrainerConfig(batch_size=8, local_steps=3, lr=0.2), **over,
    )
    return Coordinator(strategy, clients, config)


def _blake(obj) -> str:
    canonical = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(canonical.encode(), digest_size=16).hexdigest()


def _digests(name: str) -> dict:
    # Model/cell ids come from process-global counters; pin them so the id
    # strings (and with them the snapshot header sizes) do not depend on
    # which tests ran before.
    set_model_id_counter(0)
    set_cell_id_counter(0)
    coord = _coordinator(**SCENARIOS[name])
    log = coord.run()
    recovery = recovery_to_dict(log)
    for rec in recovery["faults"]:
        if rec["action"] == "pool_rebuild":
            rec["detail"] = ""
    if name.startswith("thread"):
        recovery["faults"].sort(key=lambda rec: json.dumps(rec, sort_keys=True))
    # The meters moved from the process executor to its publisher; the
    # in-process backends publish nothing and read all-zero either way.
    source = getattr(coord.executor, "publisher", coord.executor)
    publish = {m: int(getattr(source, m, 0)) for m in PUBLISH_METERS}
    if name == RACY:
        del publish["reused_publish_count"]
        return {
            "log": _blake(log_to_dict(log)),
            "publish": publish,
            "worker_restarts": log.worker_restarts,
            "failed_updates": log.failed_updates,
        }
    return {
        "log": _blake(log_to_dict(log)),
        "recovery": _blake(recovery),
        "publish": publish,
        # Plain-text canaries: a scenario whose faults silently stopped
        # firing would otherwise still "match" after a regeneration.
        "fault_records": len(log.faults),
        "worker_restarts": log.worker_restarts,
        "retries": log.retries,
        "failed_updates": log.failed_updates,
    }


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_matches_parent_commit(name):
    with open(GOLDEN) as f:
        golden = json.load(f)
    assert _digests(name) == golden["scenarios"][name]


if __name__ == "__main__":
    sha = subprocess.run(
        ["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=True,
        cwd=Path(__file__).parent,
    ).stdout.strip()
    out = {"generated_at_commit": sha, "scenarios": {n: _digests(n) for n in sorted(SCENARIOS)}}
    with open(GOLDEN, "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")
    print(json.dumps(out, indent=1, sort_keys=True))
