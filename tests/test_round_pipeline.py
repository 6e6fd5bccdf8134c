"""Refactor witness for the round pipeline (sync barrier + async engine).

The committed goldens pin only the default policy stack; a refactor that
reorders events or metering on a *non-default* stack would move every
backend equally, so no cross-backend test would notice.  The fixture
``tests/data/golden_round_pipeline.json`` was written by this file's
``__main__`` at the commit it records (the parent of the round-pipeline
refactor, before either loop was touched) and holds, per scenario, blake2b
digests of the three canonical-JSON exports plus the sorted set of nested
key paths of the final ``Coordinator.state_dict()`` — faults, retries,
quarantine, lossy transport, wire-time pricing, eviction, stragglers,
checkpoints and multi-model assignments all on.

Regenerate (only ever at a commit whose loops are the reference):
``PYTHONPATH=src python tests/test_round_pipeline.py``.
"""

import hashlib
import json
import subprocess
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro.baselines import HeteroFLStrategy, SplitMixStrategy, fedavg
from repro.bench import active_profile, build_dataset, build_fleet, make_initial_model
from repro.bench.workloads import coordinator_config, fedtrans_config
from repro.core import FedTransStrategy
from repro.data import SyntheticTaskConfig, build_federated_dataset
from repro.device import DeviceTrace
from repro.fl import (
    Coordinator,
    CoordinatorConfig,
    FLClient,
    LocalTrainerConfig,
    log_to_dict,
    recovery_to_dict,
    transport_to_dict,
)
from repro.fl.scheduling import OortSelector, QuantilePacing, estimate_round_time
from repro.fl.strategy import Strategy
from repro.nn import mlp
from repro.nn.cells import set_cell_id_counter
from repro.nn.model import set_model_id_counter

GOLDEN = Path(__file__).parent / "data" / "golden_round_pipeline.json"

TRAINER = LocalTrainerConfig(batch_size=8, local_steps=5, lr=0.2)


def _dataset(num_clients, seed=0):
    task = SyntheticTaskConfig(
        num_classes=4, input_shape=(8,), latent_dim=6, teacher_width=12,
        class_sep=3.0, seed=seed,
    )
    return build_federated_dataset(task, num_clients, mean_samples=25, seed=seed)


def _fleet(ds, capacity=lambda cid: 1e15, slow=lambda cid: False):
    """Stragglers compute 100x slower and upload 50x slower."""
    return [
        FLClient(
            c.client_id,
            c,
            DeviceTrace(
                c.client_id,
                1e7 if slow(c.client_id) else 1e9,
                2e4 if slow(c.client_id) else 1e6,
                capacity(c.client_id),
            ),
        )
        for c in ds.clients
    ]


# ----------------------------------------------------------------------
# scenarios: name -> builder(scratch dir) -> constructed Coordinator
# ----------------------------------------------------------------------
def _fedavg_sync_chaos(scratch):
    ds = _dataset(12)
    model = mlp(ds.input_shape, ds.num_classes, np.random.default_rng(0), width=16)
    config = CoordinatorConfig(
        rounds=8, clients_per_round=6, trainer=TRAINER, eval_every=4, seed=0,
        faults="poison=0.3,exc=0.2", retries=2, quarantine=True,
    )
    return Coordinator(fedavg(model), _fleet(ds), config)


def _fedtrans_sync_oort_lossy(scratch):
    profile = active_profile("femnist_like", "tiny").with_(
        scale=0.05, rounds=24, eval_every=8, clients_per_round=8
    )
    dataset = build_dataset(profile, seed=0)
    init = make_initial_model(dataset, profile, np.random.default_rng(0))
    clients, max_capacity = build_fleet(dataset, init.macs(), profile, 0)
    strategy = FedTransStrategy(
        init, fedtrans_config(profile), max_capacity_macs=max_capacity
    )
    config = coordinator_config(
        profile, 0, selector="oort", evict_after=3,
        compress="update:topk0.05+int8", wire_time=True,
    )
    return Coordinator(strategy, clients, config)


def _heterofl_async_mixed(scratch):
    task = SyntheticTaskConfig(
        num_classes=6, input_shape=(16,), latent_dim=8, teacher_width=16,
        class_sep=2.5, seed=0,
    )
    ds = build_federated_dataset(
        task, 60, mean_samples=24, seed=0, partition="dirichlet"
    )
    clients = _fleet(ds, slow=lambda cid: cid % 5 == 0)
    model = mlp(ds.input_shape, ds.num_classes, np.random.default_rng(0), width=32)
    strategy = HeteroFLStrategy(model)
    trainer = LocalTrainerConfig(batch_size=20, local_steps=5, lr=0.2)
    smallest = min(strategy.models().values(), key=lambda m: m.macs())
    config = CoordinatorConfig(
        rounds=8, clients_per_round=12, trainer=trainer, eval_every=4, seed=0,
        mode="async", buffer_k=6,
        deadline_s=2 * estimate_round_time(clients[0], smallest, trainer),
        selector="oort", pacing="quantile", straggler="downsize", evict_after=4,
        compress="update:topk0.05+int8,snapshot:rle", wire_time=True,
        quarantine=True, faults="poison=0.2,hang=0.15",
        checkpoint_every=3, checkpoint_dir=str(scratch),
    )
    return Coordinator(strategy, clients, config)


def _splitmix(mode):
    def build(scratch):
        ds = _dataset(8)
        big = mlp(ds.input_shape, ds.num_classes, np.random.default_rng(0), width=16)
        clients = _fleet(ds, capacity=lambda cid: big.macs() * (0.3 + 0.2 * cid))
        strategy = SplitMixStrategy(big, k=4, seed=0)
        over = {"mode": "async", "buffer_k": 3} if mode == "async" else {}
        config = CoordinatorConfig(
            rounds=8, clients_per_round=6, trainer=TRAINER, eval_every=4, seed=0,
            faults="exc=0.3", retries=1, **over,
        )
        return Coordinator(strategy, clients, config)

    return build


def _fedavg_churn(mode):
    """Mostly-offline fleet: under-provisioned and offline-fallback rounds."""

    def build(scratch):
        ds = _dataset(6)
        model = mlp(ds.input_shape, ds.num_classes, np.random.default_rng(0), width=8)
        over = {"mode": "async", "buffer_k": 2} if mode == "async" else {}
        config = CoordinatorConfig(
            rounds=10, clients_per_round=4, trainer=TRAINER, eval_every=5, seed=0,
            selector="availability", availability_trace="bernoulli:0.15", **over,
        )
        return Coordinator(fedavg(model), _fleet(ds), config)

    return build


SCENARIOS = {
    "fedavg_sync_chaos": _fedavg_sync_chaos,
    "fedtrans_sync_oort_lossy": _fedtrans_sync_oort_lossy,
    "heterofl_async_mixed": _heterofl_async_mixed,
    "splitmix_sync_permfail": _splitmix("sync"),
    "splitmix_async_permfail": _splitmix("async"),
    "fedavg_sync_churn": _fedavg_churn("sync"),
    "fedavg_async_churn": _fedavg_churn("async"),
}


# ----------------------------------------------------------------------
def _blake(obj) -> str:
    canonical = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(canonical.encode(), digest_size=16).hexdigest()


def _key_paths(payload, prefix=""):
    """Nested dict-key paths; values and list contents are ignored."""
    for key, value in payload.items():
        path = f"{prefix}/{key}"
        yield path
        if isinstance(value, dict):
            yield from _key_paths(value, path)


def _digests(name: str) -> dict:
    # Model/cell ids come from process-global counters; pin them so the
    # id strings in the exports do not depend on which tests ran before.
    set_model_id_counter(0)
    set_cell_id_counter(0)
    with tempfile.TemporaryDirectory() as scratch:
        coord = SCENARIOS[name](Path(scratch))
        log = coord.run()
    state = coord.state_dict()
    if isinstance(coord.strategy, HeteroFLStrategy):
        # The fixture predates HeteroFL's own payload (the global model
        # only, tests/test_baselines.py pins it): substitute the suite-shaped
        # payload it replaced, so every other key path of the scenario is
        # still held to the fixture's commit.
        state["strategy"] = Strategy.state_dict(coord.strategy)
    # Likewise the scheduler payloads: at the fixture's commit the Oort
    # selector restated the fleet's utility column and quantile pacing its
    # round-time windows (tests/test_checkpoint_resume.py pins that such a
    # payload still loads).  Put the two restatements back.
    fleet = state["fleet"]
    if isinstance(coord.selector, OortSelector):
        state["selector"]["utility"] = {
            str(int(cid)): None
            for cid, has in zip(fleet["ids"], fleet["has_utility"]) if has
        }
    if state["engine"] and state["engine"]["pacing"]["schema"] == QuantilePacing.schema:
        state["engine"]["pacing"]["durations"] = fleet["stats"]["durations"]
    return {
        "log": _blake(log_to_dict(log)),
        "recovery": _blake(recovery_to_dict(log)),
        "transport": _blake(transport_to_dict(log)),
        "state_keys": _blake(sorted(set(_key_paths(state)))),
        # Plain-text canaries: a scenario whose stack silently stopped
        # firing would otherwise still "match" after a regeneration.
        "failed_updates": log.failed_updates,
        "quarantined_updates": log.quarantined_updates,
        "dropped_updates": log.dropped_updates,
        "downsized_updates": log.downsized_updates,
        "evicted_clients": log.evicted_clients,
        "offline_fallback_rounds": sum(
            r.scheduler.offline_fallback_rounds for r in log.rounds
        ),
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
