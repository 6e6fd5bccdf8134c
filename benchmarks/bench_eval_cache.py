"""Incremental evaluation cache + delta snapshot publishing, measured.

Periodic evaluation sweeps every registered client, yet between sweeps most
of the suite is idle: async aggregation touches at most ``buffer_k`` models
per step, and cold models in multi-model training go unchanged for long
stretches.  This bench measures both halves of the version-tracking work on
a SplitMix workload (the worst pre-existing case — nested ensembles re-ran
every member model every sweep):

* **Repeated evaluation on a partially idle suite** — per sweep exactly one
  of the k base models trains; cache-on vs cache-off wall-clock, cache hit
  rate, and bit-identical accuracies are reported.  The claim under test:
  >= 3x faster sweeps when the suite is mostly unchanged.
* **Delta snapshot publishing** — the same workload run buffered-async on
  the process backend; bytes pickled per publish are compared against the
  full-suite snapshot the executor used to ship every round.

Run directly via pytest:  PYTHONPATH=src python -m pytest -q -s benchmarks/bench_eval_cache.py
"""

import pickle
import time

import numpy as np

from repro.baselines import SplitMixStrategy
from repro.bench import ascii_table
from repro.data import SyntheticTaskConfig, build_federated_dataset
from repro.device import DeviceTrace
from repro.fl import Coordinator, CoordinatorConfig, FLClient, LocalTrainerConfig
from repro.nn import mlp

NUM_CLIENTS = 32
K_BASES = 4
SWEEPS = 8
TRAINER = LocalTrainerConfig(batch_size=8, local_steps=4, lr=0.2)


def _workload(seed: int = 0):
    task = SyntheticTaskConfig(
        num_classes=6,
        input_shape=(16,),
        latent_dim=8,
        teacher_width=16,
        class_sep=2.5,
        seed=seed,
    )
    ds = build_federated_dataset(task, NUM_CLIENTS, mean_samples=600, seed=seed)
    big = mlp(ds.input_shape, ds.num_classes, np.random.default_rng(seed), width=128)
    # Capacity ladder in *base-model* units => nested ensembles of every
    # size 1..k, evenly spread across the fleet (so the one busy base net
    # sits in only ~1/k of the deployment groups).
    base_macs = SplitMixStrategy(big, k=K_BASES, seed=seed)._base_macs
    clients = [
        FLClient(
            c.client_id,
            c,
            DeviceTrace(
                c.client_id,
                1e9,
                1e6,
                base_macs * (1 + K_BASES * c.client_id / NUM_CLIENTS),
            ),
        )
        for c in ds.clients
    ]
    return ds, big, clients


def _coordinator(clients, big, eval_cache: bool, seed: int = 0):
    strategy = SplitMixStrategy(big, k=K_BASES, seed=seed)
    cfg = CoordinatorConfig(
        rounds=2,
        clients_per_round=6,
        trainer=TRAINER,
        eval_every=1,
        seed=seed,
        eval_cache=eval_cache,
    )
    return Coordinator(strategy, clients, cfg), strategy


def test_eval_cache_speedup(report):
    """>= 3x faster repeated sweeps when one of k models changes per sweep."""
    ds, big, clients = _workload()
    coord_on, strat_on = _coordinator(clients, big, eval_cache=True)
    coord_off, strat_off = _coordinator(clients, big, eval_cache=False)
    # Same seed => the two strategies hold bit-identical base suites.
    base_ids = strat_on._base_ids
    assert base_ids == strat_off._base_ids

    def sweep(coord, idx):
        t0 = time.perf_counter()
        ev = coord.evaluate(idx, 0.0)
        return ev, time.perf_counter() - t0

    # Warm sweep (both sides pay full cost; the cache-on side populates).
    ev_on, _ = sweep(coord_on, 0)
    ev_off, _ = sweep(coord_off, 0)
    assert (ev_on.client_accuracy == ev_off.client_accuracy).all()

    on_times: list[float] = []
    off_times: list[float] = []
    cached = total = 0
    busy = base_ids[-1]  # the one model that keeps training; the rest idle
    for i in range(1, SWEEPS + 1):
        for strat in (strat_on, strat_off):
            m = strat._models[busy]
            m.set_params({k: v * 0.999 for k, v in m.get_params().items()})
        ev_on, dt_on = sweep(coord_on, i)
        ev_off, dt_off = sweep(coord_off, i)
        # Bit-identical accuracies, cache on vs off, every sweep.
        assert (ev_on.client_accuracy == ev_off.client_accuracy).all()
        on_times.append(dt_on)
        off_times.append(dt_off)
        cached += ev_on.cached_clients
        total += ev_on.cached_clients + ev_on.evaluated_clients
    coord_on.close()
    coord_off.close()

    on_s, off_s = sum(on_times), sum(off_times)
    # Median per-sweep times gate the speedup: a single scheduler stall or
    # GC pause in one millisecond-scale sweep must not fail CI.
    speedup = float(np.median(off_times) / np.median(on_times))
    hit_rate = cached / total
    report(
        "eval_cache",
        ascii_table(
            [
                {
                    "sweeps": SWEEPS,
                    "clients": NUM_CLIENTS,
                    "suite": K_BASES,
                    "idle_models": K_BASES - 1,
                    "cache_off_s": round(off_s, 4),
                    "cache_on_s": round(on_s, 4),
                    "speedup_x": round(speedup, 2),
                    "hit_rate_pct": round(hit_rate * 100, 1),
                }
            ],
            "incremental evaluation cache: repeated sweeps, 1 of k models training",
        ),
    )
    assert hit_rate > 0.5  # most of the fleet is served from cache
    assert speedup >= 3.0


def test_async_delta_publish_bytes(report):
    """Async + process backend ships per-step deltas, not full suites.

    The fleet is budget-1 (every client trains exactly one of k=8 base
    nets) and aggregation fires on buffer_k=2 arrivals, so each step
    touches at most 2 of the 8 models — the regime the delta publisher is
    built for: many small aggregation steps against a mostly idle suite.
    """
    ds, big, _ = _workload()
    strategy = SplitMixStrategy(big, k=8, seed=0)
    clients = [
        FLClient(
            c.client_id,
            c,
            DeviceTrace(c.client_id, 1e9, 1e6, strategy._base_macs * 1.5),
        )
        for c in ds.clients
    ]
    cfg = CoordinatorConfig(
        rounds=8,
        clients_per_round=6,
        trainer=TRAINER,
        eval_every=4,
        seed=0,
        executor="process",
        max_workers=2,
        mode="async",
        buffer_k=2,
    )
    coord = Coordinator(strategy, clients, cfg)
    coord.run()
    ex = coord.executor.publisher  # counters survive close()
    full_suite_bytes = len(
        pickle.dumps(strategy.models(), protocol=pickle.HIGHEST_PROTOCOL)
    )
    assert ex.delta_publish_count > 0
    delta_avg = ex.delta_bytes_total / ex.delta_publish_count
    report(
        "eval_cache_publish",
        ascii_table(
            [
                {
                    "publishes": ex.publish_count,
                    "reused": ex.reused_publish_count,
                    "full": ex.full_publish_count,
                    "delta": ex.delta_publish_count,
                    "full_suite_bytes": full_suite_bytes,
                    "delta_avg_bytes": int(delta_avg),
                    "delta_max_share_pct": round(
                        100 * delta_avg / full_suite_bytes, 1
                    ),
                }
            ],
            "process-backend snapshot publishing: delta vs full-suite bytes",
        ),
    )
    # Strictly fewer bytes per async publish than a full-suite snapshot.
    assert delta_avg < full_suite_bytes
