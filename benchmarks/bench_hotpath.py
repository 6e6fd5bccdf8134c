"""Hot-path compute pass, measured: dtype speedup and allocations.

Two measurements, written together to ``BENCH_hotpath.json`` at the repo
root (the start of the repo's perf trajectory — later PRs append
comparable numbers):

* **dtype** — wall time per simulated round of the same conv workload at
  float64 (the bit-identity default) vs float32: the float32 round loop
  must be >= ``HOTPATH_MIN_SPEEDUP`` (default 1.5) times faster.
* **allocations** — transient heap bytes per steady-state training step
  (tracemalloc, which tracks NumPy buffers) with workspace pooling off vs
  on: pooling must cut allocations >= ``HOTPATH_MIN_ALLOC_RATIO``
  (default 5) times.  This is the pooled-kernel regression gate CI runs.

The backend x mode wall-time matrix that used to live here (thread and
process slower than serial, pool start inside the timed region, unpinned
BLAS) is deleted: the frozen ledger's ``fl.executor.wave_ms.*``,
``wave_overhead_ms.*`` and ``parallel_efficiency.*`` (``benchmarks/e2e``)
contradict and supersede it.

Budget knobs (CI uses small values): ``HOTPATH_ROUNDS`` (default 3),
``HOTPATH_CLIENTS`` (8), ``HOTPATH_STEPS`` (10).
"""

from __future__ import annotations

import gc
import json
import os
import time
import tracemalloc
from pathlib import Path

import numpy as np

from repro.baselines import fedavg
from repro.data import SyntheticTaskConfig, build_federated_dataset
from repro.device.traces import DeviceTrace
from repro.fl import Coordinator, CoordinatorConfig, FLClient, LocalTrainerConfig
from repro.nn import SGD, set_compute_dtype, set_workspace_pooling, small_cnn

ROUNDS = int(os.environ.get("HOTPATH_ROUNDS", "3"))
CLIENTS = int(os.environ.get("HOTPATH_CLIENTS", "8"))
LOCAL_STEPS = int(os.environ.get("HOTPATH_STEPS", "10"))
MIN_SPEEDUP = float(os.environ.get("HOTPATH_MIN_SPEEDUP", "1.5"))
MIN_ALLOC_RATIO = float(os.environ.get("HOTPATH_MIN_ALLOC_RATIO", "5"))

OUT_PATH = Path(
    os.environ.get("HOTPATH_OUT", Path(__file__).parent.parent / "BENCH_hotpath.json")
)

WORKLOAD = {
    "model": "small_cnn(width=16)",
    "input_shape": [3, 16, 16],
    "num_classes": 8,
    "clients": CLIENTS,
    "clients_per_round": 6,
    "batch_size": 32,
    "local_steps": LOCAL_STEPS,
    "rounds": ROUNDS,
}

_RESULTS: dict = {"workload": WORKLOAD}


def _run_round_loop(dtype: str) -> float:
    """Seconds per round of the serial/sync conv fedavg workload at one dtype."""
    set_compute_dtype(dtype)
    try:
        task = SyntheticTaskConfig(
            num_classes=8, input_shape=(3, 16, 16), latent_dim=8, teacher_width=16, seed=0
        )
        ds = build_federated_dataset(task, CLIENTS, mean_samples=60, seed=0)
        clients = [
            FLClient(c.client_id, c, DeviceTrace(c.client_id, 1e9, 1e6, 1e15))
            for c in ds.clients
        ]
        model = small_cnn(ds.input_shape, ds.num_classes, np.random.default_rng(0), width=16)
        cfg = CoordinatorConfig(
            rounds=ROUNDS,
            clients_per_round=6,
            trainer=LocalTrainerConfig(batch_size=32, local_steps=LOCAL_STEPS, lr=0.05),
            eval_every=ROUNDS,
            seed=0,
            compute_dtype=dtype,
        )
        coord = Coordinator(fedavg(model.clone(keep_id=True)), clients, cfg)
        start = time.perf_counter()
        log = coord.run()
        elapsed = time.perf_counter() - start
        assert log.rounds and np.isfinite(log.evals[-1].mean_accuracy)
        return elapsed / len(log.rounds)
    finally:
        set_compute_dtype("float64")


def _step_alloc_bytes(pooling: bool, steps: int = 5) -> float:
    """Transient traced bytes per steady-state training step (see tests)."""
    set_workspace_pooling(pooling)
    try:
        rng = np.random.default_rng(3)
        model = small_cnn((3, 16, 16), 8, np.random.default_rng(0), width=16)
        opt = SGD(0.05)
        x = rng.normal(size=(32, 3, 16, 16))
        y = rng.integers(0, 8, size=32)

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
        tracemalloc.start()
        try:
            for _ in range(3):
                one_step()
            gc.collect()
            samples = []
            for _ in range(steps):
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                one_step()
                samples.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        return float(np.mean(samples))
    finally:
        set_workspace_pooling(True)


def _write_results() -> None:
    with open(OUT_PATH, "w") as f:
        json.dump(_RESULTS, f, indent=1, sort_keys=True)
        f.write("\n")


def test_float32_round_loop_speedup(report):
    """float32 halves memory traffic / BLAS width: >= 1.5x faster rounds."""
    f64 = _run_round_loop("float64")
    f32 = _run_round_loop("float32")
    speedup = f64 / f32
    _RESULTS["dtype"] = {
        "float64_s_per_round": round(f64, 4),
        "float32_s_per_round": round(f32, 4),
        "speedup": round(speedup, 3),
        "min_required": MIN_SPEEDUP,
    }
    _write_results()
    report(
        "hotpath_dtype",
        f"serial/sync conv round loop\n"
        f"  float64: {f64:.3f} s/round\n"
        f"  float32: {f32:.3f} s/round\n"
        f"  speedup: {speedup:.2f}x (required >= {MIN_SPEEDUP}x)",
    )
    assert speedup >= MIN_SPEEDUP


def test_pooled_kernel_allocations(report):
    """Workspace pooling cuts steady-state step allocations >= 5x."""
    unpooled = _step_alloc_bytes(pooling=False)
    pooled = _step_alloc_bytes(pooling=True)
    ratio = unpooled / pooled
    _RESULTS["allocations"] = {
        "unpooled_step_bytes": int(unpooled),
        "pooled_step_bytes": int(pooled),
        "ratio": round(ratio, 2),
        "min_required": MIN_ALLOC_RATIO,
    }
    _write_results()
    report(
        "hotpath_allocations",
        f"steady-state training step, conv workload (tracemalloc)\n"
        f"  unpooled: {unpooled / 1e3:.0f} KB/step\n"
        f"  pooled:   {pooled / 1e3:.0f} KB/step\n"
        f"  ratio:    {ratio:.1f}x (required >= {MIN_ALLOC_RATIO}x)",
    )
    assert ratio >= MIN_ALLOC_RATIO

