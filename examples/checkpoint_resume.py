"""Kill a training run mid-flight and resume it bit-identically.

Run:  python examples/checkpoint_resume.py

Durable runs are the point of the checkpoint subsystem: with
``checkpoint_dir`` set, the coordinator periodically writes its *entire*
run state — model suite (architecture, lineage, weights), optimizer and
aggregator state, scheduling policies, RNG position, codec residuals — as a
crash-consistent checkpoint (temp file + fsync + atomic rename, manifest
pointer moved only after the payload is durable).  ``resume=True`` picks
the run back up from the last good checkpoint, and the contract is
bit-identity: the resumed run's final export equals the uninterrupted
run's, byte for byte.

This example proves it the hard way.  It runs the same FedTrans workload
three times in child processes:

1. uninterrupted, as the reference;
2. checkpointed, with ``REPRO_CKPT_CRASH_POINT=after-manifest`` — the
   checkpoint writer's crash-injection hook — so the process SIGKILLs
   itself the instant its first checkpoint lands (a real ``kill -9``,
   not an exception);
3. with ``resume=True``, which finds the last good checkpoint in the
   config-hashed run directory and finishes the job.

It then byte-compares the resumed run's exported log with the reference.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.core import FedTransConfig, FedTransStrategy
from repro.data import cifar10_like
from repro.device import calibrate_capacities, sample_device_traces
from repro.fl import (
    Coordinator,
    CoordinatorConfig,
    FLClient,
    LocalTrainerConfig,
    load_checkpoint,
    save_log,
)
from repro.nn import mlp


def build_coordinator(checkpoint_dir: str | None, resume: bool) -> Coordinator:
    """The workload — identical in every child (same seed, same fleet)."""
    dataset = cifar10_like(scale=0.25, seed=4, image=False)
    rng = np.random.default_rng(4)
    initial = mlp(dataset.input_shape, dataset.num_classes, rng, width=16)
    traces = calibrate_capacities(
        sample_device_traces(dataset.num_clients, rng),
        initial.macs(),
        initial.macs() * 16,
    )
    clients = [FLClient(c.client_id, c, t) for c, t in zip(dataset.clients, traces)]
    strategy = FedTransStrategy(
        initial,
        FedTransConfig(gamma=2, delta=3, beta=0.05, max_models=4),
        max_capacity_macs=max(t.capacity_macs for t in traces),
    )
    extra = (
        dict(checkpoint_every=5, checkpoint_dir=checkpoint_dir, resume=resume)
        if checkpoint_dir
        else {}
    )
    return Coordinator(
        strategy,
        clients,
        CoordinatorConfig(
            rounds=20,
            clients_per_round=8,
            trainer=LocalTrainerConfig(batch_size=10, local_steps=5, lr=0.15),
            eval_every=5,
            seed=4,
            **extra,
        ),
    )


def worker(checkpoint_dir: str, out_path: str) -> None:
    """Child-process entry: run (or resume) the workload, export the log."""
    coord = build_coordinator(checkpoint_dir or None, resume=bool(checkpoint_dir))
    log = coord.run()
    save_log(log, Path(out_path))


def run_child(checkpoint_dir: str, out_path: str, crash_point: str | None = None):
    env = dict(os.environ)
    env.pop("REPRO_CKPT_CRASH_POINT", None)
    if crash_point:
        env["REPRO_CKPT_CRASH_POINT"] = crash_point
    return subprocess.run(
        [sys.executable, __file__, "--worker", checkpoint_dir, out_path],
        env=env,
        timeout=1800,
    )


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        run_root = out / "runs"

        print("[1/3] reference run (uninterrupted)...")
        proc = run_child("", str(out / "ref.json"))
        assert proc.returncode == 0

        print("[2/3] checkpointed run, SIGKILLed at its first checkpoint...")
        proc = run_child(str(run_root), str(out / "crashed.json"),
                         crash_point="after-manifest")
        assert proc.returncode == -9, "expected the child to SIGKILL itself"
        (run_dir,) = [p for p in run_root.iterdir() if p.is_dir()]
        found = load_checkpoint(run_dir)
        print(f"      killed; last good checkpoint: round {found['manifest']['round']}"
              f" in {run_dir.name}/ (completed={found['manifest']['completed']})")

        print("[3/3] resuming from the last good checkpoint...")
        proc = run_child(str(run_root), str(out / "resumed.json"))
        assert proc.returncode == 0

        ref = (out / "ref.json").read_bytes()
        resumed = (out / "resumed.json").read_bytes()
        identical = ref == resumed
        print(f"\nfinal exports byte-identical: {identical} "
              f"({len(ref)} bytes each)")
        if not identical:
            raise SystemExit("resume diverged from the uninterrupted run")

        final = json.loads(resumed)
        print(f"resumed run: {len(final['rounds'])} rounds, "
              f"{final['evals'][-1]['mean_accuracy']:.3f} final mean accuracy, "
              f"{final['rounds'][-1]['num_models']} models in the suite")


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--worker":
        worker(sys.argv[2], sys.argv[3])
    else:
        main()
