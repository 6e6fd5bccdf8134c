"""One (workload, repeat) in a fresh process: build, run, check, report.

Started by ``run.py`` with the BLAS thread pins already in the
environment; prints one ``E2E_RESULT {json}`` line.  Untraced runs carry
two timestamp wrappers — around ``coord.evaluate`` (``eval_sweep_ms``,
``wall_to_target_s``) and at the entry of ``coord.executor.train_round``
(the segment boundaries ``run.stitched_run`` needs); traced runs add the
stage spans of :mod:`tracing`.  A :mod:`calibrate` burst on either side of
the run tells the parent how fast the host was at the time.
"""

from __future__ import annotations

import json
import os
import sys

RESULT_TAG = "E2E_RESULT "
BLAS_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Host-speed calibration right before and right after the run (calibrate.py).
CALIBRATION_BURST_S = 0.15


def check_blas_pinned() -> None:
    """The pins only take if they are set before NumPy loads its BLAS."""
    loose = [k for k in BLAS_PINS if os.environ.get(k) != "1"]
    if loose or "numpy" in sys.modules:
        raise SystemExit(
            f"BLAS threads not pinned (unset: {loose}; numpy preloaded: "
            f"{'numpy' in sys.modules}); refusing to measure"
        )


def emit(payload: dict) -> None:
    print(RESULT_TAG + json.dumps(payload), flush=True)


def main(spec: dict) -> None:
    check_blas_pinned()

    import hashlib
    import math
    import resource
    import shutil
    import tempfile
    import time
    from pathlib import Path

    import numpy as np

    from repro.fl import RunRegistry, load_checkpoint, log_to_dict, run_hash

    from calibrate import burst
    from tracing import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[spec["workload"]]
    out_dir = Path(spec["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="ckpt-", dir=out_dir))
    try:
        coord = workload.build(spec["seed"], spec["smoke"], scratch)
        # Wall clock, not perf_counter: the origin was read by the parent
        # just before it spawned this interpreter.
        setup_s = time.time() - spec["spawn_time"]

        sweeps: list[tuple[float, float, float]] = []  # (end, duration, accuracy)
        # Timestamps that cut the run into segments of identical work in
        # every repeat: each dispatch wave's start and each sweep's end.
        marks: list[float] = []
        evaluate = coord.evaluate
        train_round = coord.executor.train_round

        def timed_evaluate(*args, **kwargs):
            start = time.perf_counter()
            record = evaluate(*args, **kwargs)
            end = time.perf_counter()
            sweeps.append((end, end - start, record.mean_accuracy))
            marks.append(end)
            return record

        def marked_train_round(*args, **kwargs):
            marks.append(time.perf_counter())
            return train_round(*args, **kwargs)

        coord.evaluate = timed_evaluate
        coord.executor.train_round = marked_train_round
        tracer = Tracer() if spec["trace"] else None
        if tracer is not None:
            tracer.instrument(coord)
        calibration = burst(CALIBRATION_BURST_S)
        run_start = time.perf_counter()
        try:
            log = coord.run()
        finally:
            run_wall = time.perf_counter() - run_start
            if tracer is not None:
                tracer.remove()
        calibration += burst(CALIBRATION_BURST_S)
        # run() closed the executor, so pool workers are reaped and count
        # under RUSAGE_CHILDREN.
        peak_kb = max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )

        rounds = len(log.rounds)
        # A 2-round smoke run cannot learn anything; it only has to finish.
        target = 0.0 if spec["smoke"] else workload.target
        reached = [end for end, _, acc in sweeps if acc >= target]
        final_accuracy = log.evals[-1].mean_accuracy
        if log.mode == "async":
            dispatched = sum(r.scheduler.selected for r in log.rounds)
        else:
            dispatched = sum(
                len(mids) for r in log.rounds for mids in r.assignments.values()
            )
        bad_sweeps = sum(not math.isfinite(acc) for _, _, acc in sweeps)
        failures = []
        if not reached:
            failures.append(
                f"target accuracy {target} never reached "
                f"(best {max(acc for _, _, acc in sweeps):.4f})"
            )
        if not math.isfinite(final_accuracy):
            failures.append("final accuracy is not finite")
        if coord.config.checkpoint_dir is not None:
            cfg = coord.config
            run_dir = RunRegistry(cfg.checkpoint_dir).run_dir(
                coord.strategy.name, cfg, coord.clients
            )
            found = load_checkpoint(
                run_dir, run_hash(coord.strategy.name, cfg, coord.clients)
            )
            if found is None or not found["manifest"]["completed"]:
                failures.append("last checkpoint does not reload as completed")

        cached = sum(e.cached_clients for e in log.evals)
        swept = cached + sum(e.evaluated_clients for e in log.evals)
        result = {
            "workload": workload.name,
            "seed": spec["seed"],
            "traced": tracer is not None,
            "rounds": rounds,
            "env": {
                "numpy": np.__version__,
                "blas": "{name} {version}".format(
                    **np.show_config(mode="dicts")["Build Dependencies"]["blas"]
                ),
            },
            "digest": hashlib.blake2b(
                json.dumps(log_to_dict(log), sort_keys=True).encode(), digest_size=16
            ).hexdigest(),
            "failures": failures,
            "attempted": dispatched + len(sweeps) + 1,
            "failed": log.failed_updates + bad_sweeps + bool(failures),
            "sweep_accuracy": [acc for _, _, acc in sweeps],
            # Durations between consecutive marks, run start and run end
            # included; the first ``target_segments`` add up to
            # wall_to_target_s.
            "segments": [
                b - a for a, b in zip([run_start, *marks], [*marks, run_start + run_wall])
            ],
            "target_segments": marks.index(reached[0]) + 1 if reached else None,
            "calibration": calibration,
            "metrics": {
                "setup_s": setup_s,
                "round_wall_ms": run_wall / rounds * 1e3,
                "wall_to_target_s": reached[0] - run_start if reached else None,
                # Fastest sweep of the run: the first one is cold, and large
                # fresh allocations make any sweep prone to page-fault stalls.
                "eval_sweep_ms": min(d for _, d, _ in sweeps) * 1e3,
                "peak_rss_mb": peak_kb / 1024.0,
                "final_accuracy": final_accuracy,
                "train_gmacs": log.total_macs / 1e9,
                "wire_mb": (log.total_bytes_down + log.total_bytes_up) / 1e6,
            },
            # Public meters, no wrapper involved.
            "meters": {
                "fl.executor.publish_bytes_per_round": (
                    getattr(coord.executor, "bytes_published_total", 0) / rounds
                ),
                "fl.executor.publish_count": getattr(coord.executor, "publish_count", 0),
                "fl.transport.wire_ratio": (
                    log.total_raw_bytes_up / log.total_bytes_up
                ),
                "fl.coordinator.eval_cached_frac": cached / swept,
                "fl.async_engine.dropped_frac": log.dropped_updates / dispatched,
                "fl.faults.retry_count": log.retries,
            },
        }
        if tracer is not None:
            result["stages"] = tracer.stage_table(rounds)
            trace_path = out_dir / f"trace-{workload.name}-seed{spec['seed']}.json"
            with open(trace_path, "w", encoding="utf-8") as f:
                json.dump(tracer.chrome_trace(workload.name), f)
        emit(result)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
