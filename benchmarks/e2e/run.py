"""End-to-end + per-layer benchmark of the FedTrans reproduction.

Two ways in, one measurement path (README.md has the details):

* **Benchmark contract** (what ``BENCHMARK.json`` names)::

      python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

  measures one workload for about ``S`` seconds — as many fresh-process
  repeats as fit — and prints, as its last line, one JSON object with
  ``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
  metrics with ``--trace 0``, the per-layer ones with ``--trace 1``).

* **Ledger run** (what a PR records)::

      python benchmarks/e2e/run.py [--seed 0] [--repeats 5] [--workload NAME] [--out ROW.json]

  interleaves ``--repeats`` cold-process repeats of all four workloads,
  adds three traced runs per workload and the kernels, prints every metric
  with median/min/max/n, and appends the row to ``history.jsonl``.
  ``--compare A.json B.json`` judges two such rows; ``--smoke`` shrinks
  everything to a seconds-long self-check.

Every (workload, repeat) runs in a fresh child with BLAS threads pinned to
1, so the only parallelism is the executor under test.  Exit status is
non-zero when any output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parents[1]
sys.path.insert(0, str(BENCH_DIR))

from calibrate import host_slowdown  # noqa: E402
from child import BLAS_PINS, RESULT_TAG  # noqa: E402
from metrics import END_TO_END, KERNELS, SETUP_FLOOR_S, per_layer, stage_metrics  # noqa: E402

OUT_DIR = BENCH_DIR / "_out"
HISTORY = BENCH_DIR / "history.jsonl"
WORKLOAD_NAMES = (
    "fedtrans_mlp_sync",
    "cnn_fedavg_serial",
    "cnn_fedavg_process",
    "fleet_async_mixed",
)
# cnn_fedavg_process must reproduce this workload's trajectory digest
# (CONTRACTS.md I1: backends are bit-identical).
DIGEST_REFERENCE = {"cnn_fedavg_process": "cnn_fedavg_serial"}
CHILD_TIMEOUT_S = 90.0
# Traced repeats per workload in a ledger run (contract mode pairs every
# untraced repeat with a traced one instead).
TRACED_REPEATS = 3
E2E_UNITS = {name: unit for name, unit, *_ in END_TO_END}


def estimate(metric: str, samples: list[float]) -> float:
    """The reported value of an end-to-end metric over one seed's repeats.

    Repeats of one seed do bit-identical work (their digests are checked),
    so every difference between their timings is interference from the
    shared machine, and interference only ever adds time: a timing is
    reported as its **fastest** repeat (``round_wall_ms`` and
    ``wall_to_target_s`` go one step further, see :func:`stitched_run`).
    Everything else is a median.  README.md, "Estimator", has the data.
    """
    if E2E_UNITS[metric] in ("ms", "s"):
        return min(samples)
    return statistics.median(samples)


def stitched_run(runs: list[dict]) -> dict[str, float]:
    """``round_wall_ms`` and ``wall_to_target_s`` of the segment-wise fastest run.

    Every child cuts its run at the same points (each dispatch wave's start,
    each sweep's end), so segment ``i`` is the same work in every repeat.
    Taking each segment from the repeat that ran it fastest asks for one
    undisturbed stretch per segment instead of one undisturbed whole run,
    which the shared host grants far more often.
    """
    done = [run for run in runs if run.get("target_segments")]
    if not done or len({len(run["segments"]) for run in done}) != 1:
        return {}
    fastest = [min(column) for column in zip(*(run["segments"] for run in done))]
    return {
        "round_wall_ms": sum(fastest) / done[0]["rounds"] * 1e3,
        "wall_to_target_s": sum(fastest[: done[0]["target_segments"]]),
    }


# ----------------------------------------------------------------------
# child processes
# ----------------------------------------------------------------------
def spawn(script: str, spec: dict) -> dict:
    """Run one benchmark script in a fresh interpreter; never raises.

    A child that times out, dies or prints no result comes back as
    ``{"failures": [reason]}`` — a failed operation, not a hang: the whole
    process group is killed so no pool worker outlives it.
    """
    env = dict(os.environ, **dict.fromkeys(BLAS_PINS, "1"))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    spec = dict(spec, out_dir=str(OUT_DIR), spawn_time=time.time())
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / script), json.dumps(spec)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"failures": [f"{script} timed out after {CHILD_TIMEOUT_S:.0f} s"]}
    lines = [ln for ln in stdout.splitlines() if ln.startswith(RESULT_TAG)]
    if proc.returncode != 0 or not lines:
        tail = " | ".join(stderr.strip().splitlines()[-3:])
        return {"failures": [f"{script} exited {proc.returncode}: {tail}"]}
    return json.loads(lines[-1][len(RESULT_TAG):])


def run_child(workload: str, seed: int, trace: bool, smoke: bool) -> dict:
    spec = {"workload": workload, "seed": seed, "trace": trace, "smoke": smoke}
    started = time.perf_counter()
    result = spawn("child.py", spec)
    result["child_wall_s"] = time.perf_counter() - started
    return result


# ----------------------------------------------------------------------
# aggregation and checks
# ----------------------------------------------------------------------
def e2e_samples(runs: list[dict]) -> dict[str, list[float]]:
    """Per-repeat samples of every end-to-end metric (completed runs only)."""
    samples: dict[str, list[float]] = {name: [] for name in E2E_UNITS}
    for run in runs:
        if "metrics" not in run:
            continue
        for name, value in run["metrics"].items():
            if value is not None:
                samples[name].append(value)
    return samples


def check_runs(
    workload: str, runs: list[dict], reference_digest: str | None = None
) -> list[str]:
    """Output checks over one workload's repeats; returns failure messages."""
    failures = [f"{workload}: {msg}" for run in runs for msg in run["failures"]]
    digests = {run["digest"] for run in runs if "digest" in run}
    if len(digests) > 1:
        failures.append(f"{workload}: trajectory digest differs between repeats")
    if reference_digest is not None and digests and digests != {reference_digest}:
        failures.append(
            f"{workload}: trajectory digest differs from "
            f"{DIGEST_REFERENCE[workload]}'s (backends must be bit-identical)"
        )
    return failures


def layer_metrics(untraced: list[dict], traced: list[dict]) -> dict[str, float]:
    """Stage spans + meters of the traced runs (median over them)."""
    done = [run for run in traced if "stages" in run]
    if not done:
        return {}
    out = {
        name: statistics.median(run["stages"][name] for run in done)
        for name in done[0]["stages"]
    }
    for name in done[0]["meters"]:
        out[name] = statistics.median(run["meters"][name] for run in done)
    plain, with_spans = stitched_run(untraced), stitched_run(done)
    if plain and with_spans:
        out["trace.overhead_frac"] = (
            with_spans["round_wall_ms"] / plain["round_wall_ms"] - 1.0
        )
    return out


def operations(runs: list[dict]) -> tuple[int, int]:
    """(attempted, failed) over a list of child results."""
    attempted = sum(run.get("attempted", 1) for run in runs)
    failed = sum(run.get("failed", 1) for run in runs)
    return attempted, failed


def _stats(metric: str, samples: list[float]) -> dict:
    return {
        "value": estimate(metric, samples),
        "median": statistics.median(samples),
        "min": min(samples),
        "max": max(samples),
        "n": len(samples),
        "samples": samples,
    }


def workload_entry(
    name: str, plain: list[dict], traced: list[dict], reference_digest: str | None
) -> tuple[dict, list[str]]:
    """One workload's ledger entry plus the checks it failed."""
    runs = plain + traced
    failures = check_runs(name, runs, reference_digest)
    end_to_end = {
        metric: _stats(metric, vals)
        for metric, vals in e2e_samples(plain).items()
        if vals
    }
    for metric, value in stitched_run(plain).items():
        end_to_end[metric]["value"] = value
    # Timings are reported as if the host had run at its quiet speed
    # (calibrate.py); the samples stay as measured.
    units = [u for run in plain for u in run.get("calibration", ())]
    slowdown = host_slowdown(units) if units else 1.0
    for metric, stats in end_to_end.items():
        if E2E_UNITS[metric] in ("ms", "s"):
            stats["value"] /= slowdown
    layers = layer_metrics(plain, traced)
    expected = set(stage_metrics()) if traced else set()
    missing = sorted((set(E2E_UNITS) - set(end_to_end)) | (expected - set(layers)))
    if missing:
        failures.append(f"{name}: metrics not measured: {missing}")
    attempted, failed = operations(runs)
    entry = {
        "attempted": attempted,
        "failed": failed,
        "host_slowdown": slowdown,
        "digest": next((r["digest"] for r in runs if "digest" in r), None),
        "end_to_end": end_to_end,
        "per_layer": layers,
    }
    return entry, failures


# ----------------------------------------------------------------------
# benchmark-contract mode: one workload, time-boxed, one JSON line
# ----------------------------------------------------------------------
def contract_run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    started = time.perf_counter()
    plain: list[dict] = []
    traced: list[dict] = []
    kernels = spawn("kernels.py", {"seed": seed}) if trace else {}
    # One untimed run of the digest reference, when the workload has one.
    reference = DIGEST_REFERENCE.get(workload)
    extra = [run_child(reference, seed, False, False)] if reference else []
    # Repeat while another round of children still fits the time box.
    per_round = 2 if trace else 1
    while True:
        plain.append(run_child(workload, seed, False, False))
        if trace:
            traced.append(run_child(workload, seed, True, False))
        longest = max(run["child_wall_s"] for run in plain + traced)
        if time.perf_counter() - started + per_round * longest > seconds:
            break
    entry, failures = workload_entry(
        workload, plain, traced, extra[0].get("digest") if extra else None
    )
    failures += kernels.get("failures", [])
    failures += [f"{reference}: {msg}" for run in extra for msg in run["failures"]]
    extra_attempted, extra_failed = operations(extra)

    if trace:
        values = {**entry["per_layer"], **kernels.get("kernels", {})}
        units = {name: unit for name, (unit, _) in per_layer().items()}
    else:
        values = {name: st["value"] for name, st in entry["end_to_end"].items()}
        units = E2E_UNITS
        for name, st in entry["end_to_end"].items():
            print(f"{name} repeats: {st['samples']}", file=sys.stderr)
        print(f"host_slowdown: {entry['host_slowdown']}", file=sys.stderr)
    for msg in failures:
        print(f"FAILED CHECK {msg}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": entry["attempted"] + extra_attempted,
                "failed": entry["failed"] + extra_failed,
                "metrics": {
                    name: {"value": values[name], "unit": units[name]}
                    for name in units
                    if name in values
                },
            }
        )
    )
    return 1 if failures else 0


# ----------------------------------------------------------------------
# ledger mode: all workloads, interleaved repeats, history row
# ----------------------------------------------------------------------
def _git(*args: str) -> str | None:
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def ledger_run(args) -> int:
    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    repeats = 1 if args.smoke else args.repeats
    plain: dict[str, list[dict]] = {name: [] for name in names}
    # Round-robin (A B C D A B C D ...) so machine drift spreads over all
    # workloads instead of landing on one.
    for _ in range(repeats):
        for name in names:
            plain[name].append(run_child(name, args.seed, False, args.smoke))
    traced: dict[str, list[dict]] = {name: [] for name in names}
    for _ in range(1 if args.smoke else min(TRACED_REPEATS, repeats)):
        for name in names:
            traced[name].append(run_child(name, args.seed, True, args.smoke))
    kernels = {} if args.smoke else spawn("kernels.py", {"seed": args.seed})

    failures = list(kernels.get("failures", []))
    row_workloads = {}
    for name in names:
        reference = plain.get(DIGEST_REFERENCE.get(name), [{}])[0]
        entry, failed_checks = workload_entry(
            name, plain[name], traced[name], reference.get("digest")
        )
        entry["trace_file"] = (
            f"{OUT_DIR.relative_to(ROOT)}/trace-{name}-seed{args.seed}.json"
        )
        row_workloads[name] = entry
        failures += failed_checks

    env = next(
        (r["env"] for runs in plain.values() for r in runs if "env" in r), {}
    )
    row = {
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": bool(_git("status", "--porcelain", "--", "src", "benchmarks/e2e")),
        "seed": args.seed,
        "repeats": repeats,
        "smoke": args.smoke,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **env,
        "workloads": row_workloads,
        "kernels": kernels.get("kernels", {}),
        "failures": failures,
    }
    print_row(row)
    if args.out:
        Path(args.out).write_text(json.dumps(row, indent=1) + "\n", encoding="utf-8")
    if not args.smoke:
        with open(HISTORY, "a", encoding="utf-8") as f:
            f.write(json.dumps(row) + "\n")
    for msg in failures:
        print(f"FAILED CHECK {msg}")
    return 1 if failures else 0


def print_row(row: dict) -> None:
    layer_units = {name: unit for name, (unit, _) in per_layer().items()}
    print(
        f"seed {row['seed']}  repeats {row['repeats']}  nproc {row['nproc']}  "
        f"python {row['python']}  numpy {row.get('numpy')}  blas {row.get('blas')}  "
        f"git {row['git_sha']}{' (dirty)' if row['git_dirty'] else ''}"
    )
    for name, entry in row["workloads"].items():
        print(
            f"\n== {name}: {entry['attempted']} operations attempted, "
            f"{entry['failed']} failed; digest {entry['digest']}"
        )
        for metric, st in entry["end_to_end"].items():
            print(
                f"  {metric:<44s} {st['value']:>14.6g} {E2E_UNITS[metric]:<6s}"
                f" median {st['median']:.6g}  min {st['min']:.6g}  max {st['max']:.6g}"
                f"  n {st['n']}"
            )
        print("  -- traced runs (self time per round; pool workers are not visible)")
        for metric, value in entry["per_layer"].items():
            print(f"  {metric:<44s} {value:>14.6g} {layer_units[metric]}")
    if row["kernels"]:
        print("\n== kernels (median of <=30 calls after warm-up)")
        for metric, value in row["kernels"].items():
            print(f"  {metric:<44s} {value:>14.6g} {KERNELS[metric][0]}")


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------
def _spread(samples: list[float]) -> float:
    """Interquartile range as a share of the median (0 below 4 samples)."""
    if len(samples) < 4:
        return (max(samples) - min(samples)) / statistics.median(samples)
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / statistics.median(samples)


def compare(path_a: str, path_b: str) -> int:
    """Judge row B against row A, per workload x end-to-end metric.

    ``improved``: every B sample beats every A sample.  ``regressed``: B's
    value is worse than A's by more than the bound.  ``unresolved``: A's
    own run-to-run spread is wider than the bound, so "no change" cannot
    be told from a regression (choosing-metrics guide, 6.5).  ``within``
    otherwise.
    """
    row_a = json.loads(Path(path_a).read_text(encoding="utf-8"))
    row_b = json.loads(Path(path_b).read_text(encoding="utf-8"))
    same_seed = row_a["seed"] == row_b["seed"]
    regressed = False
    print(f"{'workload':<20s} {'metric':<18s} {'A':>12s} {'B':>12s} {'delta':>8s} {'bound':>7s}  verdict")
    for name in row_a["workloads"]:
        if name not in row_b["workloads"]:
            continue
        e2e_a = row_a["workloads"][name]["end_to_end"]
        e2e_b = row_b["workloads"][name]["end_to_end"]
        for metric, _, better, bound, exact in END_TO_END:
            if metric not in e2e_a or metric not in e2e_b:
                continue
            a, b = e2e_a[metric], e2e_b[metric]
            sign = 1.0 if better == "lower" else -1.0
            worse = sign * (b["value"] - a["value"]) / a["value"]
            if exact and same_seed:
                bound = 0.0
            elif metric == "setup_s":
                bound = max(bound, SETUP_FLOOR_S / a["value"])
            if all(sign * (y - x) < 0 for x in a["samples"] for y in b["samples"]):
                verdict = "improved"
            elif worse > bound:
                verdict = "regressed"
                regressed = True
            elif _spread(a["samples"]) > bound:
                verdict = "unresolved"
            else:
                verdict = "within"
            print(
                f"{name:<20s} {metric:<18s} {a['value']:>12.6g} {b['value']:>12.6g} "
                f"{worse:>+8.1%} {bound:>7.0%}  {verdict}"
            )
        if row_a["workloads"][name]["digest"] != row_b["workloads"][name]["digest"] and same_seed:
            print(f"{name:<20s} trajectory digest differs between the rows")
    return 1 if regressed else 0


# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="benchmark-contract mode: time box")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="contract mode: 1 prints the per-layer metrics")
    parser.add_argument("--repeats", type=int, default=5, help="ledger mode: repeats per workload")
    parser.add_argument("--out", help="ledger mode: also write the row to this JSON file")
    parser.add_argument("--smoke", action="store_true",
                        help="2 rounds, 1 repeat, no kernels, no history row")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: {ROOT / 'src' / 'repro'} not found; the benchmark measures "
              "the repository it sits in", file=sys.stderr)
        return 2
    if not args.smoke and len(os.sched_getaffinity(0)) < 2:
        print("error: fewer than 2 CPUs available; cnn_fedavg_process would "
              "measure nothing, refusing to record", file=sys.stderr)
        return 2
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    if args.seconds is not None:
        if not args.workload:
            parser.error("--seconds needs --workload")
        return contract_run(args.workload, args.seed, args.seconds, bool(args.trace))
    return ledger_run(args)


if __name__ == "__main__":
    sys.exit(main())
