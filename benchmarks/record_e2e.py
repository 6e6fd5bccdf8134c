"""Append one parent-vs-change reading to the root ``BENCH_e2e.json``.

    python benchmarks/record_e2e.py --parent /path/to/parent/checkout \\
        --label "PR 22" --seeds 401 402 ... [--workloads NAME ...] [--seconds 34]

For every workload and seed this runs the **unmodified** frozen harness of
each tree in benchmark-contract mode (``benchmarks/e2e/run.py --workload W
--seed N --seconds S --trace 0``), parent and change back to back,
alternating which side goes first, and appends one row: both SHAs, the
seeds, and per workload x end-to-end metric the parent -> change medians
with quartiles and how many pairs the change won (ties count for neither;
"better" is read from ``BENCHMARK.json``).  The row is the PR's reading
(ROADMAP item 2d); a gain may be claimed from it by the rule in the
choosing-metrics guide, section 8.  Nothing under ``benchmarks/e2e/`` is
imported or touched.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LEDGER = ROOT / "BENCH_e2e.json"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
LOWER_IS_BETTER = {m["name"]: m["better"] == "lower" for m in SPEC["end_to_end"]}


def contract_run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(tree / "benchmarks/e2e/run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True, check=False).stdout
    return json.loads(out.strip().splitlines()[-1])


def sha(tree: Path) -> str:
    def git(*args):
        return subprocess.run(["git", "-C", str(tree), *args], capture_output=True, text=True).stdout.strip()
    return git("rev-parse", "HEAD") + ("+worktree" if git("status", "--porcelain", "--", "src") else "")


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    args = parser.parse_args()
    trees = {"parent": args.parent.resolve(), "change": ROOT}
    row = {"label": args.label, **{side: sha(tree) for side, tree in trees.items()},
           "seeds": args.seeds, "seconds": args.seconds, "backfilled": False, "workloads": {}}
    for workload in args.workloads:
        runs = {"parent": [], "change": []}
        for i, seed in enumerate(args.seeds):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                runs[side].append(contract_run(trees[side], workload, seed, args.seconds))
                print(workload, seed, side, json.dumps(runs[side][-1]), flush=True)
        entry = row["workloads"][workload] = {
            side: {key: sum(run[key] for run in runs[side]) for key in ("attempted", "failed")}
            | {"all_correct": all(run["correct"] for run in runs[side])}
            for side in runs
        }
        for metric, lower in LOWER_IS_BETTER.items():
            pairs = [(p["metrics"][metric]["value"], c["metrics"][metric]["value"])
                     for p, c in zip(runs["parent"], runs["change"])]
            entry[metric] = {
                "parent": summary([p for p, _ in pairs]),
                "change": summary([c for _, c in pairs]),
                "pairs": len(pairs),
                "pairs_won": sum((c < p) if lower else (c > p) for p, c in pairs),
                "pairs_lost": sum((c > p) if lower else (c < p) for p, c in pairs),
            }
    rows = json.loads(LEDGER.read_text(encoding="utf-8")) if LEDGER.exists() else []
    LEDGER.write_text(json.dumps(rows + [row], indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
