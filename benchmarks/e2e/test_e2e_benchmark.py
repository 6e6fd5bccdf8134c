"""Tier-1 self-check of the e2e benchmark harness (seconds, no timing asserts)."""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parents[1]
sys.path.insert(0, str(BENCH_DIR))

import metrics  # noqa: E402
import run as harness  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def smoke_row(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "row.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--smoke", "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return json.loads(out.read_text(encoding="utf-8"))


def test_smoke_emits_every_declared_metric(smoke_row):
    assert set(smoke_row["workloads"]) == set(harness.WORKLOAD_NAMES)
    assert smoke_row["failures"] == []
    for name, entry in smoke_row["workloads"].items():
        assert set(entry["end_to_end"]) == {m[0] for m in metrics.END_TO_END}, name
        assert set(entry["per_layer"]) == set(metrics.stage_metrics()), name
        assert entry["failed"] == 0 and entry["attempted"] > 0, name
    serial = smoke_row["workloads"]["cnn_fedavg_serial"]
    assert smoke_row["workloads"]["cnn_fedavg_process"]["digest"] == serial["digest"]


def test_benchmark_json_matches_the_registry():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(manifest) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert manifest["paths"] == ["benchmarks/e2e"]
    from workloads import WORKLOADS

    assert tuple(WORKLOADS) == harness.WORKLOAD_NAMES
    assert manifest["workloads"] == [
        {"name": w.name, "why": w.why} for w in WORKLOADS.values()
    ]
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in manifest["end_to_end"]
    ] == [m[:4] for m in metrics.END_TO_END]
    assert {
        m["name"]: (m["unit"], m["better"]) for m in manifest["per_layer"]
    } == metrics.per_layer()
    assert len(manifest["per_layer"]) <= 128
    for entry in manifest["workloads"] + manifest["end_to_end"] + manifest["per_layer"]:
        assert NAME.fullmatch(entry["name"]), entry["name"]
    for name in metrics.per_layer():
        e2e, workloads = metrics.moves(name)  # raises if no interaction row covers it
        assert set(e2e) <= {m[0] for m in metrics.END_TO_END}
        assert set(workloads) <= set(harness.WORKLOAD_NAMES)


def test_wrappers_are_removed_after_a_traced_run(tmp_path):
    from repro.fl import BufferedAsyncEngine, CheckpointWriter, LocalTrainer
    from repro.fl.scheduling import QuantilePacing

    from tracing import Tracer
    from workloads import WORKLOADS

    seams = [
        (LocalTrainer, "train"), (BufferedAsyncEngine, "step"),
        (CheckpointWriter, "write"), (QuantilePacing, "observe_arrival"),
    ]
    before = [cls.__dict__[attr] for cls, attr in seams]
    coord = WORKLOADS["fleet_async_mixed"].build(0, True, tmp_path)
    tracer = Tracer()
    tracer.instrument(coord)
    try:
        coord.run()
    finally:
        tracer.remove()
    assert [cls.__dict__[attr] for cls, attr in seams] == before
    for owner in (coord, coord.selector, coord.strategy, coord.executor,
                  coord.transport, coord.validator):
        left = [k for k, v in vars(owner).items() if getattr(v, "__name__", "") == "traced"]
        assert not left, (owner, left)
    table = tracer.stage_table(2)
    assert table["fl.checkpoint.write.calls_per_round"] > 0
    assert 0.5 < table["trace.coverage_frac"] <= 1.0


def test_timings_are_stitched_and_corrected_for_host_speed():
    import calibrate

    def run(segments):
        return {"segments": segments, "target_segments": 2, "rounds": 2}

    stitched = harness.stitched_run([run([1.0, 5.0, 2.0]), run([3.0, 1.0, 4.0])])
    assert stitched == {"round_wall_ms": 2000.0, "wall_to_target_s": 2.0}
    # Repeats that were cut differently cannot be stitched.
    assert harness.stitched_run([run([1.0, 2.0]), run([1.0, 2.0, 3.0])]) == {}
    quiet = calibrate.QUIET_UNIT_MS
    assert calibrate.host_slowdown([quiet] * 30 + [9 * quiet] * 10) == 1.0
    assert calibrate.host_slowdown([2 * quiet] * 40) == 2.0


def test_compare_judges_rows(tmp_path, capsys):
    def row(round_wall):
        e2e = {
            name: {"value": 1.0, "samples": [1.0] * 5}
            for name, *_ in metrics.END_TO_END
        }
        e2e["round_wall_ms"] = {"value": round_wall, "samples": [round_wall] * 5}
        return {"seed": 0, "workloads": {"w": {"digest": "d", "end_to_end": e2e}}}

    paths = []
    for i, value in enumerate((100.0, 103.0, 140.0, 70.0)):
        paths.append(tmp_path / f"row{i}.json")
        paths[-1].write_text(json.dumps(row(value)), encoding="utf-8")
    assert harness.compare(str(paths[0]), str(paths[1])) == 0
    assert "within" in capsys.readouterr().out
    assert harness.compare(str(paths[0]), str(paths[2])) == 1
    assert "regressed" in capsys.readouterr().out
    assert harness.compare(str(paths[0]), str(paths[3])) == 0
    assert "improved" in capsys.readouterr().out


def test_benchmarks_stay_lint_clean():
    from repro.analysis import lint_paths

    report = lint_paths([ROOT / "benchmarks"])
    assert report.ok, report.format_lines()
