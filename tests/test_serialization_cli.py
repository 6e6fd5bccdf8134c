"""Checkpointing, log export, and the CLI."""

import json
import re
from dataclasses import fields, replace

import numpy as np
import pytest

from repro import cli
from repro.bench import active_profile
from repro.bench.workloads import coordinator_config
from repro.cli import main as cli_main
from repro.fl import CoordinatorConfig
from repro.fl.export import load_log, log_to_dict, save_log
from repro.nn import mlp, set_compute_dtype, small_cnn, small_resnet, vit_tiny
from repro.nn.serialization import load_model, model_from_spec, model_spec, save_model


class TestModelCheckpoints:
    @pytest.mark.parametrize(
        "maker,shape",
        [
            (lambda r: mlp((6,), 4, r, width=8), (6,)),
            (lambda r: small_cnn((1, 8, 8), 4, r, width=4), (1, 8, 8)),
            (lambda r: small_resnet((1, 8, 8), 4, r, width=4), (1, 8, 8)),
            (
                lambda r: vit_tiny((1, 8, 8), 4, r, dim=8, heads=2, mlp_hidden=12, patch=4),
                (1, 8, 8),
            ),
        ],
    )
    def test_roundtrip_preserves_predictions(self, maker, shape, rng, tmp_path):
        m = maker(rng)
        x = rng.normal(size=(4,) + shape)
        path = tmp_path / "model.npz"
        save_model(m, path)
        loaded = load_model(path)
        assert np.allclose(m.predict(x), loaded.predict(x), atol=1e-12)
        assert loaded.model_id == m.model_id
        assert loaded.macs() == m.macs()

    def test_roundtrip_transformed_model(self, rng, tmp_path):
        """Widened widths, inserted cells, and lineage metadata survive."""
        m = mlp((6,), 4, rng, width=8)
        cell = m.transformable_cells()[0]
        m.widen_cell(cell.cell_id, 2.0, rng, round_idx=5)
        m.deepen_after(cell.cell_id, rng, round_idx=9)
        path = tmp_path / "grown.npz"
        save_model(m, path)
        loaded = load_model(path)
        x = rng.normal(size=(4, 6))
        assert np.allclose(m.predict(x), loaded.predict(x), atol=1e-12)
        assert [c.cell_id for c in loaded.cells] == [c.cell_id for c in m.cells]
        assert loaded.get_cell(cell.cell_id).widen_count == 1
        assert loaded.get_cell(cell.cell_id).last_op == "deepen"
        assert [h.op for h in loaded.history] == ["widen", "deepen"]

    def test_bn_state_restored(self, rng, tmp_path):
        m = small_cnn((1, 8, 8), 4, rng, width=4)
        m.forward(rng.normal(size=(8, 1, 8, 8)), train=True)  # move running stats
        path = tmp_path / "bn.npz"
        save_model(m, path)
        loaded = load_model(path)
        for k, v in m.state().items():
            assert np.allclose(loaded.state()[k], v)

    def test_spec_roundtrip_without_weights(self, rng):
        m = small_resnet((1, 8, 8), 4, rng, width=4)
        rebuilt = model_from_spec(model_spec(m))
        assert rebuilt.macs() == m.macs()
        assert rebuilt.num_params() == m.num_params()

    def test_bad_format_rejected(self, rng):
        m = mlp((6,), 4, rng, width=8)
        spec = model_spec(m)
        spec["format"] = 99
        with pytest.raises(ValueError, match="unsupported"):
            model_from_spec(spec)

    # A cell spec arrives from checkpoint payloads and RSNP snapshot
    # headers; its keys are checked against the class's declared record
    # before any of them can become a constructor keyword.
    def test_unknown_cell_type_rejected(self, rng):
        spec = model_spec(mlp((6,), 4, rng, width=8))
        spec["cells"][1]["type"] = "MysteryCell"
        with pytest.raises(TypeError, match="unknown cell type 'MysteryCell'"):
            model_from_spec(spec)
        del spec["cells"][1]["type"]
        with pytest.raises(TypeError, match="unknown cell type None"):
            model_from_spec(spec)

    @pytest.mark.parametrize(
        "maker, shape, index, key",
        [
            (mlp, (6,), 0, "out_features"),
            (mlp, (6,), -1, "num_classes"),
            (small_cnn, (1, 8, 8), 0, "pool"),
            (small_resnet, (1, 8, 8), 1, "hidden"),
            (vit_tiny, (1, 8, 8), 0, "patch"),
            (vit_tiny, (1, 8, 8), 1, "heads"),
            (mlp, (6,), 1, "widen_count"),
            (mlp, (6,), 1, "cell_id"),
        ],
    )
    def test_missing_spec_key_names_cell_type_and_key(self, maker, shape, index, key, rng):
        spec = model_spec(maker(shape, 4, rng))
        cell = spec["cells"][index]
        del cell[key]
        with pytest.raises(ValueError, match=rf"{cell['type']} spec: missing keys \['{key}'\]"):
            model_from_spec(spec)

    @pytest.mark.parametrize("key", ["origin_", "rng", "bias", "hidden"])
    def test_extra_spec_key_never_reaches_a_constructor(self, key, rng, monkeypatch):
        from repro.nn.cells import DenseCell

        def boom(self, *args, **kwargs):
            raise AssertionError("constructor ran on an unvalidated spec")

        spec = model_spec(mlp((6,), 4, rng, width=8))
        spec["cells"][0][key] = 3
        monkeypatch.setattr(DenseCell, "__init__", boom)
        with pytest.raises(ValueError, match=rf"DenseCell spec: .*unexpected keys \['{key}'\]"):
            model_from_spec(spec)


class TestLogExport:
    def _tiny_log(self):
        from repro.bench import active_profile, build_dataset, run_method

        profile = active_profile("femnist_like").with_(rounds=8, eval_every=4, scale=0.004)
        ds = build_dataset(profile, seed=0)
        return run_method("fedtrans", ds, profile, seed=0).log

    def test_dict_fields(self):
        log = self._tiny_log()
        d = log_to_dict(log)
        assert d["strategy"] == "fedtrans"
        assert len(d["rounds"]) == len(log.rounds)
        assert len(d["evals"]) == len(log.evals)
        assert d["summary"]["method"] == "fedtrans"
        json.dumps(d)  # fully serializable

    def test_save_load_roundtrip(self, tmp_path):
        log = self._tiny_log()
        path = tmp_path / "log.json"
        save_log(log, path)
        loaded = load_log(path)
        assert loaded["totals"]["macs"] == log.total_macs

    def test_bad_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": 2}')
        with pytest.raises(ValueError, match="unsupported"):
            load_log(path)


class TestCLI:
    def test_profiles_command(self, capsys):
        assert cli_main(["profiles"]) == 0
        out = capsys.readouterr().out
        assert "femnist_like" in out
        assert "tiny" in out

    def test_run_command(self, capsys, tmp_path):
        rc = cli_main(
            [
                "run",
                "--dataset", "femnist_like",
                "--method", "fedavg",
                "--rounds", "4",
                "--seed", "1",
                "--save-log", str(tmp_path / "log.json"),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "fedavg" in out
        assert (tmp_path / "log.json").exists()

    def test_run_fedtrans_with_checkpoints(self, capsys, tmp_path):
        rc = cli_main(
            [
                "run",
                "--method", "fedtrans",
                "--rounds", "6",
                "--save-models", str(tmp_path / "models"),
            ]
        )
        assert rc == 0
        saved = list((tmp_path / "models").glob("*.npz"))
        assert saved
        loaded = load_model(saved[0])
        assert loaded.macs() > 0

    def test_unknown_method_rejected(self):
        with pytest.raises(SystemExit):
            cli_main(["run", "--method", "nope"])


# ----------------------------------------------------------------------
# flag table -> CoordinatorConfig: real argv through the real parser
# ----------------------------------------------------------------------
class _Stop(Exception):
    """Raised by the stubs below where the CLI would start expensive work."""


def _stop(*args, **kwargs):
    raise _Stop


def _overrides(monkeypatch, argv):
    """The overrides ``main(argv)`` hands to ``coordinator_config``."""
    seen = []

    def spy(profile, seed, **over):
        seen.append(over)
        raise _Stop

    monkeypatch.setattr(cli, "coordinator_config", spy)
    with pytest.raises(_Stop):
        cli_main(argv)
    return seen[0]


def _built_config(monkeypatch, argv):
    """The config ``main(argv)`` builds before it touches the dataset."""
    built = []

    def spy(*args, **kwargs):
        built.append(coordinator_config(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(cli, "coordinator_config", spy)
    monkeypatch.setattr(cli, "build_dataset", _stop)
    with pytest.raises(_Stop):
        cli_main(argv)
    (config,) = built
    return config


def _sample(flag):
    """(argv tail, parsed value) for one table row."""
    kwargs = flag.kwargs
    if "action" in kwargs:
        return [], kwargs["action"] == "store_true"
    if "choices" in kwargs:
        return [kwargs["choices"][-1]], kwargs["choices"][-1]
    return ["3"], kwargs.get("type", str)("3")


# Every `python -m repro` line of .github/workflows/ci.yml ($ex expanded to
# one backend), with the fields of the CoordinatorConfig the *parent* of the
# flag-table refactor (cc0a666) built from it that differ from the bare
# profile config.  Computed there; not to be regenerated from this tree.
CI_SMOKES = [
    ("--rounds 4 --executor serial", {"rounds": 4}),
    ("--rounds 4 --executor thread", {"rounds": 4, "executor": "thread"}),
    ("--rounds 4 --executor process", {"rounds": 4, "executor": "process"}),
    ("--rounds 4 --sanitize --mode async --buffer-k 4",
     {"rounds": 4, "sanitize": True, "mode": "async", "buffer_k": 4}),
    ("--mode async --buffer-k 4 --deadline 120 --rounds 6",
     {"rounds": 6, "mode": "async", "buffer_k": 4, "deadline_s": 120.0}),
    ("--rounds 6 --save-log /tmp/sync.json", {"rounds": 6}),
    ("--rounds 6 --mode async --buffer-k 4 --save-log /tmp/async.json",
     {"rounds": 6, "mode": "async", "buffer_k": 4}),
    ("--mode async --buffer-k 4 --straggler downsize --pacing quantile --rounds 6",
     {"rounds": 6, "mode": "async", "buffer_k": 4, "pacing": "quantile",
      "straggler": "downsize"}),
    ("--selector oort --evict-after 10 --rounds 4",
     {"rounds": 4, "selector": "oort", "evict_after": 10}),
    ("--selector oort --evict-after 5 --mode async --buffer-k 4 --rounds 6",
     {"rounds": 6, "mode": "async", "buffer_k": 4, "selector": "oort",
      "evict_after": 5}),
    ("--selector availability"
     " --availability-trace diurnal:base=0.7,amplitude=0.3,period=8 --rounds 6",
     {"rounds": 6, "selector": "availability",
      "availability_trace": "diurnal:base=0.7,amplitude=0.3,period=8"}),
    ("--dtype float32 --rounds 4", {"rounds": 4, "compute_dtype": "float32"}),
    ("--rounds 4 --checkpoint-dir /tmp/ci-runs --checkpoint-every 2",
     {"rounds": 4, "checkpoint_every": 2, "checkpoint_dir": "/tmp/ci-runs"}),
    ("--rounds 4 --checkpoint-dir /tmp/ci-runs --resume",
     {"rounds": 4, "checkpoint_dir": "/tmp/ci-runs", "resume": True}),
    ("--rounds 6 --executor process --faults crash=0.3,shm=0.3"
     " --save-log /tmp/chaos.json --save-recovery /tmp/rec.json",
     {"rounds": 6, "executor": "process", "faults": "crash=0.3,shm=0.3"}),
    ("--rounds 6 --quarantine --save-log /tmp/qclean.json",
     {"rounds": 6, "quarantine": True}),
    ("--rounds 6 --executor thread --faults poison=0.3 --quarantine"
     " --save-log /tmp/poison.json --save-recovery /tmp/prec.json",
     {"rounds": 6, "executor": "thread", "faults": "poison=0.3", "quarantine": True}),
    ("--rounds 6 --mode async --buffer-k 4 --faults crash=0.2,exc=0.2 --retries 2"
     " --save-recovery /tmp/async-rec.json",
     {"rounds": 6, "mode": "async", "buffer_k": 4, "faults": "crash=0.2,exc=0.2",
      "retries": 2}),
    ("--rounds 6 --compress update:rle,snapshot:rle --executor process"
     " --save-log /tmp/rle.json --save-transport /tmp/rle-wire.json",
     {"rounds": 6, "executor": "process", "compress": "update:rle,snapshot:rle"}),
]

# (argv, what the one-line usage error must name).  The first block is every
# misuse the parent's hand-written mapping rejected; the second the spec and
# range errors that used to surface as a traceback after the fleet was built.
MISUSES = [
    # The sweep has one path: the flag that chose another is gone.
    ("run --no-eval-cache", "unrecognized arguments: --no-eval-cache"),
    ("--wire-time", "wire_time"),
    ("--buffer-k 4", "buffer_k"),
    ("--pacing quantile", "pacing"),
    ("--availability-trace bernoulli:0.5", "availability_trace"),
    ("--checkpoint-every 2", "checkpoint_every"),
    ("--resume", "resume"),
    ("--workers 2", "--workers"),
    ("--quarantine-norm-mult 4", "--quarantine-norm-mult"),
    ("--staleness-discount 0.9", "--staleness-discount"),
    ("--faults bogus=1", "--faults"),
    ("--retries 0", "retries"),
    ("--compress uplink:rle", "compress"),
    ("--selector availability --availability-trace trace:/missing.json",
     "availability trace '/missing.json'"),
    ("--executor thread --workers 0", "max_workers"),
    ("suite --faults bogus=1", "--faults"),
    # `suite` used to accept these three and write nothing.
    ("suite --rounds 2 --save-log L --save-recovery R", "--save-log is a `run` flag"),
    ("suite --save-transport T", "with --out"),
]


class TestFlagTable:
    @pytest.fixture(autouse=True)
    def _restore_dtype(self):
        """`--dtype` is applied process-wide before the dataset is built."""
        yield
        set_compute_dtype("float64")

    @pytest.mark.parametrize(
        "flag", [f for f in cli._FLAGS if f.field is not None], ids=lambda f: f.option
    )
    def test_each_config_flag_alone_sets_exactly_its_field(self, flag, monkeypatch):
        tail, value = _sample(flag)
        assert _overrides(monkeypatch, [flag.option, *tail]) == {flag.field: value}
        assert flag.field in {f.name for f in fields(CoordinatorConfig)}

    def test_no_flag_restates_a_default(self, monkeypatch):
        assert _overrides(monkeypatch, ["run"]) == {}
        assert _overrides(monkeypatch, ["suite", "--seed", "3", "--rounds", "2"]) == {}

    @pytest.mark.parametrize("line,differs", CI_SMOKES, ids=[c[0] for c in CI_SMOKES])
    def test_ci_smoke_builds_the_parents_config(self, line, differs, monkeypatch):
        base = coordinator_config(active_profile("femnist_like"), 0)
        assert _built_config(monkeypatch, line.split()) == replace(base, **differs)

    @pytest.mark.parametrize("line,names", MISUSES, ids=[m[0] for m in MISUSES])
    def test_misuse_is_a_usage_error_before_anything_is_built(
        self, line, names, monkeypatch, capsys
    ):
        monkeypatch.setattr(cli, "build_dataset", _stop)
        with pytest.raises(SystemExit) as exc:
            cli_main(line.split())
        assert exc.value.code == 2
        error_line = capsys.readouterr().err.strip().splitlines()[-1]
        assert "error:" in error_line and names in error_line

    def test_suite_help_lists_run_flags_minus_the_run_only_ones(self, capsys):
        listed = {}
        for command in ("run", "suite"):
            with pytest.raises(SystemExit) as exc:
                cli_main([command, "--help"])
            assert exc.value.code == 0
            listed[command] = set(
                re.findall(r"^  (--[a-z-]+)", capsys.readouterr().out, re.MULTILINE)
            )
        run_only = {f.option for f in cli._FLAGS if f.commands == ("run",)}
        assert run_only == {
            "--save-log", "--save-recovery", "--save-transport", "--method",
            "--save-models",
        }
        assert listed["run"] - run_only == listed["suite"] - {"--out"}
        assert listed["run"] >= run_only and "--out" in listed["suite"]
