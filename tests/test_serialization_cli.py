"""Checkpointing, log export, and the CLI."""

import json
import os
import re
import subprocess
import sys
import tracemalloc
import zipfile
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from forged_container import refile

from repro import cli
from repro.bench import active_profile
from repro.bench.workloads import coordinator_config
from repro.cli import main as cli_main
from repro.container import write_payload
from repro.fl import CoordinatorConfig
from repro.fl.export import load_log, log_to_dict, save_log
from repro.nn import mlp, set_compute_dtype, small_cnn, small_resnet, vit_tiny
from repro.nn.serialization import (
    load_model,
    load_model_state,
    model_from_spec,
    model_from_state,
    model_spec,
    model_state_dict,
    save_model,
)


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
        path = tmp_path / "model.rsnp"
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
        path = tmp_path / "grown.rsnp"
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
        path = tmp_path / "bn.rsnp"
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
        with pytest.raises(ValueError, match="unknown cell type 'MysteryCell'"):
            model_from_spec(spec)
        del spec["cells"][1]["type"]
        with pytest.raises(ValueError, match="unknown cell type None"):
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


def _bn_model(rng):
    """small_cnn with moved running stats: fresh ones would hide a skipped write."""
    m = small_cnn((1, 8, 8), 4, rng, width=4)
    m.forward(rng.normal(size=(8, 1, 8, 8)), train=True)
    return m


class TestStrictRestore:
    """One writer behind ``set_params`` and ``set_state``: exactly the live
    keys, exactly their shapes, and a refused tree writes nothing."""

    def test_a_misshaped_state_tensor_is_refused(self, rng):
        m = _bn_model(rng)
        before = m.get_state()
        key = next(k for k in before if k.endswith("bn.running_mean"))
        with pytest.raises(ValueError, match="shape mismatch"):
            m.set_state({**before, key: np.array([7.0])})  # used to broadcast 7.0
        with pytest.raises(KeyError):
            m.set_state({key: np.array([7.0])})
        assert all(np.array_equal(m.state()[k], v) for k, v in before.items())

    def test_an_empty_state_tree_is_refused(self, rng):
        m = _bn_model(rng)
        with pytest.raises(KeyError, match="state keys mismatch"):
            m.set_state({})
        # ...and accepted where the model keeps no state.
        mlp((6,), 4, rng, width=8).set_state({})

    def test_an_extra_param_key_is_refused(self, rng):
        m = mlp((6,), 4, rng, width=8)
        snap = m.get_params()
        with pytest.raises(KeyError, match="extra/w"):
            m.set_params({**snap, "extra/w": np.zeros(3)})
        assert all(np.array_equal(m.params()[k], v) for k, v in snap.items())

    def test_a_payload_with_empty_state_does_not_load(self, rng):
        payload = model_state_dict(_bn_model(rng))
        payload["state"] = {}  # used to keep the fresh model's running stats
        with pytest.raises(ValueError, match=f"model {payload['spec']['model_id']}"):
            model_from_state(payload)

    def test_a_one_element_running_var_does_not_load(self, rng):
        m = _bn_model(rng)
        payload = model_state_dict(m)
        key = next(k for k in payload["state"] if k.endswith("running_var"))
        payload["state"][key] = np.array([3.0])  # used to load as [3, 3, 3, 3]
        with pytest.raises(ValueError, match=rf"model {m.model_id}: .*shape mismatch"):
            load_model_state(m.clone(keep_id=True), payload)

    def test_a_refused_state_tree_leaves_the_params_unwritten(self, rng):
        """``set_tensors`` checks every tree before it writes any."""
        m = _bn_model(rng)
        params, state = m.get_params(), m.get_state()
        key = next(k for k in state if k.endswith("running_var"))
        moved = {k: v + 1.0 for k, v in params.items()}
        with pytest.raises(ValueError, match="shape mismatch"):
            m.set_tensors(param=moved, state={**state, key: np.array([3.0])})
        assert all(np.array_equal(m.params()[k], v) for k, v in params.items())

    @pytest.mark.parametrize(
        "tensor",
        [
            "huge ints",  # a nested list of 10**400: OverflowError on the write
            "float list",
            "int array",
            "bool array",
            "complex array",
            "object array",
        ],
    )
    def test_a_non_float_tensor_does_not_load(self, rng, tensor):
        """A stored tensor that is not a real-floating array is refused with
        a ``ValueError`` naming the model before any tensor is written; it is
        the last state tensor, so every parameter comes before it."""
        m = _bn_model(rng)
        payload = model_state_dict(m)
        key = list(payload["state"])[-1]
        good = payload["state"][key]
        payload["state"][key] = {
            "huge ints": np.full(good.shape, 10**400, dtype=object).tolist(),
            "float list": good.tolist(),
            "int array": good.astype(np.int64),
            "bool array": good > 0,
            "complex array": good.astype(np.complex128),
            "object array": good.astype(object),
        }[tensor]
        target = m.clone(keep_id=True)
        for arr in target.params().values():
            arr += 1.0  # bytes a partial write would overwrite
        before = {**target.get_params(), **target.get_state()}
        expected = rf"model {m.model_id}: tensor {re.escape(key)} \(\w+\) is not a real-floating array"
        with pytest.raises(ValueError, match=expected):
            load_model_state(target, payload)
        after = {**target.get_params(), **target.get_state()}
        assert all(after[k].tobytes() == v.tobytes() for k, v in before.items())

    def test_a_model_payload_is_its_spec_and_tensors(self, rng):
        payload = model_state_dict(_bn_model(rng))
        assert payload.keys() == {"spec", "params", "state"}

    def test_a_saved_model_with_a_version_entry_names_the_file_and_the_key(self, rng, tmp_path):
        """Models carry no mutation counter: a file that stores one, as
        ``--save-models`` wrote it before, is refused, not half-read."""
        m = mlp((6,), 4, rng, width=8)
        path = tmp_path / f"{m.model_id}.rsnp"
        write_payload(path, {**model_state_dict(m), "version": 3})
        expected = rf"{re.escape(str(path))} is not a saved model: .*'version'"
        with pytest.raises(ValueError, match=expected):
            load_model(path)
        write_payload(path, model_state_dict(m))
        assert load_model(path).params().keys() == m.params().keys()


def _grown_spec() -> dict:
    """A small_cnn spec with both transforms in its history."""
    rng = np.random.default_rng(3)
    m = small_cnn((1, 8, 8), 4, rng, width=4)
    first = m.transformable_cells()[0].cell_id
    m.widen_cell(first, 2.0, rng, round_idx=1)
    m.deepen_after(first, rng, round_idx=2)
    return model_spec(m)


_GROWN = _grown_spec()
_ANY_FIELD = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 40),
    st.floats(-4, 40, allow_nan=False),
    st.text(max_size=4),
    st.sampled_from(["max", "avg", "widen", "DenseCell", "ConvCell"]),
    st.lists(st.integers(0, 8), max_size=4),
    st.dictionaries(st.text(max_size=3), st.integers(0, 3), max_size=2),
)


class TestStrictSpec:
    """``model_from_spec`` answers a malformed spec with a ``ValueError``."""

    def test_a_spec_without_cells_is_refused(self, rng):
        spec = model_spec(mlp((6,), 4, rng, width=8))
        del spec["cells"]
        with pytest.raises(ValueError, match=r"missing keys \['cells'\]"):
            model_from_spec(spec)

    def test_a_string_width_names_the_cell(self, rng):
        spec = model_spec(mlp((6,), 4, rng, width=8))
        spec["cells"][0]["in_features"] = "6"
        cell_id = spec["cells"][0]["cell_id"]
        with pytest.raises(ValueError, match=f"DenseCell '{cell_id}'"):
            model_from_spec(spec)

    @pytest.mark.parametrize("field, value", [("birth_round", True), ("input_shape", [6.0])])
    def test_a_wrongly_typed_model_field_is_refused(self, rng, field, value):
        spec = model_spec(mlp((6,), 4, rng, width=8))
        spec[field] = value
        with pytest.raises(ValueError, match=field):
            model_from_spec(spec)

    def test_load_model_without_a_spec_names_the_file(self, rng, tmp_path):
        path = tmp_path / "weights.rsnp"
        write_payload(path, {"params": mlp((6,), 4, rng).params()})
        expected = rf"{path} is not a saved model: ValueError: model payload: keys \['params'\]"
        with pytest.raises(ValueError, match=expected):
            load_model(path)

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_a_mutated_spec_is_refused_or_rebuilt_exactly(self, data):
        spec = json.loads(json.dumps(_GROWN))
        records = [spec, *spec["cells"], *spec["history"]]
        record = records[data.draw(st.integers(0, len(records) - 1), label="record")]
        op = data.draw(st.sampled_from(["replace", "delete", "add"]), label="op")
        if op == "add":
            record[data.draw(st.text(min_size=1, max_size=6), label="key")] = 1
        else:
            key = data.draw(st.sampled_from(sorted(record)), label="key")
            if op == "delete":
                del record[key]
            else:
                record[key] = data.draw(_ANY_FIELD, label="value")
        try:
            model = model_from_spec(spec)
        except ValueError:
            return
        assert model_spec(model) == spec


def _tensors(model) -> dict:
    return {(s, key): arr for s in ("param", "state") for key, *_, arr in model.tensors(s)}


@pytest.fixture(scope="module")
def saved_cnn(tmp_path_factory) -> tuple:
    """A saved small_cnn with moved BatchNorm statistics: (model, file bytes)."""
    model = _bn_model(np.random.default_rng(5))
    path = tmp_path_factory.mktemp("saved") / "m.rsnp"
    save_model(model, path)
    return model, path.read_bytes()


class TestHostileSavedModels:
    """A ``--save-models`` file is read by the container's one reader: a
    truncated, altered or forged file loads the saved model or is a
    ``ValueError`` naming it, and never sizes an allocation by itself."""

    @settings(
        max_examples=100, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_an_altered_file_loads_the_saved_model_or_names_the_file(
        self, saved_cnn, tmp_path, data
    ):
        model, good = saved_cnn
        if data.draw(st.booleans(), label="truncate"):
            bad = good[: data.draw(st.integers(0, len(good) - 1), label="keep")]
        else:
            start = data.draw(st.integers(0, len(good) - 1), label="start")
            masks = data.draw(st.lists(st.integers(1, 255), min_size=1, max_size=4), label="xor")
            bad = bytearray(good)
            for i, mask in enumerate(masks[: len(good) - start]):
                bad[start + i] ^= mask
            bad = bytes(bad)
        path = tmp_path / "m.rsnp"
        path.write_bytes(bad)
        tracemalloc.start()
        try:
            loaded = load_model(path)
        except ValueError as exc:
            assert str(path) in str(exc)
        else:
            assert model_spec(loaded) == model_spec(model)
            got, want = _tensors(loaded), _tensors(model)
            assert got.keys() == want.keys()
            assert all(np.array_equal(got[k], want[k]) for k in want)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert peak <= 4 * len(good) + (1 << 20)

    def test_a_forged_shape_sizes_no_read(self, saved_cnn, tmp_path):
        """A few-KB file whose bytes claim a 128 MiB tensor: a zip member in
        the ``np.savez`` layout saved models had before format 3, and a
        container whose arena and marker claim it under a matching CRC."""
        model, good = saved_cnn
        spec = json.dumps(model_spec(model)).encode()
        (first, _), *rest = ((f"param::{k}", v) for k, v in model.params().items())
        zipped = tmp_path / "zipped.npz"
        np.savez(zipped, __spec__=np.frombuffer(spec, dtype=np.uint8), **dict(rest))
        with zipfile.ZipFile(zipped, "a") as zf, zf.open(first + ".npy", "w") as member:
            header = {"descr": "<f8", "fortran_order": False, "shape": (1 << 24,)}
            np.lib.format.write_array_header_1_0(member, header)

        def forge(h):
            marker = next(iter(h["payload"]["params"].values()))["__array__"]
            marker[1:] = [0, [1 << 24]]
            h["arenas"][marker[0]][1] = 1 << 24

        forged = tmp_path / "forged.rsnp"
        forged.write_bytes(refile(good, forge))
        for path in (zipped, forged):
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match=re.escape(str(path))):
                    load_model(path)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            assert peak <= 4 * path.stat().st_size + (1 << 20)


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
        saved = list((tmp_path / "models").glob("*.rsnp"))
        assert saved
        loaded = load_model(saved[0])
        assert loaded.macs() > 0

    def test_unknown_method_rejected(self):
        with pytest.raises(SystemExit):
            cli_main(["run", "--method", "nope"])

    @pytest.mark.parametrize("command", ["run", "suite"])
    def test_an_engine_error_is_one_line_and_status_1(self, command):
        """A run that fails while it executes (a poisoned update's
        non-finite loss) ends in one ``repro <command>: error:`` line and
        exit status 1, not a traceback; a usage error keeps status 2."""
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        base = [sys.executable, "-m", "repro", command, "--rounds", "12"]
        failed = subprocess.run(
            [*base, "--selector", "oort", "--faults", "poison=0.3"],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert failed.returncode == 1
        assert failed.stderr.splitlines() == [
            f"repro {command}: error: round 1: client 34 trained model m000 to a "
            "non-finite loss (nan); it cannot be scored into a utility table (run with "
            "--quarantine to drop poisoned updates)"
        ]
        misuse = subprocess.run(
            [*base, "--faults", "bogus=1"], capture_output=True, text=True, env=env, timeout=300
        )
        assert misuse.returncode == 2
        assert misuse.stderr.splitlines()[-1].startswith(f"repro {command}: error: ")


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
    # Non-finite times: the clock heap orders them, the export writes them.
    ("--mode async --buffer-k 4 --deadline nan", "deadline_s"),
    ("--mode async --buffer-k 4 --deadline inf", "deadline_s"),
    ("--mode async --buffer-k 4 --faults hang=0.5,hang_factor=nan", "hang_factor"),
    ("--mode async --buffer-k 4 --faults hang=0.5,hang_factor=inf", "hang_factor"),
    # NaN never crosses a threshold: the norm gate would be silently off.
    ("--quarantine --quarantine-norm-mult nan", "norm_multiplier"),
    ("--quarantine --quarantine-norm-mult inf", "norm_multiplier"),
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
