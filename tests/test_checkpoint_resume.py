"""Durable runs: payload codec, crash-consistent writer, registry, resume.

In-process side: the flatten/unflatten codec and the single-``.npz``
payload files round-trip bit-exactly (including PCG64's 128-bit state
ints), the manifest pointer protocol prunes and verifies hashes, the run
registry hashes exactly the trajectory-relevant knobs, FedTrans's utility
table survives eviction + compaction (and reads the v1 payload), and RNG
capture/restore obeys restore-then-draw == continue-then-draw.  A crash/resume matrix over
every (mode, executor) combination asserts the headline contract: a run
killed mid-training and resumed produces a bit-identical TrainingLog
(CONTRACTS.md I9 on top of I1/I2).

Subprocess side: a kill chain driven by ``REPRO_CKPT_CRASH_POINT``
SIGKILLs a real run inside every window of the checkpoint write protocol
(before payload / between payload and manifest / after manifest) and
asserts the directory always holds a loadable last-good checkpoint and
that the final resumed export matches the uninterrupted run exactly.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import sanitize
from repro.atomicio import atomic_write
from repro.baselines import FLuIDStrategy, HeteroFLStrategy, SplitMixStrategy, fedavg
from repro.core import ClientManager, FedTransConfig, FedTransStrategy
from repro.data import SyntheticTaskConfig, build_federated_dataset
from repro.device import DeviceTrace
from repro.fl import (
    ClientUpdate,
    Coordinator,
    CoordinatorConfig,
    FLClient,
    LocalTrainerConfig,
)
from repro.fl.checkpoint import (
    CHECKPOINT_FORMAT,
    MANIFEST_NAME,
    CheckpointWriter,
    flatten_payload,
    load_checkpoint,
    read_payload,
    unflatten_payload,
    write_payload,
)
from repro.fl.export import log_to_dict
from repro.fl.registry import RunRegistry, fleet_fingerprint, run_hash
from repro.fl.scheduling.selectors import AvailabilityAwareSelector
from repro.nn import mlp
from repro.nn.cells import set_cell_id_counter
from repro.nn.model import set_model_id_counter

from oracle_client_manager import ClientManager as DictClientManager
from oracle_client_manager import v1_payload

REPO =Path(__file__).resolve().parents[1]


@pytest.fixture(autouse=True)
def _sanitizer_state():
    """Never leak sanitizer state (module flag or env var) across tests."""
    prev_enabled = sanitize.sanitizer_enabled()
    prev_env = os.environ.get("REPRO_SANITIZE")
    yield
    sanitize.set_sanitizer(prev_enabled)
    if prev_env is None:
        os.environ.pop("REPRO_SANITIZE", None)
    else:
        os.environ["REPRO_SANITIZE"] = prev_env


# ----------------------------------------------------------------------
# payload codec
# ----------------------------------------------------------------------
class TestPayloadCodec:
    PAYLOAD = {
        "schema": "Thing/v1",
        "n": 3,
        "f": 0.1 + 0.2,  # not shortest-decimal-trivial; must survive JSON
        "flag": True,
        "none": None,
        "nested": {"w": np.arange(6, dtype=np.float64).reshape(2, 3)},
        "seq": [1, {"x": np.ones(2, dtype=np.float32)}, "s"],
    }

    def test_flatten_unflatten_round_trip(self):
        skeleton, arrays = flatten_payload(self.PAYLOAD)
        json.dumps(skeleton)  # skeleton must be pure JSON
        back = unflatten_payload(skeleton, arrays)
        assert back["n"] == 3 and back["f"] == self.PAYLOAD["f"]
        assert back["flag"] is True and back["none"] is None
        np.testing.assert_array_equal(back["nested"]["w"], self.PAYLOAD["nested"]["w"])
        assert back["seq"][2] == "s"

    def test_numpy_scalars_become_native(self):
        skeleton, _ = flatten_payload(
            {"i": np.int64(7), "f": np.float64(1.5), "b": np.bool_(True)}
        )
        assert skeleton == {"i": 7, "f": 1.5, "b": True}
        assert type(skeleton["i"]) is int and type(skeleton["b"]) is bool

    def test_non_str_key_rejected(self):
        with pytest.raises(TypeError, match="keys must be str"):
            flatten_payload({3: "x"})

    def test_reserved_key_rejected(self):
        with pytest.raises(TypeError, match="reserved"):
            flatten_payload({"__array__": 1})

    def test_unsupported_leaf_rejected(self):
        with pytest.raises(TypeError, match="cannot checkpoint"):
            flatten_payload({"bad": object()})

    def test_file_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        payload = {
            "a": rng.standard_normal((4, 5)),
            "b": {"c": rng.integers(0, 10, 7)},
            "f32": rng.standard_normal(3).astype(np.float32),
        }
        path = tmp_path / "p.npz"
        write_payload(path, payload)
        back = read_payload(path)
        for key in ("a", "f32"):
            assert back[key].dtype == payload[key].dtype
            np.testing.assert_array_equal(back[key], payload[key])
        np.testing.assert_array_equal(back["b"]["c"], payload["b"]["c"])

    def test_pcg64_state_ints_survive(self, tmp_path):
        # The bit generator's 128-bit state words overflow every fixed-width
        # container; they must round-trip through the JSON skeleton exactly.
        state = np.random.default_rng(123).bit_generator.state
        path = tmp_path / "rng.npz"
        write_payload(path, {"rng": state})
        back = read_payload(path)["rng"]
        assert back == state
        rng = np.random.default_rng(0)
        rng.bit_generator.state = back
        ref = np.random.default_rng(123)
        assert list(rng.integers(0, 2**62, 5)) == list(ref.integers(0, 2**62, 5))


# ----------------------------------------------------------------------
# writer / loader / registry
# ----------------------------------------------------------------------
class TestWriterAndLoader:
    def test_write_then_load(self, tmp_path):
        w = CheckpointWriter(tmp_path, "abc123")
        payload = {"schema": "RunCheckpoint/v1", "x": np.arange(3)}
        w.write(4, payload, completed=False)
        found = load_checkpoint(tmp_path, "abc123")
        assert found["manifest"]["round"] == 4
        assert found["manifest"]["completed"] is False
        assert found["manifest"]["format"] == CHECKPOINT_FORMAT
        assert "RunCheckpoint/v1" in found["manifest"]["schemas"]
        np.testing.assert_array_equal(found["payload"]["x"], np.arange(3))

    def test_superseded_checkpoints_pruned(self, tmp_path):
        w = CheckpointWriter(tmp_path, "h")
        w.write(1, {"r": 1}, completed=False)
        w.write(3, {"r": 3}, completed=False)
        npz = sorted(p.name for p in tmp_path.glob("ckpt-*.npz"))
        assert npz == ["ckpt-000003.npz"]
        assert load_checkpoint(tmp_path)["payload"]["r"] == 3

    def test_no_manifest_means_fresh_start(self, tmp_path):
        assert load_checkpoint(tmp_path) is None

    def test_run_hash_mismatch_raises(self, tmp_path):
        CheckpointWriter(tmp_path, "aaa").write(0, {"r": 0}, completed=False)
        with pytest.raises(ValueError, match="different run"):
            load_checkpoint(tmp_path, "bbb")

    def test_format_mismatch_raises(self, tmp_path):
        CheckpointWriter(tmp_path, "h").write(0, {"r": 0}, completed=False)
        manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
        manifest["format"] = CHECKPOINT_FORMAT + 1
        (tmp_path / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="format"):
            load_checkpoint(tmp_path)


def _tiny_fleet(n=4, seed=0):
    cfg = SyntheticTaskConfig(
        num_classes=3, input_shape=(6,), latent_dim=4, teacher_width=8, seed=seed
    )
    ds = build_federated_dataset(cfg, n, mean_samples=10, seed=seed)
    return [
        FLClient(c.client_id, c, DeviceTrace(c.client_id, 1e9, 1e6, 1e12))
        for c in ds.clients
    ]


class TestRunRegistry:
    def _cfg(self, **kw):
        base = dict(rounds=4, clients_per_round=2, seed=0)
        base.update(kw)
        return CoordinatorConfig(**base)

    def test_hash_is_stable_and_neutral_to_backend_knobs(self):
        fleet = _tiny_fleet()
        base = run_hash("fedavg", self._cfg(), fleet)
        assert base == run_hash("fedavg", self._cfg(), fleet)
        assert base == run_hash("fedavg", self._cfg(executor="process"), fleet)
        assert base == run_hash("fedavg", self._cfg(sanitize=True), fleet)
        assert base == run_hash(
            "fedavg",
            self._cfg(checkpoint_dir="/tmp/x", checkpoint_every=2, resume=True),
            fleet,
        )

    def test_trajectory_knobs_change_the_hash(self):
        fleet = _tiny_fleet()
        base = run_hash("fedavg", self._cfg(), fleet)
        assert base != run_hash("fedavg", self._cfg(seed=1), fleet)
        assert base != run_hash("fedavg", self._cfg(rounds=5), fleet)
        assert base != run_hash("fedprox", self._cfg(), fleet)
        assert base != run_hash("fedavg", self._cfg(), _tiny_fleet(seed=1))

    def test_hash_and_field_list_are_pinned(self, tmp_path):
        """The run hash names run directories: drift orphans every checkpoint
        written before it.  Digests and field order computed at cc0a666,
        before ``CoordinatorConfig`` grew its parsed (non-field) views — and
        while ``eval_cache`` was still a field, whose default ``run_hash``
        keeps in the preimage."""
        fleet = _tiny_fleet()
        default = CoordinatorConfig()
        loaded = dict(
            rounds=12, clients_per_round=4, seed=3, mode="async", buffer_k=2,
            deadline_s=90.0, pacing="quantile", straggler="downsize", evict_after=5,
            faults="crash=0.2,poison=0.1", retries=2, quarantine=True,
            quarantine_norm_mult=6.0, compress="update:topk0.05+int8,snapshot:rle",
            wire_time=True,
        )
        oort = CoordinatorConfig(selector="oort", **loaded)
        churn = CoordinatorConfig(
            selector="availability",
            availability_trace="diurnal:base=0.7,amplitude=0.3,period=8",
            **loaded,
        )
        assert run_hash("fedavg", default, fleet) == "85725dd6a424"
        assert run_hash("fedtrans", oort, fleet) == "2ec53f4c84e3"
        assert run_hash("fedtrans", churn, fleet) == "fd9a0f3d5562"
        # A directory a parent run created is the one this tree looks in.
        (tmp_path / "fedtrans-2ec53f4c84e3").mkdir()
        RunRegistry(tmp_path).run_dir("fedtrans", oort, fleet)
        assert RunRegistry(tmp_path).runs() == ["fedtrans-2ec53f4c84e3"]
        names = [
            "rounds", "clients_per_round", "trainer", "eval_every", "seed",
            "convergence_patience", "convergence_delta", "eval_batch_size",
            "eval_group_clients", "sanitize", "executor",
            "max_workers", "compute_dtype", "mode", "buffer_k",
            "async_concurrency", "deadline_s", "staleness_discount", "selector",
            "pacing", "straggler", "availability_trace", "evict_after", "faults",
            "retries", "quarantine", "quarantine_norm_mult", "compress",
            "wire_time", "checkpoint_every", "checkpoint_dir", "resume",
        ]
        assert [f.name for f in fields(CoordinatorConfig)] == names
        for cfg in (default, oort, churn):
            assert list(asdict(cfg)) == names  # the views stay out of the hash
            assert cfg == replace(cfg) and hash(cfg) == hash(replace(cfg))

    def test_fingerprint_covers_data_and_capacity(self):
        fleet = _tiny_fleet()
        fp = fleet_fingerprint(fleet)
        assert len(fp) == len(fleet)
        assert fp[0][0] == fleet[0].client_id
        assert fp[0][3] == fleet[0].capacity_macs

    def test_run_dir_layout(self, tmp_path):
        fleet = _tiny_fleet()
        reg = RunRegistry(tmp_path)
        d = reg.run_dir("fedavg", self._cfg(), fleet)
        assert d.is_dir() and d.parent == tmp_path
        assert d.name == f"fedavg-{run_hash('fedavg', self._cfg(), fleet)}"
        assert reg.runs() == [d.name]


# ----------------------------------------------------------------------
# component round-trips that need more than generic Stateful plumbing
# ----------------------------------------------------------------------
class TestClientManagerDurability:
    """FedTrans's utility table: its v2 payload round-trips after eviction
    + compaction, a short one is refused, and a ``ClientManager/v1``
    checkpoint (a dict per client, written by the implementation the table
    replaced) resumes through the one-way reader."""

    MODEL = mlp((6,), 3, np.random.default_rng(0), width=4)

    def _touch(self, cm, *client_ids):
        mid = self.MODEL.model_id
        ups = [
            ClientUpdate(cid, mid, {}, {}, float(cid), 1, 0.0, 0, 0, 0.0)
            for cid in client_ids
        ]
        cm.update(ups, {mid: self.MODEL})

    def test_round_trip_after_eviction_and_compaction(self):
        cm = ClientManager(evict_after=2)
        self._touch(cm, *range(6))
        cm.advance_round(1)
        # Re-touch a subset (stamped at round 1), then advance far enough
        # to evict the round-0 rest, which compacts the block.
        self._touch(cm, 1, 4)
        assert cm.advance_round(3) == [0, 2, 3, 5]
        assert cm.evicted_total == 4

        restored = ClientManager(evict_after=2)
        restored.load_state_dict(cm.state_dict())
        payload = restored.state_dict()
        assert payload["clients"].tolist() == [1, 4]
        assert payload["last_active"].tolist() == [1, 1]
        assert restored.evicted_total == 4
        assert restored.utility(1, self.MODEL.model_id) == cm.utility(1, self.MODEL.model_id)
        # The stamps survived: both rows go together, one round past the bound.
        assert restored.advance_round(3) == [] and restored.advance_round(4) == [1, 4]

    def test_restored_table_keeps_evicting_identically(self):
        cm = ClientManager(evict_after=1)
        self._touch(cm, 0)
        cm.advance_round(0)
        twin = ClientManager(evict_after=1)
        twin.load_state_dict(cm.state_dict())
        assert cm.advance_round(3) == twin.advance_round(3) == [0]
        assert cm.evicted_total == twin.evicted_total == 1

    def test_tagless_or_short_payload_is_refused(self):
        """Nothing is defaulted for a payload that lacks a key, in either
        version."""
        cm = ClientManager(evict_after=2)
        self._touch(cm, 0, 1)
        v2 = cm.state_dict()
        for payload in (v2, v1_payload(v2)):
            tagless = {k: v for k, v in payload.items() if k != "schema"}
            with pytest.raises(ValueError, match="schema mismatch"):
                ClientManager().load_state_dict(tagless)
            for key in payload.keys() - {"schema"}:
                short = {k: v for k, v in payload.items() if k != key}
                with pytest.raises(KeyError, match=key):
                    ClientManager().load_state_dict(short)
        for key in ("round", "evicted_total", "state", "last_active"):
            short = v1_payload(v2)
            del short["store"][key]
            with pytest.raises(KeyError, match=key):
                ClientManager().load_state_dict(short)

    def test_parent_checkpoint_resumes_identically(self, tmp_path):
        """The dict implementation checkpoints a sync FedTrans run after an
        eviction and a transformation; the table resumes it and the export
        matches the uninterrupted run byte for byte (which the dict
        implementation's own uninterrupted run matches too)."""
        ref = _dumps(_build_fedtrans().run())
        assert _dumps(_build_fedtrans(dict_manager=True).run()) == ref
        coord = _build_fedtrans(tmp_path, dict_manager=True)
        _crash_at(coord, crash_round=8)  # after the round-7 checkpoint
        with pytest.raises(RuntimeError, match="injected"):
            coord.run()
        (run,) = RunRegistry(tmp_path).runs()
        found = load_checkpoint(tmp_path / run)
        assert "ClientStateStore/v1" in found["manifest"]["schemas"]
        strategy = found["payload"]["coordinator"]["strategy"]
        assert strategy["client_manager"]["store"]["evicted_total"] > 0
        assert len(strategy["birth_order"]) > 1
        resumed = _build_fedtrans(tmp_path, resume=True)
        assert _dumps(resumed.run()) == ref
        assert resumed.strategy.client_manager.state_dict()["schema"] == "ClientManager/v2"


class TestReadersNeverDefault:
    """ROADMAP 5d: an absent checkpoint key is an error, not a default."""

    @pytest.mark.parametrize("key", ["fleet", "validator", "transport"])
    def test_coordinator_keys_are_required(self, key):
        payload = _build().state_dict()
        # On the default stack both are present with the value None ("off").
        assert payload["validator"] is None and payload["transport"] is None
        del payload[key]
        with pytest.raises(KeyError, match=key):
            _build().load_state_dict(payload)

    def test_availability_selector_key_is_required(self):
        selector = AvailabilityAwareSelector(seed=0)
        with pytest.raises(KeyError, match="offline_fallback_rounds"):
            selector.load_state_dict({"schema": selector.schema})


class TestRngCaptureRestore:
    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_restore_then_draw_equals_continue_then_draw(self, seed):
        rng = np.random.default_rng(seed)
        rng.standard_normal(17)  # mid-round: some entropy already consumed
        snapshot = rng.bit_generator.state
        continued = rng.standard_normal(29)

        fresh = np.random.default_rng(0)  # wrong seed on purpose
        fresh.bit_generator.state = snapshot
        restored = fresh.standard_normal(29)
        np.testing.assert_array_equal(continued, restored)

    def test_snapshot_is_inert(self):
        # Capturing must not perturb the stream (a draw-to-inspect bug
        # would silently shift every post-checkpoint round).
        a = np.random.default_rng(3)
        b = np.random.default_rng(3)
        _ = a.bit_generator.state
        np.testing.assert_array_equal(a.standard_normal(8), b.standard_normal(8))


# ----------------------------------------------------------------------
# end-to-end crash/resume matrix (in-process crash injection)
# ----------------------------------------------------------------------
def _build(ckpt_dir=None, resume=False, mode="sync", executor="serial",
           sanitize_run=False, **over):
    # Each build simulates a fresh process: both process-global id
    # counters restart so lineage names are reproducible.
    set_model_id_counter(0)
    set_cell_id_counter(0)
    cfg = SyntheticTaskConfig(
        num_classes=4, input_shape=(8,), latent_dim=6, teacher_width=12,
        class_sep=3.0, seed=0,
    )
    ds = build_federated_dataset(cfg, 8, mean_samples=20, seed=0)
    clients = [
        FLClient(c.client_id, c, DeviceTrace(c.client_id, 1e9, 1e6, 1e12))
        for c in ds.clients
    ]
    rng = np.random.default_rng(0)
    strat = fedavg(mlp(ds.input_shape, ds.num_classes, rng, width=8))
    kw = dict(
        rounds=6, clients_per_round=4,
        trainer=LocalTrainerConfig(batch_size=8, local_steps=3, lr=0.2),
        eval_every=2, seed=0, mode=mode, executor=executor,
    )
    if mode == "async":
        kw.update(buffer_k=2)
    if sanitize_run:
        kw.update(sanitize=True)
    if ckpt_dir is not None:
        kw.update(checkpoint_every=2, checkpoint_dir=str(ckpt_dir), resume=resume)
    kw.update(over)
    return Coordinator(strat, clients, CoordinatorConfig(**kw))


_TIERED = {"heterofl": HeteroFLStrategy, "fluid": FLuIDStrategy, "splitmix": SplitMixStrategy}


def _build_tiered(method, ckpt_dir=None, resume=False, mode="sync"):
    """A width-ladder baseline on four capacity tiers (2x, 0.3x, 0.3x, 0.15x
    of the global model's MACs).  The tiers are the point: on a uniform
    fleet everyone trains ratio 1.0, every global coordinate is covered
    every round, and a checkpoint that lost the global model resumes
    identically anyway.  Same dataset and trainer as ``_build``."""
    set_model_id_counter(0)
    set_cell_id_counter(0)
    cfg = SyntheticTaskConfig(
        num_classes=4, input_shape=(8,), latent_dim=6, teacher_width=12,
        class_sep=3.0, seed=0,
    )
    ds = build_federated_dataset(cfg, 8, mean_samples=20, seed=0)
    big = mlp(ds.input_shape, ds.num_classes, np.random.default_rng(0), width=16)
    tiers = (2.0, 0.3, 0.3, 0.15)
    clients = [
        FLClient(
            c.client_id, c,
            DeviceTrace(c.client_id, 1e9, 1e6, tiers[c.client_id % 4] * big.macs()),
        )
        for c in ds.clients
    ]
    kw = dict(
        rounds=12, clients_per_round=2,
        trainer=LocalTrainerConfig(batch_size=8, local_steps=3, lr=0.2),
        eval_every=4, seed=0, mode=mode,
    )
    if mode == "async":
        kw.update(buffer_k=2)
    if ckpt_dir is not None:
        kw.update(checkpoint_every=2, checkpoint_dir=str(ckpt_dir), resume=resume)
    return Coordinator(_TIERED[method](big), clients, CoordinatorConfig(**kw))


def _build_fedtrans(ckpt_dir=None, resume=False, dict_manager=False):
    """Sync FedTrans with utility eviction on; it evicts and transforms
    within its first 8 rounds.  ``dict_manager`` swaps in the dict
    implementation the utility table replaced (its checkpoints are v1)."""
    set_model_id_counter(0)
    set_cell_id_counter(0)
    cfg = SyntheticTaskConfig(
        num_classes=4, input_shape=(8,), latent_dim=6, teacher_width=12,
        class_sep=3.0, seed=0,
    )
    ds = build_federated_dataset(cfg, 8, mean_samples=20, seed=0)
    init = mlp(ds.input_shape, ds.num_classes, np.random.default_rng(0), width=8)
    capacity = init.macs() * 16
    clients = [
        FLClient(c.client_id, c, DeviceTrace(c.client_id, 1e9, 1e6, capacity))
        for c in ds.clients
    ]
    config = FedTransConfig(gamma=2, delta=2, beta=0.5, max_models=3, evict_after=2)
    strategy = FedTransStrategy(init, config, max_capacity_macs=capacity)
    if dict_manager:
        strategy.client_manager = DictClientManager(
            strategy.sim_cache, config.utility_decay, config.utility_clamp, config.evict_after
        )
    kw = dict(
        rounds=12, clients_per_round=4,
        trainer=LocalTrainerConfig(batch_size=8, local_steps=3, lr=0.2),
        eval_every=4, seed=0,
    )
    if ckpt_dir is not None:
        kw.update(checkpoint_every=2, checkpoint_dir=str(ckpt_dir), resume=resume)
    return Coordinator(strategy, clients, CoordinatorConfig(**kw))


def _crash_at(coord, crash_round):
    real = coord._run_round

    def boom(round_idx, log):
        if round_idx == crash_round:
            raise RuntimeError("injected crash")
        return real(round_idx, log)

    coord._run_round = boom


def _dumps(log):
    return json.dumps(log_to_dict(log), sort_keys=True)


class TestResumeBitIdentity:
    @pytest.mark.parametrize("mode", ["sync", "async"])
    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_resume_matches_uninterrupted(self, tmp_path, mode, executor):
        ref = _dumps(_build(mode=mode, executor=executor).run())
        coord = _build(tmp_path, mode=mode, executor=executor)
        _crash_at(coord, crash_round=4)  # after the round-3 checkpoint
        with pytest.raises(RuntimeError, match="injected"):
            coord.run()
        resumed = _build(tmp_path, resume=True, mode=mode, executor=executor).run()
        assert _dumps(resumed) == ref

    @pytest.mark.parametrize("mode", ["sync", "async"])
    @pytest.mark.parametrize("method", sorted(_TIERED))
    def test_baseline_resume_matches_uninterrupted(self, tmp_path, method, mode):
        ref = _dumps(_build_tiered(method, mode=mode).run())
        coord = _build_tiered(method, tmp_path, mode=mode)
        _crash_at(coord, crash_round=8)  # after the round-7 checkpoint
        with pytest.raises(RuntimeError, match="injected"):
            coord.run()
        resumed = _build_tiered(method, tmp_path, resume=True, mode=mode).run()
        assert _dumps(resumed) == ref

    def test_parent_shaped_scheduler_payload_resumes_identically(self, tmp_path):
        """Until ISSUE 21 ``OortSelector``'s payload restated the fleet
        store's utility column and ``QuantilePacing``'s its round-time
        windows.  A checkpoint written then carries both copies and must
        resume exactly like one that carries each once."""
        stack = dict(mode="async", rounds=24, selector="oort", pacing="quantile")
        ref = _dumps(_build(**stack).run())
        coord = _build(tmp_path, **stack)
        stored_once = coord.state_dict
        written = []

        def stored_twice():
            payload = stored_once()
            fleet = payload["fleet"]
            payload["selector"]["utility"] = {
                str(int(cid)): float(u)
                for cid, u, has in zip(fleet["ids"], fleet["utility"], fleet["has_utility"])
                if has
            }
            payload["engine"]["pacing"]["durations"] = fleet["stats"]["durations"]
            written.append(payload)
            return payload

        coord.state_dict = stored_twice
        _crash_at(coord, crash_round=22)  # after the round-21 checkpoint
        with pytest.raises(RuntimeError, match="injected"):
            coord.run()
        last = written[-1]
        assert last["selector"]["utility"] and any(last["engine"]["pacing"]["durations"])
        assert any(d is not None for d in last["engine"]["pacing"]["deadline"])
        assert _dumps(_build(tmp_path, resume=True, **stack).run()) == ref

    def test_resume_under_different_backend(self, tmp_path):
        ref = _dumps(_build().run())
        coord = _build(tmp_path)
        _crash_at(coord, crash_round=4)
        with pytest.raises(RuntimeError):
            coord.run()
        resumed = _build(tmp_path, resume=True, executor="thread").run()
        assert _dumps(resumed) == ref

    def test_resume_with_sanitizer(self, tmp_path):
        ref = _dumps(_build().run())  # sanitizer never changes results
        coord = _build(tmp_path, sanitize_run=True)
        _crash_at(coord, crash_round=4)
        with pytest.raises(RuntimeError):
            coord.run()
        resumed = _build(tmp_path, resume=True, sanitize_run=True).run()
        assert _dumps(resumed) == ref

    def test_resume_of_completed_run_is_idempotent(self, tmp_path):
        first = _dumps(_build(tmp_path).run())
        again = _dumps(_build(tmp_path, resume=True).run())
        assert again == first

    def test_resume_with_no_checkpoint_is_fresh_start(self, tmp_path):
        ref = _dumps(_build().run())
        assert _dumps(_build(tmp_path, resume=True).run()) == ref

    def test_mode_mismatch_raises(self, tmp_path):
        coord = _build(tmp_path)
        _crash_at(coord, crash_round=4)
        with pytest.raises(RuntimeError):
            coord.run()
        # Same trajectory knobs except mode => different run hash, so the
        # sync checkpoint is simply invisible to an async run (fresh dir).
        async_coord = _build(tmp_path, resume=True, mode="async")
        log = async_coord.run()
        assert log.mode == "async"


# ----------------------------------------------------------------------
# SIGKILL torture: every window of the write protocol, in a real process
# ----------------------------------------------------------------------
_RUNNER = """\
import json, sys
import numpy as np
from repro.baselines import fedavg
from repro.data import SyntheticTaskConfig, build_federated_dataset
from repro.device import DeviceTrace
from repro.fl import Coordinator, CoordinatorConfig, FLClient, LocalTrainerConfig
from repro.fl.export import log_to_dict
from repro.nn import mlp

ckpt_dir, resume, out = sys.argv[1], sys.argv[2] == "resume", sys.argv[3]
cfg = SyntheticTaskConfig(num_classes=4, input_shape=(8,), latent_dim=6,
                          teacher_width=12, class_sep=3.0, seed=0)
ds = build_federated_dataset(cfg, 8, mean_samples=20, seed=0)
clients = [FLClient(c.client_id, c, DeviceTrace(c.client_id, 1e9, 1e6, 1e12))
           for c in ds.clients]
rng = np.random.default_rng(0)
strat = fedavg(mlp(ds.input_shape, ds.num_classes, rng, width=8))
kw = dict(rounds=6, clients_per_round=4,
          trainer=LocalTrainerConfig(batch_size=8, local_steps=3, lr=0.2),
          eval_every=2, seed=0)
if ckpt_dir != "-":
    kw.update(checkpoint_every=2, checkpoint_dir=ckpt_dir, resume=resume)
log = Coordinator(strat, clients, CoordinatorConfig(**kw)).run()
with open(out, "w") as f:
    json.dump(log_to_dict(log), f, sort_keys=True)
"""


class TestSigkillResume:
    def _run(self, tmp_path, ckpt_dir, resume, crash_point=None):
        out = tmp_path / "out.json"
        out.unlink(missing_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src")
        env.pop("REPRO_CKPT_CRASH_POINT", None)
        if crash_point is not None:
            env["REPRO_CKPT_CRASH_POINT"] = crash_point
        proc = subprocess.run(
            [sys.executable, "-c", _RUNNER, str(ckpt_dir),
             "resume" if resume else "fresh", str(out)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        return proc, out

    def test_kill_chain_recovers_bit_identically(self, tmp_path):
        proc, out = self._run(tmp_path, "-", resume=False)
        assert proc.returncode == 0, proc.stderr
        ref = out.read_text()

        run_root = tmp_path / "runs"
        # 1. SIGKILL right after the first manifest move: last-good is the
        #    round-1 checkpoint.
        proc, _ = self._run(tmp_path, run_root, resume=False,
                            crash_point="after-manifest")
        assert proc.returncode == -9
        (run_dir,) = [p for p in run_root.iterdir() if p.is_dir()]
        found = load_checkpoint(run_dir)
        assert found["manifest"]["round"] == 1
        assert found["manifest"]["completed"] is False

        # 2. Resume, then SIGKILL between payload and manifest: the new
        #    payload file is on disk but the pointer still names round 1 —
        #    and that checkpoint must still load (never a torn manifest).
        proc, _ = self._run(tmp_path, run_root, resume=True,
                            crash_point="after-payload")
        assert proc.returncode == -9
        names = sorted(p.name for p in run_dir.glob("ckpt-*.npz"))
        assert "ckpt-000003.npz" in names  # orphaned newer payload
        found = load_checkpoint(run_dir)
        assert found["manifest"]["round"] == 1
        assert found["payload"]["next_round"] == 2

        # 3. Resume, then SIGKILL before anything is written: no change.
        proc, _ = self._run(tmp_path, run_root, resume=True,
                            crash_point="before-payload")
        assert proc.returncode == -9
        assert load_checkpoint(run_dir)["manifest"]["round"] == 1

        # 4. Final resume with no crash hook: run completes and the export
        #    is byte-identical to the uninterrupted run's.
        proc, out = self._run(tmp_path, run_root, resume=True)
        assert proc.returncode == 0, proc.stderr
        assert out.read_text() == ref
        assert load_checkpoint(run_dir)["manifest"]["completed"] is True


# ----------------------------------------------------------------------
# atomic_write failure paths (repro.atomicio)
# ----------------------------------------------------------------------
class TestAtomicWriteFailurePaths:
    """A failed atomic_write must leave the previous file intact — never
    torn, never half-replaced — and clean up its temp file."""

    @staticmethod
    def _no_tmp_litter(tmp_path, allow=0):
        return len(list(tmp_path.glob("*.tmp-*"))) == allow

    def test_fsync_failure_leaves_old_file(self, tmp_path, monkeypatch):
        target = tmp_path / "out.json"
        target.write_text("old complete content")
        real_fsync = os.fsync

        def failing_fsync(fd):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "fsync", failing_fsync)
        with pytest.raises(OSError, match="No space left"):
            with atomic_write(target, "w", encoding="utf-8") as f:
                f.write("new content that must not land")
        monkeypatch.setattr(os, "fsync", real_fsync)
        assert target.read_text() == "old complete content"
        assert self._no_tmp_litter(tmp_path)

    def test_replace_failure_leaves_old_file(self, tmp_path, monkeypatch):
        target = tmp_path / "out.json"
        target.write_text("old complete content")

        def failing_replace(src, dst):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(PermissionError):
            with atomic_write(target, "w", encoding="utf-8") as f:
                f.write("new content that must not land")
        assert target.read_text() == "old complete content"
        assert self._no_tmp_litter(tmp_path)

    def test_exception_in_body_leaves_old_file(self, tmp_path):
        target = tmp_path / "out.bin"
        target.write_bytes(b"old bytes")
        with pytest.raises(RuntimeError, match="mid-write"):
            with atomic_write(target) as f:
                f.write(b"half of the new")
                raise RuntimeError("producer died mid-write")
        assert target.read_bytes() == b"old bytes"
        assert self._no_tmp_litter(tmp_path)

    def test_failure_with_no_previous_file(self, tmp_path, monkeypatch):
        """First-ever write failing must not conjure a partial target."""
        target = tmp_path / "fresh.json"

        def failing_replace(src, dst):
            raise OSError(5, "I/O error")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError):
            with atomic_write(target, "w", encoding="utf-8") as f:
                f.write("never lands")
        assert not target.exists()
        assert self._no_tmp_litter(tmp_path)

    def test_property_old_or_new_never_torn(self, tmp_path, monkeypatch):
        """Inject a failure at every step of every write in a chain of
        versions: after each attempt the file holds exactly one previous
        *complete* version — the invariant checkpoint resume rides on."""
        target = tmp_path / "versioned.txt"
        contents = [f"version {i:03d} " + "x" * (20 * (i + 1)) for i in range(8)]
        committed = None
        real_fsync, real_replace = os.fsync, os.replace
        rng = np.random.default_rng(42)
        fail_steps = ["fsync", "replace", "body", None]
        for i, content in enumerate(contents):
            step = fail_steps[int(rng.integers(len(fail_steps)))] if i < len(
                contents
            ) - 1 else None  # last write always succeeds
            if step == "fsync":
                monkeypatch.setattr(
                    os, "fsync", lambda fd: (_ for _ in ()).throw(OSError("disk"))
                )
            elif step == "replace":
                monkeypatch.setattr(
                    os,
                    "replace",
                    lambda s, d: (_ for _ in ()).throw(OSError("denied")),
                )
            try:
                with atomic_write(target, "w", encoding="utf-8") as f:
                    f.write(content)
                    if step == "body":
                        raise RuntimeError("producer died")
            except (OSError, RuntimeError):
                assert step is not None
            else:
                assert step is None
                committed = content
            finally:
                monkeypatch.setattr(os, "fsync", real_fsync)
                monkeypatch.setattr(os, "replace", real_replace)
            if committed is None:
                assert not target.exists()
            else:
                assert target.read_text() == committed  # old-or-new, never torn
            assert self._no_tmp_litter(tmp_path)
        assert committed == contents[-1]
