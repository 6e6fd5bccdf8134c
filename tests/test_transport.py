"""Transport codec subsystem: spec grammar, primitives, wire contracts.

The heart of the suite is CONTRACTS.md I11: lossless codec paths
(``update:rle``, ``snapshot:rle``) must replay the golden scheduling
fixture bit-identically on every backend x mode combination — compression
may only change the *byte accounting*, never the trajectory — while lossy
paths (int8/bf16/topk) must be deterministic across backends and must
declare themselves in the config.  The shm wire-format version tag (I2's
publish chain, now versioned) and the error-feedback residuals' Stateful
contract (I9) are covered here too.
"""

import json
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from repro.baselines import fedavg
from repro.data import SyntheticTaskConfig, build_federated_dataset
from repro.device import DeviceTrace
from repro.fl import (
    Coordinator,
    CoordinatorConfig,
    FLClient,
    LocalTrainerConfig,
    SnapshotFormatError,
    TransportCodec,
    TransportConfig,
    log_to_dict,
    transport_to_dict,
)
from repro.fl import shm as shm_mod
from repro.fl.export import log_from_state, log_state_dict, save_transport
from repro.fl.transport import (
    _put_varint,
    bf16_decode,
    bf16_encode,
    decode_indices,
    dequantize_int8,
    encode_indices,
    quantize_int8,
    rle_decode_bytes,
    rle_encode_bytes,
)
from repro.fl.types import ClientUpdate
from repro.nn import mlp
from repro.nn.cells import set_cell_id_counter
from repro.nn.model import set_model_id_counter

GOLDEN = Path(__file__).parent / "data" / "golden_prerefactor_scheduling.json"

TRAINER = LocalTrainerConfig(batch_size=8, local_steps=5, lr=0.2)


# ----------------------------------------------------------------------
# spec grammar
# ----------------------------------------------------------------------
class TestSpecGrammar:
    def test_parse_full_chain(self):
        cfg = TransportConfig.parse("update:int8+topk0.01,snapshot:rle")
        assert cfg.update_quantizer == "int8"
        assert cfg.update_topk == 0.01
        assert cfg.snapshot_rle and not cfg.update_rle
        assert not cfg.lossless and cfg.has_update

    def test_canonical_spec_is_stable(self):
        a = TransportConfig.parse("update:int8+topk0.01")
        b = TransportConfig.parse("update:topk0.01+int8")
        assert a == b
        assert a.spec == b.spec == "update:topk0.01+int8"
        assert TransportConfig.parse(a.spec) == a

    def test_lossless_specs(self):
        assert TransportConfig.parse("update:rle,snapshot:rle").lossless
        assert TransportConfig.parse("snapshot:rle").lossless
        assert not TransportConfig.parse("snapshot:rle").has_update
        assert not TransportConfig.parse("update:bf16").lossless

    @pytest.mark.parametrize(
        "bad, msg",
        [
            ("", "empty compress spec"),
            ("   ", "empty compress spec"),
            ("update", "malformed compress section"),
            ("update:", "malformed compress section"),
            ("gossip:rle", "unknown compress scope"),
            ("update:zstd", "unknown update codec"),
            ("update:int8+bf16", "at most one quantizer"),
            ("update:topk0.1+topk0.2", "duplicate topk"),
            ("update:topkfast", "malformed topk rate"),
            ("update:topk0", "topk rate must lie"),
            ("update:topk1.5", "topk rate must lie"),
            ("update:rle+int8", "combines with nothing"),
            ("snapshot:int8", "snapshot codec must be 'rle'"),
            ("update:rle,update:int8", "duplicate compress section"),
        ],
    )
    def test_rejects_bad_specs(self, bad, msg):
        with pytest.raises(ValueError, match=msg):
            TransportConfig.parse(bad)


# ----------------------------------------------------------------------
# primitives: property tests
# ----------------------------------------------------------------------
class TestRlePrimitive:
    def test_identical_buffers_collapse(self):
        data = bytes(range(256)) * 8
        enc = rle_encode_bytes(data, data)
        assert enc is not None and len(enc) < 8
        assert rle_decode_bytes(enc, data) == data

    def test_sparse_diff_round_trips(self, rng):
        ref = rng.integers(0, 256, 4096).astype(np.uint8).tobytes()
        a = bytearray(ref)
        for pos in (10, 11, 12, 2000, 4095):
            a[pos] ^= 0xFF
        data = bytes(a)
        enc = rle_encode_bytes(data, ref)
        assert enc is not None and len(enc) < len(data)
        assert rle_decode_bytes(enc, ref) == data

    def test_hopeless_inputs_fall_back(self, rng):
        dense = rng.integers(0, 256, 1024).astype(np.uint8).tobytes()
        other = rng.integers(0, 256, 1024).astype(np.uint8).tobytes()
        assert rle_encode_bytes(dense, other) is None  # everything differs
        assert rle_encode_bytes(dense, dense[:-1]) is None  # length mismatch
        assert rle_encode_bytes(b"", b"") is None  # empty

    def test_random_fuzz_is_lossless(self, rng):
        """Whenever the encoder emits anything, decoding is exact."""
        for trial in range(50):
            n = int(rng.integers(1, 300))
            ref = rng.integers(0, 256, n).astype(np.uint8).tobytes()
            a = bytearray(ref)
            for pos in rng.integers(0, n, int(rng.integers(0, 6))):
                a[pos] = int(rng.integers(0, 256))
            data = bytes(a)
            enc = rle_encode_bytes(data, ref)
            if enc is not None:
                assert len(enc) < len(data)
                assert rle_decode_bytes(enc, ref) == data

    def test_corrupt_stream_raises(self):
        data = b"x" * 64
        ref = b"y" * 64
        enc = rle_encode_bytes(data[:32] + ref[32:], ref)
        assert enc is not None
        with pytest.raises(ValueError, match="corrupt rle stream"):
            rle_decode_bytes(enc + b"\x01\x00", ref)

    def test_every_truncation_raises_the_streams_own_error(self, rng):
        """A stream cut anywhere (the shm reader decodes whatever the
        segment holds) is a ``ValueError("corrupt rle stream ...")`` — it
        used to surface as a bare ``IndexError`` from the varint reader."""
        ref = rng.integers(0, 256, 4096).astype(np.uint8).tobytes()
        a = bytearray(ref)
        for pos in (3, 500, 501, 4000):
            a[pos] ^= 0xFF
        enc = rle_encode_bytes(bytes(a), ref)
        assert enc is not None
        for cut in range(len(enc)):
            with pytest.raises(ValueError, match="corrupt rle stream"):
                rle_decode_bytes(enc[:cut], ref)

    def test_hostile_lengths_raise_without_allocating(self):
        ref = b"r" * 64
        for eq_len, lit_len in ((10**10, 0), (0, 10**10), (10**10, 10**10)):
            buf = bytearray()
            _put_varint(buf, eq_len)
            _put_varint(buf, lit_len)
            with pytest.raises(ValueError, match="corrupt rle stream"):
                rle_decode_bytes(bytes(buf) + b"xy", ref)
        # An unterminated varint (continuation bit set on the last byte).
        with pytest.raises(ValueError, match="corrupt rle stream"):
            rle_decode_bytes(b"\x80" * 9, ref)


class TestIndexCodec:
    def test_round_trip_random_subsets(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 500))
            k = int(rng.integers(0, n + 1))
            idx = np.sort(rng.choice(n, size=k, replace=False))
            back, n_back = decode_indices(encode_indices(idx, n))
            assert n_back == n
            np.testing.assert_array_equal(back, idx)

    def test_contiguous_runs_are_cheap(self):
        # 1000 consecutive survivors: one (gap, run) pair, not 1000 ints.
        enc = encode_indices(np.arange(1000), 10_000)
        assert len(enc) < 10

    def test_corrupt_stream_raises(self):
        enc = encode_indices(np.array([5, 6, 7]), 10)
        with pytest.raises(ValueError, match="corrupt top-k index stream"):
            decode_indices(enc + b"\x00")

    def test_every_truncation_raises_the_streams_own_error(self):
        """Both encoder paths (one-byte pairs, varint fallback): a stream
        cut anywhere raises ``ValueError``, never a bare ``IndexError``."""
        for idx, n in (([3, 4, 5, 90], 100), ([3, 4, 5, 900, 70_000], 100_000)):
            enc = encode_indices(np.array(idx), n)
            for cut in range(len(enc)):
                with pytest.raises(ValueError, match="corrupt top-k index stream"):
                    decode_indices(enc[:cut])

    @pytest.mark.parametrize(
        "n,k,pairs",
        [
            (100, 5, [(0, 10**10)]),  # the 74.5 GiB np.arange of ROADMAP 5a
            (100, 5, [(10**10, 5)]),
            (100, 10**10, [(0, 101)]),
            (100, 3, [(0, 2), (0, 2)]),
            (10**12, 5, [(0, 10**10)]),
        ],
        ids=["huge-run", "gap-past-end", "run-past-n", "runs-past-k", "huge-n-huge-run"],
    )
    def test_hostile_run_is_bounded_before_it_is_materialised(
        self, n, k, pairs, monkeypatch
    ):
        buf = bytearray()
        for value in (n, k, *(v for pair in pairs for v in pair)):
            _put_varint(buf, value)
        sizes = []
        real = np.arange
        monkeypatch.setattr(
            np, "arange", lambda *a, **kw: sizes.append(a) or real(*a, **kw)
        )
        with pytest.raises(ValueError, match="corrupt top-k index stream"):
            decode_indices(bytes(buf))
        assert all(stop - start <= 100 for start, stop in sizes)


class TestQuantizers:
    def test_int8_error_bounded_by_half_scale(self, rng):
        for _ in range(20):
            x = rng.standard_normal(int(rng.integers(1, 200))) * float(
                rng.uniform(0.01, 100)
            )
            payload, scale = quantize_int8(x)
            back = dequantize_int8(payload, scale, x.shape, x.dtype)
            assert np.max(np.abs(back - x)) <= scale / 2 + 1e-12

    def test_int8_zero_and_empty(self):
        payload, scale = quantize_int8(np.zeros(5))
        assert scale == 0.0
        np.testing.assert_array_equal(
            dequantize_int8(payload, scale, (5,), np.dtype(np.float64)),
            np.zeros(5),
        )
        payload, scale = quantize_int8(np.zeros(0))
        assert scale == 0.0 and payload == b""

    def test_int8_is_deterministic(self, rng):
        x = rng.standard_normal(64)
        assert quantize_int8(x) == quantize_int8(x.copy())

    def test_bf16_representable_values_round_trip_exactly(self):
        # Values with <= 8 significand bits are exactly representable in
        # bfloat16, so the truncation round-trips them bit-for-bit.
        x = np.array([0.0, 1.0, -2.5, 0.15625, 2.0**100, -1.0 / 1024], dtype=np.float64)
        back = bf16_decode(bf16_encode(x), x.shape, x.dtype)
        np.testing.assert_array_equal(back, x)

    def test_bf16_truncates_toward_neighbor(self, rng):
        x = rng.standard_normal(256)
        back = bf16_decode(bf16_encode(x), x.shape, x.dtype)
        # bf16 keeps 7 explicit mantissa bits; truncation error < 1 ulp.
        assert np.max(np.abs(back - x) / np.maximum(np.abs(x), 1e-30)) < 2**-7


# ----------------------------------------------------------------------
# the stateful codec
# ----------------------------------------------------------------------
def _mk_update(params, state=None, cid=0, mid="m0"):
    nbytes = sum(a.nbytes for a in params.values()) + sum(
        a.nbytes for a in (state or {}).values()
    )
    return ClientUpdate(
        client_id=cid,
        model_id=mid,
        params=params,
        state=state or {},
        grad={},
        train_loss=0.0,
        num_samples=1,
        macs_spent=0.0,
        bytes_down=nbytes,
        bytes_up=nbytes,
        round_time=1.0,
        raw_bytes_up=nbytes,
    )


class _FakeModel:
    def __init__(self, params, state=None):
        self._p, self._s = params, state or {}

    def params(self):
        return self._p

    def state(self):
        return self._s


class TestTransportCodec:
    def test_lossless_rle_keeps_values_untouched(self, rng):
        w = rng.standard_normal((8, 4))
        update = _mk_update({"w": w.copy()})
        codec = TransportCodec(TransportConfig.parse("update:rle"))
        codec.encode_update(update, _FakeModel({"w": w.copy()}))
        np.testing.assert_array_equal(update.params["w"], w)
        assert update.bytes_up < update.raw_bytes_up  # identical ref: tiny
        assert codec.state_dict()["residuals"] == []  # lossless: no EF state

    def test_lossy_wire_is_smaller_and_decoded_in_place(self, rng):
        ref = rng.standard_normal((32, 16))
        client = ref + 0.01 * rng.standard_normal(ref.shape)
        update = _mk_update({"w": client.copy()})
        codec = TransportCodec(TransportConfig.parse("update:topk0.1+int8"))
        codec.encode_update(update, _FakeModel({"w": ref.copy()}))
        assert update.bytes_up < update.raw_bytes_up / 5
        assert update.raw_bytes_up == ref.nbytes
        # Decoded values: ref + sparse quantized delta, not the original.
        assert not np.array_equal(update.params["w"], client)
        moved = np.sum(update.params["w"] != ref)
        assert 0 < moved <= int(np.ceil(0.1 * ref.size))

    def test_error_feedback_carries_the_remainder(self, rng):
        """What one round drops, the residual feeds into the next round."""
        ref = np.zeros(100)
        delta = rng.standard_normal(100)
        codec = TransportCodec(TransportConfig.parse("update:topk0.05"))
        u1 = _mk_update({"w": ref + delta})
        codec.encode_update(u1, _FakeModel({"w": ref.copy()}))
        shipped1 = u1.params["w"] - ref
        res = codec._residuals[(0, "m0", "param", "w")]
        np.testing.assert_allclose(shipped1 + res, delta, atol=1e-12)
        # A second identical client delta now rides on the residual: the
        # cumulative shipped mass keeps growing toward the true signal.
        u2 = _mk_update({"w": ref + delta})
        codec.encode_update(u2, _FakeModel({"w": ref.copy()}))
        shipped2 = u2.params["w"] - ref
        assert np.count_nonzero(shipped2) > 0
        res2 = codec._residuals[(0, "m0", "param", "w")]
        np.testing.assert_allclose(shipped1 + shipped2 + res2, 2 * delta, atol=1e-12)

    def test_residual_resets_on_shape_change(self, rng):
        codec = TransportCodec(TransportConfig.parse("update:int8"))
        codec.encode_update(
            _mk_update({"w": rng.standard_normal(16)}),
            _FakeModel({"w": np.zeros(16)}),
        )
        assert codec._residuals[(0, "m0", "param", "w")].shape == (16,)
        # The model was transformed: same key, new capacity.
        codec.encode_update(
            _mk_update({"w": rng.standard_normal(24)}),
            _FakeModel({"w": np.zeros(24)}),
        )
        assert codec._residuals[(0, "m0", "param", "w")].shape == (24,)

    def test_non_finite_tensors_bypass_the_codec(self):
        w = np.full(32, np.nan)
        update = _mk_update({"w": w.copy()})
        codec = TransportCodec(TransportConfig.parse("update:int8"))
        codec.encode_update(update, _FakeModel({"w": np.zeros(32)}))
        np.testing.assert_array_equal(update.params["w"], w)  # poison intact
        assert update.bytes_up == w.nbytes  # shipped raw
        assert codec.state_dict()["residuals"] == []

    def test_state_dict_round_trips(self, rng):
        codec = TransportCodec(TransportConfig.parse("update:int8"))
        codec.encode_update(
            _mk_update({"w": rng.standard_normal(16)}),
            _FakeModel({"w": np.zeros(16)}),
        )
        clone = TransportCodec(TransportConfig.parse("update:int8"))
        clone.load_state_dict(codec.state_dict())
        assert set(clone._residuals) == set(codec._residuals)
        for k in codec._residuals:
            np.testing.assert_array_equal(clone._residuals[k], codec._residuals[k])

    def test_load_rejects_spec_mismatch(self):
        codec = TransportCodec(TransportConfig.parse("update:int8"))
        other = TransportCodec(TransportConfig.parse("update:bf16"))
        with pytest.raises(ValueError, match="does not match"):
            other.load_state_dict(codec.state_dict())

    def test_wire_time_reprices_the_upload_leg(self, rng):
        w = rng.standard_normal((16, 16))
        device = DeviceTrace(0, 1e9, 1e6, 1e15)
        update = _mk_update({"w": w.copy()})
        t0 = update.round_time
        codec = TransportCodec(TransportConfig.parse("update:topk0.05+int8"))
        codec.encode_update(update, _FakeModel({"w": w.copy()}), device=device,
                            wire_time=True)
        saved = (update.raw_bytes_up - update.bytes_up) / device.bandwidth
        assert update.round_time == pytest.approx(t0 - saved)


# ----------------------------------------------------------------------
# shm wire-format version tag
# ----------------------------------------------------------------------
class TestWireFormatVersion:
    def _read(self, payload: bytes):
        class _FakeShm:
            buf = memoryview(bytearray(payload))
            name = "fake"

        return shm_mod.read_snapshot_segment(_FakeShm())

    def test_old_format_fails_descriptively(self):
        # Wire format 1 led with a bare little-endian u64 header length —
        # no magic.  Its first 4 bytes are tiny-integer header bytes.
        header = json.dumps({"kind": "full"}).encode()
        old = struct.pack("<Q", len(header)) + header
        with pytest.raises(SnapshotFormatError, match="wire format 1"):
            self._read(old)

    def test_garbage_fails_descriptively(self):
        with pytest.raises(SnapshotFormatError, match="not a snapshot segment"):
            self._read(b"GIF89a" + b"\x00" * 64)

    def test_truncated_segment_fails(self):
        with pytest.raises(SnapshotFormatError, match="too small"):
            self._read(b"RS")

    def test_future_version_fails_with_both_numbers(self):
        payload = shm_mod._PREFIX.pack(shm_mod._MAGIC, 99, 2) + b"{}"
        with pytest.raises(SnapshotFormatError, match="99") as ei:
            self._read(payload)
        assert str(shm_mod.WIRE_FORMAT_VERSION) in str(ei.value)

    def test_current_segments_round_trip(self, rng):
        model = mlp((8,), 4, rng, width=8)
        seg, wire, raw = shm_mod.write_snapshot_segment(
            "t_wire_rt", "full", {model.model_id: model}
        )
        try:
            kind, models, removed, all_ids = shm_mod.read_snapshot_segment(seg)
            assert kind == "full" and wire == raw
            for k, v in model.params().items():
                np.testing.assert_array_equal(models[model.model_id].params()[k], v)
        finally:
            seg.close()
            seg.unlink()

    def test_rle_delta_segment_round_trips_against_prev(self, rng):
        model = mlp((8,), 4, rng, width=8)
        shadow: dict = {}
        seg1, w1, r1 = shm_mod.write_snapshot_segment(
            "t_rle_full", "full", {model.model_id: model}, shadow=shadow
        )
        try:
            # prev's tensors view into seg1's mapping; keep it open until
            # the delta has been decoded against them (worker semantics).
            _, prev, *_ = shm_mod.read_snapshot_segment(seg1)
            # Nudge one tensor: the delta segment rle-diffs it vs the shadow.
            params = model.params()
            key = next(iter(params))
            params[key].flat[0] += 1.0
            model.bump_version()
            seg2, w2, r2 = shm_mod.write_snapshot_segment(
                "t_rle_delta", "delta", {model.model_id: model},
                all_ids=frozenset({model.model_id}), rle=True, shadow=shadow,
            )
            try:
                kind, models, removed, all_ids = shm_mod.read_snapshot_segment(
                    seg2, prev_models=prev
                )
                assert kind == "delta" and w2 < r2  # rle actually engaged
                for k, v in model.params().items():
                    np.testing.assert_array_equal(
                        models[model.model_id].params()[k], v
                    )
            finally:
                seg2.close()
                seg2.unlink()
        finally:
            seg1.close()
            seg1.unlink()


# ----------------------------------------------------------------------
# engine integration: golden replay, cross-backend identity, checkpointing
# ----------------------------------------------------------------------
def _dataset(num_clients=12, seed=0):
    task = SyntheticTaskConfig(
        num_classes=4, input_shape=(8,), latent_dim=6, teacher_width=12,
        class_sep=3.0, seed=seed,
    )
    return build_federated_dataset(task, num_clients, mean_samples=25, seed=seed)


def _straggler_clients(ds, num_slow=2):
    return [
        FLClient(
            c.client_id,
            c,
            DeviceTrace(
                c.client_id,
                1e7 if c.client_id < num_slow else 1e9,
                2e4 if c.client_id < num_slow else 1e6,
                1e15,
            ),
        )
        for c in ds.clients
    ]


def _golden_run(mode, **over):
    ds = _dataset()
    clients = _straggler_clients(ds)
    model = mlp(ds.input_shape, ds.num_classes, np.random.default_rng(0), width=16)
    cfg = dict(
        rounds=8, clients_per_round=6, trainer=TRAINER, eval_every=4,
        seed=0, mode=mode,
    )
    cfg.update(over)
    coord = Coordinator(
        fedavg(model.clone(keep_id=True)), clients, CoordinatorConfig(**cfg)
    )
    return coord.run()


def _digest(log):
    """The golden fixture's digest, minus the byte columns (checked apart)."""
    return {
        "participants": [list(r.participants) for r in log.rounds],
        "mean_loss": [r.mean_loss for r in log.rounds],
        "round_time": [r.round_time for r in log.rounds],
        "macs": [r.macs for r in log.rounds],
        "eval_acc": [[float(a) for a in e.client_accuracy] for e in log.evals],
        "total_macs": log.total_macs,
        "dropped_updates": log.dropped_updates,
        "dropped_macs": log.dropped_macs,
    }


LOSSLESS = "update:rle,snapshot:rle"

BACKENDS = [
    pytest.param({}, id="serial"),
    pytest.param({"executor": "thread", "max_workers": 2}, id="thread"),
    pytest.param({"executor": "process", "max_workers": 2}, id="process"),
]


class TestLosslessGoldenReplay:
    """I11: lossless codecs replay the golden fixture bit-identically."""

    @pytest.fixture(scope="class")
    def golden(self):
        with open(GOLDEN) as f:
            return json.load(f)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("mode", ["sync", "async"])
    def test_matches_golden(self, golden, backend, mode):
        ref = golden[mode]
        over = dict(backend)
        if mode == "async":
            over["buffer_k"] = 3
        log = _golden_run(mode, compress=LOSSLESS, **over)
        assert _digest(log) == {
            k: v for k, v in ref.items() if k != "total_bytes_up"
        }
        # The byte split: raw equals the pre-codec golden total; the wire
        # total may only shrink.
        assert log.total_raw_bytes_up == ref["total_bytes_up"]
        assert log.total_bytes_up <= ref["total_bytes_up"]
        assert log.compress == LOSSLESS


def _norm_ids(text: str) -> str:
    ids: dict[str, str] = {}
    return re.sub(r"m\d+", lambda m: ids.setdefault(m.group(0), f"M{len(ids)}"), text)


def _export(log) -> str:
    return _norm_ids(json.dumps(log_to_dict(log), sort_keys=True))


class TestLossyDeterminism:
    """Lossy codecs change the trajectory — identically on every backend."""

    SPEC = "update:topk0.1+int8,snapshot:rle"

    @pytest.mark.parametrize("mode", ["sync", "async"])
    def test_backends_agree(self, mode):
        over = {"buffer_k": 3} if mode == "async" else {}
        ref = _export(_golden_run(mode, compress=self.SPEC, **over))
        for backend in ({"executor": "thread", "max_workers": 2},
                        {"executor": "process", "max_workers": 2}):
            assert _export(_golden_run(mode, compress=self.SPEC, **over, **backend)) == ref

    def test_lossy_bytes_shrink_hard(self):
        log = _golden_run("sync", compress=self.SPEC)
        assert log.total_raw_bytes_up / log.total_bytes_up > 5
        # ...and the trajectory is NOT the uncompressed one (it is lossy).
        raw = _golden_run("sync")
        assert [r.mean_loss for r in log.rounds] != [r.mean_loss for r in raw.rounds]

    def test_lossy_replays_itself(self):
        a = _export(_golden_run("sync", compress=self.SPEC))
        b = _export(_golden_run("sync", compress=self.SPEC))
        assert a == b


class TestLossyByteReduction:
    """The compressed-transport claim: ``update:topk0.05+int8`` ships >= 10x
    fewer update bytes than the raw run at equal final accuracy, on a
    straggler fleet (every fourth device a slow uploader) with paper-scale
    local training (Table 7: 20 local steps)."""

    SPEC = "update:topk0.05+int8,snapshot:rle"

    @staticmethod
    def _run(**over):
        task = SyntheticTaskConfig(
            num_classes=6, input_shape=(16,), latent_dim=8, teacher_width=16,
            class_sep=2.5, seed=0,
        )
        ds = build_federated_dataset(task, 16, mean_samples=40, seed=0)
        clients = [
            FLClient(
                c.client_id,
                c,
                DeviceTrace(
                    c.client_id,
                    1e7 if c.client_id % 4 == 0 else 1e9,
                    2e4 if c.client_id % 4 == 0 else 1e6,
                    1e15,
                ),
            )
            for c in ds.clients
        ]
        model = mlp(ds.input_shape, ds.num_classes, np.random.default_rng(0), width=32)
        cfg = CoordinatorConfig(
            rounds=12, clients_per_round=8,
            trainer=LocalTrainerConfig(batch_size=20, local_steps=20, lr=0.2),
            eval_every=6, seed=0, **over,
        )
        return Coordinator(fedavg(model), clients, cfg).run()

    def test_ten_x_fewer_update_bytes_at_equal_accuracy(self):
        raw = self._run()
        lossy = self._run(compress=self.SPEC)
        assert lossy.total_raw_bytes_up == raw.total_bytes_up
        assert raw.total_bytes_up / lossy.total_bytes_up >= 10
        assert lossy.evals[-1].mean_accuracy >= raw.evals[-1].mean_accuracy - 0.03


class TestCompressedCheckpointResume:
    """I9: the codec's EF residuals travel in checkpoints bit-identically."""

    SPEC = "update:topk0.2+int8"

    def _build(self, ckpt_dir=None, resume=False, **over):
        set_model_id_counter(0)
        set_cell_id_counter(0)
        ds = _dataset(num_clients=8)
        clients = _straggler_clients(ds, num_slow=0)
        model = mlp(ds.input_shape, ds.num_classes, np.random.default_rng(0), width=8)
        kw = dict(
            rounds=6, clients_per_round=4, trainer=TRAINER, eval_every=2,
            seed=0, compress=self.SPEC,
        )
        if ckpt_dir is not None:
            kw.update(checkpoint_every=2, checkpoint_dir=str(ckpt_dir), resume=resume)
        kw.update(over)
        return Coordinator(
            fedavg(model.clone(keep_id=True)), clients, CoordinatorConfig(**kw)
        )

    def test_resume_matches_uninterrupted(self, tmp_path):
        ref = _export(self._build().run())
        coord = self._build(tmp_path)
        real = coord._run_round

        def boom(round_idx, log):
            if round_idx == 4:
                raise RuntimeError("injected crash")
            return real(round_idx, log)

        coord._run_round = boom
        with pytest.raises(RuntimeError, match="injected"):
            coord.run()
        resumed = self._build(tmp_path, resume=True).run()
        assert _export(resumed) == ref

    def test_codec_state_present_in_checkpoint(self, tmp_path):
        coord = self._build(tmp_path)
        coord.run()
        payload = coord.state_dict()
        assert payload["transport"] is not None
        assert payload["transport"]["spec"] == self.SPEC
        assert payload["transport"]["residuals"]  # lossy: EF state exists


# ----------------------------------------------------------------------
# ledger export + config plumbing
# ----------------------------------------------------------------------
class TestTransportLedger:
    def test_ledger_shape_and_consistency(self, tmp_path):
        log = _golden_run(
            "sync", compress=LOSSLESS,
            executor="process", max_workers=2,
        )
        ledger = transport_to_dict(log)
        assert ledger["format"] == 1 and ledger["compress"] == LOSSLESS
        t = ledger["totals"]
        assert t["raw_bytes_up"] == sum(r["raw_bytes_up"] for r in ledger["rounds"])
        assert t["wire_bytes_up"] == sum(r["wire_bytes_up"] for r in ledger["rounds"])
        assert t["update_compression_ratio"] >= 1.0
        # Publish totals include eval-wave publishes: >= the round rows.
        assert t["publish_raw_bytes"] >= sum(
            r["publish_raw_bytes"] for r in ledger["rounds"]
        )
        assert t["publish_raw_bytes"] >= t["publish_wire_bytes"] > 0
        path = tmp_path / "transport.json"
        save_transport(log, path)
        assert json.loads(path.read_text())["totals"] == t

    def test_publish_telemetry_stays_out_of_the_run_export(self):
        """I10: log_to_dict must not leak executor publish counters."""
        log = _golden_run("sync", compress=LOSSLESS,
                          executor="process", max_workers=2)
        assert log.publish_wire_bytes_total > 0
        flat = json.dumps(log_to_dict(log))
        assert "publish" not in flat

    def test_log_checkpoint_round_trips_transport_fields(self):
        log = _golden_run("sync", compress=LOSSLESS)
        back = log_from_state(log_state_dict(log))
        assert back.compress == log.compress
        assert back.total_raw_bytes_up == log.total_raw_bytes_up
        assert [r.raw_bytes_up for r in back.rounds] == [
            r.raw_bytes_up for r in log.rounds
        ]

    def test_pre_codec_checkpoint_payload_is_refused(self):
        """A payload without the raw/wire split predates the hashed
        ``compress`` knob, so no current run can be pointed at it; the
        decoder names the missing keys instead of guessing raw == wire."""
        payload = log_state_dict(_golden_run("sync"))
        stripped = dict(payload)
        stripped.pop("compress")
        stripped.pop("total_raw_bytes_up")
        with pytest.raises(ValueError, match=r"TrainingLog payload \(dict\): missing keys "
                           r"\['compress', 'total_raw_bytes_up'\]"):
            log_from_state(stripped)
        for r in payload["rounds"]:
            r.pop("raw_bytes_up")
            r.pop("publish_raw_bytes")
            r.pop("publish_wire_bytes")
        with pytest.raises(ValueError, match=r"RoundRecord payload \(dict\): missing keys "
                           r"\['publish_raw_bytes', 'publish_wire_bytes', 'raw_bytes_up'\]"):
            log_from_state(payload)


class TestConfigPlumbing:
    def test_coordinator_rejects_bad_spec(self):
        with pytest.raises(ValueError, match="unknown update codec"):
            CoordinatorConfig(rounds=1, clients_per_round=1, trainer=TRAINER,
                              compress="update:gzip")
        with pytest.raises(ValueError, match="unknown compress scope"):
            CoordinatorConfig(compress="uplink:rle")

    def test_wire_time_requires_update_section(self):
        with pytest.raises(ValueError, match="requires a compress spec"):
            CoordinatorConfig(rounds=1, clients_per_round=1, trainer=TRAINER,
                              wire_time=True)
        with pytest.raises(ValueError, match="requires a compress spec"):
            CoordinatorConfig(rounds=1, clients_per_round=1, trainer=TRAINER,
                              compress="snapshot:rle", wire_time=True)

    def test_wire_time_shortens_compressed_rounds(self):
        slow = _golden_run("sync", compress="update:topk0.05+int8")
        fast = _golden_run("sync", compress="update:topk0.05+int8", wire_time=True)
        assert sum(r.round_time for r in fast.rounds) < sum(
            r.round_time for r in slow.rounds
        )
