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

import gc
import json
import math
import os
import pickle
import re
import struct
import time
import tracemalloc
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from forged_container import reheader
from oracle_transport import OracleCodec, residual_map, tables_payload

from repro import container
from repro.baselines import fedavg
from repro.bench import active_profile, build_dataset, run_method
from repro.data import SyntheticTaskConfig, build_federated_dataset
from repro.device import DeviceTrace
from repro.fl import (
    Coordinator,
    CoordinatorConfig,
    FLClient,
    LocalTrainerConfig,
    TransportCodec,
    TransportConfig,
    log_to_dict,
)
from repro.fl.export import transport_to_dict
from repro.fl.shm import SnapshotFormatError
from repro.fl import shm as shm_mod
from repro.fl.export import log_from_state, log_state_dict, save_transport
from repro.fl.transport import (
    _put_varint,
    bf16_decode,
    bf16_encode,
    decode_indices,
    encode_indices,
    rle_decode_bytes,
    rle_encode_bytes,
)
from repro.fl.types import ClientUpdate
from repro.nn import mlp, small_cnn
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

    def test_topk_rate_keeps_every_digit(self):
        """``:g`` keeps six significant digits; the canonical spec (and so
        ``TrainingLog.compress``) must name the rate that ran."""
        cfg = TransportConfig.parse("update:topk0.0123456789+int8")
        assert cfg.spec == "update:topk0.0123456789+int8"
        assert TransportConfig.parse("update:topk0.05+int8").spec == "update:topk0.05+int8"

    @settings(max_examples=400, deadline=None)
    @given(
        st.one_of(
            st.text(),
            st.lists(
                st.one_of(
                    st.sampled_from(["update:", "snapshot:", "update:rle", "snapshot:rle", ","]),
                    st.sampled_from(["int8", "bf16", "rle", "topk", "+", " "]),
                    st.floats(allow_nan=True, allow_infinity=True).map(repr),
                    st.text(max_size=3),
                ),
                max_size=8,
            ).map("".join),
            # Grammar-shaped: an update chain with any topk rate in (0, 1].
            st.tuples(
                st.lists(
                    st.one_of(
                        st.sampled_from(["int8", "bf16", "rle"]),
                        st.floats(0, 1, exclude_min=True).map(lambda r: f"topk{r!r}"),
                    ),
                    min_size=1,
                    max_size=3,
                ).map("+".join),
                st.sampled_from(["", ",snapshot:rle"]),
            ).map(lambda parts: f"update:{parts[0]}{parts[1]}"),
        )
    )
    def test_any_text_is_rejected_or_round_trips(self, spec):
        """Arbitrary text either raises ``ValueError`` or parses to a
        config whose canonical spec parses back to an equal config."""
        try:
            cfg = TransportConfig.parse(spec)
        except ValueError:
            return
        assert TransportConfig.parse(cfg.spec) == cfg


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


class TestHostileVarints:
    """ROADMAP 5a: both varint-framed decoders (the top-k index stream and
    the ``rle`` byte diff the snapshot reader decodes) take any bytes and
    either decode them to something that encodes back to the same value or
    raise the stream's ``ValueError`` — never another error, never slowly."""

    @settings(max_examples=300, deadline=None)
    @given(encoded=st.binary(max_size=64))
    def test_index_stream_round_trips_or_raises(self, encoded):
        try:
            idx, n = decode_indices(encoded)
        except ValueError as err:
            assert "corrupt top-k index stream" in str(err)
            return
        back, n_back = decode_indices(encode_indices(idx, n))
        assert n_back == n
        np.testing.assert_array_equal(back, idx)

    @settings(max_examples=300, deadline=None)
    @given(encoded=st.binary(max_size=64), ref=st.binary(max_size=48))
    def test_rle_stream_round_trips_or_raises(self, encoded, ref):
        try:
            data = rle_decode_bytes(encoded, ref)
        except ValueError as err:
            assert "corrupt rle stream" in str(err)
            return
        assert len(data) == len(ref)
        again = rle_encode_bytes(data, ref)
        assert again is None or rle_decode_bytes(again, ref) == data

    @pytest.mark.parametrize(
        "decode,stream",
        [(decode_indices, "top-k index"), (lambda b: rle_decode_bytes(b, b"r" * 64), "rle")],
        ids=["index", "rle"],
    )
    def test_a_megabyte_of_continuation_bytes_is_refused_at_once(self, decode, stream):
        hostile = b"\xff" * (1 << 20) + b"\x01"
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"corrupt {stream} stream: varint longer"):
            decode(hostile)
        assert time.perf_counter() - start < 0.05

    def test_an_index_space_past_int64_is_refused(self):
        """A header ``n`` past int64 let a valid-looking run start beyond the
        index dtype: ``np.arange`` raised ``OverflowError``, not the
        stream's error."""
        buf = bytearray()
        for value in (1 << 69, 1, 1 << 64, 1):  # n, k, one (gap, run) pair
            _put_varint(buf, value)
        with pytest.raises(ValueError, match="corrupt top-k index stream"):
            decode_indices(bytes(buf))

    def test_the_longest_varint_the_encoder_writes_still_decodes(self):
        n = (1 << 63) - 1  # nine bytes: the encoder's longest varint
        buf = bytearray()
        _put_varint(buf, n)
        assert len(buf) == 9
        back, n_back = decode_indices(bytes(buf) + b"\x00")
        assert n_back == n and back.size == 0


def _int8_wire(x):
    """One tensor through the engine's ``update:int8`` codec (no reference,
    no residual yet): ``(decoded values, wire bytes)``."""
    update = _mk_update({"w": x.copy()})
    TransportCodec(TransportConfig.parse("update:int8")).encode_update(update)
    return update.params["w"], update.bytes_up


class TestQuantizers:
    def test_int8_error_bounded_by_half_scale(self, rng):
        for _ in range(20):
            x = rng.standard_normal(int(rng.integers(1, 200))) * float(
                rng.uniform(0.01, 100)
            )
            back, wire = _int8_wire(x)
            scale = float(np.max(np.abs(x))) / 127.0
            assert wire == x.size + 8  # one byte per element + the float64 scale
            assert np.max(np.abs(back - x)) <= scale / 2 + 1e-12

    def test_int8_zero_and_empty(self):
        back, wire = _int8_wire(np.zeros(5))
        np.testing.assert_array_equal(back, np.zeros(5))
        assert wire == 5 + 8
        back, wire = _int8_wire(np.zeros(0))
        assert back.shape == (0,) and wire == 8

    def test_int8_is_deterministic(self, rng):
        x = rng.standard_normal(64)
        (a, wire_a), (b, wire_b) = _int8_wire(x), _int8_wire(x.copy())
        assert a.tobytes() == b.tobytes() and wire_a == wire_b

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
        assert codec.state_dict()["tables"] == []  # lossless: no EF state

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
        res = codec.residual(0, "m0", "param", "w").copy()
        np.testing.assert_allclose(shipped1 + res, delta, atol=1e-12)
        # A second identical client delta now rides on the residual: the
        # cumulative shipped mass keeps growing toward the true signal.
        u2 = _mk_update({"w": ref + delta})
        codec.encode_update(u2, _FakeModel({"w": ref.copy()}))
        shipped2 = u2.params["w"] - ref
        assert np.count_nonzero(shipped2) > 0
        res2 = codec.residual(0, "m0", "param", "w")
        np.testing.assert_allclose(shipped1 + shipped2 + res2, 2 * delta, atol=1e-12)

    def test_residual_resets_on_shape_change(self, rng):
        codec = TransportCodec(TransportConfig.parse("update:int8"))
        codec.encode_update(
            _mk_update({"w": rng.standard_normal(16)}),
            _FakeModel({"w": np.zeros(16)}),
        )
        assert codec.residual(0, "m0", "param", "w").shape == (16,)
        # The model was transformed: same key, new capacity.
        codec.encode_update(
            _mk_update({"w": rng.standard_normal(24)}),
            _FakeModel({"w": np.zeros(24)}),
        )
        assert codec.residual(0, "m0", "param", "w").shape == (24,)
        assert list(residual_map(codec.state_dict())) == [(0, "m0", "param", "w")]

    def test_non_finite_tensors_bypass_the_codec(self):
        w = np.full(32, np.nan)
        update = _mk_update({"w": w.copy()})
        codec = TransportCodec(TransportConfig.parse("update:int8"))
        codec.encode_update(update, _FakeModel({"w": np.zeros(32)}))
        np.testing.assert_array_equal(update.params["w"], w)  # poison intact
        assert update.bytes_up == w.nbytes  # shipped raw
        assert codec.state_dict()["tables"] == []

    def test_state_dict_round_trips(self, rng):
        codec = TransportCodec(TransportConfig.parse("update:int8"))
        codec.encode_update(
            _mk_update({"w": rng.standard_normal(16)}),
            _FakeModel({"w": np.zeros(16)}),
        )
        clone = TransportCodec(TransportConfig.parse("update:int8"))
        clone.load_state_dict(codec.state_dict())
        got, want = residual_map(clone.state_dict()), residual_map(codec.state_dict())
        assert {k: _bits(v) for k, v in got.items()} == {k: _bits(v) for k, v in want.items()}

    def test_state_dict_is_one_table_per_layout(self, rng):
        """Rows in the order clients first shipped, one per client, a
        ``present`` flag per tensor, values in whole chunks but the last."""
        codec = TransportCodec(TransportConfig.parse("update:int8"))
        for cid in (3, 1, 2):
            codec.encode_update(
                _mk_update({"w": rng.standard_normal(4), "b": rng.standard_normal(2)}, cid=cid),
                _FakeModel({"w": np.zeros(4), "b": np.zeros(2)}),
            )
        (table,) = codec.state_dict()["tables"]
        assert {k: v for k, v in table.items() if k not in ("client_id", "present", "values")} == {
            "model_id": "m0", "scope": "param", "dtype": "<f8", "keys": ["w", "b"],
            "shapes": [[4], [2]],
        }
        assert table["client_id"].tolist() == [3, 1, 2]
        assert table["present"].tolist() == [[True, True]] * 3
        (values,) = table["values"]
        for row, cid in zip(values, (3, 1, 2)):
            np.testing.assert_array_equal(row[:4], codec.residual(cid, "m0", "param", "w"))
            np.testing.assert_array_equal(row[4:], codec.residual(cid, "m0", "param", "b"))

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


    def test_a_non_finite_delta_plus_residual_ships_raw(self):
        """A finite client tensor whose delta overflows ships raw, like a
        poisoned one: values and residual untouched, raw bytes metered, and
        the codec's payload still loads."""
        big = np.float32(3e38)
        for spec in ("update:int8", "update:topk0.5+int8", "update:bf16", "update:topk0.5"):
            codec = TransportCodec(TransportConfig.parse(spec))
            w = np.full(4, big, dtype=np.float32)
            update = _mk_update({"w": w.copy(), "v": np.ones(3, dtype=np.float32)})
            codec.encode_update(update, _FakeModel({"w": -w, "v": np.zeros(3, dtype=np.float32)}))
            np.testing.assert_array_equal(update.params["w"], w)
            assert codec.residual(0, "m0", "param", "w") is None
            assert codec.residual(0, "m0", "param", "v") is not None
            assert update.bytes_up > w.nbytes  # w raw, plus v encoded
            TransportCodec(codec.config).load_state_dict(codec.state_dict())

    def test_a_bf16_overflow_ships_raw(self):
        """float64 past bfloat16's range would decode to inf and leave an
        infinite residual the checkpoint reader refuses: it ships raw."""
        codec = TransportCodec(TransportConfig.parse("update:bf16"))
        w = np.array([1e39, 1.0])
        update = _mk_update({"w": w.copy()})
        codec.encode_update(update)
        np.testing.assert_array_equal(update.params["w"], w)
        assert update.bytes_up == w.nbytes and codec.state_dict()["tables"] == []

    def test_a_residual_of_another_dtype_is_reset(self):
        codec = TransportCodec(TransportConfig.parse("update:int8"))
        codec.load_state_dict(tables_payload(
            codec.config.spec, {(0, "m0", "param", "w"): np.ones(4, dtype=np.float32)}
        ))
        codec.encode_update(_mk_update({"w": np.linspace(0.0, 1.0, 4)}))
        assert codec.residual(0, "m0", "param", "w").dtype == np.float64
        assert len(residual_map(codec.state_dict())) == 1

    def test_a_flush_carries_one_update_per_owner(self):
        """Two updates of one (client, model) would each read the residual
        the other leaves: a flush holds at most one."""
        codec = TransportCodec(TransportConfig.parse("update:int8"))
        with pytest.raises(ValueError, match="one update per"):
            codec.encode_update([_mk_update({"w": np.ones(2)}) for _ in range(2)])

    def test_a_flush_needs_one_reference_and_device_per_update(self):
        codec = TransportCodec(TransportConfig.parse("update:int8"))
        with pytest.raises(ValueError, match="2 updates got 1 references"):
            codec.encode_update([_mk_update({"w": np.ones(2)}, cid=c) for c in (0, 1)], [None])


# ----------------------------------------------------------------------
# residual storage: tables written in place, checkpointed without a copy
# ----------------------------------------------------------------------
def _array_leaves(node):
    if isinstance(node, np.ndarray):
        yield node
    elif isinstance(node, dict):
        for value in node.values():
            yield from _array_leaves(value)
    elif isinstance(node, list):
        for value in node:
            yield from _array_leaves(value)


class TestResidualTables:
    """The residuals live in one table per (model, scope), whose layout is
    that tree's dtype, keys and shapes: a checkpoint payload is views of
    that storage, and a flush of clients the codec has seen writes their
    rows in place."""

    CLIENTS = 150  # three chunks of the m0 table

    def _flush(self, codec, seed):
        """One flush: every client of ``m0`` (params ``w``, ``b``; state
        ``s``) and every third of ``m1``."""
        rng = np.random.default_rng(seed)
        updates = [
            _mk_update(
                {"w": rng.standard_normal((16, 32)), "b": rng.standard_normal(32)},
                {"s": rng.standard_normal(32)}, cid=cid,
            )
            for cid in range(self.CLIENTS)
        ] + [
            _mk_update({"w": rng.standard_normal(40)}, cid=cid, mid="m1")
            for cid in range(0, self.CLIENTS, 3)
        ]
        codec.encode_update(updates)

    def _codec(self):
        codec = TransportCodec(TransportConfig.parse("update:topk0.1+int8"))
        self._flush(codec, 0)
        return codec

    def test_every_payload_array_is_a_view_of_the_live_tables(self):
        codec = self._codec()
        tracemalloc.start()
        try:
            payload = codec.state_dict()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        leaves = list(_array_leaves(payload))
        stored = sum(leaf.nbytes for leaf in leaves)
        assert stored > 600_000 and peak < stored // 20  # no residual is copied
        again = list(_array_leaves(codec.state_dict()))
        # Per table client_id, present and its chunks: m0's params and
        # state (150 rows, three chunks each), m1's params (50 rows, one).
        assert len(leaves) == len(again) == (2 + 3) * 2 + (2 + 1)
        for leaf, twin in zip(leaves, again):
            assert np.shares_memory(leaf, twin)
        values = [v for table in payload["tables"] for v in table["values"]]
        for key in residual_map(payload):
            view = codec.residual(*key)
            assert sum(np.shares_memory(view, v) for v in values) == 1

    def test_a_warm_flush_writes_the_rows_in_place(self):
        codec = self._codec()
        self._flush(codec, 1)  # warm: every row exists
        payload = codec.state_dict()
        before = {k: v.copy() for k, v in residual_map(payload).items()}
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            self._flush(codec, 2)
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - held
        finally:
            tracemalloc.stop()
        assert grown < 4096  # no new residual storage
        # The earlier payload's views read the new residuals.
        now = residual_map(payload)
        assert now.keys() == before.keys() and len(now) == 3 * self.CLIENTS + self.CLIENTS // 3
        assert all(not np.array_equal(now[k], before[k]) for k in now)
        assert {k: _bits(v) for k, v in now.items()} == {
            k: _bits(v) for k, v in residual_map(codec.state_dict()).items()
        }


# ----------------------------------------------------------------------
# the traffic the one-table rule rests on
# ----------------------------------------------------------------------
@cache
def _traffic(method: str, mode: str) -> tuple:
    """One ``update:topk0.05+int8`` run of ``method`` (async with the
    ``downsize`` straggler policy), checked after every round: no model id
    changes its (dtype, keys, shapes) and the codec deletes no residual
    table.  The baselines run on that mode's FedTrans run's largest model.
    Returns ``(peak suite size, tables the codec made, the strategy)``."""
    profile = active_profile("femnist_like", override="tiny").with_(rounds=40)
    over = dict(compress="update:topk0.05+int8")
    if mode == "async":
        over.update(mode="async", straggler="downsize")
    largest = None
    if method != "fedtrans":
        suite = _traffic("fedtrans", mode)[2].models()
        largest = max(suite.values(), key=lambda m: m.macs())
    layouts, tables, sizes = {}, {}, []
    run_round = Coordinator._run_round

    def watched(coord, round_idx, log):
        record = run_round(coord, round_idx, log)
        for mid, model in coord.strategy.models().items():
            layout = (_layout(model.params()), _layout(model.state()))
            assert layouts.setdefault(mid, layout) == layout, f"{mid} changed layout"
        for owner, table in coord.transport._tables.items():
            tables.setdefault(owner, table)
        deleted = [o for o, t in tables.items() if coord.transport._tables.get(o) is not t]
        assert not deleted, f"round {round_idx} deleted the residual tables of {deleted}"
        sizes.append(len(coord.strategy.models()))
        return record

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Coordinator, "_run_round", watched)
        res = run_method(
            method, build_dataset(profile, seed=0), profile, seed=0,
            global_model=largest, coordinator_overrides=over,
        )
    assert len(sizes) == profile.rounds
    return max(sizes), len(tables), res.strategy


class TestOneLayoutPerModel:
    """CONTRACTS.md I11's one table per (model, scope) rests on this: a
    model id keeps its tree layout for life.  FedTrans derives new model
    ids by transformation; HeteroFL, FLuID and SplitMix keep one shape per
    id.  So no lossy run, sync or async, resets a table, and a tree that
    could not be one table's row is refused."""

    @pytest.mark.parametrize("mode", ["sync", "async"])
    @pytest.mark.parametrize("method", ["fedtrans", "heterofl", "fluid", "splitmix"])
    def test_no_run_changes_a_models_layout(self, method, mode):
        peak_models, tables, _ = _traffic(method, mode)
        assert tables > 0
        if method == "fedtrans":
            assert peak_models > 1  # at least one transform fired

    def test_a_tree_of_mixed_dtypes_is_refused(self):
        """A table is one dtype wide: a tree that mixes dtypes names its
        model and scope, before the flush resets or writes any table."""
        codec = TransportCodec(TransportConfig.parse("update:int8"))
        codec.encode_update(_mk_update({"w": np.ones(4)}))
        before = {k: _bits(v) for k, v in residual_map(codec.state_dict()).items()}
        mixed = _mk_update(
            {"w": np.ones(5)}, {"s": np.ones(2), "t": np.ones(2, dtype=np.float32)}, cid=1
        )
        with pytest.raises(ValueError, match=r"m0 state: .* mixes \['<f4', '<f8'\]"):
            codec.encode_update([_mk_update({"w": np.zeros(3)}, mid="m1"), mixed])
        assert {k: _bits(v) for k, v in residual_map(codec.state_dict()).items()} == before

    def test_a_flush_carries_one_layout_per_model_and_scope(self):
        codec = TransportCodec(TransportConfig.parse("update:int8"))
        updates = [_mk_update({"w": np.ones(4)}), _mk_update({"w": np.ones(5)}, cid=1)]
        with pytest.raises(ValueError, match="m0 param: a flush carries one layout"):
            codec.encode_update(updates)
        assert codec.state_dict()["tables"] == []


# ----------------------------------------------------------------------
# the flush encoder == the per-tensor oracle (tests/oracle_transport.py)
# ----------------------------------------------------------------------
_LOSSY_SPECS = (
    "update:topk0.05",
    "update:topk0.3",
    "update:int8",
    "update:bf16",
    "update:topk0.05+int8",
    "update:topk0.3+int8",
    "update:topk0.1+bf16",
    "update:topk0.3+bf16",
)
_SHAPES = st.sampled_from(
    [(0,), (1,), (2,), (7,), (33,), (4, 5), (0, 3), (16, 8), (3, 1, 2), (600,)]
)


@st.composite
def _flush_runs(draw):
    """A codec spec and dtype, 1-3 models' (param, state) shape lists, and
    1-2 flushes of 1-16 ``(client, model)`` updates."""
    num_models = draw(st.integers(1, 3))
    return dict(
        spec=draw(st.sampled_from(_LOSSY_SPECS)),
        dtype=draw(st.sampled_from([np.float64, np.float32])),
        layouts=[
            (draw(st.lists(_SHAPES, min_size=1, max_size=4)), draw(st.lists(_SHAPES, max_size=2)))
            for _ in range(num_models)
        ],
        flushes=draw(
            st.lists(
                st.lists(
                    st.tuples(st.integers(0, 7), st.integers(0, num_models - 1)),
                    min_size=1, max_size=16, unique=True,
                ),
                min_size=1, max_size=2,
            )
        ),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


def _tensor(rng, shape, dtype, ref=None):
    """A client tensor: ``ref`` plus a delta that is Gaussian, tied (a few
    exact values), zero, spiky (a few large values among zeros: long
    index-stream gaps), on int8's half steps, or the client tensor is all
    -0.0 or poisoned with a NaN/Inf."""
    kind = rng.choice(
        ["normal", "tied", "zero", "spiky", "half-step", "signed-zero", "poison"],
        p=[0.3, 0.2, 0.1, 0.1, 0.1, 0.1, 0.1],
    )
    size = math.prod(shape)
    if kind in ("normal", "poison"):
        delta = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 2)
    elif kind == "tied":
        delta = rng.integers(-2, 3, shape) * 0.5
    elif kind == "spiky":
        delta = np.zeros(size)
        delta[rng.integers(size, size=min(size, 3))] = rng.standard_normal(min(size, 3)) * 5
        delta = delta.reshape(shape)
    elif kind == "half-step":
        # x / (max|x| / 127) lands on n + 0.5: rounding there depends on
        # the dtype the division runs in.
        top = float(rng.uniform(0.1, 10.0))
        delta = top * (rng.integers(-127, 127, shape) + 0.5) / 127
        if size:
            delta.flat[0] = top
    else:
        delta = np.zeros(shape)
    if kind == "signed-zero":
        return np.full(shape, -0.0, dtype=dtype)
    arr = (delta if ref is None else ref + delta).astype(dtype)
    if kind == "poison" and arr.size:
        arr.flat[rng.integers(arr.size)] = rng.choice([np.nan, np.inf, -np.inf])
    return arr


def _flush_world(rng, run):
    """Per model: the shared reference, its keys and shapes."""
    dtype = run["dtype"]
    models = []
    for j, (param_shapes, state_shapes) in enumerate(run["layouts"]):
        trees = []
        for prefix, shapes in (("p", param_shapes), ("s", state_shapes)):
            trees.append({
                f"{prefix}{t}": [
                    lambda: rng.integers(-8, 9, shape) * 0.25,  # exact deltas: ties
                    lambda: rng.standard_normal(shape),
                    lambda: np.zeros(shape),  # deltas are the client values
                ][rng.integers(3)]().astype(dtype)
                for t, shape in enumerate(shapes)
            })
        models.append((f"m{j}", _FakeModel(*trees)))
    return models


def _reference_for(rng, model: "_FakeModel", dtype):
    """The model's own reference most of the time; else none, or a copy
    with one tensor reshaped or retyped (the codec must then drop it)."""
    kind = rng.choice(["model", "none", "reshaped", "retyped"], p=[0.7, 0.1, 0.1, 0.1])
    if kind == "model":
        return model
    if kind == "none":
        return None
    params = dict(model.params())
    key = rng.choice(sorted(params))
    if kind == "reshaped":
        params[key] = np.zeros(params[key].size + 1, dtype=dtype)
    else:
        params[key] = params[key].astype(np.float32 if dtype == np.float64 else np.float64)
    return _FakeModel(params, model.state())


def _layout(tree: dict) -> tuple:
    """What a residual table is of: its tensors' keys, dtypes and shapes."""
    return tuple((key, arr.dtype.str, arr.shape) for key, arr in tree.items())


def _seed_residuals(rng, flush_codec, oracle, models, dtype) -> dict:
    """The same pre-existing residuals in both codecs, at most one layout
    per (model, scope): none, the model's current one, or a stale one
    (every tensor resized, or of the other dtype), a random subset of each
    client's tensors.  Returns the seeded (model, scope) layouts."""
    other = np.float32 if dtype == np.float64 else np.float64
    layouts, seen = {}, {}
    for mid, model in models:
        for scope, tree in (("param", model.params()), ("state", model.state())):
            kind = rng.choice(["none", "current", "resized", "retyped"], p=[0.3, 0.5, 0.1, 0.1])
            if kind == "none" or not tree:
                continue
            shapes = [(ref.size + 2,) if kind == "resized" else ref.shape for ref in tree.values()]
            res_dtype = other if kind == "retyped" else dtype
            for cid in range(8):
                for key, shape in zip(tree, shapes):
                    if rng.random() < 0.6:
                        res = (rng.standard_normal(shape) * 0.01).astype(res_dtype)
                        oracle._residuals[(cid, mid, scope, key)] = res
            layouts[(mid, scope)] = (list(tree), shapes)
            seen[(mid, scope)] = tuple(
                (key, np.dtype(res_dtype).str, shape) for key, shape in zip(tree, shapes)
            )
    flush_codec.load_state_dict(tables_payload(oracle.config.spec, oracle._residuals, layouts))
    return seen


def _reset_relaid(oracle, seen: dict, models) -> None:
    """The flush encoder's rule, applied to the oracle's dict: a (model,
    scope) whose tree comes in another layout than the one last seen loses
    its residuals."""
    for mid, model in models:
        for scope, tree in (("param", model.params()), ("state", model.state())):
            layout = _layout(tree)
            if tree and seen.setdefault((mid, scope), layout) != layout:
                oracle._residuals = {
                    k: v for k, v in oracle._residuals.items() if k[1:3] != (mid, scope)
                }
                seen[(mid, scope)] = layout


def _transform(rng, models, dtype):
    """Half the time, one model changes layout between two flushes: a
    tensor resized, or one added (its next flush resets its param
    residuals)."""
    if rng.random() < 0.5:
        return
    j = rng.integers(len(models))
    mid, model = models[j]
    params = dict(model.params())
    if rng.random() < 0.5:
        key = rng.choice(sorted(params))
        params[key] = rng.standard_normal(params[key].size + 3).astype(dtype)
    else:
        params[f"p{len(params)}x"] = rng.standard_normal(5).astype(dtype)
    models[j] = (mid, _FakeModel(params, model.state()))


def _bits(arr: np.ndarray) -> tuple:
    return arr.dtype.str, arr.shape, arr.tobytes()


class TestFlushOracle:
    """CONTRACTS.md I11: one ``encode_update`` call per flush gives, update
    by update, the bytes of the per-tensor codec it replaced, once the
    oracle drops the residuals of a (model, scope) that changed layout."""

    @settings(max_examples=200, deadline=None)
    @given(run=_flush_runs())
    def test_a_flush_encodes_like_the_per_tensor_oracle(self, run):
        rng = np.random.default_rng(run["seed"])
        dtype = run["dtype"]
        cfg = TransportConfig.parse(run["spec"])
        flush_codec, oracle = TransportCodec(cfg), OracleCodec(cfg)
        models = _flush_world(rng, run)
        seen = _seed_residuals(rng, flush_codec, oracle, models, dtype)
        for flush in run["flushes"]:
            _reset_relaid(oracle, seen, [models[j] for j in sorted({j for _, j in flush})])
            updates, twins, refs, devices = [], [], [], []
            for cid, j in flush:
                mid, model = models[j]
                ref = _reference_for(rng, model, dtype)
                params = {k: _tensor(rng, r.shape, dtype, r) for k, r in model.params().items()}
                state = {k: _tensor(rng, r.shape, dtype, r) for k, r in model.state().items()}
                for out in (updates, twins):
                    out.append(_mk_update(
                        {k: v.copy() for k, v in params.items()},
                        {k: v.copy() for k, v in state.items()},
                        cid=cid, mid=mid,
                    ))
                refs.append(ref)
                devices.append(DeviceTrace(cid, 1e9, float(rng.uniform(1e3, 1e7)), 1e15))
            flush_codec.encode_update(updates, refs, device=devices, wire_time=True)
            for twin, ref, device in zip(twins, refs, devices):
                oracle.encode_update(twin, ref, device=device, wire_time=True)
            for got, want in zip(updates, twins):
                assert got.bytes_up == want.bytes_up
                assert struct.pack("<d", got.round_time) == struct.pack("<d", want.round_time)
                for tree, oracle_tree in ((got.params, want.params), (got.state, want.state)):
                    assert list(tree) == list(oracle_tree)
                    assert {k: _bits(v) for k, v in tree.items()} == {
                        k: _bits(v) for k, v in oracle_tree.items()
                    }
            assert {k: _bits(v) for k, v in residual_map(flush_codec.state_dict()).items()} == {
                k: _bits(v) for k, v in oracle._residuals.items()
            }
            assert all(
                _bits(flush_codec.residual(*k)) == _bits(v) for k, v in oracle._residuals.items()
            )
            _transform(rng, models, dtype)
        got, want = flush_codec.state_dict(), oracle.state_dict()
        assert got.keys() == want.keys()
        assert (got["schema"], got["spec"]) == (want["schema"], want["spec"])
        assert {k: _bits(v) for k, v in residual_map(got).items()} == {
            k: _bits(v) for k, v in residual_map(want).items()
        }
        # And the tables load back to themselves.
        clone = TransportCodec(cfg)
        clone.load_state_dict(got)
        assert {k: _bits(v) for k, v in residual_map(clone.state_dict()).items()} == {
            k: _bits(v) for k, v in residual_map(got).items()
        }


# ----------------------------------------------------------------------
# shm wire-format version tag
# ----------------------------------------------------------------------
class _FakeShm:
    """A segment's bytes in a private buffer: all the reader touches."""

    name = "fake"

    def __init__(self, payload: bytes):
        self.buf = memoryview(bytearray(payload))


def _read(payload: bytes):
    return shm_mod.read_snapshot_segment(_FakeShm(payload))


class TestWireFormatVersion:
    def _read(self, payload: bytes):
        return _read(payload)

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
        payload = container._PREFIX.pack(container._MAGIC, 99, 2) + b"{}"
        with pytest.raises(SnapshotFormatError, match="99") as ei:
            self._read(payload)
        assert str(container.FORMAT) in str(ei.value)

    def test_current_segments_round_trip(self, rng):
        model = mlp((8,), 4, rng, width=8)
        seg, nbytes = shm_mod.write_snapshot_segment(
            "t_wire_rt", "full", {model.model_id: model}
        )
        try:
            (got,) = shm_mod.read_snapshot_segment(seg).values()
            tensor_bytes = sum(a.nbytes for a in (*model.params().values(), *model.state().values()))
            assert tensor_bytes < nbytes < tensor_bytes + 4096  # raw tensors + the header
            for k, v in model.params().items():
                np.testing.assert_array_equal(got.params()[k], v)
        finally:
            seg.close()
            seg.unlink()

    def test_a_segment_holds_the_full_suite_only(self, rng):
        model = mlp((8,), 4, rng, width=8)
        with pytest.raises(ValueError, match="'delta'"):
            shm_mod.write_snapshot_segment("t_wire_delta", "delta", {model.model_id: model})
        assert not shm_mod.segment_exists("t_wire_delta")


def _signature(models) -> dict:
    """What a reader can check of a suite: ids, cell types, tensor keys,
    shapes and dtypes."""
    return {
        mid: (
            [type(cell).__name__ for cell in model.cells],
            {
                (scope, key): (arr.shape, arr.dtype.str)
                for scope, tree in (("param", model.params()), ("state", model.state()))
                for key, arr in tree.items()
            },
        )
        for mid, model in models.items()
    }


@cache
def _segments() -> tuple[bytes, dict]:
    """A segment (an MLP, and a CNN with BatchNorm state) and the suite's
    signature."""
    rng = np.random.default_rng(0)
    models = {
        m.model_id: m
        for m in (mlp((8,), 4, rng, width=8), small_cnn((3, 8, 8), 4, rng, width=4))
    }
    seg, _ = shm_mod.write_snapshot_segment(f"t_hostile_{os.getpid()}", "full", models)
    payload = bytes(seg.buf)
    seg.close()
    seg.unlink()
    return payload, _signature(models)


def _set(container, key, value) -> None:
    container[key] = value


def _cnn(h) -> dict:
    """The header entry of the CNN (the model with BatchNorm state)."""
    return next(meta for meta in h["models"].values() if meta["state"])


def _first_param(h):
    """The CNN's first parameter leaf (its stem's conv weight)."""
    return next(iter(_cnn(h)["param"].values()))


def _marker(h) -> list:
    return _first_param(h)["__array__"]


# Each alters one field of a good header in place; every one must be refused.
_HEADER_TAMPERS = {
    "misaligned arena offset": lambda h: _set(h["arenas"]["<f8"], 0, 8),
    "negative arena offset": lambda h: _set(h["arenas"]["<f8"], 0, -64),
    "arena past the segment": lambda h: _set(h["arenas"]["<f8"], 1, 1 << 40),
    "arena entry not a pair": lambda h: _set(h["arenas"], "<f8", [0]),
    "object arena dtype": lambda h: _set(h["arenas"], "|O", [0, 1]),
    "object dtype for the float arena": lambda h: _set(h["arenas"], "|O", h["arenas"].pop("<f8")),
    "void arena dtype": lambda h: _set(h["arenas"], "|V8", [0, 1]),
    "unknown arena dtype": lambda h: _set(h["arenas"], "<q9", [0, 1]),
    "marker past its arena": lambda h: _set(_marker(h), 1, h["arenas"]["<f8"][1]),
    "marker shape overruns its arena": lambda h: _set(_marker(h), 2, [h["arenas"]["<f8"][1] + 1]),
    "marker names no arena": lambda h: _set(_marker(h), 0, "<f4"),
    "shape disagrees with the spec": lambda h: _set(_marker(h), 2, [math.prod(_marker(h)[2])]),
    "missing tensor key": lambda h: _cnn(h)["param"].popitem(),
    "missing state key": lambda h: _cnn(h)["state"].popitem(),
    "extra tensor key": lambda h: _set(_cnn(h)["param"], "extra", _first_param(h)),
    "param filed as state": lambda h: _cnn(h)["state"].update([_cnn(h)["param"].popitem()]),
    "model under another id": lambda h: _set(
        h, "models", {mid + "x": meta for mid, meta in h["models"].items()}
    ),
    "spec of another architecture": lambda h: _set(_cnn(h)["spec"]["cells"][1], "out_channels", 5),
    "unknown cell type": lambda h: _set(_cnn(h)["spec"]["cells"][0], "type", "Gadget"),
    "spec not an object": lambda h: _set(_cnn(h), "spec", []),
    "model version entry": lambda h: _set(_cnn(h), "version", 2),
    "retired header key": lambda h: _set(h, "kind", "full"),
    "missing header key": lambda h: h.pop("models"),
}

class TestHostileSnapshots:
    """ROADMAP 5a at the RSNP boundary: a truncated or altered segment
    either decodes to a suite of the written architecture, keys and
    shapes, or is a ``SnapshotFormatError`` — never another exception, an
    unpickle, or an allocation beyond a small multiple of the segment."""

    @staticmethod
    def _decode(payload: bytes):
        tracemalloc.start()
        try:
            return _read(payload)
        except SnapshotFormatError:
            return None
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            assert peak <= 4 * len(payload) + (1 << 20)

    def test_good_segments_decode(self):
        good, written = _segments()
        assert _signature(_read(good)) == written

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_altered_bytes_decode_or_refuse(self, data):
        good, written = _segments()
        if data.draw(st.booleans(), label="truncate"):
            bad = good[: data.draw(st.integers(0, len(good) - 1), label="keep")]
        else:
            start = data.draw(st.integers(0, len(good) - 1), label="start")
            masks = data.draw(st.lists(st.integers(1, 255), min_size=1, max_size=4), label="xor")
            bad = bytearray(good)
            for i, mask in enumerate(masks[: len(good) - start]):
                bad[start + i] ^= mask
            bad = bytes(bad)
        models = self._decode(bad)
        if models is not None:
            assert _signature(models) == written

    @pytest.mark.parametrize("mask", [0x01, 0x10, 0x20, 0x80])
    def test_each_header_byte_flip_is_refused_or_decodes_the_written_suite(self, mask):
        """The deterministic sweep beside the property above: every byte of
        the prefix and the JSON header, XOR ``mask``.  A segment has no
        CRC-32, so a flip the header still parses under (a lineage digit, a
        marker offset inside its arena) decodes, to the written signature."""
        good, written = _segments()
        end = container._PREFIX.size + container._PREFIX.unpack_from(good, 0)[2]
        for i in range(end):
            bad = bytearray(good)
            bad[i] ^= mask
            try:
                models = _read(bytes(bad))
            except SnapshotFormatError:
                continue
            assert _signature(models) == written, i

    def test_a_model_entry_is_its_spec_and_tensor_markers(self):
        full, written = _segments()
        header, _ = container.read_frame(full)
        assert header.keys() == {"arenas", "models"} and header["models"].keys() == written.keys()
        assert all(meta.keys() == {"spec", "param", "state"} for meta in header["models"].values())

    def test_a_model_version_entry_names_the_segment_and_the_key(self):
        """Models carry no mutation counter: a header entry that stores one,
        as segments did before, is refused."""
        full, _ = _segments()
        with pytest.raises(SnapshotFormatError, match=r"'fake'.*'version'"):
            _read(reheader(full, _HEADER_TAMPERS["model version entry"]))

    @pytest.mark.parametrize("tamper", sorted(_HEADER_TAMPERS))
    def test_tampered_headers_are_refused(self, tamper):
        full, _ = _segments()
        _read(reheader(full, lambda h: None))  # untampered: decodes
        with pytest.raises(SnapshotFormatError):
            _read(reheader(full, _HEADER_TAMPERS[tamper]))
        assert self._decode(reheader(full, _HEADER_TAMPERS[tamper])) is None

    @pytest.mark.parametrize("extra", [1, 1 << 40])
    def test_a_header_length_past_the_segment_is_refused(self, extra):
        full, _ = _segments()
        prefix = container._PREFIX
        magic, version, _ = prefix.unpack_from(full, 0)
        bad = prefix.pack(magic, version, len(full) - prefix.size + extra) + full[prefix.size :]
        with pytest.raises(SnapshotFormatError, match="past the"):
            _read(bad)

    def test_a_header_repeating_a_key_is_refused(self):
        """The falsifying example ``test_altered_bytes_decode_or_refuse``
        drew: one bit renames the first model to the second's id, and the
        segment decoded to one model of the two."""
        full, written = _segments()
        first, second = (f'"{mid}":{{"spec"'.encode() for mid in sorted(written))
        bad = full.replace(first, second, 1)
        assert len(bad) == len(full) and bad != full
        with pytest.raises(SnapshotFormatError, match="repeats a key"):
            _read(bad)

    @pytest.mark.parametrize("text", [b"{", b"\xff\xfe", b"[" * 100_000, b"null", b"[{}]"])
    def test_a_header_that_is_not_a_json_object_is_refused(self, text):
        payload = container._PREFIX.pack(container._MAGIC, container.FORMAT, len(text)) + text
        with pytest.raises(SnapshotFormatError, match="undecodable snapshot segment"):
            _read(payload)

    def test_a_pickled_header_segment_is_refused_with_both_versions(self):
        header = pickle.dumps({"kind": "full", "models": {}, "removed": (), "all_ids": ()})
        payload = container._PREFIX.pack(container._MAGIC, 2, len(header)) + header
        with pytest.raises(SnapshotFormatError, match="version 2") as info:
            _read(payload)
        assert f"version {container.FORMAT}" in str(info.value)


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
        assert payload["transport"]["tables"]  # lossy: EF state exists


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
        # snapshot:rle is recorded only: a segment is always raw.
        assert t["publish_raw_bytes"] == t["publish_wire_bytes"] > 0
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
