"""Durable runs: payload codec, crash-consistent writer, registry, resume.

In-process side: the flatten/unflatten codec and the payload files
(``repro.container``) round-trip bit-exactly (including PCG64's 128-bit state
ints) through one arena per dtype, whatever the leaves' dtype, shape and
layout; truncated, bit-flipped or tampered files, manifests and codec
columns are a ``ValueError`` naming the file, never a misdecode; the
manifest pointer protocol prunes and verifies hashes, the run registry
hashes exactly the trajectory-relevant knobs, FedTrans's utility table
survives eviction + compaction, and RNG capture/restore obeys
restore-then-draw == continue-then-draw.  A crash/resume matrix over
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

import copy
import gc
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import typing
import weakref
from dataclasses import asdict, fields, is_dataclass, replace
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.analysis import sanitize
from repro.atomicio import atomic_write
from repro.baselines import FLuIDStrategy, HeteroFLStrategy, SplitMixStrategy, fedavg, fedyogi
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
from repro.container import flatten_payload, read_payload, unflatten_payload, write_payload
from repro.fl.checkpoint import CHECKPOINT_FORMAT, MANIFEST_NAME, CheckpointWriter, load_checkpoint
from repro.fl.export import log_to_dict
from repro.fl.registry import RunRegistry, fleet_fingerprint, run_hash
from repro.fl.scheduling.fleet import FleetStore, RoundTimeStats
from repro.fl.scheduling.pacing import QuantilePacing
from repro.fl.scheduling.selectors import AvailabilityAwareSelector
from repro.fl.transport import TransportCodec, TransportConfig
from repro.nn import mlp, set_compute_dtype
from repro.nn.cells import set_cell_id_counter
from repro.nn.model import set_model_id_counter
from repro.nn.optim import SGD, Yogi
from repro.stateful import Finite, Stateful

from forged_container import refile
from oracle_client_manager import ClientManager as DictClientManager

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

    def test_object_arrays_are_refused_at_write_time(self, tmp_path):
        """An object or structured array has no arena (its elements would
        need a pickle): the writer refuses it, and leaves no file."""
        path = tmp_path / "p.rsnp"
        for bad in (
            np.array(["x", None], dtype=object),
            np.zeros(2, dtype=[("a", "<f8"), ("b", "<i8")]),
        ):
            with pytest.raises(TypeError, match="cannot checkpoint"):
                write_payload(path, {"a": bad})
            assert not path.exists()

    def test_file_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        payload = {
            "a": rng.standard_normal((4, 5)),
            "b": {"c": rng.integers(0, 10, 7)},
            "f32": rng.standard_normal(3).astype(np.float32),
        }
        path = tmp_path / "p.rsnp"
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
        path = tmp_path / "rng.rsnp"
        write_payload(path, {"rng": state})
        back = read_payload(path)["rng"]
        assert back == state
        rng = np.random.default_rng(0)
        rng.bit_generator.state = back
        ref = np.random.default_rng(123)
        assert list(rng.integers(0, 2**62, 5)) == list(ref.integers(0, 2**62, 5))


# ----------------------------------------------------------------------
# format 3: one arena per dtype
# ----------------------------------------------------------------------
def _leaves(node):
    if isinstance(node, np.ndarray):
        yield node
    elif isinstance(node, dict):
        for v in node.values():
            yield from _leaves(v)
    elif isinstance(node, list):
        for v in node:
            yield from _leaves(v)


def _bits(a: np.ndarray) -> tuple:
    return a.dtype.str, a.shape, np.ascontiguousarray(a).tobytes()


def _canonical(payload) -> tuple:
    """The payload's skeleton and every leaf's bytes: equal iff bit-equal."""
    skeleton, arenas = flatten_payload(payload)
    return json.dumps(skeleton), {k: v.tobytes() for k, v in arenas.items()}


@st.composite
def _leaf(draw):
    # ">f8": a leaf not in the machine's byte order keeps its bytes and dtype.
    dtype = draw(st.sampled_from(["<f4", "<f8", ">f8", "<i8", "|b1", "<U3"]))
    shape = draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4))
    arr = draw(hnp.arrays(np.dtype(dtype), shape))
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    if layout == "F":
        arr = np.asfortranarray(arr)
    elif layout == "strided" and arr.ndim:
        arr = np.repeat(arr, 2, axis=0)[::2]  # same values, non-contiguous
    return arr


_PAYLOADS = st.fixed_dictionaries(
    {
        "schema": st.just("Thing/v1"),
        "tree": st.dictionaries(st.text("abcxyz", min_size=1, max_size=3), _leaf(), max_size=5),
        "seq": st.lists(st.one_of(_leaf(), st.integers(), st.text(max_size=3)), max_size=4),
    }
)


class TestArenaContainer:
    """The container: whatever the leaves, a round trip is
    bit-exact, every restored array is a private writable copy, and the
    arena table holds exactly the leaves' bytes."""

    def test_flattening_holds_no_leaf_past_its_return(self):
        """A written payload's arrays are freed when the writer drops them,
        not at the next full garbage collection (the flattener's recursive
        closure was a reference cycle through every leaf it ravelled)."""
        leaf = np.arange(6.0)
        alive = weakref.ref(leaf)
        gc.disable()
        try:
            flatten_payload({"w": leaf, "nested": [leaf[1:]]})
            del leaf
            assert alive() is None
        finally:
            gc.enable()

    @settings(max_examples=60, deadline=None)
    @given(payload=_PAYLOADS)
    def test_round_trip_is_bit_exact_and_private(self, payload):
        leaves = list(_leaves(payload))
        skeleton, arenas = flatten_payload(payload)
        assert len(arenas) == len({a.dtype.str for a in leaves})
        assert sum(a.nbytes for a in arenas.values()) == sum(a.nbytes for a in leaves)
        in_memory = unflatten_payload(json.loads(json.dumps(skeleton)), arenas)
        with tempfile.TemporaryDirectory() as tmp:
            write_payload(Path(tmp) / "p.rsnp", payload)
            from_file = read_payload(Path(tmp) / "p.rsnp")
        for back in (in_memory, from_file):
            restored = list(_leaves(back))
            assert [_bits(a) for a in restored] == [_bits(a) for a in leaves]
            assert all(a.flags.writeable and a.flags.owndata for a in restored)
            for i, a in enumerate(restored):
                others = restored[i + 1 :] + leaves + list(arenas.values())
                assert not any(np.shares_memory(a, b) for b in others)

    def test_a_float32_lossy_run_resumes_bit_identically(self, tmp_path):
        # The initial model is built before the coordinator applies the
        # config's dtype, so the process dtype is set first.
        set_compute_dtype("float32")
        try:
            stack = dict(mode="async", compute_dtype="float32", compress="update:topk0.05+int8")
            ref = _dumps(_build(**stack).run())
            coord = _build(tmp_path, **stack)
            _crash_at(coord, crash_round=4)
            with pytest.raises(RuntimeError, match="injected"):
                coord.run()
            (run,) = RunRegistry(tmp_path).runs()
            transport = load_checkpoint(tmp_path / run)["payload"]["coordinator"]["transport"]
            assert list(transport["values"]) == ["<f4"] and transport["client_id"].size
            assert _dumps(_build(tmp_path, resume=True, **stack).run()) == ref
        finally:
            set_compute_dtype("float64")


# ----------------------------------------------------------------------
# hostile input: every corruption is a ValueError naming the file
# ----------------------------------------------------------------------
def _codec() -> TransportCodec:
    """A lossy codec holding five residuals over three tensors, two dtypes;
    rows 0 and 2 are the same tensor of two clients."""
    codec = TransportCodec(TransportConfig.parse("update:topk0.05+int8"))
    rng = np.random.default_rng(0)
    for cid in (0, 1):
        for key, shape in (("a", (3,)), ("b", (2, 2))):
            codec._residuals[(cid, "m0", "param", key)] = rng.standard_normal(shape)
    codec._residuals[(1, "m0", "state", "c")] = rng.standard_normal(2).astype(np.float32)
    return codec


@cache
def _good_checkpoint() -> tuple[dict, bytes, bytes]:
    """A payload with every leaf kind, its payload file and its manifest."""
    rng = np.random.default_rng(1)
    payload = {
        "schema": "RunCheckpoint/v1",
        "transport": _codec().state_dict(),
        "w": rng.standard_normal((4, 3)),
        "ids": np.arange(5),
        "mask": np.array([True, False, True]),
        "names": np.array(["m0", "m01"]),
        "empty": np.zeros((0, 3)),
        "scalar": np.float64(2.5),
        "nested": [{"x": rng.standard_normal(2).astype(np.float32)}, 7, "s"],
    }
    with tempfile.TemporaryDirectory() as tmp:
        path = CheckpointWriter(tmp, "h").write(3, payload, completed=False)
        return payload, path.read_bytes(), (Path(tmp) / MANIFEST_NAME).read_bytes()


def _write_checkpoint(directory: Path, data: bytes) -> Path:
    _, _, manifest = _good_checkpoint()
    (directory / MANIFEST_NAME).write_bytes(manifest)
    path = directory / "ckpt-000003.rsnp"
    path.write_bytes(data)
    return path


def _markers(skeleton) -> list[dict]:
    """Every ``{"__array__": ...}`` holder in ``skeleton``."""
    if isinstance(skeleton, dict):
        if set(skeleton) == {"__array__"}:
            return [skeleton]
        return [m for v in skeleton.values() for m in _markers(v)]
    if isinstance(skeleton, list):
        return [m for v in skeleton for m in _markers(v)]
    return []


_MARKER_TAMPERS = {
    "unknown dtype": lambda m, n: ["<q9", *m[1:]],
    "dtype without an arena": lambda m, n: ["<c16", *m[1:]],
    "non-str dtype": lambda m, n: [5, *m[1:]],
    "negative offset": lambda m, n: [m[0], -n, m[2]],  # a slice from the end
    "offset past the arena": lambda m, n: [m[0], n + 1, m[2]],
    "float offset": lambda m, n: [m[0], float(m[1]), m[2]],
    "bool offset": lambda m, n: [m[0], True, m[2]],
    "shape overruns the arena": lambda m, n: [m[0], m[1], [n - m[1] + 1]],
    "negative dimension": lambda m, n: [m[0], m[1], [-1, *m[2]]],
    "non-list shape": lambda m, n: [m[0], m[1], n],
    "short marker": lambda m, n: m[:2],
    "string marker": lambda m, n: m[0],
}


def _set(container, key, value) -> None:
    container[key] = value


# Each alters a good payload file's arena table in place.
_ARENA_TABLE_TAMPERS = {
    "missing arena": lambda t: t.pop("|b1"),
    "arena under another dtype's name": lambda t: _set(t, "<c16", t.pop("<f8")),
    "arena of a narrower dtype": lambda t: _set(t, "<f4", t.pop("<f8")),
    "header claims more than its bytes": lambda t: _set(t, "<c16", [0, 1 << 50]),
    "misaligned arena": lambda t: _set(t["<i8"], 0, t["<i8"][0] + 8),
    "object arena": lambda t: _set(t, "|O", t.pop("<i8")),
    "entry not a pair": lambda t: _set(t, "<f8", t["<f8"][:1]),
}


# Each alters one field of a good manifest in place.
_MANIFEST_TAMPERS = {
    "missing payload_crc32": lambda m: m.pop("payload_crc32"),
    "extra key": lambda m: _set(m, "note", 0),
    "absolute last_good": lambda m: _set(m, "last_good", "/abs/ckpt-000003.rsnp"),
    "last_good outside the run": lambda m: _set(m, "last_good", "../ckpt-000003.rsnp"),
    "last_good not a payload name": lambda m: _set(m, "last_good", "MANIFEST.json"),
    "string completed": lambda m: _set(m, "completed", "false"),
    "int completed": lambda m: _set(m, "completed", 0),
    "bool round": lambda m: _set(m, "round", True),
    "float round": lambda m: _set(m, "round", 3.0),
    "string payload_crc32": lambda m: _set(m, "payload_crc32", str(m["payload_crc32"])),
    "schemas not a list": lambda m: _set(m, "schemas", "RunCheckpoint/v1"),
    "format 1": lambda m: _set(m, "format", 1),
    "format 2 (a zip payload)": lambda m: m.update(format=2, last_good="ckpt-000003.npz"),
    "bool format": lambda m: _set(m, "format", True),
}


# Each corrupts one ``TransportCodec`` payload column in place.
_COLUMN_TAMPERS = {
    "float client_id": lambda p: _set(p, "client_id", p["client_id"].astype(np.float64)),
    "short tensor column": lambda p: _set(p, "tensor", p["tensor"][:-1]),
    "tensor index past the table": lambda p: _set(p["tensor"], 0, len(p["tensors"])),
    "negative tensor index": lambda p: _set(p["tensor"], 0, -1),
    "size disagrees with the shape": lambda p: _set(p["size"], 0, p["size"][0] + 1),
    "short tensors row": lambda p: _set(p["tensors"], 0, p["tensors"][0][:4]),
    "unknown dtype in the table": lambda p: _set(p["tensors"][0], 3, "<q9"),
    "negative dimension in the table": lambda p: _set(p["tensors"][0], 4, [-1]),
    "tensors not a list": lambda p: _set(p, "tensors", {"0": p["tensors"][0]}),
    "short arena": lambda p: _set(p["values"], "<f8", p["values"]["<f8"][:-1]),
    "arena of another dtype": lambda p: _set(
        p["values"], "<f8", p["values"]["<f8"].astype(np.float32)
    ),
    "extra arena": lambda p: _set(p["values"], "<i8", np.zeros(1, dtype=np.int64)),
    "missing arena": lambda p: p["values"].pop("<f4"),
    "repeated row": lambda p: _set(p["client_id"], 2, p["client_id"][0]),
    "NaN residual": lambda p: _set(p["values"]["<f8"], 1, np.nan),
    "infinite residual": lambda p: _set(p["values"]["<f4"], 0, -np.inf),
}

# Each makes device class 1's round-time window one a run cannot write.
_WINDOW_TAMPERS = {
    "NaN": lambda w: w.__setitem__(0, math.nan),
    "inf (1e400)": lambda w: w.__setitem__(0, json.loads("1e400")),
    "negative": lambda w: w.__setitem__(0, -5.0),
    "string": lambda w: w.__setitem__(0, "-5"),
    "bool": lambda w: w.__setitem__(0, True),
    "null": lambda w: w.__setitem__(0, None),
    "past the window": lambda w: w.extend([1.0] * 20),
}


def _fleet_payload() -> dict:
    """A six-row fleet with resident, evicted and never-seen utilities."""
    store = FleetStore.from_columns(np.arange(6), evict_after=2)
    store.observe_utility(1, [0, 4], [1.5, 0.5], 0.5)
    store.observe_utility(3, [2, 4], [2.0, 1.0], 0.5)
    store.advance(4)  # evicts client 0
    store.stats.observe(1, 2.5)
    return store.state_dict()


# (field the error names, the tamper): each alters a ``FleetStore`` payload
# in place into one no run could have written.
_FLEET_TAMPERS = {
    "short last_seen": ("last_seen", lambda p: _set(p, "last_seen", p["last_seen"][:3])),
    "short has_utility": ("has_utility", lambda p: _set(p, "has_utility", p["has_utility"][:2])),
    "long utility": ("utility", lambda p: _set(p, "utility", np.zeros(7))),
    "2-D utility": ("utility", lambda p: _set(p, "utility", np.zeros((6, 2)))),
    "float32 utility": ("utility", lambda p: _set(p, "utility", p["utility"].astype(np.float32))),
    "int has_utility": ("has_utility", lambda p: _set(p, "has_utility", p["has_utility"].astype(np.int64))),
    "float last_seen": ("last_seen", lambda p: _set(p, "last_seen", p["last_seen"].astype(np.float64))),
    "list last_seen": ("last_seen", lambda p: _set(p, "last_seen", p["last_seen"].tolist())),
    "NaN utility": ("utility", lambda p: _set(p["utility"], 2, np.nan)),
    "inf utility": ("utility", lambda p: _set(p["utility"], 5, -np.inf)),
    "another fleet's ids": ("ids", lambda p: _set(p, "ids", p["ids"] + 10)),
    "reordered ids": ("ids", lambda p: _set(p, "ids", p["ids"][::-1].copy())),
    "fewer ids": ("ids", lambda p: _set(p, "ids", p["ids"][:5])),
    "negative round": ("round", lambda p: _set(p, "round", -1)),
    "bool round": ("round", lambda p: _set(p, "round", True)),
    "float round": ("round", lambda p: _set(p, "round", 4.0)),
    "negative evicted_total": ("evicted_total", lambda p: _set(p, "evicted_total", -1)),
    "bool evicted_total": ("evicted_total", lambda p: _set(p, "evicted_total", False)),
    "string evicted_total": ("evicted_total", lambda p: _set(p, "evicted_total", "1")),
}



def _philox_state() -> dict:
    return np.random.Generator(np.random.Philox(0)).bit_generator.state


# (what the error says, the tamper): each alters a ``Coordinator`` payload
# of the default stack in place into one no run of it could have written.
_COORDINATOR_TAMPERS = {
    "v1 tag": (
        r"state schema mismatch: expected 'Coordinator/v2', got 'Coordinator/v1'",
        lambda p: _set(p, "schema", "Coordinator/v1"),
    ),
    "v1 eval cache under the v2 tag": (
        r"Coordinator/v2: missing keys \[\], unexpected keys \['eval_acc_cache'\]",
        lambda p: _set(p, "eval_acc_cache", []),
    ),
    "no rng": (r"Coordinator/v2: missing keys \['rng'\]", lambda p: p.pop("rng")),
    "no strategy": (r"Coordinator/v2: missing keys \['strategy'\]", lambda p: p.pop("strategy")),
    "no engine": (r"Coordinator/v2: missing keys \['engine'\]", lambda p: p.pop("engine")),
    "float model_id_counter": (
        r"Coordinator/v2 model_id_counter: ", lambda p: _set(p, "model_id_counter", 3.0)
    ),
    "string model_id_counter": (
        r"Coordinator/v2 model_id_counter: ", lambda p: _set(p, "model_id_counter", "3")
    ),
    "bool cell_id_counter": (
        r"Coordinator/v2 cell_id_counter: ", lambda p: _set(p, "cell_id_counter", True)
    ),
    "negative cell_id_counter": (
        r"Coordinator/v2 cell_id_counter: ", lambda p: _set(p, "cell_id_counter", -1)
    ),
    "another bit generator's rng": (
        r"Coordinator/v2 rng: not the live generator's state layout",
        lambda p: _set(p, "rng", _philox_state()),
    ),
    "float rng word": (
        r"Coordinator/v2 rng: not the live generator's state layout",
        lambda p: _set(p["rng"]["state"], "state", float(p["rng"]["state"]["state"])),
    ),
    "rng without has_uint32": (
        r"Coordinator/v2 rng: not the live generator's state layout",
        lambda p: p["rng"].pop("has_uint32"),
    ),
    "engine payload in sync mode": (
        r"Coordinator/v2 engine: the payload carries",
        lambda p: _set(p, "engine", {"schema": "BufferedAsyncEngine/v1"}),
    ),
}

class TestHostilePayloads:
    """ROADMAP 5a at the checkpoint boundary: a truncated or altered file,
    a tampered marker and a malformed codec column each raise a
    ``ValueError`` naming the file — never a misdecode, a hang, or an
    allocation beyond the file's own size."""

    @settings(
        max_examples=150, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_altered_bytes_are_a_value_error(self, tmp_path, data):
        payload, good, _ = _good_checkpoint()
        if data.draw(st.booleans(), label="truncate"):
            bad = good[: data.draw(st.integers(0, len(good) - 1), label="keep")]
        else:
            # A run of up to 4 altered bytes: a burst CRC-32 always detects.
            start = data.draw(st.integers(0, len(good) - 1), label="start")
            masks = data.draw(st.lists(st.integers(1, 255), min_size=1, max_size=4), label="xor")
            bad = bytearray(good)
            for i, mask in enumerate(masks[: len(good) - start]):
                bad[start + i] ^= mask
            bad = bytes(bad)
        path = _write_checkpoint(tmp_path, bad)
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load_checkpoint(tmp_path)
        # Without the manifest, the file's own CRC-32 and the container's
        # checks (prefix, header, arena table, markers) still never let a
        # misdecode through.
        tracemalloc.start()
        try:
            back = read_payload(path)
        except ValueError as exc:
            assert str(path) in str(exc)
        else:
            assert _canonical(back) == _canonical(payload)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert peak <= 4 * len(good) + (1 << 20)

    def test_an_arena_past_the_file_sizes_no_read(self, tmp_path):
        """An arena-table entry that claims more elements than the file
        holds is refused before it sizes anything, even under a CRC-32
        that matches."""
        payload, good, _ = _good_checkpoint()
        path = tmp_path / "p.rsnp"
        for dtype in flatten_payload(payload)[1]:
            path.write_bytes(refile(good, lambda h: _set(h["arenas"][dtype], 1, 1 << 24)))
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match=re.escape(str(path))):
                    read_payload(path)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            assert peak <= 4 * len(good) + (1 << 20)

    def test_a_zip_file_is_a_value_error_naming_it(self, tmp_path):
        """Checkpoint format 2 and ``np.savez`` files were zip archives; the
        reader names the file and the zip magic, not a ``zipfile`` error."""
        path = tmp_path / "ckpt-000003.npz"
        np.savez(path, __skeleton__=np.frombuffer(b"{}", dtype=np.uint8))
        with pytest.raises(ValueError, match=re.escape(str(path)) + r".*got b'PK\\x03\\x04'"):
            read_payload(path)

    @pytest.mark.parametrize("tamper", sorted(_MANIFEST_TAMPERS))
    def test_malformed_manifests_are_a_value_error(self, tmp_path, tamper):
        _, good, manifest = _good_checkpoint()
        _write_checkpoint(tmp_path, good)
        assert load_checkpoint(tmp_path)["manifest"]["round"] == 3  # untampered: loads
        fields = json.loads(manifest)
        _MANIFEST_TAMPERS[tamper](fields)
        path = tmp_path / MANIFEST_NAME
        path.write_text(json.dumps(fields))
        with pytest.raises(ValueError, match=re.escape(str(path))) as info:
            load_checkpoint(tmp_path)
        if tamper.startswith("format"):
            assert f"format {fields['format']}" in str(info.value)
            assert f"format {CHECKPOINT_FORMAT}" in str(info.value)

    @pytest.mark.parametrize("text", ["", "{", "[]", '"MANIFEST"', "[" * 100_000])
    def test_a_manifest_that_is_not_an_object_is_a_value_error(self, tmp_path, text):
        path = tmp_path / MANIFEST_NAME
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load_checkpoint(tmp_path)

    @pytest.mark.parametrize("tamper", sorted(_MARKER_TAMPERS))
    @settings(
        max_examples=15, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_tampered_markers_are_a_value_error(self, tmp_path, tamper, data):
        _, good, _ = _good_checkpoint()

        def alter(header):
            markers = _markers(header["payload"])
            holder = markers[data.draw(st.integers(0, len(markers) - 1), label="marker")]
            m = holder["__array__"]
            holder["__array__"] = _MARKER_TAMPERS[tamper](m, header["arenas"][m[0]][1])

        path = tmp_path / "p.rsnp"
        path.write_bytes(refile(good, alter))
        with pytest.raises(ValueError, match=re.escape(str(path))):
            read_payload(path)

    @pytest.mark.parametrize("tamper", sorted(_ARENA_TABLE_TAMPERS))
    def test_tampered_arena_tables_are_a_value_error(self, tmp_path, tamper):
        payload, good, _ = _good_checkpoint()
        path = tmp_path / "p.rsnp"
        path.write_bytes(refile(good, lambda h: None))
        assert _canonical(read_payload(path)) == _canonical(payload)  # untampered: loads
        path.write_bytes(refile(good, lambda h: _ARENA_TABLE_TAMPERS[tamper](h["arenas"])))
        with pytest.raises(ValueError, match=re.escape(str(path))):
            read_payload(path)

    @pytest.mark.parametrize("tamper", sorted(_COLUMN_TAMPERS))
    def test_malformed_codec_columns_are_a_value_error(self, tamper):
        codec = _codec()
        payload = codec.state_dict()
        restored = TransportCodec(codec.config)
        restored.load_state_dict(payload)  # untampered: loads
        assert {k: _bits(v) for k, v in restored._residuals.items()} == {
            k: _bits(v) for k, v in codec._residuals.items()
        }
        _COLUMN_TAMPERS[tamper](payload)
        with pytest.raises(ValueError, match="TransportCodec/v2"):
            TransportCodec(codec.config).load_state_dict(payload)

    def test_a_non_finite_residual_is_a_value_error(self, rng):
        """A NaN residual loaded, and the client's next encode of the tensor
        then decoded to exactly the reference (and stayed NaN): refused."""
        codec = TransportCodec(TransportConfig.parse("update:int8"))
        codec._residuals[(0, "m0", "param", "w")] = rng.standard_normal(8)
        payload = codec.state_dict()
        payload["values"]["<f8"][3] = np.nan
        with pytest.raises(ValueError, match="TransportCodec/v2: a residual holds a non-finite"):
            TransportCodec(codec.config).load_state_dict(payload)

    @pytest.mark.parametrize("tamper", sorted(_WINDOW_TAMPERS))
    def test_a_malformed_round_time_window_is_a_value_error(self, tamper):
        """Quantile pacing's windows take only finite, non-negative JSON
        numbers, at most a window's worth: a NaN sample made the class's
        deadline NaN, and extra samples were silently dropped."""
        stats = RoundTimeStats(3, 8)
        for cls, duration in ((0, 1.0), (1, 2.0), (1, 3.0), (2, 4.0)):
            stats.observe(cls, duration)
        payload = json.loads(json.dumps(stats.state_dict()))
        _WINDOW_TAMPERS[tamper](payload["durations"][1])
        restored = RoundTimeStats(3, 8)
        with pytest.raises(ValueError, match="RoundTimeStats class 1"):
            restored.load_state_dict(payload)
        assert restored.chronological() == [[], [], []]  # nothing half-loaded

    def test_a_malformed_column_names_the_checkpoint_file(self, tmp_path):
        stack = dict(mode="async", compress="update:topk0.05+int8")
        coord = _build(tmp_path, **stack)
        _crash_at(coord, crash_round=4)
        with pytest.raises(RuntimeError, match="injected"):
            coord.run()
        (run,) = RunRegistry(tmp_path).runs()
        found = load_checkpoint(tmp_path / run)
        _COLUMN_TAMPERS["size disagrees with the shape"](found["payload"]["coordinator"]["transport"])
        manifest = found["manifest"]
        path = CheckpointWriter(tmp_path / run, manifest["run_hash"]).write(
            manifest["round"], found["payload"], completed=False
        )
        with pytest.raises(ValueError, match=re.escape(str(path)) + ".*TransportCodec/v2"):
            _build(tmp_path, resume=True, **stack).run()


    def test_a_coordinator_v1_checkpoint_names_the_file_and_v2(self, tmp_path):
        """A checkpoint from before the fleet sweep lost its accuracy cache
        (``Coordinator/v1``, an ``eval_acc_cache`` key) lives in a run
        directory the current run hash still finds; its resume is refused
        by tag, naming the file, instead of starting fresh."""
        coord = _build(tmp_path)
        _crash_at(coord, crash_round=4)
        with pytest.raises(RuntimeError, match="injected"):
            coord.run()
        (run,) = RunRegistry(tmp_path).runs()
        found = load_checkpoint(tmp_path / run)
        old = found["payload"]["coordinator"]
        old.update(schema="Coordinator/v1", eval_acc_cache=[])
        manifest = found["manifest"]
        path = CheckpointWriter(tmp_path / run, manifest["run_hash"]).write(
            manifest["round"], found["payload"], completed=False
        )
        expected = re.escape(
            f"{path} does not resume: state schema mismatch: expected 'Coordinator/v2'"
        )
        with pytest.raises(ValueError, match=expected):
            _build(tmp_path, resume=True).run()

    @pytest.mark.parametrize("tamper", sorted(_COORDINATOR_TAMPERS))
    def test_malformed_coordinator_payloads_are_a_value_error(self, tamper):
        """The coordinator's own fields (its tag, key set, id counters and
        RNG state) are read strictly: a v1 payload, or one whose generator
        state has another layout, is refused by name rather than resumed
        on a default or a misread stream."""
        payload = _build().state_dict()
        _build().load_state_dict(_build().state_dict())  # untampered: loads
        expected, alter = _COORDINATOR_TAMPERS[tamper]
        alter(payload)
        with pytest.raises(ValueError, match=expected):
            _build().load_state_dict(payload)

    @pytest.mark.parametrize("classes", [1, 3, 7])
    def test_a_pacing_deadline_list_of_another_class_count_is_refused(self, classes):
        """Quantile pacing keeps one deadline per device class of its fleet;
        a list of another length used to load, and ``deadline_for`` then
        indexed past it (or ignored its tail)."""
        fleet = FleetStore.from_columns(np.arange(8))
        assert fleet.num_classes == 4
        payload = QuantilePacing(2, None, 4, fleet).state_dict()
        QuantilePacing(2, None, 4, fleet).load_state_dict(payload)  # untampered: loads
        payload["deadline"] = [1.0] * classes
        with pytest.raises(ValueError, match=r"^QuantilePacing/v1 deadline: "):
            QuantilePacing(2, None, 4, fleet).load_state_dict(payload)

    @pytest.mark.parametrize("tamper", sorted(_FLEET_TAMPERS))
    def test_malformed_fleet_payloads_are_a_value_error(self, tamper):
        """The fleet store reader takes only what a run over this fleet could
        have written: a short column failed later mid-run, and a NaN utility
        made ``max_utility()`` NaN and so poisoned Oort's weights."""
        payload = _fleet_payload()
        restored = FleetStore.from_columns(np.arange(6), evict_after=2)
        restored.load_state_dict(_fleet_payload())  # untampered: loads
        assert _canonical(restored.state_dict()) == _canonical(payload)
        field, alter = _FLEET_TAMPERS[tamper]
        alter(payload)
        fresh = FleetStore.from_columns(np.arange(6), evict_after=2)
        untouched = _canonical(fresh.state_dict())
        with pytest.raises(ValueError, match=rf"^FleetStore/v1 {field}: "):
            fresh.load_state_dict(payload)
        assert _canonical(fresh.state_dict()) == untouched  # nothing half-loaded

    def test_a_malformed_fleet_payload_names_the_checkpoint_file(self, tmp_path):
        coord = _build(tmp_path)
        _crash_at(coord, crash_round=4)
        with pytest.raises(RuntimeError, match="injected"):
            coord.run()
        (run,) = RunRegistry(tmp_path).runs()
        found = load_checkpoint(tmp_path / run)
        found["payload"]["coordinator"]["fleet"]["utility"][0] = np.nan
        manifest = found["manifest"]
        path = CheckpointWriter(tmp_path / run, manifest["run_hash"]).write(
            manifest["round"], found["payload"], completed=False
        )
        with pytest.raises(ValueError, match=re.escape(str(path)) + ".*FleetStore/v1 utility"):
            _build(tmp_path, resume=True).run()

    def test_a_misfit_model_tensor_names_the_checkpoint_and_the_model(self, tmp_path):
        """A stored tensor whose shape is not the spec's is refused, and the
        resume names both the checkpoint file and the model."""
        coord = _build(tmp_path)
        _crash_at(coord, crash_round=4)
        with pytest.raises(RuntimeError, match="injected"):
            coord.run()
        (run,) = RunRegistry(tmp_path).runs()
        found = load_checkpoint(tmp_path / run)
        (mid, model), = found["payload"]["coordinator"]["strategy"]["models"].items()
        key = next(k for k in model["params"] if k.endswith(".b"))
        model["params"][key] = model["params"][key][:1]  # (1,) would broadcast
        manifest = found["manifest"]
        path = CheckpointWriter(tmp_path / run, manifest["run_hash"]).write(
            manifest["round"], found["payload"], completed=False
        )
        expected = (
            rf"{re.escape(str(path))} does not resume: Coordinator/v2 strategy: "
            rf"SingleModelStrategy/v1 models: model {mid}: .*shape mismatch"
        )
        with pytest.raises(ValueError, match=expected):
            _build(tmp_path, resume=True).run()

    def test_a_list_tensor_beyond_float_range_does_not_resume(self, tmp_path):
        """A tensor stored as a nested list of ints beyond float range (not
        an array marker) used to raise a bare ``OverflowError`` from the
        write, past the resume's ``ValueError`` handling."""
        coord = _build(tmp_path)
        _crash_at(coord, crash_round=4)
        with pytest.raises(RuntimeError, match="injected"):
            coord.run()
        (run,) = RunRegistry(tmp_path).runs()
        found = load_checkpoint(tmp_path / run)
        (mid, model), = found["payload"]["coordinator"]["strategy"]["models"].items()
        key = next(k for k in model["params"] if k.endswith(".w"))
        model["params"][key] = np.full(model["params"][key].shape, 10**400, dtype=object).tolist()
        manifest = found["manifest"]
        path = CheckpointWriter(tmp_path / run, manifest["run_hash"]).write(
            manifest["round"], found["payload"], completed=False
        )
        expected = (
            rf"{re.escape(str(path))} does not resume: Coordinator/v2 strategy: "
            rf"SingleModelStrategy/v1 models: model {mid}: tensor "
            rf"{re.escape(key)} \(list\) is not a real-floating array"
        )
        with pytest.raises(ValueError, match=expected):
            _build(tmp_path, resume=True).run()

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
        npz = sorted(p.name for p in tmp_path.glob("ckpt-*.rsnp"))
        assert npz == ["ckpt-000003.rsnp"]
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
    + compaction, a short or v1 one is refused, and a FedTrans run that
    evicts and transforms resumes to its uninterrupted export."""

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
        """Nothing is defaulted for a payload that lacks a key, and the
        retired v1 payload (a dict per client) is refused by its tag."""
        cm = ClientManager(evict_after=2)
        self._touch(cm, 0, 1)
        payload = cm.state_dict()
        tagless = {k: v for k, v in payload.items() if k != "schema"}
        with pytest.raises(ValueError, match="schema mismatch"):
            ClientManager().load_state_dict(tagless)
        for key in payload.keys() - {"schema"}:
            short = {k: v for k, v in payload.items() if k != key}
            with pytest.raises(ValueError, match=rf"ClientManager/v2: missing keys \['{key}'\]"):
                ClientManager().load_state_dict(short)
        oracle = DictClientManager(cm.sim_cache, evict_after=2)
        with pytest.raises(ValueError, match="ClientManager/v1"):
            ClientManager().load_state_dict(oracle.state_dict())

    @pytest.mark.parametrize("key", ["models", "clients"])
    def test_a_repeated_id_is_refused(self, key):
        """A row or column id twice used to fail in NumPy's reshape,
        untagged.  The check runs before the similarity cache loads, so the
        unloadable ``sim_cache`` below is never reached."""
        cm = ClientManager()
        self._touch(cm, 0, 1)
        payload = cm.state_dict()
        if key == "models":
            payload["models"] *= 2
            for col in ("utility", "present"):
                payload[col] = np.hstack([payload[col]] * 2)
        else:
            payload["clients"] = np.array([0, 0])
        payload["sim_cache"] = None
        with pytest.raises(ValueError, match=rf"^ClientManager/v2 {key}: repeats an id"):
            ClientManager().load_state_dict(payload)

    def test_fedtrans_resumes_after_eviction_and_transform(self, tmp_path):
        """A sync FedTrans run checkpointed after an eviction and a
        transformation resumes to the uninterrupted export byte for byte
        (which the dict implementation's own uninterrupted run matches
        too)."""
        ref = _dumps(_build_fedtrans().run())
        assert _dumps(_build_fedtrans(dict_manager=True).run()) == ref
        coord = _build_fedtrans(tmp_path)
        _crash_at(coord, crash_round=8)  # after the round-7 checkpoint
        with pytest.raises(RuntimeError, match="injected"):
            coord.run()
        (run,) = RunRegistry(tmp_path).runs()
        found = load_checkpoint(tmp_path / run)
        strategy = found["payload"]["coordinator"]["strategy"]
        assert strategy["client_manager"]["evicted_total"] > 0
        assert len(strategy["birth_order"]) > 1
        assert _dumps(_build_fedtrans(tmp_path, resume=True).run()) == ref


class TestReadersNeverDefault:
    """ROADMAP 5d: an absent checkpoint key is an error, not a default."""

    @pytest.mark.parametrize("key", ["fleet", "validator", "transport"])
    def test_coordinator_keys_are_required(self, key):
        payload = _build().state_dict()
        # On the default stack both are present with the value None ("off").
        assert payload["validator"] is None and payload["transport"] is None
        del payload[key]
        with pytest.raises(ValueError, match=rf"Coordinator/v2: missing keys \['{key}'\]"):
            _build().load_state_dict(payload)

    @pytest.mark.parametrize(
        "key, stack",
        [("validator", dict(quarantine=True)), ("transport", dict(compress="update:topk0.05+int8"))],
    )
    def test_a_component_payload_must_match_the_components_presence(self, key, stack):
        """``None`` as a value means "built without it": a configured
        quarantine gate or transport codec fed ``None`` would resume with
        fresh state, and state for a component this run lacks would be
        dropped — both are refused, like an engine payload in sync mode."""
        payload = _build(**stack).state_dict()
        with pytest.raises(ValueError, match=rf"Coordinator/v2 {key}: the payload carries"):
            _build().load_state_dict(payload)
        payload[key] = None
        with pytest.raises(ValueError, match=rf"Coordinator/v2 {key}: the payload lacks"):
            _build(**stack).load_state_dict(payload)

    def test_availability_selector_key_is_required(self):
        selector = AvailabilityAwareSelector(seed=0)
        with pytest.raises(ValueError, match=r"missing keys \['offline_fallback_rounds'\]"):
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
    implementation the utility table replaced."""
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

    def test_parent_shaped_scheduler_payload_is_refused(self, tmp_path):
        """``OortSelector``'s payload once restated the fleet store's
        utility column and ``QuantilePacing``'s its round-time windows.  A
        checkpoint that carries those copies holds keys no current writer
        produces, so its resume is refused with the tag and the key."""
        stack = dict(mode="async", rounds=24, selector="oort", pacing="quantile")
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
        with pytest.raises(ValueError, match=r"OortSelector/v1: .*unexpected keys \['utility'\]"):
            _build(tmp_path, resume=True, **stack).run()

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

    @pytest.mark.parametrize("mode", ["sync", "async"])
    def test_a_poisoned_run_without_quarantine_resumes(self, tmp_path, mode):
        """``poison`` without the quarantine gate aggregates NaN: the round
        records' losses and the in-flight updates' turn NaN.  Checkpoints
        holding them resume to the uninterrupted run, and so does the
        completed run."""
        faulty = dict(mode=mode, faults="poison=0.6")
        log = _build(**faulty).run()
        assert any(math.isnan(r.mean_loss) for r in log.rounds[:4])  # checkpointed
        ref = _dumps(log)
        coord = _build(tmp_path, **faulty)
        _crash_at(coord, crash_round=4)  # after the round-3 checkpoint
        with pytest.raises(RuntimeError, match="injected"):
            coord.run()
        assert _dumps(_build(tmp_path, resume=True, **faulty).run()) == ref
        assert _dumps(_build(tmp_path, resume=True, **faulty).run()) == ref

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
        names = sorted(p.name for p in run_dir.glob("ckpt-*.rsnp"))
        assert "ckpt-000003.rsnp" in names  # orphaned newer payload
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


# ----------------------------------------------------------------------
# one mutation test for every component reader
# ----------------------------------------------------------------------
def _mutation_stack(name, ckpt_dir=None, resume=False):
    """The small stacks whose checkpoints together reach every schema tag a
    checkpoint carries.  Same dataset and trainer as ``_build``."""
    set_model_id_counter(0)
    set_cell_id_counter(0)
    cfg = SyntheticTaskConfig(
        num_classes=4, input_shape=(8,), latent_dim=6, teacher_width=12,
        class_sep=3.0, seed=0,
    )
    ds = build_federated_dataset(cfg, 8, mean_samples=20, seed=0)
    init = mlp(ds.input_shape, ds.num_classes, np.random.default_rng(0), width=8)
    tiers = (2.0, 0.3, 0.3, 0.15)
    kw = dict(
        rounds=8, clients_per_round=4, eval_every=4, seed=0,
        trainer=LocalTrainerConfig(batch_size=8, local_steps=3, lr=0.2),
    )
    if name == "fedtrans_sync":
        capacity = [init.macs() * 16] * 4
        strategy = FedTransStrategy(
            init, FedTransConfig(gamma=2, delta=2, beta=0.5, max_models=3, evict_after=2),
            max_capacity_macs=capacity[0], server_opt_factory=lambda: Yogi(lr=0.05),
        )
        kw.update(selector="availability")
    elif name == "fedyogi_async":
        capacity = [1e12] * 4
        strategy = fedyogi(init, lr=0.05)
        kw.update(mode="async", buffer_k=2)
    else:
        capacity = [t * init.macs() * 4 for t in tiers]
        strategy = _TIERED[name.split("_")[0]](mlp(
            ds.input_shape, ds.num_classes, np.random.default_rng(0), width=32
        ))
        kw.update(mode="async", buffer_k=2, async_concurrency=6)
        if name == "heterofl_async":
            kw.update(
                selector="oort", pacing="quantile", straggler="downsize",
                compress="update:topk0.05+int8", quarantine=True,
            )
        else:
            kw.update(pacing="adaptive")
    clients = [
        FLClient(c.client_id, c, DeviceTrace(c.client_id, 1e9, 1e6, capacity[c.client_id % 4]))
        for c in ds.clients
    ]
    if ckpt_dir is not None:
        kw.update(checkpoint_every=3, checkpoint_dir=str(ckpt_dir), resume=resume)
    return Coordinator(strategy, clients, CoordinatorConfig(**kw))


_MUTATION_STACKS = ("fedtrans_sync", "heterofl_async", "fluid_async", "fedyogi_async")
# Every tag a checkpoint of those stacks carries.  SGD is a local optimizer
# in every stack, never checkpointed; its payload is mutated standalone.
# The executors' and the snapshot publisher's bare tags never reach a
# checkpoint (a resume may switch backends).
_MUTATED_TAGS = sorted({
    "Coordinator/v2", "FleetStore/v1", "RoundTimeStats/v1",
    "AvailabilityAwareSelector/v1", "OortSelector/v1", "UniformSelector/v1",
    "FedTransStrategy/v1", "HeteroFLStrategy/v1", "FLuIDStrategy/v1", "SingleModelStrategy/v1",
    "ClientManager/v2", "SimilarityCache/v1", "ModelAggregator/v1", "Yogi/v1",
    "ModelTransformer/v1", "DoCTracker/v1", "ActivenessTracker/v1",
    "BufferedAsyncEngine/v1", "VirtualClock/v1", "UpdateValidator/v1", "TransportCodec/v2",
    "StaticPacing/v1", "AdaptivePacing/v1", "QuantilePacing/v1",
    "DropPolicy/v1", "DownsizePolicy/v1", "SGD/v1",
})


def _sgd_run(restore=None):
    """Three momentum steps, the third by an optimizer restored from
    ``restore`` when given: the state after two, the parameters' bytes
    after three."""
    rng = np.random.default_rng(0)
    params = {"w": rng.standard_normal((3, 2)), "b": rng.standard_normal(2)}
    grads = [{k: rng.standard_normal(v.shape) for k, v in params.items()} for _ in range(3)]
    opt = SGD(0.1, momentum=0.9)
    for g in grads[:2]:
        opt.step(params, g)
    state = opt.state_dict()
    if restore is not None:
        opt = SGD(0.1, momentum=0.9)
        opt.load_state_dict(restore)
    opt.step(params, grads[2])
    return state, _canonical(params)


@cache
def _mutation_target(name):
    """``(payload, round, reference)``: a real checkpoint of the stack and
    the uninterrupted run's export (module-cached: built once)."""
    if name == "sgd":
        state, ref = _sgd_run()
        return state, None, ref
    ref = _dumps(_mutation_stack(name).run())
    with tempfile.TemporaryDirectory() as d:
        coord = _mutation_stack(name, d)
        _crash_at(coord, crash_round=6)  # after the round-5 checkpoint
        with pytest.raises(RuntimeError, match="injected"):
            coord.run()
        (run,) = RunRegistry(d).runs()
        found = load_checkpoint(Path(d) / run)
    return found["payload"], found["manifest"]["round"], ref


def _mutation_sites(node, tag=None, field=None, sub=(), path=()):
    """``(tag, field, sub, kind, path)`` per mutation site: ``extra`` (a
    key added to the tagged dict at ``path``), ``missing`` (its key at
    ``path`` deleted) and ``leaf`` (a scalar, ``None`` or array replaced),
    ``tag`` the innermost schema tag holding the site, ``field`` the key of
    that tagged dict the site lies under and ``sub`` its path below it."""
    if isinstance(node, dict):
        tagged = "schema" in node
        if tagged:
            tag = node["schema"]
            yield tag, None, (), "extra", path
            yield from ((tag, key, (), "missing", (*path, key)) for key in node if key != "schema")
        for key, value in node.items():
            if key != "schema":
                at = (key, ()) if tagged else (field, (*sub, key))
                yield from _mutation_sites(value, tag, *at, (*path, key))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _mutation_sites(value, tag, field, (*sub, i), (*path, i))
    else:
        yield tag, field, sub, "leaf", path


@cache
def _sites_by_tag():
    by_tag = {}
    for name in (*_MUTATION_STACKS, "sgd"):
        payload = _mutation_target(name)[0]
        root, prefix = (payload, ()) if name == "sgd" else (payload["coordinator"], ("coordinator",))
        for tag, field, sub, kind, path in _mutation_sites(root):
            by_tag.setdefault(tag, []).append((name, field, sub, kind, (*prefix, *path)))
    return by_tag


@cache
def _declared_fields():
    """``{(tag, key): kind}`` of every field a component declares (a
    hand-written reader declares none)."""
    found, todo = {}, [Stateful]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        found.update(((cls.schema, key), kind) for key, (_, kind) in cls.state_fields.items())
    return found


def _without_none(kind):
    args = typing.get_args(kind)
    return args[0] if type(None) in args else kind


def _declared_leaf(tag, field, sub):
    """The declared kind of the leaf at ``sub`` below a component's field
    (``None`` below a hand-written reader's or inside a model payload)."""
    kind = _declared_fields().get((tag, field))
    for step in sub:
        kind = _without_none(kind)
        origin = typing.get_origin(kind)
        if is_dataclass(kind):
            kind = typing.get_type_hints(kind, include_extras=True)[step]
        elif origin in (list, tuple, dict):
            kind = typing.get_args(kind)[1 if origin is dict else 0]
        else:
            return None
    return _without_none(kind)


def _reaches_finite(kind):
    if kind == Finite:
        return True
    if is_dataclass(kind):
        return any(map(_reaches_finite, typing.get_type_hints(kind, include_extras=True).values()))
    return any(map(_reaches_finite, typing.get_args(kind)))


def _finite_fields():
    """``"<tag> <key>"`` of each field whose declaration reaches ``Finite``
    (a clock time, a pacing estimate): floats no run makes NaN or Inf."""
    return {f"{tag} {key}" for (tag, key), kind in _declared_fields().items() if _reaches_finite(kind)}


def _wrong_kinds(leaf):
    """Values of another kind than ``leaf`` (never a number for a number:
    an int is a valid float), plus the non-finite floats."""
    if isinstance(leaf, np.ndarray):
        return [leaf.tolist(), "x"]
    if isinstance(leaf, bool):
        return ["x", 1, []]
    if isinstance(leaf, float):
        return ["x", True, [], math.nan, math.inf, -math.inf]
    if isinstance(leaf, int):
        return ["x", True, []]
    if isinstance(leaf, str):
        return [3, True, []]
    return [True, []]


def _resume_mutated(name, payload, round_idx):
    """The export of a run resumed from ``payload`` (for SGD: the
    parameters after a step of an optimizer restored from it)."""
    if name == "sgd":
        return _sgd_run(payload)[1]
    with tempfile.TemporaryDirectory() as d:
        coord = _mutation_stack(name, d, resume=True)
        cfg = coord.config
        run_dir = RunRegistry(d).run_dir(coord.strategy.name, cfg, coord.clients)
        CheckpointWriter(run_dir, run_hash(coord.strategy.name, cfg, coord.clients)).write(
            round_idx, payload, completed=False
        )
        return _dumps(coord.run())


def test_the_mutation_stacks_reach_every_tag():
    assert sorted(_sites_by_tag()) == _MUTATED_TAGS
    fedtrans = _mutation_target("fedtrans_sync")[0]["coordinator"]["strategy"]
    assert len(fedtrans["models"]) > 1 and fedtrans["aggregator"]["server_opts"]
    engine = _mutation_target("heterofl_async")[0]["coordinator"]["engine"]
    assert engine["clock"]["events"] and engine["in_flight"]
    assert _mutation_target("fluid_async")[0]["coordinator"]["engine"]["pacing"]["rate"]


@pytest.mark.parametrize("tag", _MUTATED_TAGS)
@settings(max_examples=10, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_mutated_component_payload_is_refused_or_resumes_identically(tag, data):
    """One leaf or key of a real checkpoint at a time: a wrong kind, a
    non-finite float, a missing key or an extra key.  The resume either
    fails with a ``ValueError`` naming the schema tag that holds the
    mutation, or matches the uninterrupted run; a NaN or Inf in a measured
    ``float`` must load instead."""
    name, field, sub, kind, path = data.draw(st.sampled_from(_sites_by_tag()[tag]))
    payload, round_idx, ref = _mutation_target(name)
    payload = copy.deepcopy(payload)
    node = payload
    for step in path[:-1] if kind != "extra" else path:
        node = node[step]
    value = None
    if kind == "extra":
        node["extra_key"] = 0
    elif kind == "missing":
        del node[path[-1]]
    else:
        value = node[path[-1]] = data.draw(st.sampled_from(_wrong_kinds(node[path[-1]])))
    if isinstance(value, float) and not math.isfinite(value) and _declared_leaf(tag, field, sub) is float:
        # A measured float (a loss, a norm) round-trips NaN and Inf, which a
        # diverging or poisoned run writes: the checkpoint loads, and what
        # the run then makes of the value is its own.
        try:
            _resume_mutated(name, payload, round_idx)
        except ValueError as exc:
            assert "does not resume" not in str(exc)
        return
    try:
        resumed = _resume_mutated(name, payload, round_idx)
    except ValueError as exc:
        assert tag in str(exc)
        return
    assert resumed == ref


_FINITE_SITES = {
    "VirtualClock/v1 now": ("heterofl_async", ("engine", "clock", "now")),
    "VirtualClock/v1 events": ("heterofl_async", ("engine", "clock", "events", 0, "time")),
    "QuantilePacing/v1 deadline": ("heterofl_async", ("engine", "pacing", "deadline", 0)),
    "AdaptivePacing/v1 rate": ("fluid_async", ("engine", "pacing", "rate")),
    "AdaptivePacing/v1 target_span": ("fluid_async", ("engine", "pacing", "target_span")),
    "AdaptivePacing/v1 last_arrival": ("fluid_async", ("engine", "pacing", "last_arrival")),
}


def test_the_finite_sites_are_every_finite_field():
    assert _finite_fields() == set(_FINITE_SITES)


@pytest.mark.parametrize("where", sorted(_FINITE_SITES))
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_a_non_finite_clock_or_pacing_float_is_refused(where, value):
    """A float a component declares ``Finite`` takes no NaN or Inf."""
    name, path = _FINITE_SITES[where]
    payload, round_idx, _ = _mutation_target(name)
    payload = copy.deepcopy(payload)
    node = payload["coordinator"]
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    with pytest.raises(ValueError, match=f"{where}: "):
        _resume_mutated(name, payload, round_idx)
