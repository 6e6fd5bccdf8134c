"""Transport codecs: compressed bytes on both directions of the round loop.

FedTrans targets edge fleets where client uplink bytes — not server FLOPs —
are the binding cost.  This module is the codec layer for both wire
directions:

* **client→server updates** — per-tensor int8 / bf16 quantization with
  server-side error-feedback residuals, and top-k sparsification with
  run-length-encoded index masks.  Lossy codecs operate on the *delta*
  against the dispatch-time server weights (the standard sparsified-update
  scheme), so a 1% top-k keeps the 1% of coordinates that moved most.
  The ``rle`` update codec is the lossless option: a byte-level diff
  against the reference that falls back to raw when it cannot help.
* **server→worker snapshots** — byte-level run-length delta encoding over
  version-changed tensors inside delta segments (:mod:`~repro.fl.shm`
  stacks it on the existing full/delta chain); always lossless.

The simulation never ships real packets, so "encoding" means: produce the
actual encoded byte payload (its length is the on-wire cost the ledger
meters), decode it back, and hand the *decoded* values to aggregation —
lossy codecs therefore change the trajectory exactly as they would in a
real deployment, and lossless codecs are bit-identical by construction
(CONTRACTS.md I11).  Updates containing non-finite values bypass the
codec entirely (shipped raw) so the quarantine NaN scan still sees the
poison it exists to catch.

Error feedback keeps quantization honest across rounds: the residual
``d - decode(encode(d))`` is stored per ``(client, model, scope, tensor)``
and added to the next delta from the same client before encoding, so
systematic quantization error accumulates into later updates instead of
being lost.  Residual state implements :class:`~repro.stateful.Stateful`
so compressed runs checkpoint/resume bit-identically (CONTRACTS.md I9); its
payload is a few columns and one arena per dtype, not an entry per
residual, so a checkpoint does not grow a member per client seen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..stateful import Stateful, check_schema, schema_tag

__all__ = [
    "UPDATE_CODECS",
    "TransportConfig",
    "TransportCodec",
    "rle_encode_bytes",
    "rle_decode_bytes",
    "encode_indices",
    "decode_indices",
    "bf16_encode",
    "bf16_decode",
]

#: Codec names accepted in the update section of a ``--compress`` spec.
#: ``topk`` takes an inline rate (``topk0.01``); ``rle`` is the lossless
#: path and combines with nothing else.
UPDATE_CODECS = ("int8", "bf16", "topk", "rle")


# ----------------------------------------------------------------------
# varint + run-length primitives (shared by masks and byte diffs)
# ----------------------------------------------------------------------
def _put_varint(buf: bytearray, value: int) -> None:
    """Append one LEB128-encoded non-negative integer."""
    if value < 0:
        raise ValueError(f"varints are non-negative, got {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            buf.append(byte | 0x80)
        else:
            buf.append(byte)
            return


# Longest varint a decoder reads: 64 bits of payload.  _put_varint never
# writes more than 9 bytes (Python ints from array sizes stay below 2**63).
_MAX_VARINT_BYTES = 10


def _get_varint(data: bytes, pos: int, stream: str) -> tuple[int, int]:
    """Decode one LEB128 integer at ``pos``; returns ``(value, next_pos)``.

    Running off the end of ``data``, or a varint longer than
    ``_MAX_VARINT_BYTES``, is the ``stream``'s corruption error — without
    the bound a run of continuation bytes grows one Python int without
    limit, quadratic in the run's length.
    """
    value = 0
    for shift in range(0, 7 * _MAX_VARINT_BYTES, 7):
        if pos >= len(data):
            raise ValueError(f"corrupt {stream} stream: truncated at byte {pos}")
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, pos
    raise ValueError(
        f"corrupt {stream} stream: varint longer than {_MAX_VARINT_BYTES} bytes "
        f"ending at byte {pos}"
    )


def rle_encode_bytes(data: bytes, ref: bytes) -> bytes | None:
    """Byte-level diff of ``data`` against an equal-length ``ref``.

    The encoding is a sequence of ``(equal_len, literal_len, literal
    bytes)`` groups with varint lengths, always starting with an equal run
    (possibly zero-length).  Returns ``None`` when encoding cannot help —
    unequal lengths, too many alternations, or a result no smaller than
    ``data`` — so callers fall back to shipping raw bytes.  Decoding with
    the same ``ref`` is exact: this codec is lossless by construction.
    """
    if len(data) != len(ref) or not data:
        return None
    a = np.frombuffer(data, dtype=np.uint8)
    b = np.frombuffer(ref, dtype=np.uint8)
    eq = a == b
    bounds = np.concatenate(
        ([0], np.flatnonzero(np.diff(eq)) + 1, [a.size])
    )
    # Each literal run costs >= 2 varint bytes of framing; a diff that
    # alternates every few bytes cannot win, so bail before the Python
    # loop below gets expensive.
    if len(bounds) - 1 > max(8, a.size // 8):
        return None
    buf = bytearray()
    pending_eq = 0
    for start, end in zip(bounds[:-1], bounds[1:]):
        if eq[start]:
            pending_eq = int(end - start)
        else:
            _put_varint(buf, pending_eq)
            _put_varint(buf, int(end - start))
            buf += data[start:end]
            pending_eq = 0
        if len(buf) >= len(data):
            return None
    if pending_eq:
        _put_varint(buf, pending_eq)
        _put_varint(buf, 0)
    if len(buf) >= len(data):
        return None
    return bytes(buf)


def rle_decode_bytes(encoded: bytes, ref: bytes) -> bytes:
    """Invert :func:`rle_encode_bytes` against the same reference bytes."""
    out = bytearray()
    pos = 0
    n = len(ref)
    while len(out) < n:
        eq_len, pos = _get_varint(encoded, pos, "rle")
        lit_len, pos = _get_varint(encoded, pos, "rle")
        if eq_len:
            out += ref[len(out) : len(out) + eq_len]
        if lit_len:
            out += encoded[pos : pos + lit_len]
            pos += lit_len
    if len(out) != n or pos != len(encoded):
        raise ValueError(
            f"corrupt rle stream: decoded {len(out)} of {n} bytes, "
            f"consumed {pos} of {len(encoded)} encoded bytes"
        )
    return bytes(out)


def encode_indices(idx: np.ndarray, n: int) -> bytes:
    """Run-length encode a sorted top-k index set over ``n`` positions.

    Consecutive survivors collapse into ``(gap, run_length)`` varint pairs
    — exactly the structure gradient sparsity produces (hot tensors keep
    contiguous stripes).  The total length ``n`` and count ``k`` lead the
    stream so decoding is self-delimiting.
    """
    idx = np.asarray(idx, dtype=np.int64)
    buf = bytearray()
    _put_varint(buf, n)
    _put_varint(buf, int(idx.size))
    if idx.size:
        breaks = np.flatnonzero(idx[1:] - idx[:-1] != 1)
        starts = np.concatenate(([0], breaks + 1))
        ends = np.concatenate((breaks, [idx.size - 1]))
        runs = ends - starts + 1
        gaps = np.empty(starts.size, dtype=np.int64)
        gaps[0] = idx[starts[0]]
        gaps[1:] = idx[starts[1:]] - (idx[ends[:-1]] + 1)
        pairs = np.empty(2 * starts.size, dtype=np.int64)
        pairs[0::2] = gaps
        pairs[1::2] = runs
        if pairs.max() < 0x80:
            # Sparse top-k masks live here: every gap and run fits one
            # varint byte, so the whole stream is one vectorized cast
            # instead of a Python loop per run.
            buf += pairs.astype(np.uint8).tobytes()
        else:
            for value in pairs:
                _put_varint(buf, int(value))
    return bytes(buf)


def decode_indices(encoded: bytes) -> tuple[np.ndarray, int]:
    """Invert :func:`encode_indices`; returns ``(indices, n)``.

    The whole stream is checked against its own header before anything is
    materialised, so only a stream that decodes exactly sizes the result.
    """
    pos = 0
    n, pos = _get_varint(encoded, pos, "top-k index")
    k, pos = _get_varint(encoded, pos, "top-k index")
    if k > n or n >> 63:  # past int64 the indices would overflow their dtype
        raise ValueError("corrupt top-k index stream")
    pairs: list[tuple[int, int]] = []
    cursor = 0
    total = 0
    while total < k:
        gap, pos = _get_varint(encoded, pos, "top-k index")
        run, pos = _get_varint(encoded, pos, "top-k index")
        start = cursor + gap
        if run > min(n - start, k - total):
            raise ValueError("corrupt top-k index stream")
        pairs.append((start, run))
        cursor = start + run
        total += run
    if pos != len(encoded):
        raise ValueError("corrupt top-k index stream")
    chunks = [np.arange(start, start + run, dtype=np.int64) for start, run in pairs]
    idx = np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.int64)
    return idx, n


# ----------------------------------------------------------------------
# bf16 quantizer (int8 is inline in TransportCodec._lossy_encode)
# ----------------------------------------------------------------------
def bf16_encode(values: np.ndarray) -> bytes:
    """Truncate to bfloat16 (float32's upper 16 bits), 2 bytes/element."""
    f32 = np.ascontiguousarray(np.ravel(values), dtype=np.float32)
    return (f32.view(np.uint32) >> 16).astype(np.uint16).tobytes()


def bf16_decode(data: bytes, shape: tuple, dtype: np.dtype) -> np.ndarray:
    """Invert :func:`bf16_encode`: values already representable in bf16
    round-trip exactly; everything else lands on its truncated neighbor."""
    u32 = np.frombuffer(data, dtype=np.uint16).astype(np.uint32) << 16
    return u32.view(np.float32).astype(dtype).reshape(shape)


# ----------------------------------------------------------------------
# spec grammar
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TransportConfig:
    """Parsed ``--compress`` spec: what each wire direction encodes with.

    Grammar: comma-separated ``scope:value`` sections, e.g.
    ``update:int8+topk0.01,snapshot:rle``.  The update chain combines at
    most one quantizer (``int8`` | ``bf16``) with an optional ``topk<rate>``
    sparsifier; ``rle`` is the lossless update path and combines with
    nothing.  The snapshot section accepts ``rle`` only (always lossless).
    """

    update_quantizer: str | None = None  # "int8" | "bf16" | None
    update_topk: float | None = None  # keep rate in (0, 1]; None = dense
    update_rle: bool = False  # lossless byte-diff update path
    snapshot_rle: bool = False  # delta-segment byte-diff encoding

    def __post_init__(self) -> None:
        if self.update_quantizer not in (None, "int8", "bf16"):
            raise ValueError(
                f"update quantizer must be 'int8' or 'bf16', "
                f"got {self.update_quantizer!r}"
            )
        if self.update_topk is not None and not 0.0 < self.update_topk <= 1.0:
            raise ValueError(
                f"topk rate must lie in (0, 1], got {self.update_topk}"
            )
        if self.update_rle and (
            self.update_quantizer is not None or self.update_topk is not None
        ):
            raise ValueError(
                "the lossless 'rle' update codec combines with nothing; "
                "drop int8/bf16/topk or drop rle"
            )

    @property
    def has_update(self) -> bool:
        return (
            self.update_quantizer is not None
            or self.update_topk is not None
            or self.update_rle
        )

    @property
    def lossless(self) -> bool:
        """Whether every configured path is bit-exact (CONTRACTS.md I11)."""
        return self.update_quantizer is None and self.update_topk is None

    @property
    def spec(self) -> str:
        """Canonical spec string (stable across equivalent inputs)."""
        sections = []
        if self.has_update:
            if self.update_rle:
                chain = ["rle"]
            else:
                chain = []
                if self.update_topk is not None:
                    chain.append(f"topk{self.update_topk:g}")
                if self.update_quantizer is not None:
                    chain.append(self.update_quantizer)
            sections.append("update:" + "+".join(chain))
        if self.snapshot_rle:
            sections.append("snapshot:rle")
        return ",".join(sections)

    @classmethod
    def parse(cls, spec: str) -> "TransportConfig":
        """Parse ``update:<codec>[+<codec>...][,snapshot:rle]``."""
        if not isinstance(spec, str) or not spec.strip():
            raise ValueError(
                "empty compress spec; expected e.g. "
                "'update:int8+topk0.01,snapshot:rle'"
            )
        quantizer: str | None = None
        topk: float | None = None
        update_rle = False
        snapshot_rle = False
        seen: set[str] = set()
        for section in spec.split(","):
            section = section.strip()
            scope, sep, value = section.partition(":")
            scope = scope.strip()
            value = value.strip()
            if not sep or not value:
                raise ValueError(
                    f"malformed compress section {section!r}; expected "
                    "'update:<codecs>' or 'snapshot:rle'"
                )
            if scope in seen:
                raise ValueError(f"duplicate compress section {scope!r}")
            seen.add(scope)
            if scope == "snapshot":
                if value != "rle":
                    raise ValueError(
                        f"snapshot codec must be 'rle', got {value!r}"
                    )
                snapshot_rle = True
            elif scope == "update":
                for codec in value.split("+"):
                    codec = codec.strip()
                    if codec in ("int8", "bf16"):
                        if quantizer is not None:
                            raise ValueError(
                                f"at most one quantizer per update chain; "
                                f"got both {quantizer!r} and {codec!r}"
                            )
                        quantizer = codec
                    elif codec == "rle":
                        update_rle = True
                    elif codec.startswith("topk"):
                        if topk is not None:
                            raise ValueError("duplicate topk codec")
                        try:
                            topk = float(codec[len("topk"):])
                        except ValueError:
                            raise ValueError(
                                f"malformed topk rate in {codec!r}; expected "
                                "e.g. 'topk0.01'"
                            ) from None
                    else:
                        raise ValueError(
                            f"unknown update codec {codec!r}; choose from "
                            f"{UPDATE_CODECS}"
                        )
            else:
                raise ValueError(
                    f"unknown compress scope {scope!r}; expected 'update' "
                    "or 'snapshot'"
                )
        return cls(
            update_quantizer=quantizer,
            update_topk=topk,
            update_rle=update_rle,
            snapshot_rle=snapshot_rle,
        )


# ----------------------------------------------------------------------
# the stateful update codec
# ----------------------------------------------------------------------
class TransportCodec(Stateful):
    """Encodes client→server updates and carries error-feedback state.

    One instance lives on the coordinator and sees every update exactly
    once, in each dispatch wave's item order (:func:`repro.fl.rounds.encode`
    is the only caller), so the residual stream is a pure function of the
    run config and seed.

    ``encode_update`` mutates the update in place: ``params``/``state``
    are replaced by their decoded post-codec values (bit-identical for
    lossless codecs), ``bytes_up`` becomes the on-wire byte count while
    ``raw_bytes_up`` keeps the uncompressed size, and — with
    ``wire_time=True`` — the simulated upload leg of ``round_time`` is
    re-priced at the wire size.
    """

    schema = schema_tag("TransportCodec", 2)

    def __init__(self, config: TransportConfig):
        self.config = config
        # (client_id, model_id, scope, tensor key) -> residual array.
        # Populated only by lossy codecs; reset on shape change (a model
        # transform re-keys capacity, and a stale residual would be noise).
        self._residuals: dict[tuple[int, str, str, str], np.ndarray] = {}

    # -- Stateful ------------------------------------------------------
    def state_dict(self) -> dict:
        """The residuals as columns, one row per residual in sorted key
        order: ``client_id``, ``tensor`` (a row of the small ``tensors``
        table of ``[model_id, scope, key, dtype, shape]``) and ``size``,
        with the values ravelled into one ``values`` arena per dtype."""
        keys = sorted(self._residuals)
        arrays = [self._residuals[k] for k in keys]
        # Rows are keyed by the dtype object, not its string form, which
        # numpy rebuilds on every ``.str`` access.
        tensors: dict[tuple, int] = {}
        rows = [
            tensors.setdefault((mid, scope, key, arr.dtype, arr.shape), len(tensors))
            for (_, mid, scope, key), arr in zip(keys, arrays)
        ]
        table = [[mid, scope, key, dt.str, list(shape)] for mid, scope, key, dt, shape in tensors]
        values: dict[str, list[np.ndarray]] = {}
        for row, arr in zip(rows, arrays):
            values.setdefault(table[row][3], []).append(arr)
        return {
            "schema": self.schema,
            "spec": self.config.spec,
            "client_id": np.array([k[0] for k in keys], dtype=np.int64),
            "tensor": np.array(rows, dtype=np.int64),
            "size": np.array([arr.size for arr in arrays], dtype=np.int64),
            "tensors": table,
            "values": {dt: np.concatenate(parts, axis=None) for dt, parts in values.items()},
        }

    def load_state_dict(self, payload: dict) -> None:
        v1 = isinstance(payload, dict) and "schema" in payload and payload["schema"] == _V1
        check_schema(payload, _V1 if v1 else self.schema)
        if payload["spec"] != self.config.spec:
            raise ValueError(
                f"checkpoint transport spec {payload['spec']!r} does not "
                f"match the configured {self.config.spec!r}; error-feedback "
                "residuals are codec-specific and cannot be reinterpreted"
            )
        self._residuals = _residuals_v1(payload) if v1 else _residuals_v2(payload)

    # -- encoding ------------------------------------------------------
    def encode_update(
        self,
        update,
        reference=None,
        device=None,
        wire_time: bool = False,
    ) -> None:
        """Encode one :class:`~repro.fl.types.ClientUpdate` in place.

        ``reference`` is the dispatch-time server model (or ``None`` when
        it is gone); its parameter tree anchors delta coding.  ``device``
        supplies the bandwidth for the optional ``wire_time`` re-pricing.
        """
        if not self.config.has_update:
            return
        ref_params = dict(reference.params()) if reference is not None else {}
        ref_state = dict(reference.state()) if reference is not None else {}
        wire = 0
        wire += self._encode_tree(
            update.client_id, update.model_id, "param", update.params, ref_params
        )
        wire += self._encode_tree(
            update.client_id, update.model_id, "state", update.state, ref_state
        )
        raw = int(update.raw_bytes_up)
        update.bytes_up = int(wire)
        if wire_time and device is not None:
            # Re-price only the upload leg: download and training stand.
            update.round_time += (wire - raw) / device.bandwidth

    def _encode_tree(
        self,
        client_id: int,
        model_id: str,
        scope: str,
        tree: dict,
        ref_tree: dict,
    ) -> int:
        """Encode one param/state tree in place; returns its wire bytes."""
        cfg = self.config
        wire = 0
        for key in tree:
            arr = np.ascontiguousarray(tree[key])
            ref = ref_tree.get(key)
            if ref is not None and (
                ref.shape != arr.shape or ref.dtype != arr.dtype
            ):
                ref = None
            # Poisoned tensors ship raw so the quarantine NaN scan still
            # fires on exactly the values the client produced.
            if not np.isfinite(arr).all():
                wire += arr.nbytes
                continue
            if cfg.update_rle:
                if ref is not None:
                    packed = rle_encode_bytes(
                        arr.tobytes(), np.ascontiguousarray(ref).tobytes()
                    )
                    wire += len(packed) if packed is not None else arr.nbytes
                else:
                    wire += arr.nbytes
                continue  # lossless: values untouched
            delta = arr - ref if ref is not None else arr.copy()
            rkey = (client_id, model_id, scope, key)
            residual = self._residuals.get(rkey)
            if residual is not None and residual.shape == delta.shape:
                delta = delta + residual
            nbytes, decoded = self._lossy_encode(delta)
            self._residuals[rkey] = delta - decoded
            tree[key] = ref + decoded if ref is not None else decoded
            wire += nbytes
        return wire

    def _lossy_encode(self, delta: np.ndarray) -> tuple[int, np.ndarray]:
        """Top-k + quantize one delta; returns ``(wire_bytes, decoded)``."""
        cfg = self.config
        flat = np.ravel(delta)
        n = flat.size
        wire = 0
        idx: np.ndarray | None = None
        if cfg.update_topk is not None:
            k = max(1, int(np.ceil(cfg.update_topk * n)))
            if k < n:
                # Stable selection: magnitude first, index breaks ties, so
                # every backend keeps the same k coordinates.  Partition
                # finds the k-th magnitude in O(n); usually exactly k
                # elements reach it and one flatnonzero yields them already
                # index-sorted.  Boundary ties (> k candidates) keep the
                # lowest tied indices — exactly the
                # lexsort((index, -magnitude)) selection, much cheaper.
                mag = np.abs(flat)
                kth = np.partition(mag, n - k)[n - k]
                idx = np.flatnonzero(mag >= kth)
                if idx.size > k:
                    gt = mag[idx] > kth
                    keep = k - np.count_nonzero(gt)
                    idx = np.concatenate((idx[gt], idx[~gt][:keep]))
                    idx.sort()
                wire += len(encode_indices(idx, n))
        values = flat[idx] if idx is not None else flat
        if cfg.update_quantizer == "int8":
            # Symmetric int8: scale = max|x| / 127 and clip(rint(x/scale)),
            # so equal inputs quantize equally on every backend; 1 byte per
            # element plus the scale on the wire, and an all-zero tensor has
            # scale 0 and decodes to exact zeros.  The max-magnitude element
            # always survives top-k, so the selected max equals the overall
            # max — when mag is already paid for, skip a second abs.
            if idx is not None:
                amax = float(mag.max()) if n else 0.0
            else:
                amax = float(np.max(np.abs(values))) if n else 0.0
            wire += values.size + 8  # 8: the float64 scale on the wire
            scale = amax / 127.0
            if scale == 0.0:
                decoded_values = np.zeros(values.shape, dtype=values.dtype)
            else:
                q = np.clip(np.rint(values / scale), -127, 127).astype(np.int8)
                decoded_values = q.astype(values.dtype) * values.dtype.type(
                    scale
                )
        elif cfg.update_quantizer == "bf16":
            payload = bf16_encode(values)
            wire += len(payload)
            decoded_values = bf16_decode(payload, values.shape, values.dtype)
        else:
            wire += values.nbytes
            decoded_values = values.copy()
        if idx is not None:
            decoded = np.zeros(n, dtype=flat.dtype)
            decoded[idx] = decoded_values
        else:
            decoded = decoded_values
        return wire, decoded.reshape(delta.shape)


_V1 = schema_tag("TransportCodec")


def _is_index(value) -> bool:
    return type(value) is int and value >= 0


def _residuals_v2(payload: dict) -> dict:
    """Decode the ``TransportCodec/v2`` columns; a malformed column is a
    ``ValueError`` before any residual is built."""
    cols = [np.asarray(payload[name]) for name in ("client_id", "tensor", "size")]
    tensors, values = payload["tensors"], payload["values"]
    n = len(cols[0])
    if any(col.dtype != np.int64 or col.shape != (n,) for col in cols):
        raise ValueError("TransportCodec/v2: client_id, tensor and size must be equal-length int64 columns")
    if not isinstance(tensors, list):
        raise ValueError("TransportCodec/v2: the tensors table must be a list")
    specs = []
    for row in tensors:
        if not (
            isinstance(row, list) and len(row) == 5
            and all(isinstance(field, str) for field in row[:4])
            and isinstance(row[4], list) and all(map(_is_index, row[4]))
        ):
            raise ValueError(f"TransportCodec/v2: malformed tensors row {row!r}")
        try:
            valid = np.dtype(row[3]).str == row[3]
        except (TypeError, ValueError):
            valid = False
        if not valid:
            raise ValueError(f"TransportCodec/v2: unknown dtype {row[3]!r}")
        specs.append((*row[:4], tuple(row[4]), math.prod(row[4])))
    client_id, tensor, size = (col.tolist() for col in cols)
    if any(not 0 <= t < len(specs) or specs[t][5] != m for t, m in zip(tensor, size)):
        raise ValueError("TransportCodec/v2: a tensor index or size disagrees with the tensors table")
    totals: dict[str, int] = {}
    for t, m in zip(tensor, size):
        totals[specs[t][3]] = totals.get(specs[t][3], 0) + m
    if not (
        isinstance(values, dict) and values.keys() == totals.keys()
        and all(
            isinstance(arena, np.ndarray) and arena.dtype.str == dtype
            and arena.shape == (totals[dtype],)
            for dtype, arena in values.items()
        )
    ):
        raise ValueError("TransportCodec/v2: the values arenas disagree with the size column")
    offsets = dict.fromkeys(totals, 0)
    residuals = {}
    for cid, t, m in zip(client_id, tensor, size):
        mid, scope, key, dtype, shape, _ = specs[t]
        start = offsets[dtype]
        residuals[(cid, mid, scope, key)] = values[dtype][start : start + m].reshape(shape).copy()
        offsets[dtype] = start + m
    if len(residuals) != n:
        raise ValueError("TransportCodec/v2: a residual row is repeated")
    return residuals


def _residuals_v1(payload: dict) -> dict:
    """One-way reader of ``TransportCodec/v1`` checkpoints, whose
    ``residuals`` were a list of one dict per residual."""
    entries = payload["residuals"]
    if not isinstance(entries, list):
        raise ValueError("TransportCodec/v1: residuals must be a list")
    residuals = {}
    for e in entries:
        if not (
            isinstance(e, dict)
            and e.keys() == {"client_id", "model_id", "scope", "key", "value"}
            and isinstance(e["client_id"], (int, np.integer))
            and all(isinstance(e[f], str) for f in ("model_id", "scope", "key"))
            and isinstance(e["value"], np.ndarray)
        ):
            raise ValueError(f"TransportCodec/v1: malformed residual entry {e!r}")
        residuals[(int(e["client_id"]), e["model_id"], e["scope"], e["key"])] = e["value"]
    return residuals
