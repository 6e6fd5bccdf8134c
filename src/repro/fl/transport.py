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
* **server→worker snapshots** — none.  ``snapshot:rle`` is accepted and
  recorded in the ``compress`` field of exports, but a snapshot is one raw
  full segment (:mod:`~repro.fl.snapshot`) either way, so its publish wire
  bytes equal its raw bytes.  The token stays only because the benchmark
  workloads (``benchmarks/e2e/workloads.py``) pass it.

The simulation never ships real packets, so "encoding" means: produce the
actual encoded byte payload (its length is the on-wire cost the ledger
meters), decode it back, and hand the *decoded* values to aggregation —
lossy codecs therefore change the trajectory exactly as they would in a
real deployment, and lossless codecs are bit-identical by construction
(CONTRACTS.md I11).  A tensor that is not finite — or whose delta plus
residual is not — bypasses the codec (shipped raw), so the quarantine NaN
scan still sees the poison it exists to catch and no residual turns
non-finite.

One call encodes a whole flush (every update a sync round or an async
flush ships): :meth:`TransportCodec.encode_update` groups the updates'
param/state trees into *blocks* of one dtype and tensor-shape list,
stacks each as an ``(m, N)`` matrix, and runs the lossy codec as a few
whole-block array ops — one top-k partition per tensor, the quantizer
over the block, the index streams' byte count from one ``diff`` over
separator-padded rows.  The per-tensor codec it replaced is the oracle in
``tests/oracle_transport.py``, held to byte equality.

Error feedback keeps quantization honest across rounds: the residual
``d - decode(encode(d))`` is kept per ``(client, model, scope, tensor)``
and added to the next delta from the same client before encoding, so
systematic quantization error accumulates into later updates instead of
being lost.  The residuals live in one table per (model, scope), whose
layout is that tree's dtype, tensor keys and shapes: a client's residuals
are one row of the layout's width, in fixed-size row chunks that are
allocated on demand and never copied, with a ``present`` flag per (row,
tensor).  A model id keeps its layout for life (a transform derives a new
model id), so an encode whose tree has another layout than its table
deletes the table, resetting that model and scope's residuals, and a tree
that mixes dtypes is refused.  An encode reads a block's rows from the
tables and writes each new residual into its row in place.
Residual state implements :class:`~repro.stateful.Stateful` so compressed
runs checkpoint/resume bit-identically (CONTRACTS.md I9); its payload
(``TransportCodec/v3``) is per table a few columns and the value chunks,
views of the live storage, so a checkpoint copies no residual and does not
grow a member per client seen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..stateful import Stateful, check_schema, checked_array, schema_tag

__all__ = [
    "UPDATE_CODECS",
    "TransportConfig",
    "TransportCodec",
    "spec_number",
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
# bf16 quantizer (int8 is inline in TransportCodec._encode_block)
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
def spec_number(value: float) -> str:
    """A spec grammar's spelling of ``value``: ``:g`` where that parses back
    to the same float, else the shortest string that does (``repr``)."""
    short = f"{value:g}"
    return short if float(short) == value else repr(float(value))


@dataclass(frozen=True)
class TransportConfig:
    """Parsed ``--compress`` spec: what each wire direction encodes with.

    Grammar: comma-separated ``scope:value`` sections, e.g.
    ``update:int8+topk0.01,snapshot:rle``.  The update chain combines at
    most one quantizer (``int8`` | ``bf16``) with an optional ``topk<rate>``
    sparsifier; ``rle`` is the lossless update path and combines with
    nothing.  The snapshot section accepts ``rle`` only, which is recorded
    in the spec but writes the same raw segment as no snapshot section.
    """

    update_quantizer: str | None = None  # "int8" | "bf16" | None
    update_topk: float | None = None  # keep rate in (0, 1]; None = dense
    update_rle: bool = False  # lossless byte-diff update path
    snapshot_rle: bool = False  # recorded in the spec; publishes stay raw

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
                    chain.append(f"topk{spec_number(self.update_topk)}")
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
    once, in dispatch order — the sync round's item order, or the async
    engine's at each flush, against the models of the dispatch epoch
    (:func:`repro.fl.rounds.encode` is the only caller, once per flush) —
    so the residual stream is a pure function of the run config and seed.

    ``encode_update`` mutates each update in place: ``params``/``state``
    are replaced by their decoded post-codec values (bit-identical for
    lossless codecs), ``bytes_up`` becomes the on-wire byte count while
    ``raw_bytes_up`` keeps the uncompressed size, and — with
    ``wire_time=True`` — the simulated upload leg of ``round_time`` is
    re-priced at the wire size.

    The residuals live in :class:`_Table` s, one per (model, scope); a
    tree of another layout deletes its table, and a tree of mixed dtypes
    is a ``ValueError``.  :meth:`residual` reads one tensor's.
    ``state_dict`` hands out views of that live storage, so a checkpoint
    copies none of it: write the payload before the next encode.
    """

    schema = schema_tag("TransportCodec", 3)

    def __init__(self, config: TransportConfig):
        self.config = config
        # (model_id, scope) -> its residual table.  Populated only by
        # lossy codecs; a table goes whole, when its tree changes layout.
        self._tables: dict[tuple[str, str], _Table] = {}
        # (dtype, tensor shapes) -> its block plan, derived from the config.
        self._layouts: dict[tuple, _Layout] = {}

    def residual(self, client_id: int, model_id: str, scope: str, key: str) -> np.ndarray | None:
        """The error-feedback residual of one tensor, or ``None``: a view of
        the live row, which the client's next encode overwrites."""
        table = self._tables.get((model_id, scope))
        slot, t = (table.rows.get(client_id), table.index.get(key)) if table else (None, None)
        if slot is None or t is None or not table.present[slot, t]:
            return None
        lo, hi = table.layout.bounds[t]
        return table.row(slot)[lo:hi].reshape(table.layout.shapes[t])

    # -- Stateful ------------------------------------------------------
    def state_dict(self) -> dict:
        """Per table, in creation order: its ``model_id``, ``scope``,
        ``dtype``, tensor ``keys`` and ``shapes``, an int64 ``client_id``
        per row, the ``present`` mask per (row, tensor) and the ``values``
        chunks trimmed to the used rows — every array a view of the live
        table, so the container streams it without a concatenation."""
        return {
            "schema": self.schema,
            "spec": self.config.spec,
            "tables": [table.state() for table in self._tables.values()],
        }

    def load_state_dict(self, payload: dict) -> None:
        check_schema(payload, self.schema, ("spec", "tables"))
        if payload["spec"] != self.config.spec:
            raise ValueError(
                f"{self.schema}: checkpoint transport spec {payload['spec']!r} does not "
                f"match the configured {self.config.spec!r}; error-feedback "
                "residuals are codec-specific and cannot be reinterpreted"
            )
        entries = payload["tables"]
        if type(entries) is not list:
            raise ValueError(f"{self.schema} tables: {type(entries).__name__} is not a list")
        tables: dict[tuple[str, str], _Table] = {}
        for i, entry in enumerate(entries):
            table = _Table.from_state(f"{self.schema} tables[{i}]", entry, self._layout)
            if tables.setdefault(table.id, table) is not table:
                raise ValueError(
                    f"{self.schema} tables[{i}]: a second table of {table.model_id} {table.scope}"
                )
        self._tables = tables

    # -- encoding ------------------------------------------------------
    def encode_update(
        self,
        update,
        reference=None,
        device=None,
        wire_time: bool = False,
    ) -> None:
        """Encode one :class:`~repro.fl.types.ClientUpdate`, or a flush of
        them, in place.

        ``update`` is one update or a sequence (a *flush*, in dispatch
        order); ``reference`` and ``device`` are then one object each or
        sequences of the same length.  A reference is the dispatch-time
        server model (or ``None`` when it is gone); its parameter tree
        anchors delta coding.  A device supplies the bandwidth for the
        optional ``wire_time`` re-pricing.
        """
        if not self.config.has_update:
            return
        if isinstance(update, (list, tuple)):
            updates = list(update)
            references = _per_update(reference, len(updates), "reference")
            devices = _per_update(device, len(updates), "device")
        else:
            updates, references, devices = [update], [reference], [device]
        if len({(u.client_id, u.model_id) for u in updates}) < len(updates):
            # Each would read the residual the other one leaves.
            raise ValueError("a flush carries at most one update per (client, model)")
        wires = self._encode_flush(list(zip(updates, references)))
        for u, dev, wire in zip(updates, devices, wires):
            raw = int(u.raw_bytes_up)
            u.bytes_up = wire
            if wire_time and dev is not None:
                # Re-price only the upload leg: download and training stand.
                u.round_time += (wire - raw) / dev.bandwidth

    def _encode_flush(self, flush: list) -> list[int]:
        """Encode ``(update, reference)`` pairs; returns each update's wire
        bytes."""
        cfg = self.config
        wires = [0] * len(flush)
        ref_trees: dict[int, tuple[dict, dict]] = {}
        # One block per (dtype, tensor shapes): the trees of any update,
        # model or scope that share that layout.
        blocks: dict[_Layout, list[_Row]] = {}
        plans: dict[tuple[str, str], tuple] = {}  # (model, scope) -> (layout, keys)
        for i, (update, reference) in enumerate(flush):
            if reference is not None and id(reference) not in ref_trees:
                ref_trees[id(reference)] = (dict(reference.params()), dict(reference.state()))
            ref_params, ref_state = ref_trees.get(id(reference), ({}, {}))
            for scope, tree, ref_tree in (
                ("param", update.params, ref_params), ("state", update.state, ref_state)
            ):
                if cfg.update_rle:
                    wires[i] += _rle_wire(tree, ref_tree)
                    continue
                if not tree:
                    continue
                arrays, owner = list(tree.values()), (update.model_id, scope)
                dtypes = sorted({arr.dtype.str for arr in arrays})
                if len(dtypes) > 1:
                    raise ValueError(
                        f"{update.model_id} {scope}: a residual table holds one dtype, "
                        f"the tree mixes {dtypes}"
                    )
                plan = (self._layout(arrays[0].dtype, tuple(arr.shape for arr in arrays)), tuple(tree))
                if plans.setdefault(owner, plan) != plan:
                    raise ValueError(f"{update.model_id} {scope}: a flush carries one layout per model and scope")
                blocks.setdefault(plan[0], []).append(
                    _Row(i, (update.client_id, *owner), tree, plan[1], arrays, ref_tree)
                )
        for owner, plan in plans.items():
            table = self._tables.get(owner)
            if table is not None and (table.layout, table.keys) != plan:
                del self._tables[owner]  # another layout: its residuals reset
        for layout, rows in blocks.items():
            self._encode_block(layout, rows, wires)
        return wires

    def _encode_block(self, layout: "_Layout", rows: "list[_Row]", wires: list[int]) -> None:
        """Top-k + quantize one block, its m rows' tensors stacked as an
        ``(m, N)`` matrix, each step one whole-block op; the rows' trees
        and residuals are updated in place and ``wires`` gains each row's
        bytes.

        A tensor whose ``delta + residual`` or decoded delta is not finite
        ships raw: its values and residual stay as they were, and its wire
        cost is its raw size.
        """
        cfg = self.config
        m, dtype, tensors = len(rows), layout.dtype, len(layout.sizes)
        values = np.concatenate([arr for row in rows for arr in row.arrays], axis=None)
        values = values.reshape(m, layout.width)
        # Each row's reference tensors as one vector, +0.0 where there is
        # none (gone, reshaped): x - (+0.0) is x for every x.
        plans: dict[tuple, tuple] = {}
        for row in rows:
            if (id(row.ref_tree), row.keys) not in plans:
                refs = [row.ref_tree.get(key) for key in row.keys]
                has = [
                    ref is not None and ref.shape == arr.shape and ref.dtype == arr.dtype
                    for ref, arr in zip(refs, row.arrays)
                ]
                vec = np.concatenate(
                    [ref if ok else layout.zeros[lo:hi]
                     for ref, ok, (lo, hi) in zip(refs, has, layout.bounds)],
                    axis=None,
                ) if any(has) else None
                plans[(id(row.ref_tree), row.keys)] = (vec, has)
        row_plans = [plans[(id(row.ref_tree), row.keys)] for row in rows]
        if len(plans) == 1:
            ref_block = row_plans[0][0]  # one reference for all rows: broadcast
        elif any(vec is not None for vec, _ in row_plans):
            ref_block = np.stack([layout.zeros if vec is None else vec for vec, _ in row_plans])
        else:
            ref_block = None
        work = values if ref_block is None else values - ref_block
        # Error feedback, one table row per row; -0.0 where a residual is
        # missing, as x + (-0.0) is x for every x.
        homes = [self._slot(row, layout) for row in rows]
        if any(slot is not None for _, slot in homes):
            np.add(work, np.concatenate([
                layout.neg_zeros if slot is None else table.read(slot) for table, slot in homes
            ], axis=None).reshape(work.shape), out=work)
        raw = None
        finite = np.isfinite(work)
        if not finite.all():
            raw = layout.per_tensor(np.logical_or, ~finite)
            work[~finite] = 0  # inert stand-ins: these tensors ship raw
        # Top-k: each (row, tensor)'s k-th magnitude comes from one
        # partition per tensor, and a row keeps what reaches it.  Usually
        # exactly k do; boundary ties keep the lowest tied indices.
        mag = np.abs(work) if layout.sparse or cfg.update_quantizer == "int8" else None
        keep = None
        if layout.sparse:
            kth = np.zeros((m, tensors), dtype=mag.dtype)
            for t, lo, hi, pos in layout.sparse:
                kth[:, t] = np.partition(mag[:, lo:hi], pos, axis=1)[:, pos]
            keep = mag >= layout.spread(kth)
            if np.count_nonzero(keep) != m * layout.kept_total:
                _break_ties(layout, mag, kth, keep, raw)
        if cfg.update_quantizer == "int8":
            # Symmetric int8 per (row, tensor): scale = max|x| / 127 and
            # clip(rint(x/scale)); a zero scale decodes to exact zeros.
            # The max-magnitude element always survives top-k, so the
            # tensor's max is the kept values' max.
            scale = layout.per_tensor(np.maximum, mag).astype(np.float64) / 127.0
            divisor = np.where(scale == 0.0, 1.0, scale).astype(layout.quotient)
            q = np.rint(work / layout.spread(divisor))
            q = np.clip(q, -127, 127, out=q).astype(np.int8)
            decoded = q.astype(dtype) * layout.spread(scale.astype(dtype))
        elif cfg.update_quantizer == "bf16":
            decoded = bf16_decode(bf16_encode(work), work.shape, dtype)
        else:
            decoded = work
        seg_wire = np.broadcast_to(layout.wire, (m, tensors))
        if keep is not None:
            decoded = np.where(keep, decoded, 0)
            seg_wire = seg_wire + layout.index_bytes(keep)
        bad = ~np.isfinite(decoded)
        if bad.any():  # the quantizer overflowed (bf16 of a huge float64)
            over = layout.per_tensor(np.logical_or, bad)
            raw = over if raw is None else raw | over
        if raw is not None:
            seg_wire = np.where(raw, layout.nbytes, seg_wire)
        row_wires = seg_wire.sum(axis=1).tolist()
        residual = work - decoded
        out = decoded if ref_block is None else ref_block + decoded
        shipped_raw = raw.tolist() if raw is not None else [[False] * tensors] * m
        for r, (row, (_, has)) in enumerate(zip(rows, row_plans)):
            wires[row.index] += row_wires[r]
            skips = shipped_raw[r]
            for key, ok, (lo, hi), shape, skip in zip(
                row.keys, has, layout.bounds, layout.shapes, skips
            ):
                if not skip:
                    row.tree[key] = (out if ok else decoded)[r, lo:hi].reshape(shape)
            if not all(skips):
                self._store(row, layout, residual[r], skips)

    # -- residual tables -----------------------------------------------
    def _layout(self, dtype: np.dtype, shapes: tuple) -> "_Layout":
        layout = self._layouts.get((dtype, shapes))
        if layout is None:
            layout = self._layouts[(dtype, shapes)] = _Layout(shapes, dtype, self.config)
        return layout

    def _slot(self, row: "_Row", layout: "_Layout", create: bool = False) -> tuple:
        """``(table, slot)`` of the row's owner, created when ``create``;
        ``(None, None)`` or ``(table, None)`` when absent.  A table found
        has the row's layout: the flush deleted one of another."""
        cid, mid, scope = row.owner
        table = self._tables.get((mid, scope))
        if table is None and create:
            table = self._tables[(mid, scope)] = _Table(mid, scope, row.keys, layout)
        slot = table.rows.get(cid) if table is not None else None
        if slot is None and create:
            slot = len(table.rows)
            if slot == table.client_id.size:  # the columns double; the chunks stay
                table.client_id = np.concatenate([table.client_id, np.zeros_like(table.client_id)])
                table.present = np.concatenate([table.present, np.zeros_like(table.present)])
            if slot == len(table.chunks) * _CHUNK_ROWS:
                table.chunks.append(np.zeros((_CHUNK_ROWS, layout.width), dtype=layout.dtype))
            table.client_id[slot] = cid
            table.rows[cid] = slot
        return table, slot

    def _store(self, row: "_Row", layout: "_Layout", values: np.ndarray, skip: list) -> None:
        """Write the row's new residuals in place, but for the tensors
        shipped raw (``skip``)."""
        table, slot = self._slot(row, layout, create=True)
        dest = table.row(slot)
        if not any(skip):
            dest[:] = values
            table.present[slot] = True
        else:
            for t, ((lo, hi), raw) in enumerate(zip(layout.bounds, skip)):
                if not raw:
                    dest[lo:hi] = values[lo:hi]
                    table.present[slot, t] = True

class _Row(NamedTuple):
    """One update's param or state tree, as a row of a block."""

    index: int  # the update's position in its flush
    owner: tuple[int, str, str]  # (client_id, model_id, scope): residual keys
    tree: dict
    keys: tuple[str, ...]
    arrays: list[np.ndarray]
    ref_tree: dict


def _per_update(value, n: int, name: str) -> list:
    """One object for every update of a flush, or one per update."""
    if not isinstance(value, (list, tuple)):
        return [value] * n
    if len(value) != n:
        raise ValueError(f"a flush of {n} updates got {len(value)} {name}s")
    return list(value)


def _rle_wire(tree: dict, ref_tree: dict) -> int:
    """The lossless ``rle`` path's wire bytes for one tree (values untouched)."""
    wire = 0
    for key in tree:
        arr = np.ascontiguousarray(tree[key])
        ref = ref_tree.get(key)
        # Poisoned tensors ship raw so the quarantine NaN scan still fires
        # on exactly the values the client produced.
        if (
            ref is None or ref.shape != arr.shape or ref.dtype != arr.dtype
            or not np.isfinite(arr).all()
        ):
            wire += arr.nbytes
            continue
        packed = rle_encode_bytes(arr.tobytes(), np.ascontiguousarray(ref).tobytes())
        wire += len(packed) if packed is not None else arr.nbytes
    return wire


def _varint_len(value: int) -> int:
    """Bytes :func:`_put_varint` spends on ``value``."""
    return 1 + (value.bit_length() - 1) // 7 if value else 1


class _Layout:
    """The column plan of a block: tensors of one dtype and shape list,
    laid side by side in ``width`` columns.

    Everything here is a function of the shapes and the codec config, so
    a codec builds it once per layout, not once per flush.
    """

    def __init__(self, shapes: tuple, dtype: np.dtype, config: TransportConfig):
        topk, quantizer = config.update_topk, config.update_quantizer
        sizes = [math.prod(shape) for shape in shapes]
        starts = np.cumsum([0] + sizes[:-1], dtype=np.int64)
        self.shapes, self.dtype = shapes, dtype
        self.sizes = np.array(sizes, dtype=np.int64)
        self.bounds = [(int(lo), int(lo) + n) for lo, n in zip(starts, sizes)]
        self.width = sum(sizes)
        self.nbytes = self.sizes * dtype.itemsize
        # What int8's x / scale divides in: the dtype a Python float scale
        # takes against this one (float32 stays float32).
        self.quotient = np.result_type(dtype, 1.0)
        self.zeros = np.zeros(self.width, dtype=dtype)
        self.neg_zeros = np.full(self.width, -0.0, dtype=dtype)
        # reduceat cannot express an empty segment: reductions run over the
        # non-empty tensors.
        self.nonempty = np.flatnonzero(self.sizes)
        self.nonempty_starts = starts[self.nonempty]
        # Per tensor: the k it keeps (k < n: top-k thins it, and
        # ``sparse`` holds (t, lo, hi, n - k)), its index stream's header
        # bytes, and its wire bytes but the stream's (gap, run) pairs.
        kept, self.headers, wire, self.sparse = [], [], [], []
        for t, (n, (lo, hi)) in enumerate(zip(sizes, self.bounds)):
            k = max(1, int(np.ceil(topk * n))) if topk is not None else n
            header = 0
            if k < n:
                self.sparse.append((t, lo, hi, n - k))
                header = _varint_len(n) + _varint_len(k)
            else:
                k = n
            kept.append(k)
            self.headers.append(header)
            payload = {"int8": k + 8, "bf16": 2 * k}.get(quantizer, k * dtype.itemsize)
            wire.append(header + payload)
        self.kept = np.array(kept, dtype=np.int64)
        self.kept_total = sum(kept)
        self.wire = np.array(wire, dtype=np.int64)
        if self.sparse:
            # The index streams' plan: sparse tensors' columns are copied
            # into a padded row with a zero separator column before each
            # tensor and at the end, so no run crosses a tensor boundary.
            # A run starting at padded column c + 1 shows at column c of
            # the row's diff; ``run_base[c]`` is where a run starting at
            # that tensor's first element shows, ``run_tensor[c]`` the
            # tensor's index.
            t_of = np.repeat(np.arange(len(sizes)), sizes)
            self.cols = np.concatenate([np.arange(lo, hi) for _, lo, hi, _ in self.sparse])
            self.padded_cols = self.cols + t_of[self.cols] + 1
            self.padded_width = self.width + len(sizes) + 1
            self.run_base = np.zeros(self.padded_width - 1, dtype=np.int64)
            self.run_tensor = np.zeros(self.padded_width - 1, dtype=np.int64)
            for t, (lo, hi) in enumerate(self.bounds):
                self.run_base[lo + t : hi + t] = lo + t
                self.run_tensor[lo + t : hi + t] = t

    def spread(self, per_tensor: np.ndarray) -> np.ndarray:
        """``(m, tensors)`` -> ``(m, width)``: each value over its tensor's
        columns."""
        return np.repeat(per_tensor, self.sizes, axis=1)

    def per_tensor(self, ufunc: np.ufunc, x: np.ndarray, dtype=None) -> np.ndarray:
        """``ufunc.reduceat`` over each tensor's columns: ``(m, width)`` ->
        ``(m, tensors)``, an empty tensor reducing to 0."""
        if self.nonempty.size == len(self.sizes):
            return ufunc.reduceat(x, self.nonempty_starts, axis=1, dtype=dtype)
        out = np.zeros((x.shape[0], len(self.sizes)), dtype=dtype or x.dtype)
        if self.nonempty.size:
            out[:, self.nonempty] = ufunc.reduceat(x, self.nonempty_starts, axis=1, dtype=dtype)
        return out

    def index_bytes(self, keep: np.ndarray) -> np.ndarray:
        """``(m, tensors)`` bytes of the (gap, run) varint pairs
        :func:`encode_indices` writes for each row's kept columns."""
        m, tensors = keep.shape[0], len(self.bounds)
        padded = np.zeros((m, self.padded_width), dtype=np.int8)
        padded[:, self.padded_cols] = keep[:, self.cols]
        edges = np.flatnonzero(np.diff(padded, axis=1))
        starts, ends = edges[0::2], edges[1::2]
        stride = self.padded_width - 1
        row = starts // stride
        col = starts - row * stride
        # A run's gap counts the dropped columns since the previous run's
        # end or, for a tensor's first run, since the tensor's start.
        prev = np.empty_like(ends)
        prev[:1] = -1
        prev[1:] = ends[:-1]
        gaps = starts - np.maximum(prev, row * stride + self.run_base[col])
        runs = ends - starts
        segment = row * tensors + self.run_tensor[col]
        # Sparse masks keep every gap and run under 0x80: one varint byte
        # each.  A segment with a longer one has its stream built and
        # measured.
        counts = 2 * np.bincount(segment, minlength=m * tensors)
        for seg in np.unique(segment[(gaps >= 0x80) | (runs >= 0x80)]).tolist():
            r, t = divmod(seg, tensors)
            lo, hi = self.bounds[t]
            stream = encode_indices(np.flatnonzero(keep[r, lo:hi]), hi - lo)
            counts[seg] = len(stream) - self.headers[t]
        return counts.reshape(m, tensors)


def _break_ties(layout: _Layout, mag, kth, keep, raw) -> None:
    """Trim the (row, tensor) segments where more than k magnitudes reach
    the k-th: all strictly larger ones stay, and of the tied ones the
    lowest indices fill the rest, exactly the ``lexsort((index,
    -magnitude))`` selection."""
    over = layout.per_tensor(np.add, keep, dtype=np.int64) > layout.kept
    if raw is not None:
        over &= ~raw
    for r, t in zip(*np.nonzero(over)):
        lo, hi = layout.bounds[t]
        segment = mag[r, lo:hi]
        tied = np.flatnonzero(segment == kth[r, t])
        room = int(layout.kept[t]) - int(np.count_nonzero(segment > kth[r, t]))
        keep[r, lo + tied[room:]] = False


#: Rows per residual chunk: a table grows by whole chunks and never moves
#: the rows a chunk holds.
_CHUNK_ROWS = 64
_TABLE_KEYS = ("model_id", "scope", "dtype", "keys", "shapes", "client_id", "present", "values")


class _Table:
    """The error-feedback residuals of one (model, scope), whose layout is
    that tree's dtype, tensor ``keys`` and shapes: a row of
    ``layout.width`` values per client, in ``_CHUNK_ROWS``-row chunks
    allocated on demand and never copied, and a ``present`` flag per (row,
    tensor).  Rows are dense, rows past the used ones stay zero, and a row
    once added stays: the codec adds and writes rows and deletes whole
    tables; a table is its storage."""

    def __init__(self, model_id: str, scope: str, keys: tuple, layout: _Layout, rows: int = 0):
        self.model_id, self.scope, self.keys, self.layout = model_id, scope, keys, layout
        self.id = (model_id, scope)
        self.index = {key: t for t, key in enumerate(keys)}
        self.rows: dict[int, int] = {}  # client id -> row
        capacity = _CHUNK_ROWS * max(1, -(-rows // _CHUNK_ROWS))
        self.client_id = np.zeros(capacity, dtype=np.int64)
        self.present = np.zeros((capacity, len(keys)), dtype=bool)
        self.chunks = [
            np.zeros((_CHUNK_ROWS, layout.width), dtype=layout.dtype)
            for _ in range(-(-rows // _CHUNK_ROWS))
        ]

    def row(self, slot: int) -> np.ndarray:
        return self.chunks[slot // _CHUNK_ROWS][slot % _CHUNK_ROWS]

    def read(self, slot: int) -> np.ndarray:
        """A row's residuals, -0.0 over each tensor it holds none of."""
        values, present = self.row(slot), self.present[slot]
        if present.all():
            return values
        return np.where(np.repeat(present, self.layout.sizes), values, self.layout.neg_zeros)

    def state(self) -> dict:
        n = len(self.rows)
        return {
            "model_id": self.model_id,
            "scope": self.scope,
            "dtype": self.layout.dtype.str,
            "keys": list(self.keys),
            "shapes": [list(shape) for shape in self.layout.shapes],
            "client_id": self.client_id[:n],
            "present": self.present[:n],
            "values": [
                chunk[: n - i * _CHUNK_ROWS]
                for i, chunk in enumerate(self.chunks[: -(-n // _CHUNK_ROWS)])
            ],
        }

    @classmethod
    def from_state(cls, where: str, entry: object, layout_of) -> "_Table":
        """Rebuild a :meth:`state` payload into fresh storage; anything a
        table could not have written is a ``ValueError`` starting with
        ``where`` and naming the key."""
        found = entry.keys() if type(entry) is dict else set()
        if found != set(_TABLE_KEYS):
            raise ValueError(
                f"{where}: missing keys {sorted(set(_TABLE_KEYS) - found)}, "
                f"unexpected keys {sorted(found - set(_TABLE_KEYS))}"
            )
        for key in ("model_id", "scope", "dtype"):
            if type(entry[key]) is not str:
                raise ValueError(f"{where} {key}: {entry[key]!r} is not a str")
        if entry["scope"] not in ("param", "state"):
            raise ValueError(f"{where} scope: {entry['scope']!r} is not 'param' or 'state'")
        try:
            dtype = np.dtype(entry["dtype"])
        except (TypeError, ValueError, SyntaxError):  # numpy reads ",f8" as Python
            dtype = None
        if dtype is None or dtype.str != entry["dtype"] or dtype.kind != "f":
            raise ValueError(f"{where} dtype: {entry['dtype']!r} is not a floating dtype")
        keys, shapes = entry["keys"], entry["shapes"]
        if not (
            type(keys) is list and keys and all(type(k) is str for k in keys)
            and len(set(keys)) == len(keys)
        ):
            raise ValueError(f"{where} keys: {keys!r} is not a list of distinct tensor keys")
        if not (
            type(shapes) is list and len(shapes) == len(keys)
            and all(type(s) is list and all(type(d) is int and d >= 0 for d in s) for s in shapes)
        ):
            raise ValueError(f"{where} shapes: {shapes!r} is not one shape per key")
        for shape in shapes:  # the values' width bounds the others
            if not math.prod(shape):
                try:
                    np.empty(shape, dtype=dtype)
                except ValueError:
                    raise ValueError(f"{where} shapes: {shape!r} is no array's shape") from None
        ids = entry["client_id"]
        n = ids.shape[0] if type(ids) is np.ndarray and ids.ndim == 1 else -1
        checked_array(where, entry, "client_id", np.int64, (max(n, 0),))
        if n == 0 or np.unique(ids).size != n:
            raise ValueError(f"{where} client_id: {'no row' if n == 0 else 'a repeated client'}")
        present = checked_array(where, entry, "present", np.bool_, (n, len(keys)))
        if not present.any(axis=1).all():
            raise ValueError(f"{where} present: a row holds no residual")
        # The chunks are checked against the declared shapes before those
        # size anything: a table allocates no more than its chunks hold.
        width, values = sum(math.prod(shape) for shape in shapes), entry["values"]
        chunks = -(-n // _CHUNK_ROWS)
        if type(values) is not list or len(values) != chunks:
            raise ValueError(f"{where} values: not a list of {chunks} chunks")
        for i, chunk in enumerate(values):
            shape = (min(_CHUNK_ROWS, n - i * _CHUNK_ROWS), width)
            if not (type(chunk) is np.ndarray and chunk.dtype == dtype and chunk.shape == shape):
                got = f"{chunk.dtype} {chunk.shape}" if type(chunk) is np.ndarray else type(chunk).__name__
                raise ValueError(f"{where} values[{i}]: must be a {dtype} array of shape {shape}, got {got}")
            # A live encode never leaves a non-finite residual (such tensors
            # ship raw); one would silently zero its client's next update.
            if not np.isfinite(chunk).all():
                raise ValueError(f"{where} values[{i}]: a residual holds a non-finite value")
        table = cls(entry["model_id"], entry["scope"], tuple(keys),
                    layout_of(dtype, tuple(tuple(s) for s in shapes)), n)
        for chunk, dest in zip(values, table.chunks):
            dest[: len(chunk)] = chunk
        table.client_id[:n] = ids
        table.present[:n] = present
        table.rows = dict(zip(ids.tolist(), range(n)))
        return table
