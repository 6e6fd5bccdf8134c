"""Shared-memory model snapshot segments for the process round executor.

The process backend used to publish models as pickle files: every publish
serialized each changed model's tensors into bytes, and every worker
deserialized them back into fresh arrays.  This module replaces the byte
round-trip with ``multiprocessing.shared_memory`` segments:

* the coordinator writes each changed model's parameter/state tensors
  **once** into a segment (raw, aligned, no serialization);
* a small pickled header at the start of the segment carries everything
  that is not bulk float data — the architecture spec
  (:func:`~repro.nn.serialization.model_spec`), per-tensor
  ``(offset, shape, dtype)`` records, and the delta bookkeeping (removed
  ids, the coherent id set);
* workers attach the segment and rebuild each model around **read-only
  views** into the mapped buffer — a delta is a handful of offsets, not
  serialized bytes, and the tensor data is never copied on the worker
  side (training clones the suite model per work item, exactly as
  before, which is where the private writable copy comes from).

Which segments exist, who owns them and when they are retired is the chain
protocol's business (:mod:`~repro.fl.snapshot`); this module lays out one
segment and supplies the one cleanup path (:func:`unlink_segments`).
"""

from __future__ import annotations

import logging
import pickle
import struct
from multiprocessing import shared_memory

import numpy as np

from ..nn.model import CellModel
from ..nn.serialization import model_from_spec, model_spec
from .transport import rle_decode_bytes, rle_encode_bytes

__all__ = [
    "WIRE_FORMAT_VERSION",
    "SnapshotFormatError",
    "write_snapshot_segment",
    "read_snapshot_segment",
    "attach_segment",
    "segment_exists",
    "unlink_segments",
]

_ALIGN = 64

#: Wire-format version of snapshot segments.  Version 1 was the implicit
#: pre-tag layout (a bare 8-byte header length, per-tensor records without
#: an encoding column); version 2 added the magic/version prefix and
#: codec-aware tensor records.  Readers reject anything else up front with
#: a descriptive :class:`SnapshotFormatError` instead of a pickle mismatch.
WIRE_FORMAT_VERSION = 2

_MAGIC = b"RSNP"
# magic, wire-format version, pickled-header length.
_PREFIX = struct.Struct("<4sHQ")


class SnapshotFormatError(RuntimeError):
    """A segment's wire format cannot be decoded by this reader."""


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) & ~(_ALIGN - 1)


# ----------------------------------------------------------------------
# coordinator side: write
# ----------------------------------------------------------------------
def _tensor_items(model: CellModel):
    """Deterministic (scope, key, array) walk: params then state."""
    for key, arr in model.params().items():
        yield "param", key, arr
    for key, arr in model.state().items():
        yield "state", key, arr


def write_snapshot_segment(
    name: str,
    kind: str,
    models: dict[str, CellModel],
    removed: frozenset[str] = frozenset(),
    all_ids: frozenset[str] = frozenset(),
    *,
    rle: bool = False,
    shadow: dict[tuple[str, str, str], bytes] | None = None,
) -> tuple[shared_memory.SharedMemory, int, int]:
    """Create segment ``name`` holding ``models``.

    ``kind`` is ``"full"`` (the complete suite) or ``"delta"`` (changed
    models only, plus the removed ids and the coherent id set for the
    worker-side consistency check).  Returns ``(shm, wire_bytes,
    raw_bytes)`` — both counts cover header + tensor data; they are equal
    unless run-length encoding shrank something.

    ``shadow`` is the coordinator's record of each tensor's bytes as of
    its *previous* publish, keyed ``(model_id, scope, key)``; when given
    it is both consulted (the rle reference) and updated in place (this
    publish becomes the next one's reference).  With ``rle=True`` each
    tensor whose shadow bytes exist is stored as a byte-level run-length
    diff against them when that is smaller — the worker replays the delta
    chain in publish order, so its current tensor bytes are exactly the
    shadow the coordinator diffed against.  Full segments are always
    written raw (they are the rebase anchor for workers with no prior
    state) but still refresh the shadow.
    """
    metas: dict[str, dict] = {}
    blobs: list[tuple[int, bytes]] = []
    offset = 0
    wire_bytes = 0
    raw_bytes = 0
    for mid, model in models.items():
        tensors = []
        for scope, key, arr in _tensor_items(model):
            arr = np.ascontiguousarray(arr)
            raw_data = arr.tobytes()
            data = raw_data
            raw_bytes += arr.nbytes
            enc = "raw"
            if shadow is not None:
                skey = (mid, scope, key)
                if rle:
                    ref = shadow.get(skey)
                    if ref is not None and len(ref) == len(raw_data):
                        packed = rle_encode_bytes(raw_data, ref)
                        if packed is not None:
                            enc = "rle"
                            data = packed
                shadow[skey] = raw_data
            off = _aligned(offset)
            tensors.append(
                (scope, key, off, arr.shape, arr.dtype.str, enc, len(data))
            )
            blobs.append((off, data))
            offset = off + len(data)
            wire_bytes += len(data)
        metas[mid] = {
            "spec": model_spec(model),
            "version": model.version,
            "tensors": tensors,
        }
    header = pickle.dumps(
        {
            "kind": kind,
            "models": metas,
            "removed": tuple(sorted(removed)),
            "all_ids": tuple(sorted(all_ids)),
        },
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    payload_start = _aligned(_PREFIX.size + len(header))
    total = max(payload_start + offset, 1)
    shm = shared_memory.SharedMemory(name=name, create=True, size=total)
    buf = shm.buf
    _PREFIX.pack_into(buf, 0, _MAGIC, WIRE_FORMAT_VERSION, len(header))
    buf[_PREFIX.size : _PREFIX.size + len(header)] = header
    for off, data in blobs:
        buf[payload_start + off : payload_start + off + len(data)] = data
    return shm, len(header) + wire_bytes, len(header) + raw_bytes


# ----------------------------------------------------------------------
# worker side: attach + rebuild
# ----------------------------------------------------------------------
def attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach an existing segment without adopting cleanup responsibility.

    The coordinator is the sole owner.  Attaching re-registers the name
    with the resource tracker, but the fork-started workers share the
    coordinator's tracker process and its cache is a *set* of names — the
    worker's registration is a no-op and the coordinator's unlink retires
    the single entry.  (Do NOT unregister here: with the shared tracker
    that would remove the coordinator's registration and turn its later
    unlink into tracker noise.)
    """
    return shared_memory.SharedMemory(name=name)


def segment_exists(name: str) -> bool:
    """Whether a segment of this name currently exists (tests, leak checks)."""
    try:
        shm = attach_segment(name)
    except FileNotFoundError:
        return False
    shm.close()
    return True


def _install_views(model: CellModel, views: dict[tuple[str, str], np.ndarray]) -> None:
    """Replace a freshly built model's tensors with shared-memory views.

    Layer parameter/state names equal their attribute names (``w``,
    ``gamma``, ``running_mean``, …) — the substrate-wide convention — so
    installation is a generic setattr walk.  Gradient buffers keep their
    construction-time private arrays (same shapes).
    """
    for cell in model.cells:
        for lname, layer in cell._named_layers():
            for pname in list(layer.params()):
                setattr(layer, pname, views[("param", f"{cell.cell_id}/{lname}.{pname}")])
            for sname in list(layer.state()):
                setattr(layer, sname, views[("state", f"{cell.cell_id}/{lname}.{sname}")])


def read_snapshot_segment(
    shm: shared_memory.SharedMemory,
    prev_models: dict[str, CellModel] | None = None,
) -> tuple[str, dict[str, CellModel], frozenset[str], frozenset[str]]:
    """Decode a segment into ``(kind, models, removed, all_ids)``.

    Each raw tensor is installed as a read-only view into the mapped
    buffer — zero-copy: the only per-tensor cost is the ndarray wrapper.
    Run-length-encoded tensors (delta segments written with snapshot
    compression) are decoded against ``prev_models`` — the worker's
    current suite state, whose tensor bytes match what the coordinator
    diffed against — into private read-only arrays.  Callers must keep
    ``shm`` open for as long as any returned model views into it.
    """
    buf = shm.buf
    if len(buf) < _PREFIX.size:
        raise SnapshotFormatError(
            f"segment too small ({len(buf)} bytes) to hold a snapshot prefix"
        )
    magic, version, hlen = _PREFIX.unpack_from(buf, 0)
    if magic != _MAGIC:
        raise SnapshotFormatError(
            f"segment does not start with the {_MAGIC!r} snapshot magic "
            f"(got {bytes(magic)!r}); this is either not a snapshot segment "
            "or one written by a pre-versioned (wire format 1) build"
        )
    if version != WIRE_FORMAT_VERSION:
        raise SnapshotFormatError(
            f"segment has wire-format version {version}, this reader "
            f"understands only version {WIRE_FORMAT_VERSION}"
        )
    header = pickle.loads(bytes(buf[_PREFIX.size : _PREFIX.size + hlen]))
    payload_start = _aligned(_PREFIX.size + hlen)
    models: dict[str, CellModel] = {}
    for mid, meta in header["models"].items():
        model = model_from_spec(meta["spec"])
        prev_tensors: dict[tuple[str, str], np.ndarray] | None = None
        views: dict[tuple[str, str], np.ndarray] = {}
        for scope, key, off, shape, dtype_str, enc, length in meta["tensors"]:
            dtype = np.dtype(dtype_str)
            if enc == "raw":
                view = np.ndarray(
                    shape, dtype=dtype, buffer=buf, offset=payload_start + off
                )
                view.flags.writeable = False
            elif enc == "rle":
                if prev_tensors is None:
                    if prev_models is None or mid not in prev_models:
                        raise SnapshotFormatError(
                            f"delta segment stores {mid!r}/{key} run-length "
                            "encoded but no previous model state is available "
                            "to decode it against"
                        )
                    prev_tensors = {
                        (s, k): a for s, k, a in _tensor_items(prev_models[mid])
                    }
                ref = prev_tensors.get((scope, key))
                if ref is None or ref.shape != tuple(shape) or ref.dtype != dtype:
                    raise SnapshotFormatError(
                        f"previous state for {mid!r}/{key} does not match the "
                        "run-length-encoded tensor's shape/dtype"
                    )
                encoded = bytes(
                    buf[payload_start + off : payload_start + off + length]
                )
                decoded = rle_decode_bytes(
                    encoded, np.ascontiguousarray(ref).tobytes()
                )
                view = np.frombuffer(decoded, dtype=dtype).reshape(shape)
            else:
                raise SnapshotFormatError(
                    f"unknown tensor encoding {enc!r} for {mid!r}/{key}"
                )
            views[(scope, key)] = view
        _install_views(model, views)
        # A replica of server state: answer version-keyed lookups like the
        # original (clone(keep_id=True) semantics).
        model.sync_version(meta["version"])
        models[mid] = model
    return (
        header["kind"],
        models,
        frozenset(header["removed"]),
        frozenset(header["all_ids"]),
    )


# ----------------------------------------------------------------------
# coordinator side: cleanup
# ----------------------------------------------------------------------
_LOG = logging.getLogger(__name__)

#: Segment-cleanup failures observed since import (close errors + unlink
#: errors, including the already-unlinked FileNotFoundError no-ops).  A
#: meter, not a guard: tests and long-lived coordinators can watch it move.
cleanup_failures = 0


def unlink_segments(segments: dict[str, shared_memory.SharedMemory]) -> None:
    """Close and unlink every owned segment; idempotent on repeat calls.

    Also the ``weakref.finalize`` target: it receives the publisher's live
    segment registry (a plain dict, so the finalizer holds no reference to
    the publisher itself) and empties it.

    Failure handling (this used to be two bare ``except Exception: pass``
    blocks — the seed violation repro-lint RL009 is written against):
    ``close()`` errors and already-gone segments (``FileNotFoundError``
    from ``unlink``) are logged and metered but non-fatal — every segment
    still gets its unlink attempt, and double-unlinking is the idempotent
    path the finalizer backstop relies on.  Any *other* unlink failure
    means a kernel object may genuinely outlive the process, so after all
    segments have been attempted those errors re-raise as one
    ``RuntimeError`` naming every leaked segment — the final unlink is the
    backstop, and a silent failure there is a resource leak.
    """
    global cleanup_failures
    leaked: list[tuple[str, BaseException]] = []
    for name, shm in list(segments.items()):
        try:
            shm.close()
        except OSError as err:
            cleanup_failures += 1
            _LOG.warning("closing shm segment %r failed: %s", name, err)
        try:
            shm.unlink()
        except FileNotFoundError:
            # Already unlinked (repeat call, finalizer after close(), or an
            # external cleaner): the desired end state, not a leak.
            cleanup_failures += 1
        except OSError as err:
            cleanup_failures += 1
            _LOG.error("unlinking shm segment %r failed: %s", name, err)
            leaked.append((name, err))
    segments.clear()
    if leaked:
        names = ", ".join(repr(n) for n, _ in leaked)
        raise RuntimeError(
            f"failed to unlink shared-memory segment(s) {names}; the kernel "
            "objects may outlive this process"
        ) from leaked[0][1]
