"""Shared-memory model snapshot segments for the process round executor.

The coordinator writes every model's tensors **once** into a
``multiprocessing.shared_memory`` segment; workers rebuild each model
around **read-only views** into the mapped buffer, so the tensor data is
never copied on the worker side.  A segment is one container of
:mod:`repro.container` (the ``RSNP`` prefix, a JSON header, one 64-byte
aligned arena per dtype) whose header is ``{"arenas", "models"}``:
``models`` maps each id to its spec
(:func:`~repro.nn.serialization.model_spec`) and ``param`` / ``state``
trees of ``[dtype, offset, shape]`` markers.  A segment always
holds the whole suite, raw.

Decoding is strict and unpickles nothing: whatever the container's one
reader refuses (:func:`repro.container.read_frame`), a header that is not
a snapshot header, a model entry of other keys, and tensor keys, shapes or
dtypes that differ from the model the spec builds are each a
:class:`SnapshotFormatError` naming the segment, raised before anything
larger than the segment is allocated.

Which segment is current, who owns it and when it is retired is the
snapshot protocol's business (:mod:`~repro.fl.snapshot`); this module lays
out one segment and supplies the one cleanup path (:func:`unlink_segments`).
"""

from __future__ import annotations

import logging
from multiprocessing import shared_memory

import numpy as np

from ..container import frame, read_frame, unflatten_payload
from ..nn.model import CellModel
from ..nn.serialization import model_from_spec, model_spec

__all__ = [
    "SnapshotFormatError",
    "write_snapshot_segment",
    "read_snapshot_segment",
    "segment_holds",
    "attach_segment",
    "segment_exists",
    "unlink_segments",
]

_HEADER_KEYS = {"arenas", "models"}
_MODEL_KEYS = {"spec", "param", "state"}
# What a hostile segment can make the readers and a spec's constructors raise.
_CORRUPT = (ValueError, TypeError, KeyError, IndexError, AttributeError, OverflowError,
            ZeroDivisionError, RecursionError)


class SnapshotFormatError(RuntimeError):
    """A segment's wire format cannot be decoded by this reader."""


# ----------------------------------------------------------------------
# coordinator side: write
# ----------------------------------------------------------------------
def write_snapshot_segment(
    name: str, kind: str, models: dict[str, CellModel]
) -> tuple[shared_memory.SharedMemory, int]:
    """Create segment ``name`` holding the whole suite ``models``.

    ``kind`` must be ``"full"``, the only kind of segment there is.
    Returns ``(shm, nbytes)``: header + raw tensor bytes, without
    alignment padding.
    """
    if kind != "full":
        raise ValueError(f"a snapshot segment holds the full suite; got kind {kind!r}")
    tree: dict[str, dict] = {}
    tensor_bytes = 0
    for mid, model in models.items():
        meta = tree[mid] = {"spec": model_spec(model)}
        for scope, tensors in (("param", model.params()), ("state", model.state())):
            meta[scope] = dict(tensors)
            tensor_bytes += sum(arr.nbytes for arr in tensors.values())
    chunks, size = frame({"arenas": None, "models": tree})
    shm = shared_memory.SharedMemory(name=name, create=True, size=max(size, 1))
    for offset, data in chunks:
        shm.buf[offset : offset + len(data)] = data
    _, (_, header), *_ = chunks
    return shm, len(header) + tensor_bytes


def _same_bits(live: np.ndarray, view: np.ndarray) -> bool:
    if (live.dtype, live.shape) != (view.dtype, view.shape):
        return False
    bits = f"u{live.dtype.itemsize}"  # -0.0 is not 0.0, a NaN is its payload
    return np.array_equal(live.view(bits), view.view(bits))


def segment_holds(shm: shared_memory.SharedMemory, models: dict[str, CellModel]) -> bool:
    """Whether segment ``shm`` (one this process wrote) holds the suite
    ``models``: the same ids and specs, and every param/state tensor bitwise
    equal to its view into the segment."""
    header, arenas = read_frame(shm.buf)
    written = unflatten_payload(header["models"], arenas, copy=False)
    if written.keys() != models.keys():
        return False
    for mid, model in models.items():
        meta, live = written[mid], {**model.params(), **model.state()}
        views = {**meta["param"], **meta["state"]}
        if meta["spec"] != model_spec(model) or views.keys() != live.keys():
            return False
        if not all(_same_bits(live[key], view) for key, view in views.items()):
            return False
    return True


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


def _install_views(model: CellModel, meta: dict) -> None:
    """Replace a freshly built model's tensors with the segment's, each
    checked against the one its spec built.  Gradient buffers keep their
    construction-time private arrays (same shapes)."""
    scopes = ("param", "state")
    slots = {(s, key): (layer, name) for s in scopes for key, _, layer, name, _ in model.tensors(s)}
    leaves = {(scope, key): leaf for scope in scopes for key, leaf in meta[scope].items()}
    if leaves.keys() != slots.keys():
        diff = sorted(leaves.keys() ^ slots.keys())[:4]
        raise ValueError(f"model {model.model_id!r}: tensor keys differ from its spec's: {diff}")
    for skey, (layer, tname) in slots.items():
        live, view = getattr(layer, tname), leaves[skey]
        if not isinstance(view, np.ndarray) or (view.shape, view.dtype) != (live.shape, live.dtype):
            raise ValueError(
                f"{model.model_id!r}/{skey[1]}: not the {live.dtype} {live.shape} "
                "tensor its spec builds"
            )
        setattr(layer, tname, view)


def read_snapshot_segment(shm: shared_memory.SharedMemory) -> dict[str, CellModel]:
    """Decode a segment into its suite, ``model_id -> model``.

    Each tensor is installed as a read-only view into its mapped arena —
    zero-copy: the only per-tensor cost is the ndarray wrapper.  Callers
    must keep ``shm`` open for as long as any returned model views into it.
    """
    models: dict[str, CellModel] = {}
    try:
        header, arenas = read_frame(shm.buf)
        if header.keys() != _HEADER_KEYS:
            raise ValueError("the header is not a snapshot header")
        for mid, meta in unflatten_payload(header["models"], arenas, copy=False).items():
            if meta.keys() != _MODEL_KEYS:
                want = sorted(_MODEL_KEYS)
                raise ValueError(f"model {mid!r}: keys {sorted(meta)} are not {want}")
            model = model_from_spec(meta["spec"])
            if model.model_id != mid:
                raise ValueError(f"model {mid!r}: its spec names {model.model_id!r}")
            _install_views(model, meta)
            models[mid] = model
    except _CORRUPT as exc:
        raise SnapshotFormatError(f"undecodable snapshot segment {shm.name!r}: {exc}") from None
    return models


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

    Failure handling (repro-lint RL009): ``close()`` errors and
    already-gone segments (``FileNotFoundError`` from ``unlink``) are logged
    and metered but non-fatal — every segment still gets its unlink
    attempt, and double-unlinking is the idempotent path the finalizer
    backstop relies on.  Any *other* unlink failure means a kernel object
    may genuinely outlive the process, so after all segments have been
    attempted those errors re-raise as one ``RuntimeError`` naming every
    leaked segment — a silent failure there is a resource leak.
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
