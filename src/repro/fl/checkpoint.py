"""Crash-consistent run checkpoints (payload file + manifest pointer).

A checkpoint is two files in the run directory:

* ``ckpt-<round>.npz`` — the run's full Stateful payload, in checkpoint
  format 2: a handful of ``.npz`` members however many clients the run has
  seen.  The nested dict/list skeleton is stored as JSON (shortest-repr
  floats round-trip exactly) in ``__skeleton__``; every ``numpy`` array
  leaf is ravelled (C order) into **one arena per dtype** — a member named
  by the dtype's ``str`` (``<f8``, ``<i8``, ``|b1`` ...) — and the skeleton
  keeps ``{"__array__": [dtype, offset, shape]}`` in its place.  Tensors
  land losslessly and the rest stays human-inspectable.
* ``MANIFEST.json`` — the durability pointer: format version, the run's
  config hash, the ``last_good`` payload file and the CRC-32 of its bytes,
  its round, a ``completed`` flag, and the sorted list of every schema tag
  the payload carries (CONTRACTS.md I9: all registrants are enumerable
  from the file alone).

Only format 2 is read.  Decoding is strict: a manifest that is not
exactly the writer's (key set, field types, a format-1 manifest), a
truncated or corrupted file, a CRC failure, a missing arena, an unknown
dtype, an offset or shape outside its arena — each is a ``ValueError``
naming the file, raised before anything larger than the file itself is
allocated.  Restored arrays are fresh copies: writable, and sharing
memory with nothing.  The snapshot segments of :mod:`~repro.fl.shm` are
the same tree and read their markers through the same reader.

Write order is what makes a kill at *any* instant safe (CONTRACTS.md I9):

1. the payload lands through :func:`repro.atomicio.atomic_write` (temp
   file in the destination directory, fsync, ``os.replace``, directory
   fsync) — a crash mid-write leaves only an ignorable temp file;
2. only after the payload is durable does the manifest move, itself
   atomically — so ``last_good`` never points at a torn or missing file;
3. superseded payload files are pruned only after the pointer moved.

``REPRO_CKPT_CRASH_POINT`` is a test hook: naming a crash point
(``before-payload`` / ``after-payload`` / ``after-manifest``) makes the
writer SIGKILL its own process at that instant, which is how the
torn-write tests exercise every window of the protocol for real instead
of simulating it.
"""

from __future__ import annotations

import io
import json
import math
import os
import re
import signal
import struct
import zipfile
import zlib
from pathlib import Path

import numpy as np

from ..atomicio import atomic_write
from ..stateful import collect_schemas

__all__ = [
    "CHECKPOINT_FORMAT",
    "MANIFEST_NAME",
    "flatten_payload",
    "unflatten_payload",
    "write_payload",
    "read_payload",
    "CheckpointWriter",
    "load_checkpoint",
]

CHECKPOINT_FORMAT = 2
MANIFEST_NAME = "MANIFEST.json"

# Marker objects the flattener substitutes for ndarray leaves.  Payload
# dicts never use this key themselves (Stateful payload convention).
_ARRAY_KEY = "__array__"
_SKELETON_KEY = "__skeleton__"
# What a corrupt payload file can make the zip, npy and JSON decoders raise.
_CORRUPT = (
    ValueError, TypeError, KeyError, IndexError, EOFError, OverflowError,
    RuntimeError, OSError, struct.error, zlib.error, zipfile.BadZipFile,
)
# The manifest the writer produces; ``last_good`` names a file of the run directory.
_MANIFEST_TYPES = {
    "format": int, "run_hash": str, "last_good": str, "payload_crc32": int,
    "round": int, "completed": bool, "schemas": list,
}
_PAYLOAD_NAME = re.compile(r"ckpt-[0-9]{6,}\.npz")

# Test hook: SIGKILL this process when the writer reaches the named point.
_CRASH_ENV = "REPRO_CKPT_CRASH_POINT"


def _maybe_crash(point: str) -> None:
    if os.environ.get(_CRASH_ENV) == point:
        os.kill(os.getpid(), signal.SIGKILL)


# ----------------------------------------------------------------------
# payload <-> (JSON skeleton, one arena per dtype)
# ----------------------------------------------------------------------
def flatten_payload(payload: dict) -> tuple[dict, dict[str, np.ndarray]]:
    """Split a nested Stateful payload into a JSON skeleton + arena table.

    Every ``ndarray`` leaf is ravelled (C order) onto the arena of its
    ``dtype.str`` and replaced by ``{"__array__": [dtype, offset, shape]}``;
    the table maps each dtype string to its concatenated 1-D arena, so its
    ``nbytes`` sum to the leaves'.  Numpy scalars are converted to native
    Python so the skeleton is pure JSON.  Raises ``TypeError`` on anything
    else — object arrays included — because a checkpoint that cannot
    round-trip must fail at write time, not at resume time.
    """
    parts: dict[str, list[np.ndarray]] = {}
    sizes: dict[str, int] = {}

    def walk(node):
        if isinstance(node, np.ndarray):
            dtype = node.dtype.str
            if node.dtype.hasobject or np.dtype(dtype) != node.dtype:
                raise TypeError(
                    f"cannot checkpoint a {node.dtype} array: object and "
                    "structured dtypes do not survive the arena"
                )
            offset = sizes.get(dtype, 0)
            parts.setdefault(dtype, []).append(node.ravel())
            sizes[dtype] = offset + node.size
            return {_ARRAY_KEY: [dtype, offset, list(node.shape)]}
        if isinstance(node, dict):
            out = {}
            for k, v in node.items():
                if not isinstance(k, str):
                    raise TypeError(
                        f"payload dict keys must be str (owner stringifies), "
                        f"got {k!r}"
                    )
                if k == _ARRAY_KEY:
                    raise TypeError(
                        f"payload dicts must not use the reserved key {k!r}"
                    )
                out[k] = walk(v)
            return out
        if isinstance(node, (list, tuple)):
            return [walk(v) for v in node]
        if isinstance(node, bool) or node is None or isinstance(node, (int, float, str)):
            return node
        if isinstance(node, np.bool_):
            return bool(node)
        if isinstance(node, np.integer):
            return int(node)
        if isinstance(node, np.floating):
            return float(node)
        raise TypeError(
            f"cannot checkpoint a {type(node).__name__} leaf; Stateful "
            "payloads hold JSON scalars and numpy arrays only"
        )

    try:
        skeleton = walk(payload)
    finally:
        # The recursive closure is a reference cycle through ``parts``: left
        # to the cycle collector, it would hold every leaf of the payload.
        del walk
    return skeleton, {dtype: np.concatenate(chunks) for dtype, chunks in parts.items()}


def _is_index(value) -> bool:
    return type(value) is int and value >= 0


def _restore(marker, arrays: dict[str, np.ndarray]) -> np.ndarray:
    """The array one skeleton marker names, as a view of its arena."""
    if not (isinstance(marker, list) and len(marker) == 3):
        raise ValueError(f"malformed array marker {marker!r}")
    dtype, offset, shape = marker
    arena = arrays.get(dtype) if isinstance(dtype, str) else None
    if arena is None:
        raise ValueError(f"array marker {marker!r}: no arena for dtype {dtype!r}")
    if not (_is_index(offset) and isinstance(shape, list) and all(map(_is_index, shape))):
        raise ValueError(f"array marker {marker!r}: offset and shape must be non-negative ints")
    size = math.prod(shape)
    if offset + size > arena.size:
        raise ValueError(
            f"array marker {marker!r}: elements [{offset}, {offset + size}) "
            f"overrun the {arena.size}-element {dtype} arena"
        )
    return arena[offset : offset + size].reshape(shape)


def unflatten_payload(skeleton, arrays: dict[str, np.ndarray], *, copy: bool = True):
    """Inverse of :func:`flatten_payload`: every array comes back a fresh,
    writable copy that owns its memory — or, with ``copy=False``, a view
    of its arena."""
    if isinstance(skeleton, dict):
        if set(skeleton) == {_ARRAY_KEY}:
            view = _restore(skeleton[_ARRAY_KEY], arrays)
            return view.copy() if copy else view
        return {k: unflatten_payload(v, arrays, copy=copy) for k, v in skeleton.items()}
    if isinstance(skeleton, list):
        return [unflatten_payload(v, arrays, copy=copy) for v in skeleton]
    return skeleton


def write_payload(path: str | Path, payload: dict) -> int:
    """Serialize one payload to a single ``.npz``, crash-consistently.

    Each member streams straight from its arena (the layout ``np.savez``
    writes, without its staging copy of every array).  Returns the CRC-32
    of the file, which the manifest records.
    """
    skeleton, arrays = flatten_payload(payload)
    arrays[_SKELETON_KEY] = np.frombuffer(json.dumps(skeleton).encode(), dtype=np.uint8)
    with atomic_write(path) as f, zipfile.ZipFile(f, "w", allowZip64=True) as zf:
        for name, arena in arrays.items():
            with zf.open(name + ".npy", "w", force_zip64=True) as member:
                header = np.lib.format.header_data_from_array_1_0(arena)
                np.lib.format.write_array_header_1_0(member, header)
                member.write(arena.view(np.uint8).data)
    return _file_crc32(path)


def _file_crc32(path: str | Path) -> int:
    crc = 0
    with open(path, "rb") as f:
        while chunk := f.read(1 << 20):
            crc = zlib.crc32(chunk, crc)
    return crc


def _member_array(zf: zipfile.ZipFile, info: zipfile.ZipInfo, limit: int) -> np.ndarray:
    """One stored ``.npy`` member, read-only over its CRC-checked bytes.

    The header is checked against the member's length before any array
    exists, so a hostile shape cannot size an allocation.  A stored
    member's two sizes agree; ``zipfile`` sizes its read buffer by the
    compressed one, so it is bounded by the file too.
    """
    if (
        info.compress_type != zipfile.ZIP_STORED
        or info.compress_size != info.file_size
        or not info.file_size <= limit
    ):
        raise ValueError(f"member {info.filename!r} is not a stored array")
    raw = zf.read(info)
    fp = io.BytesIO(raw)
    version = np.lib.format.read_magic(fp)
    if version == (1, 0):
        shape, fortran, dtype = np.lib.format.read_array_header_1_0(fp)
    elif version == (2, 0):
        shape, fortran, dtype = np.lib.format.read_array_header_2_0(fp)
    else:
        raise ValueError(f"member {info.filename!r}: npy version {version}")
    if dtype.hasobject:
        raise ValueError(f"member {info.filename!r} holds objects")
    count = math.prod(shape)
    body = memoryview(raw)[fp.tell() :]
    if len(body) != count * dtype.itemsize:
        raise ValueError(
            f"member {info.filename!r}: {len(body)} data bytes for shape "
            f"{shape} of {dtype}"
        )
    if not body:
        return np.zeros(shape, dtype)
    flat = np.frombuffer(body, dtype=dtype, count=count)
    return flat.reshape(shape[::-1]).T if fortran else flat.reshape(shape)


def read_payload(path: str | Path) -> dict:
    """Read back a :func:`write_payload` file; any corruption is a
    ``ValueError`` naming the file."""
    size = Path(path).stat().st_size
    try:
        with zipfile.ZipFile(path) as zf:
            members: dict[str, np.ndarray] = {}
            for info in zf.infolist():
                name = info.filename.removesuffix(".npy")
                if name == info.filename or name in members:
                    raise ValueError(f"unexpected member {info.filename!r}")
                members[name] = _member_array(zf, info, size)
        text = members.pop(_SKELETON_KEY)
        if text.dtype != np.uint8 or text.ndim != 1:
            raise ValueError(f"skeleton member is a {text.dtype} {text.shape} array")
        for name, arena in members.items():
            if not (arena.ndim == 1 and arena.dtype.str == name):
                raise ValueError(f"member {name!r} is not an arena")
        return unflatten_payload(json.loads(text.tobytes().decode()), members)
    except _CORRUPT as exc:
        raise ValueError(
            f"corrupt checkpoint payload {path}: {type(exc).__name__}: {exc}"
        ) from exc


# ----------------------------------------------------------------------
# writer / loader
# ----------------------------------------------------------------------
class CheckpointWriter:
    """Writes round checkpoints under one run directory.

    ``run_hash`` fingerprints everything trajectory-relevant (strategy,
    config, fleet — see :mod:`repro.fl.registry`); it is stamped into the
    manifest so a resume against a different configuration fails loudly
    instead of silently diverging.
    """

    def __init__(self, directory: str | Path, run_hash: str):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.run_hash = run_hash

    def write(self, round_idx: int, payload: dict, completed: bool) -> Path:
        """Durably record ``payload`` as the run's last good state."""
        name = f"ckpt-{round_idx:06d}.npz"
        path = self.directory / name
        _maybe_crash("before-payload")
        crc = write_payload(path, payload)
        _maybe_crash("after-payload")
        manifest = {
            "format": CHECKPOINT_FORMAT,
            "run_hash": self.run_hash,
            "last_good": name,
            "payload_crc32": crc,
            "round": round_idx,
            "completed": completed,
            "schemas": collect_schemas(payload),
        }
        with atomic_write(self.directory / MANIFEST_NAME, "w", encoding="utf-8") as f:
            json.dump(manifest, f, indent=1)
        _maybe_crash("after-manifest")
        # The pointer moved; superseded payloads (and any orphaned temp
        # files from crashed writes) are dead weight.  A crash mid-prune
        # leaves extra files, never a bad pointer.
        for stale in self.directory.glob("ckpt-*.npz"):
            if stale.name != name:
                stale.unlink(missing_ok=True)
        for tmp in self.directory.glob("*.tmp-*"):
            tmp.unlink(missing_ok=True)
        return path


def load_checkpoint(
    directory: str | Path, run_hash: str | None = None
) -> dict | None:
    """Load the last good checkpoint under ``directory``.

    Returns ``{"manifest": ..., "payload": ...}``, or ``None`` when no
    checkpoint has ever completed (no manifest — e.g. a run killed during
    its very first write, which is a valid fresh-start).  Raises a
    ``ValueError`` naming the manifest when it is not exactly the writer's
    (key set, field types, a ``last_good`` outside the run directory) or is
    of another format, when it disagrees with ``run_hash``, and one naming
    the payload file when its bytes fail the manifest's CRC-32 or do not
    decode.
    """
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.exists():
        return None
    manifest = _read_manifest(manifest_path)
    if run_hash is not None and manifest["run_hash"] != run_hash:
        raise ValueError(
            "checkpoint belongs to a different run: manifest hash "
            f"{manifest['run_hash']!r} != expected {run_hash!r} "
            "(strategy, config, or fleet changed)"
        )
    path = directory / manifest["last_good"]
    if _file_crc32(path) != manifest["payload_crc32"]:
        raise ValueError(
            f"corrupt checkpoint payload {path}: its bytes fail the manifest's "
            "CRC-32 (torn, truncated or altered after the write)"
        )
    return {"manifest": manifest, "payload": read_payload(path)}


def _read_manifest(path: Path) -> dict:
    """The manifest at ``path``, checked field by field against the writer's."""
    try:
        with open(path, encoding="utf-8") as f:
            manifest = json.load(f)
        if manifest["format"] != CHECKPOINT_FORMAT:
            raise ValueError(
                f"unsupported checkpoint format {manifest['format']!r} (this "
                f"reader understands only format {CHECKPOINT_FORMAT})"
            )
        if not (
            manifest.keys() == _MANIFEST_TYPES.keys()
            and all(type(manifest[k]) is t for k, t in _MANIFEST_TYPES.items())
            and _PAYLOAD_NAME.fullmatch(manifest["last_good"])
        ):
            raise ValueError(
                f"expected exactly the fields {sorted(_MANIFEST_TYPES)}, typed "
                "as written, and a ckpt-<round>.npz payload name"
            )
    except (ValueError, TypeError, KeyError, RecursionError) as exc:
        raise ValueError(f"checkpoint manifest {path}: {type(exc).__name__}: {exc}") from None
    return manifest
