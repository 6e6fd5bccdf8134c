"""The tree-of-arrays container: the one byte layout of run checkpoints,
saved models and process-pool snapshot segments.

A tree is a Stateful payload (:mod:`repro.stateful`).  Its container,
format :data:`FORMAT`, is a ``<4sHQ`` prefix (the magic ``b"RSNP"``, the
format, the header length); a UTF-8 JSON header holding the tree, each
array leaf ravelled (C order) onto **one arena per dtype** and replaced by
the marker ``{"__array__": [dtype, offset, shape]}`` (in elements), and
``"arenas"``: each dtype's ``[byte_offset, elements]``; then the arenas,
each at a 64-byte-aligned offset past the header.

:func:`frame` lays a header out; :func:`read_frame` is the one strict
reader, of files and shared memory alike, and each caller checks its own
header keys.  A payload *file* (:func:`write_payload`) is a container with
the header ``{"arenas", "payload"}`` followed by the CRC-32 of its bytes
(little-endian): a disk can alter bytes that a live segment
(:mod:`repro.fl.shm`) cannot.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from pathlib import Path

import numpy as np

from .atomicio import atomic_write

__all__ = [
    "FORMAT",
    "flatten_payload",
    "unflatten_payload",
    "frame",
    "read_frame",
    "write_payload",
    "read_payload",
]

#: The container format: 1 led with a bare header length, 2 added the magic
#: and version to a pickled header (checkpoint files of format 2 were zip
#: archives of ``.npy`` members); 3 is the layout above.  The reader refuses
#: any other.
FORMAT = 3
_MAGIC = b"RSNP"
# magic, format, header length.
_PREFIX = struct.Struct("<4sHQ")
_ALIGN = 64
# The dtype kinds an arena holds: bool, numbers, bytes and text.
_KINDS = "biufcSU"
# Marker objects the flattener substitutes for ndarray leaves.  Payload
# dicts never use this key themselves (Stateful payload convention).
_ARRAY_KEY = "__array__"
# What a corrupt payload file can make the reader and the unflattener raise.
_CORRUPT = (ValueError, TypeError, KeyError, IndexError, OverflowError, RecursionError)


# ----------------------------------------------------------------------
# tree <-> (JSON skeleton, one arena per dtype)
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
    skeleton, parts = _leaves(payload)
    # ``dtype=``: a plain concatenate would cast a non-native byte order
    # to the machine's, under the arena's foreign-order name.
    return skeleton, {dtype: np.concatenate(chunks, dtype=dtype) for dtype, chunks in parts.items()}


def _leaves(payload: dict) -> tuple[dict, dict[str, list[np.ndarray]]]:
    """:func:`flatten_payload` before the concatenation: the skeleton and
    each arena's ravelled leaves, in arena order."""
    parts: dict[str, list[np.ndarray]] = {}
    sizes: dict[str, int] = {}

    def walk(node):
        if isinstance(node, np.ndarray):
            dtype = node.dtype.str
            if node.dtype.kind not in _KINDS or np.dtype(dtype) != node.dtype:
                raise TypeError(
                    f"cannot checkpoint a {node.dtype} array: only bool, "
                    "numeric, bytes and text dtypes survive the arena"
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
    return skeleton, parts


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


# ----------------------------------------------------------------------
# header <-> bytes
# ----------------------------------------------------------------------
def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) & ~(_ALIGN - 1)


def frame(header: dict) -> tuple[list[tuple[int, bytes | memoryview]], int]:
    """Lay ``header``, a tree, out as a container.

    Returns ``(chunks, size)``: the container's ``(byte offset, bytes)``
    chunks in order — the prefix, the JSON header, then each arena's array
    leaves, each a view of the leaf's own buffer at its arena offset — and
    its length in bytes (the gaps are alignment padding).  The arena table
    replaces the value of ``header["arenas"]``, so the caller's placeholder
    fixes where it sits in the header's key order.
    """
    skeleton, parts = _leaves(header)
    table, end = {}, 0
    for dtype, leaves in parts.items():
        table[dtype] = [_aligned(end), sum(leaf.size for leaf in leaves)]
        end = table[dtype][0] + sum(leaf.nbytes for leaf in leaves)
    skeleton["arenas"] = table
    text = json.dumps(skeleton, separators=(",", ":")).encode()
    start = _aligned(_PREFIX.size + len(text))
    chunks = [(0, _PREFIX.pack(_MAGIC, FORMAT, len(text))), (_PREFIX.size, text)]
    for (offset, _), leaves in zip(table.values(), parts.values()):
        offset += start
        for leaf in leaves:
            chunks.append((offset, leaf.view(np.uint8).data))
            offset += leaf.nbytes
    return chunks, start + end


def _unique_keys(pairs: list) -> dict:
    """A header object as a dict.  A writer's dict never repeats a key, and
    ``json`` would keep only the last: one flipped bit that renames a model
    to its neighbour's id would decode a suite missing a model."""
    out = dict(pairs)
    if len(out) != len(pairs):
        raise ValueError("the header repeats a key")
    return out


def read_frame(buf) -> tuple[dict, dict[str, np.ndarray]]:
    """The checked header of the container in ``buf`` and its arenas as
    read-only views into ``buf``.

    A short buffer, another magic or format, a header length past the
    buffer, a header that is not a JSON object with an arena table (or
    repeats a key), and an arena that is misaligned, out of bounds or not of
    a dtype :func:`flatten_payload` writes are each a ``ValueError``; no
    claim of the header sizes an allocation.  :func:`unflatten_payload`
    bounds-checks each marker against its arena.
    """
    if len(buf) < _PREFIX.size:
        raise ValueError(f"{len(buf)} bytes are too small to hold the {_MAGIC!r} prefix")
    magic, version, hlen = _PREFIX.unpack_from(buf, 0)
    if magic != _MAGIC:
        raise ValueError(
            f"the bytes do not start with the {_MAGIC!r} magic (got {bytes(magic)!r}): "
            "not a snapshot segment or payload file, or one written by a "
            "pre-versioned (wire format 1) build or as a zip (checkpoint format 2)"
        )
    if version != FORMAT:
        raise ValueError(
            f"container has wire-format version {version}, this reader "
            f"understands only version {FORMAT}"
        )
    if _PREFIX.size + hlen > len(buf):
        raise ValueError(f"header length {hlen} runs past the {len(buf)}-byte buffer")
    header = json.loads(
        bytes(buf[_PREFIX.size : _PREFIX.size + hlen]).decode(), object_pairs_hook=_unique_keys
    )
    if not (isinstance(header, dict) and isinstance(header.get("arenas"), dict)):
        raise ValueError("the header is not an object with an arena table")
    start = _aligned(_PREFIX.size + hlen)
    arenas = {}
    for name, entry in header["arenas"].items():
        try:
            dtype = np.dtype(name)
        except (TypeError, ValueError, SyntaxError):  # numpy reads ",f8" as Python
            dtype = None
        if not (
            dtype is not None and dtype.str == name and dtype.kind in _KINDS
            and isinstance(entry, list) and len(entry) == 2
            and all(type(v) is int and v >= 0 for v in entry)
            and entry[0] % _ALIGN == 0
            and start + entry[0] + entry[1] * dtype.itemsize <= len(buf)
        ):
            raise ValueError(
                f"arena {name!r}: {entry!r} is not an aligned [offset, elements] "
                f"entry of an arena dtype inside the {len(buf)}-byte buffer"
            )
        arenas[name] = np.ndarray(entry[1], dtype=dtype, buffer=buf, offset=start + entry[0])
        arenas[name].flags.writeable = False
    return header, arenas


# ----------------------------------------------------------------------
# payload files
# ----------------------------------------------------------------------
def write_payload(path: str | Path, payload: dict) -> int:
    """Write ``payload`` to ``path`` as a container and its CRC-32,
    crash-consistently (:func:`~repro.atomicio.atomic_write`).

    Each array leaf streams straight from its own buffer.
    Returns the CRC-32 the file ends with, which a checkpoint manifest
    records.
    """
    chunks, _ = frame({"arenas": None, "payload": payload})
    crc = end = 0
    with atomic_write(path) as f:
        for offset, data in chunks:
            for piece in (bytes(offset - end), data):  # alignment padding, then the chunk
                f.write(piece)
                crc = zlib.crc32(piece, crc)
            end = offset + len(data)
        f.write(crc.to_bytes(4, "little"))
    return crc


def read_payload(path: str | Path) -> dict:
    """Read back a :func:`write_payload` file; its arrays are fresh, writable
    copies.  A file whose bytes fail its CRC-32 or the container's checks is
    a ``ValueError`` naming it."""
    data = memoryview(Path(path).read_bytes())
    body = data[:-4]
    try:
        header, arenas = read_frame(body)
        if zlib.crc32(body) != int.from_bytes(data[-4:], "little"):
            raise ValueError("its bytes fail their CRC-32 (torn, truncated or altered)")
        if header.keys() != {"arenas", "payload"}:
            raise ValueError(f"header keys {sorted(header)} are not a payload file's")
        return unflatten_payload(header["payload"], arenas)
    except _CORRUPT as exc:
        raise ValueError(f"corrupt payload file {path}: {type(exc).__name__}: {exc}") from exc
