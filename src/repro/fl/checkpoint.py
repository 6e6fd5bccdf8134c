"""Crash-consistent run checkpoints (payload file + manifest pointer).

A checkpoint is two files in the run directory:

* ``ckpt-<round>.rsnp`` — the run's full Stateful payload, a payload file
  of :mod:`repro.container` (checkpoint format 3): a JSON skeleton, a
  handful of arenas however many clients the run has seen, and a CRC-32.
* ``MANIFEST.json`` — the durability pointer: format version, the run's
  config hash, the ``last_good`` payload file and the CRC-32 it ends with,
  its round, a ``completed`` flag, and the sorted list of every schema tag
  the payload carries (CONTRACTS.md I9: all registrants are enumerable
  from the file alone).

Only format 3 is read.  Decoding is strict: a manifest that is not exactly
the writer's (key set, field types, another format — format 2 was a zip)
is a ``ValueError`` naming it, and a payload file that fails the
manifest's CRC-32 or :func:`~repro.container.read_payload` is one naming
the file.  Restored arrays are fresh copies: writable, and sharing memory
with nothing.

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

import json
import os
import re
import signal
from pathlib import Path

from ..atomicio import atomic_write
# flatten_payload is re-exported: the benchmark kernels import it from here.
from ..container import FORMAT, flatten_payload, read_payload, write_payload
from ..stateful import collect_schemas

__all__ = [
    "CHECKPOINT_FORMAT",
    "MANIFEST_NAME",
    "flatten_payload",
    "write_payload",
    "read_payload",
    "CheckpointWriter",
    "load_checkpoint",
]

#: The manifest's format: its payload file is a container of this format.
CHECKPOINT_FORMAT = FORMAT
MANIFEST_NAME = "MANIFEST.json"

# The manifest the writer produces; ``last_good`` names a file of the run directory.
_MANIFEST_TYPES = {
    "format": int, "run_hash": str, "last_good": str, "payload_crc32": int,
    "round": int, "completed": bool, "schemas": list,
}
_PAYLOAD_NAME = re.compile(r"ckpt-[0-9]{6,}\.rsnp")

# Test hook: SIGKILL this process when the writer reaches the named point.
_CRASH_ENV = "REPRO_CKPT_CRASH_POINT"


def _maybe_crash(point: str) -> None:
    if os.environ.get(_CRASH_ENV) == point:
        os.kill(os.getpid(), signal.SIGKILL)


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
        name = f"ckpt-{round_idx:06d}.rsnp"
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
        for stale in self.directory.glob("ckpt-*.rsnp"):
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
    if int.from_bytes(path.read_bytes()[-4:], "little") != manifest["payload_crc32"]:
        raise ValueError(
            f"corrupt checkpoint payload {path}: it does not end with the manifest's "
            "CRC-32 (torn, truncated, altered or replaced after the write)"
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
                "as written, and a ckpt-<round>.rsnp payload name"
            )
    except (ValueError, TypeError, KeyError, RecursionError) as exc:
        raise ValueError(f"checkpoint manifest {path}: {type(exc).__name__}: {exc}") from None
    return manifest
