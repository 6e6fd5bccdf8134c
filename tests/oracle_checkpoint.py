"""The format-1 checkpoint writer, kept as the oracle of the format-2 readers.

``write_payload`` / ``CheckpointWriter.write`` below are the implementation
the per-dtype arenas of :mod:`repro.fl.checkpoint` replaced (one ``.npz``
member per array, a format-1 manifest with no payload CRC), and
``transport_state_dict`` is the ``TransportCodec/v1`` payload (a list of
one dict per residual) the columns replaced.  The bodies are the parent
revision's, without its write-time checks, crash hooks and pruning.
Checkpoints they write are what earlier revisions left on disk, and the
current readers must resume them.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.atomicio import atomic_write
from repro.stateful import collect_schemas


def transport_state_dict(codec) -> dict:
    return {
        "schema": "TransportCodec/v1",
        "spec": codec.config.spec,
        "residuals": [
            {"client_id": cid, "model_id": mid, "scope": scope, "key": key, "value": arr.copy()}
            for (cid, mid, scope, key), arr in sorted(codec._residuals.items())
        ],
    }


def flatten_payload(payload: dict) -> tuple[dict, dict[str, np.ndarray]]:
    arrays: dict[str, np.ndarray] = {}

    def walk(node):
        if isinstance(node, np.ndarray):
            slot = f"a{len(arrays)}"
            arrays[slot] = node
            return {"__array__": slot}
        if isinstance(node, dict):
            return {k: walk(v) for k, v in node.items()}
        if isinstance(node, (list, tuple)):
            return [walk(v) for v in node]
        if isinstance(node, np.generic):
            return node.item()
        return node

    return walk(payload), arrays


def write_payload(path: str | Path, payload: dict) -> None:
    skeleton, arrays = flatten_payload(payload)
    arrays["__skeleton__"] = np.frombuffer(json.dumps(skeleton).encode(), dtype=np.uint8)
    with atomic_write(path) as f:
        np.savez(f, **arrays)


class CheckpointWriter:
    def __init__(self, directory: str | Path, run_hash: str):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.run_hash = run_hash

    def write(self, round_idx: int, payload: dict, completed: bool) -> Path:
        name = f"ckpt-{round_idx:06d}.npz"
        path = self.directory / name
        write_payload(path, payload)
        manifest = {
            "format": 1,
            "run_hash": self.run_hash,
            "last_good": name,
            "round": round_idx,
            "completed": completed,
            "schemas": collect_schemas(payload),
        }
        with atomic_write(self.directory / "MANIFEST.json", "w", encoding="utf-8") as f:
            json.dump(manifest, f, indent=1)
        return path
