"""Run registry: config-hashed run directories for durable runs.

A *run* is identified by everything that shapes its trajectory: the
strategy name, the coordinator configuration, and the fleet (client ids,
dataset sizes, device capacities).  :func:`run_hash` fingerprints that
identity; :class:`RunRegistry` maps it to a stable directory
``<root>/<strategy>-<hash>`` so repeated invocations of the same
experiment land their checkpoints in the same place — and a changed
config lands somewhere else instead of corrupting an existing run.

Knobs that do **not** affect the trajectory are excluded from the hash on
purpose: the executor backend and worker count (all backends are
bit-identical by contract), the sanitizer (checks, never changes,
behavior), and the checkpoint/resume knobs themselves — so a run can be
resumed under a different backend, with a different cadence, or with the
sanitizer on, and still find its checkpoints.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from pathlib import Path

from .types import FLClient

__all__ = ["TRAJECTORY_NEUTRAL_KNOBS", "fleet_fingerprint", "run_hash", "RunRegistry"]

# CoordinatorConfig fields excluded from the run identity (see module
# docstring).  Everything else — seed, rounds, trainer, policies, async
# knobs, dtype — changes the trajectory and therefore the run.
TRAJECTORY_NEUTRAL_KNOBS = (
    "checkpoint_every",
    "checkpoint_dir",
    "resume",
    "executor",
    "max_workers",
    "sanitize",
)


def fleet_fingerprint(clients: list[FLClient]) -> list[list]:
    """The fleet facts the trajectory depends on, in registration order."""
    return [
        [
            c.client_id,
            c.data.num_train,
            c.data.num_test,
            float(c.capacity_macs),
        ]
        for c in clients
    ]


def run_hash(strategy_name: str, config, clients: list[FLClient]) -> str:
    """12-hex-digit fingerprint of (strategy, trajectory config, fleet)."""
    cfg = asdict(config)
    for knob in TRAJECTORY_NEUTRAL_KNOBS:
        cfg.pop(knob, None)
    # A config field until a sweep had one path; its default stays in the
    # preimage so older run directories are still found (and an old
    # checkpoint there is refused by its schema tag, not silently skipped).
    cfg["eval_cache"] = True
    doc = {
        "strategy": strategy_name,
        "config": cfg,
        "fleet": fleet_fingerprint(clients),
    }
    blob = json.dumps(doc, sort_keys=True, default=repr).encode()
    return hashlib.blake2b(blob, digest_size=6).hexdigest()


class RunRegistry:
    """Maps run identities to directories under one registry root."""

    def __init__(self, root: str | Path):
        self.root = Path(root)

    def run_dir(self, strategy_name: str, config, clients: list[FLClient]) -> Path:
        """The (created) directory owning this run's checkpoints."""
        d = self.root / f"{strategy_name}-{run_hash(strategy_name, config, clients)}"
        d.mkdir(parents=True, exist_ok=True)
        return d

    def runs(self) -> list[str]:
        """Names of every registered run directory, sorted."""
        if not self.root.exists():
            return []
        return sorted(p.name for p in self.root.iterdir() if p.is_dir())
