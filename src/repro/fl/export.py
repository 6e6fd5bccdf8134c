"""Export finished runs to JSON for downstream analysis / plotting.

``log_to_dict`` flattens a :class:`~repro.fl.types.TrainingLog` into plain
Python types (lists, floats); ``save_log``/``load_log`` round-trip it
through a JSON file.  The export carries everything the paper's figures
plot: per-round costs and events, per-eval client-accuracy vectors, and the
headline metrics.

``log_state_dict``/``log_from_state`` are the *checkpoint* serialization —
distinct from the export format on purpose: the export is a write-once
view of a **finished** run (it drops per-round byte columns and demands at
least one evaluation for its summary row), while a checkpoint must capture
a mid-run log **faithfully**, field for field, so a resumed run's final
export is bit-identical to an uninterrupted one's.  The checkpoint half is
*derived*: the record dataclasses in :mod:`~repro.fl.types` are its only
field list (:func:`repro.stateful.record_state`).  The three views stay
hand-written because they *are* the declaration of the public export
schema: renames (``client_id`` -> ``client``), I10 omissions,
only-when-nonzero keys, and a key order CI ``cmp``s against the goldens.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..atomicio import atomic_write
from ..stateful import check_schema, record_from_state, record_state, schema_tag
from .metrics import summarize
from .types import TrainingLog

__all__ = [
    "log_to_dict",
    "save_log",
    "load_log",
    "recovery_to_dict",
    "save_recovery",
    "transport_to_dict",
    "save_transport",
    "log_state_dict",
    "log_from_state",
]


def log_to_dict(log: TrainingLog) -> dict:
    """JSON-serializable view of a training log."""
    return {
        "format": 1,
        "strategy": log.strategy,
        "mode": log.mode,
        "compress": log.compress,
        "summary": summarize(log).row(),
        "stop_reason": log.stop_reason,
        "stopped_round": log.stopped_round,
        # Trajectory-pure totals only: the upload-side raw/wire split is a
        # deterministic function of the config + seed, so it belongs here;
        # the *publish*-side split is executor telemetry that differs
        # between healed and clean runs (I10) and is exported exclusively
        # via transport_to_dict.
        "totals": {
            "macs": log.total_macs,
            "bytes_down": log.total_bytes_down,
            "bytes_up": log.total_bytes_up,
            "raw_bytes_up": log.total_raw_bytes_up,
            "peak_storage_bytes": log.peak_storage_bytes,
            "dropped_updates": log.dropped_updates,
            "dropped_macs": log.dropped_macs,
            "downsized_updates": log.downsized_updates,
            "evicted_clients": log.evicted_clients,
        },
        "rounds": [
            {
                "round": r.round_idx,
                "participants": list(r.participants),
                "assignments": {str(k): list(v) for k, v in r.assignments.items()},
                "mean_loss": r.mean_loss,
                "macs": r.macs,
                "round_time": r.round_time,
                "num_models": r.num_models,
                "events": list(r.events),
                # Scheduling-subsystem decisions (PR 4); None on records
                # written before the subsystem existed.
                **(
                    {
                        "scheduler": {
                            "selector": r.scheduler.selector,
                            "pacing": r.scheduler.pacing,
                            "straggler": r.scheduler.straggler,
                            "requested": r.scheduler.requested,
                            "selected": r.scheduler.selected,
                            "effective_buffer_k": r.scheduler.effective_buffer_k,
                            "deadline_s": r.scheduler.deadline_s,
                            "deadline_quantiles": list(r.scheduler.deadline_quantiles),
                            "downsized": r.scheduler.downsized,
                            "dropped": r.scheduler.dropped,
                            "evicted": r.scheduler.evicted,
                            # Only when nonzero: default-stack exports stay
                            # byte-identical to pre-columnar goldens.
                            **(
                                {
                                    "offline_fallback_rounds": (
                                        r.scheduler.offline_fallback_rounds
                                    )
                                }
                                if r.scheduler.offline_fallback_rounds
                                else {}
                            ),
                        }
                    }
                    if r.scheduler is not None
                    else {}
                ),
                # Async engine only; sync rounds have no arrival stream.
                **(
                    {
                        "arrivals": [
                            {
                                "dispatch_seq": a.dispatch_seq,
                                "client": a.client_id,
                                "models": list(a.model_ids),
                                "dispatch_time": a.dispatch_time,
                                "finish_time": a.finish_time,
                                "staleness": a.staleness,
                                "dropped": a.dropped,
                                "downsized": a.downsized,
                                "quarantined": a.quarantined,
                            }
                            for a in r.arrivals
                        ]
                    }
                    if r.arrivals
                    else {}
                ),
            }
            for r in log.rounds
        ],
        "evals": [
            {
                "round": e.round_idx,
                "cumulative_macs": e.cumulative_macs,
                "mean_accuracy": e.mean_accuracy,
                "client_accuracy": [float(a) for a in e.client_accuracy],
                "client_model": list(e.client_model),
                "cached_clients": e.cached_clients,
                "evaluated_clients": e.evaluated_clients,
            }
            for e in log.evals
        ],
    }


def _write_json(payload: dict, path: str | Path) -> None:
    """Crash-consistent write (temp file + ``os.replace``: never a torn JSON)."""
    with atomic_write(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=1)


def save_log(log: TrainingLog, path: str | Path) -> None:
    """Write a run's JSON export to disk."""
    _write_json(log_to_dict(log), path)


def load_log(path: str | Path) -> dict:
    """Read back a saved run (as a plain dict; logs are write-once)."""
    with open(path) as f:
        data = json.load(f)
    if data.get("format") != 1:
        raise ValueError(f"unsupported log format {data.get('format')!r}")
    return data


# ----------------------------------------------------------------------
# recovery telemetry export (separate from the run export on purpose)
# ----------------------------------------------------------------------
def recovery_to_dict(log: TrainingLog) -> dict:
    """JSON-serializable view of a run's fault-recovery ledger.

    Deliberately a *separate* export from :func:`log_to_dict`: the run
    export states the trajectory, which CONTRACTS.md I10 requires to be
    byte-identical between a crash-recovered run and the fault-free run at
    the same seed — recovery telemetry necessarily differs between the
    two, so it lives here instead.
    """
    return {
        "format": 1,
        "strategy": log.strategy,
        "mode": log.mode,
        "worker_restarts": log.worker_restarts,
        "retries": log.retries,
        "failed_updates": log.failed_updates,
        "quarantined_updates": log.quarantined_updates,
        "faults": [
            {
                "round": f.round_idx,
                "kind": f.kind,
                "action": f.action,
                "client": f.client_id,
                "model": f.model_id,
                "detail": f.detail,
                "attempts": f.attempts,
            }
            for f in log.faults
        ],
    }


def save_recovery(log: TrainingLog, path: str | Path) -> None:
    """Write the recovery-ledger JSON."""
    _write_json(recovery_to_dict(log), path)


# ----------------------------------------------------------------------
# transport-cost ledger export (separate from the run export on purpose)
# ----------------------------------------------------------------------
def transport_to_dict(log: TrainingLog) -> dict:
    """JSON-serializable view of a run's transport-cost ledger.

    The upload side (``bytes_up`` wire vs ``raw_bytes_up``) is trajectory
    data, but the *publish* side is shared-memory executor telemetry: a
    healed process pool republishes a full snapshot that a clean run never
    writes, so the publish counters differ between the two and are barred
    from :func:`log_to_dict` by CONTRACTS.md I10.  This ledger is where
    both halves of the raw/on-wire split live together.
    """
    raw_up = log.total_raw_bytes_up
    wire_up = log.total_bytes_up
    return {
        "format": 1,
        "strategy": log.strategy,
        "mode": log.mode,
        "compress": log.compress,
        "totals": {
            "raw_bytes_up": raw_up,
            "wire_bytes_up": wire_up,
            "update_compression_ratio": (raw_up / wire_up) if wire_up else 1.0,
            # Publish totals include eval-wave publishes, not just the
            # per-round rows below.
            "publish_raw_bytes": log.publish_raw_bytes_total,
            "publish_wire_bytes": log.publish_wire_bytes_total,
        },
        "rounds": [
            {
                "round": r.round_idx,
                "raw_bytes_up": r.raw_bytes_up,
                "wire_bytes_up": r.bytes_up,
                "publish_raw_bytes": r.publish_raw_bytes,
                "publish_wire_bytes": r.publish_wire_bytes,
            }
            for r in log.rounds
        ],
    }


def save_transport(log: TrainingLog, path: str | Path) -> None:
    """Write the transport-ledger JSON."""
    _write_json(transport_to_dict(log), path)


# ----------------------------------------------------------------------
# checkpoint serialization (Stateful payload, not the export format)
# ----------------------------------------------------------------------
LOG_SCHEMA = schema_tag("TrainingLog")


def log_state_dict(log: TrainingLog) -> dict:
    """Lossless Stateful payload of a (possibly mid-run) training log."""
    return {"schema": LOG_SCHEMA, **record_state(log)}


def log_from_state(payload: dict) -> TrainingLog:
    """Rebuild the exact :class:`TrainingLog` a checkpoint captured."""
    check_schema(payload, LOG_SCHEMA)
    body = {key: value for key, value in payload.items() if key != "schema"}
    return record_from_state(TrainingLog, body)
