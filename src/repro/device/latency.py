"""Latency model over device traces.

Replaces the paper's AI-Benchmark smartphone measurements (Fig. 1a) and
FedScale round-time simulation (Table 6) with a first-order cost model:

* inference latency  = model forward MACs / device compute speed
* training latency   = train MACs x samples / speed
* transfer latency   = model bytes / bandwidth (download + upload)
* client round time  = download + train + upload; a synchronous round
  lasts as long as its slowest participant's.

The buffered-asynchronous engine (:mod:`repro.fl.async_engine`) consumes
the same per-client times but never takes the max: each client's
download + train + upload schedules a completion event on a simulated
clock, and an aggregation step's ``round_time`` is the clock advance
needed to buffer its first ``buffer_k`` arrivals.
"""

from __future__ import annotations

from .traces import DeviceTrace

__all__ = [
    "inference_latency",
    "training_latency",
    "transfer_latency",
    "client_round_time",
]


def inference_latency(model_macs: int, device: DeviceTrace) -> float:
    """Seconds for one forward pass of a ``model_macs``-MAC model."""
    return model_macs / device.compute_speed


def training_latency(
    train_macs_per_sample: int, num_samples: int, device: DeviceTrace
) -> float:
    """Seconds of local computation for ``num_samples`` training samples."""
    return train_macs_per_sample * num_samples / device.compute_speed


def transfer_latency(model_bytes: int, device: DeviceTrace) -> float:
    """Seconds for one direction of a model transfer."""
    return model_bytes / device.bandwidth


def client_round_time(
    device: DeviceTrace,
    model_macs: int,
    model_bytes: int,
    batch_size: int,
    local_steps: int,
) -> float:
    """Download + local training + upload time for one participant."""
    samples = batch_size * local_steps
    train_macs = 3 * model_macs  # forward + backward
    return (
        transfer_latency(model_bytes, device)
        + training_latency(train_macs, samples, device)
        + transfer_latency(model_bytes, device)
    )

