"""Client-device capability traces and latency modelling."""

from .latency import inference_latency
from .traces import DeviceTrace, calibrate_capacities, disparity, sample_device_traces

__all__ = [
    "inference_latency",
    "DeviceTrace",
    "calibrate_capacities",
    "disparity",
    "sample_device_traces",
]
