"""Device traces and the latency model."""

import numpy as np
import pytest

from repro.device import (
    DeviceTrace,
    calibrate_capacities,
    disparity,
    inference_latency,
    sample_device_traces,
)
from repro.device.latency import client_round_time, training_latency, transfer_latency


class TestTraces:
    def test_fleet_size(self, rng):
        traces = sample_device_traces(100, rng)
        assert len(traces) == 100
        assert all(t.compute_speed > 0 and t.bandwidth > 0 for t in traces)

    def test_disparity_target_met(self, rng):
        traces = sample_device_traces(500, rng, target_disparity=29.0)
        speeds = np.array([t.compute_speed for t in traces])
        assert disparity(speeds) >= 29.0

    def test_too_few_devices_raises(self, rng):
        with pytest.raises(ValueError):
            sample_device_traces(1, rng)

    def test_disparity_bad_percentile(self):
        with pytest.raises(ValueError):
            disparity(np.array([-1.0, 1.0, 2.0]))

    def test_device_ids_sequential(self, rng):
        traces = sample_device_traces(10, rng)
        assert [t.device_id for t in traces] == list(range(10))

    def test_scaled_copy(self):
        t = DeviceTrace(0, 1e9, 1e6, 5e5)
        s = t.scaled(7e7)
        assert s.capacity_macs == 7e7
        assert s.compute_speed == t.compute_speed


class TestCalibration:
    def test_bounds(self, rng):
        traces = sample_device_traces(50, rng)
        cal = calibrate_capacities(traces, 1000, 32000)
        caps = np.array([t.capacity_macs for t in cal])
        assert caps.min() == pytest.approx(1000, rel=1e-9)
        assert caps.max() == pytest.approx(32000, rel=1e-9)

    def test_monotone_in_speed(self, rng):
        traces = sample_device_traces(50, rng)
        cal = calibrate_capacities(traces, 100, 10000)
        order_speed = np.argsort([t.compute_speed for t in cal])
        caps = np.array([t.capacity_macs for t in cal])
        assert np.all(np.diff(caps[order_speed]) >= 0)

    def test_bad_range_raises(self, rng):
        traces = sample_device_traces(5, rng)
        with pytest.raises(ValueError):
            calibrate_capacities(traces, 1000, 100)
        with pytest.raises(ValueError):
            calibrate_capacities(traces, 0, 100)


class TestLatency:
    def _dev(self):
        return DeviceTrace(0, compute_speed=1e6, bandwidth=1e3, capacity_macs=1e9)

    def test_inference(self):
        assert inference_latency(2_000_000, self._dev()) == pytest.approx(2.0)

    def test_training(self):
        assert training_latency(3000, 100, self._dev()) == pytest.approx(0.3)

    def test_transfer(self):
        assert transfer_latency(5000, self._dev()) == pytest.approx(5.0)

    def test_round_time_composition(self):
        dev = self._dev()
        rt = client_round_time(dev, model_macs=1000, model_bytes=500, batch_size=10, local_steps=2)
        expected = 0.5 + (3 * 1000 * 20) / 1e6 + 0.5
        assert rt == pytest.approx(expected)

    def test_faster_device_lower_latency(self, rng):
        slow = DeviceTrace(0, 1e6, 1e6, 1e9)
        fast = DeviceTrace(1, 1e8, 1e6, 1e9)
        assert inference_latency(1e6, fast) < inference_latency(1e6, slow)
