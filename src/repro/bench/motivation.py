"""Motivation experiments: Fig. 1a and Fig. 1b.

These reproduce two of §2's empirical arguments:

* **Fig. 1a** — three models of increasing complexity across a ~700-device
  fleet produce wide, overlapping inference-latency distributions, so no
  single architecture suits every device.
* **Fig. 1b** — across a 7-level model-complexity ladder, no single level
  achieves the best accuracy for the majority of clients.

The third, Fig. 2's cost/accuracy landscape, is drawn by
``benchmarks/bench_fig2_landscape.py`` from the shared workload suite.
"""

from __future__ import annotations

import numpy as np

from ..baselines import train_centralized
from ..data import FederatedDataset
from ..device import inference_latency, sample_device_traces
from ..nn import complexity_ladder, reference_device_models

__all__ = ["fig1a_latency_distributions", "fig1b_best_model_histogram"]


def fig1a_latency_distributions(
    num_devices: int = 700, seed: int = 0
) -> dict[str, np.ndarray]:
    """Per-model inference-latency samples across a heterogeneous fleet."""
    rng = np.random.default_rng(seed)
    traces = sample_device_traces(num_devices, rng)
    models = reference_device_models((3, 8, 8), 10, rng)
    out: dict[str, np.ndarray] = {}
    for name, model in models.items():
        macs = model.macs()
        out[name] = np.array([inference_latency(macs, t) for t in traces])
    return out


def fig1b_best_model_histogram(
    dataset: FederatedDataset,
    levels: int = 7,
    seed: int = 0,
    epochs: int = 10,
    lr: float = 0.2,
) -> tuple[np.ndarray, np.ndarray]:
    """Percent of clients whose best accuracy comes from each ladder level.

    The paper trains 7 NASBench201 models federatedly; at simulation scale
    we train the ladder centrally on pooled data (each model sees identical
    data) and evaluate per client, which isolates exactly the quantity the
    figure argues about: the client-level argmax over model complexities.
    Ties are split by the smaller model (cheaper deployment wins).

    Returns ``(percent_best_per_level, per_client_argmax)``.
    """
    rng = np.random.default_rng(seed)
    ladder = complexity_ladder(dataset.input_shape, dataset.num_classes, rng, levels=levels)
    acc = np.zeros((len(ladder), dataset.num_clients))
    for li, model in enumerate(ladder):
        train_centralized(model, dataset, epochs=epochs, batch_size=16, lr=lr, seed=seed)
        for ci, c in enumerate(dataset.clients):
            acc[li, ci] = model.evaluate(c.x_test, c.y_test)[1]
    best = acc.argmax(axis=0)
    counts = np.bincount(best, minlength=levels)
    return 100.0 * counts / dataset.num_clients, best

