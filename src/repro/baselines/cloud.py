"""Centralized ("cloud") training — the hypothetical upper bound of Fig. 2.

Pools every client's training data on one machine, shuffles it (making the
data homogeneous), and trains a single model with SGD.  The paper uses this
as the performance ceiling that FL methods are measured against; it is not
an FL strategy (no privacy, no communication) and so bypasses the
coordinator entirely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data.federated import FederatedDataset
from ..nn.model import CellModel
from ..nn.optim import SGD

__all__ = ["CloudResult", "train_centralized"]


@dataclass(frozen=True)
class CloudResult:
    """Outcome of a centralized run."""

    mean_client_accuracy: float  # averaged over the same per-client test sets
    pooled_accuracy: float
    total_macs: float
    steps: int


def train_centralized(
    model: CellModel,
    dataset: FederatedDataset,
    epochs: int,
    batch_size: int,
    lr: float,
    seed: int = 0,
    momentum: float = 0.0,
) -> CloudResult:
    """Train ``model`` in place on pooled data; report the paper's metrics."""
    rng = np.random.default_rng(seed)
    x, y = dataset.pooled_train()
    n = len(y)
    opt = SGD(lr, momentum=momentum)
    steps = 0
    for _ in range(epochs):
        perm = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = perm[start : start + batch_size]
            model.zero_grad()
            model.loss_and_grad(x[idx], y[idx])
            opt.step(model.params(), model.grads())
            steps += 1
    total_macs = float(model.train_macs_per_sample()) * steps * batch_size
    per_client = [
        model.evaluate(c.x_test, c.y_test)[1] for c in dataset.clients
    ]
    xt, yt = dataset.pooled_test()
    _, pooled = model.evaluate(xt, yt)
    return CloudResult(
        mean_client_accuracy=float(np.mean(per_client)),
        pooled_accuracy=float(pooled),
        total_macs=total_macs,
        steps=steps,
    )
