"""Federated dataset containers: per-client train/test splits."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .partition import dirichlet_partition, natural_partition
from .synthetic import SyntheticTask, SyntheticTaskConfig

__all__ = ["ClientData", "FederatedDataset", "build_federated_dataset"]


@dataclass
class ClientData:
    """One client's local data."""

    client_id: int
    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray
    complexity: float = 1.0  # task-complexity level (diagnostics; see synthetic.py)

    @property
    def num_train(self) -> int:
        return len(self.y_train)

    @property
    def num_test(self) -> int:
        return len(self.y_test)


@dataclass
class FederatedDataset:
    """All clients of one federated task plus task metadata."""

    clients: list[ClientData]
    num_classes: int
    input_shape: tuple[int, ...]
    name: str = "synthetic"

    @property
    def num_clients(self) -> int:
        return len(self.clients)

    def pooled_train(self) -> tuple[np.ndarray, np.ndarray]:
        """Concatenate every client's training data (the 'cloud' setting)."""
        x = np.concatenate([c.x_train for c in self.clients])
        y = np.concatenate([c.y_train for c in self.clients])
        return x, y

    def pooled_test(self) -> tuple[np.ndarray, np.ndarray]:
        x = np.concatenate([c.x_test for c in self.clients])
        y = np.concatenate([c.y_test for c in self.clients])
        return x, y


def build_federated_dataset(
    task_config: SyntheticTaskConfig,
    num_clients: int,
    mean_samples: float,
    seed: int,
    partition: str = "natural",
    h: float = 0.5,
    test_fraction: float = 0.25,
    name: str = "synthetic",
) -> FederatedDataset:
    """Generate a full federated dataset.

    Parameters
    ----------
    partition:
        ``"natural"`` (organic skew + size imbalance) or ``"dirichlet"``
        (heterogeneity controlled by ``h``; the Fig. 13 knob).
    test_fraction:
        Per-client held-out fraction, stratified implicitly by sampling the
        same class mixture.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    task = SyntheticTask(task_config)
    rng = np.random.default_rng(seed)
    if partition == "natural":
        counts = natural_partition(num_clients, task_config.num_classes, mean_samples, rng)
    elif partition == "dirichlet":
        counts = dirichlet_partition(
            num_clients, task_config.num_classes, h, int(mean_samples), rng
        )
    else:
        raise ValueError(f"unknown partition scheme {partition!r}")

    clients: list[ClientData] = []
    for cid in range(num_clients):
        crng = np.random.default_rng(seed + 1000 + cid)
        drift = task.sample_drift(crng)
        complexity = task.sample_complexity(crng)
        train_counts = counts[cid]
        # Per-class test counts proportional to train counts (same local
        # distribution), at least 1 test sample for any observed class.
        test_counts = np.where(
            train_counts > 0,
            np.maximum((train_counts * test_fraction).astype(int), 1),
            0,
        )
        if test_counts.sum() == 0:
            test_counts[np.argmax(train_counts)] = 1
        x_tr, y_tr = task.sample(train_counts, crng, drift, complexity)
        x_te, y_te = task.sample(test_counts, crng, drift, complexity)
        clients.append(ClientData(cid, x_tr, y_tr, x_te, y_te, complexity))
    return FederatedDataset(clients, task_config.num_classes, task_config.input_shape, name)
