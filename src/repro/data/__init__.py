"""Federated datasets: synthetic tasks, partitioners, and named workloads."""

from .federated import FederatedDataset, build_federated_dataset
from .registry import DATASET_BUILDERS, cifar10_like, femnist_like, speech_like
from .synthetic import SyntheticTaskConfig

__all__ = [
    "FederatedDataset",
    "build_federated_dataset",
    "DATASET_BUILDERS",
    "cifar10_like",
    "femnist_like",
    "speech_like",
    "SyntheticTaskConfig",
]
