"""Baselines the paper compares against, on the shared FL substrate."""

from .cloud import train_centralized
from .fluid import FLuIDStrategy
from .heterofl import HeteroFLStrategy
from .single_model import fedavg, fedprox_trainer_config, fedyogi
from .splitmix import SplitMixStrategy

__all__ = [
    "train_centralized",
    "FLuIDStrategy",
    "HeteroFLStrategy",
    "fedavg",
    "fedprox_trainer_config",
    "fedyogi",
    "SplitMixStrategy",
]
