"""NumPy neural-network substrate for the FedTrans reproduction.

Provides layers, transformable cells, cell-based models, losses, optimizers,
and MACs/bytes accounting — everything FedTrans needs to generate, train,
transform, and cost models without a deep-learning framework.
"""

from . import functional
from .compute import set_compute_dtype
from .model import CellModel
from .optim import SGD
from .zoo import (
    complexity_ladder,
    mlp,
    reference_device_models,
    small_cnn,
    small_resnet,
    vit_tiny,
)

__all__ = [
    "functional",
    "set_compute_dtype",
    "CellModel",
    "SGD",
    "complexity_ladder",
    "mlp",
    "reference_device_models",
    "small_cnn",
    "small_resnet",
    "vit_tiny",
]
