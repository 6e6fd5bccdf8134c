"""FedTrans core: the paper's contribution.

* :class:`~repro.core.config.FedTransConfig` — every hyperparameter and
  ablation flag (Table 7).
* :class:`~repro.core.transformer.ModelTransformer` — when/where/how to
  transform (§4.1: DoC, activeness, widen/deepen).
* :class:`~repro.core.client_manager.ClientManager` — utility-based model
  assignment (§4.2, Eqs. 2-4).
* :class:`~repro.core.aggregator.ModelAggregator` — soft multi-model
  aggregation (§4.3, Eq. 5).
* :class:`~repro.core.runtime.FedTransStrategy` — Algorithm 1, pluggable
  into the :class:`~repro.fl.coordinator.Coordinator`.
"""

from .aggregator import ModelAggregator
from .client_manager import ClientManager, SimilarityCache
from .config import PAPER_DEFAULTS, FedTransConfig
from .runtime import FedTransStrategy
from .similarity import model_similarity
from .transform import apply_transform, select_cells

__all__ = [
    "ModelAggregator",
    "ClientManager",
    "SimilarityCache",
    "PAPER_DEFAULTS",
    "FedTransConfig",
    "FedTransStrategy",
    "model_similarity",
    "apply_transform",
    "select_cells",
]
