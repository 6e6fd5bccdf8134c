"""Federated-learning simulation engine: clients, strategies, coordinator."""

from .async_engine import BufferedAsyncEngine
from .checkpoint import CheckpointWriter, load_checkpoint
from .client import LocalTrainer, LocalTrainerConfig
from .coordinator import Coordinator, CoordinatorConfig
from .executor import TrainItem, make_executor
from .export import log_to_dict, save_log
from .metrics import RunSummary, recovery_summary, summarize
from .registry import RunRegistry, run_hash
from .scheduling import make_selector
from .strategy import Strategy
from .transport import TransportCodec, TransportConfig
from .types import ClientUpdate, FLClient, TrainingLog

__all__ = [
    "BufferedAsyncEngine",
    "CheckpointWriter",
    "load_checkpoint",
    "LocalTrainer",
    "LocalTrainerConfig",
    "Coordinator",
    "CoordinatorConfig",
    "TrainItem",
    "make_executor",
    "log_to_dict",
    "save_log",
    "RunSummary",
    "recovery_summary",
    "summarize",
    "RunRegistry",
    "run_hash",
    "make_selector",
    "Strategy",
    "TransportCodec",
    "TransportConfig",
    "ClientUpdate",
    "FLClient",
    "TrainingLog",
]
