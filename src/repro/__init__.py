"""FedTrans (MLSys 2024) reproduction.

Efficient federated learning via multi-model transformation: starting from
one small model, FedTrans grows a suite of hardware-compatible models during
training (widen/deepen at the Cell level with function-preserving weight
inheritance), assigns each client the right model by loss-based utility,
and co-trains the suite with similarity-weighted soft aggregation.

Quickstart::

    import numpy as np
    from repro import (
        FedTransConfig, FedTransStrategy, Coordinator, CoordinatorConfig,
        FLClient, femnist_like, mlp, sample_device_traces, calibrate_capacities,
    )

    ds = femnist_like(scale=0.02, seed=0)
    rng = np.random.default_rng(0)
    init = mlp(ds.input_shape, ds.num_classes, rng, width=16)
    traces = calibrate_capacities(
        sample_device_traces(ds.num_clients, rng), init.macs(), init.macs() * 32
    )
    clients = [FLClient(c.client_id, c, t) for c, t in zip(ds.clients, traces)]
    strategy = FedTransStrategy(
        init, FedTransConfig(gamma=3, delta=4, beta=0.02),
        max_capacity_macs=max(t.capacity_macs for t in traces),
    )
    log = Coordinator(strategy, clients, CoordinatorConfig(rounds=60)).run()
    print(log.final_accuracy(), log.pmacs())

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from .baselines import fedavg
from .core import FedTransConfig, FedTransStrategy
from .data import femnist_like
from .device import calibrate_capacities, sample_device_traces
from .fl import (
    Coordinator,
    CoordinatorConfig,
    FLClient,
    LocalTrainerConfig,
    recovery_summary,
    summarize,
)
from .nn import mlp

__version__ = "1.0.0"

__all__ = [
    "fedavg",
    "FedTransConfig",
    "FedTransStrategy",
    "femnist_like",
    "calibrate_capacities",
    "sample_device_traces",
    "Coordinator",
    "CoordinatorConfig",
    "FLClient",
    "LocalTrainerConfig",
    "recovery_summary",
    "summarize",
    "mlp",
]
