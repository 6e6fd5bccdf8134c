"""The per-client deployment and scoring rules a fleet sweep batches.

A sweep resolves every client's deployment in one ``Strategy.eval_models``
call and scores each deployment group in one pass
(:func:`repro.fl.executor.ensemble_accuracies`).  The rules below are the
per-client forms those replaced, kept verbatim as the oracles
``tests/test_fleet_sweep.py`` holds them to bit for bit: FedTrans's
sorted tie-break over the utility table, the width ladders'
``largest_compatible`` per capacity, and the per-client ``accuracy()`` loop.
"""

from __future__ import annotations

import numpy as np

from repro.baselines import FLuIDStrategy, HeteroFLStrategy, SplitMixStrategy
from repro.baselines.single_model import SingleModelStrategy
from repro.core import ClientManager, FedTransStrategy
from repro.fl.strategy import compatible_model_ids
from repro.nn.losses import accuracy
from repro.nn.model import CellModel


def best_model(manager: ClientManager, client_id: int, compatible_ids: list[str]) -> str:
    """Deployment choice: the compatible model with the highest utility.

    Ties (e.g. clients that never participated) break toward the model
    with the highest fleet-wide mean utility, then the earliest-born
    (most-trained) model.
    """
    if not compatible_ids:
        raise ValueError("no compatible models")
    payload = manager.state_dict()
    u, held = payload["utility"], payload["present"]
    means = {
        mid: u[held[:, j], j].mean() if held[:, j].any() else 0.0
        for j, mid in enumerate(payload["models"])
    }
    ranked = sorted(
        range(len(compatible_ids)),
        key=lambda i: (
            manager.utility(client_id, compatible_ids[i]),
            float(means.get(compatible_ids[i], 0.0)),
            -i,
        ),
        reverse=True,
    )
    return compatible_ids[ranked[0]]


def largest_compatible(models: dict[str, CellModel], capacity_macs: float) -> str:
    """Id of the largest ladder model that fits a MAC budget."""
    fits = compatible_model_ids(models, capacity_macs)
    return max(fits, key=lambda mid: (models[mid].macs(), mid))


def eval_models(strategy, clients) -> list[str]:
    """Each shipped strategy's deployment, resolved client by client."""
    if isinstance(strategy, FedTransStrategy):
        return [
            best_model(strategy.client_manager, c.client_id, strategy.compatible_models(c))
            for c in clients
        ]
    if isinstance(strategy, (HeteroFLStrategy, FLuIDStrategy)):
        return [largest_compatible(strategy.models(), c.capacity_macs) for c in clients]
    if isinstance(strategy, SplitMixStrategy):
        return [strategy._base_ids[0] for _ in clients]
    if isinstance(strategy, SingleModelStrategy):
        return [strategy.model.model_id for _ in clients]
    raise TypeError(f"no deployment oracle for {type(strategy).__name__}")


def ensemble_accuracies(member_logits, num_members, clients_by_id, client_ids) -> np.ndarray:
    """Average member logits, slice per client, score each slice."""
    logits: np.ndarray | None = None
    for out in member_logits:
        logits = out if logits is None else logits + out
    logits = logits / num_members
    accs = np.zeros(len(client_ids))
    offset = 0
    for j, cid in enumerate(client_ids):
        data = clients_by_id[cid].data
        n = data.num_test
        accs[j] = accuracy(logits[offset : offset + n], data.y_test) if n else 0.0
        offset += n
    return accs
