"""Budgets of FedTrans's utility table at fleet scale (100k resident clients).

``best_model`` is FedTrans's deployment rule, called once per compatible set
per fleet sweep with every client of that set.  Its tie-break reads each
model's fleet-mean utility, which the table computes once per change of the
block, and it finds rows by a binary search over the client column, never
by walking the resident rows; the dict-per-client implementation it
replaced walked every resident client for every compatible model for every
client, so each client cost milliseconds at this scale.  Materializing rows
must stay linear in the clients added.
"""

from __future__ import annotations

import gc
import time

import numpy as np

from repro.core import ClientManager, SimilarityCache
from repro.fl import ClientUpdate
from repro.nn import mlp

RESIDENT = 100_000
MODELS = [f"m{j}" for j in range(6)]


def _resident_table(n: int) -> ClientManager:
    rng = np.random.default_rng(0)
    present = rng.random((n, len(MODELS))) < 0.8
    cm = ClientManager()
    cm.load_state_dict(
        {
            "schema": ClientManager.schema,
            "clients": np.arange(n),
            "models": MODELS,
            "utility": np.where(present, rng.uniform(-5.0, 5.0, present.shape), 0.0),
            "present": present,
            "last_active": np.zeros(n, dtype=np.int64),
            "round": 0,
            "evicted_total": 0,
            "sim_cache": SimilarityCache().state_dict(),
        }
    )
    return cm


def test_best_model_for_unseen_clients_over_100k_resident():
    cm = _resident_table(RESIDENT)
    start = time.perf_counter()
    picks = set(cm.best_model(RESIDENT + np.arange(1000), MODELS))
    elapsed = time.perf_counter() - start
    # Unseen clients tie at utility 0 on every model: the fleet mean decides.
    payload = cm.state_dict()
    means = [
        payload["utility"][payload["present"][:, j], j].mean() for j in range(len(MODELS))
    ]
    assert picks == {MODELS[int(np.argmax(means))]}
    assert elapsed < 0.5, f"resolving 1000 clients took {elapsed * 1e3:.0f} ms"


def test_materializing_clients_in_one_update_is_linear():
    model = mlp((6,), 3, np.random.default_rng(0), width=4)
    mid = model.model_id

    def seconds(n: int) -> float:
        updates = [
            ClientUpdate(cid, mid, {}, {}, float(cid % 7), 1, 0.0, 0, 0, 0.0)
            for cid in range(n)
        ]
        cm = ClientManager()
        # Paused: a cyclic collection the update's allocations trigger walks
        # every live object, the updates built above included, so where its
        # full passes land would decide the ratio, not the update's work.
        gc.disable()
        try:
            start = time.perf_counter()
            cm.update(updates, {mid: model})
            elapsed = time.perf_counter() - start
        finally:
            gc.enable()
        assert cm.state_dict()["clients"].tolist() == list(range(n))
        return elapsed

    small, large = seconds(RESIDENT // 10), seconds(RESIDENT)
    # Linear growth is ~10x for 10x the clients; a row append that copied
    # the block per client would be ~100x.
    assert large < 30 * small, f"{RESIDENT:,} clients: {large:.2f} s vs {small:.3f} s"
