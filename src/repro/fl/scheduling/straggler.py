"""Straggler policies: drop (the default) or FedTrans-aware downsizing.

``drop`` leaves the assignment alone; an arrival past its deadline is
discarded by the engine with its wasted compute metered — exactly the
pre-subsystem behavior.  ``downsize`` exploits what a multi-model suite
makes possible: a client whose *predicted* round time busts the deadline
is re-assigned the largest compatible **smaller** model whose estimate
fits, so the slot produces a usable (cheaper) update instead of a metered
drop.  The prediction uses the same latency arithmetic the trainer
realizes (:func:`~repro.fl.scheduling.base.estimate_round_time`, memoized
``macs()``/``nbytes()``), so a downsized dispatch is never dropped by the
clock it was sized against.
"""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np

from ...nn.model import CellModel
from ..client import LocalTrainerConfig
from ..types import FLClient
from .base import StragglerPolicy, estimate_round_time
from .fleet import FleetStore

__all__ = ["DropPolicy", "DownsizePolicy"]


class DropPolicy(StragglerPolicy):
    """Never rewrites assignments; late arrivals drop at the deadline."""

    name = "drop"

    def resolve(self, client, model_ids, deadline, models, trainer, compatible_fn):
        return model_ids, False


class DownsizePolicy(StragglerPolicy):
    """Swap a predicted-late client onto its largest deadline-fitting model.

    Only single-model assignments are rewritten (multi-model dispatches —
    SplitMix's base-net bundles — are structural, not a size choice) and
    only when a *strictly smaller* compatible model fits the deadline;
    otherwise the assignment stands and the ordinary drop path applies.
    Candidate ranking is by memoized ``macs()`` with the model id as a
    deterministic tie-break.
    """

    name = "downsize"

    def resolve(
        self,
        client: FLClient,
        model_ids: list[str],
        deadline: float | None,
        models: Mapping[str, CellModel],
        trainer: LocalTrainerConfig,
        compatible_fn: Callable[[FLClient], list[str]],
    ) -> tuple[list[str], bool]:
        if deadline is None or len(model_ids) != 1:
            return model_ids, False
        assigned = models[model_ids[0]]
        if estimate_round_time(client, assigned, trainer) <= deadline:
            return model_ids, False
        fitting = [
            (models[mid].macs(), mid)
            for mid in compatible_fn(client)
            if models[mid].macs() < assigned.macs()
            and estimate_round_time(client, models[mid], trainer) <= deadline
        ]
        if not fitting:
            return model_ids, False
        return [max(fitting)[1]], True

    def resolve_wave(
        self,
        clients: list[FLClient],
        assignments: Mapping[int, list[str]],
        deadlines: Mapping[int, float | None],
        models: Mapping[str, CellModel],
        trainer: LocalTrainerConfig,
        compatible_fn: Callable[[FLClient], list[str]],
        fleet: FleetStore,
    ) -> dict[int, tuple[list[str], bool]]:
        """Batch the predicted-late prescreen over the fleet's device columns.

        One vectorized :meth:`FleetStore.predict_round_times` call per
        distinct assigned model replaces a Python estimate per client;
        only the clients the prescreen flags as late run the per-client
        downsize search.  The vectorized estimates are bit-identical to
        the scalar estimator (same IEEE expression over the same inputs),
        so the outcome is exactly the per-client loop's.
        """
        results: dict[int, tuple[list[str], bool]] = {}
        # Only single-model assignments with a live deadline are downsize
        # candidates; everything else passes through untouched (exactly
        # resolve()'s own early exit).
        groups: dict[str, list[FLClient]] = {}
        for client in clients:
            cid = client.client_id
            mids = assignments[cid]
            results[cid] = (mids, False)
            if deadlines[cid] is not None and len(mids) == 1:
                groups.setdefault(mids[0], []).append(client)
        for mid, group in groups.items():
            rows = fleet.rows_of([c.client_id for c in group])
            est = fleet.predict_round_times(rows, models[mid], trainer)
            dls = np.asarray([deadlines[c.client_id] for c in group], dtype=np.float64)
            for client, late in zip(group, est > dls):
                if late:
                    results[client.client_id] = self.resolve(
                        client,
                        assignments[client.client_id],
                        deadlines[client.client_id],
                        models,
                        trainer,
                        compatible_fn,
                    )
        return results
