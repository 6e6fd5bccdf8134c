"""The fleet sweep: version-keyed accuracies and member logits.

Periodic evaluation sweeps the *whole* registered fleet, yet between
sweeps most of the suite is untouched (async aggregation updates at most
``buffer_k`` models per step; cold models in multi-model training go
unchanged for long stretches).  :meth:`Coordinator.evaluate` hands its
chunked deployment groups to an :class:`EvalCache` — the only way a sweep
is computed — which keys two caches on the models' monotone
:attr:`~repro.nn.model.CellModel.version` counters:

* **accuracies** per ``(ensemble ids, ensemble versions, client chunk)`` —
  a deployment group whose models did not change since the last sweep
  skips its forward passes entirely;
* **logits** per ``(model id, model version, client chunk)``, kept for
  multi-member ensembles only — across sweeps, an ensemble that lost some
  (not all) members to training recomputes only the changed members and
  reuses the idle members' logits (SplitMix's nested deployments, where
  the hot base net invalidates every ensemble containing it but the cold
  members' passes are saved).  Within a single sweep there is nothing to
  share: deployment groups partition the fleet, so no two groups ever
  produce the same ``(model, version, chunk)`` key.  Single-member groups
  skip the logits cache entirely (an unchanged member is an accuracy-cache
  hit and a changed one needs a full recompute, so a stored entry could
  never be read): they dispatch as plain accuracy tasks — per-client
  accuracies over the wire, nothing retained — submitted in the *same*
  executor wave as the ensembles' member-logits tasks
  (:meth:`~repro.fl.executor.RoundExecutor.eval_and_logits_round`), so a
  mixed sweep pays one barrier, not two.

The retained logits are float64 (a downcast would break the bit-identity
contract), so the cross-sweep cache costs
``O(multi-member-ensemble test rows x num_classes)`` doubles of resident
memory between sweeps — the price of skipping idle members' forward
passes.  Fleets whose evaluation is dominated by single-model deployments
pay nothing.

Warm and cold sweeps are bit-identical: a sweep over an empty cache is
the code a first sweep runs, a hit returns the array a miss stored, every
score ends in :func:`~repro.fl.executor.ensemble_accuracies` over
:func:`~repro.fl.executor._logits_task` output, and entries are
invalidated by version, never by heuristics.  ``EvalRecord.cached_clients``
/ ``evaluated_clients`` meter the split so the saving is observable.  Both
caches evict entries untouched by the latest sweep, bounding memory at one
sweep's working set.
"""

from __future__ import annotations

import numpy as np

from ..analysis import sanitize as _sanitize
from ..stateful import Stateful, check_schema, schema_tag
from .executor import EvalTask, RoundExecutor, ensemble_accuracies

__all__ = ["EvalCache"]


class EvalCache(Stateful):
    """Both caches plus the sweep that fills, serves and evicts them."""

    schema = schema_tag("EvalCache")

    def __init__(self) -> None:
        # accuracies per (ensemble ids, ensemble versions, chunk); logits
        # per (model id, model version, chunk).
        self.accs: dict[tuple, np.ndarray] = {}
        self.logits: dict[tuple, np.ndarray] = {}
        # Sanitizer cross-check at the cache-read boundary (no-op unless
        # the sanitizer is on): both caches trust model.version, so a
        # model whose bytes moved without a bump must raise here rather
        # than silently serve a stale entry.
        self._version_watch = _sanitize.VersionWatch()

    def state_dict(self) -> dict:
        """Tuple keys become list-of-entry dicts (payload convention: str
        keys only), sorted so the payload is order-independent."""
        return {
            "schema": self.schema,
            "eval_acc_cache": [
                {
                    "model_ids": list(mids),
                    "versions": list(vers),
                    "client_ids": list(cids),
                    "accs": accs.copy(),
                }
                for (mids, vers, cids), accs in sorted(self.accs.items())
            ],
            "eval_logits_cache": [
                {
                    "model_id": mid,
                    "version": ver,
                    "client_ids": list(cids),
                    "logits": logits.copy(),
                }
                for (mid, ver, cids), logits in sorted(self.logits.items())
            ],
        }

    def load_state_dict(self, payload: dict) -> None:
        check_schema(payload, self.schema)
        self.accs = {
            (
                tuple(e["model_ids"]),
                tuple(int(v) for v in e["versions"]),
                tuple(int(c) for c in e["client_ids"]),
            ): np.asarray(e["accs"], dtype=float)
            for e in payload["eval_acc_cache"]
        }
        self.logits = {
            (
                e["model_id"],
                int(e["version"]),
                tuple(int(c) for c in e["client_ids"]),
            ): np.asarray(e["logits"])
            for e in payload["eval_logits_cache"]
        }

    # ------------------------------------------------------------------
    def evaluate(
        self,
        chunked: list[list[int]],
        tasks: list[EvalTask],
        models: dict,
        accs: np.ndarray,
        executor: RoundExecutor,
        batch_size: int,
    ) -> int:
        """Version-keyed evaluation of the chunked deployment groups.

        Fills ``accs`` in place and returns how many clients were served
        from the accuracy cache (module docstring: what is cached, what a
        miss costs, and why warm and cold sweeps are bit-identical).
        """
        self._version_watch.check_all(models, where="eval cache read")
        # The executor already indexed the same fleet by client id.
        clients_by_id = executor.clients_by_id
        cached_clients = 0
        acc_touched: set[tuple] = set()
        logit_touched: set[tuple] = set()
        misses: list[tuple[tuple, EvalTask, list[int]]] = []
        single_misses: list[tuple[tuple, EvalTask, list[int]]] = []
        for idxs, task in zip(chunked, tasks):
            versions = tuple(models[mid].version for mid in task.model_ids)
            key = (task.model_ids, versions, task.client_ids)
            acc_touched.add(key)
            hit = self.accs.get(key)
            if hit is not None:
                accs[idxs] = hit
                cached_clients += len(idxs)
                # Keep the hit group's member logits warm too: if one
                # member trains before the next sweep, that sweep reuses
                # the idle members' logits instead of re-running the full
                # ensemble (they'd otherwise be evicted below).
                if len(task.model_ids) > 1:
                    for mid, ver in zip(task.model_ids, versions):
                        logit_touched.add((mid, ver, task.client_ids))
            elif len(task.model_ids) == 1:
                single_misses.append((key, task, idxs))
            else:
                misses.append((key, task, idxs))
        if misses or single_misses:
            # Member logits the missed ensembles need, minus what the cache
            # already holds.  Keys are already distinct: groups partition
            # the fleet, so no two missed groups share a (model, version,
            # chunk) triple.  Single-member misses ride the same executor
            # wave as plain accuracy tasks — one combined barrier, not two.
            needed: list[tuple] = []
            for _, task, _ in misses:
                if _group_rows(task, clients_by_id) == 0:
                    continue  # no test data: zeros, no forward pass needed
                for mid in task.model_ids:
                    lkey = (mid, models[mid].version, task.client_ids)
                    logit_touched.add(lkey)
                    if lkey not in self.logits:
                        needed.append(lkey)
            eouts, louts = executor.eval_and_logits_round(
                [t for _, t, _ in single_misses],
                [EvalTask((mid,), cids) for mid, _, cids in needed],
                models,
                batch_size,
            )
            for (key, _, idxs), group_accs in zip(single_misses, eouts):
                self.accs[key] = group_accs
                accs[idxs] = group_accs
            for lkey, out in zip(needed, louts):
                self.logits[lkey] = out
            for key, task, idxs in misses:
                group_accs = self._combine_group(task, models, clients_by_id)
                self.accs[key] = group_accs
                accs[idxs] = group_accs
        # Evict entries the latest sweep no longer references (stale
        # versions, regrouped chunks): memory stays at one sweep's worth.
        self.accs = {k: v for k, v in self.accs.items() if k in acc_touched}
        self.logits = {k: v for k, v in self.logits.items() if k in logit_touched}
        return cached_clients

    def _combine_group(
        self, task: EvalTask, models: dict, clients_by_id: dict
    ) -> np.ndarray:
        """Ensemble-average cached member logits into per-client accuracies."""
        if _group_rows(task, clients_by_id) == 0:
            return np.zeros(len(task.client_ids))
        return ensemble_accuracies(
            (
                self.logits[(mid, models[mid].version, task.client_ids)]
                for mid in task.model_ids
            ),
            len(task.model_ids),
            clients_by_id,
            task.client_ids,
        )


def _group_rows(task: EvalTask, clients_by_id: dict) -> int:
    return sum(clients_by_id[cid].data.num_test for cid in task.client_ids)
