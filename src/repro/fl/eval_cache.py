"""The fleet sweep: version-keyed accuracies.

Periodic evaluation sweeps the *whole* registered fleet, yet between
sweeps most of the suite is untouched (async aggregation updates at most
``buffer_k`` models per step; cold models in multi-model training go
unchanged for long stretches).  :meth:`Coordinator.evaluate` hands its
chunked deployment groups to an :class:`EvalCache` — the only way a sweep
is computed — which keeps per-client accuracies per ``(ensemble ids,
ensemble versions, client chunk)``, keyed on the models' monotone
:attr:`~repro.nn.model.CellModel.version` counters: a group whose models
did not change since the last sweep skips its forward passes entirely.

The groups that missed run as one executor wave
(:meth:`~repro.fl.executor.RoundExecutor.eval_round`), single models and
ensembles alike, each group cut into batch-aligned row ranges (a lone
group into one per worker; a wave of at least ``workers`` groups not at
all), one job each: each member's forward over a range runs on the
executor thread's own workspace of that model, and the member logits are
averaged and scored where they were computed
(:func:`~repro.fl.executor._eval_task`), so only per-client hit counts come
back; the executor sums a group's counts and divides once, so the cache
still receives one accuracy array per group.

Warm and cold sweeps are bit-identical: a sweep over an empty cache is
the code a first sweep runs, a hit returns the array a miss stored, and
entries are invalidated by version, never by heuristics.
``EvalRecord.cached_clients`` / ``evaluated_clients`` meter the split.
Entries untouched by the latest sweep are evicted, bounding memory at one
sweep's working set.
"""

from __future__ import annotations

import numpy as np

from ..analysis import sanitize as _sanitize
from ..stateful import Stateful, check_schema
from .executor import EvalTask, RoundExecutor

__all__ = ["EvalCache"]

_ENTRY_KEYS = frozenset({"model_ids", "versions", "client_ids", "accs"})


class EvalCache(Stateful):
    """The accuracy cache plus the sweep that fills, serves and evicts it."""

    def __init__(self) -> None:
        # Per-client accuracies per (ensemble ids, ensemble versions, chunk).
        self.accs: dict[tuple, np.ndarray] = {}
        # Sanitizer cross-check at the cache-read boundary (no-op unless
        # the sanitizer is on): the cache trusts model.version, so a model
        # whose bytes moved without a bump must raise here rather than
        # silently serve a stale entry.
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
        }

    def load_state_dict(self, payload: dict) -> None:
        """Strict: an entry a sweep could not have written is refused with a
        ``ValueError`` naming it, before any entry is taken."""
        check_schema(payload, self.schema, ("eval_acc_cache",))
        if type(payload["eval_acc_cache"]) is not list:
            raise ValueError(f"{self.schema} eval_acc_cache: must be a list of entries")
        accs: dict[tuple, np.ndarray] = {}
        for i, entry in enumerate(payload["eval_acc_cache"]):
            where = f"{self.schema} eval_acc_cache entry {i}"
            key, values = _entry(entry, where)
            if key in accs:
                raise ValueError(f"{where}: repeats key {key}")
            accs[key] = values
        self.accs = accs

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
        from the cache (module docstring: what is cached, what a miss costs,
        and why warm and cold sweeps are bit-identical).
        """
        self._version_watch.check_all(models, where="eval cache read")
        cached_clients = 0
        touched: set[tuple] = set()
        misses: list[tuple[tuple, EvalTask, list[int]]] = []
        for idxs, task in zip(chunked, tasks):
            versions = tuple(models[mid].version for mid in task.model_ids)
            key = (task.model_ids, versions, task.client_ids)
            touched.add(key)
            hit = self.accs.get(key)
            if hit is not None:
                accs[idxs] = hit
                cached_clients += len(idxs)
            else:
                misses.append((key, task, idxs))
        if misses:
            outs = executor.eval_round([t for _, t, _ in misses], models, batch_size)
            for (key, _, idxs), group_accs in zip(misses, outs):
                self.accs[key] = group_accs
                accs[idxs] = group_accs
        # Evict entries the latest sweep no longer references (stale
        # versions, regrouped chunks): memory stays at one sweep's worth.
        self.accs = {k: v for k, v in self.accs.items() if k in touched}
        return cached_clients


def _entry(entry: object, where: str) -> tuple[tuple, np.ndarray]:
    """One checkpointed entry as ``(key, accuracies)``, or a ``ValueError``
    naming it (``where``)."""
    if not isinstance(entry, dict) or entry.keys() != _ENTRY_KEYS:
        raise ValueError(f"{where}: keys must be exactly {sorted(_ENTRY_KEYS)}")
    mids, vers, cids, accs = (entry[k] for k in ("model_ids", "versions", "client_ids", "accs"))
    if not (isinstance(mids, list) and mids and all(type(m) is str for m in mids)):
        raise ValueError(f"{where}: model_ids must be a non-empty list of str")
    if not all(isinstance(ints, list) and all(type(v) is int for v in ints) for ints in (vers, cids)):
        raise ValueError(f"{where}: versions and client_ids must be lists of int")
    if len(vers) != len(mids):
        raise ValueError(f"{where}: {len(vers)} versions for {len(mids)} model_ids")
    if not (isinstance(accs, np.ndarray) and accs.dtype == np.float64 and accs.shape == (len(cids),)):
        raise ValueError(f"{where}: accs must be float64 of shape ({len(cids)},)")
    if not ((accs >= 0) & (accs <= 1)).all():  # NaN fails both comparisons
        raise ValueError(f"{where}: accs must be finite and in [0, 1], got {accs}")
    return (tuple(mids), tuple(vers), tuple(cids)), accs
