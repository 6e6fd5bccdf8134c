"""Model Aggregator: within-model FedAvg + cross-model soft aggregation (§4.3).

Aggregation runs in two stages each round:

1. **Within-model FedAvg** — each model's participant updates are averaged
   weighted by local sample counts (weights *and* BatchNorm statistics).
2. **Cross-model soft aggregation (Eq. 5)** — model ``j`` additionally
   absorbs the weights of earlier-born models ``i < j``, weighted by
   ``η^{t} · sim(M_i, M_j)``.  Sharing is small→large only by default: the
   paper's Table 1 shows large→small ("l2s") sharing hurts small-model
   accuracy (``share_l2s=True`` re-enables it for that experiment).  The
   decay ``η^t`` phases out cross-model noise as training converges; the
   '-d' ablation disables it.

Shape mismatches between related models are resolved per tensor by
*leading-overlap projection* (HeteroFL-style cropping): the overlapping
leading region of the source tensor is written over a copy of the
destination tensor.  Because widening always places inherited channels
first, the leading region is exactly the shared lineage.

Eq. 5 hot path
--------------
The inner loop is vectorized around two per-pair caches, exploiting the
same invariant :class:`~repro.core.client_manager.SimilarityCache` relies
on (a model's architecture is immutable after birth — transformations
clone into a new model id):

* similarities are looked up once per ``(src, dst)`` pair per round, not
  once per parameter key;
* each ``(src, dst)`` pair caches an *overlap plan* per shared key: either
  "same shape" (add ``w · src`` over the whole tensor) or the overlap
  slice plus the slab decomposition of its complement (add ``w · src``
  on the overlap, ``w · dst`` on the complement) — the exact element-wise
  contributions ``project_overlap`` produced, without materializing a
  destination-sized copy per (source, key);
* accumulation lands in per-``(dst, key)`` workspace buffers reused
  across rounds.

The contribution order per element is unchanged (sources in birth order),
so the vectorized path is bit-identical to the naive
``num += w * project_overlap(src, dst)`` loop.

Normalization deviates from Eq. 5's literal form — see DESIGN.md §2 and
``strict_eq5``.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from ..fl.types import ClientUpdate
from ..nn.compute import Workspace
from ..nn.model import CellModel
from ..nn.param_ops import ParamTree, tree_average
from ..stateful import Stateful
from .client_manager import SimilarityCache
from .config import FedTransConfig

__all__ = ["project_overlap", "ModelAggregator"]


def project_overlap(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Write ``src``'s leading-overlap region into a copy of ``dst``.

    Handles every shape relation (crop, embed, and mixed axes) in one rule:
    ``out[:o1, :o2, ...] = src[:o1, :o2, ...]`` with ``o = min(shapes)``.
    """
    if src.shape == dst.shape:
        return src.copy()
    if src.ndim != dst.ndim:
        raise ValueError(f"rank mismatch projecting {src.shape} -> {dst.shape}")
    overlap = tuple(slice(0, min(s, d)) for s, d in zip(src.shape, dst.shape))
    out = dst.copy()
    out[overlap] = src[overlap]
    return out


def _overlap_plan(
    src_shape: tuple[int, ...], dst_shape: tuple[int, ...]
) -> tuple | None:
    """How ``src`` contributes to a ``dst``-shaped accumulator.

    ``None`` means the shapes match (whole-tensor contribution).  Otherwise
    returns ``(overlap, slabs)``: the leading-overlap slice (``w · src``
    region) and the disjoint slabs covering its complement in ``dst``
    coordinates (``w · dst`` regions).  Slab ``a`` holds the elements whose
    first out-of-overlap axis is ``a`` — together the slabs tile the
    complement exactly once.
    """
    if src_shape == dst_shape:
        return None
    if len(src_shape) != len(dst_shape):
        raise ValueError(f"rank mismatch projecting {src_shape} -> {dst_shape}")
    overlap = tuple(slice(0, min(s, d)) for s, d in zip(src_shape, dst_shape))
    slabs = []
    for axis, (o, d) in enumerate(zip(overlap, dst_shape)):
        if o.stop >= d:
            continue  # this axis is fully covered; no complement slab
        slab = list(overlap[:axis]) + [slice(o.stop, d)] + [slice(None)] * (
            len(dst_shape) - axis - 1
        )
        slabs.append(tuple(slab))
    return overlap, tuple(slabs)


class ModelAggregator(Stateful):
    """Implements Algorithm 1's ``UpdateWeight`` step.

    ``server_opt_factory`` optionally supplies a per-model server optimizer
    (e.g. ``lambda: Yogi()``) applied to each model's FedAvg pseudo-gradient
    — this is how "FedTrans + FedYogi" (Fig. 8) composes.  Each model gets
    its own optimizer state, created lazily at first aggregation.
    """

    # Overlap plans and workspace buffers are pure derived caches — rebuilt
    # on first aggregation — so only the per-model server optimizer
    # trajectories survive a restart.
    state_fields = {"server_opts": ("_server_opts", dict[str, Stateful])}

    def __init__(
        self,
        config: FedTransConfig,
        sim_cache: SimilarityCache,
        server_opt_factory=None,
    ):
        self.config = config
        self.sim_cache = sim_cache
        self.server_opt_factory = server_opt_factory
        self._server_opts: dict[str, Stateful] = (
            defaultdict(server_opt_factory) if server_opt_factory is not None else {}
        )
        # (src_id, dst_id) -> {key: overlap plan}; valid for the life of the
        # pair because architectures are immutable after birth.
        self._plans: dict[tuple[str, str], dict[str, tuple | None]] = {}
        # Accumulator/scratch buffers reused across rounds, keyed by
        # (dst_id, key).
        self._ws = Workspace()

    # ------------------------------------------------------------------
    def aggregate(
        self,
        models: dict[str, CellModel],
        birth_order: list[str],
        updates: list[ClientUpdate],
        round_idx: int,
    ) -> dict[str, ParamTree]:
        """Run both aggregation stages, mutating the server models in place.

        Returns each updated model's FedAvg pseudo-gradient: its weights
        before this call minus the sample-weighted mean of the returned ones.
        """
        self._prune_caches(models)
        pseudo_grads = self._within_model(models, updates)
        if self.config.soft_aggregation and len(models) > 1:
            self._across_models(models, birth_order, round_idx)
        return pseudo_grads

    # ------------------------------------------------------------------
    def _within_model(
        self, models: dict[str, CellModel], updates: list[ClientUpdate]
    ) -> dict[str, ParamTree]:
        by_model: dict[str, list[ClientUpdate]] = {}
        for u in updates:
            by_model.setdefault(u.model_id, []).append(u)
        pseudo_grads: dict[str, ParamTree] = {}
        for mid, ups in by_model.items():
            model = models[mid]
            weights = [float(u.num_samples) for u in ups]
            avg = tree_average([u.params for u in ups], weights)
            # Read the *live* parameters before set_params overwrites them in
            # place; the subtraction (like the server optimizer, which only
            # consumes values) yields fresh arrays, so no deep copy is needed.
            current = model.params()
            pseudo_grad = pseudo_grads[mid] = {k: current[k] - avg[k] for k in current}
            if self.server_opt_factory is None:
                model.set_params(avg)
            else:
                model.set_params(self._server_opts[mid].step(current, pseudo_grad))
            states = [u.state for u in ups]
            if states and states[0]:
                model.set_state(tree_average(states, weights))
        return pseudo_grads

    # ------------------------------------------------------------------
    def _decay_factor(self, round_idx: int) -> float:
        """η^t for cross-model terms; 1 when the '-d' ablation disables decay."""
        if not self.config.decay:
            return 1.0
        return float(self.config.eta ** max(round_idx, 0))

    def _prune_caches(self, models: dict[str, CellModel]) -> None:
        """Drop per-model caches for models no longer in the suite.

        Transformation retires models (``max_models`` cap), and without
        eviction the per-pair plans, the per-``(dst, key)`` accumulators,
        and the per-model server-optimizer state would grow with every
        model ever born rather than with the live suite.
        """
        stale_pairs = [p for p in self._plans if p[0] not in models or p[1] not in models]
        for p in stale_pairs:
            del self._plans[p]
        self._ws.prune(lambda name: name[0] in models)
        for mid in [m for m in self._server_opts if m not in models]:
            del self._server_opts[mid]

    def _pair_plan(
        self, src_id: str, dst_id: str, src_params: ParamTree, dst_params: ParamTree
    ) -> dict[str, tuple | None]:
        cached = self._plans.get((src_id, dst_id))
        if cached is None:
            cached = {
                key: _overlap_plan(src_params[key].shape, val.shape)
                for key, val in dst_params.items()
                if key in src_params  # cell absent from the source's lineage
            }
            self._plans[(src_id, dst_id)] = cached
        return cached

    # repro: hotpath
    def _across_models(
        self,
        models: dict[str, CellModel],
        birth_order: list[str],
        round_idx: int,
    ) -> None:
        """Eq. 5 over every model, oldest first.

        Snapshots all post-FedAvg weights first so each destination model
        aggregates from its peers' *this-round* weights rather than from
        partially soft-aggregated ones.
        """
        snapshot: dict[str, ParamTree] = {
            mid: models[mid].get_params() for mid in birth_order
        }
        for j, dst_id in enumerate(birth_order):
            dst = models[dst_id]
            if self.config.share_l2s:
                source_ids = list(birth_order)
            else:
                source_ids = birth_order[: j + 1]
            if len(source_ids) == 1:
                continue  # only itself: aggregation is the identity
            decay = self._decay_factor(round_idx)
            dst_params = snapshot[dst_id]
            # Similarity, weights, and overlap plans resolved once per
            # (src, dst) pair — not once per parameter key.
            contribs = []
            for src_id in source_ids:
                sim = self.sim_cache.get(models[src_id], dst)
                if sim <= 0.0:
                    continue
                w_num = sim if src_id == dst_id else decay * sim
                w_den = sim if self.config.strict_eq5 else w_num
                plan = self._pair_plan(src_id, dst_id, snapshot[src_id], dst_params)
                contribs.append((src_id, w_num, w_den, plan))
            new_params: ParamTree = {}
            for key, dst_val in dst_params.items():
                num = self._ws.get((dst_id, key), dst_val.shape, dst_val.dtype)
                num[...] = 0.0
                scratch = self._ws.get(
                    (dst_id, key, "scr"), dst_val.shape, dst_val.dtype
                )
                den = 0.0
                for src_id, w_num, w_den, plan in contribs:
                    if key not in plan:
                        continue  # cell absent from the source's lineage
                    src_val = snapshot[src_id][key]
                    p = plan[key]
                    if p is None:
                        # Same shape: num += w * src over the whole tensor.
                        np.multiply(src_val, w_num, out=scratch)
                        num += scratch
                    else:
                        # num += w * project_overlap(src, dst), region-wise:
                        # the overlap takes src values, the complement slabs
                        # take dst values — identical element contributions
                        # in identical order, no dst-sized copy.
                        overlap, slabs = p
                        np.multiply(src_val[overlap], w_num, out=scratch[overlap])
                        num[overlap] += scratch[overlap]
                        for slab in slabs:
                            np.multiply(dst_val[slab], w_num, out=scratch[slab])
                            num[slab] += scratch[slab]
                    den += w_den
                if den > 0:
                    num /= den
                    new_params[key] = num  # set_params copies immediately
                else:
                    new_params[key] = dst_val
            dst.set_params(new_params)

    # ------------------------------------------------------------------
    def load_state_dict(self, payload: dict) -> None:
        super().load_state_dict(payload)
        self._plans = {}
        self._ws = Workspace()
