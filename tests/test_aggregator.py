"""Model Aggregator: within-model FedAvg + Eq. 5 soft aggregation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregator import ModelAggregator, _overlap_plan, project_overlap
from repro.core.client_manager import SimilarityCache
from repro.core.config import FedTransConfig
from repro.fl.types import ClientUpdate
from repro.nn import mlp


def _update(client_id, model, params=None, samples=10, loss=1.0):
    return ClientUpdate(
        client_id=client_id,
        model_id=model.model_id,
        params=params if params is not None else model.get_params(),
        state=model.get_state(),
        grad={k: np.zeros_like(v) for k, v in model.params().items()},
        train_loss=loss,
        num_samples=samples,
        macs_spent=0.0,
        bytes_down=0,
        bytes_up=0,
        round_time=0.0,
    )


def _family(rng):
    """parent -> child (widened): two models sharing lineage."""
    parent = mlp((6,), 3, rng, width=4)
    child = parent.clone(birth_round=5)
    child.widen_cell(child.transformable_cells()[0].cell_id, 2.0, rng)
    models = {parent.model_id: parent, child.model_id: child}
    order = [parent.model_id, child.model_id]
    return models, order, parent, child


class TestProjectOverlap:
    def test_same_shape_copies(self, rng):
        src, dst = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
        out = project_overlap(src, dst)
        assert np.allclose(out, src)
        out[0, 0] = 99
        assert src[0, 0] != 99  # copy, not view

    def test_crop(self, rng):
        src, dst = rng.normal(size=(4, 6)), rng.normal(size=(2, 3))
        assert np.allclose(project_overlap(src, dst), src[:2, :3])

    def test_embed_keeps_dst_rest(self, rng):
        src, dst = rng.normal(size=(2, 2)), rng.normal(size=(4, 4))
        out = project_overlap(src, dst)
        assert np.allclose(out[:2, :2], src)
        assert np.allclose(out[2:], dst[2:])

    def test_mixed_axes(self, rng):
        src, dst = rng.normal(size=(2, 6)), rng.normal(size=(4, 3))
        out = project_overlap(src, dst)
        assert out.shape == (4, 3)
        assert np.allclose(out[:2, :3], src[:2, :3])
        assert np.allclose(out[2:], dst[2:])

    def test_rank_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            project_overlap(rng.normal(size=(2,)), rng.normal(size=(2, 2)))


def _apply_plan(src, dst):
    """Build ``project_overlap(src, dst)`` from the cached plan alone."""
    plan = _overlap_plan(src.shape, dst.shape)
    if plan is None:
        return src.copy()
    overlap, slabs = plan
    out = np.full(dst.shape, np.nan)
    out[overlap] = src[overlap]
    for slab in slabs:
        out[slab] = dst[slab]
    return out


class TestOverlapPlan:
    """The per-(src, dst) plan the vectorized Eq. 5 loop caches."""

    @staticmethod
    def _hits(src_shape, dst_shape):
        overlap, slabs = _overlap_plan(src_shape, dst_shape)
        hits = np.zeros(dst_shape, dtype=int)
        for region in (overlap, *slabs):
            hits[region] += 1
        return hits

    def test_same_shape_is_whole_tensor(self):
        assert _overlap_plan((3, 4), (3, 4)) is None

    def test_crop_has_no_complement(self):
        overlap, slabs = _overlap_plan((5, 6), (3, 4))
        assert overlap == (slice(0, 3), slice(0, 4))
        assert slabs == ()

    def test_embed_slabs_tile_complement_once(self):
        overlap, _ = _overlap_plan((2, 3), (4, 5))
        assert overlap == (slice(0, 2), slice(0, 3))
        assert (self._hits((2, 3), (4, 5)) == 1).all()

    def test_mixed_axes_slabs_tile_complement_once(self):
        assert (self._hits((5, 2, 3), (3, 4, 3)) == 1).all()

    def test_rank_mismatch_raises(self):
        with pytest.raises(ValueError, match="rank"):
            _overlap_plan((2,), (2, 2))

    @given(
        src_shape=st.lists(st.integers(1, 5), min_size=1, max_size=3),
        grow=st.lists(st.integers(-3, 3), min_size=3, max_size=3),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=40, deadline=None)
    def test_plan_reproduces_project_overlap(self, src_shape, grow, seed):
        dst_shape = tuple(max(1, s + g) for s, g in zip(src_shape, grow))
        rng = np.random.default_rng(seed)
        src, dst = rng.normal(size=tuple(src_shape)), rng.normal(size=dst_shape)
        np.testing.assert_array_equal(_apply_plan(src, dst), project_overlap(src, dst))


class TestWithinModelFedAvg:
    def test_weighted_mean(self, rng):
        m = mlp((6,), 3, rng, width=4)
        agg = ModelAggregator(FedTransConfig(soft_aggregation=False), SimilarityCache())
        p1 = {k: np.zeros_like(v) for k, v in m.params().items()}
        p2 = {k: np.ones_like(v) for k, v in m.params().items()}
        ups = [_update(0, m, p1, samples=30), _update(1, m, p2, samples=10)]
        agg.aggregate({m.model_id: m}, [m.model_id], ups, round_idx=0)
        for v in m.params().values():
            assert np.allclose(v, 0.25)

    def test_no_updates_noop(self, rng):
        m = mlp((6,), 3, rng, width=4)
        before = m.get_params()
        agg = ModelAggregator(FedTransConfig(), SimilarityCache())
        agg.aggregate({m.model_id: m}, [m.model_id], [], round_idx=0)
        assert all(np.allclose(m.params()[k], before[k]) for k in before)

    def test_single_model_soft_agg_is_identity(self, rng):
        """With one model, Eq. 5 must reduce to within-model FedAvg."""
        m = mlp((6,), 3, rng, width=4)
        p1 = {k: np.full_like(v, 2.0) for k, v in m.params().items()}
        agg = ModelAggregator(FedTransConfig(soft_aggregation=True), SimilarityCache())
        agg.aggregate({m.model_id: m}, [m.model_id], [_update(0, m, p1)], round_idx=0)
        for v in m.params().values():
            assert np.allclose(v, 2.0)


class TestSoftAggregation:
    def test_oldest_model_untouched_without_l2s(self, rng):
        """No large-to-small sharing by default (Table 1): the first-born
        model never absorbs its descendants' weights."""
        models, order, parent, child = _family(rng)
        parent_before = parent.get_params()
        agg = ModelAggregator(FedTransConfig(share_l2s=False), SimilarityCache())
        # only the child trains this round
        agg.aggregate(models, order, [_update(0, child)], round_idx=3)
        assert all(
            np.allclose(parent.params()[k], parent_before[k]) for k in parent_before
        )

    def test_l2s_enabled_changes_parent(self, rng):
        models, order, parent, child = _family(rng)
        for p in child.params().values():
            p += 5.0
        parent_before = parent.get_params()
        agg = ModelAggregator(FedTransConfig(share_l2s=True), SimilarityCache())
        agg.aggregate(models, order, [], round_idx=1)
        moved = any(
            not np.allclose(parent.params()[k], parent_before[k]) for k in parent_before
        )
        assert moved

    def test_child_absorbs_parent_weights(self, rng):
        models, order, parent, child = _family(rng)
        for p in parent.params().values():
            p[...] = 10.0
        child_before = child.get_params()
        agg = ModelAggregator(FedTransConfig(), SimilarityCache())
        agg.aggregate(models, order, [], round_idx=0)
        moved = any(
            not np.allclose(child.params()[k], child_before[k]) for k in child_before
        )
        assert moved

    def test_decay_reduces_cross_model_influence(self, rng):
        """η^t: the same aggregation at a later round moves the child less."""

        def drift_at_round(t):
            rng2 = np.random.default_rng(0)
            models, order, parent, child = _family(rng2)
            for p in parent.params().values():
                p[...] = 10.0
            before = child.get_params()
            agg = ModelAggregator(FedTransConfig(eta=0.9), SimilarityCache())
            agg.aggregate(models, order, [], round_idx=t)
            return sum(
                float(np.abs(child.params()[k] - before[k]).sum()) for k in before
            )

        assert drift_at_round(50) < drift_at_round(0)

    def test_decay_disabled_is_time_invariant(self, rng):
        def drift_at_round(t):
            rng2 = np.random.default_rng(0)
            models, order, parent, child = _family(rng2)
            for p in parent.params().values():
                p[...] = 10.0
            before = child.get_params()
            agg = ModelAggregator(FedTransConfig(decay=False), SimilarityCache())
            agg.aggregate(models, order, [], round_idx=t)
            return sum(
                float(np.abs(child.params()[k] - before[k]).sum()) for k in before
            )

        assert drift_at_round(50) == pytest.approx(drift_at_round(0))

    def test_soft_aggregation_off_keeps_models_independent(self, rng):
        models, order, parent, child = _family(rng)
        for p in parent.params().values():
            p[...] = 10.0
        child_before = child.get_params()
        agg = ModelAggregator(FedTransConfig(soft_aggregation=False), SimilarityCache())
        agg.aggregate(models, order, [], round_idx=0)
        assert all(
            np.allclose(child.params()[k], child_before[k]) for k in child_before
        )

    def test_inserted_cells_only_aggregate_within_owners(self, rng):
        """A deepen-inserted cell has no counterpart in the parent, so its
        weights cannot receive parent contributions."""
        parent = mlp((6,), 3, rng, width=4)
        child = parent.clone(birth_round=2)
        inserted = child.deepen_after(child.transformable_cells()[0].cell_id, rng)
        models = {parent.model_id: parent, child.model_id: child}
        order = [parent.model_id, child.model_id]
        ins_keys = [k for k in child.params() if k.startswith(inserted[0])]
        before = {k: child.params()[k].copy() for k in ins_keys}
        agg = ModelAggregator(FedTransConfig(), SimilarityCache())
        agg.aggregate(models, order, [], round_idx=0)
        for k in ins_keys:
            assert np.allclose(child.params()[k], before[k])

    def test_strict_eq5_shrinks_weights(self, rng):
        """The literal Eq. 5 denominator under-normalizes when η^t < 1 —
        the deviation DESIGN.md documents."""
        models, order, parent, child = _family(rng)
        for p in parent.params().values():
            p[...] = 1.0
        for p in child.params().values():
            p[...] = 1.0
        agg = ModelAggregator(FedTransConfig(strict_eq5=True, eta=0.5), SimilarityCache())
        agg.aggregate(models, order, [], round_idx=10)
        # all-ones weights should stay ~1 under a proper weighted mean, but
        # the strict form divides by a larger denominator
        shared = [k for k in child.params() if k in parent.params()]
        assert any(float(child.params()[k].mean()) < 0.99 for k in shared)
