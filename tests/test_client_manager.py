"""Client Manager: utility sampling (Eqs. 2-3), joint updates (Eq. 4) and
the client × model table that holds them (materialization, eviction)."""

import numpy as np
import pytest

from repro.core.client_manager import ClientManager, SimilarityCache
from repro.fl.types import ClientUpdate
from repro.nn import mlp


def _seeded(utilities: dict[int, dict[str, float]]) -> ClientManager:
    """A manager whose table holds exactly ``utilities``, via a v2 payload."""
    models = list(dict.fromkeys(mid for row in utilities.values() for mid in row))
    cm = ClientManager()
    cm.load_state_dict(
        {
            "schema": ClientManager.schema,
            "clients": list(utilities),
            "models": models,
            "utility": [[row.get(m, 0.0) for m in models] for row in utilities.values()],
            "present": [[m in row for m in models] for row in utilities.values()],
            "last_active": [0] * len(utilities),
            "round": 0,
            "evicted_total": 0,
            "sim_cache": SimilarityCache().state_dict(),
        }
    )
    return cm


def _rows(cm: ClientManager) -> list[int]:
    """Client ids holding a row, in row order."""
    return cm.state_dict()["clients"].tolist()


def _held(cm: ClientManager, client_id: int) -> set[str]:
    """Models the client's row holds a utility for."""
    payload = cm.state_dict()
    row = _rows(cm).index(client_id)
    return {m for m, held in zip(payload["models"], payload["present"][row]) if held}


def _update(client_id, model_id, loss, samples=10):
    return ClientUpdate(
        client_id=client_id,
        model_id=model_id,
        params={},
        state={},
        grad={},
        train_loss=loss,
        num_samples=samples,
        macs_spent=0.0,
        bytes_down=0,
        bytes_up=0,
        round_time=0.0,
    )


class TestSampling:
    def test_probabilities_sum_to_one(self):
        cm = ClientManager()
        p = cm.assignment_probabilities(0, ["a", "b", "c"])
        assert p.shape == (3,)
        assert p.sum() == pytest.approx(1.0)

    def test_uniform_when_no_history(self):
        cm = ClientManager()
        p = cm.assignment_probabilities(0, ["a", "b"])
        assert np.allclose(p, 0.5)

    def test_higher_utility_higher_probability(self):
        cm = _seeded({0: {"a": 2.0, "b": 0.0}})
        p = cm.assignment_probabilities(0, ["a", "b"])
        assert p[0] > p[1]
        assert p[0] == pytest.approx(np.exp(2) / (np.exp(2) + 1))

    def test_no_compatible_raises(self):
        with pytest.raises(ValueError):
            ClientManager().assignment_probabilities(0, [])

    def test_sampling_follows_distribution(self, rng):
        cm = _seeded({0: {"a": 3.0, "b": 0.0}})
        picks = [cm.sample_model(0, ["a", "b"], rng) for _ in range(300)]
        frac_a = picks.count("a") / len(picks)
        assert frac_a > 0.8  # softmax(3,0) ~ 0.95

    def test_overflow_stability(self):
        cm = _seeded({0: {"a": 1e4, "b": 0.0}})
        p = cm.assignment_probabilities(0, ["a", "b"])
        assert np.isfinite(p).all()


class TestBestModel:
    def test_highest_utility_wins(self):
        cm = _seeded({0: {"a": 0.1, "b": 5.0}})
        assert cm.best_model([0], ["a", "b"]) == ["b"]

    def test_tie_breaks_by_global_mean(self):
        cm = _seeded({1: {"a": 0.0, "b": 4.0}})  # fleet likes b
        # client 0 never participated: per-client utilities are all 0
        assert cm.best_model([0], ["a", "b"]) == ["b"]

    def test_fleet_mean_counts_only_rows_holding_a_utility(self):
        # a: 1.0 over one row; b: 0.5 over three.  Counting the rows that
        # never wrote a utility as zeros would rank b first (0.375 > 0.25).
        cm = _seeded({1: {"a": 1.0}, 2: {"b": 0.5}, 3: {"b": 0.5}, 4: {"b": 0.5}})
        assert cm.best_model([0], ["b", "a"]) == ["a"]

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            ClientManager().best_model([0], [])


class TestRegisterModel:
    def test_child_inherits_parent_utility(self):
        cm = _seeded({0: {"parent": 2.5}})
        cm.register_model("child", "parent")
        assert cm.utility(0, "child") == 2.5

    def test_unseen_clients_default_zero(self):
        cm = ClientManager()
        cm.register_model("child", "parent")
        assert cm.utility(42, "child") == 0.0


class TestEq4Update:
    def _models(self, rng):
        parent = mlp((6,), 3, rng, width=4)
        child = parent.clone()
        child.widen_cell(child.transformable_cells()[0].cell_id, 2.0, rng)
        return {parent.model_id: parent, child.model_id: child}, parent, child

    def test_below_average_loss_raises_utility(self, rng):
        models, parent, child = self._models(rng)
        cm = ClientManager()
        ups = [
            _update(0, parent.model_id, loss=0.1),
            _update(1, parent.model_id, loss=2.0),
        ]
        cm.update(ups, models)
        assert cm.utility(0, parent.model_id) > 0  # low loss => more utility
        assert cm.utility(1, parent.model_id) < 0

    def test_similar_models_move_together(self, rng):
        models, parent, child = self._models(rng)
        cm = ClientManager()
        ups = [
            _update(0, parent.model_id, loss=0.1),
            _update(1, parent.model_id, loss=2.0),
        ]
        cm.update(ups, models)
        # child borrows utility in proportion to its similarity to parent
        u_parent = cm.utility(0, parent.model_id)
        u_child = cm.utility(0, child.model_id)
        assert 0 < u_child < u_parent

    def test_single_update_is_neutral(self, rng):
        """With one participant, the standardized loss is zero."""
        models, parent, _ = self._models(rng)
        cm = ClientManager()
        cm.update([_update(0, parent.model_id, loss=1.0)], models)
        assert cm.utility(0, parent.model_id) == 0.0

    def test_empty_updates_noop(self, rng):
        models, _, _ = self._models(rng)
        cm = ClientManager()
        cm.update([], models)
        assert _rows(cm) == []

    def test_utilities_bounded_over_500_rounds(self, rng):
        """Regression: unbounded accumulation saturated the Eq. 3 softmax
        to a one-hot after enough rounds, killing exploration.  With the
        default decay/clamp, 500 rounds of consistently skewed losses keep
        every utility bounded and every assignment probability
        non-degenerate."""
        models, parent, child = self._models(rng)
        cm = ClientManager()
        ids = [parent.model_id, child.model_id]
        for _ in range(500):
            ups = [
                _update(0, parent.model_id, loss=0.1),  # always-good client
                _update(1, child.model_id, loss=2.0),  # always-bad client
            ]
            cm.update(ups, models)
        for cid in (0, 1):
            for mid in ids:
                assert abs(cm.utility(cid, mid)) <= cm.utility_clamp
            p = cm.assignment_probabilities(cid, ids)
            assert p.min() > 1e-8  # still explores: not a one-hot
            assert p.max() < 1.0 - 1e-8

    def test_opposite_clamps_still_explore(self, rng):
        """Worst case: one client driven to +clamp on one model and -clamp
        on a dissimilar one (softmax gap 2*clamp).  The probability floor
        must survive it — this is the case same-signed saturation tests
        miss."""
        a = mlp((6,), 3, rng, width=4)
        b = mlp((6,), 3, rng, width=4)  # unrelated lineage: sim(a, b) == 0
        models = {a.model_id: a, b.model_id: b}
        cm = ClientManager()
        for _ in range(500):
            # Client 0 is great on model a...
            cm.update(
                [_update(0, a.model_id, loss=0.1), _update(1, a.model_id, loss=2.0)],
                models,
            )
            # ...and terrible on model b.
            cm.update(
                [_update(0, b.model_id, loss=2.0), _update(1, b.model_id, loss=0.1)],
                models,
            )
        assert cm.utility(0, a.model_id) == pytest.approx(cm.utility_clamp, rel=0.1)
        assert cm.utility(0, b.model_id) == pytest.approx(-cm.utility_clamp, rel=0.1)
        p = cm.assignment_probabilities(0, [a.model_id, b.model_id])
        assert p.min() > 1e-8  # floor ~ e^(-2*clamp)
        assert p.max() < 1.0 - 1e-8

    def test_unbounded_manager_saturates(self, rng):
        """The failure mode the defaults prevent: decay/clamp disabled,
        the same 500 rounds drive the softmax (numerically) one-hot."""
        models, parent, child = self._models(rng)
        cm = ClientManager(utility_decay=1.0, utility_clamp=0.0)
        ids = [parent.model_id, child.model_id]
        for _ in range(500):
            ups = [
                _update(0, parent.model_id, loss=0.1),
                _update(1, child.model_id, loss=2.0),
            ]
            cm.update(ups, models)
        p = cm.assignment_probabilities(0, ids)
        assert p.max() > 1.0 - 1e-12

    def test_invalid_decay_and_clamp_rejected(self):
        with pytest.raises(ValueError, match="utility_decay"):
            ClientManager(utility_decay=0.0)
        with pytest.raises(ValueError, match="utility_decay"):
            ClientManager(utility_decay=1.5)
        with pytest.raises(ValueError, match="utility_clamp"):
            ClientManager(utility_clamp=-1.0)

    def test_compatible_restriction_skips_out_of_budget_models(self, rng):
        """Regression: the Eq. 4 walk visited *every* model per update, so a
        weak client paid (and stored) utility updates for models it could
        never train or deploy.  With the compatible map, only the client's
        own set is touched."""
        models, parent, child = self._models(rng)
        cm = ClientManager()
        compatible = {0: {parent.model_id}, 1: {parent.model_id, child.model_id}}
        ups = [
            _update(0, parent.model_id, loss=0.1),
            _update(1, parent.model_id, loss=2.0),
        ]
        cm.update(ups, models, compatible)
        # Client 0 (weak) holds no entry for the incompatible child...
        assert child.model_id not in _held(cm, 0)
        # ...but its compatible utilities match the unrestricted walk
        # (restriction only skips writes that could never be read).
        unrestricted = ClientManager()
        unrestricted.update(ups, models)
        assert cm.utility(0, parent.model_id) == unrestricted.utility(0, parent.model_id)
        assert cm.utility(1, child.model_id) == unrestricted.utility(1, child.model_id)

    def test_compatible_restriction_saves_similarity_lookups(self, rng):
        """The cost half of the regression: restricted updates don't even
        consult the similarity cache for out-of-budget models."""
        models, parent, child = self._models(rng)

        class CountingCache(SimilarityCache):
            def __init__(self):
                super().__init__()
                self.calls = 0

            def get(self, src, dst):
                self.calls += 1
                return super().get(src, dst)

        cache = CountingCache()
        cm = ClientManager(cache)
        ups = [
            _update(0, parent.model_id, loss=0.1),
            _update(1, parent.model_id, loss=2.0),
        ]
        cm.update(ups, models, {0: {parent.model_id}, 1: {parent.model_id}})
        assert cache.calls == 2  # one per (update, compatible model)

    def test_missing_compatible_entry_falls_back_to_all_models(self, rng):
        models, parent, child = self._models(rng)
        cm = ClientManager()
        ups = [
            _update(0, parent.model_id, loss=0.1),
            _update(1, parent.model_id, loss=2.0),
        ]
        cm.update(ups, models, {1: {parent.model_id}})  # no entry for client 0
        assert child.model_id in _held(cm, 0)  # legacy full walk
        assert child.model_id not in _held(cm, 1)

    def test_assignment_shifts_after_updates(self, rng):
        """Soft assignment: persistent bad loss on a model steers the client
        elsewhere (the exploration/exploitation behaviour of §4.2)."""
        models, parent, child = self._models(rng)
        cm = ClientManager()
        for _ in range(5):
            ups = [
                _update(0, parent.model_id, loss=3.0),  # bad on parent
                _update(1, parent.model_id, loss=0.1),
            ]
            cm.update(ups, models)
        p = cm.assignment_probabilities(0, [parent.model_id, child.model_id])
        # Client 0's parent utility is now strongly negative; the child,
        # being similar, is dragged down less (scaled by sim < 1).
        assert p[1] > p[0]


class TestTableRows:
    """A row per participating client, dropped after ``evict_after`` idle
    rounds of the manager's own clock."""

    MODEL = mlp((6,), 3, np.random.default_rng(0), width=4)

    def _touch(self, cm, *client_ids):
        """One round in which ``client_ids`` and a peer (99) train MODEL."""
        mid = self.MODEL.model_id
        ups = [_update(cid, mid, loss=float(cid)) for cid in (*client_ids, 99)]
        cm.update(ups, {mid: self.MODEL})
        return mid

    def test_lazy_materialization(self):
        cm = ClientManager()
        assert cm.utility(5, "m") == 0.0 and cm.best_model([5], ["m"]) == ["m"]
        assert _rows(cm) == []  # queries never materialize a row
        mid = self._touch(cm, 5)
        assert _rows(cm) == [5, 99] and _held(cm, 5) == {mid}
        assert cm.utility(5, mid) != 0.0

    def test_eviction_boundary_is_strictly_greater(self):
        cm = ClientManager(evict_after=2)
        mid = self._touch(cm, 1)  # clients 1 and 99 last active at round 0
        cm.advance_round(1)
        self._touch(cm, 2)  # 2 and 99 at round 1
        assert cm.advance_round(2) == []  # client 1 exactly 2 rounds stale: kept
        assert cm.advance_round(3) == [1]  # 3 rounds stale: 1 goes, 2 and 99 stay
        assert _rows(cm) == [99, 2] and cm.utility(1, mid) == 0.0
        assert cm.utility(2, mid) != 0.0
        assert cm.evicted_total == 1

    def test_returning_client_is_appended(self):
        cm = ClientManager(evict_after=1)
        self._touch(cm, 1, 2)
        cm.advance_round(2)
        self._touch(cm, 2, 1)  # 1, 2 and 99 were evicted; they come back
        assert _rows(cm) == [2, 1, 99]

    def test_touch_resets_the_clock(self):
        cm = ClientManager(evict_after=2)
        mid = self._touch(cm, 1)
        for r in range(1, 10):
            cm.advance_round(r)
            self._touch(cm, 1)  # participates every round
        assert _rows(cm) == [1, 99] and cm.evicted_total == 0
        assert cm.utility(1, mid) != 0.0

    def test_invalid_evict_after_rejected(self):
        with pytest.raises(ValueError, match="evict_after"):
            ClientManager(evict_after=0)
