"""ModelTransformer gating and the full FedTrans runtime (Algorithm 1)."""

import numpy as np
import pytest

from repro.core import FedTransConfig, FedTransStrategy
from repro.core.transformer import ModelTransformer
from repro.data import SyntheticTaskConfig, build_federated_dataset
from repro.device import DeviceTrace, calibrate_capacities, sample_device_traces
from repro.fl import Coordinator, CoordinatorConfig, FLClient, LocalTrainerConfig
from repro.nn import mlp


def _cfg(**kw):
    base = dict(gamma=2, delta=2, beta=0.05, max_models=4)
    base.update(kw)
    return FedTransConfig(**base)


def _feed_flat_losses(tr, model, rounds=8):
    grad = {k: np.ones_like(v) for k, v in model.params().items()}
    for _ in range(rounds):
        tr.observe_round(model, 1.0, grad)


class TestTransformerGating:
    def test_no_transform_before_history(self, rng):
        m = mlp((6,), 3, rng, width=4)
        tr = ModelTransformer(_cfg(), max_capacity_macs=1e12)
        tr.observe_round(m, 1.0, {k: np.ones_like(v) for k, v in m.params().items()})
        assert not tr.should_transform(num_models=1)

    def test_transforms_on_flat_loss(self, rng):
        m = mlp((6,), 3, rng, width=4)
        tr = ModelTransformer(_cfg(), max_capacity_macs=1e12)
        _feed_flat_losses(tr, m)
        assert tr.should_transform(num_models=1)

    def test_no_transform_on_steep_loss(self, rng):
        m = mlp((6,), 3, rng, width=4)
        tr = ModelTransformer(_cfg(), max_capacity_macs=1e12)
        grad = {k: np.ones_like(v) for k, v in m.params().items()}
        for i in range(8):
            tr.observe_round(m, 10.0 - i, grad)
        assert not tr.should_transform(num_models=1)

    def test_max_models_cap(self, rng):
        m = mlp((6,), 3, rng, width=4)
        tr = ModelTransformer(_cfg(max_models=2), max_capacity_macs=1e12)
        _feed_flat_losses(tr, m)
        assert tr.should_transform(num_models=1)
        assert not tr.should_transform(num_models=2)

    def test_requires_activeness(self, rng):
        m = mlp((6,), 3, rng, width=4)
        tr = ModelTransformer(_cfg(), max_capacity_macs=1e12)
        for _ in range(8):
            tr.observe_round(m, 1.0, None)  # losses but no gradients
        assert not tr.should_transform(num_models=1)

    def test_min_rounds_cooldown(self, rng):
        m = mlp((6,), 3, rng, width=4)
        tr = ModelTransformer(
            _cfg(min_rounds_between_transforms=100), max_capacity_macs=1e12
        )
        _feed_flat_losses(tr, m)
        child, _ = tr.transform(m, rng, round_idx=0)
        assert child is not None
        _feed_flat_losses(tr, child)
        assert not tr.should_transform(num_models=2)


class TestTransformerTransform:
    def test_child_preserves_function(self, rng):
        m = mlp((6,), 3, rng, width=4)
        tr = ModelTransformer(_cfg(widen_noise=0.0), max_capacity_macs=1e12)
        _feed_flat_losses(tr, m)
        child, events = tr.transform(m, rng, round_idx=7)
        assert child is not None
        x = rng.normal(size=(5, 6))
        assert np.allclose(m.predict(x), child.predict(x), atol=1e-8)
        assert child.parent_id == m.model_id
        assert child.birth_round == 7
        assert events

    def test_default_noise_breaks_symmetry_but_stays_close(self, rng):
        """With the default widen noise, the child is near- (not exactly)
        function-preserving, and its duplicated channels are NOT identical —
        the Net2Net symmetry-breaking that lets capacity actually grow."""
        m = mlp((6,), 3, rng, width=4)
        tr = ModelTransformer(_cfg(), max_capacity_macs=1e12)
        _feed_flat_losses(tr, m)
        child, _ = tr.transform(m, rng, round_idx=0)
        assert child is not None
        x = rng.normal(size=(20, 6))
        base, grown = m.predict(x), child.predict(x)
        # near-preserving: predictions barely move
        assert np.abs(base - grown).max() < 0.5
        # symmetry broken: some widened cell has non-duplicate columns
        widened = [c for c in child.cells if c.widen_count > 0]
        assert widened
        cell = widened[0]
        w = cell.params()["fc.w"]
        old = w.shape[1] // 2
        dup_equal = [
            np.allclose(w[:, j], w[:, j - old]) for j in range(old, w.shape[1])
        ]
        assert not all(dup_equal)

    def test_capacity_suppression(self, rng):
        m = mlp((6,), 3, rng, width=4)
        tr = ModelTransformer(_cfg(), max_capacity_macs=m.macs() + 1)
        _feed_flat_losses(tr, m)
        child, events = tr.transform(m, rng, round_idx=0)
        assert child is None
        assert tr.exhausted
        assert any("suppressed" in e for e in events)
        assert not tr.should_transform(num_models=1)

    def test_no_warmup_reinitializes(self, rng):
        m = mlp((6,), 3, rng, width=4)
        tr = ModelTransformer(_cfg(warmup=False), max_capacity_macs=1e12)
        _feed_flat_losses(tr, m)
        child, events = tr.transform(m, rng, round_idx=0)
        x = rng.normal(size=(5, 6))
        assert not np.allclose(m.predict(x), child.predict(x), atol=1e-3)
        assert any("re-initialized" in e for e in events)

    def test_random_selection_mode(self, rng):
        m = mlp((6,), 3, rng, width=4)
        tr = ModelTransformer(
            _cfg(gradient_cell_selection=False), max_capacity_macs=1e12
        )
        _feed_flat_losses(tr, m)
        child, events = tr.transform(m, rng, round_idx=0)
        assert child is not None
        assert child.macs() > m.macs()

    def test_doc_resets_after_transform(self, rng):
        m = mlp((6,), 3, rng, width=4)
        tr = ModelTransformer(_cfg(), max_capacity_macs=1e12)
        _feed_flat_losses(tr, m)
        child, _ = tr.transform(m, rng, round_idx=0)
        assert not tr.doc.ready()
        assert not tr.activeness.ready()
        assert tr.transforms_done == 1


def _workload(num_clients=16, seed=0):
    cfg = SyntheticTaskConfig(
        num_classes=5,
        input_shape=(10,),
        latent_dim=8,
        teacher_width=24,
        class_sep=1.8,
        feature_noise=0.4,
        seed=seed,
    )
    ds = build_federated_dataset(cfg, num_clients, mean_samples=25, seed=seed)
    rng = np.random.default_rng(seed)
    init = mlp(ds.input_shape, ds.num_classes, rng, width=8)
    traces = calibrate_capacities(
        sample_device_traces(num_clients, rng), init.macs(), init.macs() * 16
    )
    clients = [FLClient(c.client_id, c, t) for c, t in zip(ds.clients, traces)]
    return ds, init, clients


class TestFedTransRuntime:
    def _run(self, rounds=40, cfg=None, seed=0):
        ds, init, clients = _workload(seed=seed)
        strategy = FedTransStrategy(
            init,
            cfg or _cfg(beta=0.08, gamma=2, delta=3),
            max_capacity_macs=max(c.capacity_macs for c in clients),
        )
        coord = Coordinator(
            strategy,
            clients,
            CoordinatorConfig(
                rounds=rounds,
                clients_per_round=6,
                trainer=LocalTrainerConfig(batch_size=8, local_steps=8, lr=0.15),
                eval_every=10,
                seed=seed,
            ),
        )
        return strategy, coord.run()

    def test_spawns_models(self):
        strategy, log = self._run()
        assert len(strategy.models()) > 1
        events = [e for r in log.rounds for e in r.events]
        assert any("spawned" in e for e in events)

    def test_initial_model_too_big_raises(self, rng):
        init = mlp((6,), 3, rng, width=8)
        with pytest.raises(ValueError, match="exceeds"):
            FedTransStrategy(init, _cfg(), max_capacity_macs=init.macs() - 1)

    def test_assignments_respect_capacity(self):
        strategy, log = self._run()
        models = strategy.models()
        # replay every round's assignment against participant capacities
        ds, init, clients = _workload()
        cap = {c.client_id: c.capacity_macs for c in clients}
        cheapest = min(m.macs() for m in models.values())
        for r in log.rounds:
            for cid, mids in r.assignments.items():
                for mid in mids:
                    assert models[mid].macs() <= max(cap[cid], cheapest)

    def test_eval_model_is_compatible(self):
        strategy, _ = self._run()
        ds, init, clients = _workload()
        models = strategy.models()
        cheapest = min(m.macs() for m in models.values())
        for c, mid in zip(clients, strategy.eval_models(clients)):
            assert models[mid].macs() <= max(c.capacity_macs, cheapest)

    def test_models_ordered_by_birth(self):
        strategy, _ = self._run()
        births = [m.birth_round for m in strategy.models().values()]
        assert births == sorted(births)

    def test_frontier_is_newest(self):
        strategy, _ = self._run()
        assert strategy.frontier.birth_round == max(
            m.birth_round for m in strategy.models().values()
        )

    def test_suite_summary_mentions_all_models(self):
        strategy, _ = self._run()
        s = strategy.suite_summary()
        for mid in strategy.models():
            assert mid in s

    def test_learns_well_above_chance(self):
        _, log = self._run(rounds=40)
        # 5 classes => 20% chance level; the run converges fast at this
        # micro-scale so we assert achieved quality, not monotonicity.
        assert log.best_eval().mean_accuracy > 0.5
        assert log.evals[-1].mean_accuracy > 0.45

    def test_aggregate_gradient_weighted_mean(self, rng):
        """The activeness input is the aggregator's FedAvg pseudo-gradient."""
        from repro.fl.types import ClientUpdate

        parent = mlp((6,), 3, rng, width=4)
        strategy = FedTransStrategy(
            parent, _cfg(soft_aggregation=False), max_capacity_macs=1e12
        )
        child = parent.clone(birth_round=1)
        strategy._models[child.model_id] = child
        strategy._birth_order.append(child.model_id)
        before = child.get_params()

        def up(cid, model, n, val):
            return ClientUpdate(
                client_id=cid,
                model_id=model.model_id,
                params={k: v - val for k, v in model.params().items()},
                state={},
                train_loss=1.0,
                num_samples=n,
                macs_spent=0,
                bytes_down=0,
                bytes_up=0,
                round_time=0,
            )

        seen = []
        strategy.transformer.observe_round = lambda *args: seen.append(args)
        strategy.aggregate(0, [up(0, child, 30, 1.0), up(1, child, 10, 5.0)], rng)
        # A round nobody trained the frontier feeds no gradient.
        strategy.aggregate(1, [up(2, parent, 10, 1.0)], rng)
        (frontier, _, grad), (_, _, absent) = seen
        assert frontier is child and absent is None
        assert list(grad) == list(before)
        for k, g in grad.items():
            assert np.allclose(g, 0.75 * 1.0 + 0.25 * 5.0)
            # Taken before set_params, and not a view of the live weights.
            assert np.allclose(child.params()[k], before[k] - g)
            assert not np.shares_memory(g, child.params()[k])
