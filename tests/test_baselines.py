"""Baselines: subnet machinery, HeteroFL, SplitMix, FLuID, single-model, cloud."""

import dataclasses

import numpy as np
import pytest

from repro.baselines import (
    FLuIDStrategy,
    HeteroFLStrategy,
    SplitMixStrategy,
    fedavg,
    fedprox_trainer_config,
    fedyogi,
    train_centralized,
)
from repro.baselines.subnet import (
    build_subnet,
    param_index_map,
    ratio_spec,
    scatter_average,
)
from repro.data import SyntheticTaskConfig, build_federated_dataset
from repro.device import DeviceTrace
from repro.fl import (
    Coordinator,
    CoordinatorConfig,
    FLClient,
    LocalTrainerConfig,
    LocalTrainer,
)
from repro.nn import mlp, small_cnn, small_resnet
from repro.nn.cells import set_cell_id_counter
from repro.nn.model import set_model_id_counter


def _global_model(rng, width=8):
    return mlp((6,), 3, rng, width=width)


class TestRatioSpec:
    def test_full_ratio_empty_spec(self, rng):
        spec = ratio_spec(_global_model(rng), 1.0)
        assert spec.is_full()

    def test_half_ratio_counts(self, rng):
        g = _global_model(rng, width=8)
        spec = ratio_spec(g, 0.5)
        for cell in g.cells[:-1]:  # classifier has no out role
            assert len(spec.keep_out[cell.cell_id]) == 4

    def test_leading_indices_default(self, rng):
        spec = ratio_spec(_global_model(rng, width=8), 0.5)
        for idx in spec.keep_out.values():
            assert np.array_equal(idx, np.arange(len(idx)))

    def test_scored_indices_pick_top(self, rng):
        g = _global_model(rng, width=4)
        cell = g.cells[0]
        scores = {f"{cell.cell_id}/out": np.array([0.1, 5.0, 0.2, 4.0])}
        spec = ratio_spec(g, 0.5, scores=scores)
        assert np.array_equal(spec.keep_out[cell.cell_id], [1, 3])

    def test_min_one_channel(self, rng):
        spec = ratio_spec(_global_model(rng, width=4), 0.01)
        assert all(len(i) >= 1 for i in spec.keep_out.values())

    def test_bad_ratio(self, rng):
        with pytest.raises(ValueError):
            ratio_spec(_global_model(rng), 0.0)

    def test_score_length_mismatch_raises(self, rng):
        g = _global_model(rng, width=4)
        cell = g.cells[0]
        with pytest.raises(ValueError, match="score length"):
            ratio_spec(g, 0.5, scores={f"{cell.cell_id}/out": np.ones(3)})


class TestBuildSubnet:
    @pytest.mark.parametrize("maker", [
        lambda r: mlp((6,), 3, r, width=8),
        lambda r: small_cnn((1, 8, 8), 3, r, width=8),
        lambda r: small_resnet((1, 8, 8), 3, r, width=8),
    ])
    def test_macs_monotone_in_ratio(self, maker, rng):
        g = maker(rng)
        macs = [build_subnet(g, ratio_spec(g, r)).macs() for r in (0.25, 0.5, 1.0)]
        assert macs[0] < macs[1] < macs[2]

    def test_subnet_runs_forward(self, rng):
        g = small_cnn((1, 8, 8), 3, rng, width=8)
        sub = build_subnet(g, ratio_spec(g, 0.5))
        x = rng.normal(size=(2, 1, 8, 8))
        assert sub.predict(x).shape == (2, 3)

    def test_subnet_weights_are_crops(self, rng):
        g = _global_model(rng, width=8)
        sub = build_subnet(g, ratio_spec(g, 0.5))
        gp, sp = g.params(), sub.params()
        for k, v in sp.items():
            crop = gp[k][tuple(slice(0, s) for s in v.shape)]
            assert np.allclose(v, crop), k

    def test_cell_ids_shared(self, rng):
        g = _global_model(rng)
        sub = build_subnet(g, ratio_spec(g, 0.5))
        assert [c.cell_id for c in sub.cells] == [c.cell_id for c in g.cells]


class TestScatterAverage:
    def test_full_coverage_equals_fedavg(self, rng):
        g = _global_model(rng)
        spec = ratio_spec(g, 1.0)
        imaps = {id(spec): param_index_map(g, spec)}
        p1 = {k: np.zeros_like(v) for k, v in g.params().items()}
        p2 = {k: np.ones_like(v) for k, v in g.params().items()}
        out = scatter_average(g.params(), [(p1, spec, 3.0), (p2, spec, 1.0)], imaps)
        for v in out.values():
            assert np.allclose(v, 0.25)

    def test_uncovered_coordinates_keep_global(self, rng):
        g = _global_model(rng, width=8)
        spec = ratio_spec(g, 0.5)
        imaps = {id(spec): param_index_map(g, spec)}
        sub = build_subnet(g, spec)
        update = {k: np.full_like(v, 7.0) for k, v in sub.params().items()}
        before = g.get_params()
        out = scatter_average(g.params(), [(update, spec, 1.0)], imaps)
        cell = g.cells[0]
        key = f"{cell.cell_id}/fc.w"
        assert np.allclose(out[key][:, :4], 7.0)  # covered columns
        assert np.allclose(out[key][:, 4:], before[key][:, 4:])  # untouched

    def test_mixed_ratios_average_on_overlap(self, rng):
        g = _global_model(rng, width=8)
        s_full = ratio_spec(g, 1.0)
        s_half = ratio_spec(g, 0.5)
        imaps = {
            id(s_full): param_index_map(g, s_full),
            id(s_half): param_index_map(g, s_half),
        }
        full_up = {k: np.zeros_like(v) for k, v in g.params().items()}
        half_model = build_subnet(g, s_half)
        half_up = {k: np.full_like(v, 2.0) for k, v in half_model.params().items()}
        out = scatter_average(
            g.params(), [(full_up, s_full, 1.0), (half_up, s_half, 1.0)], imaps
        )
        cell = g.cells[0]
        key = f"{cell.cell_id}/fc.w"
        assert np.allclose(out[key][:, :4], 1.0)  # (0+2)/2 on the overlap
        assert np.allclose(out[key][:, 4:], 0.0)  # full-only region


def _fl_setup(num_clients=12, seed=0, span=16):
    cfg = SyntheticTaskConfig(
        num_classes=4,
        input_shape=(8,),
        latent_dim=6,
        teacher_width=16,
        class_sep=2.0,
        seed=seed,
    )
    ds = build_federated_dataset(cfg, num_clients, mean_samples=20, seed=seed)
    rng = np.random.default_rng(seed)
    g = mlp(ds.input_shape, ds.num_classes, rng, width=16)
    caps = np.geomspace(g.macs() / span, g.macs() * 1.2, num_clients)
    clients = [
        FLClient(c.client_id, c, DeviceTrace(c.client_id, 1e9, 1e6, float(cap)))
        for c, cap in zip(ds.clients, caps)
    ]
    return ds, g, clients


class TestHeteroFL:
    def test_assignment_largest_compatible(self, rng):
        ds, g, clients = _fl_setup()
        strat = HeteroFLStrategy(g)
        models = strat.models()
        assign = strat.assign(0, clients, rng)
        for c in clients:
            (mid,) = assign[c.client_id]
            cheapest = min(m.macs() for m in models.values())
            assert models[mid].macs() <= max(c.capacity_macs, cheapest)

    def test_weak_clients_get_smaller_models(self, rng):
        ds, g, clients = _fl_setup()
        strat = HeteroFLStrategy(g)
        models = strat.models()
        weakest = min(clients, key=lambda c: c.capacity_macs)
        strongest = max(clients, key=lambda c: c.capacity_macs)
        weak_id, strong_id = strat.eval_models([weakest, strongest])
        m_weak, m_strong = models[weak_id].macs(), models[strong_id].macs()
        assert m_weak < m_strong

    def test_aggregate_refreshes_submodels(self, rng):
        ds, g, clients = _fl_setup()
        strat = HeteroFLStrategy(g)
        small_id = min(strat.models(), key=lambda m: strat.models()[m].macs())
        trainer = LocalTrainer(LocalTrainerConfig(local_steps=3, lr=0.2))
        work = strat.models()[small_id].clone(keep_id=True)
        u = trainer.train(work, clients[0], rng)
        strat.aggregate(0, [u], rng)
        # submodels are views of the updated global: crops must match
        sub = strat.models()[small_id]
        gp = strat.global_model.params()
        for k, v in sub.params().items():
            # leading crop relation holds for leading-index specs
            assert np.allclose(v, gp[k][tuple(slice(0, s) for s in v.shape)])

    def test_run_improves(self):
        ds, g, clients = _fl_setup()
        strat = HeteroFLStrategy(g)
        log = Coordinator(
            strat,
            clients,
            CoordinatorConfig(
                rounds=20,
                clients_per_round=6,
                trainer=LocalTrainerConfig(local_steps=5, lr=0.2),
                eval_every=5,
                seed=0,
            ),
        ).run()
        assert log.evals[-1].mean_accuracy >= log.evals[0].mean_accuracy

    def test_bad_ratios(self, rng):
        with pytest.raises(ValueError):
            HeteroFLStrategy(_global_model(rng), ratios=(0.0, 1.0))


class TestSplitMix:
    def test_budget_count_scales_with_capacity(self, rng):
        ds, g, clients = _fl_setup()
        strat = SplitMixStrategy(g, k=4)
        weakest = min(clients, key=lambda c: c.capacity_macs)
        strongest = max(clients, key=lambda c: c.capacity_macs)
        assert strat.budget_count(weakest) <= strat.budget_count(strongest)
        assert 1 <= strat.budget_count(weakest)
        assert strat.budget_count(strongest) <= 4

    def test_assignment_lists(self, rng):
        ds, g, clients = _fl_setup()
        strat = SplitMixStrategy(g, k=4)
        assign = strat.assign(0, clients, rng)
        for c in clients:
            mids = assign[c.client_id]
            assert len(mids) == strat.budget_count(c)
            assert len(set(mids)) == len(mids)  # no duplicates

    def test_base_nets_independent_inits(self, rng):
        strat = SplitMixStrategy(_global_model(rng, width=8), k=2)
        m0, m1 = strat.models().values()
        k = next(iter(m0.params()))
        assert not np.allclose(m0.params()[k], m1.params()[k])

    def test_ensemble_logits_average(self, rng):
        ds, g, clients = _fl_setup()
        strat = SplitMixStrategy(g, k=4)
        strong = max(clients, key=lambda c: c.capacity_macs)
        x = strong.data.x_test[:4]
        m = strat.budget_count(strong)
        manual = np.mean(
            [strat.models()[mid].predict(x) for mid in strat._base_ids[:m]], axis=0
        )
        assert np.allclose(strat.client_logits(strong, x), manual)

    def test_run_smoke(self):
        ds, g, clients = _fl_setup()
        strat = SplitMixStrategy(g, k=3)
        log = Coordinator(
            strat,
            clients,
            CoordinatorConfig(
                rounds=10,
                clients_per_round=5,
                trainer=LocalTrainerConfig(local_steps=4, lr=0.2),
                eval_every=5,
                seed=0,
            ),
        ).run()
        assert log.total_macs > 0


class TestFLuID:
    def test_requires_full_ratio(self, rng):
        with pytest.raises(ValueError, match="full model"):
            FLuIDStrategy(_global_model(rng), ratios=(0.5, 0.25))

    def test_scores_update_after_round(self, rng):
        ds, g, clients = _fl_setup()
        strat = FLuIDStrategy(g)
        trainer = LocalTrainer(LocalTrainerConfig(local_steps=3, lr=0.2))
        full_id = "fluid_r1"
        work = strat.models()[full_id].clone(keep_id=True)
        u = trainer.train(work, clients[-1], rng)
        assert strat._scores == {}
        strat.aggregate(0, [u], rng)
        assert strat._scores  # movement recorded

    def test_subnets_track_moving_channels(self, rng):
        """After scores exist, kept channels are the highest-movement ones."""
        ds, g, clients = _fl_setup()
        strat = FLuIDStrategy(g, ratios=(1.0, 0.5))
        cell = g.cells[0]
        key = f"{cell.cell_id}/out"
        scores = np.arange(16, dtype=float)  # channel 15 moved most
        strat._scores = {key: scores}
        strat._rebuild_submodels()
        spec = strat._spec_of_model["fluid_r0.5"]
        assert 15 in spec.keep_out[cell.cell_id]
        assert 0 not in spec.keep_out[cell.cell_id]

    def test_run_improves(self):
        ds, g, clients = _fl_setup()
        strat = FLuIDStrategy(g)
        log = Coordinator(
            strat,
            clients,
            CoordinatorConfig(
                rounds=16,
                clients_per_round=6,
                trainer=LocalTrainerConfig(local_steps=5, lr=0.2),
                eval_every=4,
                seed=0,
            ),
        ).run()
        assert log.evals[-1].mean_accuracy >= log.evals[0].mean_accuracy


class TestSingleModel:
    def test_fedavg_sets_weighted_mean(self, rng):
        m = _global_model(rng)
        strat = fedavg(m)
        from repro.fl.types import ClientUpdate

        def up(cid, val, n):
            return ClientUpdate(
                client_id=cid,
                model_id=m.model_id,
                params={k: np.full_like(v, val) for k, v in m.params().items()},
                state={},
                grad={},
                train_loss=1.0,
                num_samples=n,
                macs_spent=0,
                bytes_down=0,
                bytes_up=0,
                round_time=0,
            )

        strat.aggregate(0, [up(0, 0.0, 30), up(1, 4.0, 10)], rng)
        for v in m.params().values():
            assert np.allclose(v, 1.0)

    def test_fedyogi_moves_toward_average(self, rng):
        m = _global_model(rng)
        before = m.get_params()
        strat = fedyogi(m, lr=0.05)
        from repro.fl.types import ClientUpdate

        target = {k: v + 1.0 for k, v in before.items()}
        u = ClientUpdate(
            client_id=0,
            model_id=m.model_id,
            params=target,
            state={},
            grad={},
            train_loss=1.0,
            num_samples=10,
            macs_spent=0,
            bytes_down=0,
            bytes_up=0,
            round_time=0,
        )
        strat.aggregate(0, [u], rng)
        k = next(iter(before))
        moved = m.params()[k] - before[k]
        assert np.all(moved > 0)  # stepped toward the (higher) average

    def test_prox_config(self):
        # Every field off its default: clip_norm=0.0 (clipping off) used to
        # come back as the default 10.0.
        base = LocalTrainerConfig(
            batch_size=4, local_steps=7, lr=0.3, momentum=0.5, weight_decay=1e-3,
            prox_mu=0.2, clip_norm=0.0,
        )
        prox = fedprox_trainer_config(base, mu=0.05)
        assert prox.prox_mu == 0.05
        for f in dataclasses.fields(LocalTrainerConfig):
            if f.name != "prox_mu":
                assert getattr(prox, f.name) == getattr(base, f.name) != f.default, f.name


def _restarted(seed=0):
    """``_fl_setup`` as a restarted process builds it: cell and model ids
    come from process-global counters, and a checkpoint names them."""
    set_cell_id_counter(0)
    set_model_id_counter(0)
    return _fl_setup(seed=seed)


class TestLadderPayloads:
    """HeteroFL / FLuID checkpoint the global model (+ FLuID's scores) and
    re-derive the ladder; the end-to-end witness is the baseline matrix in
    ``test_checkpoint_resume.py``."""

    @staticmethod
    def _trained(cls, rng):
        """One aggregation from the *smallest* rung, so most global
        coordinates are ones no update covered."""
        ds, g, clients = _restarted()
        strat = cls(g)
        small_id = min(strat.models(), key=lambda m: strat.models()[m].macs())
        trainer = LocalTrainer(LocalTrainerConfig(local_steps=3, lr=0.2))
        update = trainer.train(strat.models()[small_id].clone(keep_id=True), clients[0], rng)
        strat.aggregate(0, [update], rng)
        return strat

    @pytest.mark.parametrize("cls", [HeteroFLStrategy, FLuIDStrategy])
    def test_round_trip_restores_global_and_rederives_the_ladder(self, cls, rng):
        strat = self._trained(cls, rng)
        payload = strat.state_dict()
        extra = {"scores"} if cls is FLuIDStrategy else set()
        assert set(payload) == {"schema", "global_model"} | extra
        # A fresh construction: different global weights, neutral scores.
        _, g, _ = _restarted(seed=1)
        fresh = cls(g)
        fresh.load_state_dict(payload)
        for k, v in strat.global_model.params().items():
            np.testing.assert_array_equal(fresh.global_model.params()[k], v)
        assert list(fresh.models()) == list(strat.models())
        for mid, sub in strat.models().items():
            twin = fresh.models()[mid]
            assert twin.params().keys() == sub.params().keys()
            for k, v in sub.params().items():
                np.testing.assert_array_equal(twin.params()[k], v)

    def test_fluid_scores_travel(self, rng):
        strat = self._trained(FLuIDStrategy, rng)
        assert strat._scores  # the aggregation above produced movement
        _, g, _ = _restarted(seed=1)
        fresh = FLuIDStrategy(g)
        fresh.load_state_dict(strat.state_dict())
        assert fresh._scores.keys() == strat._scores.keys()
        for key, s in strat._scores.items():
            np.testing.assert_array_equal(fresh._scores[key], s)
            assert not np.shares_memory(fresh._scores[key], s)

    @pytest.mark.parametrize("field,mutate", [
        ("birth_round", lambda spec: spec.update(birth_round=spec["birth_round"] + 1)),
        ("format as a bool", lambda spec: spec.update(format=True)),
        ("a cell's widen_count", lambda spec: spec["cells"][0].update(widen_count=1)),
        ("a cell's lineage", lambda spec: spec["cells"][-1].update(origin="c9999")),
    ])
    def test_a_payload_of_another_spec_is_refused(self, rng, field, mutate):
        """The global model loads in place: a checkpoint whose spec is not
        the live model's is refused, naming the tag and ``spec``, and loads
        nothing."""
        payload = self._trained(HeteroFLStrategy, rng).state_dict()
        mutate(payload["global_model"]["spec"])
        _, g, _ = _restarted(seed=1)
        fresh = HeteroFLStrategy(g)
        before = {k: v.copy() for k, v in fresh.global_model.params().items()}
        with pytest.raises(ValueError, match=r"HeteroFLStrategy/v1 global_model: .*spec"):
            fresh.load_state_dict(payload)
        for k, v in fresh.global_model.params().items():
            np.testing.assert_array_equal(v, before[k])

    def test_payload_from_another_strategy_is_refused(self, rng):
        hetero = self._trained(HeteroFLStrategy, rng)
        _, g, _ = _fl_setup()
        with pytest.raises(ValueError, match="schema mismatch"):
            FLuIDStrategy(g).load_state_dict(hetero.state_dict())


class TestCloud:
    def test_centralized_improves_and_counts_macs(self, rng):
        ds, g, clients = _fl_setup()
        model = mlp(ds.input_shape, ds.num_classes, rng, width=16)
        init_acc = np.mean([model.evaluate(c.x_test, c.y_test)[1] for c in ds.clients])
        res = train_centralized(model, ds, epochs=8, batch_size=16, lr=0.2, seed=0)
        assert res.mean_client_accuracy > init_acc
        assert res.total_macs == model.train_macs_per_sample() * res.steps * 16
        assert 0 <= res.pooled_accuracy <= 1
