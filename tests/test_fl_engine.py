"""FL engine: local trainer, selection, coordinator, metrics."""

import numpy as np
import pytest

from repro.baselines import fedavg
from repro.data import build_federated_dataset, SyntheticTaskConfig
from repro.device import DeviceTrace
from repro.fl import (
    Coordinator,
    CoordinatorConfig,
    FLClient,
    LocalTrainer,
    LocalTrainerConfig,
    summarize,
)
from repro.fl.metrics import iqr
from repro.fl.scheduling.selectors import uniform_choice
from repro.fl.scheduling import FleetStore
from repro.nn import mlp


def _dataset(num_clients=10, classes=4, features=8, seed=0):
    cfg = SyntheticTaskConfig(
        num_classes=classes,
        input_shape=(features,),
        latent_dim=6,
        teacher_width=12,
        class_sep=3.0,
        seed=seed,
    )
    return build_federated_dataset(cfg, num_clients, mean_samples=25, seed=seed)


def _clients(ds, capacity=1e12):
    return [
        FLClient(c.client_id, c, DeviceTrace(c.client_id, 1e9, 1e6, capacity))
        for c in ds.clients
    ]


class TestLocalTrainerConfig:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("batch_size", 0),
            ("batch_size", -1),
            ("local_steps", 0),
            ("local_steps", -3),
            ("lr", 0.0),
            ("lr", -0.1),
            ("lr", float("nan")),
            ("lr", float("inf")),
            ("momentum", -0.1),
            ("momentum", 1.0),
            ("momentum", float("nan")),
            ("weight_decay", -1e-4),
            ("weight_decay", float("nan")),
            ("weight_decay", float("inf")),
            ("prox_mu", -0.1),
            ("prox_mu", float("nan")),
            ("prox_mu", float("inf")),
            ("clip_norm", -1.0),
            ("clip_norm", float("nan")),
            ("clip_norm", float("inf")),
        ],
    )
    def test_an_invalid_field_is_refused(self, field, value):
        """Each of these used to train: zero steps or a zero batch returned a
        NaN loss, a NaN lr non-finite params, a NaN clip_norm no clip."""
        with pytest.raises(ValueError, match=field):
            LocalTrainerConfig(**{field: value})

    @pytest.mark.parametrize(
        "over",
        [
            {},
            {"batch_size": 1, "local_steps": 1},
            {"momentum": 0.0},
            {"momentum": 0.99},
            {"weight_decay": 0.0, "prox_mu": 0.0, "clip_norm": 0.0},
            {"lr": 1e-9, "clip_norm": 1e6},
        ],
    )
    def test_the_boundaries_are_accepted(self, over):
        assert LocalTrainerConfig(**over) == LocalTrainerConfig(**over)


class TestConvergenceDelta:
    @pytest.mark.parametrize("delta", [float("nan"), -1.0, float("inf"), -float("inf")])
    def test_a_negative_or_non_finite_delta_is_refused(self, delta):
        """``gain <= nan`` is False for every gain: a NaN delta used to turn
        the paper's stop rule off without a word."""
        with pytest.raises(ValueError, match="convergence_delta"):
            CoordinatorConfig(convergence_delta=delta)

    @pytest.mark.parametrize("delta", [0.0, 0.01, 1.0])
    def test_the_repository_values_are_accepted(self, delta):
        assert CoordinatorConfig(convergence_delta=delta).convergence_delta == delta


class TestLocalTrainer:
    def test_update_fields(self, rng):
        ds = _dataset()
        clients = _clients(ds)
        model = mlp(ds.input_shape, ds.num_classes, rng, width=8)
        cfg = LocalTrainerConfig(batch_size=5, local_steps=4, lr=0.1)
        u = LocalTrainer(cfg).train(model.clone(keep_id=True), clients[0], rng)
        assert u.client_id == 0
        assert u.model_id == model.model_id
        assert u.num_samples == clients[0].data.num_train
        assert u.bytes_down == u.bytes_up == model.nbytes()
        assert u.macs_spent == model.train_macs_per_sample() * 4 * 5
        assert u.round_time > 0
        assert set(u.params) == set(model.params())
        assert "grad" not in vars(u)

    def test_training_mutates_weights(self, rng):
        ds = _dataset()
        clients = _clients(ds)
        model = mlp(ds.input_shape, ds.num_classes, rng, width=8)
        before = model.get_params()
        work = model.clone(keep_id=True)
        LocalTrainer(LocalTrainerConfig(local_steps=5)).train(work, clients[0], rng)
        moved = any(not np.allclose(work.params()[k], before[k]) for k in before)
        assert moved
        # server copy untouched
        assert all(np.allclose(model.params()[k], before[k]) for k in before)

    def test_empty_client_raises(self, rng):
        ds = _dataset()
        client = _clients(ds)[0]
        client.data.x_train = client.data.x_train[:0]
        client.data.y_train = client.data.y_train[:0]
        model = mlp(ds.input_shape, ds.num_classes, rng, width=8)
        with pytest.raises(ValueError, match="no training data"):
            LocalTrainer(LocalTrainerConfig()).train(model, client, rng)

    def test_prox_term_pulls_toward_global(self, rng):
        """With a strong (but stable, lr*mu < 1) proximal term, local weights
        stay closer to the global ones."""
        ds = _dataset()
        client = _clients(ds)[0]
        model = mlp(ds.input_shape, ds.num_classes, rng, width=8)
        base = model.get_params()

        free = model.clone(keep_id=True)
        LocalTrainer(LocalTrainerConfig(local_steps=10, lr=0.1)).train(free, client, np.random.default_rng(1))
        anchored = model.clone(keep_id=True)
        LocalTrainer(
            LocalTrainerConfig(local_steps=10, lr=0.1, prox_mu=5.0)
        ).train(anchored, client, np.random.default_rng(1))

        def drift(m):
            return sum(
                float(np.abs(m.params()[k] - base[k]).sum()) for k in base
            )

        assert drift(anchored) < drift(free)

    def test_mean_loss_reported(self, rng):
        ds = _dataset()
        client = _clients(ds)[0]
        model = mlp(ds.input_shape, ds.num_classes, rng, width=8)
        u = LocalTrainer(LocalTrainerConfig(local_steps=3)).train(
            model.clone(keep_id=True), client, rng
        )
        assert u.train_loss > 0


class TestSelection:
    def test_without_replacement(self, rng):
        ds = _dataset(num_clients=20)
        clients = _clients(ds)
        chosen = uniform_choice(FleetStore(clients).view(), 10, rng)
        ids = [c.client_id for c in chosen]
        assert len(set(ids)) == 10

    def test_caps_at_population(self, rng):
        ds = _dataset(num_clients=5)
        assert len(uniform_choice(FleetStore(_clients(ds)).view(), 50, rng)) == 5

    def test_empty_raises(self, rng):
        with pytest.raises(ValueError):
            uniform_choice([], 3, rng)

    def test_below_one_raises(self, rng):
        """Regression: num < 1 used to return an empty round silently."""
        ds = _dataset(num_clients=5)
        for bad in (0, -2):
            with pytest.raises(ValueError, match="must be >= 1"):
                uniform_choice(_clients(ds), bad, rng)

    def test_deprecated_shim_removed(self):
        """The ``repro.fl.selection`` shim (replaced by ``repro.fl.scheduling``)
        stays gone: importing it fails, and ``test_analysis.py``'s
        ``test_every_name_has_a_caller`` keeps unused names from regrowing."""
        with pytest.raises(ImportError):
            from repro.fl.selection import select_uniform  # noqa: F401


class TestCoordinator:
    def _run(self, rounds=20, **cfg_over):
        ds = _dataset(num_clients=12)
        clients = _clients(ds)
        rng = np.random.default_rng(0)
        model = mlp(ds.input_shape, ds.num_classes, rng, width=16)
        strategy = fedavg(model)
        cfg = dict(
            rounds=rounds,
            clients_per_round=6,
            trainer=LocalTrainerConfig(batch_size=8, local_steps=5, lr=0.2),
            eval_every=5,
            seed=0,
        )
        cfg.update(cfg_over)
        coord = Coordinator(strategy, clients, CoordinatorConfig(**cfg))
        return coord.run()

    def test_accuracy_improves(self):
        log = self._run(rounds=25)
        # ">=" because the easy toy task can saturate before the first eval.
        assert log.evals[-1].mean_accuracy >= log.evals[0].mean_accuracy
        assert log.evals[-1].mean_accuracy > 0.5

    def test_cost_accounting_sums(self):
        log = self._run(rounds=10)
        assert log.total_macs == pytest.approx(sum(r.macs for r in log.rounds))
        assert log.total_bytes_down == sum(r.bytes_down for r in log.rounds)

    def test_round_records_complete(self):
        log = self._run(rounds=6)
        assert len(log.rounds) == 6
        for r in log.rounds:
            assert len(r.participants) == 6
            assert set(r.assignments) == set(r.participants)
            assert r.round_time > 0

    def test_final_eval_exists(self):
        log = self._run(rounds=7)  # not a multiple of eval_every
        assert log.evals[-1].round_idx == log.stopped_round

    def test_eval_cumulative_macs_nondecreasing(self):
        log = self._run(rounds=15)
        xs = [e.cumulative_macs for e in log.evals]
        assert all(b >= a for a, b in zip(xs, xs[1:]))

    def test_convergence_stop(self):
        log = self._run(
            rounds=200,
            eval_every=2,
            convergence_patience=3,
            convergence_delta=1.0,  # impossible improvement => stops early
        )
        assert log.stop_reason == "converged"
        assert len(log.rounds) < 200

    def test_no_clients_raises(self):
        with pytest.raises(ValueError):
            Coordinator(fedavg(mlp((8,), 4, np.random.default_rng(0))), [], CoordinatorConfig())

    def test_deterministic_given_seed(self):
        a = self._run(rounds=8)
        b = self._run(rounds=8)
        assert a.final_accuracy() == b.final_accuracy()
        assert a.total_macs == b.total_macs


class TestMetrics:
    def test_iqr(self):
        assert iqr(np.array([0.0, 1.0, 2.0, 3.0, 4.0])) == pytest.approx(2.0)

    def test_summarize_fields(self):
        log = TestCoordinator()._run(rounds=10)
        s = summarize(log)
        assert s.strategy == "fedavg"
        assert 0 <= s.accuracy <= 1
        assert s.cost_pmacs == pytest.approx(log.total_macs / 1e15)
        assert s.network_mb == pytest.approx(
            (log.total_bytes_down + log.total_bytes_up) / 1e6
        )
        assert s.rounds_run == 10

    def test_training_log_helpers(self):
        log = TestCoordinator()._run(rounds=10)
        xs, ys = log.cost_accuracy_curve()
        assert len(xs) == len(ys) == len(log.evals)
        assert log.best_eval().mean_accuracy == max(e.mean_accuracy for e in log.evals)
        assert log.accuracy_iqr() >= 0
