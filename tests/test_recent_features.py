"""Tests for gradient clipping, symmetry-breaking noise, complexity mixing,
and the per-model server-optimizer hook."""

import numpy as np
import pytest

from repro.core import FedTransConfig, ModelAggregator, SimilarityCache
from repro.data import SyntheticTaskConfig, build_federated_dataset
from repro.data.synthetic import SyntheticTask
from repro.device import DeviceTrace
from repro.fl import FLClient, LocalTrainer, LocalTrainerConfig
from repro.fl.types import ClientUpdate
from repro.nn import mlp
from repro.nn.optim import SGD, Yogi


class TestGradientClipping:
    def _client(self, rng):
        cfg = SyntheticTaskConfig(num_classes=3, input_shape=(6,), latent_dim=4,
                                  teacher_width=8, seed=0)
        ds = build_federated_dataset(cfg, 2, mean_samples=20, seed=0)
        return FLClient(0, ds.clients[0], DeviceTrace(0, 1e9, 1e6, 1e12))

    @staticmethod
    def _step_grad_norm(model, client, rng, clip_norm):
        """Norm of the one SGD step's gradient, read off the parameter delta
        (``w - w' = lr * g`` at ``lr = 1``: an update carries no gradient)."""
        cfg = LocalTrainerConfig(local_steps=1, lr=1.0, clip_norm=clip_norm)
        u = LocalTrainer(cfg).train(model.clone(keep_id=True), client, rng)
        before = model.params()
        return np.sqrt(sum(float(((before[k] - v) ** 2).sum()) for k, v in u.params.items()))

    def test_clipping_bounds_the_step_gradient(self, rng):
        client = self._client(rng)
        model = mlp((6,), 3, rng, width=8)
        # blow up the weights so raw gradients are enormous
        for p in model.params().values():
            p *= 50.0
        assert self._step_grad_norm(model, client, rng, clip_norm=1.0) <= 1.0 + 1e-9

    def test_clipping_disabled(self, rng):
        client = self._client(rng)
        model = mlp((6,), 3, rng, width=8)
        for p in model.params().values():
            p *= 50.0
        # unclipped explosion preserved
        assert self._step_grad_norm(model, client, rng, clip_norm=0.0) > 1.0

    def test_small_grads_untouched(self, rng):
        client = self._client(rng)
        model = mlp((6,), 3, rng, width=8)
        u_clip = LocalTrainer(LocalTrainerConfig(local_steps=3, clip_norm=1e6)).train(
            model.clone(keep_id=True), client, np.random.default_rng(5)
        )
        u_free = LocalTrainer(LocalTrainerConfig(local_steps=3, clip_norm=0.0)).train(
            model.clone(keep_id=True), client, np.random.default_rng(5)
        )
        for k in u_clip.params:
            assert np.array_equal(u_clip.params[k], u_free.params[k])


class TestWidenNoise:
    def test_zero_noise_exact(self, rng):
        m = mlp((6,), 3, rng, width=4)
        x = rng.normal(size=(8, 6))
        before = m.predict(x)
        m.widen_cell(m.transformable_cells()[0].cell_id, 2.0, rng, noise=0.0)
        assert np.allclose(before, m.predict(x), atol=1e-10)

    def test_noise_breaks_duplicate_equality_both_sides(self, rng):
        m = mlp((6,), 3, rng, width=4)
        cell = m.transformable_cells()[0]
        idx = m.cell_index(cell.cell_id)
        consumer = m.cells[idx + 1]
        m.widen_cell(cell.cell_id, 2.0, rng, noise=0.1)
        w_in = cell.params()["fc.w"]  # incoming weights of widened units
        w_out = consumer.params()["fc.w"] if "fc.w" in consumer.params() else consumer.params()["head.w"]
        old = 4
        in_dup_equal = all(
            np.allclose(w_in[:, j], w_in[:, j - old]) for j in range(old, w_in.shape[1])
        )
        out_dup_equal = all(
            np.allclose(w_out[j], w_out[j - old]) for j in range(old, w_out.shape[0])
        )
        assert not in_dup_equal
        assert not out_dup_equal

    def test_noise_preserves_approximately(self, rng):
        m = mlp((6,), 3, rng, width=8)
        x = rng.normal(size=(16, 6))
        before = m.predict(x)
        m.widen_cell(m.transformable_cells()[0].cell_id, 2.0, rng, noise=0.05)
        drift = np.abs(before - m.predict(x)).max()
        assert 0.0 < drift < 1.0

    def test_duplicates_diverge_under_training(self, rng):
        """The point of the noise: duplicated units must separate when
        trained (they never would with exact duplication)."""
        m = mlp((6,), 3, rng, width=4)
        cell = m.transformable_cells()[0]
        m.widen_cell(cell.cell_id, 2.0, rng, noise=0.05)
        x = rng.normal(size=(64, 6))
        y = (x[:, 0] > 0).astype(int) + (x[:, 1] > 0).astype(int)
        opt = SGD(0.2)
        for _ in range(60):
            m.zero_grad()
            m.loss_and_grad(x, y)
            opt.step(m.params(), m.grads())
        w = cell.params()["fc.w"]
        sep = max(
            float(np.abs(w[:, j] - w[:, j - 4]).max()) for j in range(4, w.shape[1])
        )
        assert sep > 0.05


class TestComplexityMix:
    def _task(self, mix):
        return SyntheticTask(
            SyntheticTaskConfig(
                num_classes=4, input_shape=(10,), latent_dim=6, teacher_width=12,
                complexity_mix=mix, seed=0,
            )
        )

    def test_zero_mix_ignores_complexity(self):
        task = self._task(0.0)
        counts = np.array([3, 3, 3, 3])
        x1, _ = task.sample(counts, np.random.default_rng(1), complexity=0.0)
        x2, _ = task.sample(counts, np.random.default_rng(1), complexity=1.0)
        assert np.allclose(x1, x2)

    def test_full_mix_differs_by_complexity(self):
        task = self._task(1.0)
        counts = np.array([3, 3, 3, 3])
        x1, _ = task.sample(counts, np.random.default_rng(1), complexity=0.0)
        x2, _ = task.sample(counts, np.random.default_rng(1), complexity=1.0)
        assert not np.allclose(x1, x2)

    def test_invalid_complexity_raises(self):
        task = self._task(1.0)
        with pytest.raises(ValueError, match="complexity"):
            task.sample(np.array([1, 1, 1, 1]), np.random.default_rng(0), complexity=1.5)

    def test_builder_records_complexity(self):
        cfg = SyntheticTaskConfig(num_classes=3, input_shape=(6,), latent_dim=4,
                                  teacher_width=8, complexity_mix=1.0, seed=0)
        ds = build_federated_dataset(cfg, 10, mean_samples=15, seed=0)
        comps = [c.complexity for c in ds.clients]
        assert all(0.0 <= c <= 1.0 for c in comps)
        assert len(set(comps)) > 1  # heterogeneous levels


class TestPerModelServerOpt:
    def test_yogi_factory_applied_per_model(self, rng):
        m = mlp((6,), 3, rng, width=4)
        agg = ModelAggregator(
            FedTransConfig(soft_aggregation=False),
            SimilarityCache(),
            server_opt_factory=lambda: Yogi(lr=0.05),
        )
        before = m.get_params()
        target = {k: v + 1.0 for k, v in before.items()}
        u = ClientUpdate(
            client_id=0, model_id=m.model_id, params=target, state={}, grad={},
            train_loss=1.0, num_samples=10, macs_spent=0, bytes_down=0,
            bytes_up=0, round_time=0,
        )
        agg.aggregate({m.model_id: m}, [m.model_id], [u], round_idx=0)
        k = next(iter(before))
        moved = m.params()[k] - before[k]
        assert np.all(moved > 0)  # stepped toward the higher average
        assert not np.allclose(m.params()[k], target[k])  # but not FedAvg'd
        assert m.model_id in agg._server_opts
