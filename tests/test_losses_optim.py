"""Losses and optimizers."""

import numpy as np
import pytest

from repro.nn.losses import accuracy, one_hot, softmax_cross_entropy
from repro.nn.optim import SGD, Yogi


class TestCrossEntropy:
    def test_matches_manual(self, rng):
        logits = rng.normal(size=(4, 5))
        labels = np.array([0, 2, 4, 1])
        loss, _ = softmax_cross_entropy(logits, one_hot(labels, 5, logits.dtype))
        p = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        manual = -np.log(p[np.arange(4), labels]).mean()
        assert abs(loss - manual) < 1e-10

    def test_grad_rows_sum_to_zero(self, rng):
        logits = rng.normal(size=(3, 6))
        _, d = softmax_cross_entropy(logits, one_hot(np.array([1, 2, 3]), 6, logits.dtype))
        assert np.allclose(d.sum(axis=1), 0.0, atol=1e-12)

    def test_grad_numeric(self, rng):
        logits = rng.normal(size=(2, 4))
        target = one_hot(np.array([0, 3]), 4, logits.dtype)
        _, d = softmax_cross_entropy(logits, target)
        eps = 1e-6
        for idx in [(0, 0), (1, 2), (1, 3)]:
            l2 = logits.copy()
            l2[idx] += eps
            up, _ = softmax_cross_entropy(l2, target)
            l2[idx] -= 2 * eps
            down, _ = softmax_cross_entropy(l2, target)
            assert abs((up - down) / (2 * eps) - d[idx]) < 1e-8

    def test_perfect_prediction_low_loss(self):
        logits = np.array([[100.0, 0.0], [0.0, 100.0]])
        loss, _ = softmax_cross_entropy(logits, one_hot(np.array([0, 1]), 2, logits.dtype))
        assert loss < 1e-8

    def test_one_hot_rows_are_exact(self):
        labels = np.array([[2, 0], [1, 2]])
        target = one_hot(labels, 3, np.dtype("float32"))
        assert target.shape == (2, 2, 3) and target.dtype == np.float32
        assert np.array_equal(target.argmax(axis=-1), labels)
        assert set(target.ravel().tolist()) == {0.0, 1.0} and target.sum() == labels.size
        assert not np.signbit(target).any()  # +0.0, as a zero-filled buffer held

    def test_shape_mismatch_raises(self, rng):
        with pytest.raises(ValueError, match="target shape"):
            softmax_cross_entropy(rng.normal(size=(3, 4)), one_hot(np.array([0, 1]), 4, np.float64))

    def test_out_of_range_label_raises(self, rng):
        for labels in (np.array([0, 3]), np.array([-1, 0])):
            with pytest.raises(ValueError, match="out of range"):
                one_hot(labels, 3, np.float64)


class TestAccuracy:
    def test_basic(self):
        logits = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        assert accuracy(logits, np.array([0, 1, 1])) == pytest.approx(2 / 3)

    def test_empty(self):
        assert accuracy(np.zeros((0, 3)), np.zeros(0, dtype=int)) == 0.0


class TestSGD:
    def test_vanilla_step(self, rng):
        p = {"w": np.ones(3)}
        g = {"w": np.full(3, 2.0)}
        SGD(lr=0.1).step(p, g)
        assert np.allclose(p["w"], 1.0 - 0.2)

    def test_weight_decay(self):
        p = {"w": np.ones(2)}
        g = {"w": np.zeros(2)}
        SGD(lr=0.1, weight_decay=0.5).step(p, g)
        assert np.allclose(p["w"], 1.0 - 0.1 * 0.5)

    def test_momentum_accumulates(self):
        p = {"w": np.zeros(1)}
        opt = SGD(lr=1.0, momentum=0.9)
        g = {"w": np.ones(1)}
        opt.step(p, g)  # v=1, w=-1
        opt.step(p, g)  # v=1.9, w=-2.9
        assert np.allclose(p["w"], [-2.9])

    def test_momentum_reset_on_shape_change(self):
        opt = SGD(lr=1.0, momentum=0.9)
        opt.step({"w": np.zeros(2)}, {"w": np.ones(2)})
        # widened parameter: stale velocity must not crash or be reused
        p = {"w": np.zeros(4)}
        opt.step(p, {"w": np.ones(4)})
        assert np.allclose(p["w"], -1.0)

    def test_reset(self):
        opt = SGD(lr=1.0, momentum=0.9)
        opt.step({"w": np.zeros(2)}, {"w": np.ones(2)})
        opt.reset()
        assert not opt._velocity

    def test_bad_lr(self):
        with pytest.raises(ValueError):
            SGD(lr=0.0)

    def test_reduces_quadratic(self, rng):
        w = {"w": rng.normal(size=5)}
        opt = SGD(lr=0.1, momentum=0.9)
        for _ in range(200):
            opt.step(w, {"w": 2 * w["w"]})  # d/dw ||w||^2
        assert np.linalg.norm(w["w"]) < 1e-3


class TestServerOpts:
    def test_yogi_moves_toward_minimum(self, rng):
        w = {"w": rng.normal(size=4) + 5.0}
        opt = Yogi(lr=0.5)
        for _ in range(300):
            w = opt.step(w, {"w": w["w"]})  # gradient of ||w||^2/2
        assert np.linalg.norm(w["w"]) < 0.5

    def test_yogi_state_resets_on_shape_change(self, rng):
        opt = Yogi()
        w = {"w": np.ones(2)}
        opt.step(w, {"w": np.ones(2)})
        m, v = opt.snapshot()
        assert m is not None
        out = opt.step({"w": np.ones(5)}, {"w": np.ones(5)})
        assert out["w"].shape == (5,)

    def test_yogi_snapshot_copies(self):
        opt = Yogi()
        opt.step({"w": np.ones(2)}, {"w": np.ones(2)})
        m, _ = opt.snapshot()
        m["w"][0] = 123.0
        m2, _ = opt.snapshot()
        assert m2["w"][0] != 123.0
