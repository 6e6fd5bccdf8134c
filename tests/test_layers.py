"""Per-layer unit tests: shapes, gradients, MACs accounting, edge cases."""

import numpy as np
import pytest

from repro.nn.gradcheck import max_relative_grad_error
from repro.nn.layers import (
    GELU,
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Dense,
    GlobalAvgPool2d,
    LayerNorm,
    MaxPool2d,
    ReLU,
)


def _layer_gradcheck(layer, x, rng, train=True):
    """Gradcheck one layer under a random linear loss."""
    target = rng.normal(size=layer.forward(x, train).shape)

    def loss_fn():
        return float((layer.forward(x, train) * target).sum())

    layer.zero_grad()
    out = layer.forward(x, train)
    layer.backward(target)
    if not layer.params():
        return 0.0
    return max_relative_grad_error(loss_fn, layer.params(), layer.grads(), rng)


class TestDense:
    def test_forward(self, rng):
        d = Dense(4, 3, rng)
        x = rng.normal(size=(5, 4))
        assert np.allclose(d.forward(x), x @ d.w + d.b)

    def test_gradcheck(self, rng):
        d = Dense(6, 4, rng)
        x = rng.normal(size=(3, 6))
        assert _layer_gradcheck(d, x, rng) < 1e-5

    def test_input_grad(self, rng):
        d = Dense(4, 3, rng)
        x = rng.normal(size=(2, 4))
        dout = rng.normal(size=(2, 3))
        d.forward(x)
        dx = d.backward(dout)
        assert np.allclose(dx, dout @ d.w.T)

    def test_macs(self, rng):
        d = Dense(10, 7, rng)
        m, shape = d.macs((10,))
        assert m == 70
        assert shape == (7,)

    def test_macs_wrong_shape_raises(self, rng):
        d = Dense(10, 7, rng)
        with pytest.raises(ValueError, match="expects 10"):
            d.macs((9,))

    def test_grad_accumulates(self, rng):
        d = Dense(3, 2, rng)
        x = rng.normal(size=(2, 3))
        dout = rng.normal(size=(2, 2))
        d.forward(x)
        d.backward(dout)
        g1 = d.g_w.copy()
        d.forward(x)
        d.backward(dout)
        assert np.allclose(d.g_w, 2 * g1)
        d.zero_grad()
        assert np.all(d.g_w == 0)


class TestConv2d:
    def test_gradcheck(self, rng):
        c = Conv2d(2, 3, 3, rng)
        x = rng.normal(size=(2, 2, 5, 5))
        assert _layer_gradcheck(c, x, rng) < 1e-5

    def test_gradcheck_strided_nobias(self, rng):
        c = Conv2d(2, 3, 3, rng, stride=2, bias=False)
        x = rng.normal(size=(2, 2, 6, 6))
        assert _layer_gradcheck(c, x, rng) < 1e-5

    def test_macs_formula(self, rng):
        c = Conv2d(3, 8, 3, rng)
        m, shape = c.macs((3, 8, 8))
        assert m == 8 * 8 * 8 * 3 * 9
        assert shape == (8, 8, 8)

    def test_channels_properties(self, rng):
        c = Conv2d(3, 8, 3, rng)
        assert c.in_channels == 3
        assert c.out_channels == 8

    def test_wrong_channels_raises(self, rng):
        c = Conv2d(3, 8, 3, rng)
        with pytest.raises(ValueError, match="expects 3"):
            c.macs((4, 8, 8))

    def test_input_grad_numeric(self, rng):
        c = Conv2d(2, 2, 3, rng)
        x = rng.normal(size=(1, 2, 4, 4))
        dout_shape = c.forward(x).shape
        dout = rng.normal(size=dout_shape)
        c.forward(x)
        dx = c.backward(dout)
        eps = 1e-6
        for idx in [(0, 0, 0, 0), (0, 1, 2, 3), (0, 1, 3, 1)]:
            x2 = x.copy()
            x2[idx] += eps
            up = (c.forward(x2) * dout).sum()
            x2[idx] -= 2 * eps
            down = (c.forward(x2) * dout).sum()
            assert abs((up - down) / (2 * eps) - dx[idx]) < 1e-5


class TestBatchNorm2d:
    def test_train_normalizes(self, rng):
        bn = BatchNorm2d(3)
        x = rng.normal(2.0, 3.0, size=(8, 3, 4, 4))
        y = bn.forward(x, train=True)
        assert np.allclose(y.mean(axis=(0, 2, 3)), 0.0, atol=1e-10)
        assert np.allclose(y.var(axis=(0, 2, 3)), 1.0, atol=1e-3)

    def test_running_stats_update(self, rng):
        bn = BatchNorm2d(2, momentum=0.5)
        x = rng.normal(1.0, 1.0, size=(16, 2, 4, 4))
        bn.forward(x, train=True)
        assert not np.allclose(bn.running_mean, 0.0)

    def test_eval_uses_running_stats(self, rng):
        bn = BatchNorm2d(2)
        bn.running_mean = np.array([1.0, -1.0])
        bn.running_var = np.array([4.0, 9.0])
        x = rng.normal(size=(4, 2, 3, 3))
        y = bn.forward(x, train=False)
        expected = (x - bn.running_mean[None, :, None, None]) / np.sqrt(
            bn.running_var[None, :, None, None] + bn.eps
        )
        assert np.allclose(y, expected)

    def test_gradcheck_train(self, rng):
        bn = BatchNorm2d(3)
        bn.gamma = rng.normal(1.0, 0.1, 3)
        bn.beta = rng.normal(0.0, 0.1, 3)
        x = rng.normal(size=(4, 3, 3, 3))
        assert _layer_gradcheck(bn, x, rng) < 1e-4

    def test_input_grad_numeric_train(self, rng):
        bn = BatchNorm2d(2)
        x = rng.normal(size=(3, 2, 2, 2))
        dout = rng.normal(size=x.shape)
        bn.forward(x, train=True)
        dx = bn.backward(dout)
        eps = 1e-6
        for idx in [(0, 0, 0, 0), (2, 1, 1, 1)]:
            x2 = x.copy()
            x2[idx] += eps
            up = (bn.forward(x2, train=True) * dout).sum()
            x2[idx] -= 2 * eps
            down = (bn.forward(x2, train=True) * dout).sum()
            assert abs((up - down) / (2 * eps) - dx[idx]) < 1e-5

    def test_state_keys(self):
        bn = BatchNorm2d(4)
        assert set(bn.state()) == {"running_mean", "running_var"}


class TestLayerNorm:
    def test_normalizes_rows(self, rng):
        ln = LayerNorm(8)
        x = rng.normal(3.0, 2.0, size=(5, 8))
        y = ln.forward(x)
        assert np.allclose(y.mean(axis=-1), 0.0, atol=1e-10)

    def test_gradcheck(self, rng):
        ln = LayerNorm(6)
        ln.gamma = rng.normal(1.0, 0.1, 6)
        x = rng.normal(size=(4, 6))
        assert _layer_gradcheck(ln, x, rng) < 1e-5

    def test_3d_input(self, rng):
        ln = LayerNorm(4)
        x = rng.normal(size=(2, 3, 4))
        y = ln.forward(x)
        assert y.shape == x.shape
        dx = ln.backward(np.ones_like(y))
        assert dx.shape == x.shape

    def test_input_grad_numeric(self, rng):
        ln = LayerNorm(5)
        x = rng.normal(size=(2, 5))
        dout = rng.normal(size=x.shape)
        ln.forward(x)
        dx = ln.backward(dout)
        eps = 1e-6
        for idx in [(0, 0), (1, 3)]:
            x2 = x.copy()
            x2[idx] += eps
            up = (ln.forward(x2) * dout).sum()
            x2[idx] -= 2 * eps
            down = (ln.forward(x2) * dout).sum()
            assert abs((up - down) / (2 * eps) - dx[idx]) < 1e-5


class TestPooling:
    def test_avg_pool_values(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        y = AvgPool2d(2).forward(x)
        assert np.allclose(y[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_max_pool_values(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        y = MaxPool2d(2).forward(x)
        assert np.allclose(y[0, 0], [[5, 7], [13, 15]])

    def test_avg_pool_backward(self, rng):
        p = AvgPool2d(2)
        x = rng.normal(size=(2, 3, 4, 4))
        y = p.forward(x)
        dx = p.backward(np.ones_like(y))
        assert np.allclose(dx, 0.25)

    def test_max_pool_backward_routes_to_argmax(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        p = MaxPool2d(2)
        y = p.forward(x)
        dx = p.backward(np.ones_like(y))
        assert dx.sum() == 4  # one unit per window
        assert dx[0, 0, 1, 1] == 1  # argmax of the first window (value 5)

    def test_indivisible_raises(self, rng):
        with pytest.raises(ValueError, match="divide"):
            MaxPool2d(2).forward(rng.normal(size=(1, 1, 5, 5)))

    def test_macs_output_shape(self):
        m, shape = AvgPool2d(2).macs((3, 8, 8))
        assert m == 0
        assert shape == (3, 4, 4)


class TestGlobalAvgPool:
    def test_forward(self, rng):
        g = GlobalAvgPool2d()
        x = rng.normal(size=(2, 3, 4, 4))
        assert np.allclose(g.forward(x), x.mean(axis=(2, 3)))

    def test_backward(self, rng):
        g = GlobalAvgPool2d()
        x = rng.normal(size=(2, 3, 4, 4))
        g.forward(x)
        dx = g.backward(np.ones((2, 3)))
        assert np.allclose(dx, 1.0 / 16)



class TestActivations:
    def test_relu_backward_masks_negative_inputs(self, rng):
        r = ReLU()
        x = rng.normal(size=(4, 6))
        dout = rng.normal(size=(4, 6))
        assert np.array_equal(r.forward(x), np.maximum(x, 0.0))
        assert np.array_equal(r.backward(dout), np.where(x > 0, dout, 0.0))

    def test_gelu_input_grad_numeric(self, rng):
        g = GELU()
        x = rng.normal(size=(3, 5))
        dout = rng.normal(size=(3, 5))
        g.forward(x)
        dx = g.backward(dout)
        eps = 1e-6
        num = ((g.forward(x + eps) - g.forward(x - eps)) / (2 * eps)) * dout
        assert np.allclose(dx, num, atol=1e-6)

    def test_macs_free_and_shape_preserving(self):
        for layer in (ReLU(), GELU()):
            assert layer.macs((3, 8, 8)) == (0, (3, 8, 8))
            assert layer.params() == {}
