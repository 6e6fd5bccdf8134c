"""Unit tests for the low-level array kernels."""

import numpy as np
import pytest

from repro.nn import functional as F


class TestConvOutputSize:
    def test_basic(self):
        assert F.conv_output_size(8, 3, 1, 1) == 8

    def test_stride(self):
        assert F.conv_output_size(8, 3, 2, 1) == 4

    def test_no_pad(self):
        assert F.conv_output_size(8, 3, 1, 0) == 6

    def test_raises_on_too_small_input(self):
        with pytest.raises(ValueError, match="non-positive"):
            F.conv_output_size(2, 5, 1, 0)


class TestIm2Col:
    def test_shape(self):
        x = np.random.default_rng(0).normal(size=(2, 3, 8, 8))
        cols, oh, ow = F.im2col(x, 3, 3, 1, 1)
        assert cols.shape == (2, 3 * 9, 64)
        assert (oh, ow) == (8, 8)

    def test_roundtrip_counts(self):
        """The input gradient of an all-ones conv counts how many windows
        cover each pixel."""
        x = np.ones((1, 1, 4, 4))
        w = np.ones((1, 1, 3, 3))
        out, cols = F.conv2d_forward(x, w, None, 1, 1)
        img, _, _ = F.conv2d_backward(np.ones_like(out), cols, x.shape, w, 1, 1)
        # Centre pixels are covered by all 9 windows.
        assert img[0, 0, 1, 1] == 9
        assert img[0, 0, 0, 0] == 4  # corner

    def test_identity_kernel_window(self):
        x = np.random.default_rng(1).normal(size=(1, 2, 5, 5))
        cols, _, _ = F.im2col(x, 1, 1, 1, 0)
        assert np.allclose(cols.reshape(1, 2, 25), x.reshape(1, 2, 25))


class TestConv2d:
    def _naive_conv(self, x, w, b, stride, pad):
        n, c, h, ww = x.shape
        f, _, kh, kw = w.shape
        oh = (h + 2 * pad - kh) // stride + 1
        ow = (ww + 2 * pad - kw) // stride + 1
        xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        out = np.zeros((n, f, oh, ow))
        for ni in range(n):
            for fi in range(f):
                for i in range(oh):
                    for j in range(ow):
                        patch = xp[ni, :, i * stride : i * stride + kh, j * stride : j * stride + kw]
                        out[ni, fi, i, j] = (patch * w[fi]).sum() + (b[fi] if b is not None else 0)
        return out

    @pytest.mark.parametrize("stride,pad", [(1, 1), (2, 1), (1, 0), (2, 0)])
    def test_matches_naive(self, stride, pad):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 3, 6, 6))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        out, _ = F.conv2d_forward(x, w, b, stride, pad)
        assert np.allclose(out, self._naive_conv(x, w, b, stride, pad))

    def test_backward_shapes(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 3, 6, 6))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        out, cols = F.conv2d_forward(x, w, b, 1, 1)
        dout = rng.normal(size=out.shape)
        dx, dw, db = F.conv2d_backward(dout, cols, x.shape, w, 1, 1)
        assert dx.shape == x.shape
        assert dw.shape == w.shape
        assert db.shape == b.shape

    def test_backward_numeric(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(1, 2, 4, 4))
        w = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=3)
        out, cols = F.conv2d_forward(x, w, b, 1, 1)
        dout = rng.normal(size=out.shape)
        dx, dw, db = F.conv2d_backward(dout, cols, x.shape, w, 1, 1)
        eps = 1e-6
        # check a few weight coordinates numerically
        for idx in [(0, 0, 0, 0), (2, 1, 2, 2), (1, 0, 1, 2)]:
            w2 = w.copy()
            w2[idx] += eps
            up = (F.conv2d_forward(x, w2, b, 1, 1)[0] * dout).sum()
            w2[idx] -= 2 * eps
            down = (F.conv2d_forward(x, w2, b, 1, 1)[0] * dout).sum()
            num = (up - down) / (2 * eps)
            assert abs(num - dw[idx]) < 1e-5

    def test_no_bias(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(1, 2, 4, 4))
        w = rng.normal(size=(3, 2, 3, 3))
        out, cols = F.conv2d_forward(x, w, None, 1, 1)
        dout = rng.normal(size=out.shape)
        _, _, db = F.conv2d_backward(dout, cols, x.shape, w, 1, 1, with_bias=False)
        assert db is None


class TestActivations:
    def test_relu(self):
        x = np.array([-1.0, 0.0, 2.0])
        assert np.allclose(F.relu(x), [0, 0, 2])

    def test_relu_grad(self):
        x = np.array([-1.0, 0.5, 2.0])
        d = F.relu_grad(x, np.ones_like(x))
        assert np.allclose(d, [0, 1, 1])

    def test_gelu_monotone_region(self):
        x = np.linspace(0, 3, 50)
        y = F.gelu(x)
        assert np.all(np.diff(y) > 0)

    def test_gelu_grad_numeric(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=20)
        eps = 1e-6
        num = (F.gelu(x + eps) - F.gelu(x - eps)) / (2 * eps)
        ana = F.gelu_grad(x, np.ones_like(x))
        assert np.allclose(num, ana, atol=1e-6)

    def test_gelu_near_tanh_values(self):
        # GELU(0) == 0, GELU(large) ~ identity
        assert F.gelu(np.array([0.0]))[0] == 0.0
        assert abs(F.gelu(np.array([10.0]))[0] - 10.0) < 1e-6


class TestSoftmax:
    def test_rows_sum_to_one(self):
        x = np.random.default_rng(7).normal(size=(4, 9))
        p = F.softmax(x)
        assert np.allclose(p.sum(axis=-1), 1.0)

    def test_shift_invariance(self):
        x = np.random.default_rng(8).normal(size=(3, 5))
        assert np.allclose(F.softmax(x), F.softmax(x + 100.0))

    def test_log_softmax_consistent(self):
        x = np.random.default_rng(9).normal(size=(3, 5))
        assert np.allclose(np.exp(F.log_softmax(x)), F.softmax(x))

    def test_extreme_values_stable(self):
        x = np.array([[1000.0, -1000.0, 0.0]])
        p = F.softmax(x)
        assert np.isfinite(p).all()
        assert abs(p.sum() - 1.0) < 1e-12
