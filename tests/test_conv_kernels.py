"""Conv / pool / BatchNorm kernels against the formulations they replaced.

The oracles below are the previous implementations, kept here and nowhere
in ``src/``: the naive window loop, the ``einsum`` weight gradient, the
GEMM + scatter-add (``col2im``) input gradient, the window-major ``argmax``
max-pool and the twice-reducing BatchNorm backward.  Convolution and
BatchNorm reorder floating-point sums, so they are held to a tolerance set
from the dtype; max-pool moves values without arithmetic and is held to
``array_equal``.
"""

import itertools

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn import small_cnn, small_resnet
from repro.nn.compute import Workspace
from repro.nn.gradcheck import check_model_gradients
from repro.nn.layers import BatchNorm2d, MaxPool2d
from repro.nn.losses import softmax_cross_entropy

TOL = {"float64": dict(rtol=1e-9, atol=1e-10), "float32": dict(rtol=2e-4, atol=2e-4)}


# ----------------------------------------------------------------------
# oracles
# ----------------------------------------------------------------------
def naive_conv(x, w, b, stride, pad):
    n, c, h, ww = x.shape
    f, _, kh, kw = w.shape
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (ww + 2 * pad - kw) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    out = np.zeros((n, f, oh, ow), dtype=x.dtype)
    for i, j in itertools.product(range(oh), range(ow)):
        patch = xp[:, None, :, i * stride : i * stride + kh, j * stride : j * stride + kw]
        out[:, :, i, j] = (patch * w[None]).sum(axis=(2, 3, 4))
    return out if b is None else out + b[None, :, None, None]


def loop_im2col(x, kh, kw, stride, pad):
    n, c, h, w = x.shape
    oh = F.conv_output_size(h, kh, stride, pad)
    ow = F.conv_output_size(w, kw, stride, pad)
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    cols = np.empty((n, c, kh, kw, oh, ow), dtype=x.dtype)
    for i, j in itertools.product(range(kh), range(kw)):
        cols[:, :, i, j] = xp[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride]
    return cols.reshape(n, c * kh * kw, oh * ow)


def col2im(cols, x_shape, kh, kw, stride, pad):
    n, c, h, w = x_shape
    oh = F.conv_output_size(h, kh, stride, pad)
    ow = F.conv_output_size(w, kw, stride, pad)
    cols = cols.reshape(n, c, kh, kw, oh, ow)
    xp = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    for i, j in itertools.product(range(kh), range(kw)):
        xp[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride] += cols[:, :, i, j]
    return xp[:, :, pad : pad + h, pad : pad + w]


def einsum_conv_backward(dout, cols, x_shape, w, stride, pad):
    f, c, kh, kw = w.shape
    dflat = dout.reshape(dout.shape[0], f, -1)
    dw = np.einsum("nfo,nko->fk", dflat, cols).reshape(w.shape)
    dcols = np.matmul(w.reshape(f, -1).T[None], dflat)
    return col2im(dcols, x_shape, kh, kw, stride, pad), dw, dflat.sum(axis=(0, 2))


def argmax_pool_forward(x, k):
    n, c, h, w = x.shape
    flat = (
        x.reshape(n, c, h // k, k, w // k, k)
        .transpose(0, 1, 2, 4, 3, 5)
        .reshape(n, c, h // k, w // k, k * k)
    )
    idx = flat.argmax(axis=-1)
    return np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0], idx


def argmax_pool_backward(dout, idx, x_shape, k):
    n, c, h, w = x_shape
    oh, ow = h // k, w // k
    dflat = np.zeros((n, c, oh, ow, k * k), dtype=dout.dtype)
    np.put_along_axis(dflat, idx[..., None], dout[..., None], axis=-1)
    return dflat.reshape(n, c, oh, ow, k, k).transpose(0, 1, 2, 4, 3, 5).reshape(x_shape)


# ----------------------------------------------------------------------
# convolution
# ----------------------------------------------------------------------
GEOMETRIES = [
    (kernel, stride, pad)
    for kernel in (1, 3, 5)
    for stride in (1, 2)
    for pad in (0, 1, 2)
]


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("kernel,stride,pad", GEOMETRIES)
def test_conv_matches_oracles(kernel, stride, pad, dtype):
    rng = np.random.default_rng(1000 * kernel + 10 * stride + pad)
    for n, c, f, h, w in [(3, 2, 4, 7, 6), (1, 1, 3, 5, 8), (2, 3, 1, 6, 9)]:
        x = rng.normal(size=(n, c, h, w)).astype(dtype)
        wt = rng.normal(size=(f, c, kernel, kernel)).astype(dtype)
        b = rng.normal(size=f).astype(dtype)
        cols, oh, ow = F.im2col(x, kernel, kernel, stride, pad)
        assert np.array_equal(cols, loop_im2col(x, kernel, kernel, stride, pad))
        out, cols = F.conv2d_forward(x, wt, b, stride, pad)
        assert out.dtype == x.dtype and out.shape == (n, f, oh, ow)
        assert np.allclose(out, naive_conv(x, wt, b, stride, pad), **TOL[dtype])
        dout = rng.normal(size=out.shape).astype(dtype)
        dx, dw, db = F.conv2d_backward(dout, cols, x.shape, wt, stride, pad)
        ref_dx, ref_dw, ref_db = einsum_conv_backward(dout, cols, x.shape, wt, stride, pad)
        assert dx.dtype == dw.dtype == db.dtype == x.dtype
        assert np.allclose(dw, ref_dw, **TOL[dtype])
        assert np.allclose(dx, ref_dx, **TOL[dtype])
        assert np.allclose(db, ref_db, **TOL[dtype])


def test_conv_backward_can_skip_dx_and_bias():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 3, 6, 5))
    w = rng.normal(size=(4, 3, 3, 3))
    out, cols = F.conv2d_forward(x, w, None, 2, 1)
    dout = rng.normal(size=out.shape)
    dx, dw, db = F.conv2d_backward(dout, cols, x.shape, w, 2, 1)
    no_dx, dw2, no_db = F.conv2d_backward(
        dout, cols, x.shape, w, 2, 1, with_bias=False, need_dx=False
    )
    assert no_dx is None and no_db is None
    assert np.array_equal(dw, dw2)


def test_pooled_workspace_is_bit_identical_to_fresh_buffers():
    """A reused workspace (stale contents, zero borders written once) gives
    the same bits as ``ws=None`` on every step."""
    rng = np.random.default_rng(1)
    w = rng.normal(size=(4, 3, 3, 3))
    b = rng.normal(size=4)
    ws = Workspace()
    for _ in range(3):
        x = rng.normal(size=(2, 3, 7, 6))
        out, cols = F.conv2d_forward(x, w, b, 2, 2, ws)
        ref_out, ref_cols = F.conv2d_forward(x, w, b, 2, 2)
        assert np.array_equal(out, ref_out)
        dout = rng.normal(size=out.shape)
        got = F.conv2d_backward(dout, cols, x.shape, w, 2, 2, ws=ws)
        ref = F.conv2d_backward(dout, ref_cols, x.shape, w, 2, 2)
        for a, r in zip(got, ref):
            assert np.array_equal(a, r)


# ----------------------------------------------------------------------
# max-pool
# ----------------------------------------------------------------------
def _pool_both_ways(x, k, dout=None):
    pool = MaxPool2d(k)
    y = pool.forward(x)
    ref_y, idx = argmax_pool_forward(x, k)
    if dout is None:
        dout = np.random.default_rng(5).normal(size=y.shape).astype(x.dtype)
    return y, pool.backward(dout), ref_y, argmax_pool_backward(dout, idx, x.shape, k)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_max_pool_is_bit_equal_to_argmax(k, dtype):
    rng = np.random.default_rng(k)
    cases = {
        "random": rng.normal(size=(3, 2, 4 * k, 2 * k)),
        # post-ReLU activations: most windows tie at exactly zero
        "relu_zeros": np.maximum(rng.normal(size=(2, 3, 2 * k, 3 * k)) - 1.0, 0.0),
        "all_equal": np.full((1, 1, 2 * k, 2 * k), 0.25),
        "few_levels": rng.integers(-1, 2, size=(2, 2, 3 * k, 3 * k)).astype(float),
        "negative_zero": np.where(rng.random((1, 2, 2 * k, 2 * k)) < 0.5, -0.0, 0.0),
    }
    for name, x in cases.items():
        y, dx, ref_y, ref_dx = _pool_both_ways(x.astype(dtype), k)
        assert y.dtype == dx.dtype == np.dtype(dtype), name
        assert np.array_equal(y, ref_y), name
        assert np.array_equal(dx, ref_dx), name


def test_max_pool_non_finite_windows():
    x = np.arange(32, dtype=float).reshape(1, 2, 4, 4)
    x[0, 0, 0, 1] = np.inf  # window (0, 0, 0, 0): +inf beats everything
    x[0, 0, 2:, 2:] = -np.inf  # window (0, 0, 1, 1): all -inf, first wins
    x[0, 1, 1, 0] = np.nan  # window (0, 1, 0, 0) holds a NaN
    dout = np.arange(1.0, 9.0).reshape(1, 2, 2, 2)
    y, dx, ref_y, ref_dx = _pool_both_ways(x, 2, dout)
    assert np.array_equal(y, ref_y, equal_nan=True)
    assert y[0, 0, 0, 0] == np.inf and y[0, 0, 1, 1] == -np.inf and np.isnan(y[0, 1, 0, 0])
    # Infinite windows route exactly like argmax.
    assert np.array_equal(dx[0, 0], ref_dx[0, 0])
    # The NaN window sends no gradient to its finite elements, and a
    # NaN-poisoned upstream gradient stays non-finite.
    assert np.array_equal(dx[0, 1, :2, :2], np.zeros((2, 2)))
    assert np.array_equal(dx[0, 1, :, 2:], ref_dx[0, 1, :, 2:])
    pool = MaxPool2d(2)
    pool.forward(x)
    poisoned = pool.backward(np.full_like(dout, np.nan))
    assert np.isnan(poisoned[0, 1, :2, :2]).all()


# ----------------------------------------------------------------------
# BatchNorm backward
# ----------------------------------------------------------------------
def twice_reducing_bn_backward(bn, dout):
    xhat, inv_std, train = bn._cache
    g_gamma = (dout * xhat).sum(axis=(0, 2, 3))
    g_beta = dout.sum(axis=(0, 2, 3))
    dxhat = dout * bn.gamma[None, :, None, None]
    if not train:
        return dxhat * inv_std[None, :, None, None], g_gamma, g_beta
    n = dout.shape[0] * dout.shape[2] * dout.shape[3]
    dx = (
        dxhat
        - dxhat.sum(axis=(0, 2, 3), keepdims=True) / n
        - xhat * (dxhat * xhat).sum(axis=(0, 2, 3), keepdims=True) / n
    ) * inv_std[None, :, None, None]
    return dx, g_gamma, g_beta


@pytest.mark.parametrize("train", [True, False])
def test_batchnorm_backward_matches_twice_reducing_form(train):
    rng = np.random.default_rng(3)
    bn = BatchNorm2d(5)
    bn.gamma[...] = rng.normal(size=5)
    bn.running_var[...] = rng.uniform(0.5, 2.0, size=5)
    x = rng.normal(size=(4, 5, 3, 6))
    bn.forward(x, train=train)
    dout = rng.normal(size=x.shape)
    ref_dx, ref_gamma, ref_beta = twice_reducing_bn_backward(bn, dout)
    dx = bn.backward(dout)
    assert np.allclose(dx, ref_dx, **TOL["float64"])
    assert np.allclose(bn.g_gamma, ref_gamma, **TOL["float64"])
    assert np.allclose(bn.g_beta, ref_beta, **TOL["float64"])


# ----------------------------------------------------------------------
# whole models: the stem never computes d(loss)/d(data)
# ----------------------------------------------------------------------
MODELS = {
    "small_cnn": lambda rng: small_cnn((3, 8, 8), 4, rng, width=4),
    "small_resnet": lambda rng: small_resnet((3, 8, 8), 4, rng, width=4),
}


@pytest.mark.parametrize("name", MODELS)
def test_model_gradcheck_with_stem_gradient_skipped(name):
    rng = np.random.default_rng(4)
    model = MODELS[name](rng)
    assert model.cells[0].conv.needs_input_grad is False
    x = rng.normal(size=(4, 3, 8, 8))
    y = rng.integers(0, 4, size=4)
    assert check_model_gradients(model, x, y, rng) < 1e-4


@pytest.mark.parametrize("name", MODELS)
def test_skipping_stem_dx_leaves_parameter_gradients_unchanged(name):
    rng = np.random.default_rng(6)
    skipping = MODELS[name](rng)
    full = skipping.clone(keep_id=True)
    assert full.cells[0].conv.needs_input_grad is False  # clones stay marked
    full.cells[0].conv.needs_input_grad = True
    x = rng.normal(size=(5, 3, 8, 8))
    y = rng.integers(0, 4, size=5)
    for model in (skipping, full):
        model.zero_grad()
        logits = model.forward(x, train=True)
        _, dlogits = softmax_cross_entropy(logits, y)
        dout = dlogits
        for cell in reversed(model.cells):
            dout = cell.backward(dout)
        assert (dout is None) == (model is skipping)
    for key, grad in skipping.grads().items():
        assert np.array_equal(grad, full.grads()[key]), key

