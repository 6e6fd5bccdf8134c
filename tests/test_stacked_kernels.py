"""Stacked (replica-axis) kernels against the unstacked ones, slice by slice.

A cohort trains as K replicas of one NumPy loop (CONTRACTS.md I3): every
kernel on that path takes a leading replica axis, and replica ``r`` of the
stacked call must equal the 2-D call on slice ``r`` **bit for bit** — the
Dense/MLP goldens are pinned to exact IEEE expressions, so a stacked kernel
that reorders one addition moves a trajectory.  This file is the kill
switch: on a BLAS (or a NumPy reduction) where an identity below fails, the
stacked path is wrong and the cohort executor must not ship.

The oracles are the expressions the 2-D kernels were before they became
rank-polymorphic, recorded here and nowhere in ``src/``.  Shapes: every
Dense ``(in, out)`` and batch size the four ledger workloads and the zoo's
``mlp`` feed it, plus ragged ones.  Verified on OpenBLAS 0.3.31 (Haswell
kernels, one thread), NumPy 2.4.
"""

import itertools

import numpy as np
import pytest

from repro.fl.client import clip_by_global_norm
from repro.nn import functional as F
from repro.nn.layers import Dense, ReLU
from repro.nn.losses import softmax_cross_entropy
from repro.nn.optim import SGD

DTYPES = ["float64", "float32"]
REPLICAS = (1, 2, 3, 5, 16, 33)
# fedtrans_mlp_sync: 64 features, 62 classes, widths 16/32/64, batches 8-10;
# fleet_async_mixed: 16 features, 6 classes, HeteroFL widths 4-32, batch 20;
# the CNN pair's head: (16, 3) at batch 32; zoo mlp: width 32.
FAN_IN = (4, 8, 16, 32, 64)
FAN_OUT = (3, 4, 6, 8, 16, 32, 62, 64)
BATCHES = (1, 3, 8, 9, 10, 20, 32)


def same(a, b) -> bool:
    """Bit-identical, signed zeros and dtype included."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# ----------------------------------------------------------------------
# oracles: the parent's 2-D expressions
# ----------------------------------------------------------------------
def dense_oracle(x, w, b, dout):
    return x @ w + b, x.T @ dout, dout.sum(axis=0), dout @ w.T


def xent_oracle(logits, labels, label_smoothing=0.0):
    n, k = logits.shape
    rows = np.arange(n)
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    esum = e.sum(axis=-1, keepdims=True)
    logp = z - np.log(esum)
    target = np.zeros_like(logits)
    if label_smoothing > 0.0:
        target[...] = label_smoothing / (k - 1) if k > 1 else 0.0
    target[rows, labels] = 1.0 - label_smoothing if label_smoothing > 0.0 else 1.0
    loss = float(-(target * logp).sum() / n)
    dlogits = e / esum
    dlogits -= target
    dlogits /= n
    return loss, dlogits


def clip_oracle(grads, clip_norm):
    gnorm = float(np.sqrt(sum(float((g**2).sum()) for g in grads.values())))
    if gnorm > clip_norm:
        scale = clip_norm / gnorm
        for g in grads.values():
            g *= scale


def sgd_oracle(p, g, v, lr, momentum, weight_decay):
    """The naive expression SGD.step documents, on copies."""
    p, g = p.copy(), g.copy()
    if weight_decay:
        g = weight_decay * p + g
    if momentum:
        v = momentum * v + g
        g = v
    return p - lr * g, v


# ----------------------------------------------------------------------
# Dense
# ----------------------------------------------------------------------
def _dense(w, b) -> Dense:
    layer = Dense(1, 1, np.random.default_rng(0))
    layer.w, layer.b = w, b
    layer.resize_grads()
    return layer


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("k", REPLICAS)
def test_dense_stacked_equals_each_slice(k, dtype):
    rng = np.random.default_rng(k)
    for fan_in, fan_out, batch in itertools.product(FAN_IN, FAN_OUT, BATCHES):
        x = rng.normal(size=(k, batch, fan_in)).astype(dtype)
        w = rng.normal(size=(k, fan_in, fan_out)).astype(dtype)
        b = rng.normal(size=(k, fan_out)).astype(dtype)
        dout = rng.normal(size=(k, batch, fan_out)).astype(dtype)
        stacked = _dense(w, b)
        out = stacked.forward(x)
        dx = stacked.backward(dout)
        for r in range(k):
            ref_out, ref_dw, ref_db, ref_dx = dense_oracle(x[r], w[r], b[r], dout[r])
            case = (fan_in, fan_out, batch, r)
            assert same(out[r], ref_out), case
            # g_w / g_b accumulate into zeroed buffers: 0 + dW.
            assert same(stacked.g_w[r], np.zeros_like(ref_dw) + ref_dw), case
            assert same(stacked.g_b[r], np.zeros_like(ref_db) + ref_db), case
            assert same(dx[r], ref_dx), case
            # The 2-D call of the touched layer is the parent's expression.
            single = _dense(w[r], b[r])
            assert same(single.forward(x[r]), ref_out), case
            assert same(single.backward(dout[r]), ref_dx), case
            assert same(single.g_w, stacked.g_w[r]) and same(single.g_b, stacked.g_b[r])


@pytest.mark.parametrize("dtype", DTYPES)
def test_dense_on_transposed_and_sliced_views(dtype):
    """Inputs that are views — a transposed activation, a step's slice of
    the per-item gather — stack like contiguous ones: replica ``r`` equals
    the 2-D call on the same view.  (Memory layout is part of a 2-D
    expression already — ``dout.T``-view ``@ w.T`` and ``sum(axis=0)`` of a
    transposed ``dout`` differ from their contiguous copies on this BLAS /
    NumPy, with or without a replica axis — so a stacked operand must have
    its slices laid out as the unstacked one was; the step slice of the
    per-item gather is such an operand.)"""
    rng = np.random.default_rng(7)
    for k, (fan_in, fan_out, batch) in itertools.product(
        (1, 3, 16), [(64, 16, 10), (16, 62, 9), (32, 32, 20), (8, 6, 3)]
    ):
        w = rng.normal(size=(k, fan_in, fan_out)).astype(dtype)
        b = rng.normal(size=(k, fan_out)).astype(dtype)
        gathered = rng.normal(size=(4, k, batch, fan_in)).astype(dtype)  # (steps, K, B, in)
        x_t = np.ascontiguousarray(np.swapaxes(gathered[2], -1, -2))  # (K, in, B)
        dout_t = rng.normal(size=(k, fan_out, batch)).astype(dtype)
        step_slice = gathered[2]
        for x, dout in (
            (step_slice, np.swapaxes(dout_t, -1, -2)),
            (np.swapaxes(x_t, -1, -2), np.swapaxes(dout_t, -1, -2)),
        ):
            layer = _dense(w, b)
            out, dx = layer.forward(x), layer.backward(dout)
            for r in range(k):
                ref = dense_oracle(x[r], w[r], b[r], dout[r])
                assert same(out[r], ref[0]) and same(dx[r], ref[3])
                assert same(layer.g_w[r], 0 + ref[1]) and same(layer.g_b[r], 0 + ref[2])
                if x is step_slice:  # a slice of the gather == a fresh gather
                    fresh = dense_oracle(step_slice[r].copy(), w[r], b[r], dout[r])
                    assert all(same(a, c) for a, c in zip(ref, fresh))


def test_replicate_copies_and_refuses_layers_without_the_axis():
    from repro.nn import mlp, small_cnn, vit_tiny

    rng = np.random.default_rng(0)
    model = mlp((8,), 3, rng, width=4)
    work = model.replicate(3)
    assert work.replicas == 3 and model.replicas is None and model.stackable
    assert (work.model_id, work.version) == (model.model_id, model.version)
    assert (work.macs(), work.nbytes(), work.num_params()) == (
        model.macs(), model.nbytes(), model.num_params()
    )
    for key, value in model.params().items():
        stacked = work.params()[key]
        assert stacked.shape == (3,) + value.shape and stacked.flags.writeable
        assert not np.shares_memory(stacked, value)
        assert all(same(stacked[r], value) for r in range(3))
        assert work.grads()[key].shape == stacked.shape
    for other in (small_cnn((3, 8, 8), 3, rng, width=4), vit_tiny((3, 8, 8), 3, rng, dim=8)):
        assert not other.stackable
        with pytest.raises(ValueError, match="no replica axis"):
            other.replicate(2)


# ----------------------------------------------------------------------
# ReLU, loss
# ----------------------------------------------------------------------
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("k", REPLICAS)
def test_relu_stacked_equals_each_slice(k, dtype):
    rng = np.random.default_rng(k)
    x = rng.normal(size=(k, 10, 32)).astype(dtype)
    x[:, 0, :4] = 0.0
    dout = rng.normal(size=x.shape).astype(dtype)
    layer = ReLU()
    out, dx = layer.forward(x), layer.backward(dout)
    for r in range(k):
        assert same(out[r], np.maximum(x[r], 0.0))
        assert same(dx[r], dout[r] * (x[r] > 0))
        assert same(F.relu(x[r]), out[r]) and same(F.relu_grad(x[r], dout[r]), dx[r])


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("smoothing", [0.0, 0.1])
@pytest.mark.parametrize("k", REPLICAS)
def test_softmax_cross_entropy_stacked_equals_each_slice(k, smoothing, dtype):
    rng = np.random.default_rng(k)
    for classes, batch in itertools.product((3, 6, 62), BATCHES):
        logits = (4 * rng.normal(size=(k, batch, classes))).astype(dtype)
        labels = rng.integers(0, classes, size=(k, batch))
        loss, dlogits = softmax_cross_entropy(logits, labels, smoothing)
        assert loss.shape == (k,) and loss.dtype == logits.dtype
        for r in range(k):
            ref_loss, ref_d = xent_oracle(logits[r], labels[r], smoothing)
            # float(): how a step loss is recorded (a float64 row per replica).
            assert float(loss[r]) == ref_loss, (classes, batch, r)
            assert same(dlogits[r], ref_d), (classes, batch, r)
            one_loss, one_d = softmax_cross_entropy(logits[r], labels[r], smoothing)
            assert isinstance(one_loss, float) and one_loss == ref_loss
            assert same(one_d, ref_d)
    with pytest.raises(ValueError, match="does not match"):
        softmax_cross_entropy(logits, labels[0])
    with pytest.raises(ValueError, match="out of range"):
        softmax_cross_entropy(logits, np.full_like(labels, classes))


def test_loss_mean_is_taken_on_a_contiguous_row():
    """``np.mean`` of 10 floats is a pairwise sum: the per-replica mean must
    reduce a contiguous row of step losses, not a strided column."""
    rng = np.random.default_rng(3)
    for steps in (1, 5, 8, 10, 20, 130):
        rows = rng.normal(size=(16, steps)) * 10.0 ** rng.integers(-8, 8, size=(16, steps))
        means = rows.mean(axis=-1)
        for r in range(16):
            assert means[r] == float(np.mean([float(v) for v in rows[r]]))


def test_batch_indices_drawn_once_per_item_match_per_step_draws():
    """One ``integers(size=(steps, batch))`` call consumes the stream exactly
    as ``steps`` successive ``integers(size=batch)`` calls."""
    for n, steps, batch in [(1, 10, 1), (7, 10, 7), (25, 20, 10), (600, 5, 32), (2**33, 3, 4)]:
        whole = np.random.default_rng(11).integers(0, n, size=(steps, batch))
        rng = np.random.default_rng(11)
        assert same(whole, np.stack([rng.integers(0, n, size=batch) for _ in range(steps)]))


# ----------------------------------------------------------------------
# SGD, clip
# ----------------------------------------------------------------------
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("momentum,weight_decay", [(0.0, 0.0), (0.9, 0.0), (0.0, 1e-2), (0.9, 1e-2)])
@pytest.mark.parametrize("k", REPLICAS)
def test_sgd_stacked_equals_each_slice(k, momentum, weight_decay, dtype):
    rng = np.random.default_rng(k)
    p0 = {"w": rng.normal(size=(k, 16, 32)).astype(dtype), "b": rng.normal(size=(k, 32)).astype(dtype)}
    steps = [{name: rng.normal(size=p.shape).astype(dtype) for name, p in p0.items()} for _ in range(3)]
    stacked = {name: p.copy() for name, p in p0.items()}
    opt = SGD(0.05, momentum, weight_decay)
    for grads in steps:
        opt.step(stacked, grads)
    for r in range(k):
        single = {name: p[r].copy() for name, p in p0.items()}
        naive = {name: p[r].copy() for name, p in p0.items()}
        velocity = {name: np.zeros_like(p) for name, p in naive.items()}
        opt_r = SGD(0.05, momentum, weight_decay)
        for grads in steps:
            opt_r.step(single, {name: g[r] for name, g in grads.items()})
            for name in naive:
                naive[name], velocity[name] = sgd_oracle(
                    naive[name], grads[name][r], velocity[name], 0.05, momentum, weight_decay
                )
        for name in p0:
            assert same(stacked[name][r], single[name]), (name, r)
            assert same(single[name], naive[name]), (name, r)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("k", REPLICAS)
def test_clip_stacked_equals_each_slice(k, dtype):
    """Some replicas over the threshold, some under, one at zero, one NaN."""
    rng = np.random.default_rng(k)
    for fan_in, fan_out in [(64, 16), (16, 62), (4, 6), (32, 32)]:
        scale = 10.0 ** (np.arange(k) % 5 - 1.0)  # 0.1 ... 1000 per replica
        if k > 2:
            scale[2] = 0.0
        grads = {
            "a/w": (rng.normal(size=(k, fan_in, fan_out)) * scale[:, None, None]).astype(dtype),
            "a/b": (rng.normal(size=(k, fan_out)) * scale[:, None]).astype(dtype),
            "b/w": (rng.normal(size=(k, fan_out, 3)) * scale[:, None, None]).astype(dtype),
        }
        if k > 3:
            grads["a/b"][3, 0] = np.nan
        for clip in (1.0, 1e-3, 1e6):
            stacked = {name: g.copy() for name, g in grads.items()}
            clip_by_global_norm(stacked, clip, (k,))
            clipped = 0
            for r in range(k):
                ref = {name: g[r].copy() for name, g in grads.items()}
                clip_oracle(ref, clip)
                clipped += not same(ref["a/w"], grads["a/w"][r])
                single = {name: g[r].copy() for name, g in grads.items()}
                clip_by_global_norm(single, clip)
                for name in grads:
                    assert same(stacked[name][r], ref[name]), (name, r, clip)
                    assert same(single[name], ref[name]), (name, r, clip)
            if k >= 3 and clip == 1.0:
                assert 0 < clipped < k  # the case that matters: a mixed cohort
