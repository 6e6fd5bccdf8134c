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

**The arena.**  A training workspace keeps its parameters and gradients in
flat tensor-major buffers (``repro.nn.model.Arena``), so zero-grad, SGD, the
FedProx term and the clip run once over the whole buffer instead of once per
tensor.  The arena witnesses below hold each of those, and a whole step
through the layers' backward into arena views, to the parent's per-tensor
formulations on each replica's own model (kept here as oracles), and pin
the layout: every view has the unstacked tensor's shape and strides per
replica.
"""

import itertools

import numpy as np
import pytest

from repro.fl.client import clip_by_global_norm, fedprox_grads
from repro.nn import functional as F
from repro.nn import mlp, set_compute_dtype
from repro.nn.layers import Dense, ReLU
from repro.nn.losses import one_hot, softmax_cross_entropy
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


def xent_oracle(logits, labels):
    n, k = logits.shape
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    esum = e.sum(axis=-1, keepdims=True)
    logp = z - np.log(esum)
    target = np.zeros_like(logits)
    target[np.arange(n), labels] = 1.0
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


def parent_clip(grads, clip_norm, lead):
    """The parent's stacked clip: one square and one reduce per tensor."""
    total = 0.0
    for g in grads.values():
        squares = (g**2).reshape(lead + (-1,)).sum(axis=-1)
        total = total + squares.astype(np.float64, copy=False)
    gnorm = np.sqrt(total)
    over = gnorm > clip_norm
    if not over.any():
        return
    scale = np.ones_like(gnorm)
    np.divide(clip_norm, gnorm, out=scale, where=over)
    for g in grads.values():
        g *= scale.astype(g.dtype).reshape(lead + (1,) * (g.ndim - len(lead)))


def parent_step(model, opt, x, labels, anchor, clip_norm, mu):
    """One local step as the parent's trainer took it on a plain clone:
    zero, forward/backward, clip, FedProx and SGD, each once per tensor."""
    params, grads = model.params(), model.grads()
    for g in grads.values():
        g[...] = 0.0
    loss = model.loss_and_grad(x, labels)
    clip_oracle(grads, clip_norm)
    if mu:
        grads = {k: g + mu * (params[k] - anchor[k]) for k, g in grads.items()}
    opt.step(params, grads)
    return loss


def sgd_oracle(p, g, v, lr, momentum, weight_decay):
    """The naive expression SGD.step documents, on copies."""
    p, g = p.copy(), g.copy()
    if weight_decay:
        g = weight_decay * p + g
    if momentum:
        v = momentum * v + g
        g = v
    return p - lr * g, v


def _model(dtype, rng, fan_in=16, width=32, classes=6, depth=2):
    """The zoo's mlp at ``dtype``: a Dense stem, ``depth - 1`` hidden cells, a head."""
    set_compute_dtype(dtype)
    try:
        return mlp((fan_in,), classes, rng, width=width, depth=depth)
    finally:
        set_compute_dtype("float64")


def _lead(k):
    return (k,) if k > 1 else ()  # K = 1 is the no-axis case


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
    from repro.nn import small_cnn, vit_tiny

    rng = np.random.default_rng(0)
    model = mlp((8,), 3, rng, width=4)
    for k in (3, 1):
        work = model.replicate(k)
        assert work.replicas == (k if k > 1 else None) and model.replicas is None
        assert model.stackable
        assert work.model_id == model.model_id
        assert (work.macs(), work.nbytes(), work.num_params()) == (
            model.macs(), model.nbytes(), model.num_params()
        )
        for key, value in model.params().items():
            stacked = work.params()[key]
            assert stacked.shape == _lead(k) + value.shape and stacked.flags.writeable
            assert not np.shares_memory(stacked, value)
            assert all(same(stacked[r] if k > 1 else stacked, value) for r in range(k))
            assert work.grads()[key].shape == stacked.shape and not work.grads()[key].any()
    for other in (small_cnn((3, 8, 8), 3, rng, width=4), vit_tiny((3, 8, 8), 3, rng, dim=8)):
        assert not other.stackable
        with pytest.raises(ValueError, match="no replica axis"):
            other.replicate(2)
        single = other.replicate(1)  # the no-axis workspace every model has
        assert single.replicas is None
        assert all(same(single.params()[key], v) for key, v in other.params().items())


@pytest.mark.parametrize("k", REPLICAS)
def test_dense_stem_skips_dx_and_keeps_the_parameter_grads(k):
    """``CellModel`` clears ``needs_input_grad`` on a Dense stem as on a conv
    stem: its backward returns ``None``, and every parameter gradient is the
    parent's (which computed the unread d(loss)/d(data)) bit for bit."""
    rng = np.random.default_rng(k)
    model = mlp((16,), 6, rng, width=32, depth=3)
    assert model.cells[0].fc.needs_input_grad is False
    assert all(cell.fc.needs_input_grad for cell in model.cells[1:-1])
    skipping, full = model.replicate(k), model.replicate(k)
    full.cells[0].fc.needs_input_grad = True
    x = rng.normal(size=_lead(k) + (9, 16))
    target = one_hot(rng.integers(0, 6, size=_lead(k) + (9,)), 6, x.dtype)
    for work in (skipping, full):
        _, dout = softmax_cross_entropy(work.forward(x), target)
        for cell in reversed(work.cells):
            dout = cell.backward(dout)
        assert (dout is None) == (work is skipping)
        if work is full:
            assert dout.shape == x.shape
    for key, grad in skipping.grads().items():
        assert same(grad, full.grads()[key]), key


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
@pytest.mark.parametrize("k", REPLICAS)
def test_softmax_cross_entropy_stacked_equals_each_slice(k, dtype):
    rng = np.random.default_rng(k)
    for classes, batch in itertools.product((3, 6, 62), BATCHES):
        logits = (4 * rng.normal(size=(k, batch, classes))).astype(dtype)
        labels = rng.integers(0, classes, size=(k, batch))
        target = one_hot(labels, classes, logits.dtype)
        loss, dlogits = softmax_cross_entropy(logits, target)
        assert loss.shape == (k,) and loss.dtype == logits.dtype
        for r in range(k):
            ref_loss, ref_d = xent_oracle(logits[r], labels[r])
            # float(): how a step loss is recorded (a float64 row per replica).
            assert float(loss[r]) == ref_loss, (classes, batch, r)
            assert same(dlogits[r], ref_d), (classes, batch, r)
            one_loss, one_d = softmax_cross_entropy(logits[r], target[r])
            assert isinstance(one_loss, float) and one_loss == ref_loss
            assert same(one_d, ref_d)
    with pytest.raises(ValueError, match="does not match"):
        softmax_cross_entropy(logits, target[0])
    with pytest.raises(ValueError, match="out of range"):
        one_hot(np.full_like(labels, classes), classes, logits.dtype)


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
    """Some replicas over the threshold, some under, one at zero, one NaN:
    the arena clip equals the parent's stacked per-tensor clip and, slice by
    slice, the single-tree clip."""
    rng = np.random.default_rng(k)
    lead = _lead(k)
    for fan_in, fan_out in [(64, 16), (16, 62), (4, 6), (32, 32)]:
        work = _model(dtype, rng, fan_in, fan_out, classes=3, depth=1).replicate(k)
        scale = 10.0 ** (np.arange(k) % 5 - 1.0)  # 0.1 ... 1000 per replica
        if k > 2:
            scale[2] = 0.0
        grads = {
            key: (rng.normal(size=g.shape) * scale.reshape(lead + (1,) * (g.ndim - len(lead))))
            .astype(dtype)
            for key, g in work.grads().items()
        }
        if k > 3:
            next(g for g in grads.values() if g.ndim == 2)[3, 0] = np.nan
        for clip in (1.0, 1e-3, 1e6):
            for key, g in work.grads().items():
                g[...] = grads[key]
            clip_by_global_norm(work.arena, clip)
            stacked = {key: g.copy() for key, g in grads.items()}
            parent_clip(stacked, clip, lead)
            clipped = 0
            for r in range(k):
                at = (r,) if lead else ()
                ref = {key: g[at].copy() for key, g in grads.items()}
                clip_oracle(ref, clip)
                clipped += not all(same(ref[key], grads[key][at]) for key in grads)
                for key in grads:
                    assert same(work.grads()[key][at], ref[key]), (key, r, clip)
                    assert same(stacked[key][at], ref[key]), (key, r, clip)
            if k >= 3 and clip == 1.0:
                assert 0 < clipped < k  # the case that matters: a mixed cohort
            if clip == 1e6:
                assert clipped == 0  # nobody over: the arena is left alone


# ----------------------------------------------------------------------
# the arena: layout and whole-buffer step ops
# ----------------------------------------------------------------------
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("k", REPLICAS)
def test_arena_views_keep_each_tensors_layout(k, dtype):
    """Tensor-major: each tensor's ``(K, ...)`` block follows the previous one
    in parameter order, C-contiguous, and every replica's slice has the
    unstacked tensor's shape and strides (CONTRACTS.md I3)."""
    model = _model(dtype, np.random.default_rng(k), depth=3)
    work = model.replicate(k)
    arena, lead = work.arena, _lead(k)
    assert arena.lead == lead and arena.params.dtype == np.dtype(dtype)
    offset = 0
    for (key, value), rows in zip(model.params().items(), arena.grad_rows):
        for tensor, buf in ((work.params()[key], arena.params), (work.grads()[key], arena.grads)):
            assert tensor.shape == lead + value.shape and tensor.dtype == value.dtype, key
            assert tensor.flags.c_contiguous and np.shares_memory(tensor, buf), key
            start = buf.__array_interface__["data"][0] + offset * buf.itemsize
            assert tensor.__array_interface__["data"][0] == start, key
            for r in range(k):
                replica = tensor[r] if lead else tensor
                assert replica.shape == value.shape and replica.strides == value.strides, key
        assert rows.shape == (k, value.size) and np.shares_memory(rows, arena.grads)
        offset += k * value.size
    assert offset == arena.params.size == arena.grads.size == arena.scratch.size


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("k", REPLICAS)
def test_arena_step_equals_the_parents_per_tensor_step(k, dtype):
    """Zero-grad (one ``fill``), the layers' backward into arena views, the
    clip, the FedProx term and SGD (plain, momentum, weight decay) as
    whole-buffer operations equal, replica by replica, the parent's step on
    that replica's own plain clone with every op taken per tensor."""
    rng = np.random.default_rng(k)
    lead = _lead(k)
    model = _model(dtype, rng)
    steps, batch = 3, 9
    # Replica r's inputs are scaled by 0.1 ... 100, so some replicas clip
    # at some steps and others do not.
    gain = 10.0 ** (np.arange(k) % 4 - 1.0)
    x = (rng.normal(size=(steps,) + lead + (batch, 16))
         * gain.reshape(lead + (1, 1))).astype(dtype)
    labels = rng.integers(0, 6, size=(steps,) + lead + (batch,))
    for momentum, weight_decay, mu in [
        (0.0, 0.0, 0.0), (0.9, 0.0, 0.0), (0.0, 1e-2, 0.0), (0.0, 0.0, 0.05), (0.9, 1e-2, 0.05),
    ]:
        work = model.replicate(k)
        arena = work.arena
        anchor = arena.params.copy()
        opt = SGD(0.1, momentum, weight_decay)
        singles = [model.clone(keep_id=True) for _ in range(k)]
        anchors = [single.get_params() for single in singles]
        opts = [SGD(0.1, momentum, weight_decay) for _ in range(k)]
        arena.grads.fill(np.nan)  # whatever the last item left behind
        for step in range(steps):
            arena.grads.fill(0.0)
            assert not np.signbit(arena.grads).any() and not arena.grads.any()
            target = one_hot(labels[step], 6, arena.params.dtype)
            loss = work.target_loss_and_grad(x[step], target)
            clip_by_global_norm(arena, 1.0)
            step_grads = fedprox_grads(arena, anchor, mu) if mu else arena.grads
            opt.step({"arena": arena.params}, {"arena": step_grads})
            for r, single in enumerate(singles):
                at = (r,) if lead else ()
                ref_loss = parent_step(
                    single, opts[r], x[step][at], labels[step][at], anchors[r], 1.0, mu
                )
                assert float(np.asarray(loss)[at]) == ref_loss, (step, r)
                for key, value in single.params().items():
                    assert same(work.params()[key][at], value), (momentum, mu, key, r)
                for key, value in single.grads().items():
                    assert same(work.grads()[key][at], value), (key, r)


def test_fedprox_grads_equal_the_parents_expression():
    rng = np.random.default_rng(9)
    for k, dtype in itertools.product(REPLICAS, DTYPES):
        work = _model(dtype, rng).replicate(k)
        arena = work.arena
        anchor, anchors = arena.params.copy(), work.get_params()
        arena.params[...] = (arena.params + rng.normal(size=arena.params.size)).astype(dtype)
        arena.grads[...] = rng.normal(size=arena.grads.size).astype(dtype)
        params = work.params()
        parent = [g + 0.05 * (params[key] - anchors[key]) for key, g in work.grads().items()]
        got = fedprox_grads(arena, anchor, 0.05)
        assert np.shares_memory(got, arena.scratch)
        # Tensor-major: the arena is the tensors' C-order flattenings, in order.
        assert same(got, np.concatenate([g.reshape(-1) for g in parent]))


def test_refill_is_a_fresh_replicate():
    """A refilled workspace equals ``source.replicate(k)`` field by field
    whatever it held before — across a grown, dropped, regrown and shrunk
    replica axis — and refuses, untouched, a source of other shapes."""
    rng = np.random.default_rng(2)
    model = _model("float64", rng, depth=3)
    work = model.replicate(3)
    for k in (5, 1, 16, 2):
        work.arena.params.fill(np.nan)
        work.arena.grads.fill(np.nan)
        model.set_params({key: v + 0.5 for key, v in model.params().items()})
        assert work.refill(model, k)
        fresh = model.replicate(k)
        assert (work.model_id, work.replicas) == (fresh.model_id, fresh.replicas)
        for tree in ("params", "grads", "state"):
            mine, theirs = getattr(work, tree)(), getattr(fresh, tree)()
            assert list(mine) == list(theirs)
            assert all(same(mine[key], theirs[key]) for key in mine), (tree, k)
    wide = model.clone(keep_id=True)
    wide.widen_cell(wide.transformable_cells()[0].cell_id, 2.0, rng)
    before = work.arena.params.copy()
    assert not work.refill(wide, 2)
    assert same(work.arena.params, before) and work.replicas == 2
