"""Trainable layers with explicit forward/backward passes.

Every layer follows the same contract:

* ``forward(x, train)`` returns the activation and caches what backward needs.
* ``backward(dout)`` returns ``dx`` and accumulates parameter gradients into
  the layer's ``.g_*`` buffers (read them via :meth:`Layer.grads`).  The one
  exception: a :class:`Conv2d` or :class:`Dense` that ``CellModel`` marked
  as fed by the data batch skips ``dx`` and returns ``None``.
* A layer declares its tensors once: ``param_names`` and ``state_names``
  name the attributes holding them, in key order (an attribute holding
  ``None`` is absent — the bias-free conv).  :class:`Layer` derives
  ``params()``/``grads()``/``state()`` (live references keyed by those
  names; cells add prefixes), ``zero_grad()`` and ``resize_grads()`` from
  that declaration.  The gradient of ``<name>`` lives in ``g_<name>``,
  allocated by ``resize_grads``; a training workspace re-points both at
  views of its arena (:class:`repro.nn.model.Arena`), so a layer updates
  them in place and never rebinds them outside construction and
  transforms.
* ``macs(input_shape)`` returns ``(per_sample_macs, output_shape)`` so models
  can chain cost accounting without running data through the network.

Layers are single-use per step: call ``forward`` then ``backward``.  In a
model the activation a layer is handed, and the gradient, are single-use
too: a ``ReLU`` or ``BatchNorm2d`` that ``CellModel`` marked ``in_place``
(in a cell's plain chain, not first, after a layer that does not keep its
output) writes its output into ``x`` and its ``dx`` into ``dout``.  A
standalone layer never writes its arguments.

Hot layers (Conv2d, BatchNorm2d, MaxPool2d, GlobalAvgPool2d) own a private
:class:`~repro.nn.compute.Workspace` for results and what lives from forward
to backward; call-local temporaries come from ``shared_ws``, the model's
shared workspace (the layer's own when standalone).  Buffers are sized on
first use and reused across steps (bit-identical to fresh allocations).
Because a layer's buffers are overwritten by its next ``forward``, layer
outputs are only valid until that layer runs again — which the
single-use-per-step contract already guarantees (ReLU keeps its output,
MaxPool2d its input and output, for backward on the same terms).  Cloned
cells start with fresh workspaces (``Workspace.__deepcopy__``), so parallel
backends never share scratch memory.  A training workspace keeps its
layers' buffers between work items and drops only the forward caches
(``Cell.drop_caches``); ``CellModel.release_scratch`` empties the buffers
as well.

**The replica axis.**  :class:`Dense` and :class:`ReLU` declare
``replica_axis``: their forward/backward address axes from the end, so
tensors ``(K, …)`` against activations ``(K, B, …)`` compute K independent
replicas in one call, each slice bit-identical to the unstacked call
(``tests/test_stacked_kernels.py`` pins it on this BLAS).
:meth:`repro.nn.model.CellModel.replicate` stacks a model's tensors and
refuses one holding any layer that does not declare the axis (conv,
pooling, norms, attention) — such models train one replica at a time.

What the conv-family kernels do: Conv2d is im2col + batched GEMMs (see
:mod:`repro.nn.functional`), BatchNorm2d's backward reuses the two
per-channel sums its parameter gradients take, MaxPool2d compares strided
views instead of gathering windows.
"""

from __future__ import annotations

import numpy as np

from . import functional as F
from .compute import Workspace, compute_dtype
from .init import he_normal, zeros

__all__ = [
    "Layer",
    "Dense",
    "Conv2d",
    "BatchNorm2d",
    "LayerNorm",
    "ReLU",
    "GELU",
    "AvgPool2d",
    "MaxPool2d",
    "GlobalAvgPool2d",
]


class Layer:
    """Base class; subclasses override the marked methods."""

    #: The channel axes a cell may resize: ``tensor attribute -> (input
    #: axis, output axis, fresh)``, ``None`` for an axis the tensor lacks.
    #: ``fresh`` is what a channel added by a zero-mode widen holds: a
    #: constant for per-channel vectors, ``None`` for weights (He-normal
    #: draws).  :class:`repro.nn.cells.Cell` executes this table; a layer
    #: that declares nothing is never resized.
    tensor_axes: dict[str, tuple[int | None, int | None, float | None]] = {}

    #: Whether forward/backward accept a leading *replica* axis (module
    #: docstring).  A layer that does not declare it is never stacked.
    replica_axis: bool = False

    #: Attributes holding the trainable / non-trainable tensors, in key order.
    param_names: tuple[str, ...] = ()
    state_names: tuple[str, ...] = ()

    #: ``keeps_output``: backward reads this layer's output, so its successor
    #: must not write into it.  ``CellModel`` sets the other two (module doc).
    keeps_output: bool = False
    in_place: bool = False
    shared_ws: Workspace | None = None

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        raise NotImplementedError

    def backward(self, dout: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def params(self) -> dict[str, np.ndarray]:
        """Live references to trainable tensors (may be empty)."""
        return {n: p for n in self.param_names if (p := getattr(self, n)) is not None}

    def grads(self) -> dict[str, np.ndarray]:
        """Gradients matching :meth:`params` keys."""
        return {n: getattr(self, "g_" + n) for n in self.params()}

    def state(self) -> dict[str, np.ndarray]:
        """Non-trainable buffers (e.g. BatchNorm running stats)."""
        return {n: s for n in self.state_names if (s := getattr(self, n)) is not None}

    def zero_grad(self) -> None:
        for g in self.grads().values():
            g[...] = 0.0

    def resize_grads(self) -> None:
        """(Re-)allocate the gradient buffers at the parameters' shapes: at
        construction and after a structural transform."""
        for n in self.param_names:
            p = getattr(self, n)
            setattr(self, "g_" + n, None if p is None else np.zeros_like(p))

    def macs(self, input_shape: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
        """Per-sample multiply-accumulate count and the output shape."""
        return 0, input_shape


class Dense(Layer):
    """Affine map ``y = x @ w + b`` with ``w`` of shape ``(in, out)``.

    Rank-polymorphic: every expression addresses axes from the end, so
    ``x (K, B, in)`` against ``w (K, in, out)`` / ``b (K, out)`` is K
    independent affine maps in one ``np.matmul``, each slice bit-identical
    to the 2-D call (``tests/test_stacked_kernels.py``).
    """

    param_names = ("w", "b")
    tensor_axes = {"w": (0, 1, None), "b": (None, 0, 0.0)}
    replica_axis = True

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator):
        self.w = he_normal(rng, (in_features, out_features), fan_in=in_features)
        self.b = zeros((out_features,))
        self.resize_grads()
        self._x: np.ndarray | None = None
        #: ``CellModel`` clears this on a dense stem, as on a conv stem.
        self.needs_input_grad = True

    @property
    def in_features(self) -> int:
        return self.w.shape[-2]

    @property
    def out_features(self) -> int:
        return self.w.shape[-1]

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        self._x = x
        return x @ self.w + self.b[..., None, :]

    def backward(self, dout: np.ndarray) -> np.ndarray | None:
        assert self._x is not None, "backward before forward"
        self.g_w += self._x.swapaxes(-1, -2) @ dout
        self.g_b += dout.sum(axis=-2)
        return dout @ self.w.swapaxes(-1, -2) if self.needs_input_grad else None

    def macs(self, input_shape: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
        (features,) = input_shape
        if features != self.in_features:
            raise ValueError(f"Dense expects {self.in_features} features, got {features}")
        return self.in_features * self.out_features, (self.out_features,)


class Conv2d(Layer):
    """2-D convolution over NCHW input, weight shape ``(F, C, kh, kw)``."""

    param_names = ("w", "b")
    tensor_axes = {"w": (1, 0, None), "b": (None, 0, 0.0)}

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel: int,
        rng: np.random.Generator,
        stride: int = 1,
        pad: int | None = None,
        bias: bool = True,
    ):
        self.stride = stride
        self.pad = kernel // 2 if pad is None else pad
        self.kernel = kernel
        fan_in = in_channels * kernel * kernel
        self.w = he_normal(rng, (out_channels, in_channels, kernel, kernel), fan_in)
        self.b = zeros((out_channels,)) if bias else None
        self.resize_grads()
        self._cache: tuple[np.ndarray, tuple[int, int, int, int]] | None = None
        self._ws = Workspace()
        #: ``CellModel`` clears this on the conv fed by the data batch: nothing
        #: reads d(loss)/d(data), so ``backward`` skips it and returns ``None``.
        self.needs_input_grad = True

    @property
    def in_channels(self) -> int:
        return self.w.shape[1]

    @property
    def out_channels(self) -> int:
        return self.w.shape[0]

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        out, cols = F.conv2d_forward(x, self.w, self.b, self.stride, self.pad, self._ws)
        self._cache = (cols, x.shape)
        return out

    def backward(self, dout: np.ndarray) -> np.ndarray | None:
        assert self._cache is not None, "backward before forward"
        cols, x_shape = self._cache
        dx, dw, db = F.conv2d_backward(
            dout, cols, x_shape, self.w, self.stride, self.pad,
            with_bias=self.b is not None, ws=self._ws, need_dx=self.needs_input_grad,
            shared=self.shared_ws,
        )
        self.g_w += dw
        if db is not None:
            self.g_b += db
        return dx

    def macs(self, input_shape: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
        c, h, w = input_shape
        if c != self.in_channels:
            raise ValueError(f"Conv2d expects {self.in_channels} channels, got {c}")
        oh = F.conv_output_size(h, self.kernel, self.stride, self.pad)
        ow = F.conv_output_size(w, self.kernel, self.stride, self.pad)
        m = oh * ow * self.out_channels * self.in_channels * self.kernel * self.kernel
        return m, (self.out_channels, oh, ow)


class BatchNorm2d(Layer):
    """Per-channel batch normalization over NCHW activations."""

    param_names = ("gamma", "beta")
    state_names = ("running_mean", "running_var")
    tensor_axes = {
        "gamma": (None, 0, 1.0),
        "beta": (None, 0, 0.0),
        "running_mean": (None, 0, 0.0),
        "running_var": (None, 0, 1.0),
    }

    def __init__(self, channels: int, momentum: float = 0.9, eps: float = 1e-5):
        dtype = compute_dtype()
        self.gamma = np.ones(channels, dtype=dtype)
        self.beta = np.zeros(channels, dtype=dtype)
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)
        self.momentum = momentum
        self.eps = eps
        self.resize_grads()
        self._cache: tuple | None = None
        self._ws = Workspace()

    @property
    def channels(self) -> int:
        return self.gamma.shape[0]

    # repro: hotpath
    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        ws = self._ws
        xhat = ws.get("bn_xhat", x.shape, x.dtype)
        if train:
            mean = x.mean(axis=(0, 2, 3))
            # Centered input lands straight in the xhat buffer; the
            # variance is mean((x - mean)^2) over the same pooled scratch —
            # the same reduction np.var performs internally, minus np.var's
            # two input-sized temporaries.
            np.subtract(x, mean[None, :, None, None], out=xhat)
            sq = (self.shared_ws or ws).get("bn_tmp", x.shape, x.dtype)
            np.multiply(xhat, xhat, out=sq)
            var = sq.mean(axis=(0, 2, 3))
            # In place, NOT `rm = momentum * rm + ...`: rebinding to a fresh
            # array every step would invalidate the live references handed
            # out by state() (a workspace's arena and its consumers hold
            # those arrays across steps) and allocate twice per step.
            self.running_mean *= self.momentum
            self.running_mean += (1 - self.momentum) * mean
            self.running_var *= self.momentum
            self.running_var += (1 - self.momentum) * var
        else:
            mean, var = self.running_mean, self.running_var
            np.subtract(x, mean[None, :, None, None], out=xhat)
        inv_std = 1.0 / np.sqrt(var + self.eps)
        xhat *= inv_std[None, :, None, None]
        self._cache = (xhat, inv_std, train)
        out = np.multiply(self.gamma[None, :, None, None], xhat, out=x if self.in_place else None)
        out += self.beta[None, :, None, None]
        return out

    # repro: hotpath
    def backward(self, dout: np.ndarray) -> np.ndarray:
        assert self._cache is not None, "backward before forward"
        xhat, inv_std, train = self._cache
        tmp = (self.shared_ws or self._ws).get("bn_tmp", dout.shape, dout.dtype)
        np.multiply(dout, xhat, out=tmp)
        sum_dout_xhat = tmp.sum(axis=(0, 2, 3))
        sum_dout = dout.sum(axis=(0, 2, 3))
        self.g_gamma += sum_dout_xhat
        self.g_beta += sum_dout
        scale = (self.gamma * inv_std)[None, :, None, None]
        out = dout if self.in_place else None  # dout is read only by the sums above
        if not train:
            return np.multiply(dout, scale, out=out)
        # Batch-stat backward, with dxhat = gamma * dout folded into the two
        # sums the parameter gradients already took:
        # dx = gamma inv_std (dout - mean(dout) - xhat * mean(dout * xhat))
        n = dout.shape[0] * dout.shape[2] * dout.shape[3]
        dx = np.subtract(dout, (sum_dout / n)[None, :, None, None], out=out)
        np.multiply(xhat, (sum_dout_xhat / n)[None, :, None, None], out=tmp)
        dx -= tmp
        dx *= scale
        return dx


class LayerNorm(Layer):
    """Layer normalization over the last dimension."""

    param_names = ("gamma", "beta")

    def __init__(self, features: int, eps: float = 1e-5):
        dtype = compute_dtype()
        self.gamma = np.ones(features, dtype=dtype)
        self.beta = np.zeros(features, dtype=dtype)
        self.eps = eps
        self.resize_grads()
        self._cache: tuple | None = None

    @property
    def features(self) -> int:
        return self.gamma.shape[0]

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        mean = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        inv_std = 1.0 / np.sqrt(var + self.eps)
        xhat = (x - mean) * inv_std
        self._cache = (xhat, inv_std)
        return self.gamma * xhat + self.beta

    def backward(self, dout: np.ndarray) -> np.ndarray:
        assert self._cache is not None, "backward before forward"
        xhat, inv_std = self._cache
        axes = tuple(range(dout.ndim - 1))
        self.g_gamma += (dout * xhat).sum(axis=axes)
        self.g_beta += dout.sum(axis=axes)
        dxhat = dout * self.gamma
        n = xhat.shape[-1]
        dx = (
            dxhat
            - dxhat.mean(axis=-1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        ) * inv_std
        return dx


class ReLU(Layer):
    """Elementwise max(x, 0); backward masks by the output it keeps."""

    replica_axis = True
    keeps_output = True

    def __init__(self) -> None:
        self._cache: np.ndarray | None = None

    # repro: hotpath
    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        self._cache = F.relu(x, out=x if self.in_place else None)
        return self._cache

    # repro: hotpath
    def backward(self, dout: np.ndarray) -> np.ndarray:
        assert self._cache is not None
        return F.relu_grad(self._cache, dout, self.shared_ws, out=dout if self.in_place else None)


class GELU(Layer):
    """Elementwise GELU (tanh approximation)."""

    def __init__(self) -> None:
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        self._x = x
        return F.gelu(x)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        assert self._x is not None
        return F.gelu_grad(self._x, dout)


class _Pool2d(Layer):
    """Common plumbing for non-overlapping 2-D pooling (kernel == stride)."""

    def __init__(self, kernel: int = 2):
        self.kernel = kernel
        self._cache: tuple | None = None

    def _split(self, x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        k = self.kernel
        if h % k or w % k:
            raise ValueError(f"pooling kernel {k} must divide spatial dims {(h, w)}")
        return x.reshape(n, c, h // k, k, w // k, k)

    def macs(self, input_shape: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
        c, h, w = input_shape
        k = self.kernel
        return 0, (c, h // k, w // k)


class AvgPool2d(_Pool2d):
    """Non-overlapping average pooling."""

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        self._cache = (x.shape,)
        return self._split(x).mean(axis=(3, 5))

    def backward(self, dout: np.ndarray) -> np.ndarray:
        (x_shape,) = self._cache
        k = self.kernel
        d = np.repeat(np.repeat(dout, k, axis=2), k, axis=3) / (k * k)
        return d.reshape(x_shape)


class MaxPool2d(_Pool2d):
    """Non-overlapping max pooling: a running ``np.maximum`` over the k*k
    strided window-position views.  The gradient goes to the first element
    (row-major) of each window that equals the window's max."""

    keeps_output = True

    def __init__(self, kernel: int = 2):
        super().__init__(kernel)
        self._ws = Workspace()

    def _slots(self, x: np.ndarray) -> list[np.ndarray]:
        """The k*k window positions as strided ``(N, C, OH, OW)`` views of ``x``."""
        k = self.kernel
        return [x[:, :, i::k, j::k] for i in range(k) for j in range(k)]

    # repro: hotpath
    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        self._split(x)  # validates divisibility
        slots = self._slots(x)
        out = self._ws.get("mp_out", slots[0].shape, x.dtype)
        np.maximum(slots[0], slots[-1], out=out)
        for slot in slots[1:-1]:
            np.maximum(out, slot, out=out)
        self._cache = (x, out)
        return out

    # repro: hotpath
    def backward(self, dout: np.ndarray) -> np.ndarray:
        x, out = self._cache
        dx = self._ws.get("mp_dx", x.shape, dout.dtype)
        # ``unclaimed`` windows have not met their max yet.  A NaN window
        # equals nothing, so none of its elements ever receives gradient.
        shared = self.shared_ws or self._ws
        unclaimed = shared.get("mp_unclaimed", out.shape, np.dtype(bool))
        unclaimed[...] = True
        won = shared.get("mp_won", out.shape, np.dtype(bool))
        for src, dst in zip(self._slots(x), self._slots(dx)):
            np.equal(src, out, out=won)
            won &= unclaimed
            unclaimed ^= won
            np.multiply(dout, won, out=dst)
        return dx


class GlobalAvgPool2d(Layer):
    """Collapse NCHW activations to NC by spatial averaging."""

    def __init__(self) -> None:
        self._shape: tuple[int, ...] | None = None
        self._ws = Workspace()

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        self._shape = x.shape
        return x.mean(axis=(2, 3))

    # repro: hotpath
    def backward(self, dout: np.ndarray) -> np.ndarray:
        n, c, h, w = self._shape
        dx = self._ws.get("gap_dx", (n, c, h, w), dout.dtype)
        np.divide(np.broadcast_to(dout[:, :, None, None], (n, c, h, w)), h * w, out=dx)
        return dx

    def macs(self, input_shape: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
        c, h, w = input_shape
        return 0, (c,)

