"""Low-level array kernels for the NumPy neural-network substrate.

Everything here is a pure function on :class:`numpy.ndarray` values, written
with vectorized NumPy idioms (no per-element Python loops on the hot path).
A convolution is window lowering plus BLAS: :func:`im2col` is one strided
copy of a ``sliding_window_view``; the forward pass and the weight gradient
are batched GEMMs over those columns (``dW``: one GEMM per sample into a
staging buffer, then a sum over the batch); the input gradient is a
stride-1 convolution of the zero-dilated, zero-padded ``dout`` with the
flipped, channel-transposed filters — lowered the same way, no scatter-add.

Hot-path kernels take an optional :class:`~repro.nn.compute.Workspace`
holding every large intermediate across steps; ``ws=None`` means a
throwaway workspace, i.e. fresh buffers.  The arithmetic is the same either
way (pooling is bit-transparent): every buffer is fully overwritten before
it is read, except zero borders, which are written when the buffer is born
and never again — so a workspace belongs to one (kernel, stride, pad).
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .compute import Workspace

__all__ = [
    "conv_output_size",
    "im2col",
    "conv2d_forward",
    "conv2d_backward",
    "relu",
    "relu_grad",
    "gelu",
    "gelu_grad",
    "softmax",
    "log_softmax",
]


def conv_output_size(size: int, kernel: int, stride: int, pad: int) -> int:
    """Spatial output size of a convolution along one dimension."""
    out = (size + 2 * pad - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"convolution produces non-positive output size {out} "
            f"(input={size}, kernel={kernel}, stride={stride}, pad={pad})"
        )
    return out


def _windows(x: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    """Every ``kh x kw`` window of ``(N, C, H, W)`` as a ``(N, C, kh, kw, OH, OW)`` view."""
    win = sliding_window_view(x, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    return win.transpose(0, 1, 4, 5, 2, 3)


# repro: hotpath
def im2col(
    x: np.ndarray, kh: int, kw: int, stride: int, pad: int, ws: Workspace | None = None
) -> tuple[np.ndarray, int, int]:
    """Lower the sliding windows of an ``(N, C, H, W)`` input into columns.

    Returns ``(cols, oh, ow)``: ``cols`` of shape ``(N, C*kh*kw, OH*OW)``
    and the spatial output sizes.
    """
    ws = ws or Workspace()
    n, c, h, w = x.shape
    oh = conv_output_size(h, kh, stride, pad)
    ow = conv_output_size(w, kw, stride, pad)
    if pad > 0:
        # The border is written only when the buffer is born (it is
        # always zero); the interior is rewritten every call.
        xp = ws.get(
            "im2col_pad", (n, c, h + 2 * pad, w + 2 * pad), x.dtype, zero_first=True
        )
        xp[:, :, pad : pad + h, pad : pad + w] = x
        x = xp
    cols = ws.get("im2col_cols", (n, c, kh, kw, oh, ow), x.dtype)
    cols[...] = _windows(x, kh, kw, stride)
    return cols.reshape(n, c * kh * kw, oh * ow), oh, ow


# repro: hotpath
def conv2d_forward(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None,
    stride: int,
    pad: int,
    ws: Workspace | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """2-D convolution forward pass.

    Parameters
    ----------
    x:
        ``(N, C, H, W)`` input.
    weight:
        ``(F, C, kh, kw)`` filters.
    bias:
        ``(F,)`` or ``None``.

    Returns
    -------
    out:
        ``(N, F, OH, OW)``.
    cols:
        The im2col buffer, cached for the backward pass.
    """
    ws = ws or Workspace()
    f, c, kh, kw = weight.shape
    cols, oh, ow = im2col(x, kh, kw, stride, pad, ws)
    n = x.shape[0]
    out = ws.get("conv_out", (n, f, oh * ow), cols.dtype)
    np.matmul(weight.reshape(f, c * kh * kw)[None], cols, out=out)
    if bias is not None:
        out += bias[None, :, None]
    return out.reshape(n, f, oh, ow), cols


def _placed(offset: int, stride: int, count: int, size: int) -> tuple[slice, slice]:
    """Slices putting source index ``a < count`` at ``offset + stride * a``,
    dropping whatever falls outside ``[0, size)`` (only when pad >= kernel)."""
    lo = max(0, -(offset // stride))
    hi = max(lo, min(count, (size - 1 - offset) // stride + 1))
    return slice(lo, hi), slice(offset + stride * lo, offset + stride * hi, stride)


# repro: hotpath
def conv2d_backward(
    dout: np.ndarray,
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    weight: np.ndarray,
    stride: int,
    pad: int,
    with_bias: bool = True,
    ws: Workspace | None = None,
    need_dx: bool = True,
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray | None]:
    """Backward pass of :func:`conv2d_forward`.

    Returns ``(dx, dweight, dbias)``; ``dbias`` is ``None`` when
    ``with_bias`` is false and ``dx`` is ``None`` (never computed) when
    ``need_dx`` is false.
    """
    ws = ws or Workspace()
    f, c, kh, kw = weight.shape
    n, _, h, w = x_shape
    oh, ow = dout.shape[2:]
    dflat = dout.reshape(n, f, oh * ow)

    # dW[f, k] = sum_n dflat[n] @ cols[n].T
    per_sample = ws.get("conv_dw_n", (n, f, c * kh * kw), weight.dtype)
    np.matmul(dflat, cols.transpose(0, 2, 1), out=per_sample)
    dw = ws.get("conv_dw", weight.shape, weight.dtype)
    per_sample.sum(axis=0, out=dw.reshape(f, c * kh * kw))
    db = None
    if with_bias:
        db = ws.get("conv_db", (f,), weight.dtype)
        dflat.sum(axis=(0, 2), out=db)
    if not need_dx:
        return None, dw, db

    # dx[y, x] = sum_{f,i,j} w[f, :, i, j] * dout[f, (y+pad-i)/s, (x+pad-j)/s]:
    # with dout[a, b] placed at (kh-1-pad + s*a, kw-1-pad + s*b) of a zero
    # canvas, that is the canvas correlated with the flipped filters.
    canvas = ws.get(
        "conv_dx_canvas", (n, f, h + kh - 1, w + kw - 1), dout.dtype, zero_first=True
    )
    src_r, dst_r = _placed(kh - 1 - pad, stride, oh, h + kh - 1)
    src_c, dst_c = _placed(kw - 1 - pad, stride, ow, w + kw - 1)
    canvas[:, :, dst_r, dst_c] = dout[:, :, src_r, src_c]
    dcols = ws.get("conv_dx_cols", (n, f, kh, kw, h, w), dout.dtype)
    dcols[...] = _windows(canvas, kh, kw, 1)
    flipped = ws.get("conv_dx_w", (c, f, kh, kw), weight.dtype)
    flipped[...] = weight[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
    dx = ws.get("conv_dx", (n, c, h * w), dout.dtype)
    np.matmul(
        flipped.reshape(c, f * kh * kw)[None],
        dcols.reshape(n, f * kh * kw, h * w),
        out=dx,
    )
    return dx.reshape(n, c, h, w), dw, db


# repro: hotpath
def relu(x: np.ndarray, ws: Workspace | None = None) -> np.ndarray:
    """Rectified linear unit."""
    ws = ws or Workspace()
    out = ws.get("relu_out", x.shape, x.dtype)
    np.maximum(x, 0.0, out=out)
    return out


# repro: hotpath
def relu_grad(
    x: np.ndarray, dout: np.ndarray, ws: Workspace | None = None
) -> np.ndarray:
    """Gradient of ReLU with respect to its input."""
    ws = ws or Workspace()
    mask = ws.get("relu_mask", x.shape, np.dtype(bool))
    np.greater(x, 0, out=mask)
    dx = ws.get("relu_dx", dout.shape, dout.dtype)
    np.multiply(dout, mask, out=dx)
    return dx


# A Python float (not a NumPy scalar) so NEP-50 weak promotion keeps
# float32 activations in float32.
_GELU_C = float(np.sqrt(2.0 / np.pi))


def gelu(x: np.ndarray) -> np.ndarray:
    """Gaussian error linear unit (tanh approximation)."""
    return 0.5 * x * (1.0 + np.tanh(_GELU_C * (x + 0.044715 * x**3)))


def gelu_grad(x: np.ndarray, dout: np.ndarray) -> np.ndarray:
    """Gradient of the tanh-approximated GELU."""
    t = np.tanh(_GELU_C * (x + 0.044715 * x**3))
    dt = (1.0 - t**2) * _GELU_C * (1.0 + 3 * 0.044715 * x**2)
    return dout * (0.5 * (1.0 + t) + 0.5 * x * dt)


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    z = x - x.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax."""
    z = x - x.max(axis=axis, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=axis, keepdims=True))
