"""Transformer building blocks: patch embedding and multi-head self-attention.

These power the ViT cells used by the paper's Table 4 experiment (FedTrans on
ViT models).  Shapes follow the ``(N, T, D)`` token convention.
"""

from __future__ import annotations

import numpy as np

from .functional import softmax
from .init import xavier_uniform, zeros
from .layers import Layer

__all__ = ["PatchEmbed", "MultiHeadSelfAttention"]


class PatchEmbed(Layer):
    """Split an NCHW image into flat patches and project them to tokens.

    Adds a learnable positional embedding.  ``H`` and ``W`` must be divisible
    by ``patch``.
    """

    def __init__(
        self,
        in_channels: int,
        image_size: int,
        patch: int,
        dim: int,
        rng: np.random.Generator,
    ):
        if image_size % patch != 0:
            raise ValueError(f"patch {patch} must divide image size {image_size}")
        self.patch = patch
        self.in_channels = in_channels
        self.image_size = image_size
        self.tokens = (image_size // patch) ** 2
        in_features = in_channels * patch * patch
        self.w = xavier_uniform(rng, (in_features, dim), in_features, dim)
        self.b = zeros((dim,))
        self.pos = rng.normal(0.0, 0.02, size=(self.tokens, dim)).astype(
            self.w.dtype, copy=False
        )
        self.g_w = np.zeros_like(self.w)
        self.g_b = np.zeros_like(self.b)
        self.g_pos = np.zeros_like(self.pos)
        self._cache: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.w.shape[1]

    def _to_patches(self, x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        p = self.patch
        x = x.reshape(n, c, h // p, p, w // p, p)
        # (N, gh, gw, C, p, p) -> (N, T, C*p*p)
        return x.transpose(0, 2, 4, 1, 3, 5).reshape(n, self.tokens, c * p * p)

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        patches = self._to_patches(x)
        self._cache = patches
        self._x_shape = x.shape
        return patches @ self.w + self.b + self.pos

    def backward(self, dout: np.ndarray) -> np.ndarray:
        patches = self._cache
        self.g_pos += dout.sum(axis=0)
        self.g_b += dout.sum(axis=(0, 1))
        # Sum over (sample, token) as one (F, N*T) @ (N*T, D) GEMM.
        self.g_w += patches.reshape(-1, self.w.shape[0]).T @ dout.reshape(-1, self.dim)
        dpatches = dout @ self.w.T
        n, c, h, w = self._x_shape
        p = self.patch
        d = dpatches.reshape(n, h // p, w // p, c, p, p).transpose(0, 3, 1, 4, 2, 5)
        return d.reshape(n, c, h, w)

    def params(self) -> dict[str, np.ndarray]:
        return {"w": self.w, "b": self.b, "pos": self.pos}

    def grads(self) -> dict[str, np.ndarray]:
        return {"w": self.g_w, "b": self.g_b, "pos": self.g_pos}

    def macs(self, input_shape: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
        c, h, w = input_shape
        m = self.tokens * self.w.shape[0] * self.w.shape[1]
        return m, (self.tokens, self.dim)


class MultiHeadSelfAttention(Layer):
    """Standard multi-head self-attention over ``(N, T, D)`` tokens."""

    def __init__(self, dim: int, heads: int, rng: np.random.Generator):
        if dim % heads != 0:
            raise ValueError(f"heads {heads} must divide dim {dim}")
        self.heads = heads
        self.w_qkv = xavier_uniform(rng, (dim, 3 * dim), dim, 3 * dim)
        self.b_qkv = zeros((3 * dim,))
        self.w_out = xavier_uniform(rng, (dim, dim), dim, dim)
        self.b_out = zeros((dim,))
        self.g_w_qkv = np.zeros_like(self.w_qkv)
        self.g_b_qkv = np.zeros_like(self.b_qkv)
        self.g_w_out = np.zeros_like(self.w_out)
        self.g_b_out = np.zeros_like(self.b_out)
        self._cache: tuple | None = None

    @property
    def dim(self) -> int:
        return self.w_out.shape[0]

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        n, t, d = x.shape
        h = self.heads
        hd = d // h
        qkv = x @ self.w_qkv + self.b_qkv  # (N, T, 3D)
        q, k, v = np.split(qkv, 3, axis=-1)
        # (N, h, T, hd)
        q = q.reshape(n, t, h, hd).transpose(0, 2, 1, 3)
        k = k.reshape(n, t, h, hd).transpose(0, 2, 1, 3)
        v = v.reshape(n, t, h, hd).transpose(0, 2, 1, 3)
        # A Python float so NEP-50 weak promotion keeps float32 scores float32.
        scale = float(1.0 / np.sqrt(hd))
        scores = np.matmul(q, k.transpose(0, 1, 3, 2)) * scale  # (N, h, T, T)
        probs = softmax(scores, axis=-1)
        ctx = np.matmul(probs, v)  # (N, h, T, hd)
        ctx_flat = ctx.transpose(0, 2, 1, 3).reshape(n, t, d)
        out = ctx_flat @ self.w_out + self.b_out
        self._cache = (x, q, k, v, probs, ctx_flat, scale)
        return out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        x, q, k, v, probs, ctx_flat, scale = self._cache
        n, t, d = x.shape
        h = self.heads
        hd = d // h
        self.g_b_out += dout.sum(axis=(0, 1))
        self.g_w_out += ctx_flat.reshape(n * t, d).T @ dout.reshape(n * t, d)
        dctx_flat = dout @ self.w_out.T
        dctx = dctx_flat.reshape(n, t, h, hd).transpose(0, 2, 1, 3)
        dprobs = np.matmul(dctx, v.transpose(0, 1, 3, 2))
        dv = np.matmul(probs.transpose(0, 1, 3, 2), dctx)
        # softmax backward
        dscores = probs * (dprobs - (dprobs * probs).sum(axis=-1, keepdims=True))
        dscores *= scale
        dq = np.matmul(dscores, k)
        dk = np.matmul(dscores.transpose(0, 1, 3, 2), q)
        dqkv = np.concatenate(
            [
                dq.transpose(0, 2, 1, 3).reshape(n, t, d),
                dk.transpose(0, 2, 1, 3).reshape(n, t, d),
                dv.transpose(0, 2, 1, 3).reshape(n, t, d),
            ],
            axis=-1,
        )
        self.g_b_qkv += dqkv.sum(axis=(0, 1))
        self.g_w_qkv += x.reshape(n * t, d).T @ dqkv.reshape(n * t, 3 * d)
        return dqkv @ self.w_qkv.T

    def params(self) -> dict[str, np.ndarray]:
        return {
            "w_qkv": self.w_qkv,
            "b_qkv": self.b_qkv,
            "w_out": self.w_out,
            "b_out": self.b_out,
        }

    def grads(self) -> dict[str, np.ndarray]:
        return {
            "w_qkv": self.g_w_qkv,
            "b_qkv": self.g_b_qkv,
            "w_out": self.g_w_out,
            "b_out": self.g_b_out,
        }

    def macs(self, input_shape: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
        t, d = input_shape
        qkv = t * d * 3 * d
        attn = 2 * self.heads * t * t * (d // self.heads)
        out = t * d * d
        return qkv + attn + out, (t, d)
