"""Losses.

Losses return ``(value, dlogits)`` so training code can immediately start the
backward pass.  Values are means over the batch, matching the convention used
by the FL cost accounting (per-sample losses aggregate across clients by
sample-count weighting).

:func:`softmax_cross_entropy` takes its target as one-hot rows
(:func:`one_hot`), so a caller that trains many steps on one item's labels
checks and scatters them once (:meth:`repro.fl.client.LocalTrainer.train`).
It runs on pooled scratch buffers (one
:class:`~repro.nn.compute.Workspace` per thread, so parallel backends never
share scratch): at a steady batch shape the loss allocates nothing but its
result.  The pooled path performs exactly the arithmetic of the naive
expression — ``z - log(exp(z).sum())``, ``(softmax - target) / n`` — so it
is bit-identical to the pre-pooling implementation.  The returned
``dlogits`` is freshly allocated (callers may hold it across later loss
calls); only the internal intermediates are pooled.
"""

from __future__ import annotations

import threading

import numpy as np

from .compute import Workspace

__all__ = ["one_hot", "softmax_cross_entropy", "accuracy"]

_tls = threading.local()


def _ws() -> Workspace:
    ws = getattr(_tls, "ws", None)
    if ws is None:
        ws = _tls.ws = Workspace()
    return ws


def one_hot(labels: np.ndarray, num_classes: int, dtype: np.dtype) -> np.ndarray:
    """``labels`` (integers, any shape) as one-hot rows of ``num_classes``.

    The result has shape ``labels.shape + (num_classes,)`` and holds exactly
    ``1.0`` and ``0.0``; a label outside ``[0, num_classes)`` raises.
    """
    if np.any(labels < 0) or np.any(labels >= num_classes):
        raise ValueError("labels out of range for logits")
    return np.equal(labels[..., None], np.arange(num_classes)).astype(dtype)


def softmax_cross_entropy(
    logits: np.ndarray, target: np.ndarray
) -> tuple[float | np.ndarray, np.ndarray]:
    """Mean softmax cross-entropy and its gradient w.r.t. the logits.

    Parameters
    ----------
    logits:
        ``(N, K)`` unnormalized scores, or ``(R, N, K)`` for R stacked
        replicas — R independent losses, each the mean over its own N rows
        and bit-identical to the 2-D call on that slice.
    target:
        One-hot rows of the same shape (:func:`one_hot`).

    The loss is a ``float`` for 2-D logits and an ``(R,)`` array otherwise.
    """
    if target.shape != logits.shape:
        raise ValueError(f"target shape {target.shape} does not match logits {logits.shape}")
    n = logits.shape[-2]
    lead = logits.shape[:-2]
    ws = _ws()
    # log_softmax: z = x - max; logp = z - log(exp(z).sum())
    z = ws.get("xent_z", logits.shape, logits.dtype)
    np.subtract(logits, logits.max(axis=-1, keepdims=True), out=z)
    e = ws.get("xent_e", logits.shape, logits.dtype)
    np.exp(z, out=e)
    esum = e.sum(axis=-1, keepdims=True)
    logp = z  # z is dead after this point; reuse it in place
    np.subtract(z, np.log(esum), out=logp)
    tmp = ws.get("xent_tmp", logits.shape, logits.dtype)
    np.multiply(target, logp, out=tmp)
    # Each replica's n*k products summed as one contiguous row: the same
    # pairwise reduction ``tmp.sum()`` performs on a 2-D buffer.
    loss = -tmp.reshape(lead + (-1,)).sum(axis=-1) / n
    # softmax = exp(z) / exp(z).sum(); dlogits = (softmax - target) / n.
    # dlogits is the one fresh allocation per call: callers may hold it
    # across later loss calls (numeric-gradient checks do), so it must not
    # alias the pooled scratch.
    dlogits = np.divide(e, esum)
    np.subtract(dlogits, target, out=dlogits)
    dlogits /= n
    return (loss if lead else float(loss)), dlogits


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Top-1 accuracy."""
    if len(labels) == 0:
        return 0.0
    return float((logits.argmax(axis=-1) == labels).mean())
