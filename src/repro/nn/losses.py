"""Loss functions.

Losses return ``(value, dlogits)`` so training code can immediately start the
backward pass.  Values are means over the batch, matching the convention used
by the FL cost accounting (per-sample losses aggregate across clients by
sample-count weighting).

:func:`softmax_cross_entropy` runs on pooled scratch buffers (one
:class:`~repro.nn.compute.Workspace` per thread, so parallel backends never
share scratch): at a steady batch shape the loss allocates nothing per step.
The pooled path performs exactly the arithmetic of the naive expression —
``z - log(exp(z).sum())``, ``(softmax - target) / n`` — so it is
bit-identical to the pre-pooling implementation.  The returned ``dlogits``
is freshly allocated (callers may hold it across later loss calls); only
the internal intermediates are pooled.
"""

from __future__ import annotations

import threading

import numpy as np

from .compute import Workspace

__all__ = ["softmax_cross_entropy", "accuracy"]

_tls = threading.local()


def _ws() -> Workspace:
    ws = getattr(_tls, "ws", None)
    if ws is None:
        ws = _tls.ws = Workspace()
    return ws


def softmax_cross_entropy(
    logits: np.ndarray, labels: np.ndarray, label_smoothing: float = 0.0
) -> tuple[float | np.ndarray, np.ndarray]:
    """Mean softmax cross-entropy and its gradient w.r.t. the logits.

    Parameters
    ----------
    logits:
        ``(N, K)`` unnormalized scores, or ``(R, N, K)`` for R stacked
        replicas — R independent losses, each the mean over its own N rows
        and bit-identical to the 2-D call on that slice.
    labels:
        ``(N,)`` / ``(R, N)`` integer class labels.
    label_smoothing:
        Mass spread uniformly over the other classes.

    The loss is a ``float`` for 2-D logits and an ``(R,)`` array otherwise.
    """
    n, k = logits.shape[-2:]
    lead = logits.shape[:-2]
    if labels.shape != lead + (n,):
        raise ValueError(f"labels shape {labels.shape} does not match logits {logits.shape}")
    if np.any(labels < 0) or np.any(labels >= k):
        raise ValueError("labels out of range for logits")
    ws = _ws()
    # log_softmax: z = x - max; logp = z - log(exp(z).sum())
    z = ws.get("xent_z", logits.shape, logits.dtype)
    np.subtract(logits, logits.max(axis=-1, keepdims=True), out=z)
    e = ws.get("xent_e", logits.shape, logits.dtype)
    np.exp(z, out=e)
    esum = e.sum(axis=-1, keepdims=True)
    logp = z  # z is dead after this point; reuse it in place
    np.subtract(z, np.log(esum), out=logp)
    # The target distribution follows the logits dtype (float32 runs stay
    # float32 end to end).
    target = ws.get("xent_target", logits.shape, logits.dtype)
    target[...] = label_smoothing / (k - 1) if label_smoothing > 0.0 and k > 1 else 0.0
    # One row per sample whatever the rank: the buffer is contiguous.
    target.reshape(-1, k)[np.arange(labels.size), labels.reshape(-1)] = 1.0 - label_smoothing
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
