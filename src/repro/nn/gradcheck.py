"""Numerical gradient checking.

Used by the test suite to certify every hand-written backward pass against
central finite differences.  Two guards deal with piecewise-linear
nonlinearities (ReLU, max-pool):

* **Jitter** — all parameters receive a tiny random offset before checking.
  Zero-initialized biases otherwise park pre-activations *exactly* on the
  ReLU kink (e.g. a dead upstream sample makes pre-activation == bias == 0),
  where a central difference measures the mean of the one-sided slopes, not
  the subgradient the backward pass returns.  Jitter makes exact kinks a
  measure-zero event.
* **Two-eps consistency** — each coordinate is probed at ``eps`` and
  ``eps/5``; when the two estimates disagree the probe straddles a kink and
  the coordinate is skipped rather than reported as a gradient bug.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

__all__ = ["max_relative_grad_error", "check_model_gradients"]


def max_relative_grad_error(
    loss_fn: Callable[[], float],
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    rng: np.random.Generator,
    eps: float = 1e-5,
    samples_per_tensor: int = 6,
    abs_floor: float = 1e-7,
) -> float:
    """Largest relative error between analytic and numeric gradients.

    ``loss_fn`` must recompute the loss from the *live* parameter arrays in
    ``params``; ``grads`` holds the analytic gradients already accumulated
    for the same loss.  Differences below ``abs_floor`` are ignored —
    central differences of an O(1) loss bottom out around 1e-11 of noise,
    which would otherwise register as a large *relative* error on
    coordinates whose true gradient is exactly zero.
    """
    worst = 0.0
    for name, p in params.items():
        g = grads[name]
        flat_p = p.reshape(-1)
        flat_g = g.reshape(-1)
        n = flat_p.size
        idxs = rng.choice(n, size=min(samples_per_tensor, n), replace=False)
        for i in idxs:
            orig = flat_p[i]

            def probe(e: float) -> float:
                flat_p[i] = orig + e
                up = loss_fn()
                flat_p[i] = orig - e
                down = loss_fn()
                flat_p[i] = orig
                return (up - down) / (2 * e)

            n1 = probe(eps)
            diff = abs(n1 - flat_g[i])
            if diff < abs_floor:
                continue
            n2 = probe(eps / 5)
            if abs(n1 - n2) > 0.05 * max(abs(n1), abs(n2), 1e-6):
                continue  # probe straddles a kink; not a gradient bug
            denom = max(abs(n1), abs(flat_g[i]), 1e-8)
            worst = max(worst, abs(n1 - flat_g[i]) / denom)
    return worst


def check_model_gradients(
    model,
    x: np.ndarray,
    y: np.ndarray,
    rng: np.random.Generator,
    samples_per_tensor: int = 4,
    jitter: float = 1e-3,
) -> float:
    """Gradcheck a :class:`~repro.nn.model.CellModel` on a batch.

    Gradients are checked in training mode — exactly the code path FL local
    steps use.  ``jitter`` nudges every parameter off exact nonlinearity
    kinks first (see module docstring); pass 0 to disable.
    """
    from .losses import one_hot, softmax_cross_entropy

    if jitter:
        for p in model.params().values():
            p += rng.uniform(-jitter, jitter, size=p.shape)
    target = one_hot(y, model.num_classes, x.dtype)

    def loss_fn() -> float:
        loss, _ = softmax_cross_entropy(model.forward(x, train=True), target)
        return loss

    model.zero_grad()
    model.target_loss_and_grad(x, target)
    return max_relative_grad_error(
        loss_fn, model.params(), model.grads(), rng, samples_per_tensor=samples_per_tensor
    )
