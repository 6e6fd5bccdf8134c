"""Optimizers.

Two kinds live here:

* **Local optimizers** (:class:`SGD`) drive the client-side steps of local
  training.  They operate directly on a model's live parameter tree.
* **The server optimizer** (:class:`Yogi`) consumes the *pseudo-gradient*
  (global weights minus aggregated client weights) and produces the next
  global weights: the adaptive server update of the paper's FedYogi
  baseline (Reddi et al., "Adaptive Federated Optimization").
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from ..stateful import Stateful
from .param_ops import ParamTree, tree_copy

__all__ = ["SGD", "Yogi"]


class SGD(Stateful):
    """Stochastic gradient descent with optional momentum and weight decay.

    Operates in place on the live ``params`` references a model exposes, so a
    single optimizer instance follows the model through structural
    transformations as long as :meth:`reset` is called after a transform (the
    momentum buffers are keyed by parameter name and validated by shape).

    The step is allocation-free at steady state: per-parameter scratch and
    velocity buffers are allocated once (keyed by name, revalidated by
    shape) and every update lands through in-place ufuncs whose operand
    order reproduces the naive ``p -= lr * (momentum * v + g + wd * p)``
    expression bit for bit.
    """

    # Velocity is trajectory; scratch is write-before-read per step and is
    # rebuilt lazily, so it is omitted (Stateful payload convention).
    state_fields = {"velocity": ("_velocity", dict[str, np.ndarray])}

    def __init__(self, lr: float, momentum: float = 0.0, weight_decay: float = 0.0):
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity: dict[str, np.ndarray] = {}
        self._scratch: dict[str, np.ndarray] = {}

    def reset(self) -> None:
        """Drop momentum state (call after a structural transform)."""
        self._velocity.clear()
        self._scratch.clear()

    def step(self, params: Mapping[str, np.ndarray], grads: Mapping[str, np.ndarray]) -> None:
        """Apply one update in place."""
        for name, p in params.items():
            g = grads[name]
            s = self._scratch.get(name)
            if s is None or s.shape != p.shape or s.dtype != p.dtype:
                s = self._scratch[name] = np.empty_like(p)
            if self.weight_decay:
                # wd * p + g == g + wd * p (addition commutes exactly)
                np.multiply(p, self.weight_decay, out=s)
                s += g
                g = s
            if self.momentum:
                v = self._velocity.get(name)
                if v is None or v.shape != p.shape:
                    v = np.zeros_like(p)
                    self._velocity[name] = v
                v *= self.momentum
                v += g
                g = v
            np.multiply(g, self.lr, out=s)  # aliasing-safe when g is s
            p -= s


class Yogi(Stateful):
    """Yogi adaptive server optimizer (the FedYogi server step).

    ``v`` grows only where the squared pseudo-gradient exceeds it, which keeps
    the effective step size from collapsing under heterogeneous client
    updates — the property FedYogi relies on in non-IID FL.
    """

    state_fields = {
        "m": ("_m", dict[str, np.ndarray] | None),
        "v": ("_v", dict[str, np.ndarray] | None),
    }

    def __init__(
        self,
        lr: float = 0.01,
        beta1: float = 0.9,
        beta2: float = 0.99,
        tau: float = 1e-3,
    ):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.tau = tau
        self._m: ParamTree | None = None
        self._v: ParamTree | None = None

    def reset(self) -> None:
        self._m = None
        self._v = None

    def step(self, weights: ParamTree, pseudo_grad: Mapping[str, np.ndarray]) -> ParamTree:
        if self._m is None or self._m.keys() != weights.keys() or any(
            self._m[k].shape != weights[k].shape for k in weights
        ):
            self._m = {k: np.zeros_like(v) for k, v in weights.items()}
            self._v = {k: np.full_like(v, self.tau**2) for k, v in weights.items()}
        out: ParamTree = {}
        for k, w in weights.items():
            g = pseudo_grad[k]
            self._m[k] = self.beta1 * self._m[k] + (1 - self.beta1) * g
            g2 = g * g
            self._v[k] = self._v[k] - (1 - self.beta2) * g2 * np.sign(self._v[k] - g2)
            out[k] = w - self.lr * self._m[k] / (np.sqrt(self._v[k]) + self.tau)
        return out

    def snapshot(self) -> tuple[ParamTree | None, ParamTree | None]:
        """Copies of the optimizer state."""
        m = tree_copy(self._m) if self._m is not None else None
        v = tree_copy(self._v) if self._v is not None else None
        return m, v
