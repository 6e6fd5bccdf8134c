"""Client-side local training.

Implements the per-participant step of Algorithm 1 (``ClientTrain``):
mini-batch SGD for ``local_steps`` steps on the client's data, returning
the trained weights, the mean training loss, and cost accounting.

Supports the FedProx proximal term (μ/2·‖w − w_global‖²) so FedProx and
"FedTrans + FedProx" (Fig. 8) share this code path.

**The replica axis.**  Every participant assigned model *M* starts from the
same weights with the same shapes, so a *cohort* — K participants of one
model with one ``min(batch_size, n)`` — trains as K replicas of one NumPy
loop: parameters ``(K, …)``, activations ``(K, B, …)``, one ``np.matmul``
per layer per step for the whole cohort
(:meth:`repro.nn.model.CellModel.replicate`).  :meth:`LocalTrainer.train`
is that one loop; training one client is its no-axis case (the same
operations on tensors without the leading axis), not a second loop.  What
stays per replica: the RNG stream (drawn in the same order), the batch
indices, the clip norm, the FedProx anchor, momentum and weight-decay
state, and the loss mean.  Replica ``r`` of a cohort is bit-identical to
training client ``r`` alone (CONTRACTS.md I3;
``tests/test_stacked_kernels.py``, ``tests/test_cohort_invariance.py``).
Models holding a layer without the axis (conv, norms, attention) are never
stacked: their cohorts are singletons.

**A step is a few array ops.**  The model trains as a workspace whose
parameters and gradients are two flat buffers (:class:`~repro.nn.model.Arena`),
and everything an item needs beyond the forward/backward pass is built once:
every step's batch is one gather and its one-hot target one scatter
(:func:`~repro.nn.losses.one_hot`, which checks the labels).  A step is then
a ``fill`` of the gradients, the forward/backward pass, the clip (one square
of the gradients, one contiguous reduce per tensor, and a scale only when a
replica crosses the threshold), the FedProx term and :meth:`SGD.step
<repro.nn.optim.SGD.step>` — each elementwise over the whole arena.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..device.latency import client_round_time
from ..nn.compute import accum_dtype
from ..nn.losses import one_hot
from ..nn.model import Arena, CellModel
from ..nn.optim import SGD
from .types import ClientUpdate, FLClient

__all__ = ["LocalTrainerConfig", "LocalTrainer"]


@dataclass(frozen=True)
class LocalTrainerConfig:
    """Hyperparameters of local training (paper Table 7 defaults)."""

    batch_size: int = 10
    local_steps: int = 20
    lr: float = 0.05
    momentum: float = 0.0
    weight_decay: float = 0.0
    prox_mu: float = 0.0  # FedProx proximal coefficient; 0 disables
    clip_norm: float = 10.0  # global gradient-norm clip per step; 0 disables

    def __post_init__(self) -> None:
        # A comparison with NaN is False, so each range is stated as what
        # holds: a NaN clip_norm would silently turn the clip off.
        for name in ("batch_size", "local_steps"):
            if not getattr(self, name) >= 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)!r}")
        if not 0 < self.lr < math.inf:
            raise ValueError(f"lr must be positive and finite, got {self.lr!r}")
        if not 0 <= self.momentum < 1:
            raise ValueError(f"momentum must lie in [0, 1), got {self.momentum!r}")
        for name in ("weight_decay", "prox_mu", "clip_norm"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(
                    f"{name} must be >= 0 and finite (0 disables), got {getattr(self, name)!r}"
                )


def clip_by_global_norm(arena: Arena, clip_norm: float) -> None:
    """Scale ``arena.grads`` in place so each replica's global norm is <= ``clip_norm``.

    The gradients are squared into ``arena.scratch`` in one pass; each
    tensor's squared norm is then its block reduced as one contiguous row per
    replica — ``(g**2).reshape(lead + (-1,)).sum(-1)``, the pairwise
    summation the parent took per tensor (a BLAS dot, or
    ``np.add.reduceat``'s sequential sum, orders the additions differently
    and would shift clip-triggering runs off their recorded trajectories) —
    and the per-tensor sums are accumulated in the accumulator dtype in
    parameter order (``np.add.accumulate`` is that left-to-right sum).
    Only when some replica is over the threshold are the gradients scaled,
    a replica under it by exactly 1.0 (a bitwise no-op), so replicas clip
    independently.
    """
    np.square(arena.grads, out=arena.scratch)
    rows = arena.scratch_rows
    sums = np.empty((len(rows), rows[0].shape[0]), arena.grads.dtype)  # (tensors, K)
    for squares, out in zip(rows, sums):
        np.add.reduce(squares, axis=-1, out=out)
    gnorm = np.sqrt(np.add.accumulate(sums.astype(accum_dtype()), axis=0)[-1])
    over = gnorm > clip_norm
    if not over.any():
        return
    scale = np.ones_like(gnorm)
    np.divide(clip_norm, gnorm, out=scale, where=over)
    # Cast first: the scale multiplies in the gradient's own dtype, as the
    # Python-float scale of a single tree does under NEP 50.
    scale = scale.astype(arena.grads.dtype)[:, None]
    for rows in arena.grad_rows:
        rows *= scale


def fedprox_grads(arena: Arena, anchor: np.ndarray, mu: float) -> np.ndarray:
    """The FedProx step gradient ``g + mu * (w - anchor)`` over the whole
    arena, written into ``arena.scratch``: operand for operand the parent's
    per-tensor expression (the product and the sum commute exactly)."""
    out = np.subtract(arena.params, anchor, out=arena.scratch)
    out *= mu
    out += arena.grads
    return out


class LocalTrainer:
    """Runs local training rounds for participants."""

    def __init__(self, config: LocalTrainerConfig):
        self.config = config

    def train(
        self,
        model: CellModel,
        clients: FLClient | Sequence[FLClient],
        rngs: np.random.Generator | Sequence[np.random.Generator],
    ) -> ClientUpdate | list[ClientUpdate]:
        """Train ``model`` in place; return the update(s).

        One client and one generator: ``model`` is a private copy of the
        server model (synchronous FL starts every participant from
        identical weights) and the result is its :class:`ClientUpdate`.  A
        sequence of K clients and K generators: ``model`` is a K-replica
        workspace (:meth:`CellModel.replicate`), the clients share one
        ``min(batch_size, n)``, and the result is the list of their updates,
        each bit-identical to training that client alone.  A plain clone
        becomes a workspace in place (:attr:`CellModel.arena`).  Updates
        hold copies: nothing returned aliases the model.
        """
        cfg = self.config
        cohort = not isinstance(clients, FLClient)
        if not cohort:
            clients, rngs = [clients], [rngs]
        if model.replicas != (len(clients) if cohort else None) or len(rngs) != len(clients):
            raise ValueError(
                f"{len(clients)} clients and {len(rngs)} generators for a model "
                f"with replicas={model.replicas}"
            )
        lead = (len(clients),) if cohort else ()  # the replica axis, if any
        for client in clients:
            if client.data.num_train == 0:
                raise ValueError(f"client {client.client_id} has no training data")
        batches = {min(cfg.batch_size, c.data.num_train) for c in clients}
        if len(batches) != 1:
            raise ValueError(f"a cohort shares one batch size, got {sorted(batches)}")
        (batch,) = batches

        # Every replica's batch indices for the whole item: replica r draws
        # from its own stream exactly as ``local_steps`` successive
        # ``integers(0, n, batch)`` calls would, offset into the cohort's
        # concatenated data so a step's batch is one gather for all replicas.
        rows, offset = [], 0
        for client, rng in zip(clients, rngs):
            n = client.data.num_train
            rows.append(rng.integers(0, n, size=(cfg.local_steps, batch)) + offset)
            offset += n
        if lead:
            idx = np.stack(rows, axis=1)  # (steps, K, batch)
            x = np.concatenate([c.data.x_train for c in clients])
            y = np.concatenate([c.data.y_train for c in clients])
        else:  # the client's own arrays, uncopied
            idx, x, y = rows[0], clients[0].data.x_train, clients[0].data.y_train

        # Flat parameter and gradient buffers, stable for the whole item:
        # every layer and the optimizer update them in place.
        arena = model.arena
        # Every step's batch in one gather and its one-hot target in one
        # scatter: step s trains on xs[s], laid out as x[idx[s]] would be.
        xs = x[idx]
        targets = one_hot(y[idx], model.num_classes, arena.params.dtype)
        opt = SGD(cfg.lr, cfg.momentum, cfg.weight_decay)
        anchor = arena.params.copy() if cfg.prox_mu else None
        # One contiguous row of step losses per replica, so the mean below
        # is the pairwise reduction ``np.mean`` makes of a list of floats.
        losses = np.empty(lead + (cfg.local_steps,), dtype=accum_dtype())
        for step in range(cfg.local_steps):
            arena.grads.fill(0.0)
            losses[..., step] = model.target_loss_and_grad(xs[step], targets[step])
            if cfg.clip_norm:
                clip_by_global_norm(arena, cfg.clip_norm)
            step_grads = fedprox_grads(arena, anchor, cfg.prox_mu) if cfg.prox_mu else arena.grads
            opt.step({"arena": arena.params}, {"arena": step_grads})

        mean_loss = losses.mean(axis=-1)
        trained, state = model.get_params(), model.get_state()
        macs = float(model.train_macs_per_sample()) * cfg.local_steps * batch
        nbytes = model.nbytes()
        updates = []
        for r, client in enumerate(clients):
            at = (r,) if lead else (...,)  # this replica's slice of a stacked tensor
            rt = client_round_time(client.device, model.macs(), nbytes, batch, cfg.local_steps)
            updates.append(
                ClientUpdate(
                    client_id=client.client_id,
                    model_id=model.model_id,
                    params={k: v[at] for k, v in trained.items()},
                    state={k: v[at] for k, v in state.items()},
                    train_loss=float(mean_loss[at]),
                    num_samples=client.data.num_train,
                    macs_spent=macs,
                    bytes_down=nbytes,
                    bytes_up=nbytes,
                    round_time=rt,
                    raw_bytes_up=nbytes,
                )
            )
        return updates if cohort else updates[0]
