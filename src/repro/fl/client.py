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
is that one loop; training one client on a plain clone is its no-axis case
(the same operations on tensors without the leading axis), not a second
loop.  What stays per replica: the RNG stream (drawn in the same order),
the batch indices, the clip norm, the FedProx anchor, momentum and
weight-decay state, and the loss mean.  Replica ``r`` of a cohort is
bit-identical to training client ``r`` alone (CONTRACTS.md I3;
``tests/test_stacked_kernels.py``, ``tests/test_cohort_invariance.py``).
Models holding a layer without the axis (conv, norms, attention, dropout)
are never stacked: their cohorts are singletons.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..device.latency import client_round_time
from ..nn.compute import accum_dtype
from ..nn.model import CellModel
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


def clip_by_global_norm(
    grads: dict[str, np.ndarray], clip_norm: float, lead: tuple[int, ...] = ()
) -> None:
    """Scale ``grads`` in place so each replica's global norm is <= ``clip_norm``.

    ``lead`` is the replica shape of every tensor (``()``: one gradient
    tree).  The squared norm stays ``(g**2).sum()`` per tensor — pairwise
    summation over that replica's contiguous row; a BLAS dot orders the
    additions differently and would shift clip-triggering runs off their
    recorded trajectories — accumulated in the accumulator dtype in
    parameter order.  A replica under the threshold is multiplied by exactly
    1.0, a bitwise no-op, so replicas clip independently in one pass.
    """
    total = 0.0
    for g in grads.values():
        squares = (g**2).reshape(lead + (-1,)).sum(axis=-1)
        total = total + squares.astype(accum_dtype(), copy=False)
    gnorm = np.sqrt(total)
    over = gnorm > clip_norm
    if not over.any():
        return
    scale = np.ones_like(gnorm)
    np.divide(clip_norm, gnorm, out=scale, where=over)
    for g in grads.values():
        # Cast first: the scale multiplies in the gradient's own dtype, as
        # the Python-float scale of a single tree does under NEP 50.
        g *= scale.astype(g.dtype).reshape(lead + (1,) * (g.ndim - len(lead)))


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
        each bit-identical to training that client alone.
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

        opt = SGD(cfg.lr, cfg.momentum, cfg.weight_decay)
        # Live references, stable for the whole item: every layer and the
        # optimizer update these arrays in place.
        params, grads = model.params(), model.grads()
        anchor = {k: v.copy() for k, v in params.items()} if cfg.prox_mu else None
        # One contiguous row of step losses per replica, so the mean below
        # is the pairwise reduction ``np.mean`` makes of a list of floats.
        losses = np.empty(lead + (cfg.local_steps,), dtype=accum_dtype())
        for step in range(cfg.local_steps):
            for g in grads.values():
                g[...] = 0.0
            losses[..., step] = model.loss_and_grad(x[idx[step]], y[idx[step]])
            if cfg.clip_norm:
                clip_by_global_norm(grads, cfg.clip_norm, lead)
            step_grads = grads
            if cfg.prox_mu:
                step_grads = {
                    k: g + cfg.prox_mu * (params[k] - anchor[k]) for k, g in grads.items()
                }
            opt.step(params, step_grads)
            # The optimizer writes through the live param references, which
            # bypasses set_params — record the mutation for version-keyed
            # caches (this clone is a keep_id replica of the server model).
            model.bump_version()

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
