"""Single-global-model baselines: FedAvg, FedProx, FedYogi.

* **FedAvg** (McMahan et al.) — sample-weighted average of client weights.
* **FedProx** (Li et al.) — FedAvg server + a proximal term in the local
  objective; the term lives in :class:`~repro.fl.client.LocalTrainerConfig`
  (``prox_mu``), so use :func:`fedprox_trainer_config` together with this
  strategy.
* **FedYogi** (Reddi et al.) — FedAvg's pseudo-gradient fed through the
  Yogi adaptive server optimizer.

Single-model training ignores client capacity by design — that is exactly
the deployment problem the paper's Fig. 2 illustrates (one size fits none).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..fl.client import LocalTrainerConfig
from ..fl.strategy import Strategy
from ..fl.types import ClientUpdate, FLClient
from ..nn.model import CellModel
from ..nn.optim import Yogi
from ..nn.param_ops import tree_average, tree_sub

__all__ = ["SingleModelStrategy", "fedavg", "fedyogi", "fedprox_trainer_config"]


class SingleModelStrategy(Strategy):
    """One global model for every client."""

    def __init__(self, model: CellModel, server_opt: Yogi | None = None, name: str = "fedavg"):
        self.name = name
        self.model = model
        self.server_opt = server_opt

    def models(self) -> dict[str, CellModel]:
        return {self.model.model_id: self.model}

    def assign(
        self, round_idx: int, participants: list[FLClient], rng: np.random.Generator
    ) -> dict[int, list[str]]:
        return {c.client_id: [self.model.model_id] for c in participants}

    def aggregate(
        self, round_idx: int, updates: list[ClientUpdate], rng: np.random.Generator
    ) -> list[str]:
        if not updates:
            return []
        weights = [float(u.num_samples) for u in updates]
        avg = tree_average([u.params for u in updates], weights)
        if self.server_opt is None:
            self.model.set_params(avg)
        else:
            current = self.model.get_params()
            pseudo_grad = tree_sub(current, avg)
            self.model.set_params(self.server_opt.step(current, pseudo_grad))
        states = [u.state for u in updates]
        if states and states[0]:
            self.model.set_state(tree_average(states, weights))
        return []

    def eval_model_for(self, client: FLClient) -> str:
        return self.model.model_id

    def state_dict(self) -> dict:
        payload = super().state_dict()
        payload["server_opt"] = (
            self.server_opt.state_dict() if self.server_opt is not None else None
        )
        return payload

    def load_state_dict(self, payload: dict) -> None:
        super().load_state_dict(payload)
        if payload["server_opt"] is not None:
            if self.server_opt is None:
                raise ValueError(
                    "checkpoint carries server-optimizer state but this "
                    "strategy was built without one"
                )
            self.server_opt.load_state_dict(payload["server_opt"])


def fedavg(model: CellModel) -> SingleModelStrategy:
    """Plain FedAvg."""
    return SingleModelStrategy(model, name="fedavg")


def fedyogi(
    model: CellModel,
    lr: float = 0.01,
    beta1: float = 0.9,
    beta2: float = 0.99,
    tau: float = 1e-3,
) -> SingleModelStrategy:
    """FedAvg with the Yogi adaptive server step."""
    return SingleModelStrategy(model, server_opt=Yogi(lr, beta1, beta2, tau), name="fedyogi")


def fedprox_trainer_config(
    base: LocalTrainerConfig, mu: float = 0.01
) -> LocalTrainerConfig:
    """``base`` with the FedProx proximal term enabled (every other field kept)."""
    return replace(base, prox_mu=mu)
