"""End-to-end experiment runners: one (method, dataset, profile) per call.

``run_workload_suite`` reproduces the paper's comparison protocol
(Appendix A.1): FedTrans runs first from the initial model; the *largest
model FedTrans produced* is then handed to HeteroFL / SplitMix / FLuID as
their input large model, and single-model baselines get FedTrans's
middle-sized model.  All methods share the same fleet, data, and trainer
settings so cost/accuracy comparisons are apples-to-apples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..baselines import (
    FLuIDStrategy,
    HeteroFLStrategy,
    SplitMixStrategy,
    fedavg,
    fedprox_trainer_config,
    fedyogi,
)
from ..core import FedTransConfig, FedTransStrategy
from ..data import DATASET_BUILDERS, FederatedDataset
from ..device import calibrate_capacities, sample_device_traces
from ..fl import (
    ClientUpdate,
    Coordinator,
    CoordinatorConfig,
    FLClient,
    LocalTrainerConfig,
    RunSummary,
    Strategy,
    TrainingLog,
    summarize,
)
from ..fl.checkpoint import flatten_payload
from ..nn import CellModel, mlp, small_cnn, small_resnet, vit_tiny
from .profiles import ScaleProfile

__all__ = [
    "WorkloadResult",
    "build_dataset",
    "build_fleet",
    "make_initial_model",
    "fedtrans_config",
    "coordinator_config",
    "run_method",
    "run_workload_suite",
    "update_overhead",
]

METHODS = ("fedtrans", "fluid", "heterofl", "splitmix", "fedavg", "fedprox", "fedyogi")


@dataclass
class WorkloadResult:
    """One finished run plus everything reporting needs."""

    method: str
    dataset: str
    log: TrainingLog
    summary: RunSummary
    strategy: Strategy


def build_dataset(profile: ScaleProfile, seed: int = 0, **overrides) -> FederatedDataset:
    """Instantiate the profile's dataset."""
    builder = DATASET_BUILDERS[profile.dataset]
    kwargs = dict(scale=profile.scale, seed=seed, image=profile.image)
    kwargs.update(overrides)
    return builder(**kwargs)


def make_initial_model(
    dataset: FederatedDataset, profile: ScaleProfile, rng: np.random.Generator
) -> CellModel:
    """The initial (smallest) model per the profile's substrate family."""
    kind = profile.model_kind
    if kind == "mlp":
        return mlp(
            dataset.input_shape, dataset.num_classes, rng,
            width=profile.init_width, depth=profile.init_depth,
        )
    if kind == "cnn":
        return small_cnn(
            dataset.input_shape, dataset.num_classes, rng,
            width=profile.init_width, depth=profile.init_depth,
        )
    if kind == "resnet":
        return small_resnet(
            dataset.input_shape, dataset.num_classes, rng,
            width=profile.init_width, blocks=profile.init_depth,
        )
    if kind == "vit":
        image_size = dataset.input_shape[-1]
        return vit_tiny(
            dataset.input_shape,
            dataset.num_classes,
            rng,
            dim=profile.init_width,
            heads=2,
            mlp_hidden=2 * profile.init_width,
            patch=max(2, image_size // 4),
        )
    raise ValueError(f"unknown model kind {kind!r}")


def build_fleet(
    dataset: FederatedDataset,
    init_macs: int,
    profile: ScaleProfile,
    seed: int = 0,
) -> tuple[list[FLClient], float]:
    """Clients with calibrated capacities: weakest fits the initial model."""
    rng = np.random.default_rng(seed + 7)
    traces = sample_device_traces(dataset.num_clients, rng)
    traces = calibrate_capacities(traces, init_macs, init_macs * profile.capacity_span)
    clients = [FLClient(c.client_id, c, t) for c, t in zip(dataset.clients, traces)]
    return clients, max(t.capacity_macs for t in traces)


def fedtrans_config(profile: ScaleProfile, **overrides) -> FedTransConfig:
    """FedTrans config scaled to the profile's round budget."""
    base = FedTransConfig(
        gamma=profile.gamma,
        delta=profile.delta,
        beta=profile.beta,
        max_models=profile.max_models,
    )
    return base.scaled(**overrides) if overrides else base


def coordinator_config(profile: ScaleProfile, seed: int = 0, **overrides) -> CoordinatorConfig:
    trainer = LocalTrainerConfig(
        batch_size=profile.batch_size,
        local_steps=profile.local_steps,
        lr=profile.lr,
    )
    kwargs = dict(
        rounds=profile.rounds,
        clients_per_round=profile.clients_per_round,
        trainer=trainer,
        eval_every=profile.eval_every,
        seed=seed,
    )
    kwargs.update(overrides)
    return CoordinatorConfig(**kwargs)


def run_method(
    method: str,
    dataset: FederatedDataset,
    profile: ScaleProfile,
    seed: int = 0,
    global_model: CellModel | None = None,
    middle_model: CellModel | None = None,
    fedtrans_overrides: dict | None = None,
    coordinator_overrides: dict | None = None,
) -> WorkloadResult:
    """Run one method on one dataset.

    ``global_model`` (required by heterofl/splitmix/fluid) is the large
    model spanning the complexity range — per Appendix A.1, FedTrans's
    largest transformed model.  ``middle_model`` feeds the single-model
    baselines (FedTrans's middle-sized model); if omitted they use the
    initial model.
    """
    rng = np.random.default_rng(seed)
    init = make_initial_model(dataset, profile, rng)
    clients, max_cap = build_fleet(dataset, init.macs(), profile, seed)
    coord_over = dict(coordinator_overrides or {})

    if method == "fedtrans":
        cfg = fedtrans_config(profile, **(fedtrans_overrides or {}))
        strategy: Strategy = FedTransStrategy(init, cfg, max_capacity_macs=max_cap)
    elif method == "heterofl":
        strategy = HeteroFLStrategy(_require_global(global_model))
    elif method == "splitmix":
        strategy = SplitMixStrategy(_require_global(global_model), k=4, seed=seed)
    elif method == "fluid":
        strategy = FLuIDStrategy(_require_global(global_model))
    elif method == "fedavg":
        strategy = fedavg((middle_model or init).clone(keep_id=True))
    elif method == "fedyogi":
        strategy = fedyogi((middle_model or init).clone(keep_id=True))
    elif method == "fedprox":
        strategy = fedavg((middle_model or init).clone(keep_id=True))
        strategy.name = "fedprox"
        base_trainer = coordinator_config(profile, seed).trainer
        coord_over["trainer"] = fedprox_trainer_config(base_trainer, mu=0.01)
    else:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}")

    coord = Coordinator(strategy, clients, coordinator_config(profile, seed, **coord_over))
    log = coord.run()
    return WorkloadResult(method, dataset.name, log, summarize(log), strategy)


# A FedAvg client's upload, and the cost accounting the simulator attaches.
_FEDAVG_UPLINK = {"client_id", "model_id", "params", "state", "num_samples"}
_METERING = {"macs_spent", "bytes_down", "bytes_up", "round_time", "raw_bytes_up"}


def update_overhead(update: ClientUpdate) -> tuple[int, list[str]]:
    """Table 5's client rows, measured: the bytes of every array ``update``
    holds outside ``params``/``state`` (all the codec and ``bytes_up`` see),
    and what it carries beyond a FedAvg upload (the paper: one float, the loss)."""
    held = vars(update)
    _, stray = flatten_payload({k: v for k, v in held.items() if k not in ("params", "state")})
    return sum(a.nbytes for a in stray.values()), sorted(held.keys() - _FEDAVG_UPLINK - _METERING)


def _require_global(model: CellModel | None) -> CellModel:
    if model is None:
        raise ValueError(
            "heterofl/splitmix/fluid need the large global model "
            "(FedTrans's largest transformed model, per Appendix A.1)"
        )
    return model.clone()


def run_workload_suite(
    dataset: FederatedDataset,
    profile: ScaleProfile,
    methods: tuple[str, ...] = ("fedtrans", "fluid", "heterofl", "splitmix"),
    seed: int = 0,
    fedtrans_overrides: dict | None = None,
    coordinator_overrides: dict | None = None,
) -> dict[str, WorkloadResult]:
    """The paper's comparison protocol: FedTrans first, baselines on its models.

    ``coordinator_overrides`` (e.g. ``{"executor": "process"}``) applies to
    every method's coordinator, so the whole suite runs on one backend;
    ``fedtrans_overrides`` (e.g. ``{"evict_after": 50}``) applies to the
    leading FedTrans run only.
    """
    results: dict[str, WorkloadResult] = {}
    ft = run_method(
        "fedtrans", dataset, profile, seed,
        fedtrans_overrides=fedtrans_overrides,
        coordinator_overrides=coordinator_overrides,
    )
    results["fedtrans"] = ft
    suite = ft.strategy.models()
    by_macs = sorted(suite.values(), key=lambda m: m.macs())
    largest = by_macs[-1]
    middle = by_macs[len(by_macs) // 2]
    for method in methods:
        if method == "fedtrans":
            continue
        results[method] = run_method(
            method,
            dataset,
            profile,
            seed,
            global_model=largest,
            middle_model=middle,
            coordinator_overrides=coordinator_overrides,
        )
    return results
