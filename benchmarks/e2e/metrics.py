"""Metric registry: every name the harness emits, with unit and direction.

Pure data (no ``repro``/NumPy import) so ``run.py`` can load it before any
child process exists.  ``BENCHMARK.json`` at the repo root mirrors
``END_TO_END`` and ``per_layer()``; ``test_e2e_benchmark.py`` keeps the two
in step.
"""

from __future__ import annotations

from fnmatch import fnmatchcase

__all__ = [
    "END_TO_END",
    "STAGES",
    "METERS",
    "KERNELS",
    "INTERACTIONS",
    "SETUP_FLOOR_S",
    "moves",
    "per_layer",
    "stage_metrics",
]

# name, unit, better, bound (share of the parent's median the metric may
# worsen by), exact.  ``exact`` metrics are deterministic per seed:
# ``--compare`` holds them to equality-or-better when both rows used the
# same seed; their ``bound`` only has to cover the seed-to-seed spread the
# benchmark contract measures.
END_TO_END = (
    ("round_wall_ms", "ms", "lower", 0.25, False),
    ("wall_to_target_s", "s", "lower", 0.25, False),
    ("eval_sweep_ms", "ms", "lower", 0.25, False),
    ("peak_rss_mb", "MB", "lower", 0.15, False),
    ("final_accuracy", "frac", "higher", 0.25, True),
    ("train_gmacs", "GMAC", "lower", 0.25, True),
    ("wire_mb", "MB", "lower", 0.25, True),
    ("setup_s", "s", "lower", 0.25, False),
)
# --compare widens setup_s's bound to this many seconds when 10% of the
# parent's median is smaller (imports dominate; 50 ms is scheduler noise).
SETUP_FLOOR_S = 0.05

# Stage spans (tracing.py), reported per workload as
# ``<name>.ms_per_round`` (self time) and ``<name>.calls_per_round``.
STAGES = (
    "fl.scheduling.select",
    "fl.scheduling.observe",
    "core.strategy.assign",
    "core.strategy.aggregate",
    "core.client_manager.update",
    "core.aggregator.aggregate",
    "core.transformer.transform",
    "fl.executor.train_round",
    "fl.client.train",
    "fl.executor.eval_round",
    "fl.transport.encode_update",
    "fl.faults.admit",
    "fl.coordinator.evaluate",
    "fl.checkpoint.write",
    "fl.async_engine.step",
)

# Public meters read off the finished run, no wrapper: name -> (unit, better).
METERS = {
    "fl.executor.publish_bytes_per_round": ("bytes", "lower"),
    "fl.executor.publish_count": ("count", "lower"),
    "fl.transport.wire_ratio": ("ratio", "higher"),
    "fl.coordinator.eval_cached_frac": ("frac", "higher"),
    "fl.async_engine.dropped_frac": ("frac", "lower"),
    "fl.faults.retry_count": ("count", "lower"),
}

_BACKENDS = ("serial", "thread", "process")
# Kernel microbenchmarks (kernels.py): name -> (unit, better).
KERNELS = {
    **{
        f"nn.{model}.{kind}_us.{dtype}": ("us", "lower")
        for model in ("mlp", "cnn", "resnet", "vit")
        for kind in ("fwdbwd", "fwd")
        for dtype in ("f64", "f32")
    },
    "nn.sgd.step_us.f64": ("us", "lower"),
    "nn.sgd.step_us.f32": ("us", "lower"),
    "nn.model.clone_us": ("us", "lower"),
    "nn.param_ops.tree_average_us": ("us", "lower"),
    "core.aggregator.eq5_ms": ("ms", "lower"),
    "core.transform.widen_ms": ("ms", "lower"),
    "core.transform.deepen_ms": ("ms", "lower"),
    "core.client_manager.update_us": ("us", "lower"),
    "fl.transport.encode_us.rle": ("us", "lower"),
    "fl.transport.encode_us.topk_int8": ("us", "lower"),
    "fl.shm.write_ms": ("ms", "lower"),
    "fl.shm.read_ms": ("ms", "lower"),
    "fl.checkpoint.write_ms": ("ms", "lower"),
    "fl.checkpoint.read_ms": ("ms", "lower"),
    "fl.checkpoint.bytes": ("bytes", "lower"),
    "fl.checkpoint.arrays": ("count", "lower"),
    **{
        f"fl.scheduling.tick_us.{s}": ("us", "lower")
        for s in ("uniform", "availability", "oort")
    },
    **{f"fl.executor.wave_ms.{b}": ("ms", "lower") for b in _BACKENDS},
    **{f"fl.executor.wave_overhead_ms.{b}": ("ms", "lower") for b in _BACKENDS},
    "fl.executor.parallel_efficiency.thread": ("frac", "higher"),
    "fl.executor.parallel_efficiency.process": ("frac", "higher"),
}

# Written down before measuring: which end-to-end metrics each layer metric
# should move, on which workloads; on every other workload the prediction
# is "no change (<3%)".  Ordered globs, first match wins (README.md carries
# the prose and the reasons).
_CNN = ("cnn_fedavg_serial", "cnn_fedavg_process")
_MLP = ("fedtrans_mlp_sync", "fleet_async_mixed")
_ALL = (*_CNN, *_MLP)
_WALL = ("round_wall_ms", "wall_to_target_s")
INTERACTIONS = (
    ("nn.cnn.fwd_us.*", ("eval_sweep_ms",), _CNN),
    ("nn.mlp.fwd_us.*", ("eval_sweep_ms",), _MLP),
    ("nn.cnn.*", _WALL, _CNN),
    ("nn.sgd.*", _WALL, _CNN),
    ("nn.param_ops.*", ("round_wall_ms",), _CNN),  # FedAvg's tree_average
    ("nn.mlp.*", _WALL, _MLP),
    ("nn.model.clone_us", _WALL, _MLP),
    ("nn.resnet.*", (), ()),  # zoo coverage: no reference workload runs them
    ("nn.vit.*", (), ()),
    ("core.*", ("round_wall_ms",), ("fedtrans_mlp_sync",)),
    ("fl.client.train.*", _WALL, ("cnn_fedavg_serial", *_MLP)),
    ("fl.executor.eval_round.*", ("eval_sweep_ms",), _ALL),
    ("fl.coordinator.evaluate.*", ("eval_sweep_ms", "round_wall_ms"), _ALL),
    ("fl.coordinator.eval_cached_frac", ("eval_sweep_ms",), _ALL),
    ("fl.coordinator.self.*", ("round_wall_ms",), _MLP),
    # Self time of train_round is clone/publish/dispatch/drain around the
    # training itself; ~33 one-item waves per step make fleet_async_mixed
    # the guard for per-wave fixed cost.
    ("fl.executor.train_round.*", _WALL, ("cnn_fedavg_process", "fleet_async_mixed")),
    ("fl.executor.*.serial", ("round_wall_ms",), ("cnn_fedavg_serial", "fleet_async_mixed")),
    ("fl.executor.*.thread", (), ()),  # records the backend crossover only
    ("fl.executor.*", ("round_wall_ms", "setup_s", "peak_rss_mb"), ("cnn_fedavg_process",)),
    ("fl.shm.*", ("round_wall_ms", "setup_s", "peak_rss_mb"), ("cnn_fedavg_process",)),
    ("fl.checkpoint.*", ("round_wall_ms",), ("fleet_async_mixed",)),
    ("fl.transport.*", ("round_wall_ms", "wire_mb"), ("fleet_async_mixed",)),
    ("fl.scheduling.*", ("round_wall_ms",), ("fleet_async_mixed",)),
    ("fl.async_engine.*", ("round_wall_ms",), ("fleet_async_mixed",)),
    ("fl.faults.*", ("round_wall_ms",), ("fleet_async_mixed",)),
    ("trace.*", (), ()),  # instrument quality, not a layer
)


def moves(name: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """(end-to-end metrics, workloads) a per-layer metric should move."""
    for pattern, metrics, workloads in INTERACTIONS:
        if fnmatchcase(name, pattern):
            return metrics, workloads
    raise KeyError(f"no interaction row covers {name!r}")


def stage_metrics() -> dict[str, tuple[str, str]]:
    """Per-workload metrics of one traced run: name -> (unit, better)."""
    out: dict[str, tuple[str, str]] = {}
    for stage in STAGES:
        out[f"{stage}.ms_per_round"] = ("ms", "lower")
        out[f"{stage}.calls_per_round"] = ("count", "lower")
    out["fl.coordinator.self.ms_per_round"] = ("ms", "lower")
    out["trace.coverage_frac"] = ("frac", "higher")
    out["trace.overhead_frac"] = ("frac", "lower")
    out.update(METERS)
    return out


def per_layer() -> dict[str, tuple[str, str]]:
    """Every per-layer metric a ``--trace 1`` invocation prints."""
    return {**stage_metrics(), **KERNELS}
