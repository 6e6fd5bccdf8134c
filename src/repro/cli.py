"""Command-line entry point: run experiments without writing code.

Examples::

    python -m repro run --dataset femnist_like --method fedtrans
    python -m repro run --dataset cifar10_like --method heterofl --rounds 100
    python -m repro --mode async --buffer-k 5 --deadline 120  # run is implied
    python -m repro --dtype float32 --executor thread  # fast low-precision run
    python -m repro suite --dataset femnist_like --out results.json
    python -m repro profiles

``run`` executes one (method, dataset) workload at the profile selected by
``--profile`` / ``REPRO_PROFILE`` and prints the summary row; ``suite``
runs the paper's full comparison protocol (FedTrans first, then the
baselines on its largest model).  ``--save-log`` exports the full training
log as JSON; ``--save-models`` checkpoints the final model suite.

Durable runs: ``--checkpoint-dir RUNS --checkpoint-every 10`` writes
crash-consistent round checkpoints into a config-hashed run directory, and
adding ``--resume`` picks a killed run back up bit-identically::

    python -m repro run --checkpoint-dir runs --checkpoint-every 10 --resume
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import NamedTuple

from .bench import active_profile, ascii_table, build_dataset, run_method, run_workload_suite
from .bench.profiles import DATASETS, PROFILES
from .bench.workloads import METHODS, coordinator_config
from .fl.executor import EXECUTOR_BACKENDS
from .fl.scheduling import PACING_POLICIES, SELECTOR_POLICIES, STRAGGLER_POLICIES
from .fl.export import log_to_dict, save_log, save_recovery, save_transport
from .fl.metrics import recovery_summary
from .nn.compute import COMPUTE_DTYPES, set_compute_dtype
from .nn.serialization import save_model

__all__ = ["main"]


class _Flag(NamedTuple):
    """One row of the flag table.

    ``field`` is the :class:`~repro.fl.CoordinatorConfig` field the flag
    sets (``None``: a run-level flag the command reads itself).  A config
    flag defaults to ``argparse.SUPPRESS``, so it reaches the config only
    when given and the field's default is declared once, on the dataclass.
    """

    option: str
    field: str | None
    kwargs: dict
    help: str | None = None
    commands: tuple[str, ...] = ("run", "suite")


_FLAGS = (
    _Flag("--dataset", None, dict(choices=DATASETS, default="femnist_like")),
    _Flag("--profile", None, dict(choices=sorted(PROFILES)),
          "scale profile (default: $REPRO_PROFILE or 'tiny')"),
    _Flag("--seed", None, dict(type=int, default=0)),
    _Flag("--rounds", None, dict(type=int), "override round budget"),
    _Flag("--save-log", None, dict(type=Path), "write run log JSON here", ("run",)),
    _Flag("--executor", "executor", dict(choices=EXECUTOR_BACKENDS),
          "round-execution backend (all bit-identical per seed)"),
    _Flag("--dtype", "compute_dtype", dict(choices=COMPUTE_DTYPES),
          "compute dtype of the whole run (models, data, "
          "aggregation).  float64 (default) is the "
          "bit-identity dtype golden fixtures are stated at; "
          "float32 halves memory traffic and roughly doubles "
          "BLAS throughput at lower precision"),
    _Flag("--workers", "max_workers", dict(type=int, metavar="WORKERS"),
          "worker count for thread/process backends (default: cpu count)"),
    _Flag("--mode", "mode", dict(choices=("sync", "async")),
          "round engine: synchronous barrier or buffered-async "
          "(FedBuff-style; bit-reproducible per seed)"),
    _Flag("--buffer-k", "buffer_k", dict(type=int),
          "async: aggregate on this many arrivals "
          "(default: clients_per_round // 2)"),
    _Flag("--deadline", "deadline_s", dict(type=float, metavar="DEADLINE"),
          "async: drop arrivals slower than this many simulated "
          "seconds after dispatch (wasted work is metered)"),
    _Flag("--staleness-discount", "staleness_discount", dict(type=float),
          "async: per-missed-aggregation discount base in (0, 1] "
          "(default 0.5; 1 disables)"),
    _Flag("--sanitize", "sanitize", dict(action="store_true"),
          "enable the runtime sanitizer (repro.analysis.sanitize; "
          "equivalent to REPRO_SANITIZE=1): freeze published "
          "models read-only during rounds and cross-check model "
          "versions against content fingerprints"),
    _Flag("--selector", "selector", dict(choices=SELECTOR_POLICIES),
          "client selection policy (uniform reproduces the "
          "pre-subsystem behavior bit-for-bit)"),
    _Flag("--pacing", "pacing", dict(choices=PACING_POLICIES),
          "async aggregation pacing: static buffer_k/deadline, "
          "adaptive buffer_k (arrival-rate scaled), or per-device-"
          "class deadline quantiles"),
    _Flag("--straggler", "straggler", dict(choices=STRAGGLER_POLICIES),
          "async straggler policy: drop late arrivals, or downsize "
          "predicted-late clients to a smaller compatible model"),
    _Flag("--availability-trace", "availability_trace", dict(metavar="SPEC"),
          "availability churn model for --selector availability: "
          "'bernoulli:<rate>', 'diurnal:base=0.8,amplitude=0.5,"
          "period=24,class_phase=0.25' (per-device-class diurnal "
          "waves), or 'trace:<path.json>' (periodic per-class "
          "rate table)"),
    _Flag("--evict-after", "evict_after", dict(type=int),
          "evict a client's utility state after this many rounds "
          "of inactivity (FedTrans strategy dict and the fleet "
          "store's Oort utility column; default: keep forever)"),
    _Flag("--faults", "faults", dict(metavar="SPEC"),
          "deterministic fault-injection spec, e.g. "
          "'crash=0.05,exc=0.1,poison=0.2' (kinds: crash, exc, "
          "shm, hang, poison, plus hang_factor).  Chaos runs "
          "are replayable bit-for-bit at the same seed; "
          "crash/shm recovery is trajectory-neutral"),
    _Flag("--retries", "retries", dict(type=int),
          "max attempts per work item (default 3 when --faults "
          "is set; without --faults this enables the retry "
          "layer for real failures)"),
    _Flag("--quarantine", "quarantine", dict(action="store_true"),
          "validate every update before aggregation (NaN/Inf "
          "scan + norm-outlier gate); rejects go to the "
          "quarantine ledger.  Bit-identical on clean runs"),
    _Flag("--quarantine-norm-mult", "quarantine_norm_mult", dict(type=float),
          "norm-outlier threshold as a multiple of the running "
          "mean update norm (default 8; 0 disables the norm "
          "gate, keeping the NaN/Inf scan)"),
    _Flag("--save-recovery", None, dict(type=Path),
          "write the fault-recovery ledger JSON here (separate "
          "from --save-log: the run export stays byte-identical "
          "to a fault-free run's, recovery telemetry does not)", ("run",)),
    _Flag("--compress", "compress", dict(metavar="SPEC"),
          "transport codec spec, e.g. "
          "'update:int8+topk0.01,snapshot:rle'.  update codecs: "
          "rle (lossless), int8/bf16 quantization and topk<rate> "
          "sparsification (lossy, with server-side error "
          "feedback); snapshot:rle delta-encodes shared-memory "
          "publishes (lossless).  Lossy specs change the "
          "trajectory and must be declared here (CONTRACTS.md "
          "I11)"),
    _Flag("--wire-time", "wire_time", dict(action="store_true"),
          "re-price each client's upload leg at its compressed "
          "size, so compression shortens simulated round time "
          "(requires --compress with an update section)"),
    _Flag("--save-transport", None, dict(type=Path),
          "write the transport-cost ledger JSON here (raw vs "
          "on-wire bytes per round for both the update and "
          "snapshot-publish directions; separate from "
          "--save-log because publish telemetry is barred from "
          "the run export by CONTRACTS.md I10)", ("run",)),
    _Flag("--checkpoint-dir", "checkpoint_dir", {},
          "run-registry root for durable runs: each run "
          "checkpoints into a subdirectory keyed by its config "
          "hash (repro.fl.registry)"),
    _Flag("--checkpoint-every", "checkpoint_every", dict(type=int),
          "write a crash-consistent checkpoint every N rounds "
          "(requires --checkpoint-dir)"),
    _Flag("--resume", "resume", dict(action="store_true"),
          "resume from the last good checkpoint in the run's "
          "registry directory (requires --checkpoint-dir; a "
          "fresh start when none exists — safe to use "
          "unconditionally in restart loops)"),
    _Flag("--method", None, dict(choices=METHODS, default="fedtrans"), None, ("run",)),
    _Flag("--save-models", None, dict(type=Path),
          "directory for final model checkpoints", ("run",)),
    _Flag("--out", None, dict(type=Path), "write all logs JSON", ("suite",)),
)

# The cross-flag rules CoordinatorConfig cannot know (it rejects every
# invalid *combination of values* itself): a flag that was given but would
# be silently ignored.  (field given, field consulted, values that make the
# given flag meaningful, usage error otherwise).
_IGNORED_UNLESS = (
    ("max_workers", "executor", ("thread", "process"),
     "--workers only applies to parallel backends; "
     "pass --executor thread or --executor process"),
    ("quarantine_norm_mult", "quarantine", (True,),
     "--quarantine-norm-mult requires --quarantine"),
    ("staleness_discount", "mode", ("async",),
     "--staleness-discount requires --mode async"),
)


class _RunOnly(argparse.Action):
    """A ``run`` flag given to ``suite``: a usage error, never a silent no-op."""

    def __call__(self, parser, namespace, values, option_string=None):
        parser.error(
            f"{option_string} is a `run` flag; `suite` runs every method and "
            "writes all their logs with --out"
        )


def _add_flags(p: argparse.ArgumentParser, command: str) -> None:
    for flag in _FLAGS:
        if command in flag.commands:
            kwargs = dict(flag.kwargs, help=flag.help)
            if flag.field is not None:
                kwargs.update(dest=flag.field, default=argparse.SUPPRESS)
            p.add_argument(flag.option, **kwargs)
        elif command == "suite":
            p.add_argument(flag.option, action=_RunOnly, nargs="?", help=argparse.SUPPRESS)


def _coordinator_overrides(args) -> dict:
    """The config fields the command line set: exactly the flags given."""
    given = vars(args)
    return {f.field: given[f.field] for f in _FLAGS if f.field in given}


def _setup(args):
    """Profile and coordinator overrides, validated before anything is built.

    Every config error reachable from the command line is a usage error
    here (exit status 2), not a traceback after the dataset and fleet exist.
    """
    profile = active_profile(args.dataset, override=args.profile)
    if args.rounds is not None:
        profile = profile.with_(rounds=args.rounds)
    over = _coordinator_overrides(args)
    try:
        config = coordinator_config(profile, args.seed, **over)
    except ValueError as exc:
        args.parser.error(str(exc))
    for given, consulted, meaningful, message in _IGNORED_UNLESS:
        if given in over and getattr(config, consulted) not in meaningful:
            args.parser.error(message)
    # Must land before the dataset and initial models are built — the
    # whole run (data, weights, transforms, workers) uses one dtype.
    set_compute_dtype(config.compute_dtype)
    # The one knob two stores share: the FedTrans utility store evicts on
    # the same horizon as the fleet store's Oort column.
    ft_over = {"evict_after": over["evict_after"]} if "evict_after" in over else {}
    return profile, over, ft_over


def cmd_run(args) -> int:
    profile, coord_over, ft_over = _setup(args)
    dataset = build_dataset(profile, seed=args.seed)
    if args.method in ("heterofl", "splitmix", "fluid"):
        # These need FedTrans's largest model (the Appendix A.1 protocol).
        ft = run_method(
            "fedtrans", dataset, profile, seed=args.seed,
            fedtrans_overrides=ft_over, coordinator_overrides=coord_over,
        )
        largest = max(ft.strategy.models().values(), key=lambda m: m.macs())
        res = run_method(
            args.method, dataset, profile, seed=args.seed, global_model=largest,
            coordinator_overrides=coord_over,
        )
    else:
        res = run_method(
            args.method, dataset, profile, seed=args.seed,
            fedtrans_overrides=ft_over, coordinator_overrides=coord_over,
        )
    print(ascii_table([res.summary.row()], f"{args.method} on {args.dataset}"))
    if args.save_log:
        save_log(res.log, args.save_log)
        print(f"log written to {args.save_log}")
    if args.save_recovery:
        save_recovery(res.log, args.save_recovery)
        print(f"recovery ledger written to {args.save_recovery}")
    if args.save_transport:
        save_transport(res.log, args.save_transport)
        print(f"transport ledger written to {args.save_transport}")
    rec = recovery_summary(res.log)
    if any(rec.values()):
        print(
            "recovery: "
            + ", ".join(f"{k}={v}" for k, v in rec.items() if k != "fault_records")
        )
    if args.save_models:
        args.save_models.mkdir(parents=True, exist_ok=True)
        for mid, model in res.strategy.models().items():
            save_model(model, args.save_models / f"{mid}.npz")
        print(f"{len(res.strategy.models())} model(s) written to {args.save_models}/")
    return 0


def cmd_suite(args) -> int:
    profile, coord_over, ft_over = _setup(args)
    dataset = build_dataset(profile, seed=args.seed)
    results = run_workload_suite(
        dataset, profile, seed=args.seed,
        fedtrans_overrides=ft_over, coordinator_overrides=coord_over,
    )
    rows = [r.summary.row() for r in results.values()]
    print(ascii_table(rows, f"suite on {args.dataset} ({profile.name} profile)"))
    if args.out:
        payload = {m: log_to_dict(r.log) for m, r in results.items()}
        with open(args.out, "w") as f:
            json.dump(payload, f, indent=1)
        print(f"full logs written to {args.out}")
    return 0


def cmd_profiles(args) -> int:
    rows = []
    for pname, table in PROFILES.items():
        for ds, p in table.items():
            rows.append(
                {
                    "profile": pname,
                    "dataset": ds,
                    "clients_scale": p.scale,
                    "rounds": p.rounds,
                    "clients/round": p.clients_per_round,
                    "model": p.model_kind,
                    "beta": p.beta,
                    "gamma": p.gamma,
                    "delta": p.delta,
                }
            )
    print(ascii_table(rows, "available scale profiles"))
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # Option-first invocations (`python -m repro --mode async ...`) default
    # to the `run` subcommand, so the common path needs no subcommand.
    if argv and argv[0].startswith("-") and argv[0] not in ("-h", "--help"):
        argv = ["run", *argv]
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    for command, fn, text in (
        ("run", cmd_run, "run one method on one dataset"),
        ("suite", cmd_suite, "run the full comparison protocol"),
    ):
        p = sub.add_parser(command, help=text)
        _add_flags(p, command)
        p.set_defaults(fn=fn, parser=p)

    p_prof = sub.add_parser("profiles", help="list scale profiles")
    p_prof.set_defaults(fn=cmd_profiles)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
