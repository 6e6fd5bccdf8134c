"""The FL coordinator: round loop, cost accounting, and evaluation.

Drives any :class:`~repro.fl.strategy.Strategy` through the synchronous FL
lifecycle of §1: select participants, ship models, run local training,
collect updates, aggregate, and periodically evaluate every registered
client on its deployed model.  All costs the paper reports — training MACs,
network volume, server storage, round completion times — are metered here
so every method is measured identically.

Execution backends
------------------
Local training and evaluation are dispatched through a pluggable
:class:`~repro.fl.executor.RoundExecutor` selected by
``CoordinatorConfig.executor``:

* ``"serial"`` (default) — one in-process loop.
* ``"thread"`` — a thread pool; NumPy's BLAS kernels release the GIL, so
  clients' matmul-heavy local steps overlap.
* ``"process"`` — a persistent process pool; the fleet ships to workers
  once, each round's models once (a shared read-only snapshot), and work
  items carry only ``(model_id, client_id, seed material)``.

**Determinism guarantee:** every work item's RNG derives from
``np.random.SeedSequence(seed, spawn_key=(round, client, sub))`` and
results are consumed in submission order, so the three backends produce
bit-identical :class:`~repro.fl.types.TrainingLog` records for the same
seed.  Wall-clock differs; the *simulated* round times (device-model
latency) do not.

Round modes
-----------
One round is one pass through the stages of :mod:`~repro.fl.rounds`
(select → dispatch → encode → meter → admit → aggregate → close; the stage
table there says what each driver adds and which invariant each stage
carries).  ``CoordinatorConfig.mode`` picks the driver:

* ``"sync"`` (default) — the barrier, :meth:`Coordinator._barrier_round`;
  ``round_time`` is the max over participants of download + train + upload
  (the straggler defines the round, paper Table 6).
* ``"async"`` — the event queue, :mod:`~repro.fl.async_engine`; each
  :class:`RoundRecord` is one buffered aggregation step and ``round_time``
  the simulated-clock advance since the previous one, so
  ``sum(round_time)`` is total simulated time in both modes.

The determinism guarantee holds for both.  Evaluation is batched by
deployment — clients sharing an ensemble (:meth:`Strategy.eval_ensemble`)
share a few large forward passes — and every sweep scores every group
in one executor wave.

Scheduling subsystem
--------------------
Who participates, when aggregation fires, and what happens to predicted
stragglers are pluggable policies (:mod:`~repro.fl.scheduling`), resolved
along one path: the ``CoordinatorConfig`` field (``selector`` / ``pacing``
/ ``straggler`` / ``evict_after`` / ``availability_trace``; a CLI flag is
a row of ``repro.cli``'s table that sets that field only when given) is
checked, and a spec string parsed, once in ``__post_init__``; at
construction the coordinator hands name and parsed object to the
scheduling factories (:func:`~repro.fl.scheduling.make_selector` etc.)
with the run seed, the resolved ``buffer_k``/``deadline_s`` and the fleet.
What the config does not name (availability rate, quantile level, …) is
the policy's own default.

The selector runs in both modes; pacing and straggler policies are
consulted by the async engine per dispatch wave (sync mode rejects
non-default values, as it already did for the raw async knobs).  The
default stack reproduces the pre-subsystem behavior bit-for-bit; every
round's decisions are exported on ``RoundRecord.scheduler`` (effective
``buffer_k``, active deadline quantiles, downsized/dropped/evicted
counts).  Strategy-side evictions (rows of FedTrans's utility table)
reach the record through :meth:`Strategy.drain_evicted`.

Durable runs
------------
With ``checkpoint_dir`` set the run lives in a registry directory keyed by
its config hash (:mod:`~repro.fl.registry`); ``checkpoint_every`` writes a
crash-consistent checkpoint (:mod:`~repro.fl.checkpoint`) at the end of
every N-th round, and ``resume=True`` picks the run back up from the last
good checkpoint there.  The coordinator is itself :class:`~repro.stateful.
Stateful` (see :meth:`Coordinator.state_dict` for what its payload
composes and why executor state is absent), so a resumed run is
bit-identical to the uninterrupted one (CONTRACTS.md I9).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from ..analysis import sanitize as _sanitize
from ..nn.compute import COMPUTE_DTYPES, set_compute_dtype
from ..nn.cells import cell_id_counter, set_cell_id_counter
from ..nn.model import model_id_counter, set_model_id_counter
from ..stateful import Stateful, check_schema, checked, load_optional, naming, schema_tag
from .async_engine import BufferedAsyncEngine
from .checkpoint import CheckpointWriter, load_checkpoint
from .client import LocalTrainerConfig
from .executor import EvalTask, RoundExecutor, make_executor
from .export import log_from_state, log_state_dict
from .faults import FaultConfig, QuarantineConfig, RetryPolicy, UpdateValidator
from .registry import RunRegistry, run_hash
from .rounds import RoundTally, admit, close_round, dispatch, encode, meter
from .scheduling import (
    PACING_POLICIES,
    SELECTOR_POLICIES,
    STRAGGLER_POLICIES,
    FleetStore,
    make_selector,
    parse_availability,
)
from .strategy import Strategy
from .transport import TransportCodec, TransportConfig
from .types import EvalRecord, FLClient, RoundRecord, TrainingLog

__all__ = ["CoordinatorConfig", "Coordinator"]


def _layout(node: object) -> object:
    """A nested dict's keys and leaf types."""
    return {k: _layout(v) for k, v in node.items()} if type(node) is dict else type(node)


@dataclass(frozen=True)
class CoordinatorConfig:
    """Run-level configuration (paper §5.1 / Table 7 analogues).

    Flat on purpose: the run hash is ``asdict(config)`` and the frozen
    benchmark harness builds and ``replace``s it by flat keyword.  Each
    spec string is parsed exactly once, in ``__post_init__``, into a
    read-only non-field view — ``availability_model``, ``fault_config``,
    ``retry_policy``, ``quarantine_config``, ``transport_config`` (``None``
    when the feature is off) — and the engine consumes only the views.
    """

    rounds: int = 100
    clients_per_round: int = 10
    trainer: LocalTrainerConfig = LocalTrainerConfig()
    eval_every: int = 10
    seed: int = 0
    # Paper stop rule: "training is considered complete when either the
    # maximum number of training rounds is reached or the validation
    # accuracy converges, [defined as] not improving by more than 1% over
    # 10 consecutive rounds".  Our unit is *evaluations* (one every
    # ``eval_every`` rounds), not rounds: patience 10 with eval_every=10
    # spans 100 training rounds.
    convergence_patience: int = 10
    convergence_delta: float = 0.01
    eval_batch_size: int = 256
    # Clients per batched-evaluation task: a memory cap only (the
    # concatenated test set stays O(chunk), not O(fleet)).  What keeps a
    # parallel backend busy is the executor, which cuts the tasks of a
    # sweep with fewer tasks than workers into batch-aligned row ranges.
    # Chunk boundaries are deterministic (registration order), so results
    # stay bit-identical across backends.
    eval_group_clients: int = 64
    # Runtime sanitizer (repro.analysis.sanitize; also enabled by the
    # REPRO_SANITIZE=1 environment variable or the --sanitize CLI flag):
    # published models are frozen read-only while rounds are in flight and
    # model versions are cross-checked against content fingerprints at
    # cache-read and snapshot-publish time.  Checks are dtype-independent,
    # so float32 + sanitize is valid — but the engine's bit-identity
    # claims (golden fixtures) are stated at float64, so a float32
    # sanitized run validates the invariants without asserting the
    # float64 golden digests.
    sanitize: bool = False
    # Round-execution backend: "serial" | "thread" | "process" (see module
    # docstring).  All three are bit-identical for the same seed.
    executor: str = "serial"
    max_workers: int | None = None
    # Compute dtype of the run: "float32" | "float64" | None (inherit the
    # process-wide setting — float64 unless changed; see repro.nn.compute).
    # float64 is the bit-identity dtype every golden fixture is stated at;
    # float32 halves bandwidth and roughly doubles BLAS throughput.
    # Applied process-wide at coordinator construction and shipped to
    # process-pool workers; models and data must be built under the same
    # setting.
    compute_dtype: str | None = None
    # Round engine: "sync" (barrier) or "async" (buffered-asynchronous; see
    # module docstring).  The async knobs below are rejected in sync mode so
    # a silently ignored straggler policy can't masquerade as measured.
    mode: str = "sync"
    # Async: aggregate on this many arrivals (default clients_per_round // 2
    # — the in-flight pool over-selects relative to the buffer).
    buffer_k: int | None = None
    # Async: clients kept concurrently in flight (default clients_per_round).
    async_concurrency: int | None = None
    # Async: drop arrivals whose simulated duration exceeds this many
    # seconds after dispatch (None disables the straggler-drop policy).
    deadline_s: float | None = None
    # Async: per-step staleness discount base in (0, 1]; an update that
    # missed s aggregations contributes with weight discount**s (1 disables).
    staleness_discount: float = 0.5
    # Scheduling policies (see module docstring / repro.fl.scheduling).
    # The selector applies in both modes; pacing and straggler policies are
    # async-only, and non-default values are rejected in sync mode for the
    # same reason the raw async knobs are.
    selector: str = "uniform"
    pacing: str = "static"
    straggler: str = "drop"
    # Availability churn model for the "availability" selector: a spec like
    # "diurnal:base=0.8,amplitude=0.5" or "trace:<path.json>" (see
    # repro.fl.scheduling.availability).  None keeps the selector's flat
    # Bernoulli rate.  Trajectory-affecting (changes who is online when).
    availability_trace: str | None = None
    # Reset the fleet store's per-client utility state (Oort's EMA column)
    # for clients unseen this many rounds; None disables.  Bounds selector
    # state at O(active) over unbounded churn; evicted clients re-enter at
    # the optimistic prior, so default runs (None) are untouched.
    evict_after: int | None = None
    # Fault tolerance (repro.fl.faults).  ``faults`` is a deterministic
    # injection spec ("crash=0.05,poison=0.2,..."; None disables);
    # ``retries`` caps attempts per work item (None = RetryPolicy's
    # default of 3 when faults are configured, no retry layer otherwise).
    # ``quarantine`` screens every update before aggregation (NaN/Inf scan
    # + norm-outlier gate at ``quarantine_norm_mult`` x the running mean
    # norm); rejects divert to the quarantine ledger instead of Eq. 5.
    faults: str | None = None
    retries: int | None = None
    quarantine: bool = False
    quarantine_norm_mult: float = 8.0
    # Transport codec (repro.fl.transport): a spec like
    # "update:int8+topk0.01,snapshot:rle" compresses client→server updates
    # (snapshot:rle is recorded, but segments stay raw); None disables.
    # Lossless specs (rle-only) leave the trajectory bit-identical; lossy codecs
    # (int8/bf16/topk) change it and must be declared here — they are
    # banned from golden-pinned defaults (CONTRACTS.md I11).  Both knobs
    # are trajectory-affecting and therefore part of the run hash.
    compress: str | None = None
    # Re-price each update's simulated upload leg at its on-wire size, so
    # compression shows up in round_time (and in async event ordering) —
    # the bandwidth cost model turning fewer bytes into faster rounds.
    # Off by default: lossless codecs then keep round_time untouched.
    wire_time: bool = False
    # Durable runs (module docstring).  ``checkpoint_dir`` is the registry
    # root — the run's own directory inside it is derived from the config
    # hash, so distinct experiments never clobber each other.  All three
    # knobs are trajectory-neutral: they are excluded from the run hash and
    # never change what the run computes.
    checkpoint_every: int | None = None
    checkpoint_dir: str | None = None
    resume: bool = False

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.eval_every < 1:
            raise ValueError("eval_every must be >= 1")
        if self.clients_per_round < 1:
            raise ValueError("clients_per_round must be >= 1")
        if self.convergence_patience < 1:
            raise ValueError("convergence_patience must be >= 1")
        if not 0 <= self.convergence_delta < math.inf:  # stated as what holds: NaN fails
            raise ValueError(f"convergence_delta must be finite, >= 0: {self.convergence_delta}")
        if self.eval_batch_size < 1:
            raise ValueError("eval_batch_size must be >= 1")
        if self.eval_group_clients < 1:
            raise ValueError("eval_group_clients must be >= 1")
        if not isinstance(self.sanitize, bool):
            raise ValueError(f"sanitize must be a bool, got {self.sanitize!r}")
        if self.compute_dtype is not None and self.compute_dtype not in COMPUTE_DTYPES:
            raise ValueError(
                f"compute_dtype must be one of {COMPUTE_DTYPES} or None "
                f"(inherit), got {self.compute_dtype!r}"
            )
        if self.max_workers is not None and self.max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {self.max_workers}")
        if self.mode not in ("sync", "async"):
            raise ValueError(f"mode must be 'sync' or 'async', got {self.mode!r}")
        # Policy names validate before the mode cross-checks so a typo in a
        # sync config reads as "unknown policy", not "requires async".
        if self.selector not in SELECTOR_POLICIES:
            raise ValueError(
                f"selector must be one of {SELECTOR_POLICIES}, got {self.selector!r}"
            )
        if self.pacing not in PACING_POLICIES:
            raise ValueError(
                f"pacing must be one of {PACING_POLICIES}, got {self.pacing!r}"
            )
        if self.straggler not in STRAGGLER_POLICIES:
            raise ValueError(
                f"straggler must be one of {STRAGGLER_POLICIES}, got {self.straggler!r}"
            )
        # The parsed views (class docstring) go past the frozen __setattr__
        # under non-field names, so asdict/==/hash/repr/replace skip them.
        parsed = self.__dict__
        parsed["availability_model"] = None
        if self.availability_trace is not None:
            if self.selector != "availability":
                raise ValueError(
                    "availability_trace requires selector='availability' "
                    f"(got selector={self.selector!r})"
                )
            parsed["availability_model"] = parse_availability(self.availability_trace)
        if self.evict_after is not None and self.evict_after < 1:
            raise ValueError("evict_after must be >= 1 (None disables eviction)")
        if self.mode == "sync":
            for knob in ("buffer_k", "async_concurrency", "deadline_s"):
                if getattr(self, knob) is not None:
                    raise ValueError(f"{knob} requires mode='async'")
            for knob, default in (("pacing", "static"), ("straggler", "drop")):
                if getattr(self, knob) != default:
                    raise ValueError(f"{knob}={getattr(self, knob)!r} requires mode='async'")
        if self.buffer_k is not None and self.buffer_k < 1:
            raise ValueError("buffer_k must be >= 1")
        if self.async_concurrency is not None and self.async_concurrency < 1:
            raise ValueError("async_concurrency must be >= 1")
        if self.deadline_s is not None and not 0 < self.deadline_s < math.inf:
            raise ValueError(f"deadline_s must be positive and finite, got {self.deadline_s!r}")
        if not 0.0 < self.staleness_discount <= 1.0:
            raise ValueError("staleness_discount must lie in (0, 1]")
        parsed["fault_config"] = (
            FaultConfig.parse(self.faults) if self.faults is not None else None
        )
        if self.retries is not None and self.retries < 1:
            raise ValueError(f"retries must be >= 1, got {self.retries}")
        # A retry policy exists whenever faults are injected (so chaos runs
        # recover by default) or when the user asks for one explicitly —
        # real environments fail without a fault spec.
        if self.retries is not None:
            parsed["retry_policy"] = RetryPolicy(max_attempts=self.retries)
        else:
            parsed["retry_policy"] = RetryPolicy() if self.faults is not None else None
        if not isinstance(self.quarantine, bool):
            raise ValueError(f"quarantine must be a bool, got {self.quarantine!r}")
        # Range-checked even when the gate is off (finite and >= 0; 0
        # disables the norm gate, keeping the NaN/Inf scan).
        gate = QuarantineConfig(norm_multiplier=self.quarantine_norm_mult)
        parsed["quarantine_config"] = gate if self.quarantine else None
        parsed["transport_config"] = transport = (
            TransportConfig.parse(self.compress) if self.compress is not None else None
        )
        if not isinstance(self.wire_time, bool):
            raise ValueError(f"wire_time must be a bool, got {self.wire_time!r}")
        if self.wire_time and (transport is None or not transport.has_update):
            raise ValueError(
                "wire_time=True requires a compress spec with an update "
                "section (there is no wire size to re-price otherwise)"
            )
        if self.checkpoint_every is not None and self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if not isinstance(self.resume, bool):
            raise ValueError(f"resume must be a bool, got {self.resume!r}")
        if self.checkpoint_every is not None and self.checkpoint_dir is None:
            raise ValueError("checkpoint_every requires checkpoint_dir")
        if self.resume and self.checkpoint_dir is None:
            raise ValueError("resume=True requires checkpoint_dir")


class Coordinator(Stateful):
    """FL simulation loop — synchronous barrier or buffered-async rounds."""

    # v2: the payload no longer carries the fleet sweep's accuracy cache.
    schema = schema_tag("Coordinator", 2)

    def __init__(
        self,
        strategy: Strategy,
        clients: list[FLClient],
        config: CoordinatorConfig,
        executor: RoundExecutor | None = None,
    ):
        if not clients:
            raise ValueError("cannot run FL with zero clients")
        if type(strategy).client_logits is not Strategy.client_logits:
            raise TypeError(
                f"{type(strategy).__name__} overrides client_logits, which the "
                "fleet sweep never calls; declare the deployment through "
                "eval_ensemble instead"
            )
        # Resolve the run's compute dtype before anything hot is built
        # (None = inherit).  The process executor reads the resolved value
        # when its pool starts, so workers always match the coordinator.
        set_compute_dtype(config.compute_dtype)
        if config.sanitize:
            # Enable-only: sanitize=False must not switch off a sanitizer
            # turned on via REPRO_SANITIZE=1.  The env var is set too so
            # spawn-started pool workers (which re-read the environment)
            # inherit the setting; fork workers inherit the module flag.
            _sanitize.set_sanitizer(True)
            os.environ["REPRO_SANITIZE"] = "1"
        self.strategy = strategy
        self.clients = clients
        self.config = config
        self.rng = np.random.default_rng(config.seed)
        # Transport codec: the update codec lives here (one codec instance
        # sees every update in deterministic order — its error-feedback
        # residuals are run state).  A snapshot section is only recorded in
        # the spec: publishes are raw full segments either way.
        transport = config.transport_config
        self.transport = TransportCodec(transport) if transport is not None else None
        # Last-seen executor publish counters (raw, wire): per-round and
        # per-eval deltas split snapshot bytes for the transport ledger.
        self._pub_seen = (0, 0)
        # An injected executor is caller-owned (and caller-closed); a
        # config-built one belongs to this coordinator.
        self._owns_executor = executor is None
        self.executor = executor or make_executor(
            config.executor, clients, config.trainer, config.seed, config.max_workers,
            faults=config.fault_config, retry=config.retry_policy,
        )
        gate = config.quarantine_config
        self.validator = UpdateValidator(gate) if gate is not None else None
        # Columnar fleet store: one instance backs selection views, the
        # selectors' per-client state, the straggler prescreen, and quantile
        # pacing windows in both modes (the async engine shares it).
        self.fleet = FleetStore(clients, evict_after=config.evict_after)
        self.selector = make_selector(
            config.selector, seed=config.seed, availability_model=config.availability_model
        )
        self.selector.bind_fleet(self.fleet)
        # The async driver runs the round stages against this coordinator;
        # sync mode drives them itself (_barrier_round).
        self._async_engine = BufferedAsyncEngine(self) if config.mode == "async" else None

    def close(self) -> None:
        """Release executor resources (pools recreate lazily if reused)."""
        if self._owns_executor:
            self.executor.close()

    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Everything the round loop's trajectory depends on.

        Executor state is deliberately absent (executors are Stateful with
        empty payloads — pools and snapshot segments are derived), so a
        checkpoint taken under one backend resumes under any other.  In
        async mode the engine payload includes pending work: checkpoints
        are only ever taken between ``step()`` calls, a wave-drain barrier
        where per-step accumulators are known-zero.
        """
        engine = self._async_engine
        return {
            "schema": self.schema,
            # PCG64's state is a plain dict of JSON scalars (Python ints
            # are arbitrary-precision, so the 128-bit words survive JSON).
            "rng": self.rng.bit_generator.state,
            # Both process-global id counters travel: models and cells
            # minted after a resume (growth, deepen transforms) must get
            # the same ids an uninterrupted run would mint.
            "model_id_counter": model_id_counter(),
            "cell_id_counter": cell_id_counter(),
            # Fleet columns (activity stamps, utility EMA, round-time
            # windows) are checkpointed here and only here; the selector
            # and pacing payloads carry what the policy itself owns.
            "fleet": self.fleet.state_dict(),
            "selector": self.selector.state_dict(),
            "strategy": self.strategy.state_dict(),
            "engine": engine.state_dict() if engine is not None else None,
            # Quarantine gate state (running per-model norm estimates): a
            # resumed run must gate exactly like the uninterrupted one.
            "validator": (
                self.validator.state_dict() if self.validator is not None else None
            ),
            # Transport codec state (error-feedback residuals): lossy
            # compressed runs must resume with the exact residual stream
            # the uninterrupted run would carry (CONTRACTS.md I9/I11).
            "transport": (
                self.transport.state_dict() if self.transport is not None else None
            ),
        }

    def load_state_dict(self, payload: dict) -> None:
        """Strict like a derived reader; the RNG state must have the live
        generator's layout, and a component's payload ``None`` exactly
        when this coordinator lacks the component."""
        keys = ("rng", "model_id_counter", "cell_id_counter", "fleet", "selector", "strategy",
                "engine", "validator", "transport")
        check_schema(payload, self.schema, keys)
        counters = [checked(self.schema, payload, key, int) for key in keys[1:3]]
        rng = payload["rng"]
        if _layout(rng) != _layout(self.rng.bit_generator.state):
            raise ValueError(f"{self.schema} rng: not the live generator's state layout")
        # Strategy first: it may rebuild models (FedTrans's suite grows
        # mid-run), and the counter restamp below must land after every
        # model exists again.  Restoring a model never consumes the
        # counter (model_from_spec takes explicit ids), so the restored
        # position is exactly the checkpointed one.
        with naming(self.schema, "strategy"):
            self.strategy.load_state_dict(payload["strategy"])
        set_model_id_counter(counters[0])
        set_cell_id_counter(counters[1])
        with naming(self.schema, "rng"):
            self.rng.bit_generator.state = rng
        # ``None`` as a value: written in sync mode / with the quarantine
        # gate / transport codec off.  The keys themselves are always present.
        for key, live in (
            ("fleet", self.fleet), ("selector", self.selector), ("engine", self._async_engine),
            ("validator", self.validator), ("transport", self.transport),
        ):
            with naming(self.schema, key):
                load_optional(live, payload[key])

    def _checkpoint_payload(self, log: TrainingLog, next_round: int) -> dict:
        return {
            "schema": schema_tag("RunCheckpoint"),
            "next_round": next_round,
            "coordinator": self.state_dict(),
            "log": log_state_dict(log),
        }

    # ------------------------------------------------------------------
    def run(self) -> TrainingLog:
        """Execute the configured number of rounds (or stop at convergence).

        With ``checkpoint_dir`` set the run writes crash-consistent
        checkpoints into its registry directory (every ``checkpoint_every``
        rounds, plus a final ``completed`` one); with ``resume=True`` it
        first loads the last good checkpoint there and continues from the
        next round — or returns the finished log immediately if the run
        already completed, which makes resume idempotent under kill loops.
        """
        cfg = self.config
        log = TrainingLog(
            strategy=self.strategy.name,
            mode=cfg.mode,
            compress=self.transport.config.spec if self.transport is not None else None,
        )
        start_round = 0
        writer: CheckpointWriter | None = None
        if cfg.checkpoint_dir is not None:
            run_dir = RunRegistry(cfg.checkpoint_dir).run_dir(
                self.strategy.name, cfg, self.clients
            )
            rhash = run_hash(self.strategy.name, cfg, self.clients)
            writer = CheckpointWriter(run_dir, rhash)
            if cfg.resume:
                found = load_checkpoint(run_dir, rhash)
                # No checkpoint yet (e.g. killed before the first write)
                # is a valid fresh start, not an error.
                if found is not None:
                    try:
                        self.load_state_dict(found["payload"]["coordinator"])
                        log = log_from_state(found["payload"]["log"])
                    except ValueError as exc:
                        path = run_dir / found["manifest"]["last_good"]
                        raise ValueError(f"checkpoint {path} does not resume: {exc}") from exc
                    if found["manifest"]["completed"]:
                        self.close()
                        return log
                    start_round = int(found["payload"]["next_round"])
        try:
            for round_idx in range(start_round, cfg.rounds):
                record = self._run_round(round_idx, log)
                log.rounds.append(record)
                log.peak_storage_bytes = max(
                    log.peak_storage_bytes, self.strategy.storage_bytes()
                )
                if (round_idx + 1) % cfg.eval_every == 0 or round_idx == cfg.rounds - 1:
                    self._evaluate_into(log, round_idx)
                    if self._converged([ev.mean_accuracy for ev in log.evals]):
                        log.stopped_round = round_idx
                        log.stop_reason = "converged"
                        break
                if (
                    writer is not None
                    and cfg.checkpoint_every is not None
                    and (round_idx + 1) % cfg.checkpoint_every == 0
                ):
                    writer.write(
                        round_idx,
                        self._checkpoint_payload(log, next_round=round_idx + 1),
                        completed=False,
                    )
            else:
                log.stopped_round = cfg.rounds - 1
                log.stop_reason = "budget"
            if not log.evals or log.evals[-1].round_idx != log.stopped_round:
                self._evaluate_into(log, log.stopped_round)
            if writer is not None:
                # Terminal checkpoint: marks the run finished so a later
                # --resume returns this log instead of training again.
                writer.write(
                    log.stopped_round,
                    self._checkpoint_payload(log, next_round=log.stopped_round + 1),
                    completed=True,
                )
        finally:
            self.close()
        return log

    def _converged(self, acc_history: list[float]) -> bool:
        """Stop when the last ``patience`` evals beat the prior best by <= δ.

        The baseline is the *running best* accuracy before the patience
        window, not the single eval ``patience + 1`` ago: a single noisy
        eval at that position used to dictate the stop decision all by
        itself (e.g. a transient dip there made every later window look
        like fresh improvement, postponing the stop indefinitely).
        """
        p = self.config.convergence_patience
        if len(acc_history) <= p:
            return False
        recent = acc_history[-p:]
        baseline = max(acc_history[:-p])
        return max(recent) - baseline <= self.config.convergence_delta

    # ------------------------------------------------------------------
    def _evaluate_into(self, log: TrainingLog, round_idx: int) -> None:
        """Sweep the fleet, settle the sweep's waves, append the record."""
        ev = self.evaluate(round_idx, log.total_macs)
        self._settle(log)
        log.evals.append(ev)

    def _settle(self, log: TrainingLog) -> tuple[int, int]:
        """Fold what the executor's last waves left behind into the log.

        Train *and* eval waves can heal, retry and publish: drains the
        recovery ledger into the log's meters and adds the snapshot bytes
        published since the previous call to the transport ledger,
        returning that ``(raw, wire)`` delta for the round's record.  Both
        are infrastructure telemetry and never enter the trajectory export
        (CONTRACTS.md I10).
        """
        for rec in self.executor.drain_fault_records():
            log.faults.append(rec)
            if rec.action == "pool_rebuild":
                log.worker_restarts += 1
            elif rec.action == "retry":
                log.retries += 1
            elif rec.action == "failed":
                log.failed_updates += 1
        cur = (
            int(self.executor.raw_bytes_published_total),
            int(self.executor.bytes_published_total),
        )
        raw_d, wire_d = cur[0] - self._pub_seen[0], cur[1] - self._pub_seen[1]
        self._pub_seen = cur
        log.publish_raw_bytes_total += raw_d
        log.publish_wire_bytes_total += wire_d
        return raw_d, wire_d

    # ------------------------------------------------------------------
    def _run_round(self, round_idx: int, log: TrainingLog) -> RoundRecord:
        """The single per-round entry: the async engine's step, or the barrier."""
        if self._async_engine is None:
            return self._barrier_round(round_idx, log)
        record = self._async_engine.step(round_idx, log)
        record.publish_raw_bytes, record.publish_wire_bytes = self._settle(log)
        return record

    def _barrier_round(self, round_idx: int, log: TrainingLog) -> RoundRecord:
        """The sync driver of the round stages (:mod:`~repro.fl.rounds`).

        One wave over the whole fleet view; every result arrives at once; a
        permanently failed item is dropped on its own; the round lasts as
        long as its slowest participant.
        """
        cfg = self.config
        tally = RoundTally(
            self.selector.offline_fallback_rounds, requested=cfg.clients_per_round
        )
        # The whole fleet is eligible, in registration order (I12).
        participants = self.selector.select(
            round_idx, self.fleet.view(), cfg.clients_per_round, self.rng
        )
        tally.selected = len(participants)
        assignments = self.strategy.assign(round_idx, participants, self.rng)
        models = self.strategy.models()
        work = [(round_idx, c.client_id, assignments[c.client_id]) for c in participants]
        pairs, failures = dispatch(self, work, models)
        # Settled before admit() writes to the same ledger: the executor's
        # recovery records precede the round's quarantine rejections.
        publish = self._settle(log)
        events = tally.events
        events.extend(
            f"work item (client {f.client_id}, model {f.model_id}) failed "
            f"permanently after {f.attempts} attempts: {f.error}"
            for f in failures
        )
        encode(self, pairs, models)
        # A client's sub-models train sequentially on-device, clients in
        # parallel across the fleet: per-client sum, fleet-wide max.
        elapsed = {c.client_id: 0.0 for c in participants}
        for item, update in pairs:
            elapsed[item.client_id] += update.round_time
        updates = [u for _, u in pairs]
        meter(tally, updates)
        updates = admit(self, round_idx, updates, log, events)
        if updates:
            events = (
                list(self.strategy.aggregate(round_idx, updates, self.rng) or [])
                + events
            )
        else:
            events.append("no usable updates this round; aggregation skipped")
        if len(participants) < cfg.clients_per_round:
            events.append(
                f"under-provisioned round: selected {len(participants)} of "
                f"{cfg.clients_per_round} requested clients"
            )
        record = close_round(
            self, round_idx, log, tally, updates,
            participants=[c.client_id for c in participants],
            assignments=assignments,
            round_time=float(max(elapsed.values())),
            num_models=len(models),
            events=events,
        )
        record.publish_raw_bytes, record.publish_wire_bytes = publish
        return record

    # ------------------------------------------------------------------
    def evaluate(self, round_idx: int, cumulative_macs: float) -> EvalRecord:
        """Per-client test accuracy on each client's deployment.

        The deployed models are resolved in one ``eval_models`` call per
        sweep (resolving twice could re-rank utilities and record a
        different model than the one actually evaluated); clients
        sharing an ensemble are then chunked into deployment groups, and
        one executor wave scores them all
        (:meth:`~repro.fl.executor.RoundExecutor.eval_round`).
        """
        used = self.strategy.eval_models(self.clients)
        groups: dict[tuple[str, ...], list[int]] = {}
        for i, client in enumerate(self.clients):
            key = self.strategy.eval_ensemble(client, used[i])
            groups.setdefault(key, []).append(i)
        chunk = self.config.eval_group_clients
        chunked: list[list[int]] = []
        tasks: list[EvalTask] = []
        for key, idxs in groups.items():
            for start in range(0, len(idxs), chunk):
                part = idxs[start : start + chunk]
                chunked.append(part)
                tasks.append(
                    EvalTask(key, tuple(self.clients[i].client_id for i in part))
                )
        accs = np.zeros(len(self.clients))
        # Looked up at call time: a tracer may wrap the executor's seam.
        outs = self.executor.eval_round(tasks, self.strategy.models(), self.config.eval_batch_size)
        for idxs, group_accs in zip(chunked, outs):
            accs[idxs] = group_accs
        return EvalRecord(
            round_idx=round_idx,
            cumulative_macs=cumulative_macs,
            client_accuracy=accs,
            client_model=used,
            mean_accuracy=float(accs.mean()),
            evaluated_clients=len(self.clients),
        )
