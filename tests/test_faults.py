"""Fault-tolerance suite: deterministic injection, self-healing, quarantine.

The heart of the suite is the CONTRACTS.md I10 bit-identity matrix: a run
under infrastructure faults (worker crashes — real SIGKILLs on the process
backend — and shm publish/attach failures) must export **byte-identically**
to the fault-free run at the same seed, because recovering the
coordinator's machinery charges zero simulated time.  Task-level failures
(``exc``) charge virtual backoff and are checked for determinism instead;
``poison`` + quarantine and ``hang`` + async deadlines exercise the
degradation paths.
"""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import fedavg
from repro.core import FedTransConfig, FedTransStrategy
from repro.data import SyntheticTaskConfig, build_federated_dataset
from repro.device import DeviceTrace
from repro.fl import (
    Coordinator,
    CoordinatorConfig,
    FLClient,
    LocalTrainerConfig,
    log_to_dict,
    recovery_summary,
)
from repro.fl.faults import (
    FAULT_KINDS,
    FaultConfig,
    FaultPlan,
    ItemFailure,
    QuarantineConfig,
    RetryPolicy,
    SnapshotChainError,
    UpdateValidator,
)
from repro.fl.export import recovery_to_dict
from repro.fl.executor import TrainItem
from repro.fl.faults import (
    InjectedShmFault,
    InjectedTaskError,
    InjectedWorkerCrash,
    fault_kind,
    is_infrastructure_fault,
)
from repro.fl.snapshot import _WORKER, worker_models
from repro.fl.types import ClientUpdate
from repro.nn import mlp

TRAINER = LocalTrainerConfig(batch_size=8, local_steps=5, lr=0.2)


# ----------------------------------------------------------------------
# workload + run helpers
# ----------------------------------------------------------------------
def _workload(seed=0, num_clients=12):
    task = SyntheticTaskConfig(
        num_classes=4,
        input_shape=(8,),
        latent_dim=6,
        teacher_width=12,
        class_sep=3.0,
        seed=seed,
    )
    ds = build_federated_dataset(task, num_clients, mean_samples=25, seed=seed)
    clients = [
        FLClient(c.client_id, c, DeviceTrace(c.client_id, 1e9, 1e6, 1e15))
        for c in ds.clients
    ]
    model = mlp(ds.input_shape, ds.num_classes, np.random.default_rng(seed), width=16)
    return clients, model


_RUN = dict(rounds=4, clients_per_round=6, trainer=TRAINER, eval_every=2, seed=0)


def _run(**over):
    clients, model = _workload()
    cfg = {**_RUN, **over}
    coord = Coordinator(
        fedavg(model.clone(keep_id=True)), clients, CoordinatorConfig(**cfg)
    )
    return coord.run()


def _export(log) -> str:
    """Canonical JSON export with model ids normalized.

    Model ids come from a process-global counter, so two runs built in the
    same interpreter label the same model "m000" vs "m001"; everything
    else in the export must match byte-for-byte.
    """
    raw = json.dumps(log_to_dict(log), sort_keys=True)
    ids: dict[str, str] = {}
    return re.sub(
        r"m\d+", lambda m: ids.setdefault(m.group(0), f"M{len(ids)}"), raw
    )


BACKENDS = [
    pytest.param({"executor": "serial"}, id="serial"),
    pytest.param({"executor": "thread", "max_workers": 3}, id="thread"),
    pytest.param({"executor": "process", "max_workers": 2}, id="process"),
]


# ----------------------------------------------------------------------
# FaultConfig parsing
# ----------------------------------------------------------------------
class TestFaultConfig:
    def test_parse_round_trip(self):
        cfg = FaultConfig.parse("crash=0.05,poison=0.2")
        assert cfg.crash == 0.05 and cfg.poison == 0.2
        assert cfg.exc == cfg.shm == cfg.hang == 0.0
        assert FaultConfig.parse(cfg.spec()) == cfg

    def test_parse_hang_factor(self):
        cfg = FaultConfig.parse("hang=0.5,hang_factor=3")
        assert cfg.hang_factor == 3.0
        assert FaultConfig.parse(cfg.spec()) == cfg

    @pytest.mark.parametrize(
        "spec",
        ["", "bogus=0.5", "crash", "crash=x", "crash=0.1,crash=0.2"],
    )
    def test_parse_rejects(self, spec):
        with pytest.raises(ValueError):
            FaultConfig.parse(spec)

    def test_spec_keeps_every_digit(self):
        cfg = FaultConfig.parse("crash=0.1234567,hang=0.3,hang_factor=12.3456789")
        assert cfg.spec() == "crash=0.1234567,hang=0.3,hang_factor=12.3456789"
        assert FaultConfig.parse("crash=0.05,poison=0.2").spec() == "crash=0.05,poison=0.2"

    @settings(max_examples=400, deadline=None)
    @given(
        st.one_of(
            st.text(),
            st.lists(
                st.tuples(
                    st.sampled_from([*FAULT_KINDS, "hang_factor", "bogus", ""]),
                    st.sampled_from(["=", "", "=="]),
                    st.one_of(
                        st.floats(allow_nan=True, allow_infinity=True).map(repr),
                        st.floats(0, 1).map(str),
                        st.text(max_size=4),
                    ),
                ).map("".join),
                max_size=6,
            ).map(",".join),
        )
    )
    def test_any_text_is_rejected_or_round_trips(self, spec):
        """Arbitrary text either raises ``ValueError`` or parses to a
        config whose canonical spec parses back to an equal config."""
        try:
            cfg = FaultConfig.parse(spec)
        except ValueError:
            return
        assert FaultConfig.parse(cfg.spec()) == cfg

    @pytest.mark.parametrize("factor", [math.nan, math.inf])
    def test_hang_factor_must_be_finite_and_above_one(self, factor):
        with pytest.raises(ValueError, match="hang_factor"):
            FaultConfig(hang=0.5, hang_factor=factor)

    def test_rate_bounds(self):
        with pytest.raises(ValueError):
            FaultConfig(crash=1.5)
        with pytest.raises(ValueError):
            FaultConfig(hang=0.5, hang_factor=1.0)

    def test_any_enabled(self):
        assert not FaultConfig().any_enabled()
        assert FaultConfig(exc=0.01).any_enabled()


# ----------------------------------------------------------------------
# FaultPlan determinism
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_decisions_replay(self):
        cfg = FaultConfig(crash=0.3, exc=0.3, poison=0.3)
        a, b = FaultPlan(7, cfg), FaultPlan(7, cfg)
        for r in range(4):
            for c in range(8):
                item = TrainItem("m0", c, 0)
                assert a.item_faults(r, item) == b.item_faults(r, item)

    def test_seed_changes_decisions(self):
        cfg = FaultConfig(crash=0.5)
        items = [(r, TrainItem("m0", c, 0)) for r in range(6) for c in range(12)]
        a = [FaultPlan(0, cfg).item_faults(r, it).crash for r, it in items]
        b = [FaultPlan(1, cfg).item_faults(r, it).crash for r, it in items]
        assert a != b

    def test_fixed_width_draws(self):
        """Toggling one kind's rate never shifts another kind's stream."""
        just_crash = FaultPlan(0, FaultConfig(crash=0.4))
        both = FaultPlan(0, FaultConfig(crash=0.4, poison=0.4))
        for r in range(6):
            for c in range(12):
                item = TrainItem("m0", c, 0)
                assert (
                    just_crash.item_faults(r, item).crash
                    == both.item_faults(r, item).crash
                )

    def test_publish_fails_deterministic(self):
        plan = FaultPlan(3, FaultConfig(shm=0.5))
        seq = [plan.publish_fails(i) for i in range(40)]
        assert seq == [plan.publish_fails(i) for i in range(40)]
        assert any(seq) and not all(seq)
        assert not FaultPlan(3, FaultConfig(crash=0.5)).publish_fails(0)

    def test_classification_helpers(self):
        assert is_infrastructure_fault(InjectedWorkerCrash("x"))
        assert is_infrastructure_fault(InjectedShmFault("x"))
        assert is_infrastructure_fault(SnapshotChainError("x"))
        assert not is_infrastructure_fault(InjectedTaskError("x"))
        assert fault_kind(InjectedWorkerCrash("x")) == "worker_crash"
        assert fault_kind(InjectedShmFault("x")) == "shm"
        assert fault_kind(SnapshotChainError("x")) == "shm"
        assert fault_kind(ValueError("x")) == "task_error"


# ----------------------------------------------------------------------
# RetryPolicy
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_backoff_schedule(self):
        p = RetryPolicy(max_attempts=4, backoff_s=0.5, backoff_factor=2.0)
        assert [p.backoff(n) for n in (1, 2, 3)] == [0.5, 1.0, 2.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_s=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)


# ----------------------------------------------------------------------
# UpdateValidator units
# ----------------------------------------------------------------------
def _update(client_id=0, norm=1.0, poison=None, model_id="m0"):
    params = {"c0000/w": np.full(4, norm / 2.0)}
    if poison is not None:
        params["c0000/w"] = np.full(4, poison)
    return ClientUpdate(
        client_id=client_id,
        model_id=model_id,
        params=params,
        state={},
        grad={},
        train_loss=0.1,
        num_samples=10,
        macs_spent=1.0,
        bytes_down=1,
        bytes_up=1,
        round_time=0.1,
    )


class TestUpdateValidator:
    def test_rejects_nan_and_inf(self):
        v = UpdateValidator()
        assert v.admit(_update()) is None
        for bad in (np.nan, np.inf, -np.inf):
            reason = v.admit(_update(poison=bad))
            assert reason is not None and "non-finite" in reason
            # clone-tag prefix must not leak into the reason (I10)
            assert "c0000" not in reason and "w]" in reason

    def test_norm_gate_warms_up(self):
        v = UpdateValidator(QuarantineConfig(norm_multiplier=2.0, min_history=3))
        # before min_history accepts, even huge updates pass
        assert v.admit(_update(norm=100.0)) is None
        for _ in range(3):
            assert v.admit(_update(norm=1.0)) is None
        reason = v.admit(_update(norm=1000.0))
        assert reason is not None and "exceeds" in reason
        assert v.admit(_update(norm=1.0)) is None

    def test_rejects_do_not_update_stats(self):
        v = UpdateValidator(QuarantineConfig(norm_multiplier=2.0, min_history=1))
        assert v.admit(_update(norm=1.0)) is None
        state_before = v.state_dict()
        assert v.admit(_update(norm=1000.0)) is not None
        assert v.state_dict() == state_before  # one outlier can't widen the gate

    def test_zero_multiplier_disables_gate(self):
        v = UpdateValidator(QuarantineConfig(norm_multiplier=0.0, min_history=1))
        for norm in (1.0, 1.0, 1e9):
            assert v.admit(_update(norm=norm)) is None

    def test_state_round_trip(self):
        v = UpdateValidator(QuarantineConfig(norm_multiplier=2.0, min_history=1))
        for norm in (1.0, 2.0, 3.0):
            v.admit(_update(norm=norm))
        clone = UpdateValidator(QuarantineConfig(norm_multiplier=2.0, min_history=1))
        clone.load_state_dict(v.state_dict())
        assert clone.state_dict() == v.state_dict()
        assert clone.admit(_update(norm=1000.0)) is not None

    def test_config_validation(self):
        with pytest.raises(ValueError):
            QuarantineConfig(norm_multiplier=-1.0)
        with pytest.raises(ValueError):
            QuarantineConfig(min_history=0)

    @pytest.mark.parametrize("mult", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_norm_multiplier_is_refused(self, mult):
        """``norm > nan * mean`` never fires: a NaN multiplier would leave
        the norm gate silently off, and so would an infinite one."""
        with pytest.raises(ValueError, match="norm_multiplier"):
            QuarantineConfig(norm_multiplier=mult)
        with pytest.raises(ValueError, match="norm_multiplier"):
            CoordinatorConfig(quarantine=True, quarantine_norm_mult=mult)
        # Checked even with the gate off, like a negative multiplier.
        with pytest.raises(ValueError, match="norm_multiplier"):
            CoordinatorConfig(quarantine_norm_mult=mult)

    def test_a_zero_norm_multiplier_still_disables_the_gate(self):
        assert QuarantineConfig(norm_multiplier=0.0).norm_multiplier == 0.0
        CoordinatorConfig(quarantine=True, quarantine_norm_mult=0.0)


# ----------------------------------------------------------------------
# the I10 bit-identity matrix
# ----------------------------------------------------------------------
class TestInfrastructureBitIdentity:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("spec", ["crash=0.5", "shm=0.8", "crash=0.4,shm=0.5"])
    def test_sync_recovery_is_invisible(self, backend, spec):
        clean = _export(_run(**backend))
        faulty = _run(**backend, faults=spec)
        assert _export(faulty) == clean
        rec = recovery_summary(faulty)
        assert rec["worker_restarts"] + rec["retries"] > 0

    def test_process_sigkill_heals_pool(self):
        """THE acceptance run: real SIGKILLs, healed pool, identical export."""
        clean = _export(_run(executor="process", max_workers=2))
        faulty = _run(executor="process", max_workers=2, faults="crash=0.5")
        assert faulty.worker_restarts >= 1
        assert _export(faulty) == clean

    def test_async_crash_recovery_is_invisible(self):
        kw = dict(
            executor="serial", mode="async", buffer_k=3, async_concurrency=4
        )
        clean = _export(_run(**kw))
        faulty = _run(**kw, faults="crash=0.4")
        assert _export(faulty) == clean
        assert recovery_summary(faulty)["retries"] >= 1

    def test_chaos_run_replays(self):
        a = _run(executor="serial", faults="crash=0.3,exc=0.3,hang=0.2")
        b = _run(executor="serial", faults="crash=0.3,exc=0.3,hang=0.2")
        assert _export(a) == _export(b)

        def ledger(log):
            raw = json.dumps(recovery_to_dict(log)["faults"], sort_keys=True)
            ids: dict[str, str] = {}
            return re.sub(
                r"m\d+", lambda m: ids.setdefault(m.group(0), f"M{len(ids)}"), raw
            )

        assert ledger(a) == ledger(b)

    @pytest.mark.parametrize("spec", ["crash=0.5", "shm=0.8"])
    def test_compressed_recovery_is_invisible(self, spec):
        """I10 x I11: a lossless compressed spec + worker crashes.

        10 rounds publish a new segment each round (``snapshot:rle`` is
        accepted; segments stay raw) while workers are being killed and
        healed.  The export must match the *clean compressed* run
        byte-for-byte, and the lossless codec must match the clean
        *uncompressed* trajectory too.
        """
        compress = "update:rle,snapshot:rle"
        kw = dict(executor="process", max_workers=2, rounds=10)
        plain = _run(**kw)
        clean = _run(**kw, compress=compress)
        faulty = _run(**kw, compress=compress, faults=spec)
        assert _export(faulty) == _export(clean)
        rec = recovery_summary(faulty)
        assert rec["worker_restarts"] + rec["retries"] > 0
        # Lossless: only byte accounting may differ from the raw run.
        assert [r.mean_loss for r in clean.rounds] == [
            r.mean_loss for r in plain.rounds
        ]
        assert clean.total_raw_bytes_up == plain.total_bytes_up


# ----------------------------------------------------------------------
# task-level failures: retries, backoff, permanent failure
# ----------------------------------------------------------------------
class TestTaskFailures:
    def test_exc_retries_are_deterministic(self):
        a = _run(executor="serial", faults="exc=0.4")
        b = _run(executor="serial", faults="exc=0.4")
        assert _export(a) == _export(b)
        assert a.retries >= 1 and a.retries == b.retries

    def test_exc_charges_simulated_backoff(self):
        clean = _run(executor="serial")
        faulty = _run(executor="serial", faults="exc=0.4")
        assert sum(r.round_time for r in faulty.rounds) > sum(
            r.round_time for r in clean.rounds
        )

    def test_retry_budget_exhaustion_degrades(self):
        faulty = _run(executor="serial", faults="exc=0.6", retries=1)
        assert faulty.failed_updates >= 1
        assert len(faulty.rounds) == 4  # the run completed anyway
        kinds = {f.kind for f in faulty.faults}
        assert "task_error" in kinds

    def test_async_redispatches_a_wholly_failed_wave(self):
        """A wave whose every client fails permanently leaves nothing in
        flight; the engine dispatches again (regression: it used to pop the
        empty clock — "virtual clock has no scheduled events")."""
        over = dict(mode="async", buffer_k=2, clients_per_round=3, retries=1)
        faulty = _run(faults="exc=0.8", **over)
        assert len(faulty.rounds) == 4  # the run completed anyway
        assert faulty.failed_updates >= 3  # at least one wave failed whole
        assert _export(faulty) == _export(_run(faults="exc=0.8", **over))

    def test_async_hopeless_fault_spec_raises_descriptively(self):
        with pytest.raises(RuntimeError, match=r"faults='exc=1\.0'.*retries=1"):
            _run(mode="async", buffer_k=2, faults="exc=1.0", retries=1)

    def test_failure_without_policy_propagates(self, monkeypatch):
        """No --faults, no --retries: a real error still raises (pre-PR 8)."""
        import repro.fl.executor as executor_mod

        clients, model = _workload()
        coord = Coordinator(
            fedavg(model.clone(keep_id=True)),
            clients,
            CoordinatorConfig(
                rounds=1, clients_per_round=4, trainer=TRAINER, seed=0
            ),
        )

        def boom(*a, **k):
            raise ValueError("real bug, not injected")

        monkeypatch.setattr(executor_mod, "_train_item", boom)
        with pytest.raises(ValueError, match="real bug"):
            coord.run()


def _failing_sweep(monkeypatch, backend, **over):
    """A coordinator whose every sweep job raises, naming the first client
    it scores; patched before the pool starts, so process workers fork
    with the patch."""
    import repro.fl.executor as executor_mod

    def boom(models, env, task, lo, hi, batch_size):
        raise ValueError(f"eval failed at client {task.client_ids[0]};")

    monkeypatch.setattr(executor_mod, "_eval_task", boom)
    clients, model = _workload()
    config = CoordinatorConfig(rounds=1, trainer=TRAINER, seed=0, **backend, **over)
    return Coordinator(fedavg(model.clone(keep_id=True)), clients, config)


class TestEvalFailures:
    """One retry rule for eval work on every backend: the one wave loop."""

    @pytest.mark.parametrize("retries", [None, 2])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_a_failing_sweep_retries_by_the_policy(self, monkeypatch, backend, retries):
        # Three groups of four clients: one job each on every backend
        # (a pool of at most three workers cuts no group of a 3-group wave).
        coord = _failing_sweep(monkeypatch, backend, retries=retries, eval_group_clients=4)
        firsts = [c.client_id for c in coord.clients[::4]]
        try:
            with pytest.raises(ValueError, match=f"client {firsts[0]};"):
                coord.evaluate(0, 0.0)
            records = coord.executor.drain_fault_records()
        finally:
            coord.close()
        if retries is None:
            assert records == []  # raised at once, nothing retried
        else:
            # Every job retried once in job order, then the first exhausted
            # job raised.
            assert [
                (r.round_idx, r.kind, r.action, r.attempts, r.detail) for r in records
            ] == [(-1, "task_error", "retry", 1, f"eval failed at client {c};") for c in firsts]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_the_first_failing_job_raises(self, monkeypatch, backend):
        """Two groups, each a different message (and on a 3-worker pool cut
        in two ranges): the first job's error is the one raised."""
        coord = _failing_sweep(monkeypatch, backend, eval_group_clients=6)
        try:
            with pytest.raises(ValueError, match=f"client {coord.clients[0].client_id};"):
                coord.evaluate(0, 0.0)
            assert coord.executor.drain_fault_records() == []
        finally:
            coord.close()


# ----------------------------------------------------------------------
# quarantine end-to-end
# ----------------------------------------------------------------------
class TestQuarantine:
    def test_clean_run_unchanged(self):
        assert _export(_run(executor="serial", quarantine=True)) == _export(
            _run(executor="serial")
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_poison_quarantined(self, backend):
        log = _run(**backend, faults="poison=0.3", quarantine=True)
        assert log.quarantined_updates >= 1
        assert any(f.action == "quarantined" for f in log.faults)

    def test_poison_identical_across_backends(self):
        exports = {
            _export(_run(**b.values[0], faults="poison=0.3", quarantine=True))
            for b in BACKENDS
        }
        assert len(exports) == 1

    @pytest.mark.parametrize("stack", ["fedtrans", "oort"])
    def test_a_poisoned_loss_never_reaches_a_utility_table(self, stack):
        """Without the gate a poisoned update's NaN weights train to a NaN
        loss a round later.  FedTrans's Eq. 4 table and Oort's fleet column
        refuse it by round, client and model, pointing at --quarantine
        (NumPy's sampler used to fail on NaN probabilities instead); with
        the gate the same run completes."""
        clients, model = _workload()
        cfg = {**_RUN, "rounds": 8, "faults": "poison=0.3"}
        if stack == "oort":
            cfg["selector"] = "oort"

        def run(**gate):
            strategy = (
                FedTransStrategy(
                    model.clone(), FedTransConfig(gamma=2, delta=2, max_models=3),
                    max_capacity_macs=model.macs() * 16,
                )
                if stack == "fedtrans" else fedavg(model.clone())
            )
            return Coordinator(strategy, clients, CoordinatorConfig(**cfg, **gate)).run()

        with pytest.raises(ValueError, match=(
            r"^round \d+: client \d+ trained model m\d+ to a non-finite loss \((nan|inf)\); "
            r".*--quarantine"
        )):
            run()
        assert run(quarantine=True).quarantined_updates >= 1

    def test_async_poison_quarantined(self):
        log = _run(
            executor="serial",
            mode="async",
            buffer_k=3,
            async_concurrency=4,
            faults="poison=0.3",
            quarantine=True,
        )
        assert log.quarantined_updates >= 1
        assert any(a.quarantined for r in log.rounds for a in r.arrivals)


# ----------------------------------------------------------------------
# hang faults drive async deadline drops
# ----------------------------------------------------------------------
def test_hang_pushes_past_async_deadline():
    kw = dict(executor="serial", mode="async", buffer_k=3, async_concurrency=4)
    clean = _run(**kw)
    durations = [
        a.finish_time - a.dispatch_time for r in clean.rounds for a in r.arrivals
    ]
    deadline = max(durations) * 2  # every clean arrival fits comfortably

    def drops(log):
        return sum(1 for r in log.rounds for a in r.arrivals if a.dropped)

    assert drops(_run(**kw, deadline_s=deadline)) == 0
    assert drops(_run(**kw, deadline_s=deadline, faults="hang=0.5")) >= 1


# ----------------------------------------------------------------------
# recovery export + checkpoint codec
# ----------------------------------------------------------------------
class TestRecoveryExport:
    def test_recovery_to_dict_shape(self):
        log = _run(executor="serial", faults="crash=0.5,exc=0.3")
        rec = recovery_to_dict(log)
        assert rec["format"] == 1
        assert rec["retries"] == log.retries
        assert len(rec["faults"]) == len(log.faults)
        for entry in rec["faults"]:
            assert entry["kind"] in ("worker_crash", "shm", "task_error")
            assert entry["action"] in ("pool_rebuild", "retry", "failed")

    def test_log_codec_round_trips_fault_state(self):
        from repro.fl.export import log_from_state, log_state_dict

        log = _run(executor="serial", faults="exc=0.4", quarantine=True)
        clone = log_from_state(log_state_dict(log))
        assert clone.retries == log.retries
        assert clone.quarantined_updates == log.quarantined_updates
        assert clone.faults == log.faults

    def test_pre_fault_checkpoint_payload_is_refused(self):
        """A log payload without the fault ledger cannot reach a current run
        (the fault knobs are in the run hash); the decoder names what is
        missing instead of zero-filling it."""
        from repro.fl.export import log_from_state, log_state_dict

        payload = log_state_dict(_run(executor="serial"))
        dropped = ["failed_updates", "faults", "quarantined_updates", "retries", "worker_restarts"]
        for key in dropped:
            payload.pop(key)
        with pytest.raises(ValueError) as exc_info:
            log_from_state(payload)
        assert f"TrainingLog payload (dict): missing keys {dropped}" in str(exc_info.value)


# ----------------------------------------------------------------------
# satellite: the descriptive missing-segment error
# ----------------------------------------------------------------------
def test_worker_segment_error_names_expected_segment(monkeypatch):
    monkeypatch.setitem(_WORKER, "version", 3)
    monkeypatch.setitem(_WORKER, "name", "repro_live")
    with pytest.raises(SnapshotChainError) as exc_info:
        worker_models(4, "repro_gone")
    msg = str(exc_info.value)
    assert "(v4, 'repro_gone')" in msg  # the expected (version, segment)
    assert "'repro_live' (v3)" in msg  # what the worker actually has
    assert "pool rebuild" in msg  # the explanation
    assert _WORKER["version"] == 3  # a failed attach moves nothing
