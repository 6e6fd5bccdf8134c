"""Buffered-asynchronous round engine: determinism, buffering, deadlines.

The async engine (fl/async_engine.py) carries over the executor's
determinism contract — event ties break on ``(finish_time, dispatch_seq)``
and every RNG derives from SeedSequence spawn keys — so async runs are
bit-identical across seeds/backends.  These tests also pin the buffered
aggregation semantics (buffer_k arrivals per step, staleness discount) and
the deadline straggler policy's cost accounting, plus the round-loop fixes
that shipped with the engine (config validation, convergence baseline).
"""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import HeteroFLStrategy, SplitMixStrategy, fedavg
from repro.core import FedTransConfig, FedTransStrategy
from repro.data import SyntheticTaskConfig, build_federated_dataset
from repro.device import DeviceTrace
from repro.device.latency import client_round_time
from repro.fl import (
    Coordinator,
    CoordinatorConfig,
    FLClient,
    LocalTrainerConfig,
    TrainItem,
)
from repro.fl.async_engine import BufferedAsyncEngine, VirtualClock
from repro.fl.checkpoint import CheckpointWriter
from repro.fl.executor import RoundExecutor, SerialExecutor
from repro.fl.async_engine import _Pending
from repro.fl.export import log_to_dict
from repro.fl.scheduling import estimate_round_time
from repro.fl.transport import TransportCodec
from repro.nn import mlp
from repro.nn.cells import set_cell_id_counter
from repro.nn.model import set_model_id_counter

SLOW_SPEED = 1e7  # 100x slower compute than the rest of the fleet
FAST_SPEED = 1e9
SLOW_BW = 2e4  # and 50x slower network: true stragglers
FAST_BW = 1e6
NUM_SLOW = 2
TRAINER = LocalTrainerConfig(batch_size=8, local_steps=5, lr=0.2)


def _dataset(num_clients=12, seed=0):
    cfg = SyntheticTaskConfig(
        num_classes=4,
        input_shape=(8,),
        latent_dim=6,
        teacher_width=12,
        class_sep=3.0,
        seed=seed,
    )
    return build_federated_dataset(cfg, num_clients, mean_samples=25, seed=seed)


def _straggler_clients(ds):
    """A fleet whose first NUM_SLOW clients are dramatically slower."""
    return [
        FLClient(
            c.client_id,
            c,
            DeviceTrace(
                c.client_id,
                SLOW_SPEED if c.client_id < NUM_SLOW else FAST_SPEED,
                SLOW_BW if c.client_id < NUM_SLOW else FAST_BW,
                1e15,
            ),
        )
        for c in ds.clients
    ]


def _duration(client, model, trainer=TRAINER):
    """Exact simulated round time for one (client, model) work item."""
    return client_round_time(
        client.device,
        model.macs(),
        model.nbytes(),
        min(trainer.batch_size, client.data.num_train),
        trainer.local_steps,
    )


def _cfg(rounds=6, **over):
    cfg = dict(
        rounds=rounds,
        clients_per_round=6,
        trainer=TRAINER,
        eval_every=3,
        seed=0,
        mode="async",
        buffer_k=3,
    )
    cfg.update(over)
    return CoordinatorConfig(**cfg)


def _run(config, ds=None, clients=None, width=16):
    ds = ds or _dataset()
    clients = clients or _straggler_clients(ds)
    model = mlp(ds.input_shape, ds.num_classes, np.random.default_rng(0), width=width)
    return Coordinator(fedavg(model), clients, config).run()


def _arrival_key(a):
    # model_ids come from a process-global counter (two runs mint different
    # ids for the same model) — compare everything else bit-exactly.
    return (
        a.dispatch_seq,
        a.client_id,
        a.dispatch_time,
        a.finish_time,
        a.staleness,
        a.dropped,
    )


def _assert_async_logs_identical(a, b):
    assert len(a.rounds) == len(b.rounds)
    for ra, rb in zip(a.rounds, b.rounds):
        assert ra.participants == rb.participants
        assert ra.mean_loss == rb.mean_loss  # bit-identical, no tolerance
        assert ra.round_time == rb.round_time
        assert list(map(_arrival_key, ra.arrivals)) == list(map(_arrival_key, rb.arrivals))
    for ea, eb in zip(a.evals, b.evals):
        assert (ea.client_accuracy == eb.client_accuracy).all()
        assert ea.mean_accuracy == eb.mean_accuracy
    assert a.total_macs == b.total_macs
    assert a.dropped_updates == b.dropped_updates
    assert a.dropped_macs == b.dropped_macs


class TestVirtualClock:
    def test_orders_by_time_then_dispatch_seq(self):
        clock = VirtualClock()
        p = [
            _Pending(s, s, ("m",), 0.0, 0.0, 0, False) for s in range(3)
        ]
        clock.schedule(2.0, 1, p[1])
        clock.schedule(1.0, 2, p[2])
        clock.schedule(2.0, 0, p[0])
        popped = [clock.pop()[1] for _ in range(3)]
        assert popped == [2, 0, 1]  # earliest time first, then lowest seq
        assert clock.now == 2.0

    def test_now_never_rewinds(self):
        clock = VirtualClock()
        clock.schedule(5.0, 0, _Pending(0, 0, ("m",), 0.0, 5.0, 0, False))
        clock.schedule(3.0, 1, _Pending(1, 1, ("m",), 0.0, 3.0, 0, False))
        clock.pop()
        assert clock.now == 3.0
        clock.pop()
        assert clock.now == 5.0

    def test_pop_empty_raises(self):
        with pytest.raises(RuntimeError, match="no scheduled events"):
            VirtualClock().pop()


class TestAsyncDeterminism:
    def test_repeat_run_bit_identical(self):
        _assert_async_logs_identical(_run(_cfg()), _run(_cfg()))

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_backends_bit_identical_to_serial(self, backend):
        ref = _run(_cfg())
        par = _run(_cfg(executor=backend, max_workers=2))
        _assert_async_logs_identical(ref, par)

    def test_fedtrans_runs_async(self):
        """The multi-model strategy works under buffered aggregation."""
        ds = _dataset(num_clients=10)
        rng = np.random.default_rng(0)
        init = mlp(ds.input_shape, ds.num_classes, rng, width=8)
        clients = [
            FLClient(c.client_id, c, DeviceTrace(c.client_id, 1e9, 1e6, init.macs() * 16))
            for c in ds.clients
        ]
        strategy = FedTransStrategy(
            init,
            FedTransConfig(gamma=2, delta=2, beta=0.5, max_models=3),
            max_capacity_macs=init.macs() * 16,
        )
        log = Coordinator(strategy, clients, _cfg(rounds=12)).run()
        assert log.mode == "async"
        assert len(log.rounds) == 12
        assert np.isfinite(log.final_accuracy())

    def test_seed_changes_the_run(self):
        a = _run(_cfg())
        b = _run(_cfg(seed=1))
        assert [r.participants for r in a.rounds] != [r.participants for r in b.rounds]


class TestBufferedAggregation:
    def test_buffer_k_participants_per_step(self):
        log = _run(_cfg(buffer_k=4))
        assert all(len(r.participants) == 4 for r in log.rounds)

    def test_round_times_sum_to_clock(self):
        """Async round_time is the per-step clock delta (module contract)."""
        log = _run(_cfg())
        last_finish = max(
            a.finish_time for r in log.rounds for a in r.arrivals if not a.dropped
        )
        assert log.simulated_time() == pytest.approx(last_finish)

    def test_arrivals_pop_in_event_order(self):
        deadline = 1e9  # effectively disabled but exercises the capped path
        log = _run(_cfg(deadline_s=deadline))
        keys = [
            (
                min(a.finish_time, a.dispatch_time + deadline),
                a.dispatch_seq,
            )
            for r in log.rounds
            for a in r.arrivals
        ]
        assert keys == sorted(keys)

    def test_over_selection_defaults(self):
        ds = _dataset()
        clients = _straggler_clients(ds)
        model = mlp(ds.input_shape, ds.num_classes, np.random.default_rng(0), width=8)
        coord = Coordinator(fedavg(model), clients, _cfg(buffer_k=None))
        engine = coord._async_engine
        assert engine.concurrency == 6  # clients_per_round kept in flight
        assert engine.buffer_k == 3  # aggregates on half of them
        coord.close()

    def test_staleness_discount_blends_toward_server(self, rng):
        """f = discount**staleness; aggregate sees f*update + (1-f)*server."""
        ds = _dataset(num_clients=4)
        clients = _straggler_clients(ds)
        strategy = fedavg(mlp(ds.input_shape, ds.num_classes, rng, width=8))
        server = strategy.model.get_params()
        ex = SerialExecutor(clients, TRAINER, seed=0)
        (update,) = ex.train_round(
            0, [TrainItem(strategy.model.model_id, 0, 0)], strategy.models()
        )
        f = 0.5**2
        expected = {k: f * update.params[k] + (1 - f) * server[k] for k in server}
        strategy.aggregate_buffered(0, [update], [2], rng, staleness_discount=0.5)
        got = strategy.model.get_params()
        for k in expected:  # single update => FedAvg adopts it verbatim
            assert np.allclose(got[k], expected[k])

    def test_staleness_discount_blends_state_too(self, rng):
        """Non-trainable state (BatchNorm running stats) is discounted like
        params — a stale straggler must not drag the server's statistics
        toward obsolete values at full weight."""
        from repro.fl import ClientUpdate
        from repro.nn import small_resnet

        model = small_resnet((3, 8, 8), 4, rng, width=4, blocks=1)
        assert model.state(), "workload must have stateful layers"
        strategy = fedavg(model)
        server_state = model.get_state()
        stale_state = {k: v + 1.0 for k, v in server_state.items()}
        update = ClientUpdate(
            client_id=0,
            model_id=model.model_id,
            params=model.get_params(),
            state=stale_state,
            grad={k: np.ones_like(v) for k, v in model.get_params().items()},
            train_loss=1.0,
            num_samples=10,
            macs_spent=0.0,
            bytes_down=0,
            bytes_up=0,
            round_time=0.0,
        )
        f = 0.5**3
        expected = {k: f * stale_state[k] + (1 - f) * server_state[k] for k in server_state}
        strategy.aggregate_buffered(0, [update], [3], rng, staleness_discount=0.5)
        got = strategy.model.get_state()
        for k in expected:
            assert np.allclose(got[k], expected[k])

    def test_zero_staleness_equals_sync_aggregate(self, rng):
        ds = _dataset(num_clients=4)
        clients = _straggler_clients(ds)
        model = mlp(ds.input_shape, ds.num_classes, rng, width=8)
        s_sync, s_buf = fedavg(model.clone(keep_id=True)), fedavg(model.clone(keep_id=True))
        ex = SerialExecutor(clients, TRAINER, seed=0)
        items = [TrainItem(model.model_id, c.client_id, 0) for c in clients[:3]]
        updates = ex.train_round(0, items, s_sync.models())
        s_sync.aggregate(0, updates, np.random.default_rng(0))
        s_buf.aggregate_buffered(
            0, updates, [0] * len(updates), np.random.default_rng(0), 0.5
        )
        a, b = s_sync.model.get_params(), s_buf.model.get_params()
        assert all(np.array_equal(a[k], b[k]) for k in a)


class TestDeadlinePolicy:
    def _deadline_between(self, clients, model):
        """A deadline every fast client beats and every straggler misses.

        Kept close above the fast durations so drop events (which fire at
        ``dispatch + deadline``) actually pop within the short simulated
        span of a test run.
        """
        slow = min(_duration(c, model) for c in clients[:NUM_SLOW])
        fast = max(_duration(c, model) for c in clients[NUM_SLOW:])
        assert 2 * fast < slow
        return 2 * fast

    def test_drops_metered_in_cost_ledger(self):
        ds = _dataset()
        clients = _straggler_clients(ds)
        model = mlp(ds.input_shape, ds.num_classes, np.random.default_rng(0), width=16)
        deadline = self._deadline_between(clients, model)
        log = _run(_cfg(rounds=10, deadline_s=deadline), ds=ds, clients=clients)
        dropped = [a for r in log.rounds for a in r.arrivals if a.dropped]
        assert log.dropped_updates == len(dropped) > 0
        assert 0 < log.dropped_macs < log.total_macs
        # Dropped compute is charged to the per-step and total ledgers.
        assert sum(r.macs for r in log.rounds) == pytest.approx(log.total_macs)
        # Stragglers never make it into an aggregation.
        slow_ids = set(range(NUM_SLOW))
        assert not any(slow_ids & set(r.participants) for r in log.rounds)
        # A dropped arrival's event fires at the deadline, not its finish.
        assert all(a.finish_time - a.dispatch_time > deadline for a in dropped)

    def test_deadline_beats_sync_on_straggler_fleet(self):
        """The whole point: simulated time collapses once stragglers can't
        stall progress (sync pays max-over-participants every round)."""
        ds = _dataset()
        clients = _straggler_clients(ds)
        model = mlp(ds.input_shape, ds.num_classes, np.random.default_rng(0), width=16)
        deadline = self._deadline_between(clients, model)
        sync = _run(
            CoordinatorConfig(
                rounds=8, clients_per_round=6, trainer=TRAINER, eval_every=4, seed=0
            ),
            ds=ds,
            clients=clients,
        )
        async_dl = _run(
            _cfg(rounds=8, eval_every=4, deadline_s=deadline), ds=ds, clients=clients
        )
        assert async_dl.simulated_time() < sync.simulated_time()

    def test_impossible_deadline_raises(self):
        ds = _dataset()
        clients = _straggler_clients(ds)
        with pytest.raises(RuntimeError, match="no client can finish"):
            _run(_cfg(deadline_s=1e-12), ds=ds, clients=clients)


class TestConfigValidation:
    def test_rejects_degenerate_loop_params(self):
        for bad in (
            dict(rounds=0),
            dict(rounds=-3),
            dict(eval_every=0),
            dict(clients_per_round=0),
            dict(convergence_patience=0),
        ):
            with pytest.raises(ValueError):
                CoordinatorConfig(**bad)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            CoordinatorConfig(mode="semi-sync")

    def test_async_knobs_require_async_mode(self):
        for knob in (dict(buffer_k=3), dict(deadline_s=5.0), dict(async_concurrency=4)):
            with pytest.raises(ValueError, match="requires mode='async'"):
                CoordinatorConfig(**knob)

    def test_rejects_bad_async_values(self):
        for bad in (
            dict(mode="async", buffer_k=0),
            dict(mode="async", deadline_s=0.0),
            dict(mode="async", deadline_s=-1.0),
            dict(mode="async", async_concurrency=0),
            dict(mode="async", staleness_discount=0.0),
            dict(mode="async", staleness_discount=1.5),
        ):
            with pytest.raises(ValueError):
                CoordinatorConfig(**bad)

    def test_valid_async_config_accepted(self):
        cfg = CoordinatorConfig(mode="async", buffer_k=3, deadline_s=10.0)
        assert cfg.buffer_k == 3


class TestConvergenceBaseline:
    def _coordinator(self, patience=3):
        ds = _dataset(num_clients=3)
        clients = _straggler_clients(ds)
        model = mlp(ds.input_shape, ds.num_classes, np.random.default_rng(0), width=8)
        return Coordinator(
            fedavg(model),
            clients,
            CoordinatorConfig(
                rounds=2, clients_per_round=2, convergence_patience=patience
            ),
        )

    def test_dip_at_baseline_no_longer_hides_convergence(self):
        """Regression: with the single-eval baseline, a transient dip at
        position -patience-1 made the recent window look like fresh
        improvement (0.7 - 0.3 >> delta) and the run never stopped, even
        though it had not recovered its earlier 0.8 best."""
        coord = self._coordinator(patience=3)
        assert coord._converged([0.8, 0.3, 0.5, 0.6, 0.7])
        coord.close()

    def test_genuine_improvement_keeps_running(self):
        coord = self._coordinator(patience=3)
        assert not coord._converged([0.3, 0.4, 0.5, 0.6, 0.7])
        coord.close()

    def test_short_history_never_converged(self):
        coord = self._coordinator(patience=3)
        assert not coord._converged([0.5, 0.5, 0.5])
        coord.close()

    def test_plateau_converges(self):
        coord = self._coordinator(patience=3)
        assert coord._converged([0.2, 0.7, 0.7, 0.705, 0.7])
        coord.close()


# ----------------------------------------------------------------------
# deferred training: an async item trains when its result is first read
# ----------------------------------------------------------------------
def _eager(monkeypatch):
    """Today's eager engine: every wave flushes (trains, encodes, schedules)
    at its own end — the oracle the deferred engine must reproduce."""
    fill = BufferedAsyncEngine._fill_slots

    def fill_and_flush(self, tally):
        fill(self, tally)
        self._flush(tally)

    monkeypatch.setattr(BufferedAsyncEngine, "_fill_slots", fill_and_flush)


def _fleet(num_clients=20, **devices):
    """A 16-feature fleet in which every 5th device is a straggler."""
    ds = _dataset(num_clients=num_clients)
    slow = devices.get("slow", (SLOW_SPEED, SLOW_BW))
    fast = devices.get("fast", (FAST_SPEED, FAST_BW))
    return ds, [
        FLClient(
            c.client_id,
            c,
            DeviceTrace(c.client_id, *(slow if c.client_id % 5 == 0 else fast), 1e15),
        )
        for c in ds.clients
    ]


def _bytes(model) -> bytes:
    return b"".join(arr.tobytes() for *_, arr in model.tensors("param", "state"))


def _fleet_coordinator(ckpt_dir=None, resume=False, **over):
    """Async HeteroFL on a straggler fleet, fresh id counters (a new
    process): ``downsize`` has smaller widths to pick and ``drop`` fires."""
    set_model_id_counter(0)
    set_cell_id_counter(0)
    ds, clients = _fleet()
    strategy = HeteroFLStrategy(mlp(ds.input_shape, ds.num_classes, np.random.default_rng(0), width=16))
    smallest = min(strategy.models().values(), key=lambda m: m.macs())
    kw = dict(
        rounds=5,
        clients_per_round=8,
        trainer=TRAINER,
        eval_every=2,
        seed=0,
        mode="async",
        buffer_k=3,
        deadline_s=2 * estimate_round_time(clients[0], smallest, TRAINER),
        max_workers=2,
    )
    if ckpt_dir is not None:
        kw.update(checkpoint_every=2, checkpoint_dir=str(ckpt_dir), resume=resume)
    kw.update(over)
    return Coordinator(strategy, clients, CoordinatorConfig(**kw))


def _dumps(log) -> str:
    return json.dumps(log_to_dict(log), sort_keys=True)


_ORACLES: dict[tuple, str] = {}

STACKS = [
    dict(compress=compress, wire_time=wire, straggler=straggler, pacing=pacing)
    for compress in (None, "update:topk0.05+int8", "update:rle")
    for wire in (False, True)
    for straggler in ("drop", "downsize")
    for pacing in ("static", "quantile")
    if compress is not None or not wire  # wire_time needs an update codec
]


def _stack_id(stack):
    return "-".join(str(v) for v in stack.values())


class TestDeferredTraining:
    @pytest.mark.parametrize("stack", STACKS, ids=_stack_id)
    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_deferred_run_is_the_eager_run(self, executor, stack, monkeypatch):
        key = tuple(stack.values())
        if key not in _ORACLES:
            with monkeypatch.context() as m:
                _eager(m)
                _ORACLES[key] = _dumps(_fleet_coordinator(**stack).run())
        deferred = _dumps(_fleet_coordinator(executor=executor, **stack).run())
        assert deferred == _ORACLES[key]

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_resume_mid_run_is_the_eager_run(self, tmp_path, executor, monkeypatch):
        stack = dict(
            compress="update:topk0.05+int8", wire_time=True, straggler="downsize",
            pacing="quantile", rounds=6,
        )
        with monkeypatch.context() as m:
            _eager(m)
            ref = _dumps(_fleet_coordinator(**stack).run())
        coord = _fleet_coordinator(tmp_path, executor=executor, **stack)
        real = coord._run_round

        def crash_at_4(round_idx, log):
            if round_idx == 4:  # after the round-3 checkpoint
                raise RuntimeError("injected crash")
            return real(round_idx, log)

        coord._run_round = crash_at_4
        with pytest.raises(RuntimeError, match="injected"):
            coord.run()
        resumed = _fleet_coordinator(tmp_path, resume=True, executor=executor, **stack)
        assert _dumps(resumed.run()) == ref

    def test_nothing_is_deferred_at_a_step_boundary(self, tmp_path, monkeypatch):
        """Aggregation, evaluation and checkpoint writes see no untrained
        dispatch, so none of them can observe (or persist) deferred work."""
        coord = _fleet_coordinator(
            tmp_path, compress="update:topk0.05+int8", wire_time=True, rounds=4
        )
        engine = coord._async_engine
        seen: dict[str, int] = {}

        def guard(name, fn):
            def wrapped(*args, **kwargs):
                assert engine._deferred == [], name
                seen[name] = seen.get(name, 0) + 1
                return fn(*args, **kwargs)

            return wrapped

        strategy = coord.strategy
        monkeypatch.setattr(
            strategy, "aggregate_buffered", guard("aggregate", strategy.aggregate_buffered)
        )
        monkeypatch.setattr(
            Coordinator, "evaluate", guard("evaluate", Coordinator.evaluate)
        )
        monkeypatch.setattr(
            CheckpointWriter, "write", guard("checkpoint", CheckpointWriter.write)
        )
        flushes = []
        flush = BufferedAsyncEngine._flush
        monkeypatch.setattr(
            BufferedAsyncEngine,
            "_flush",
            lambda self, tally: (flushes.append(len(self._deferred)), flush(self, tally)),
        )
        coord.run()
        assert seen["aggregate"] == 4 and seen["evaluate"] >= 2 and seen["checkpoint"] >= 2
        assert max(flushes) > 1  # waves did stack
        engine._deferred.append(None)
        with pytest.raises(RuntimeError, match="deferred"):
            engine.state_dict()

    def test_an_update_is_encoded_against_its_dispatch_epoch(self, monkeypatch):
        """The staleness anchor survives deferral: each update's codec
        reference is the very model (object and bytes) the server held
        when the client was dispatched, and its pending event carries that
        epoch's version."""
        coord = _fleet_coordinator(compress="update:topk0.05+int8", wire_time=True, rounds=6)
        engine = coord._async_engine
        at_dispatch: dict[int, tuple] = {}
        fill = BufferedAsyncEngine._fill_slots

        def fill_and_record(self, tally):
            fill(self, tally)
            models = self._models()
            for d in self._deferred:
                at_dispatch.setdefault(
                    d.client_id,
                    (self._version, {m: (id(models[m]), _bytes(models[m])) for m in d.model_ids}),
                )

        encoded = []
        encode_update = TransportCodec.encode_update

        def encode_and_check(self, updates, references=None, **kw):
            # One call per flush; HeteroFL assigns one model per client:
            # one update per dispatch.
            for update, reference in zip(updates, references):
                version, refs = at_dispatch.pop(update.client_id)
                assert engine._version == version
                assert (id(reference), _bytes(reference)) == refs[update.model_id]
                encoded.append(update.client_id)
            return encode_update(self, updates, references, **kw)

        monkeypatch.setattr(BufferedAsyncEngine, "_fill_slots", fill_and_record)
        monkeypatch.setattr(TransportCodec, "encode_update", encode_and_check)
        log = coord.run()
        assert len(encoded) >= 20
        assert max(a.staleness for r in log.rounds for a in r.arrivals) >= 1

    def test_train_round_calls_of_the_fleet_smoke_workload(self, tmp_path, monkeypatch):
        """The 200-client ``fleet_async_mixed`` smoke config at seed 0 trains
        its 31 items in 4 ``train_round`` calls (16 when every wave trained
        at dispatch)."""
        path = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "workloads.py"
        spec = importlib.util.spec_from_file_location("_e2e_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)
        spec.loader.exec_module(workloads)
        calls = []
        train_round = RoundExecutor.train_round

        def counted(self, round_idx, items, models):
            calls.append(len(items))
            return train_round(self, round_idx, items, models)

        monkeypatch.setattr(RoundExecutor, "train_round", counted)
        coord = workloads.WORKLOADS["fleet_async_mixed"].build(0, True, tmp_path)
        try:
            coord.run()
        finally:
            coord.executor.close()
        assert (len(calls), sum(calls)) == (4, 31)

    def test_encode_calls_of_the_fleet_smoke_workload(self, tmp_path, monkeypatch):
        """The same run encodes its 31 updates in 4 ``encode_update`` calls,
        one per flush (31 when the codec took one update per call)."""
        path = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "workloads.py"
        spec = importlib.util.spec_from_file_location("_e2e_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)
        spec.loader.exec_module(workloads)
        calls = []
        encode_update = TransportCodec.encode_update

        def counted(self, updates, *args, **kw):
            calls.append(len(updates))
            return encode_update(self, updates, *args, **kw)

        monkeypatch.setattr(TransportCodec, "encode_update", counted)
        coord = workloads.WORKLOADS["fleet_async_mixed"].build(0, True, tmp_path)
        try:
            coord.run()
        finally:
            coord.executor.close()
        assert calls == [16, 7, 6, 2]


def _bound_run(draw_fleet, strategy_kind, width, deadline_mult, compress):
    """Run a small async fleet and return, per flushed dispatch, its
    event-time lower bound and realized event time, plus per trained item
    ``(estimate_round_time, pre-encode round_time)``."""
    set_model_id_counter(0)
    set_cell_id_counter(0)
    ds, clients = _fleet(num_clients=10, **draw_fleet)
    init = mlp(ds.input_shape, ds.num_classes, np.random.default_rng(0), width=width)
    strategy = {"fedavg": fedavg, "heterofl": HeteroFLStrategy, "splitmix": SplitMixStrategy}[
        strategy_kind
    ](init)
    # A fast client's longest possible dispatch: every model, back to back.
    fast = max(
        sum(estimate_round_time(c, m, TRAINER) for m in strategy.models().values())
        for c in clients
        if c.client_id % 5
    )
    config = CoordinatorConfig(
        rounds=3, clients_per_round=5, trainer=TRAINER, eval_every=3, seed=0, mode="async",
        buffer_k=2, deadline_s=fast * deadline_mult, compress=compress, wire_time=True,
    )
    coord = Coordinator(strategy, clients, config)
    bounds, estimates = [], []
    flush = BufferedAsyncEngine._flush
    encode_update = TransportCodec.encode_update

    def flush_and_record(self, tally):
        models = self._models()
        lower = {d.client_id: self._event_bound(d, models) for d in self._deferred}
        flush(self, tally)
        for time, _, pending in self.clock._events:
            if pending.client_id in lower:
                bounds.append((lower[pending.client_id], time, pending.dropped))

    def encode_and_record(self, updates, references=None, **kw):
        for update, reference in zip(updates, references):
            client = coord.executor.clients_by_id[update.client_id]
            estimates.append((estimate_round_time(client, reference, TRAINER), update.round_time))
        return encode_update(self, updates, references, **kw)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(BufferedAsyncEngine, "_flush", flush_and_record)
        m.setattr(TransportCodec, "encode_update", encode_and_record)
        coord.run()
    return bounds, estimates


_DEVICES = st.fixed_dictionaries(
    {
        "slow": st.tuples(st.floats(1e5, 1e9), st.floats(1e2, 1e7)),
        "fast": st.tuples(st.floats(1e8, 1e11), st.floats(1e4, 1e8)),
    }
)
_BOUND_ARGS = dict(
    draw_fleet=_DEVICES,
    strategy_kind=st.sampled_from(["fedavg", "heterofl", "splitmix"]),
    width=st.integers(4, 24),
    # >= 1: the fast devices always fit, so the drop spin guard never fires;
    # the slow ones are dropped at (or downsized to) the deadline.
    deadline_mult=st.floats(1.0, 50.0),
    compress=st.sampled_from(
        ["update:topk0.05+int8", "update:topk0.3", "update:int8", "update:bf16", "update:rle"]
    ),
)


class TestDeferralBound:
    @settings(max_examples=20, deadline=None)
    @given(**_BOUND_ARGS)
    def test_lower_bound_never_exceeds_the_event_time(self, **args):
        bounds, _ = _bound_run(**args)
        assert bounds
        for lower, time, _ in bounds:
            assert lower <= time

    @settings(max_examples=20, deadline=None)
    @given(**_BOUND_ARGS)
    def test_estimate_is_the_pre_encode_round_time(self, **args):
        _, estimates = _bound_run(**args)
        assert estimates
        for estimate, round_time in estimates:
            assert estimate == round_time
