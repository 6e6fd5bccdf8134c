"""Scheduling subsystem: selectors, pacing, stragglers, utility eviction.

The heart of the suite is the golden bit-identity contract: the default
policy stack (``uniform`` selector, ``static`` pacing, ``drop``
stragglers, eviction off) must reproduce the pre-subsystem engine's
``TrainingLog`` numbers *exactly* — the fixture under
``tests/data/golden_prerefactor_scheduling.json`` was generated by the
inline implementation the subsystem replaced, and every backend x mode
combination is checked against it.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.baselines import HeteroFLStrategy, fedavg
from repro.core import FedTransConfig, FedTransStrategy
from repro.data import SyntheticTaskConfig, build_federated_dataset
from repro.device import DeviceTrace
from repro.fl import (
    Coordinator,
    CoordinatorConfig,
    FLClient,
    LocalTrainerConfig,
    log_to_dict,
)
from repro.fl.scheduling import (
    FleetStore,
    QuantilePacing,
    estimate_round_time,
    make_pacing,
    make_selector,
    make_straggler,
)
from repro.fl.scheduling.pacing import AdaptivePacing, StaticPacing
from repro.fl.scheduling.selectors import (
    AvailabilityAwareSelector,
    OortSelector,
    UniformSelector,
    uniform_choice,
)
from repro.fl.scheduling.straggler import DownsizePolicy, DropPolicy
from repro.nn import mlp

GOLDEN = Path(__file__).parent / "data" / "golden_prerefactor_scheduling.json"

TRAINER = LocalTrainerConfig(batch_size=8, local_steps=5, lr=0.2)


def _dataset(num_clients=12, seed=0):
    task = SyntheticTaskConfig(
        num_classes=4,
        input_shape=(8,),
        latent_dim=6,
        teacher_width=12,
        class_sep=3.0,
        seed=seed,
    )
    return build_federated_dataset(task, num_clients, mean_samples=25, seed=seed)


def _straggler_clients(ds, num_slow=2):
    return [
        FLClient(
            c.client_id,
            c,
            DeviceTrace(
                c.client_id,
                1e7 if c.client_id < num_slow else 1e9,
                2e4 if c.client_id < num_slow else 1e6,
                1e15,
            ),
        )
        for c in ds.clients
    ]


def _golden_workload(seed=0):
    ds = _dataset(seed=seed)
    clients = _straggler_clients(ds)
    model = mlp(ds.input_shape, ds.num_classes, np.random.default_rng(seed), width=16)
    return clients, model


def _golden_run(mode, **over):
    clients, model = _golden_workload()
    cfg = dict(
        rounds=8,
        clients_per_round=6,
        trainer=TRAINER,
        eval_every=4,
        seed=0,
        mode=mode,
    )
    cfg.update(over)
    coord = Coordinator(
        fedavg(model.clone(keep_id=True)), clients, CoordinatorConfig(**cfg)
    )
    return coord.run()


def _digest(log):
    return {
        "participants": [list(r.participants) for r in log.rounds],
        "mean_loss": [r.mean_loss for r in log.rounds],
        "round_time": [r.round_time for r in log.rounds],
        "macs": [r.macs for r in log.rounds],
        "eval_acc": [[float(a) for a in e.client_accuracy] for e in log.evals],
        "total_macs": log.total_macs,
        "total_bytes_up": log.total_bytes_up,
        "dropped_updates": log.dropped_updates,
        "dropped_macs": log.dropped_macs,
    }


class TestGoldenBitIdentity:
    """Default config == pre-refactor engine, across backends x modes."""

    @pytest.fixture(scope="class")
    def golden(self):
        with open(GOLDEN) as f:
            return json.load(f)

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_sync_matches_prerefactor(self, golden, backend):
        over = {} if backend == "serial" else {"executor": backend, "max_workers": 2}
        assert _digest(_golden_run("sync", **over)) == golden["sync"]

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_async_matches_prerefactor(self, golden, backend):
        over = {} if backend == "serial" else {"executor": backend, "max_workers": 2}
        assert _digest(_golden_run("async", buffer_k=3, **over)) == golden["async"]

    def test_async_deadline_matches_prerefactor(self, golden):
        log = _golden_run("async", buffer_k=3, deadline_s=0.05, rounds=12)
        assert _digest(log) == golden["async_deadline"]
        assert log.dropped_updates > 0  # the fixture exercises the drop path

    def test_explicit_defaults_equal_implicit(self, golden):
        log = _golden_run(
            "async", buffer_k=3, selector="uniform", pacing="static", straggler="drop"
        )
        assert _digest(log) == golden["async"]


class TestSelectors:
    def _clients(self, n=20):
        return _straggler_clients(_dataset(num_clients=n), num_slow=0)

    def test_uniform_choice_raises_below_one(self, rng):
        clients = self._clients(5)
        for bad in (0, -3):
            with pytest.raises(ValueError, match="must be >= 1"):
                uniform_choice(clients, bad, rng)

    def test_uniform_choice_clamps_to_fleet(self, rng):
        pool = FleetStore(self._clients(5)).view()
        assert len(uniform_choice(pool, 50, rng)) == 5

    def test_uniform_selector_matches_uniform_choice(self):
        pool = FleetStore(self._clients()).view()
        a = UniformSelector().select(0, pool, 8, np.random.default_rng(7))
        b = uniform_choice(pool, 8, np.random.default_rng(7))
        assert [c.client_id for c in a] == [c.client_id for c in b]

    def test_availability_mask_is_deterministic_and_subset_stable(self):
        sel = AvailabilityAwareSelector(seed=3, availability=0.5)

        def is_online(round_idx, client_id):
            return bool(sel._online_mask(round_idx, np.asarray([client_id]))[0])

        # Same (round, client) decision regardless of who else is asked.
        assert is_online(4, 9) == is_online(4, 9)
        clients = self._clients()
        pool = FleetStore(clients).view()
        assert sel._online_mask(4, pool.ids)[9] == is_online(4, 9)
        chosen = sel.select(4, pool, 10, np.random.default_rng(0))
        assert all(is_online(4, c.client_id) for c in chosen)
        # A different round flips some coins.
        masks = {
            r: tuple(is_online(r, c.client_id) for c in clients) for r in range(6)
        }
        assert len(set(masks.values())) > 1

    def test_availability_selects_only_online_unless_all_offline(self):
        sel = AvailabilityAwareSelector(seed=0, availability=0.01)
        pool = FleetStore(self._clients(4)).view()
        rng = np.random.default_rng(0)
        # With everyone (almost surely) offline the fallback pool applies.
        chosen = sel.select(0, pool, 2, rng)
        assert len(chosen) == 2

    def test_oort_skews_toward_high_loss_clients(self):
        from repro.fl import ClientUpdate

        sel = OortSelector(alpha=2.0)
        store = FleetStore(self._clients(10))
        sel.bind_fleet(store)

        def upd(cid, loss):
            return ClientUpdate(cid, "m", {}, {}, loss, 1, 0.0, 0, 0, 0.0)

        # Client 0 keeps a high loss, the rest are near zero.
        for r in range(5):
            sel.observe_round(r, [upd(0, 5.0)] + [upd(i, 0.01) for i in range(1, 10)])
        rng = np.random.default_rng(0)
        picks = [
            c.client_id for _ in range(200) for c in sel.select(0, store.view(), 1, rng)
        ]
        frac0 = picks.count(0) / len(picks)
        assert frac0 > 0.5  # ~uniform would be 0.1

    def test_oort_unseen_clients_start_at_max_utility(self):
        from repro.fl import ClientUpdate

        sel = OortSelector()
        store = FleetStore(self._clients(2))  # client 1 never observed
        sel.bind_fleet(store)
        sel.observe_round(0, [ClientUpdate(0, "m", {}, {}, 4.0, 1, 0.0, 0, 0, 0.0)])
        w = sel._weights(store.view())
        assert w[1] == pytest.approx(w[0])  # optimistic initialization

    def test_registry_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="unknown selector"):
            make_selector("round-robin")
        with pytest.raises(ValueError, match="unknown pacing"):
            make_pacing("elastic", 2, None, 8, FleetStore(self._clients(2)))
        with pytest.raises(ValueError, match="unknown straggler"):
            make_straggler("retry")


class TestPacing:
    def test_static_passthrough(self):
        p = StaticPacing(base_k=4, deadline_s=1.5, max_k=99)
        client = _straggler_clients(_dataset(num_clients=2))[0]
        assert p.buffer_k(0) == 4
        assert p.deadline_for(client) == 1.5

    def test_adaptive_scales_with_arrival_rate(self):
        p = AdaptivePacing(base_k=4, deadline_s=None, max_k=16, momentum=1.0)
        # Calibration: arrivals every 1s -> rate 1, target span 4s.
        for t in range(1, 6):
            p.observe_arrival(0, 1.0, float(t), dropped=False)
        assert p.buffer_k(0) == 4
        # Fleet speeds up 3x: arrivals every 1/3 s -> k grows toward 12.
        t = 5.0
        for _ in range(30):
            t += 1.0 / 3.0
            p.observe_arrival(0, 0.3, t, dropped=False)
        assert p.buffer_k(1) == 12
        # Fleet collapses to one arrival per 8s -> k shrinks (floor 1).
        for _ in range(30):
            t += 8.0
            p.observe_arrival(0, 8.0, t, dropped=False)
        assert p.buffer_k(2) == 1

    def test_adaptive_ignores_drops_and_respects_max(self):
        p = AdaptivePacing(base_k=2, deadline_s=1.0, max_k=4, momentum=1.0)
        for t in range(1, 4):
            p.observe_arrival(0, 1.0, float(t), dropped=False)
        assert p.buffer_k(0) == 2  # calibrates the target span at 1 arrival/s
        t = 4.0
        for _ in range(20):
            t += 0.001
            p.observe_arrival(0, 0.001, t, dropped=False)
        assert p.buffer_k(5) == 4  # clamped at max_k
        before = p.buffer_k(6)
        p.observe_arrival(0, 99.0, t + 99.0, dropped=True)
        assert p.buffer_k(7) == before  # dropped arrivals don't move the rate

    def test_quantile_estimates_per_class_deadlines(self):
        ds = _dataset(num_clients=8)
        clients = _straggler_clients(ds, num_slow=4)  # two clear speed classes
        p = QuantilePacing(
            base_k=2, deadline_s=None, max_k=8,
            fleet=FleetStore(clients, num_classes=2), q=0.5, slack=2.0, min_samples=4,
        )
        slow = [c for c in clients if c.device.compute_speed == 1e7]
        fast = [c for c in clients if c.device.compute_speed == 1e9]
        assert {p.class_of(c.client_id) for c in slow} == {0}
        assert {p.class_of(c.client_id) for c in fast} == {1}
        # No deadline until a class has min_samples observations.
        assert p.deadline_for(slow[0]) is None
        for i in range(4):
            p.observe_arrival(slow[0].client_id, 10.0, float(i), dropped=False)
            p.observe_arrival(fast[0].client_id, 0.1, float(i), dropped=False)
        assert p.deadline_for(slow[0]) == pytest.approx(20.0)  # q50 * slack
        assert p.deadline_for(fast[0]) == pytest.approx(0.2)
        assert sorted(p.deadline_quantiles()) == pytest.approx([0.2, 20.0])


class TestStragglerPolicies:
    def _suite(self):
        """A two-size model suite plus one slow and one fast client."""
        ds = _dataset(num_clients=4)
        clients = _straggler_clients(ds, num_slow=2)
        rng = np.random.default_rng(0)
        small = mlp(ds.input_shape, ds.num_classes, rng, width=4)
        big = mlp(ds.input_shape, ds.num_classes, rng, width=64)
        models = {small.model_id: small, big.model_id: big}
        return clients, models, small, big

    def test_drop_never_rewrites(self):
        clients, models, small, big = self._suite()
        out, changed = DropPolicy().resolve(
            clients[0], [big.model_id], 1e-9, models, TRAINER, lambda c: list(models)
        )
        assert out == [big.model_id] and not changed

    def test_downsize_swaps_to_largest_fitting_model(self):
        clients, models, small, big = self._suite()
        slow = clients[0]
        est_big = estimate_round_time(slow, big, TRAINER)
        est_small = estimate_round_time(slow, small, TRAINER)
        assert est_small < est_big
        deadline = (est_small + est_big) / 2  # big misses, small fits
        out, changed = DownsizePolicy().resolve(
            slow, [big.model_id], deadline, models, TRAINER, lambda c: list(models)
        )
        assert changed and out == [small.model_id]

    def test_downsize_leaves_fitting_assignments_alone(self):
        clients, models, small, big = self._suite()
        fast = clients[-1]
        deadline = 2 * estimate_round_time(fast, big, TRAINER)
        out, changed = DownsizePolicy().resolve(
            fast, [big.model_id], deadline, models, TRAINER, lambda c: list(models)
        )
        assert out == [big.model_id] and not changed

    def test_downsize_falls_back_when_nothing_fits(self):
        clients, models, small, big = self._suite()
        slow = clients[0]
        deadline = estimate_round_time(slow, small, TRAINER) / 10  # nothing fits
        out, changed = DownsizePolicy().resolve(
            slow, [big.model_id], deadline, models, TRAINER, lambda c: list(models)
        )
        assert out == [big.model_id] and not changed

    def test_downsize_respects_compatible_set(self):
        clients, models, small, big = self._suite()
        slow = clients[0]
        deadline = (
            estimate_round_time(slow, small, TRAINER)
            + estimate_round_time(slow, big, TRAINER)
        ) / 2
        out, changed = DownsizePolicy().resolve(
            slow, [big.model_id], deadline, models, TRAINER, lambda c: [big.model_id]
        )
        assert out == [big.model_id] and not changed  # small not compatible

    def test_downsize_skips_multi_model_assignments(self):
        clients, models, small, big = self._suite()
        out, changed = DownsizePolicy().resolve(
            clients[0],
            [big.model_id, small.model_id],
            1e-9,
            models,
            TRAINER,
            lambda c: list(models),
        )
        assert not changed


class TestAsyncIntegration:
    def _run(self, straggler, deadline, rounds=10, **over):
        ds = _dataset(num_clients=12)
        clients = _straggler_clients(ds)
        global_model = mlp(
            ds.input_shape, ds.num_classes, np.random.default_rng(0), width=32
        )
        cfg = dict(
            rounds=rounds,
            clients_per_round=6,
            trainer=TRAINER,
            eval_every=5,
            seed=0,
            mode="async",
            buffer_k=3,
            deadline_s=deadline,
            straggler=straggler,
        )
        cfg.update(over)
        coord = Coordinator(
            HeteroFLStrategy(global_model.clone()), clients, CoordinatorConfig(**cfg)
        )
        return coord.run()

    def _deadline(self):
        """A deadline a slow client can only meet on a smaller subnet.

        Above the slow clients' *smallest*-subnet estimate (so downsizing
        has somewhere to land) and every fast client's full-model estimate,
        but below the slow clients' full-model estimate (so their default
        assignment predicts late).
        """
        ds = _dataset(num_clients=12)
        clients = _straggler_clients(ds)
        suite = HeteroFLStrategy(
            mlp(ds.input_shape, ds.num_classes, np.random.default_rng(0), width=32)
        ).models()
        smallest = min(suite.values(), key=lambda m: m.macs())
        full = max(suite.values(), key=lambda m: m.macs())
        deadline = 2 * max(
            estimate_round_time(c, smallest, TRAINER) for c in clients[:2]
        )
        assert max(estimate_round_time(c, full, TRAINER) for c in clients[2:]) < deadline
        assert deadline < min(estimate_round_time(c, full, TRAINER) for c in clients[:2])
        return deadline

    def test_downsize_converts_drops_into_updates(self):
        deadline = self._deadline()
        dropped = self._run("drop", deadline)
        downsized = self._run("downsize", deadline)
        assert dropped.dropped_updates > 0 and dropped.downsized_updates == 0
        assert downsized.downsized_updates > 0
        # Every downsize-mode dispatch beat its deadline: nothing dropped.
        assert downsized.dropped_updates == 0
        # Slow clients actually contribute under downsize.
        slow_ids = {0, 1}
        assert any(slow_ids & set(r.participants) for r in downsized.rounds)
        assert not any(slow_ids & set(r.participants) for r in dropped.rounds)
        # And the scheduler records meter it.
        assert sum(r.scheduler.downsized for r in downsized.rounds) == (
            downsized.downsized_updates
        )
        # Downsized dispatches are flagged on their arrival records too.
        flagged = [
            a for r in downsized.rounds for a in r.arrivals if a.downsized
        ]
        assert flagged and all(not a.dropped for a in flagged)

    def test_downsize_is_deterministic(self):
        deadline = self._deadline()
        a = self._run("downsize", deadline)
        b = self._run("downsize", deadline)
        assert [r.mean_loss for r in a.rounds] == [r.mean_loss for r in b.rounds]
        assert [r.round_time for r in a.rounds] == [r.round_time for r in b.rounds]

    def test_quantile_pacing_drops_only_outliers(self):
        # With per-class deadlines, slow clients are judged against their
        # own class's durations: a homogeneous slow class is never dropped.
        log = self._run("drop", None, pacing="quantile")
        assert log.dropped_updates == 0
        quantiles = [
            r.scheduler.deadline_quantiles
            for r in log.rounds
            if r.scheduler.deadline_quantiles
        ]
        assert quantiles, "quantile estimates never materialized"

    def test_adaptive_pacing_effective_k_recorded(self):
        log = self._run("drop", None, pacing="adaptive", rounds=12)
        ks = [r.scheduler.effective_buffer_k for r in log.rounds]
        assert all(k >= 1 for k in ks)
        assert ks[0] == 3  # calibration step runs at base_k

    def test_scheduler_record_exported(self):
        log = self._run("drop", self._deadline(), rounds=4)
        payload = log_to_dict(log)
        sched = payload["rounds"][0]["scheduler"]
        assert sched["selector"] == "uniform"
        assert sched["straggler"] == "drop"
        assert sched["effective_buffer_k"] == 3
        assert payload["totals"]["downsized_updates"] == 0

    def test_availability_selector_runs_async(self):
        log = self._run("drop", None, selector="availability", rounds=4)
        assert len(log.rounds) == 4


class TestSyncSchedulerRecord:
    def _run(self, num_clients, clients_per_round, **over):
        ds = _dataset(num_clients=num_clients)
        clients = _straggler_clients(ds, num_slow=0)
        model = mlp(ds.input_shape, ds.num_classes, np.random.default_rng(0), width=8)
        cfg = dict(
            rounds=3,
            clients_per_round=clients_per_round,
            trainer=TRAINER,
            eval_every=3,
            seed=0,
        )
        cfg.update(over)
        return Coordinator(fedavg(model), clients, CoordinatorConfig(**cfg)).run()

    def test_under_provisioned_round_surfaced(self):
        log = self._run(num_clients=3, clients_per_round=6)
        for r in log.rounds:
            assert r.scheduler.requested == 6
            assert r.scheduler.selected == 3
            assert any("under-provisioned" in e for e in r.events)

    def test_fully_provisioned_round_has_no_event(self):
        log = self._run(num_clients=8, clients_per_round=4)
        for r in log.rounds:
            assert r.scheduler.selected == r.scheduler.requested == 4
            assert not any("under-provisioned" in e for e in r.events)

    def test_sync_rejects_async_only_policies(self):
        with pytest.raises(ValueError, match="requires mode='async'"):
            CoordinatorConfig(pacing="adaptive")
        with pytest.raises(ValueError, match="requires mode='async'"):
            CoordinatorConfig(straggler="downsize")
        with pytest.raises(ValueError, match="selector"):
            CoordinatorConfig(selector="nope")

    def test_oort_selector_end_to_end(self):
        log = self._run(num_clients=8, clients_per_round=4, selector="oort")
        assert len(log.rounds) == 3


class TestEvictionRehydration:
    """An evicted client must be indistinguishable from a fresh one."""

    def _fedtrans(self, evict_after=None, rounds=12):
        ds = _dataset(num_clients=8)
        rng = np.random.default_rng(0)
        init = mlp(ds.input_shape, ds.num_classes, rng, width=8)
        clients = [
            FLClient(c.client_id, c, DeviceTrace(c.client_id, 1e9, 1e6, init.macs() * 16))
            for c in ds.clients
        ]
        strategy = FedTransStrategy(
            init,
            FedTransConfig(gamma=2, delta=2, beta=0.5, max_models=3, evict_after=evict_after),
            max_capacity_macs=init.macs() * 16,
        )
        cfg = CoordinatorConfig(
            rounds=rounds, clients_per_round=4, trainer=TRAINER, eval_every=6, seed=0
        )
        log = Coordinator(strategy, clients, cfg).run()
        return strategy, log

    def test_evicted_client_matches_fresh_assignment_distribution(self):
        from repro.core import ClientManager

        cm = ClientManager(evict_after=3)
        models = self._two_models()
        ids = list(models)
        upd = self._upd
        # Client 0 builds utility history; client 1 keeps the table alive.
        for r in range(3):
            cm.advance_round(r)
            cm.update([upd(0, ids[0], 0.1), upd(1, ids[0], 2.0)], models)
        skewed = cm.assignment_probabilities(0, ids)
        assert not np.allclose(skewed, 0.5)  # history actually skews it
        # Client 0 goes dark; client 1 keeps participating.
        for r in range(3, 10):
            cm.advance_round(r)
            cm.update([upd(1, ids[0], 1.0)], models)
        assert 0 not in cm.state_dict()["clients"]  # evicted
        fresh = ClientManager()
        assert np.allclose(
            cm.assignment_probabilities(0, ids),
            fresh.assignment_probabilities(0, ids),
        )
        # Rehydration: the client participates again and relearns from zero,
        # exactly as a fresh client would.
        cm2 = ClientManager()
        for mgr in (cm, cm2):
            mgr.update([upd(0, ids[0], 0.1), upd(1, ids[0], 2.0)], models)
        assert np.allclose(
            cm.assignment_probabilities(0, ids), cm2.assignment_probabilities(0, ids)
        )

    def test_utilities_survive_set_state_round_trip(self):
        from repro.core import ClientManager

        cm = ClientManager()
        models = self._two_models()
        ids = list(models)
        for _ in range(4):
            cm.update([self._upd(0, ids[0], 0.1), self._upd(1, ids[0], 2.0)], models)
        restored = ClientManager()
        restored.load_state_dict(cm.state_dict())
        for cid in (0, 1):
            for mid in ids:
                assert restored.utility(cid, mid) == cm.utility(cid, mid)
            assert np.allclose(
                restored.assignment_probabilities(cid, ids),
                cm.assignment_probabilities(cid, ids),
            )

    def test_set_state_keeps_configured_eviction_horizon(self):
        from repro.core import ClientManager

        src = ClientManager(evict_after=None)
        models = self._two_models()
        mid = next(iter(models))
        src.update([self._upd(0, mid, 0.5), self._upd(1, mid, 1.5)], models)
        dst = ClientManager(evict_after=7)
        dst.load_state_dict(src.state_dict())
        assert dst.evict_after == 7  # config wins over checkpoint

    def test_too_weak_client_still_learns_utility(self):
        """Regression: aggregate()'s capacity-derived compatible set must
        mirror compatible_models' cheapest-model fallback — a client too
        weak for every model still trains (and deploys) the cheapest one,
        so skipping its Eq. 4 update would freeze its utility at zero."""
        ds = _dataset(num_clients=4)
        rng = np.random.default_rng(0)
        init = mlp(ds.input_shape, ds.num_classes, rng, width=8)
        # Client 0 is below even the initial model's budget; the rest fit.
        clients = [
            FLClient(
                c.client_id,
                c,
                DeviceTrace(
                    c.client_id, 1e9, 1e6,
                    init.macs() / 2 if c.client_id == 0 else init.macs() * 4,
                ),
            )
            for c in ds.clients
        ]
        strategy = FedTransStrategy(
            init,
            FedTransConfig(gamma=2, delta=2, beta=1e-9, max_models=1),
            max_capacity_macs=init.macs() * 4,
        )
        cfg = CoordinatorConfig(
            rounds=4, clients_per_round=4, trainer=TRAINER, eval_every=4, seed=0
        )
        Coordinator(strategy, clients, cfg).run()
        assert strategy.client_manager.utility(0, init.model_id) != 0.0

    def test_fedtrans_run_with_eviction_stays_finite(self):
        strategy, log = self._fedtrans(evict_after=2)
        assert np.isfinite(log.final_accuracy())
        # Someone went inactive long enough to be evicted in 12 rounds of
        # 4-of-8 sampling; the meter surfaces it.
        assert log.evicted_clients == strategy.client_manager.evicted_total > 0
        assert len(strategy.client_manager.state_dict()["clients"]) <= 8

    # -- helpers -------------------------------------------------------
    @staticmethod
    def _upd(cid, mid, loss):
        from repro.fl import ClientUpdate

        return ClientUpdate(cid, mid, {}, {}, loss, 1, 0.0, 0, 0, 0.0)

    @staticmethod
    def _two_models():
        rng = np.random.default_rng(0)
        parent = mlp((6,), 3, rng, width=4)
        child = parent.clone()
        child.widen_cell(child.transformable_cells()[0].cell_id, 2.0, rng)
        return {parent.model_id: parent, child.model_id: child}
