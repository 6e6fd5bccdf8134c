"""Columnar fleet store: O(active) views, vectorized selectors, durability.

The contract under test is CONTRACTS.md I12: scheduler tick cost is
O(active), and the default-stack selection stream is bit-identical to the
object-per-client list path the columns replaced.  Every vectorized
re-implementation here is pinned against its scalar/list reference —
same RNG state, same picks, same floats.  ``src/`` only has the columnar
path; the list/dict references are the ``_list_*`` / ``_DictOort`` oracles
below, each written once.
"""

import json
from collections import deque

import numpy as np
import pytest

from repro.data import SyntheticTaskConfig, build_federated_dataset
from repro.device import DeviceTrace
from repro.baselines import fedavg
from repro.fl import Coordinator, CoordinatorConfig, FLClient, LocalTrainerConfig
from repro.fl.scheduling import (
    AvailabilityAwareSelector,
    FleetStore,
    FleetView,
    OortSelector,
    RoundTimeStats,
    estimate_round_time,
    make_straggler,
    parse_availability,
    positions_to_rows,
    uniform_choice,
)
from repro.fl.scheduling.availability import (
    BernoulliAvailability,
    DiurnalAvailability,
    TraceAvailability,
)
from repro.nn import mlp

TRAINER = LocalTrainerConfig(batch_size=8, local_steps=5, lr=0.2)


def _clients(n=16, seed=0):
    task = SyntheticTaskConfig(
        num_classes=4,
        input_shape=(8,),
        latent_dim=6,
        teacher_width=12,
        class_sep=3.0,
        seed=seed,
    )
    ds = build_federated_dataset(task, n, mean_samples=25, seed=seed)
    rng = np.random.default_rng(seed)
    return [
        FLClient(
            c.client_id,
            c,
            DeviceTrace(
                c.client_id,
                float(rng.uniform(1e7, 1e9)),
                float(rng.uniform(1e4, 1e6)),
                1e15,
            ),
        )
        for c in ds.clients
    ]


# ----------------------------------------------------------------------
# list / dict oracles: what the selectors did over a list[FLClient] pool
# ----------------------------------------------------------------------
def _list_choice(pool, num, rng, p=None):
    """``rng.choice`` over list positions, then an index loop."""
    idx = rng.choice(len(pool), size=min(num, len(pool)), replace=False, p=p)
    return [pool[i] for i in idx]


def _list_availability(sel, round_idx, pool, num, rng):
    """Mask the list by the selector's coin, fall back to everyone if empty."""
    ids = np.asarray([c.client_id for c in pool])
    online = [c for c, m in zip(pool, sel._online_mask(round_idx, ids)) if m]
    return _list_choice(online or pool, num, rng)


class _DictOort:
    """Oort's utility EMA in a dict; unseen clients enter at the running max."""

    def __init__(self, alpha=2.0, momentum=0.5):
        self.alpha, self.momentum, self.utility = alpha, momentum, {}

    def observe_round(self, updates):
        m = self.momentum
        for u in updates:
            prev = self.utility.get(u.client_id)
            loss = float(u.train_loss)
            self.utility[u.client_id] = (
                loss if prev is None else (1.0 - m) * prev + m * loss
            )

    def weights(self, pool):
        default = max(self.utility.values()) if self.utility else 1.0
        u = np.array([self.utility.get(c.client_id, default) for c in pool])
        w = (1e-6 + np.maximum(u, 0.0)) ** self.alpha
        return w / w.sum()


# ----------------------------------------------------------------------
# positions_to_rows / views
# ----------------------------------------------------------------------
def test_positions_to_rows_matches_delete():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(5, 200))
        removed = np.unique(rng.integers(0, n, size=int(rng.integers(0, n // 2 + 1))))
        survivors = np.delete(np.arange(n, dtype=np.int64), removed)
        if survivors.size == 0:
            continue
        positions = rng.integers(0, survivors.size, size=min(16, survivors.size))
        got = positions_to_rows(positions, removed)
        assert np.array_equal(got, survivors[positions])


def test_available_view_matches_list_comprehension():
    clients = _clients(20)
    store = FleetStore(clients)
    in_flight = {1, 4, 5, 17}
    store.set_in_flight_ids(in_flight)
    view = store.available_view()
    expected = [c.client_id for c in clients if c.client_id not in in_flight]
    assert len(view) == len(expected)
    assert list(store.ids[view.rows()]) == expected
    assert list(view.ids) == expected
    # Selection streams are identical at the same RNG state.
    picked_list = _list_choice(
        [c for c in clients if c.client_id not in in_flight],
        6,
        np.random.default_rng(9),
    )
    picked_view = uniform_choice(view, 6, np.random.default_rng(9))
    assert [c.client_id for c in picked_list] == [c.client_id for c in picked_view]


def test_view_shapes_and_restrict():
    clients = _clients(10)
    store = FleetStore(clients)
    view = store.view()
    assert len(view) == 10
    mask = np.zeros(10, dtype=bool)
    mask[[2, 5, 9]] = True
    sub = view.restrict(mask)
    assert list(sub.ids) == [2, 5, 9]
    assert [c.client_id for c in sub.take(np.asarray([1, 0]))] == [5, 2]
    with pytest.raises(ValueError):
        FleetView(store, rows=np.asarray([1]), excluded=np.asarray([2]))


def test_class_of_id_has_no_default_for_unknown_clients():
    store = FleetStore(_clients(4))
    assert store.class_of_id(3) == int(store.classes[store.row_of(3)])
    with pytest.raises(KeyError):  # was a silent class 0 (ROADMAP 5c)
        store.class_of_id(99)


# ----------------------------------------------------------------------
# RoundTimeStats vs the deque windows it replaced
# ----------------------------------------------------------------------
def test_round_time_stats_matches_deque_reference():
    rng = np.random.default_rng(5)
    window, num_classes = 7, 3
    stats = RoundTimeStats(num_classes, window)
    reference = [deque(maxlen=window) for _ in range(num_classes)]
    for _ in range(100):
        cls = int(rng.integers(num_classes))
        dur = float(rng.uniform(0.1, 9.0))
        stats.observe(cls, dur)
        reference[cls].append(dur)
        assert stats.count(cls) == len(reference[cls])
        # Same multiset per window -> bit-identical quantiles.
        assert stats.quantile(cls, 0.9) == float(
            np.quantile(list(reference[cls]), 0.9)
        )
    assert stats.chronological() == [list(d) for d in reference]
    reloaded = RoundTimeStats(num_classes, window)
    reloaded.load_state_dict(stats.state_dict())
    assert reloaded.chronological() == stats.chronological()


# ----------------------------------------------------------------------
# availability: mask invariance, churn models, fallback metering
# ----------------------------------------------------------------------
def test_availability_mask_pool_order_invariant():
    sel = AvailabilityAwareSelector(seed=3)
    ids = np.arange(200, dtype=np.int64)
    perm = np.random.default_rng(0).permutation(200)
    mask = sel._online_mask(6, ids)
    assert np.array_equal(sel._online_mask(6, ids[perm]), mask[perm])
    # And invariant to who else is asked: the view's id column hashes to
    # the verdict each client gets when asked about alone.
    view = FleetStore(_clients(20)).view()
    for cid, online in zip(view.ids, sel._online_mask(6, view.ids)):
        assert online == sel._online_mask(6, np.asarray([cid]))[0]


def test_availability_view_and_list_paths_identical():
    clients = _clients(24)
    store = FleetStore(clients)
    sel = AvailabilityAwareSelector(seed=5)
    for r in range(8):
        a = _list_availability(sel, r, clients, 6, np.random.default_rng(100 + r))
        b = sel.select(r, store.view(), 6, np.random.default_rng(100 + r))
        assert [c.client_id for c in a] == [c.client_id for c in b]


def test_offline_fallback_metered(tmp_path):
    # A rate this low leaves every one of 12 clients offline most rounds:
    # selection must fall back to the full pool (no deadlock) and meter it.
    model = TraceAvailability([1e-9])
    sel = AvailabilityAwareSelector(seed=0, model=model)
    clients = _clients(12)
    store = FleetStore(clients)
    sel.bind_fleet(store)
    picked = sel.select(0, store.view(), 4, np.random.default_rng(0))
    assert len(picked) == 4
    assert sel.offline_fallback_rounds == 1
    # The counter is trajectory state: it survives a checkpoint round-trip.
    fresh = AvailabilityAwareSelector(seed=0, model=model)
    fresh.load_state_dict(sel.state_dict())
    assert fresh.offline_fallback_rounds == 1


def test_availability_spec_parsing(tmp_path):
    assert isinstance(parse_availability("bernoulli:0.5"), BernoulliAvailability)
    d = parse_availability("diurnal:base=0.6,amplitude=0.4,period=12")
    assert isinstance(d, DiurnalAvailability)
    # The wave stays clipped into (0, 1] and classes see phase-shifted rates.
    classes = np.asarray([0, 1, 2, 3], dtype=np.int16)
    for r in range(12):
        rates = d.rates(r, classes)
        assert ((rates > 0.0) & (rates <= 1.0)).all()
    assert d.rates(3, classes)[0] != d.rates(3, classes)[1]
    path = tmp_path / "trace.json"
    path.write_text(json.dumps({"period": 3, "rates": [[0.9, 0.5, 0.2], [0.8, 0.4, 0.1]]}))
    t = parse_availability(f"trace:{path}")
    assert isinstance(t, TraceAvailability)
    assert t.rates(4, classes)[0] == 0.5  # round 4 -> slot 1; class 0 row
    assert t.rates(4, classes)[3] == 0.4  # class index clamps to last row
    for bad in (
        "bogus:1",
        "bernoulli:nope",
        "bernoulli:0",
        "diurnal:base=2",
        "diurnal:junk",
        "trace:",
        "flat",
    ):
        with pytest.raises(ValueError):
            parse_availability(bad)
    path.write_text(json.dumps({"period": 5, "rates": [[0.9, 0.5]]}))
    with pytest.raises(ValueError):
        parse_availability(f"trace:{path}")


def test_config_availability_trace_validation():
    with pytest.raises(ValueError, match="selector='availability'"):
        CoordinatorConfig(availability_trace="bernoulli:0.5")
    with pytest.raises(ValueError):
        CoordinatorConfig(selector="availability", availability_trace="bogus:1")
    cfg = CoordinatorConfig(selector="availability", availability_trace="bernoulli:0.5")
    assert cfg.availability_trace == "bernoulli:0.5"
    with pytest.raises(ValueError, match="evict_after"):
        CoordinatorConfig(evict_after=0)


def test_trace_file_is_read_once_by_the_config(tmp_path):
    """The config parses the spec; the engine gets the parsed model and never
    goes back to the spec string (or the file behind it)."""
    path = tmp_path / "trace.json"
    path.write_text(json.dumps({"period": 2, "rates": [[0.9, 0.5]]}))
    cfg = CoordinatorConfig(
        rounds=1, clients_per_round=2, trainer=TRAINER,
        selector="availability", availability_trace=f"trace:{path}",
    )
    path.unlink()
    clients = _clients(4)
    model = mlp((8,), 4, np.random.default_rng(0), width=8)
    coord = Coordinator(fedavg(model), clients, cfg)
    assert coord.selector.model is cfg.availability_model
    assert isinstance(cfg.availability_model, TraceAvailability)
    coord.close()


# ----------------------------------------------------------------------
# oort: bound == unbound, bounded state under churn
# ----------------------------------------------------------------------
class _FakeUpdate:
    def __init__(self, client_id, loss):
        self.client_id = client_id
        self.train_loss = loss


def _resident(store):
    """``{client id: utility}`` of the rows holding one (the dict oracle's shape)."""
    u = store.utilities(np.arange(store.num_rows), np.nan)
    return {int(c): float(x) for c, x in zip(store.ids, u) if not np.isnan(x)}


def test_oort_bound_and_unbound_identical():
    clients = _clients(15)
    store = FleetStore(clients)
    unbound = _DictOort()
    bound = OortSelector()
    bound.bind_fleet(store)
    rng = np.random.default_rng(2)
    for r in range(12):
        ups = [
            _FakeUpdate(int(rng.integers(15)), float(rng.uniform(0.1, 3.0)))
            for _ in range(5)
        ]
        unbound.observe_round(ups)
        bound.observe_round(r, ups)
        weights = unbound.weights(clients)
        assert np.array_equal(weights, bound._weights(store.view()))
        a = _list_choice(clients, 4, np.random.default_rng(50 + r), p=weights)
        b = bound.select(r, store.view(), 4, np.random.default_rng(50 + r))
        assert [c.client_id for c in a] == [c.client_id for c in b]
    assert _resident(store) == unbound.utility


def test_oort_state_bounded_under_churn():
    """Satellite regression: 100k distinct churning clients must not grow
    the selector's resident state past the fleet columns."""
    n = 100_000
    store = FleetStore.from_columns(np.arange(n), evict_after=3)
    sel = OortSelector()
    sel.bind_fleet(store)
    nbytes_start = store.nbytes()
    rng = np.random.default_rng(0)
    for r in range(50):
        cids = rng.choice(n, size=2_000, replace=False)
        sel.observe_round(
            r, [_FakeUpdate(int(c), 1.0 + (int(c) % 7) / 10.0) for c in cids]
        )
        store.advance(r)
    # Only clients seen inside the eviction window stay resident: bounded
    # by (window + 1) waves of observations, far below total churn.
    assert store.resident_utilities() <= 4 * 2_000
    assert store.nbytes() == nbytes_start  # columns never grow
    assert store.evicted_total > 0


def test_store_advance_eviction_matches_contract():
    store = FleetStore.from_columns(np.arange(6), evict_after=2)
    store.observe_utility(0, [0, 1], [1.0, 2.0], 0.5)
    assert store.advance(2) == 0  # age == evict_after: strictly-greater keeps
    assert store.advance(3) == 2
    assert store.resident_utilities() == 0
    # Disabled eviction never evicts.
    keep = FleetStore.from_columns(np.arange(6))
    keep.observe_utility(0, [0], [1.0], 0.5)
    assert keep.advance(1000) == 0
    assert keep.resident_utilities() == 1


# ----------------------------------------------------------------------
# straggler predictor + wave resolve
# ----------------------------------------------------------------------
def test_predict_round_times_matches_scalar():
    clients = _clients(14)
    store = FleetStore(clients)
    model = mlp((8,), 4, np.random.default_rng(0), width=16)
    est = store.predict_round_times(np.arange(len(clients)), model, TRAINER)
    for i, c in enumerate(clients):
        assert est[i] == estimate_round_time(c, model, TRAINER)


def test_downsize_resolve_wave_matches_scalar_loop():
    clients = _clients(10)
    store = FleetStore(clients)
    rng = np.random.default_rng(0)
    big = mlp((8,), 4, rng, width=64)
    small = mlp((8,), 4, rng, width=8)
    models = {big.model_id: big, small.model_id: small}
    policy = make_straggler("downsize")
    assignments = {c.client_id: [big.model_id] for c in clients}
    # Mixed deadlines: None (pass-through), tight (downsize), generous.
    deadlines = {}
    for i, c in enumerate(clients):
        if i % 3 == 0:
            deadlines[c.client_id] = None
        elif i % 3 == 1:
            deadlines[c.client_id] = estimate_round_time(c, big, TRAINER) * 0.5
        else:
            deadlines[c.client_id] = estimate_round_time(c, big, TRAINER) * 2.0
    compatible = lambda client: list(models)  # noqa: E731
    vectorized = policy.resolve_wave(
        clients, dict(assignments), deadlines, models, TRAINER, compatible, fleet=store
    )
    reference = {
        c.client_id: policy.resolve(
            c, assignments[c.client_id], deadlines[c.client_id],
            models, TRAINER, compatible,
        )
        for c in clients
    }
    assert vectorized == reference
    assert any(downsized for _, downsized in vectorized.values())


# ----------------------------------------------------------------------
# durability: compaction, round-trips, selection-stream preservation
# ----------------------------------------------------------------------
def test_remove_compacts_in_place_and_preserves_order():
    clients = _clients(12)
    store = FleetStore(clients)
    store.observe_utility(0, [2, 7, 11], [1.0, 2.0, 3.0], 0.5)
    assert store.remove([3, 7, 0]) == 3
    survivors = [c.client_id for c in clients if c.client_id not in {3, 7, 0}]
    assert list(store.ids) == survivors
    assert _resident(store) == {2: 1.0, 11: 3.0}
    assert store.row_of(2) == survivors.index(2)
    store.mark_in_flight(2)
    with pytest.raises(ValueError, match="in-flight"):
        store.remove([2])


def test_store_roundtrip_after_churn_preserves_selection_streams():
    clients = _clients(18)
    store = FleetStore(clients, evict_after=10)
    store.observe_utility(1, [4, 9, 13], [0.5, 1.5, 2.5], 0.5)
    store.remove([2, 11])
    payload = store.state_dict()
    restored = FleetStore(clients, evict_after=10)
    restored.load_state_dict(payload)  # must replay the removals
    assert np.array_equal(restored.ids, store.ids)
    assert _resident(restored) == _resident(store)
    for name, make in (
        ("uniform", lambda: None),
        ("availability", lambda: AvailabilityAwareSelector(seed=1)),
        ("oort", lambda: OortSelector()),
    ):
        if name == "uniform":
            a = uniform_choice(store.view(), 5, np.random.default_rng(7))
            b = uniform_choice(restored.view(), 5, np.random.default_rng(7))
        else:
            s1, s2 = make(), make()
            s1.bind_fleet(store)
            s2.bind_fleet(restored)
            a = s1.select(3, store.view(), 5, np.random.default_rng(7))
            b = s2.select(3, restored.view(), 5, np.random.default_rng(7))
        assert [c.client_id for c in a] == [c.client_id for c in b], name
    with pytest.raises(ValueError, match="outside the constructed fleet"):
        FleetStore(clients[:4]).load_state_dict(payload)


def test_from_columns_store_is_object_free():
    store = FleetStore.from_columns(np.asarray([5, 9, 2]))
    assert list(store.ids) == [5, 9, 2]  # registration order kept verbatim
    view = store.view()
    assert np.array_equal(view.take_rows(np.asarray([2, 0])), [2, 0])
    with pytest.raises(ValueError, match="no client objects"):
        view.take(np.asarray([0]))
    with pytest.raises(ValueError, match="unique"):
        FleetStore.from_columns(np.asarray([1, 1]))


# ----------------------------------------------------------------------
# scale smoke: a dispatch tick at 1M rows stays inside its budget
# ----------------------------------------------------------------------
def test_million_row_tick_budget():
    import time

    n, k = 1_000_000, 1_000
    store = FleetStore.from_columns(np.arange(n, dtype=np.int64))
    store.set_in_flight_ids(range(0, 3 * k, 3))
    rng = np.random.default_rng(0)
    view = store.available_view()
    rows = view.take_rows(rng.choice(len(view), size=k, replace=False))
    assert rows.size == k  # warm-up + correctness on the first tick
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        view = store.available_view()
        idx = rng.choice(len(view), size=k, replace=False)
        rows = view.take_rows(idx)
        best = min(best, time.perf_counter() - t0)
    # The legacy list path costs ~35ms here; the O(active) tick runs in
    # ~0.1ms.  50ms is a loose CI-noise ceiling, not the expectation.
    assert best < 0.05, f"1M-row tick took {best * 1e3:.1f} ms"
    assert not np.isin(rows, np.fromiter(store._in_flight_rows, dtype=np.int64)).any()
