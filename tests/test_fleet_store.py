"""Columnar fleet store: vectorized views and selectors, durability.

The contract under test is CONTRACTS.md I12: a scheduler tick is
vectorized column kernels, never a Python loop over the registered fleet,
and the default-stack selection stream is bit-identical to the
object-per-client list path the columns replaced.  Every vectorized
re-implementation here is pinned against its scalar/list reference —
same RNG state, same picks, same floats.  ``src/`` only has the columnar
path; the list/dict references are the ``_list_*`` / ``_DictOort`` oracles
below, each written once; ``FleetStoreMachine`` drives the store through
random operation sequences against them.
"""

import json
import math
import re
import tempfile
from collections import deque
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.data import SyntheticTaskConfig, build_federated_dataset
from repro.device import DeviceTrace
from repro.baselines import fedavg
from repro.fl import Coordinator, CoordinatorConfig, FLClient, LocalTrainerConfig
from repro.fl.scheduling import (
    FleetStore,
    estimate_round_time,
    make_straggler,
    parse_availability,
)
from repro.container import flatten_payload, unflatten_payload
from repro.fl.scheduling.fleet import RoundTimeStats
from repro.fl.scheduling.selectors import (
    AvailabilityAwareSelector,
    OortSelector,
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
# views
# ----------------------------------------------------------------------
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


_DURATIONS = st.one_of(
    st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1.0, 2.5, 1e-300, 1e300, 5e-324]),  # ties, extremes
)


@settings(max_examples=300, deadline=None)
@given(
    window=st.integers(1, 12),
    num_classes=st.integers(1, 3),
    observations=st.lists(st.tuples(st.integers(0, 2), _DURATIONS), max_size=60),
    qs=st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=1, max_size=4),
    reload_at=st.integers(0, 60),
)
@example(  # mixed signed zeros in one window
    window=10,
    num_classes=1,
    observations=[(0, d) for d in [0.0, 1.0, -0.0] + [0.0] * 5 + [1.0, -0.0]],
    qs=[0.5],
    reload_at=60,
)
def test_sorted_window_quantile_is_np_quantile(window, num_classes, observations, qs, reload_at):
    """The sorted window's O(1) quantile is ``np.quantile`` over the ring,
    bit for bit, through ring wrap-around, ties and a ``load_state_dict``
    round trip (which rebuilds the sorted copies).  The reference holds
    each round time as the window stores it: -0.0 as 0.0."""
    qs = [*qs, 0.9, 0.5, 1.0]
    stats = RoundTimeStats(num_classes, window)
    reference = [deque(maxlen=window) for _ in range(num_classes)]
    for step, (cls, duration) in enumerate(observations):
        if step == reload_at:
            reloaded = RoundTimeStats(num_classes, window)
            reloaded.load_state_dict(json.loads(json.dumps(stats.state_dict())))
            stats = reloaded
        cls %= num_classes
        stats.observe(cls, duration)
        reference[cls].append(duration + 0.0)
        for q in qs:
            want = float(np.quantile(np.array(reference[cls]), q))
            assert np.float64(stats.quantile(cls, q)).tobytes() == np.float64(want).tobytes()


def test_a_negative_zero_round_time_is_stored_as_zero():
    """The ring, the sorted copy and a checkpoint all hold +0.0 bytes."""
    positive = np.float64(0.0).tobytes()
    stats = RoundTimeStats(1, 4)
    stats.observe(0, -0.0)
    assert np.float64(stats.quantile(0, 0.5)).tobytes() == positive
    payload = json.dumps(stats.state_dict())
    assert "-0.0" not in payload
    reloaded = RoundTimeStats(1, 4)
    reloaded.load_state_dict(json.loads(payload))
    for held in (stats, reloaded):
        assert [np.float64(v).tobytes() for v in held.chronological()[0]] == [positive]
        assert np.float64(held.quantile(0, 1.0)).tobytes() == positive


def test_a_round_time_is_a_finite_non_negative_number():
    """The live write path refuses what the checkpoint reader refuses."""
    stats = RoundTimeStats(2, 4)
    for bad in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError, match="class 1"):
            stats.observe(1, bad)
    assert stats.count(1) == 0


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


@pytest.mark.parametrize(
    "spec",
    [
        "diurnal:period=nan",
        "diurnal:period=inf",
        "diurnal:period=-1",
        "diurnal:class_phase=nan",
        "diurnal:class_phase=-inf",
        "diurnal:base=0.5,base=0.6",
        "diurnal:amplitude=nan",
        "bernoulli:nan",
    ],
)
def test_a_non_finite_or_repeated_diurnal_parameter_is_refused(spec):
    with pytest.raises(ValueError):
        parse_availability(spec)


@pytest.mark.parametrize(
    "payload",
    [
        {"period": [1], "rates": [0.5]},
        {"period": 1.7, "rates": [0.5]},
        {"period": 1.0, "rates": [0.5]},
        {"period": True, "rates": [0.5]},
        {"rates": {}},
        {"rates": [[0.5], [0.5, 0.6]]},
        {"rates": [{"a": 1}]},
        {"rates": [10**400]},
        {"rates": [float("nan")]},
        "[" * 100_000,
    ],
)
def test_a_malformed_trace_file_is_a_value_error(tmp_path, payload):
    path = tmp_path / "trace.json"
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    with pytest.raises(ValueError, match=re.escape(str(path))):
        parse_availability(f"trace:{path}")


def _assert_rates_in_unit_interval(model, rounds, classes):
    for r in rounds:
        scalar = model.rates(r, None)
        assert math.isfinite(scalar) and 0.0 < scalar <= 1.0, (model.spec(), r, scalar)
        rates = model.rates(r, classes)
        assert (np.isfinite(rates) & (rates > 0.0) & (rates <= 1.0)).all(), (r, rates)


_NUMBER_TEXT = st.one_of(
    st.floats().map(repr),
    st.integers(-(10**30), 10**30).map(str),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "1e-320", "", "x", "1,2"]),
)
_SPEC = st.one_of(
    _NUMBER_TEXT.map(lambda v: f"bernoulli:{v}"),
    st.lists(
        st.tuples(
            st.sampled_from(["base", "amplitude", "period", "class_phase", "floor", "ceil", "junk"]),
            _NUMBER_TEXT,
        ),
        max_size=7,
    ).map(lambda kv: "diurnal:" + ",".join(f"{k}={v}" for k, v in kv)),
    st.text(max_size=24),
)
_ROUNDS = st.lists(st.integers(0, 10**9), min_size=1, max_size=4)
_CLASSES = st.lists(st.integers(0, 64), min_size=1, max_size=8).map(np.asarray)


@settings(max_examples=300, deadline=None)
@given(spec=_SPEC, rounds=_ROUNDS, classes=_CLASSES)
def test_any_availability_spec_parses_to_unit_rates_or_is_refused(spec, rounds, classes):
    try:
        model = parse_availability(spec)
    except ValueError:
        return
    _assert_rates_in_unit_interval(model, rounds, classes)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-(10**20), 10**20) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(
        st.sampled_from(["period", "rates", "x"]), inner, max_size=3
    ),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(payload=_JSON, rounds=_ROUNDS, classes=_CLASSES)
def test_any_trace_file_loads_unit_rates_or_is_refused(payload, rounds, classes):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.json"
        path.write_text(json.dumps(payload))
        try:
            model = TraceAvailability.from_file(str(path))
        except ValueError:
            return
    _assert_rates_in_unit_interval(model, rounds, classes)


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
# in-flight flags, round-trips, selection-stream preservation
# ----------------------------------------------------------------------
def test_in_flight_flags_refuse_an_unregistered_client():
    store = FleetStore.from_columns(np.arange(4))
    store.mark_in_flight(2)
    store.clear_in_flight(1)  # registered but not in flight: a no-op
    assert store.in_flight_ids() == [2]
    for call in (store.mark_in_flight, store.clear_in_flight):
        with pytest.raises(KeyError):  # clear_in_flight was a silent no-op
            call(99)
    with pytest.raises(KeyError):
        store.set_in_flight_ids([0, 99])
    assert store.in_flight_ids() == [2]


def test_store_roundtrip_after_churn_preserves_selection_streams():
    clients = _clients(18)
    store = FleetStore(clients, evict_after=2)
    store.observe_utility(1, [4, 9, 13], [0.5, 1.5, 2.5], 0.5)
    store.observe_utility(3, [2, 9, 11, 9], [1.0, 0.25, 3.0, 2.0], 0.5)
    assert store.advance(4) == 2  # 4 and 13, unseen since round 1
    store.set_in_flight_ids([2, 5, 11])
    store.clear_in_flight(5)
    payload = store.state_dict()
    restored = FleetStore(clients, evict_after=2)
    restored.load_state_dict(payload)
    restored.set_in_flight_ids(store.in_flight_ids())  # the engine's payload
    assert np.array_equal(restored.ids, store.ids)
    assert _resident(restored) == _resident(store) == {2: 1.0, 9: 1.4375, 11: 3.0}
    for name, make in (
        ("uniform", lambda: None),
        ("availability", lambda: AvailabilityAwareSelector(seed=1)),
        ("oort", lambda: OortSelector()),
    ):
        for pool in (FleetStore.view, FleetStore.available_view):
            if name == "uniform":
                a = uniform_choice(pool(store), 5, np.random.default_rng(7))
                b = uniform_choice(pool(restored), 5, np.random.default_rng(7))
            else:
                s1, s2 = make(), make()
                s1.bind_fleet(store)
                s2.bind_fleet(restored)
                a = s1.select(3, pool(store), 5, np.random.default_rng(7))
                b = s2.select(3, pool(restored), 5, np.random.default_rng(7))
            assert [c.client_id for c in a] == [c.client_id for c in b], name
    # Rows are fixed at registration: a checkpoint names exactly the fleet.
    with pytest.raises(ValueError, match="FleetStore/v1 ids"):
        FleetStore(clients[:4]).load_state_dict(payload)
    with pytest.raises(ValueError, match="exactly the constructed fleet"):
        FleetStore(clients[::-1]).load_state_dict(payload)


# Registration order is not id order, so the candidate order and the
# ascending checkpoint order of the in-flight ids differ.
_FLEET = sorted(_clients(10), key=lambda c: c.client_id * 7 % 10)  # ids 0, 3, 6, 9, 2, ...
_IDS = [c.client_id for c in _FLEET]
_PICK = st.sampled_from(_IDS)
_LOSSES = st.one_of(st.sampled_from([0.5, 1.0, 2.0]), st.floats(0.0, 3.0))  # ties


def _ids(clients):
    return [c.client_id for c in clients]


class FleetStoreMachine(RuleBasedStateMachine):
    """The store against a set of in-flight ids, the dict-EMA ``_DictOort``
    (with a last-seen dict for eviction) and the list-pool selectors."""

    @initialize(evict_after=st.sampled_from([None, 1, 2]), momentum=st.sampled_from([0.5, 0.3]))
    def build(self, evict_after, momentum):
        self.evict_after = evict_after
        self.store = FleetStore(_FLEET, evict_after=evict_after)
        self.in_flight: set[int] = set()
        self.oort = _DictOort(momentum=momentum)
        self.last_seen: dict[int, int] = {}
        self.round = self.evicted_total = self.draws = 0

    @rule(cid=_PICK)
    def mark_in_flight(self, cid):
        self.store.mark_in_flight(cid)
        self.in_flight.add(cid)

    @rule(cid=_PICK)
    def clear_in_flight(self, cid):
        self.store.clear_in_flight(cid)
        self.in_flight.discard(cid)

    @rule(cids=st.lists(_PICK, max_size=len(_FLEET)))
    def set_in_flight_ids(self, cids):
        self.store.set_in_flight_ids(cids)
        self.in_flight = set(cids)

    @rule(round_idx=st.integers(0, 8), entries=st.lists(st.tuples(_PICK, _LOSSES), max_size=6))
    def observe_utility(self, round_idx, entries):
        # A batch may repeat an id (a multi-model assignment).
        cids, losses = [c for c, _ in entries], [x for _, x in entries]
        self.store.observe_utility(round_idx, cids, losses, self.oort.momentum)
        self.oort.observe_round([_FakeUpdate(c, x) for c, x in entries])
        self.round = max(self.round, round_idx)
        self.last_seen.update(dict.fromkeys(cids, self.round))

    @rule(round_idx=st.integers(0, 8))
    def advance(self, round_idx):
        self.round = max(self.round, round_idx)
        stale = [
            cid for cid in self.oort.utility
            if self.evict_after is not None and self.round - self.last_seen[cid] > self.evict_after
        ]
        for cid in stale:
            del self.oort.utility[cid]
        self.evicted_total += len(stale)
        assert self.store.advance(round_idx) == len(stale)

    @rule()
    def checkpoint(self):
        skeleton, arrays = flatten_payload(self.store.state_dict())
        restored = FleetStore(_FLEET, evict_after=self.evict_after)
        restored.load_state_dict(unflatten_payload(json.loads(json.dumps(skeleton)), arrays))
        restored.set_in_flight_ids(self.store.in_flight_ids())  # the engine's payload
        self.store = restored

    def _pool(self):
        return [c for c in _FLEET if c.client_id not in self.in_flight]

    @invariant()
    def in_flight_set_agrees(self):
        assert self.store.in_flight_count() == len(self.in_flight)
        assert self.store.in_flight_ids() == sorted(self.in_flight)
        assert list(self.store.available_view().ids) == _ids(self._pool())

    @invariant()
    def utilities_agree(self):
        assert _resident(self.store) == self.oort.utility
        assert self.store.evicted_total == self.evicted_total

    @invariant()
    def picks_agree(self):
        pool, view = self._pool(), self.store.available_view()
        if not pool:
            with pytest.raises(ValueError, match="no registered clients"):
                uniform_choice(view, 3, np.random.default_rng(0))
            return
        self.draws += 1

        def rng():
            return np.random.default_rng(self.draws)

        assert _ids(uniform_choice(view, 3, rng())) == _ids(_list_choice(pool, 3, rng()))
        avail = AvailabilityAwareSelector(seed=1)
        assert _ids(avail.select(self.round, view, 3, rng())) == _ids(
            _list_availability(avail, self.round, pool, 3, rng())
        )
        oort = OortSelector(momentum=self.oort.momentum)
        oort.bind_fleet(self.store)
        weights = self.oort.weights(pool)
        assert oort._weights(view).tobytes() == weights.tobytes()
        assert _ids(oort.select(self.round, view, 3, rng())) == _ids(
            _list_choice(pool, 3, rng(), p=weights)
        )


FleetStoreMachine.TestCase.settings = settings(
    max_examples=100,
    stateful_step_count=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestFleetStoreMatchesOracles = FleetStoreMachine.TestCase


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
    # The legacy list path costs ~35ms here; the tick (one vectorized pass
    # over the in-flight column, then the draw) runs in ~1.1ms on a Xeon
    # core.  50ms is a loose CI-noise ceiling, not the expectation.
    assert best < 0.05, f"1M-row tick took {best * 1e3:.1f} ms"
    assert not np.isin(store.ids[rows], store.in_flight_ids()).any()
