"""Million-client fleet: columnar store vs object-per-client scheduling.

The pre-columnar hot path rebuilt a dense ``list[FLClient]`` every
dispatch wave and looped per policy — O(registered) Python work per tick.
This bench measures one scheduler tick at ``FLEETSCALE_REGISTERED``
registered / ``FLEETSCALE_ACTIVE`` selected clients (default 1M / 1k)
for each selector against a faithful re-implementation of the legacy
list path, asserting the two pick the **identical clients** at the same
RNG state before any speedup is scored:

* **uniform** (the default stack, the headline gate): legacy list
  comprehension + index loop vs :meth:`FleetStore.available_view` +
  ``take_rows`` — must be >= ``FLEETSCALE_MIN_SPEEDUP`` (default 50) x
  faster.
* **availability**: legacy ids-from-objects + online list comprehension
  vs the view/``restrict`` path (same SplitMix64 mask either way).
* **oort**: legacy dict-gather weight vector vs the columnar masked
  gather.  Both paths share the identical p-weighted ``rng.choice``
  (which dominates at 1M rows), so the aux gate
  ``FLEETSCALE_MIN_AUX_SPEEDUP`` (default 3) is deliberately lower than
  the headline.

Results land in ``BENCH_fleetscale.json`` at the repo root
(``FLEETSCALE_OUT`` overrides — CI uploads it as an artifact).  Budget
knobs for CI: ``FLEETSCALE_REGISTERED``, ``FLEETSCALE_ACTIVE``,
``FLEETSCALE_REPS``.

Run directly via pytest:  PYTHONPATH=src python -m pytest -q -s benchmarks/bench_fleet_scale.py
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.data.federated import ClientData
from repro.device.traces import DeviceTrace
from repro.fl.scheduling import AvailabilityAwareSelector, FleetStore, OortSelector
from repro.fl.types import FLClient

REGISTERED = int(os.environ.get("FLEETSCALE_REGISTERED", "1000000"))
ACTIVE = int(os.environ.get("FLEETSCALE_ACTIVE", "1000"))
REPS = int(os.environ.get("FLEETSCALE_REPS", "5"))
MIN_SPEEDUP = float(os.environ.get("FLEETSCALE_MIN_SPEEDUP", "50"))
MIN_AUX_SPEEDUP = float(os.environ.get("FLEETSCALE_MIN_AUX_SPEEDUP", "3"))
SEED = 7

OUT_PATH = Path(
    os.environ.get(
        "FLEETSCALE_OUT", Path(__file__).parent.parent / "BENCH_fleetscale.json"
    )
)

_RESULTS: dict = {
    "workload": {
        "registered": REGISTERED,
        "active": ACTIVE,
        "reps": REPS,
        "min_speedup": MIN_SPEEDUP,
        "min_aux_speedup": MIN_AUX_SPEEDUP,
    }
}


def _write_results() -> None:
    with open(OUT_PATH, "w") as f:
        json.dump(_RESULTS, f, indent=1, sort_keys=True)
        f.write("\n")


def _best(fn, *args) -> tuple[float, object]:
    """Min wall time over REPS runs (min filters scheduler jitter)."""
    best = float("inf")
    out = None
    for _ in range(REPS):
        t0 = time.perf_counter()
        out = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best, out


@pytest.fixture(scope="module")
def fleet():
    """REGISTERED lightweight clients (shared data/devices) + their store."""
    x = np.zeros((8, 4))
    y = np.zeros(8, dtype=np.int64)
    data = ClientData(0, x, y, x, y)
    # Four device tiers -> four occupied speed classes, like a real fleet.
    tiers = [DeviceTrace(t, 10.0 ** (8 + t), 10.0 ** (5 + t), 1e15) for t in range(4)]
    clients = [FLClient(i, data, tiers[i % 4]) for i in range(REGISTERED)]
    store = FleetStore(clients)
    return clients, store


def test_uniform_tick_speedup(fleet, report):
    """Default-stack dispatch tick: O(active) view vs O(registered) list."""
    clients, store = fleet
    # Steady state: ACTIVE clients already in flight, a full wave to fill.
    in_flight = set(range(0, 3 * ACTIVE, 3))
    store.set_in_flight_ids(in_flight)
    try:

        def legacy(rng):
            available = [c for c in clients if c.client_id not in in_flight]
            idx = rng.choice(len(available), size=ACTIVE, replace=False)
            return [available[i] for i in idx]

        def columnar(rng):
            view = store.available_view()
            idx = rng.choice(len(view), size=ACTIVE, replace=False)
            return store.ids[view.take_rows(idx)]

        t_legacy, picked_legacy = _best(legacy, np.random.default_rng(SEED))
        t_col, picked_col = _best(columnar, np.random.default_rng(SEED))
    finally:
        store.set_in_flight_ids([])
    # REPS runs advance each generator identically, so the *last* rep's
    # selections must match element for element.
    assert [c.client_id for c in picked_legacy] == list(picked_col)
    speedup = t_legacy / t_col
    _RESULTS["uniform_tick"] = {
        "legacy_ms": round(t_legacy * 1e3, 3),
        "columnar_ms": round(t_col * 1e3, 3),
        "speedup": round(speedup, 1),
        "min_required": MIN_SPEEDUP,
    }
    _RESULTS["store_nbytes"] = store.nbytes()
    _write_results()
    report(
        "fleet_scale_uniform",
        f"uniform dispatch tick, {REGISTERED} registered / {ACTIVE} selected\n"
        f"  legacy list path: {t_legacy * 1e3:.2f} ms\n"
        f"  columnar view:    {t_col * 1e3:.3f} ms\n"
        f"  speedup: {speedup:.0f}x (required >= {MIN_SPEEDUP}x)\n"
        f"  store columns: {store.nbytes() / 1e6:.1f} MB",
    )
    assert speedup >= MIN_SPEEDUP


def test_availability_tick_speedup(fleet, report):
    """Availability tick: columnar mask+restrict vs ids-from-objects."""
    clients, store = fleet
    legacy_sel = AvailabilityAwareSelector(seed=SEED)
    col_sel = AvailabilityAwareSelector(seed=SEED)
    col_sel.bind_fleet(store)
    round_idx = 11

    def legacy(rng):
        # The pre-columnar select(): ids array built from the objects,
        # online pool materialized as a list, then uniform over it.
        ids = np.asarray([c.client_id for c in clients])
        mask = legacy_sel._online_mask(round_idx, ids)
        online = [c for c, m in zip(clients, mask) if m]
        idx = rng.choice(len(online), size=min(ACTIVE, len(online)), replace=False)
        return [online[i] for i in idx]

    def columnar(rng):
        return col_sel.select(round_idx, store.view(), ACTIVE, rng)

    t_legacy, picked_legacy = _best(legacy, np.random.default_rng(SEED))
    t_col, picked_col = _best(columnar, np.random.default_rng(SEED))
    assert [c.client_id for c in picked_legacy] == [c.client_id for c in picked_col]
    speedup = t_legacy / t_col
    _RESULTS["availability_tick"] = {
        "legacy_ms": round(t_legacy * 1e3, 3),
        "columnar_ms": round(t_col * 1e3, 3),
        "speedup": round(speedup, 1),
        "min_required": MIN_AUX_SPEEDUP,
    }
    _write_results()
    report(
        "fleet_scale_availability",
        f"availability tick, {REGISTERED} registered / {ACTIVE} selected\n"
        f"  legacy list path: {t_legacy * 1e3:.2f} ms\n"
        f"  columnar view:    {t_col * 1e3:.3f} ms\n"
        f"  speedup: {speedup:.0f}x (required >= {MIN_AUX_SPEEDUP}x)",
    )
    assert speedup >= MIN_AUX_SPEEDUP


def test_oort_tick_speedup(fleet, report):
    """Oort tick: columnar masked gather vs the dict-gather weight vector."""
    clients, store = fleet
    # 10k clients have observed utilities; everyone else enters optimistic.
    seen = np.random.default_rng(SEED).choice(REGISTERED, size=10_000, replace=False)
    utility = {int(c): 0.5 + (int(c) % 97) / 100.0 for c in seen}
    col_sel = OortSelector()
    col_sel.bind_fleet(store)
    col_sel.load_state_dict(
        {
            "schema": col_sel.schema,
            "utility": {str(cid): u for cid, u in utility.items()},
        }
    )
    alpha = col_sel.alpha

    def legacy(rng):
        # The pre-columnar select(): ids array built from the objects, one
        # dict lookup per client (unseen -> running max), the same floored
        # power weights, then a p-weighted choice and an index loop.
        ids = np.asarray([c.client_id for c in clients])
        default = max(utility.values())
        u = np.array([utility.get(int(cid), default) for cid in ids])
        w = (1e-6 + np.maximum(u, 0.0)) ** alpha
        idx = rng.choice(len(clients), size=ACTIVE, replace=False, p=w / w.sum())
        return [clients[i] for i in idx]

    def columnar(rng):
        return col_sel.select(0, store.view(), ACTIVE, rng)

    t_legacy, picked_legacy = _best(legacy, np.random.default_rng(SEED))
    t_col, picked_col = _best(columnar, np.random.default_rng(SEED))
    assert [c.client_id for c in picked_legacy] == [c.client_id for c in picked_col]
    speedup = t_legacy / t_col
    _RESULTS["oort_tick"] = {
        "legacy_ms": round(t_legacy * 1e3, 3),
        "columnar_ms": round(t_col * 1e3, 3),
        "speedup": round(speedup, 1),
        "min_required": MIN_AUX_SPEEDUP,
        "resident_utilities": store.resident_utilities(),
    }
    _write_results()
    report(
        "fleet_scale_oort",
        f"oort tick, {REGISTERED} registered / {ACTIVE} selected "
        f"({store.resident_utilities()} resident utilities)\n"
        f"  legacy dict path: {t_legacy * 1e3:.2f} ms\n"
        f"  columnar gather:  {t_col * 1e3:.3f} ms\n"
        f"  speedup: {speedup:.1f}x (required >= {MIN_AUX_SPEEDUP}x)",
    )
    assert speedup >= MIN_AUX_SPEEDUP
