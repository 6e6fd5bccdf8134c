"""The run-record checkpoint codec (``repro.stateful.record_state`` /
``record_from_state``): parent-commit witness, round trips, strict decode.

The fixture ``tests/data/golden_checkpoint_payload.json`` was written by
this file's ``__main__`` at the commit it records — the parent of the
derived codec, when every record was still spelled out field by field in
``log_state_dict`` / ``client_update_to_state`` / ``_pending_to_state`` —
from one 6-step async stack that fires every record type: ``exc`` retries,
quarantine, ``topk+int8``, quantile pacing, downsize, deadline drops and
offline-fallback waves, with in-flight updates left on the clock.  It holds
the two payloads exactly as a checkpoint file stores them (the JSON
skeleton; arrays as dtype + shape + blake2b digest) plus digests of the
three exports.  The in-flight ``ClientUpdate`` payloads it holds still carry
``grad`` — the per-client mean-gradient tree updates shipped until the
activeness signal moved to the aggregator's pseudo-gradient.  The fixture is
kept as that parent wrote it: the encoder is compared against it with the
``grad`` key removed, and the decoder loads it as written, which is the
proof that a parent-written checkpoint still resumes.

Regenerate (only ever at a commit whose field lists are the reference):
``PYTHONPATH=src python tests/test_record_codec.py``.
"""

import dataclasses
import hashlib
import json
import subprocess
from pathlib import Path

import numpy as np
import pytest

from repro import stateful
from repro.baselines import HeteroFLStrategy
from repro.data import SyntheticTaskConfig, build_federated_dataset
from repro.device import DeviceTrace
from repro.fl import (
    Coordinator,
    CoordinatorConfig,
    FLClient,
    LocalTrainerConfig,
    log_to_dict,
    recovery_to_dict,
    transport_to_dict,
)
from repro.fl.async_engine import VirtualClock, _Pending
from repro.fl.checkpoint import flatten_payload, unflatten_payload
from repro.fl.export import log_from_state, log_state_dict
from repro.fl.scheduling import estimate_round_time
from repro.fl.types import (
    ArrivalRecord,
    ClientUpdate,
    EvalRecord,
    FaultRecord,
    RoundRecord,
    SchedulerRecord,
    TrainingLog,
)
from repro.nn import mlp
from repro.nn.cells import set_cell_id_counter
from repro.nn.model import set_model_id_counter

GOLDEN = Path(__file__).parent / "data" / "golden_checkpoint_payload.json"


# ----------------------------------------------------------------------
# (a) the parent commit's payloads
# ----------------------------------------------------------------------
def _stack() -> tuple[TrainingLog, VirtualClock]:
    """Run the witness stack; returns its log and the still-loaded clock."""
    set_model_id_counter(0)
    set_cell_id_counter(0)
    task = SyntheticTaskConfig(
        num_classes=6, input_shape=(16,), latent_dim=8, teacher_width=16,
        class_sep=2.5, seed=0,
    )
    ds = build_federated_dataset(task, 40, mean_samples=24, seed=0, partition="dirichlet")
    clients = [
        FLClient(
            c.client_id,
            c,
            # Every fifth client computes 100x and uploads 50x slower.
            DeviceTrace(c.client_id, 1e7, 2e4, 1e15)
            if c.client_id % 5 == 0
            else DeviceTrace(c.client_id, 1e9, 1e6, 1e15),
        )
        for c in ds.clients
    ]
    model = mlp(ds.input_shape, ds.num_classes, np.random.default_rng(0), width=32)
    strategy = HeteroFLStrategy(model)
    trainer = LocalTrainerConfig(batch_size=20, local_steps=5, lr=0.2)
    smallest = min(strategy.models().values(), key=lambda m: m.macs())
    config = CoordinatorConfig(
        rounds=6, clients_per_round=12, trainer=trainer, eval_every=3, seed=0,
        mode="async", buffer_k=6,
        deadline_s=2 * estimate_round_time(clients[0], smallest, trainer),
        selector="availability", availability_trace="bernoulli:0.1",
        pacing="quantile", straggler="downsize",
        compress="update:topk0.05+int8", quarantine=True,
        faults="poison=0.2,exc=0.2,hang=0.15", retries=2,
    )
    coord = Coordinator(strategy, clients, config)
    return coord.run(), coord._async_engine.clock


def _describe(array: np.ndarray) -> dict:
    digest = hashlib.blake2b(np.ascontiguousarray(array).tobytes(), digest_size=16)
    return {
        "dtype": str(array.dtype),
        "shape": list(array.shape),
        "blake2": digest.hexdigest(),
    }


def _array_key(described: dict) -> tuple:
    return described["dtype"], tuple(described["shape"]), described["blake2"]


def _through_disk(payload: dict):
    """``payload`` as a checkpoint file returns it (skeleton via real JSON)."""
    skeleton, arrays = flatten_payload(payload)
    return unflatten_payload(json.loads(json.dumps(skeleton)), arrays)


def _digested(node):
    """A payload with every array leaf replaced by its description."""
    if isinstance(node, np.ndarray):
        return {"__ndarray__": _describe(node)}
    if isinstance(node, dict):
        return {k: _digested(v) for k, v in node.items()}
    if isinstance(node, list):
        return [_digested(v) for v in node]
    return node


def _arrays(node):
    """Every array leaf of a payload or of a live record."""
    if isinstance(node, np.ndarray):
        yield node
        return
    if dataclasses.is_dataclass(node):
        node = [getattr(node, f.name) for f in dataclasses.fields(node)]
    elif isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, (list, tuple)):
        for v in node:
            yield from _arrays(v)


def _hydrated(node, table: dict):
    """Inverse of :func:`_digested`, looking arrays up by description.

    A parent-written ``grad`` tree is not something this tree's run produces
    any more; its content is discarded on load, so zeros of the recorded
    dtype and shape stand in.
    """
    if isinstance(node, dict):
        if set(node) == {"__ndarray__"}:
            return table[_array_key(node["__ndarray__"])]
        return {
            k: _zeros_like_described(v) if k == "grad" else _hydrated(v, table)
            for k, v in node.items()
        }
    if isinstance(node, list):
        return [_hydrated(v, table) for v in node]
    return node


def _zeros_like_described(tree: dict) -> dict:
    return {
        k: np.zeros(v["__ndarray__"]["shape"], v["__ndarray__"]["dtype"]) for k, v in tree.items()
    }


def _without_grad(node):
    """A digested payload minus the ``grad`` key of every ``ClientUpdate``."""
    if isinstance(node, dict):
        return {k: _without_grad(v) for k, v in node.items() if k != "grad"}
    if isinstance(node, list):
        return [_without_grad(v) for v in node]
    return node


def _blake(obj) -> str:
    return hashlib.blake2b(json.dumps(obj).encode(), digest_size=16).hexdigest()


def _witness() -> tuple[dict, TrainingLog, VirtualClock, dict]:
    """The fixture body for the current tree + what built it."""
    log, clock = _stack()
    payloads = {
        "log": _through_disk(log_state_dict(log)),
        "clock": _through_disk(clock.state_dict()),
    }
    body = {
        **{name: _digested(p) for name, p in payloads.items()},
        "exports": {
            "log": _blake(log_to_dict(log)),
            "recovery": _blake(recovery_to_dict(log)),
            "transport": _blake(transport_to_dict(log)),
        },
    }
    table = {_array_key(_describe(a)): a for a in _arrays(payloads)}
    return body, log, clock, table


@pytest.fixture(scope="module")
def witness():
    return _witness()


def test_stack_fires_every_record_type(witness):
    """A regenerated fixture cannot silently go quiet."""
    _, log, clock, _ = witness
    arrivals = [a for r in log.rounds for a in r.arrivals]
    assert {(f.kind, f.action) for f in log.faults} == {
        ("task_error", "retry"),
        ("update_rejected", "quarantined"),
    }
    assert any(a.dropped for a in arrivals) and any(a.downsized for a in arrivals)
    assert any(a.quarantined for a in arrivals) and any(a.staleness for a in arrivals)
    assert all(r.scheduler.deadline_quantiles for r in log.rounds)
    assert any(r.scheduler.offline_fallback_rounds for r in log.rounds)
    assert any(r.scheduler.selected < r.scheduler.requested for r in log.rounds)
    assert log.compress and log.total_raw_bytes_up > log.total_bytes_up > 0
    assert len(log.evals) == 2
    assert len(clock) and all(p.updates for _, _, p in clock._events)


def test_encoder_reproduces_the_parent_commit_payloads(witness):
    with open(GOLDEN) as f:
        golden = json.load(f)
    body = witness[0]
    in_flight = [u for e in golden["clock"]["events"] for u in e["pending"]["updates"]]
    assert in_flight and all("grad" in u for u in in_flight)  # the fixture is the parent's
    for section in ("exports", "log", "clock"):
        assert body[section] == _without_grad(golden[section]), section


def test_parent_commit_payloads_load(witness):
    with open(GOLDEN) as f:
        golden = json.load(f)
    _, log, clock, table = witness
    restored = log_from_state(_hydrated(golden["log"], table))
    for view in (log_to_dict, recovery_to_dict, transport_to_dict):
        assert json.dumps(view(restored)) == json.dumps(view(log)), view.__name__
    assert _digested(_through_disk(log_state_dict(restored))) == golden["log"]
    assert all(type(a.model_ids) is tuple for r in restored.rounds for a in r.arrivals)
    assert all(type(k) is int for r in restored.rounds for k in r.assignments)

    fresh = VirtualClock()
    fresh.load_state_dict(_hydrated(golden["clock"], table))
    assert fresh.now == clock.now and len(fresh) == len(clock)
    assert _digested(_through_disk(fresh.state_dict())) == _without_grad(golden["clock"])
    for (t0, s0, want), (t1, s1, got) in zip(sorted(clock._events), sorted(fresh._events)):
        assert (t0, s0) == (t1, s1) and type(got.model_ids) is tuple
        _assert_same(got, want)


# ----------------------------------------------------------------------
# (b) every record class, every field off its default
# ----------------------------------------------------------------------
def _tree(seed: int, dtype=np.float64) -> dict:
    rng = np.random.default_rng(seed)
    return {
        "c0001/fc.w": rng.standard_normal((3, 2)).astype(dtype),
        "c0001/fc.b": rng.standard_normal(2).astype(dtype),
    }


UPDATE = ClientUpdate(
    client_id=7, model_id="m001", params=_tree(1), state=_tree(2, np.float32),
    grad=_tree(3), train_loss=0.1 + 0.2, num_samples=12,
    macs_spent=4096,  # an int held in a float-annotated field stays an int
    bytes_down=800, bytes_up=96, round_time=1.5, raw_bytes_up=640,
)
ARRIVAL = ArrivalRecord(
    dispatch_seq=11, client_id=7, model_ids=("m001", "m002"), dispatch_time=0.5,
    finish_time=2, staleness=3, dropped=True, downsized=True, quarantined=True,
)
FAULT = FaultRecord(
    round_idx=2, kind="task_error", action="retry", client_id=7, model_id="m001",
    detail="InjectedTaskError: boom", attempts=2,
)
SCHEDULER = SchedulerRecord(
    selector="oort", pacing="quantile", straggler="downsize", requested=6, selected=5,
    effective_buffer_k=4, deadline_s=1.25, deadline_quantiles=(0.5, 0.75, 1),
    downsized=1, dropped=2, evicted=3, offline_fallback_rounds=4,
)
ROUND = RoundRecord(
    round_idx=2, participants=[7, 9], assignments={7: ["m001"], 9: ["m001", "m002"]},
    mean_loss=0.75, macs=8192, bytes_down=1600, bytes_up=192, round_time=2.5,
    num_models=2, events=["widened m001"], arrivals=[ARRIVAL], scheduler=SCHEDULER,
    raw_bytes_up=1280, publish_raw_bytes=4000, publish_wire_bytes=900,
)
EVAL = EvalRecord(
    round_idx=2, cumulative_macs=16384.0, client_accuracy=np.array([0.25, 1.0, 0.5]),
    client_model=["m001", "m002", "m001"], mean_accuracy=7 / 12, cached_clients=1,
    evaluated_clients=2,
)
LOG = TrainingLog(
    strategy="fedtrans", mode="async", rounds=[ROUND], evals=[EVAL], total_macs=16384.0,
    total_bytes_down=1600, total_bytes_up=192, peak_storage_bytes=5000,
    stopped_round=2, stop_reason="converged", dropped_updates=1, dropped_macs=2048.0,
    downsized_updates=1, evicted_clients=3, worker_restarts=1, retries=2,
    failed_updates=1, quarantined_updates=1, faults=[FAULT],
    compress="update:topk0.05+int8", total_raw_bytes_up=1280,
    publish_raw_bytes_total=4000, publish_wire_bytes_total=900,
)
PENDING = _Pending(
    dispatch_seq=11, client_id=7, model_ids=("m001",), dispatch_time=0.5,
    finish_time=2.0, version=3, dropped=True, downsized=True, updates=[UPDATE],
)
SAMPLES = [UPDATE, ARRIVAL, FAULT, SCHEDULER, ROUND, EVAL, LOG, PENDING]
# Only the required fields: ``None`` optionals and empty containers.
MINIMAL = [
    FaultRecord(round_idx=-1, kind="worker_crash", action="pool_rebuild"),
    SchedulerRecord("uniform", "static", "drop", requested=4, selected=4),
    RoundRecord(0, [], {}, 0.0, 0.0, 0, 0, 0.0, 1),
    TrainingLog(strategy="fedavg"),
    dataclasses.replace(UPDATE, state={}),
]


def _assert_same(got, want, where="record"):
    """Deep equality that also pins container and scalar *types*."""
    assert type(got) is type(want), f"{where}: {type(got).__name__} != {type(want).__name__}"
    if dataclasses.is_dataclass(want):
        for f in dataclasses.fields(want):
            _assert_same(getattr(got, f.name), getattr(want, f.name), f"{where}.{f.name}")
    elif isinstance(want, dict):
        assert list(got) == list(want), where
        for key in want:
            _assert_same(got[key], want[key], f"{where}[{key!r}]")
    elif isinstance(want, (list, tuple)):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_same(g, w, f"{where}[{i}]")
    elif isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and np.array_equal(got, want), where
    else:
        assert got == want, where


def test_samples_cover_all_eight_records_off_their_defaults():
    assert len({type(rec) for rec in SAMPLES}) == 8
    for rec in SAMPLES:
        for f in dataclasses.fields(rec):
            if f.default is not dataclasses.MISSING:
                assert getattr(rec, f.name) != f.default, (type(rec).__name__, f.name)
            elif f.default_factory is not dataclasses.MISSING:
                assert getattr(rec, f.name) != f.default_factory(), (type(rec).__name__, f.name)


@pytest.mark.parametrize(
    "rec", SAMPLES + MINIMAL, ids=lambda rec: type(rec).__name__.lstrip("_")
)
def test_round_trip_through_a_checkpoint_file(rec):
    payload = stateful.record_state(rec)
    assert list(payload) == [f.name for f in dataclasses.fields(rec)]
    back = stateful.record_from_state(type(rec), _through_disk(payload))
    _assert_same(back, rec)
    # A fresh payload: no live references into the record.
    assert not any(
        np.shares_memory(live, out) for live in _arrays(rec) for out in _arrays(payload)
    )


def test_log_payload_is_the_schema_tag_plus_the_record():
    payload = log_state_dict(LOG)
    assert payload.pop("schema") == "TrainingLog/v1"
    assert _digested(payload) == _digested(stateful.record_state(LOG))
    _assert_same(log_from_state(_through_disk(log_state_dict(LOG))), LOG)


# ----------------------------------------------------------------------
# (c) strict decode: the key set is the record's fields, exactly
# ----------------------------------------------------------------------
class TestStrictDecode:
    def test_missing_key_names_the_record_and_the_key(self):
        payload = stateful.record_state(ARRIVAL)
        del payload["quarantined"]
        with pytest.raises(ValueError, match=r"ArrivalRecord.*missing.*'quarantined'"):
            stateful.record_from_state(ArrivalRecord, payload)

    def test_unexpected_key_names_the_record_and_the_key(self):
        payload = {**stateful.record_state(FAULT), "severity": 3}
        with pytest.raises(ValueError, match=r"FaultRecord.*unexpected.*'severity'"):
            stateful.record_from_state(FaultRecord, payload)

    def test_only_the_constructors_init_only_keyword_is_tolerated(self):
        """A parent-written update carries ``grad``: accepted where the
        constructor takes it, discarded, and nothing else rides along."""
        payload = {**stateful.record_state(UPDATE), "grad": _tree(3)}
        back = stateful.record_from_state(ClientUpdate, payload)
        _assert_same(back, UPDATE)
        assert "grad" not in vars(back) and "grad" not in stateful.record_state(back)
        with pytest.raises(ValueError, match=r"ClientUpdate.*unexpected keys \['momentum'\]"):
            stateful.record_from_state(ClientUpdate, {**payload, "momentum": _tree(4)})
        with pytest.raises(ValueError, match=r"ArrivalRecord.*unexpected keys \['grad'\]"):
            stateful.record_from_state(
                ArrivalRecord, {**stateful.record_state(ARRIVAL), "grad": _tree(3)}
            )
        # Init-only does not mean optional-field: every field is still required.
        del payload["state"]
        with pytest.raises(ValueError, match=r"ClientUpdate.*missing keys \['state'\]"):
            stateful.record_from_state(ClientUpdate, payload)

    def test_nested_record_is_the_one_named(self):
        payload = stateful.record_state(LOG)
        del payload["rounds"][0]["arrivals"][0]["staleness"]
        with pytest.raises(ValueError, match=r"ArrivalRecord.*missing.*'staleness'"):
            stateful.record_from_state(TrainingLog, payload)

    @pytest.mark.parametrize("wrong", [[], ["oort"], "oort", 3])
    def test_non_dict_where_a_record_belongs(self, wrong):
        payload = stateful.record_state(ROUND)
        payload["scheduler"] = wrong
        with pytest.raises(ValueError, match="SchedulerRecord"):
            stateful.record_from_state(RoundRecord, payload)

    def test_log_from_state_checks_tag_then_keys(self):
        payload = log_state_dict(LOG)
        with pytest.raises(ValueError, match="schema mismatch"):
            log_from_state({k: v for k, v in payload.items() if k != "schema"})
        del payload["faults"]
        with pytest.raises(ValueError, match=r"TrainingLog.*missing.*'faults'"):
            log_from_state(payload)

    def test_clock_refuses_a_pending_payload_with_a_dropped_field(self):
        clock = VirtualClock()
        clock.schedule(2.0, 11, PENDING)
        payload = clock.state_dict()
        del payload["events"][0]["pending"]["updates"][0]["raw_bytes_up"]
        with pytest.raises(ValueError, match=r"ClientUpdate.*missing.*'raw_bytes_up'"):
            VirtualClock().load_state_dict(payload)

    def test_undeclarable_field_type_fails_at_plan_time(self):
        @dataclasses.dataclass
        class Odd:
            seen: set

        with pytest.raises(TypeError, match="set"):
            stateful.record_state(Odd({1}))


if __name__ == "__main__":
    sha = subprocess.run(
        ["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=True,
        cwd=Path(__file__).parent,
    ).stdout.strip()
    out = {"generated_at_commit": sha, **_witness()[0]}
    with open(GOLDEN, "w") as f:
        # No sort_keys: ``assignments`` order is trajectory (it is the order
        # the export lists them in), so the file keeps payload order.
        json.dump(out, f, indent=1)
        f.write("\n")
    print(f"wrote {GOLDEN} at {sha}")
