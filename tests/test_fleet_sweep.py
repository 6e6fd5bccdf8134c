"""A fleet sweep is a few array ops: deployments resolved in one call, each
group scored in one pass, every forward on a thread's workspace.

Three witnesses, each against the per-client form it replaced (kept in
``tests/oracle_deployment.py``):

* ``TestDeploymentOracle`` — ``Strategy.eval_models`` equals the per-client
  rules (FedTrans's sorted tie-break over the utility table, the width
  ladders' ``largest_compatible``, the fixed deployments) for every shipped
  strategy, over utility ties, unseen and evicted clients, models without
  a utility and capacities below every model;
* ``TestScorerOracle`` — ``ensemble_accuracies`` equals the per-client
  ``accuracy()`` loop bit for bit;
* ``TestNoCloneWitness`` — a sweep's forward runs on no clone and leaves
  no layer cache on the published models, and its logits and accuracies
  are the cloned forward's bytes on every backend.
"""

from __future__ import annotations

import math
import threading
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle_deployment as oracle
from repro.baselines import FLuIDStrategy, HeteroFLStrategy, SplitMixStrategy, fedavg
from repro.core import ClientManager, FedTransConfig, FedTransStrategy, SimilarityCache
from repro.data import SyntheticTaskConfig, build_federated_dataset
from repro.device import DeviceTrace
from repro.fl import Coordinator, CoordinatorConfig, FLClient, LocalTrainerConfig
from repro.fl.executor import EXECUTOR_BACKENDS, EvalTask, ensemble_accuracies
from repro.nn import mlp
from repro.nn.model import CellModel

# NaN utilities make the fleet means' reductions warn.
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

_DATASET = build_federated_dataset(
    SyntheticTaskConfig(
        num_classes=4, input_shape=(8,), latent_dim=6, teacher_width=12, class_sep=3.0, seed=0
    ),
    12,
    mean_samples=25,
    seed=0,
)


def _fleet(capacities) -> list[FLClient]:
    data = _DATASET.clients
    return [
        FLClient(cid, data[cid % len(data)], DeviceTrace(cid, 1e9, 1e6, float(cap)))
        for cid, cap in capacities
    ]


# ----------------------------------------------------------------------
# deployment
# ----------------------------------------------------------------------
# A FedTrans suite of three models (64, 160 and 448 MACs, in birth order)
# and the capacities that hit every side of the fit rule: below every
# model (the cheapest-model fallback), each model's exact cost, between
# two models and above all of them.
_SUITE = [mlp((8,), 4, np.random.default_rng(0), width=w) for w in (4, 8, 16)]
_CAPACITIES = [1.0, 64.0, 100.0, 160.0, 300.0, 448.0, 1e12]
_UTILITIES = [-1.0, 0.0, 0.5, 1.0, math.nan]  # ties at every level, and a NaN


def _fedtrans(table: ClientManager) -> FedTransStrategy:
    strategy = FedTransStrategy(_SUITE[0], FedTransConfig(), max_capacity_macs=1e12)
    strategy._models = {m.model_id: m for m in _SUITE}
    strategy._birth_order = list(strategy._models)
    strategy.client_manager = table
    return strategy


@st.composite
def _tables(draw) -> ClientManager:
    """A utility table with tied utilities, a model column nobody holds, a
    suite model the table has no column for, and rows evicted by the
    activity clock."""
    ids = [m.model_id for m in _SUITE]
    columns = draw(st.permutations(ids))[: draw(st.integers(1, 3))]
    rows = draw(st.lists(st.integers(0, 15), unique=True, max_size=10))
    shape = (len(rows), len(columns))
    present = np.array(draw(st.lists(st.booleans(), min_size=shape[0] * shape[1],
                                     max_size=shape[0] * shape[1])), dtype=bool).reshape(shape)
    if draw(st.booleans()) and len(columns) > 1:
        present[:, draw(st.integers(0, len(columns) - 1))] = False  # a model with no rows
    values = draw(st.lists(st.sampled_from(_UTILITIES), min_size=present.size,
                           max_size=present.size))
    utility = np.where(present, np.array(values).reshape(shape), 0.0)
    last_active = draw(st.lists(st.integers(0, 3), min_size=len(rows), max_size=len(rows)))
    table = ClientManager(evict_after=2)
    table.load_state_dict(
        {
            "schema": ClientManager.schema,
            "clients": np.array(rows, dtype=np.int64),
            "models": columns,
            "utility": utility,
            "present": present,
            "last_active": np.array(last_active, dtype=np.int64),
            "round": 0,
            "evicted_total": 0,
            "sim_cache": SimilarityCache().state_dict(),
        }
    )
    table.advance_round(draw(st.integers(0, 5)))  # rows idle for > 2 rounds go
    return table


# Clients seen by the table, evicted from it and never seen (ids 0-19).
_CLIENTS = st.lists(
    st.tuples(st.integers(0, 19), st.sampled_from(_CAPACITIES)),
    unique_by=lambda c: c[0],
    max_size=12,
)


class TestDeploymentOracle:
    @settings(max_examples=200, deadline=None)
    @given(table=_tables(), capacities=_CLIENTS)
    def test_fedtrans_deploys_the_highest_utility_compatible_model(self, table, capacities):
        strategy = _fedtrans(table)
        clients = _fleet(capacities)
        assert strategy.eval_models(clients) == oracle.eval_models(strategy, clients)

    @pytest.mark.parametrize("cls", [HeteroFLStrategy, FLuIDStrategy])
    @settings(max_examples=50, deadline=None)
    @given(capacities=st.lists(
        st.tuples(st.integers(0, 99), st.sampled_from([1.0, 28.0, 50.0, 64.0, 160.0, 447.0, 1e12])),
        unique_by=lambda c: c[0],
        max_size=20,
    ))
    def test_width_ladders_deploy_the_largest_compatible_model(self, cls, capacities):
        strategy = cls(mlp((8,), 4, np.random.default_rng(0), width=16))
        clients = _fleet(capacities)
        assert strategy.eval_models(clients) == oracle.eval_models(strategy, clients)
        # assign() trains what eval_models deploys.
        assigned = strategy.assign(0, clients, np.random.default_rng(0))
        assert [assigned[c.client_id] for c in clients] == [
            [mid] for mid in oracle.eval_models(strategy, clients)
        ]

    @pytest.mark.parametrize(
        "build",
        [lambda g: SplitMixStrategy(g, k=3, seed=0), fedavg],
        ids=["splitmix", "single-model"],
    )
    def test_fixed_deployments(self, build):
        strategy = build(mlp((8,), 4, np.random.default_rng(0), width=16))
        clients = _fleet(enumerate(_CAPACITIES))
        assert strategy.eval_models(clients) == oracle.eval_models(strategy, clients)
        assert strategy.eval_models([]) == []

    def test_one_call_per_compatible_set(self, monkeypatch):
        """FedTrans ranks each distinct compatible set once, however many
        clients share it."""
        strategy = _fedtrans(ClientManager())
        calls = []
        best = ClientManager.best_model
        monkeypatch.setattr(
            ClientManager, "best_model",
            lambda self, ids, compatible: calls.append(compatible) or best(self, ids, compatible),
        )
        clients = _fleet((cid, _CAPACITIES[cid % len(_CAPACITIES)]) for cid in range(70))
        strategy.eval_models(clients)
        # Seven capacities, three compatible sets: up to 64, 160 and 448 MACs.
        ids = [m.model_id for m in _SUITE]
        assert sorted(calls, key=len) == [ids[:1], ids[:2], ids]


# ----------------------------------------------------------------------
# scoring
# ----------------------------------------------------------------------
class TestScorerOracle:
    @settings(max_examples=300, deadline=None)
    @given(
        num_test=st.lists(st.integers(0, 6), min_size=1, max_size=6),
        members=st.integers(1, 3),
        classes=st.integers(2, 4),
        ties=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(num_test=[0, 0, 0], members=1, classes=3, ties=False, seed=0)  # all-empty group
    @example(num_test=[3, 0, 2], members=3, classes=2, ties=True, seed=1)
    def test_one_pass_equals_the_per_client_loop(self, num_test, members, classes, ties, seed):
        rng = np.random.default_rng(seed)
        rows = sum(num_test)
        # Small integer logits tie the argmax on most rows.
        logits = [
            rng.integers(0, 2, (rows, classes)).astype(float) if ties
            else rng.standard_normal((rows, classes))
            for _ in range(members)
        ]
        clients_by_id = {
            10 + j: SimpleNamespace(
                data=SimpleNamespace(num_test=n, y_test=rng.integers(0, classes, n))
            )
            for j, n in enumerate(num_test)
        }
        ids = tuple(clients_by_id)
        got = ensemble_accuracies(iter(logits), members, clients_by_id, ids)
        want = oracle.ensemble_accuracies(iter(logits), members, clients_by_id, ids)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert (got[np.array(num_test) == 0] == 0.0).all()


# ----------------------------------------------------------------------
# the forward pass
# ----------------------------------------------------------------------
def _splitmix_coord(backend: str) -> Coordinator:
    """SplitMix over mixed capacities: single-model groups (accuracy tasks)
    and ensembles (member-logits tasks) in every sweep, several chunks."""
    big = mlp((8,), 4, np.random.default_rng(0), width=16)
    clients = _fleet((c.client_id, big.macs() * (0.3 + 0.2 * c.client_id)) for c in _DATASET.clients)
    config = CoordinatorConfig(
        rounds=2,
        clients_per_round=6,
        trainer=LocalTrainerConfig(batch_size=8, local_steps=3, lr=0.2),
        eval_every=1,
        seed=0,
        executor=backend,
        max_workers=2,
        eval_group_clients=2,
    )
    return Coordinator(SplitMixStrategy(big, k=4, seed=0), clients, config)


def _count_clones(monkeypatch) -> dict[str, int]:
    """``CellModel.clone`` calls, split by whether a workspace build
    (``replicate``, a thread's first job on a model) made them."""
    counts = {"workspace": 0, "other": 0}
    building = threading.local()
    clone, replicate = CellModel.clone, CellModel.replicate

    def counted_clone(self, *args, **kwargs):
        counts["workspace" if getattr(building, "on", False) else "other"] += 1
        return clone(self, *args, **kwargs)

    def marked_replicate(self, k):
        building.on = True
        try:
            return replicate(self, k)
        finally:
            building.on = False

    monkeypatch.setattr(CellModel, "clone", counted_clone)
    monkeypatch.setattr(CellModel, "replicate", marked_replicate)
    return counts


def _sweep_all(coord: Coordinator, round_idx: int) -> None:
    """A sweep in which every group misses the cache (every version moved)."""
    for model in coord.strategy.models().values():
        model.bump_version()
    record = coord.evaluate(round_idx, 0.0)
    assert record.evaluated_clients == len(coord.clients)


def _layer_caches(model: CellModel) -> list[str]:
    """Every forward cache or pooled scratch buffer a model's layers hold."""
    return [
        f"{cell.cell_id}/{name}.{attr}"
        for cell in model.cells
        for name, layer in cell._named_layers()
        for attr in ("_x", "_cache", "_shape")
        if getattr(layer, attr, None) is not None
    ] + [
        f"{cell.cell_id}/{name}._ws"
        for cell in model.cells
        for name, layer in cell._named_layers()
        if hasattr(layer, "_ws") and layer._ws._bufs
    ]


class TestNoCloneWitness:
    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_a_sweep_runs_on_workspaces_and_clones_nothing(self, backend, monkeypatch):
        coord = _splitmix_coord(backend)
        ran_on: list[CellModel] = []
        predict = CellModel.predict
        monkeypatch.setattr(
            CellModel, "predict", lambda self, *a, **kw: ran_on.append(self) or predict(self, *a, **kw)
        )
        try:
            counts = _count_clones(monkeypatch)
            _sweep_all(coord, 0)  # cold: builds this thread's workspaces
            assert counts["other"] == 0
            built = counts["workspace"]
            for round_idx in (1, 2):
                _sweep_all(coord, round_idx)
            assert counts["other"] == 0
            if backend == "serial":
                # One thread: every workspace exists after the first sweep.
                assert counts["workspace"] == built
            # Every forward ran on a thread's workspace, none on a published model.
            workspaces = {id(w) for held in coord.executor.workspaces.values() for w in held.values()}
            published = {id(m) for m in coord.strategy.models().values()}
            assert ran_on and {id(m) for m in ran_on} <= workspaces
            assert not {id(m) for m in ran_on} & published
        finally:
            coord.close()

    @pytest.mark.parametrize("backend", EXECUTOR_BACKENDS)
    def test_published_models_hold_no_layer_cache(self, backend):
        coord = _splitmix_coord(backend)
        try:
            coord.run()
            _sweep_all(coord, 99)
            for model in coord.strategy.models().values():
                assert _layer_caches(model) == [], model.model_id
            # The workspaces the sweep ran on released their scratch too.
            for held in coord.executor.workspaces.values():
                for work in held.values():
                    assert _layer_caches(work) == [], work.model_id
        finally:
            coord.close()

    @pytest.mark.parametrize("backend", EXECUTOR_BACKENDS)
    def test_sweep_outputs_are_the_cloned_forwards_bytes(self, backend):
        """The kill criterion of running the sweep without a clone: after
        training has left stacked workspaces behind, a sweep's logits and
        accuracies equal a fresh clone's forward, bit for bit."""
        coord = _splitmix_coord(backend)
        try:
            coord.run()
            models = coord.strategy.models()
            clients_by_id = coord.executor.clients_by_id
            chunks = [(0, 1, 2), (3,), (4, 5, 6, 7, 8, 9, 10, 11)]
            tasks = [EvalTask((mid,), ids) for mid in models for ids in chunks]
            accs, logits = coord.executor.eval_and_logits_round(tasks, tasks, models, 8)
            for task, acc, out in zip(tasks, accs, logits):
                xs = np.concatenate([clients_by_id[c].data.x_test for c in task.client_ids])
                want = models[task.model_ids[0]].clone(keep_id=True).predict(xs, 8)
                assert out.tobytes() == want.tobytes()
                scored = oracle.ensemble_accuracies([want], 1, clients_by_id, task.client_ids)
                assert acc.tobytes() == scored.tobytes()
        finally:
            coord.close()
