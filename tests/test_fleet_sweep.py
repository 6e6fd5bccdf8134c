"""A fleet sweep is a few array ops: deployments resolved in one call, each
group cut into batch-aligned row ranges scored in one pass each, every
forward on a thread's workspace.

Six witnesses, the first three against the per-client form each replaced
(kept in ``tests/oracle_deployment.py``):

* ``TestDeploymentOracle`` — ``Strategy.eval_models`` equals the per-client
  rules (FedTrans's sorted tie-break over the utility table, the width
  ladders' ``largest_compatible``, the fixed deployments) for every shipped
  strategy, over utility ties, unseen and evicted clients, models without
  a utility and capacities below every model;
* ``TestScorerOracle`` — ``ensemble_hits`` summed over any cut of a
  group's rows and divided once equals the per-client ``accuracy()`` loop
  bit for bit;
* ``TestNoCloneWitness`` — a sweep's forward runs on no clone and leaves
  no layer cache on the published models, and its member logits and
  accuracies are the cloned forward's bytes on every backend;
* ``TestEverySweepScoresEveryGroup`` — every sweep dispatches every
  group, moved or not, each client once; its accuracies are the per-client
  reference's on every backend and do not depend on ``eval_group_clients``;
* ``TestEnsembleGroups`` — an ensemble group sent through ``eval_round``
  scores its fresh clones' ensemble, test-less clients and all-empty
  groups included, on every backend;
* ``TestRowRanges`` — a group of a wave of ``g`` groups is
  ``ceil(workers / g)`` jobs (fewer if it has fewer batches) whose ranges
  start at multiples of the batch size, tile its rows and carry only the
  clients they overlap, and the accuracies are the ``workers=1`` bytes and
  the oracle's, on the thread and process backends at 1 to 4 workers.
"""

from __future__ import annotations

import math
import os
import threading
import uuid
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle_deployment as oracle
from repro.baselines import subnet
from repro.baselines import FLuIDStrategy, HeteroFLStrategy, SplitMixStrategy, fedavg
from repro.core import ClientManager, FedTransConfig, FedTransStrategy, SimilarityCache
from repro.data import SyntheticTaskConfig, build_federated_dataset
from repro.data.federated import ClientData
from repro.device import DeviceTrace
from repro.fl import (
    Coordinator,
    CoordinatorConfig,
    FLClient,
    LocalTrainerConfig,
    TrainItem,
    make_executor,
)
from repro.fl import executor as executor_mod
from repro.fl.executor import EXECUTOR_BACKENDS, EvalTask, ensemble_hits
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

    @settings(max_examples=100, deadline=None)
    @given(capacities=st.lists(
        st.one_of(
            st.sampled_from([0.0, -0.0, 28.0, 50.0, 64.0, 160.0, 447.0, 1e12]),
            st.floats(0.0, 1e4, allow_nan=False), st.integers(0, 500),
        ),
        max_size=40,
    ))
    def test_a_ladder_resolves_each_distinct_capacity_once(self, capacities):
        """``largest_compatible`` groups a wave by capacity in first-seen
        order; it assigns what the ``np.unique`` grouping it replaced did,
        with one fit-rule call per distinct capacity."""
        models = HeteroFLStrategy(mlp((8,), 4, np.random.default_rng(0), width=16)).models()
        clients = _fleet(enumerate(capacities))

        real = subnet.compatible_model_ids
        caps, owner = np.unique([c.capacity_macs for c in clients], return_inverse=True)
        picks = [
            max(real(models, cap), key=lambda mid: (models[mid].macs(), mid))
            for cap in caps.tolist()
        ]
        calls = []
        with pytest.MonkeyPatch.context() as m:
            m.setattr(subnet, "compatible_model_ids", lambda ms, cap: calls.append(cap) or real(ms, cap))
            assert subnet.largest_compatible(models, clients) == [picks[i] for i in owner.tolist()]
        assert len(calls) == caps.size

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
        cuts=st.sets(st.integers(1, 35)),
    )
    @example(num_test=[0, 0, 0], members=1, classes=3, ties=False, seed=0, cuts=set())  # all-empty
    @example(num_test=[3, 0, 2], members=3, classes=2, ties=True, seed=1, cuts={1, 3, 4})
    def test_one_pass_equals_the_per_client_loop(self, num_test, members, classes, ties, seed, cuts):
        """One pass per range of the group's rows, however they are cut:
        the counts summed and divided once are the per-client loop's bits."""
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
        bounds = [0, *sorted(c for c in cuts if c < rows), rows]
        hits = np.zeros(len(ids))
        for lo, hi in zip(bounds, bounds[1:]):
            if lo < hi:
                hits += ensemble_hits((out[lo:hi] for out in logits), members, clients_by_id, ids, lo, hi)
        counts = np.array(num_test)
        got = np.divide(hits, counts, out=np.zeros(len(ids)), where=counts > 0)
        want = oracle.ensemble_accuracies(iter(logits), members, clients_by_id, ids)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert (got[np.array(num_test) == 0] == 0.0).all()


# ----------------------------------------------------------------------
# the forward pass
# ----------------------------------------------------------------------
def _splitmix_coord(backend: str, eval_group_clients: int = 2) -> Coordinator:
    """SplitMix over mixed capacities: single-model groups and ensembles in
    every sweep, several chunks."""
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
        eval_group_clients=eval_group_clients,
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
    """A sweep that evaluates every client."""
    record = coord.evaluate(round_idx, 0.0)
    assert record.evaluated_clients == len(coord.clients)


def _forward_caches(model: CellModel) -> list[str]:
    """Every forward cache a model's layers hold."""
    return [
        f"{cell.cell_id}/{name}.{attr}"
        for cell in model.cells
        for name, layer in cell._named_layers()
        for attr in ("_x", "_cache", "_shape")
        if getattr(layer, attr, None) is not None
    ]


def _pooled_buffers(model: CellModel) -> list[str]:
    """Every layer of a model whose workspace holds pooled scratch buffers,
    and the model's shared workspace if it holds any."""
    return [
        f"{cell.cell_id}/{name}._ws"
        for cell in model.cells
        for name, layer in cell._named_layers()
        if hasattr(layer, "_ws") and layer._ws._bufs
    ] + ["_shared_ws"] * bool(model._shared_ws._bufs)


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
                assert _forward_caches(model) == [], model.model_id
                assert _pooled_buffers(model) == [], model.model_id
            # The workspaces the sweep ran on dropped their forward caches,
            # and a thread keeps the pooled scratch of one of them at most:
            # the one it ran last.
            for held in coord.executor.workspaces.values():
                for work in held.values():
                    assert _forward_caches(work) == [], work.model_id
                warm = [mid for mid, work in held.items() if _pooled_buffers(work)]
                assert warm in ([], [next(reversed(held))]), warm
        finally:
            coord.close()

    @pytest.mark.parametrize("backend", EXECUTOR_BACKENDS)
    def test_sweep_outputs_are_the_cloned_forwards_bytes(self, backend, monkeypatch, tmp_path):
        """The kill criterion of running the sweep without a clone: after
        training has left stacked workspaces behind, every member forward of
        a sweep equals a fresh clone's forward, bit for bit (checked where
        it runs: in a pool worker on the process backend), and every
        group's accuracies are the clones' ensemble scored."""
        checked = _check_member_logits(monkeypatch, tmp_path)
        coord = _splitmix_coord(backend)
        try:
            coord.run()
            models = coord.strategy.models()
            clients_by_id = coord.executor.clients_by_id
            ids = list(models)
            ensembles = [(mid,) for mid in ids] + [tuple(ids[:n]) for n in range(2, len(ids) + 1)]
            chunks = [(0, 1, 2), (3,), (4, 5, 6, 7, 8, 9, 10, 11)]
            tasks = [EvalTask(ens, cids) for ens in ensembles for cids in chunks]
            # The whole wave, then each group alone: a lone group is cut
            # into as many ranges as the pool has workers.
            for wave in [tasks, *([t] for t in tasks)]:
                before = checked()
                accs = coord.executor.eval_round(wave, models, 8)
                assert checked() - before == _member_forwards(coord.executor, wave, 8)
                for task, acc in zip(wave, accs):
                    assert acc.tobytes() == _cloned_scores(models, clients_by_id, task, 8).tobytes()
        finally:
            coord.close()


def _check_member_logits(monkeypatch, marks):
    """Wrap ``_member_logits`` so that each call asserts, where it runs, that
    its range overlaps the first and the last client it carries (a job joins
    no rows but its own) and its logits are a fresh clone's forward bytes
    over that slice of those clients' rows, and leaves one file in
    ``marks`` (a pool worker's calls count too).  Returns the call counter.
    Patch before a process pool starts: its workers fork the patched
    module.  That a range starts at a multiple of the batch size from its
    group's first row is ``TestRowRanges``' to check."""
    real = executor_mod._member_logits

    def member_logits(models, env, model_id, client_ids, lo, hi, batch_size):
        out = real(models, env, model_id, client_ids, lo, hi, batch_size)
        rows = [env.clients_by_id[c].data.num_test for c in client_ids]
        assert 0 <= lo < rows[0] and sum(rows) - rows[-1] < hi <= sum(rows), (lo, hi, rows)
        xs = np.concatenate([env.clients_by_id[c].data.x_test for c in client_ids])[lo:hi]
        want = models[model_id].clone(keep_id=True).predict(xs, batch_size)
        assert out.tobytes() == want.tobytes(), model_id
        (marks / f"{os.getpid()}-{threading.get_ident()}-{uuid.uuid4().hex}").touch()
        return out

    monkeypatch.setattr(executor_mod, "_member_logits", member_logits)
    return lambda: sum(1 for _ in marks.iterdir())


def _member_forwards(ex, tasks, batch_size) -> int:
    """How many member forwards a sweep of ``tasks`` runs: one per member
    per row range of its group, a group being cut into ``ceil(workers /
    groups)`` ranges but never more than it has batches (so an empty group
    runs none)."""
    share = math.ceil(ex.workers / len(tasks))
    return sum(
        len(t.model_ids)
        * min(share, math.ceil(sum(ex.clients_by_id[c].data.num_test for c in t.client_ids) / batch_size))
        for t in tasks
    )


def _cloned_scores(models, clients_by_id, task, batch_size) -> np.ndarray:
    """A group's accuracies from fresh clones of its members, scored by the
    per-client oracle."""
    xs = np.concatenate([clients_by_id[c].data.x_test for c in task.client_ids])
    members = [
        models[mid].clone(keep_id=True).predict(xs, batch_size)
        if len(xs) else np.zeros((0, models[mid].num_classes))
        for mid in task.model_ids
    ]
    return oracle.ensemble_accuracies(members, len(members), clients_by_id, task.client_ids)


# ----------------------------------------------------------------------
# every sweep scores every group
# ----------------------------------------------------------------------
class _CountingExecutor:
    """Wraps an executor, recording each sweep's wave of eval tasks."""

    def __init__(self, inner):
        self._inner = inner
        self.waves: list[list[EvalTask]] = []

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def eval_round(self, tasks, models, batch_size):
        self.waves.append(list(tasks))
        return self._inner.eval_round(tasks, models, batch_size)


def _perturb(model: CellModel) -> None:
    model.set_params({k: v + 0.25 for k, v in model.get_params().items()})


class TestEverySweepScoresEveryGroup:
    def test_an_idle_suite_is_scored_again(self):
        """Nothing moved between two sweeps: the second still dispatches the
        whole wave, and scores every client to the same bytes."""
        coord = _splitmix_coord("serial")
        counting = coord.executor = _CountingExecutor(coord.executor)
        try:
            first = coord.evaluate(0, 0.0)
            again = coord.evaluate(1, 0.0)
        finally:
            coord.close()
        first_wave, again_wave = counting.waves
        assert again_wave == first_wave
        for record in (first, again):
            assert record.cached_clients == 0
            assert record.evaluated_clients == len(coord.clients)
        assert first.client_accuracy.tobytes() == again.client_accuracy.tobytes()

    def test_a_mutation_is_seen_by_the_next_sweep(self):
        """Moved weights are scored as a fresh coordinator over a copy of
        them scores them."""
        clients = _fleet((c.client_id, 1e12) for c in _DATASET.clients)
        config = CoordinatorConfig(rounds=2, clients_per_round=4, seed=0)
        strategy = fedavg(mlp((8,), 4, np.random.default_rng(0), width=8))
        coord = Coordinator(strategy, clients, config)
        ref = None
        try:
            coord.evaluate(0, 0.0)
            _perturb(strategy.model)
            moved = coord.evaluate(1, 0.0)
            ref = Coordinator(fedavg(strategy.model.clone(keep_id=True)), clients, config)
            fresh = ref.evaluate(0, 0.0)
        finally:
            coord.close()
            if ref is not None:
                ref.close()
        assert moved.client_accuracy.tobytes() == fresh.client_accuracy.tobytes()

    def test_each_sweep_dispatches_every_client_once(self):
        """SplitMix's nested deployments: after the largest base model moves,
        the next sweep still sends every group, smaller ensembles included,
        each client in exactly one task of at most ``eval_group_clients``."""
        coord = _splitmix_coord("serial")
        strategy = coord.strategy
        counting = coord.executor = _CountingExecutor(coord.executor)
        try:
            coord.evaluate(0, 0.0)
            top = strategy._base_ids[-1]
            _perturb(strategy._models[top])
            coord.evaluate(1, 0.0)
        finally:
            coord.close()
        first, after = counting.waves
        assert after == first
        assert any(top not in t.model_ids for t in after)  # smaller ensembles too
        assert any(top in t.model_ids for t in after)
        ids = sorted(c for t in after for c in t.client_ids)
        assert ids == sorted(c.client_id for c in coord.clients)
        assert all(len(t.client_ids) <= coord.config.eval_group_clients for t in after)

    @pytest.mark.parametrize("backend", EXECUTOR_BACKENDS)
    def test_splitmix_nested_ensembles_match_the_reference_path(self, backend):
        """Every client's sweep accuracy is its deployment's per-client
        reference (``Strategy.client_logits``), before and after a move."""
        coord = _splitmix_coord(backend)
        strategy = coord.strategy
        assert len({strategy.budget_count(c) for c in coord.clients}) > 1  # nested ensembles
        try:
            for round_idx in (0, 1):
                if round_idx:
                    _perturb(strategy._models[strategy._base_ids[-1]])
                record = coord.evaluate(round_idx, 0.0)
                for i, client in enumerate(coord.clients):
                    logits = strategy.client_logits(client, client.data.x_test, record.client_model[i])
                    expect = float((logits.argmax(axis=-1) == client.data.y_test).mean())
                    assert record.client_accuracy[i] == pytest.approx(expect), (i, round_idx)
        finally:
            coord.close()

    @pytest.mark.parametrize("chunk", [1, 3, 64])
    def test_chunking_changes_no_accuracy(self, chunk):
        """``eval_group_clients`` only cuts groups into tasks: no task holds
        more clients, and the accuracies are the two-client chunking's bytes."""
        sweeps = {}
        for size in (2, chunk):
            coord = _splitmix_coord("serial", eval_group_clients=size)
            counting = coord.executor = _CountingExecutor(coord.executor)
            try:
                sweeps[size] = coord.evaluate(0, 0.0).client_accuracy
            finally:
                coord.close()
            (wave,) = counting.waves
            assert max(len(t.client_ids) for t in wave) <= size
        assert sweeps[chunk].tobytes() == sweeps[2].tobytes()


# ----------------------------------------------------------------------
# an ensemble group is scored on the executor
# ----------------------------------------------------------------------
class TestEnsembleGroups:
    @pytest.mark.parametrize("backend", EXECUTOR_BACKENDS)
    def test_an_ensemble_task_scores_its_fresh_clones_ensemble(self, backend, monkeypatch, tmp_path):
        """An ensemble group is scored on the executor: its accuracies equal
        the clones' ensemble scored (``_cloned_scores``) bit for bit,
        before and after a training wave, with a test-less client inside a
        chunk, and an all-empty group scores zeros."""
        checked = _check_member_logits(monkeypatch, tmp_path)
        data = _DATASET.clients
        empty = {1, 4}  # clients whose test set is empty
        clients = [
            FLClient(
                cid,
                ClientData(
                    cid, data[cid].x_train, data[cid].y_train,
                    data[cid].x_test[:0] if cid in empty else data[cid].x_test,
                    data[cid].y_test[:0] if cid in empty else data[cid].y_test,
                ),
                DeviceTrace(cid, 1e9, 1e6, 1e12),
            )
            for cid in range(6)
        ]
        rng = np.random.default_rng(0)
        suite = [mlp((8,), 4, rng, width=w) for w in (4, 8, 8)]
        models = {m.model_id: m for m in suite}
        ids = tuple(models)
        tasks = [
            EvalTask(ids, (0, 1, 2)),  # a test-less client inside the chunk
            EvalTask(ids[:2], (3, 5)),
            EvalTask(ids[1:], (1, 4)),  # all-empty
            EvalTask(ids[:1], (2, 0)),
        ]
        trainer = LocalTrainerConfig(batch_size=4, local_steps=2, lr=0.2)
        ex = make_executor(backend, clients, trainer, seed=0, max_workers=2)
        by_id = ex.clients_by_id

        def sweep(phase):
            # The whole wave, then each group alone (cut across the pool).
            for wave in [tasks, *([t] for t in tasks)]:
                before = checked()
                accs = ex.eval_round(wave, models, 4)
                assert checked() - before == _member_forwards(ex, wave, 4)
                for task, acc in zip(wave, accs):
                    want = _cloned_scores(models, by_id, task, 4)
                    assert acc.tobytes() == want.tobytes(), (phase, task)
            accs = ex.eval_round(tasks, models, 4)
            assert accs[0][1] == 0.0
            assert accs[2].tobytes() == np.zeros(2).tobytes()

        try:
            sweep("cold")
            items = [TrainItem(mid, cid, 0) for mid in ids for cid in (0, 2, 3)]
            for update in ex.train_round(0, items, models)[::3]:
                models[update.model_id].set_params(update.params)
            sweep("after training")
        finally:
            ex.close()


# ----------------------------------------------------------------------
# a group is at most ``ceil(workers / groups)`` batch-aligned jobs
# ----------------------------------------------------------------------
_PER_COUNT = 5  # clients holding each test-row count 0..11


def _ranged_fleet() -> list[FLClient]:
    """Five clients for each test-row count from 0 to 11: client ``5n + j``
    holds ``n`` test rows."""
    rng = np.random.default_rng(7)
    clients = []
    for n in range(12):
        for j in range(_PER_COUNT):
            cid = n * _PER_COUNT + j
            data = ClientData(
                cid, rng.standard_normal((4, 8)), rng.integers(0, 4, 4),
                rng.standard_normal((n, 8)), rng.integers(0, 4, n),
            )
            clients.append(FLClient(cid, data, DeviceTrace(cid, 1e9, 1e6, 1e12)))
    return clients


_RANGED_FLEET = _ranged_fleet()
_RANGED_SUITE = {
    m.model_id: m for m in (mlp((8,), 4, np.random.default_rng(s), width=w) for s, w in enumerate((4, 8, 8)))
}


@st.composite
def _groups(draw) -> list[EvalTask]:
    """One to three deployment groups: an ensemble of one to three suite
    models over one to five clients with drawn test-row counts, zeros
    included."""
    tasks = []
    for _ in range(draw(st.integers(1, 3))):
        counts = draw(st.lists(st.integers(0, 11), min_size=1, max_size=_PER_COUNT))
        seen: dict[int, int] = {}
        cids = []
        for n in counts:  # the next client holding n rows
            cids.append(n * _PER_COUNT + seen.get(n, 0))
            seen[n] = seen.get(n, 0) + 1
        ensemble = draw(st.permutations(list(_RANGED_SUITE)))[: draw(st.integers(1, 3))]
        tasks.append(EvalTask(tuple(ensemble), tuple(cids)))
    return tasks


@pytest.fixture(scope="module")
def ranged_executors():
    """Executors over the ranged fleet by ``(backend, workers)``; of the
    pooled ones only the one last handed out keeps its pool, so at most four
    workers run.  The others keep their warm workspaces."""
    made: dict[tuple, object] = {}

    def get(backend: str, workers: int):
        key = (backend, workers)
        if key not in made:
            made[key] = make_executor(
                backend, _RANGED_FLEET, LocalTrainerConfig(batch_size=4), seed=0, max_workers=workers
            )
        for other_key, other in made.items():
            if other_key != key and other.backend != "serial":
                other.close()
        return made[key]

    yield get
    for ex in made.values():
        ex.close()


class TestRowRanges:
    @pytest.mark.parametrize(
        "backend,examples", [("thread", 60), ("process", 25)], ids=["thread", "process"]
    )
    def test_ranged_sweep_equals_one_job_per_group(self, ranged_executors, backend, examples):
        """Each group of a wave of ``g`` groups is cut into ``ceil(workers /
        g)`` ranges, or as many as it has batches if fewer (an all-empty
        group is no job), that start at multiples of the batch size, tile
        its rows and carry only the run of its clients they overlap, and the
        accuracies are the ``workers=1`` bytes and the per-client oracle's
        over fresh clones."""
        by_id = {c.client_id: c for c in _RANGED_FLEET}

        @settings(max_examples=examples, deadline=None)
        @given(tasks=_groups(), batch_size=st.integers(1, 8), workers=st.integers(1, 4))
        @example(tasks=[EvalTask(tuple(_RANGED_SUITE), (0, 1, 2))], batch_size=3, workers=4)
        @example(tasks=[EvalTask(tuple(_RANGED_SUITE)[:1], (55, 5, 0, 30))], batch_size=4, workers=4)
        @example(  # an all-empty group beside one cut in two
            tasks=[EvalTask(tuple(_RANGED_SUITE)[:2], (0, 1)), EvalTask(tuple(_RANGED_SUITE), (30, 2, 55))],
            batch_size=2, workers=3,
        )
        def check(tasks, batch_size, workers):
            one = ranged_executors("serial", 1).eval_round(tasks, _RANGED_SUITE, batch_size)
            ex = ranged_executors(backend, workers)
            waves: list[list[tuple]] = []
            run_wave = type(ex)._run_wave
            ex._run_wave = lambda models, jobs, round_idx: (
                waves.append(jobs) or run_wave(ex, models, jobs, round_idx)
            )
            try:
                accs = ex.eval_round(tasks, _RANGED_SUITE, batch_size)
            finally:
                del ex._run_wave
            (jobs,) = waves
            pending = iter(jobs)  # in task order, a group's ranges in row order
            for t, task in enumerate(tasks):
                counts = [by_id[c].data.num_test for c in task.client_ids]
                starts = np.cumsum([0, *counts])
                rows = int(starts[-1])
                cut = []  # the group's ranges in its own row numbers
                while (cut[-1][1] if cut else 0) < rows:
                    kind, (part, lo, hi, bs) = next(pending)
                    assert kind == "eval" and bs == batch_size and part.model_ids == task.model_ids
                    first = task.client_ids.index(part.client_ids[0])
                    last = first + len(part.client_ids)
                    assert part.client_ids == task.client_ids[first:last]
                    base = int(starts[first])
                    # The first and the last client carried overlap the range.
                    assert 0 <= lo < counts[first], (lo, counts[first])
                    assert starts[last - 1] - base < hi <= starts[last] - base
                    cut.append((base + lo, base + hi))
                # ceil(workers / groups) jobs, unless the group has fewer batches.
                assert len(cut) == min(math.ceil(workers / len(tasks)), math.ceil(rows / batch_size))
                assert all(lo % batch_size == 0 and lo < hi for lo, hi in cut)
                edges = [0, *(hi for _, hi in cut)]  # contiguous, row 0 to the last
                assert [lo for lo, _ in cut] == edges[:-1] and edges[-1] == rows
                want = _cloned_scores(_RANGED_SUITE, by_id, task, batch_size)
                assert accs[t].tobytes() == one[t].tobytes() == want.tobytes(), task
                if rows == 0:
                    assert accs[t].tobytes() == np.zeros(len(task.client_ids)).tobytes()
            assert next(pending, None) is None

        check()
