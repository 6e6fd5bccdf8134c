"""The utility table against the dict-of-dicts Client Manager it replaced.

``ClientManager`` keeps FedTrans's utilities (§4.2, Eqs. 2-4) as one
``(clients x models)`` float64 block.  The oracle is the implementation it
replaced, copied verbatim into ``tests/oracle_client_manager.py``: a
``client -> {model: utility}`` dict per client in a ``ClientStateStore``.  A
hypothesis state machine drives both through random operation sequences
and requires bit-equal answers from every query after every step.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core import ClientManager
from repro.fl import ClientUpdate
from repro.container import flatten_payload, unflatten_payload
from repro.nn import mlp

from oracle_client_manager import ClientManager as DictClientManager

# NaN and infinite losses make both managers' NumPy reductions warn.
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def _pool():
    """One lineage a0 -> a1 -> a2 (similar models) and an unrelated b0
    (similarity 0 to all of them)."""
    rng = np.random.default_rng(0)
    a0 = mlp((6,), 3, rng, width=4)
    a1 = a0.clone()
    a1.widen_cell(a1.transformable_cells()[0].cell_id, 2.0, rng)
    a2 = a1.clone()
    a2.widen_cell(a2.transformable_cells()[-1].cell_id, 2.0, rng)
    b0 = mlp((6,), 3, rng, width=4)
    return a0, b0, a1, a2


POOL = _pool()
GHOST = "never-registered"


def _subsets(ids: list[str]) -> tuple[list[str], ...]:
    return (ids, ids[::-1], ids[1:], [ids[-1], GHOST, ids[0]])


CLIENTS = st.integers(0, 5)
LOSSES = st.one_of(
    st.sampled_from([0.5, 1.0, 2.0]),  # ties
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.floats(0.0, 3.0),
)


def _update(cid: int, mid: str, loss: float) -> ClientUpdate:
    return ClientUpdate(cid, mid, {}, {}, loss, 1, 0.0, 0, 0, 0.0)


def _bits(x) -> bytes:
    return struct.pack("<d", x)


def _checkpointed(payload: dict) -> dict:
    """The payload as a checkpoint file returns it (JSON skeleton + arrays)."""
    skeleton, arrays = flatten_payload(payload)
    return unflatten_payload(json.loads(json.dumps(skeleton)), arrays)


class UtilityTableMachine(RuleBasedStateMachine):
    @initialize(
        decay=st.sampled_from([1.0, 0.9]),
        clamp=st.sampled_from([0.0, 0.3, 5.0]),
        evict_after=st.sampled_from([None, 1, 2]),
    )
    def build(self, decay, clamp, evict_after):
        self.config = dict(utility_decay=decay, utility_clamp=clamp, evict_after=evict_after)
        self.oracle = DictClientManager(**self.config)
        self.table = ClientManager(**self.config)
        self.suite = {m.model_id: m for m in POOL[:2]}
        self.round = 0

    @rule(
        entries=st.lists(st.tuples(CLIENTS, st.integers(0, 3), LOSSES), max_size=6),
        compatible=st.none() | st.dictionaries(CLIENTS, st.sets(st.integers(0, 4), max_size=3)),
    )
    def update(self, entries, compatible):
        # Duplicate clients in one call, compatible maps with missing
        # entries (and ids outside the suite), and compatible=None.
        ids = list(self.suite)
        updates = [_update(cid, ids[m % len(ids)], loss) for cid, m, loss in entries]
        if compatible is not None:
            names = [*ids, GHOST]
            compatible = {
                cid: {names[k % len(names)] for k in ks} for cid, ks in compatible.items()
            }
        for manager in (self.oracle, self.table):
            manager.update(updates, self.suite, compatible)

    @rule(step=st.integers(-1, 3))
    def advance(self, step):
        self.round += step
        evicted = self.oracle.advance_round(self.round)
        assert self.table.advance_round(self.round) == evicted

    @precondition(lambda self: len(self.suite) < len(POOL))
    @rule(parent=st.integers(0, 3))
    def register_model(self, parent):
        child = POOL[len(self.suite)]
        names = [*self.suite, GHOST]
        for manager in (self.oracle, self.table):
            manager.register_model(child.model_id, names[parent % len(names)])
        self.suite[child.model_id] = child

    @rule(child=st.integers(0, 3), parent=st.integers(0, 3))
    def reregister_model(self, child, parent):
        """Registering an id the table already holds overwrites only the
        rows where the parent has a utility."""
        ids = list(self.suite)
        for manager in (self.oracle, self.table):
            manager.register_model(ids[child % len(ids)], ids[parent % len(ids)])

    @rule()
    def checkpoint_v2(self):
        restored = ClientManager(**self.config)
        restored.load_state_dict(_checkpointed(self.table.state_dict()))
        self.table = restored

    @invariant()
    def answers_agree(self):
        ids = list(self.suite)
        for cid in range(7):
            for mid in [*(m.model_id for m in POOL), GHOST]:
                assert _bits(self.table.utility(cid, mid)) == _bits(
                    self.oracle.utility(cid, mid)
                ), (cid, mid)
            for subset in _subsets(ids):
                assert (
                    self.table.assignment_probabilities(cid, subset).tobytes()
                    == self.oracle.assignment_probabilities(cid, subset).tobytes()
                ), (cid, subset)
        # One batched call per subset, as a sweep makes it: resident,
        # evicted and never-seen clients, out of order and repeated.
        cids = [6, *range(6), 2]
        for subset in _subsets(ids):
            assert self.table.best_model(cids, subset) == self.oracle.best_model(
                cids, subset
            ), subset
        assert self.table.evicted_total == self.oracle.store.evicted_total


UtilityTableMachine.TestCase.settings = settings(
    max_examples=150,
    stateful_step_count=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestUtilityTableMatchesDictOracle = UtilityTableMachine.TestCase
