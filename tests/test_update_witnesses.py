"""An update carries weights, not gradients (CONTRACTS.md I11).

FedTrans's activeness signal is the frontier's FedAvg pseudo-gradient —
``ModelAggregator.aggregate`` returns dispatch-time weights minus the
sample-weighted mean of the returned ones — not a per-client gradient tree
shipped beside the weights.  Two witnesses:

* **Rank agreement.**  The accumulation ``LocalTrainer.train`` used to ship
  (the mean of clipped, FedProx-augmented step gradients) is kept below as
  the oracle.  Under plain SGD ``w_dispatch - w_client = lr * sum_t g_t``, so
  the pseudo-gradient over ``lr * local_steps`` is that mean up to rounding,
  per client and after aggregation, and ranks the cells identically.  With
  momentum the two differ by design (the server sees the FedOpt
  pseudo-gradient); one case pins that.
* **The guard.**  No stored ``grad`` field, no ``.grad`` load under
  ``src/repro``, one pseudo-gradient expression under ``src/repro/core``,
  and nothing array-valued on a trained update outside ``params``/``state``.
"""

import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest

from repro.bench.workloads import update_overhead
from repro.core import FedTransConfig, FedTransStrategy, ModelAggregator, SimilarityCache
from repro.core.activeness import cell_gradient_norms
from repro.data.federated import ClientData
from repro.device import DeviceTrace
from repro.fl import FLClient, LocalTrainer, LocalTrainerConfig
from repro.fl.types import ClientUpdate
from repro.nn import mlp, set_compute_dtype, small_cnn
from repro.nn.optim import SGD

SRC = Path(__file__).parent.parent / "src" / "repro"
STEPS, LR = 6, 0.05
SIZES = (23, 40, 12, 31)  # ragged sample counts: the FedAvg weights differ


# ----------------------------------------------------------------------
# oracle: the accumulation LocalTrainer.train shipped as ``grad``
# ----------------------------------------------------------------------
def mean_step_gradient(cfg, model, client, rng):
    x, y = client.data.x_train, client.data.y_train
    n = len(y)
    opt = SGD(cfg.lr, cfg.momentum, cfg.weight_decay)
    anchor = {k: v.copy() for k, v in model.params().items()}
    grad_sum, clipped = None, []
    for _ in range(cfg.local_steps):
        idx = rng.integers(0, n, size=min(cfg.batch_size, n))
        model.zero_grad()
        model.loss_and_grad(x[idx], y[idx])
        grads, params = model.grads(), model.params()
        gnorm = float(np.sqrt(sum(float((g**2).sum()) for g in grads.values())))
        clipped.append(bool(cfg.clip_norm) and gnorm > cfg.clip_norm)
        if clipped[-1]:
            for g in grads.values():
                g *= cfg.clip_norm / gnorm
        if cfg.prox_mu:
            grads = {k: g + cfg.prox_mu * (params[k] - anchor[k]) for k, g in grads.items()}
        if grad_sum is None:
            grad_sum = {k: g.copy() for k, g in grads.items()}
        else:
            for k, g in grads.items():
                grad_sum[k] += g
        opt.step(params, grads)
    return {k: g / cfg.local_steps for k, g in grad_sum.items()}, clipped


# ----------------------------------------------------------------------
def _item(kind, dtype):
    """A seeded model and four clients at the given compute dtype."""
    rng = np.random.default_rng(17)
    if kind == "mlp":
        model, shape, classes = mlp((12,), 5, rng, width=8, depth=3), (12,), 5
    else:
        model, shape, classes = small_cnn((3, 8, 8), 3, rng, width=4), (3, 8, 8), 3
    clients = []
    for cid, n in enumerate(SIZES):
        x = rng.normal(size=(n, *shape)).astype(dtype)
        data = ClientData(cid, x, rng.integers(0, classes, n), x[:2], rng.integers(0, classes, 2))
        clients.append(FLClient(cid, data, DeviceTrace(cid, 1e9, 1e6, 1e15)))
    return model, clients


def _train(cfg, model, clients, stacked):
    rngs = [np.random.default_rng(100 + c.client_id) for c in clients]
    if stacked:
        return LocalTrainer(cfg).train(model.replicate(len(clients)), clients, rngs)
    return [
        LocalTrainer(cfg).train(model.clone(keep_id=True), c, r) for c, r in zip(clients, rngs)
    ]


def _tolerance(model, cfg):
    """Set from the dtype: each of the ``local_steps`` in-place updates rounds
    a weight to its own precision, and the division magnifies that."""
    peak = max(float(np.abs(v).max()) for v in model.params().values())
    eps = np.finfo(next(iter(model.params().values())).dtype).eps
    return 4 * eps * max(peak, 1.0) / cfg.lr


def _ranking(norms):
    return sorted(norms, key=norms.get)


@pytest.fixture(params=["float64", "float32"])
def dtype(request):
    set_compute_dtype(request.param)
    yield request.param
    set_compute_dtype("float64")


@pytest.mark.parametrize("clip_norm", [0.05, 1e6], ids=["clipping", "unclipped"])
@pytest.mark.parametrize("prox_mu", [0.0, 0.1])
@pytest.mark.parametrize(
    "kind,cohort", [("mlp", 1), ("mlp", 4), ("cnn", 1)], ids=["mlp-1", "mlp-K4", "cnn-1"]
)
def test_pseudo_gradient_is_the_mean_step_gradient_and_ranks_cells_alike(
    dtype, kind, cohort, prox_mu, clip_norm
):
    model, clients = _item(kind, dtype)
    clients = clients[:cohort]
    cfg = LocalTrainerConfig(
        batch_size=10, local_steps=STEPS, lr=LR, prox_mu=prox_mu, clip_norm=clip_norm
    )
    oracle, clipped = zip(
        *(
            mean_step_gradient(
                cfg, model.clone(keep_id=True), c, np.random.default_rng(100 + c.client_id)
            )
            for c in clients
        )
    )
    assert all(any(steps) == (clip_norm < 1) for steps in clipped)
    updates = _train(cfg, model, clients, stacked=cohort > 1)
    dispatched = model.get_params()
    atol = _tolerance(model, cfg)
    scale = cfg.lr * cfg.local_steps
    for update, want in zip(updates, oracle):
        assert update_overhead(update) == (0, ["train_loss"])
        for k, w in dispatched.items():
            got = (w - update.params[k]) / scale
            assert got.dtype == np.dtype(dtype)
            np.testing.assert_allclose(got, want[k], rtol=0, atol=atol, err_msg=k)

    # What the activeness tracker is fed: the aggregator's return value.
    aggregator = ModelAggregator(FedTransConfig(), SimilarityCache())
    pseudo = aggregator.aggregate({model.model_id: model}, [model.model_id], updates, 0)
    total = float(sum(c.data.num_train for c in clients))
    mean = {
        k: sum(c.data.num_train / total * g[k] for c, g in zip(clients, oracle))
        for k in dispatched
    }
    for k, g in pseudo[model.model_id].items():
        np.testing.assert_allclose(g / scale, mean[k], rtol=0, atol=atol, err_msg=k)
    ours = cell_gradient_norms(model, pseudo[model.model_id])
    theirs = cell_gradient_norms(model, mean)
    assert _ranking(ours) == _ranking(theirs)
    for cell_id, norm in theirs.items():
        assert ours[cell_id] / scale == pytest.approx(norm, rel=1e-3)


def test_with_momentum_the_server_sees_the_fedopt_pseudo_gradient_instead():
    """The declared difference: momentum makes a step more than ``lr * g``."""
    model, clients = _item("mlp", "float64")
    cfg = LocalTrainerConfig(
        batch_size=10, local_steps=STEPS, lr=LR, momentum=0.9, clip_norm=0.0
    )
    want, _ = mean_step_gradient(
        cfg, model.clone(keep_id=True), clients[0], np.random.default_rng(100)
    )
    (update,) = _train(cfg, model, clients[:1], stacked=False)
    ratio = [
        np.linalg.norm(model.params()[k] - update.params[k])
        / (cfg.lr * cfg.local_steps * np.linalg.norm(want[k]))
        for k in want
    ]
    assert min(ratio) > 1.5  # the velocity carries earlier steps forward


def test_a_stale_frontier_update_feeds_a_pseudo_gradient_discounted_by_construction():
    """ROADMAP item 9: the ``f * client + (1 - f) * server`` pull measures the
    pseudo-gradient against the *current* frontier and scales it by ``f``."""
    model, _ = _item("mlp", "float64")
    strategy = FedTransStrategy(model, FedTransConfig(), max_capacity_macs=1e15)
    before = model.get_params()
    update = ClientUpdate(
        client_id=0, model_id=model.model_id, params={k: v - 1.0 for k, v in before.items()},
        state={}, train_loss=1.0, num_samples=10, macs_spent=0.0, bytes_down=0, bytes_up=0,
        round_time=0.0,
    )
    seen = []
    strategy.transformer.observe_round = lambda *args: seen.append(args)
    strategy.aggregate_buffered(
        0, [update], [2], np.random.default_rng(0), staleness_discount=0.5
    )
    ((_, _, grad),) = seen
    for k, g in grad.items():
        np.testing.assert_allclose(g, 0.25, rtol=1e-12)
        np.testing.assert_allclose(model.params()[k], before[k] - 0.25, rtol=1e-12)


# ----------------------------------------------------------------------
# the guard
# ----------------------------------------------------------------------
def test_an_update_carries_no_gradient():
    assert "grad" not in {f.name for f in dataclasses.fields(ClientUpdate)}

    loads, pseudo_gradient_sites = [], []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        loads += [
            f"{path.relative_to(SRC)}:{n.lineno}"
            for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and n.attr == "grad"
        ]
        if SRC / "core" in path.parents:
            pseudo_gradient_sites += [
                f"{path.relative_to(SRC)}::{fn.name}"
                for fn in ast.walk(tree)
                if isinstance(fn, ast.FunctionDef)
                and any(
                    isinstance(n, ast.BinOp) and ast.unparse(n) == "current[k] - avg[k]"
                    for n in ast.walk(fn)
                )
            ]
    assert loads == []
    assert pseudo_gradient_sites == ["core/aggregator.py::_within_model"]

    # The frozen harness still passes the tree by keyword: accepted, dropped.
    tree = {"c0000/fc.w": np.ones((2, 3))}
    update = ClientUpdate(
        client_id=0, model_id="m", params=dict(tree), state={}, grad=dict(tree),
        train_loss=1.0, num_samples=10, macs_spent=0.0, bytes_down=48, bytes_up=48,
        round_time=0.0,
    )
    assert "grad" not in vars(update)
    assert update_overhead(update) == (0, ["train_loss"])
    assert update_overhead(dataclasses.replace(update, params={})) == (0, ["train_loss"])
    update.grad = dict(tree)  # a stray attribute would be metered, not missed
    assert update_overhead(update) == (48, ["grad", "train_loss"])
