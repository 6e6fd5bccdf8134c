"""Coverage for corners not exercised elsewhere: residual/ViT gradients in
models, multi-assignment cost accounting, subnet role maps on CNNs,
classifier fallbacks, and reporting formats."""

import numpy as np
import pytest

from repro.baselines import HeteroFLStrategy, SplitMixStrategy
from repro.baselines.subnet import build_subnet, param_index_map, ratio_spec
from repro.bench.reporting import _fmt, ascii_table
from repro.data import SyntheticTaskConfig, build_federated_dataset
from repro.device import DeviceTrace
from repro.fl import Coordinator, CoordinatorConfig, FLClient, LocalTrainerConfig
from repro.nn import small_cnn, small_resnet, vit_tiny
from repro.nn.gradcheck import check_model_gradients


class TestGradcheckDeepFamilies:
    def test_resnet_deepened_model_gradients(self, rng):
        m = small_resnet((1, 8, 8), 3, rng, width=4)
        cell = m.transformable_cells()[0]
        m.deepen_after(cell.cell_id, rng)
        x = rng.normal(size=(4, 1, 8, 8))
        y = rng.integers(0, 3, 4)
        # A freshly inserted identity residual cell has conv2 == 0; its BN
        # sits at the var≈0 singularity where finite differences are
        # ill-conditioned.  The larger jitter moves it into a regular
        # region — gradcheck then certifies the same backward code path.
        assert check_model_gradients(m, x, y, rng, jitter=0.05) < 1e-3

    def test_widened_cnn_gradients(self, rng):
        m = small_cnn((1, 8, 8), 3, rng, width=4)
        m.widen_cell(m.transformable_cells()[0].cell_id, 2.0, rng, noise=0.05)
        x = rng.normal(size=(4, 1, 8, 8))
        y = rng.integers(0, 3, 4)
        assert check_model_gradients(m, x, y, rng) < 1e-4

    def test_vit_deepened_gradients(self, rng):
        m = vit_tiny((1, 8, 8), 3, rng, dim=8, heads=2, mlp_hidden=12, patch=4)
        cell = m.transformable_cells()[0]
        m.deepen_after(cell.cell_id, rng)
        x = rng.normal(size=(3, 1, 8, 8))
        y = rng.integers(0, 3, 3)
        assert check_model_gradients(m, x, y, rng) < 1e-4


def _fl_setup(num_clients=8, span=8):
    cfg = SyntheticTaskConfig(
        num_classes=4, input_shape=(8,), latent_dim=6, teacher_width=12, seed=0
    )
    ds = build_federated_dataset(cfg, num_clients, mean_samples=15, seed=0)
    rng = np.random.default_rng(0)
    from repro.nn import mlp

    g = mlp(ds.input_shape, ds.num_classes, rng, width=16)
    caps = np.geomspace(g.macs() / span, g.macs() * 1.5, num_clients)
    clients = [
        FLClient(c.client_id, c, DeviceTrace(c.client_id, 1e9, 1e6, float(cap)))
        for c, cap in zip(ds.clients, caps)
    ]
    return ds, g, clients


class TestMultiAssignmentAccounting:
    def test_splitmix_costs_scale_with_budget(self):
        """A client training m base nets must be billed for all m."""
        ds, g, clients = _fl_setup()
        strat = SplitMixStrategy(g, k=3)
        coord = Coordinator(
            strat,
            clients,
            CoordinatorConfig(
                rounds=2,
                clients_per_round=len(clients),
                trainer=LocalTrainerConfig(local_steps=2),
                eval_every=2,
                seed=0,
            ),
        )
        log = coord.run()
        rec = log.rounds[0]
        base_macs = min(m.macs() for m in strat.models().values())
        by_id = {c.client_id: c for c in clients}
        expected = sum(
            len(mids) * 3 * base_macs * 2 * min(10, by_id[cid].data.num_train)
            for cid, mids in rec.assignments.items()
        )
        assert rec.macs == pytest.approx(expected)

    def test_round_time_sums_sequential_models(self):
        ds, g, clients = _fl_setup()
        strat = SplitMixStrategy(g, k=3)
        rng = np.random.default_rng(0)
        strong = max(clients, key=lambda c: c.capacity_macs)
        m = strat.budget_count(strong)
        assert m >= 2  # the premise: multiple nets trained sequentially
        coord = Coordinator(
            strat,
            clients,
            CoordinatorConfig(
                rounds=1,
                clients_per_round=len(clients),
                trainer=LocalTrainerConfig(local_steps=2),
                seed=0,
            ),
        )
        log = coord.run()
        assert log.rounds[0].round_time > 0

    def test_sync_round_lasts_as_long_as_slowest_client(self):
        """One model per client: the barrier round is the max client time."""
        from repro.baselines import fedavg
        from repro.device.latency import client_round_time

        ds, g, clients = _fl_setup()
        steps = 2
        coord = Coordinator(
            fedavg(g),
            clients,
            CoordinatorConfig(
                rounds=1,
                clients_per_round=4,
                trainer=LocalTrainerConfig(local_steps=steps),
                seed=0,
            ),
        )
        rec = coord.run().rounds[0]
        by_id = {c.client_id: c for c in clients}
        times = [
            client_round_time(
                by_id[cid].device, g.macs(), g.nbytes(),
                min(10, by_id[cid].data.num_train), steps,
            )
            for cid in rec.participants
        ]
        assert len(set(times)) > 1  # the premise: the participants differ
        assert rec.round_time == max(times)


class TestSubnetRoleMaps:
    @pytest.mark.parametrize(
        "maker",
        [
            lambda r: small_cnn((1, 8, 8), 3, r, width=8),
            lambda r: small_resnet((1, 8, 8), 3, r, width=8),
        ],
    )
    def test_index_map_shapes_match_subnet(self, maker, rng):
        """Every narrowed tensor's kept-index lengths equal the subnet shape."""
        g = maker(rng)
        spec = ratio_spec(g, 0.5)
        sub = build_subnet(g, spec)
        imap = param_index_map(g, spec)
        sub_tensors = dict(sub.params(), **sub.state())
        for key, idxs in imap.items():
            v = sub_tensors[key]
            for axis, idx in enumerate(idxs):
                if idx is not None:
                    assert len(idx) == v.shape[axis], (key, axis)

    def test_resnet_hidden_axis_in_map(self, rng):
        g = small_resnet((1, 8, 8), 3, rng, width=8)
        spec = ratio_spec(g, 0.5)
        imap = param_index_map(g, spec)
        res_cells = [c for c in g.cells if c.kind == "residual"]
        key = f"{res_cells[0].cell_id}/conv1.w"
        assert key in imap
        out_idx, in_idx = imap[key][0], imap[key][1]
        assert out_idx is not None  # hidden axis narrowed
        # first residual follows the stem, whose out channels are narrowed
        assert in_idx is not None


class TestFallbacks:
    def test_heterofl_weakest_fallback(self, rng):
        """A client too weak for every submodel still gets the cheapest."""
        ds, g, clients = _fl_setup()
        strat = HeteroFLStrategy(g)
        hopeless = FLClient(
            99, ds.clients[0], DeviceTrace(99, 1e9, 1e6, capacity_macs=1.0)
        )
        mid = strat.eval_model_for(hopeless)
        assert mid == min(strat.models(), key=lambda m: strat.models()[m].macs())

    def test_strategy_compatible_fallback(self, rng):
        from repro.baselines import fedavg
        from repro.nn import mlp

        m = mlp((8,), 4, rng, width=16)
        strat = fedavg(m)
        hopeless = FLClient(
            0,
            _fl_setup()[0].clients[0],
            DeviceTrace(0, 1e9, 1e6, capacity_macs=1.0),
        )
        assert strat.compatible_models(hopeless) == [m.model_id]


class TestReportingFormats:
    def test_fmt_large_and_small(self):
        assert _fmt(1234567.0) == "1.235e+06"
        assert _fmt(0.00001) == "1.000e-05"
        assert _fmt(0.0) == "0"
        assert _fmt(3.14159) == "3.142"
        assert _fmt("text") == "text"

    def test_table_mixed_types(self):
        out = ascii_table([{"a": 0.5, "b": None}])
        assert "None" in out


class TestVitStemParams:
    def test_param_keys(self, rng):
        m = vit_tiny((1, 8, 8), 3, rng, dim=8, heads=2, mlp_hidden=12, patch=4)
        keys = set(m.params())
        stem = m.cells[0]
        assert f"{stem.cell_id}/embed.w" in keys
        assert f"{stem.cell_id}/embed.pos" in keys

    def test_cell_macs_chain(self, rng):
        m = vit_tiny((1, 8, 8), 3, rng, dim=8, heads=2, mlp_hidden=12, patch=4)
        total, shape = 0, m.input_shape
        for cell in m.cells:
            macs, shape = cell.macs(shape)
            total += macs
        assert shape == (3,)
        assert total == m.macs()
