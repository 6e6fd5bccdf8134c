"""End-to-end integration: the full comparison protocol at micro scale.

These tests run complete multi-method workloads and assert the qualitative
relationships the paper's evaluation rests on.  Scales are minimal (a few
seconds total) — the benchmarks run the full-size versions.
"""

import numpy as np
import pytest

from repro.bench import active_profile, build_dataset
from repro.bench.workloads import run_method, run_workload_suite


@pytest.fixture(scope="module")
def micro_suite():
    profile = active_profile("femnist_like").with_(
        rounds=60, eval_every=15, scale=0.006
    )
    ds = build_dataset(profile, seed=0)
    results = run_workload_suite(
        ds, profile, methods=("fedtrans", "heterofl", "splitmix", "fluid"), seed=0
    )
    return profile, ds, results


class TestComparisonProtocol:
    def test_all_methods_complete(self, micro_suite):
        _, _, results = micro_suite
        assert set(results) == {"fedtrans", "heterofl", "splitmix", "fluid"}
        for r in results.values():
            assert r.log.rounds
            assert r.log.evals

    def test_fedtrans_spawned_models(self, micro_suite):
        _, _, results = micro_suite
        assert len(results["fedtrans"].strategy.models()) >= 2

    def test_baselines_received_fedtrans_largest(self, micro_suite):
        """Appendix A.1: baselines span the same complexity range."""
        _, _, results = micro_suite
        ft_largest = max(
            m.macs() for m in results["fedtrans"].strategy.models().values()
        )
        het_largest = max(
            m.macs() for m in results["heterofl"].strategy.models().values()
        )
        assert het_largest == ft_largest

    def test_fedtrans_cheapest(self, micro_suite):
        _, _, results = micro_suite
        ft = results["fedtrans"].summary.cost_pmacs
        assert all(
            ft <= results[m].summary.cost_pmacs
            for m in ("heterofl", "splitmix", "fluid")
        )

    def test_every_method_metered_identically(self, micro_suite):
        _, _, results = micro_suite
        for r in results.values():
            log = r.log
            assert log.total_macs == pytest.approx(sum(rec.macs for rec in log.rounds))
            assert log.peak_storage_bytes > 0
            assert log.network_mb() > 0

    def test_eval_covers_all_clients(self, micro_suite):
        _, ds, results = micro_suite
        for r in results.values():
            assert len(r.log.final_eval().client_accuracy) == ds.num_clients


class TestDeterminism:
    def test_same_seed_same_result(self):
        profile = active_profile("femnist_like").with_(rounds=20, eval_every=10, scale=0.004)
        ds = build_dataset(profile, seed=1)
        a = run_method("fedtrans", ds, profile, seed=1)
        b = run_method("fedtrans", ds, profile, seed=1)
        assert a.log.final_accuracy() == b.log.final_accuracy()
        assert a.log.total_macs == b.log.total_macs
        assert [m.macs() for m in a.strategy.models().values()] == [
            m.macs() for m in b.strategy.models().values()
        ]

    def test_different_seed_differs(self):
        profile = active_profile("femnist_like").with_(rounds=20, eval_every=10, scale=0.004)
        ds = build_dataset(profile, seed=1)
        a = run_method("fedtrans", ds, profile, seed=1)
        b = run_method("fedtrans", ds, profile, seed=2)
        assert (
            a.log.final_accuracy() != b.log.final_accuracy()
            or a.log.total_macs != b.log.total_macs
        )


class TestAblationFlagsEndToEnd:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"gradient_cell_selection": False},
            {"soft_aggregation": False},
            {"warmup": False},
            {"decay": False},
            {"share_l2s": True},
            {"strict_eq5": True},
            {"widen_noise": 0.0},
        ],
    )
    def test_every_flag_combination_runs(self, overrides):
        profile = active_profile("femnist_like").with_(rounds=25, eval_every=25, scale=0.004)
        ds = build_dataset(profile, seed=0)
        res = run_method("fedtrans", ds, profile, seed=0, fedtrans_overrides=overrides)
        assert np.isfinite(res.log.final_accuracy())
        assert res.log.total_macs > 0
