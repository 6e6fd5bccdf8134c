"""Bench harness: profiles, reporting, workload runners, motivation helpers."""

import numpy as np
import pytest

from repro.bench import (
    PROFILES,
    active_profile,
    ascii_table,
    build_dataset,
    fig1a_latency_distributions,
    format_box_row,
    format_series,
    make_initial_model,
    run_method,
)
from repro.bench.reporting import box_stats
from repro.bench.profiles import DATASETS


class TestProfiles:
    def test_all_profiles_cover_all_datasets(self):
        for name, table in PROFILES.items():
            assert set(table) == set(DATASETS), name

    def test_active_profile_default_tiny(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        assert active_profile("femnist_like").name == "tiny"

    def test_active_profile_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "default")
        assert active_profile("femnist_like").name == "default"

    def test_unknown_profile_raises(self):
        with pytest.raises(ValueError, match="unknown profile"):
            active_profile("femnist_like", override="nope")

    def test_unknown_dataset_raises(self):
        with pytest.raises(ValueError, match="unknown dataset"):
            active_profile("nope")

    def test_with_override(self):
        p = active_profile("femnist_like").with_(rounds=7)
        assert p.rounds == 7

    def test_paper_profile_matches_table7_scale(self):
        p = PROFILES["paper"]["femnist_like"]
        assert p.clients_per_round == 100
        assert p.rounds == 2000
        assert p.delta == 30


class TestReporting:
    def test_ascii_table_alignment(self):
        rows = [{"a": 1, "b": "xy"}, {"a": 223, "b": "z"}]
        out = ascii_table(rows, title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert all(len(l) == len(lines[1]) for l in lines[1:])

    def test_ascii_table_empty(self):
        assert "empty" in ascii_table([])

    def test_ascii_table_ragged_rows(self):
        rows = [{"a": 1}, {"b": 2}]
        out = ascii_table(rows)
        assert "a" in out and "b" in out

    def test_box_stats_values(self):
        s = box_stats(np.array([0.0, 0.25, 0.5, 0.75, 1.0]))
        assert s["min"] == 0.0
        assert s["median"] == 0.5
        assert s["max"] == 1.0
        assert s["mean"] == 0.5

    def test_format_box_row_percent(self):
        row = format_box_row("m", np.array([0.5, 0.5]))
        assert row["median%"] == 50.0

    def test_format_series(self):
        s = format_series("m", [1, 2], [0.1, 0.2], "cost", "acc")
        assert "m [cost -> acc]" in s
        assert "(1, 0.1)" in s


class TestWorkloads:
    def test_build_dataset_scales(self):
        p = active_profile("femnist_like")
        ds = build_dataset(p, seed=0)
        assert ds.num_clients == max(8, int(3400 * p.scale))

    def test_make_initial_model_kinds(self, rng):
        p = active_profile("femnist_like")
        ds = build_dataset(p, seed=0)
        m = make_initial_model(ds, p, rng)
        assert m.macs() > 0
        p_img = p.with_(image=True, model_kind="cnn", init_width=4)
        ds_img = build_dataset(p_img, seed=0)
        m2 = make_initial_model(ds_img, p_img, rng)
        assert m2.input_shape == ds_img.input_shape

    def test_make_initial_model_vit(self, rng):
        p = active_profile("femnist_like").with_(image=True, model_kind="vit", init_width=8)
        ds = build_dataset(p, seed=0)
        m = make_initial_model(ds, p, rng)
        assert m.macs() > 0

    def test_unknown_model_kind_raises(self, rng):
        p = active_profile("femnist_like").with_(model_kind="nope")
        ds = build_dataset(p, seed=0)
        with pytest.raises(ValueError, match="unknown model kind"):
            make_initial_model(ds, p, rng)

    def test_run_method_unknown_raises(self):
        p = active_profile("femnist_like")
        ds = build_dataset(p, seed=0)
        with pytest.raises(ValueError, match="unknown method"):
            run_method("nope", ds, p)

    def test_subnet_methods_require_global(self):
        p = active_profile("femnist_like")
        ds = build_dataset(p, seed=0)
        with pytest.raises(ValueError, match="need the large global model"):
            run_method("heterofl", ds, p)

    def test_run_method_smoke(self):
        p = active_profile("femnist_like").with_(rounds=6, eval_every=3)
        ds = build_dataset(p, seed=0)
        res = run_method("fedtrans", ds, p, seed=0)
        assert res.method == "fedtrans"
        assert res.summary.rounds_run == 6

    def test_fedprox_uses_prox_trainer(self):
        p = active_profile("femnist_like").with_(rounds=4, eval_every=2)
        ds = build_dataset(p, seed=0)
        res = run_method("fedprox", ds, p, seed=0)
        assert res.summary.strategy == "fedprox"


class TestMotivation:
    def test_fig1a_shapes(self):
        lat = fig1a_latency_distributions(num_devices=64, seed=0)
        assert len(lat) == 3
        assert all(len(v) == 64 for v in lat.values())
        assert all((v > 0).all() for v in lat.values())
