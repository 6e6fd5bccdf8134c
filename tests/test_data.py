"""Datasets: synthetic task, partitioners, federated containers, registry."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import (
    SyntheticTaskConfig,
    build_federated_dataset,
    cifar10_like,
    femnist_like,
    speech_like,
)
from repro.data.partition import (
    dirichlet_partition,
    lognormal_sample_counts,
    natural_partition,
)
from repro.data.registry import openimage_like
from repro.data.synthetic import SyntheticTask


def _cfg(**kw):
    base = dict(num_classes=5, input_shape=(12,), latent_dim=6, teacher_width=8, seed=0)
    base.update(kw)
    return SyntheticTaskConfig(**base)


class TestSyntheticTask:
    def test_shapes_flat(self, rng):
        task = SyntheticTask(_cfg())
        x, y = task.sample(np.array([3, 0, 2, 0, 1]), rng)
        assert x.shape == (6, 12)
        assert sorted(np.bincount(y, minlength=5).tolist()) == sorted([3, 0, 2, 0, 1])

    def test_shapes_image(self, rng):
        task = SyntheticTask(_cfg(input_shape=(1, 4, 4), num_classes=3))
        x, y = task.sample(np.array([2, 2, 2]), rng)
        assert x.shape == (6, 1, 4, 4)

    def test_empty_raises(self, rng):
        task = SyntheticTask(_cfg())
        with pytest.raises(ValueError, match="empty"):
            task.sample(np.zeros(5, dtype=int), rng)

    def test_wrong_counts_shape_raises(self, rng):
        task = SyntheticTask(_cfg())
        with pytest.raises(ValueError, match="class_counts"):
            task.sample(np.array([1, 1]), rng)

    def test_reproducible_given_seeded_rng(self):
        task = SyntheticTask(_cfg())
        counts = np.array([2, 2, 2, 0, 0])
        x1, y1 = task.sample(counts, np.random.default_rng(7))
        x2, y2 = task.sample(counts, np.random.default_rng(7))
        assert np.allclose(x1, x2)
        assert np.array_equal(y1, y2)

    def test_same_config_same_prototypes(self, rng):
        t1, t2 = SyntheticTask(_cfg()), SyntheticTask(_cfg())
        assert np.allclose(t1._prototypes, t2._prototypes)

    def test_drift_shifts_features(self, rng):
        task = SyntheticTask(_cfg())
        counts = np.array([5, 0, 0, 0, 0])
        drift = np.full(12, 10.0)
        x_plain, _ = task.sample(counts, np.random.default_rng(3))
        x_drift, _ = task.sample(counts, np.random.default_rng(3), drift=drift)
        assert np.allclose(x_drift - x_plain, 10.0, atol=1e-9)

    def test_classes_are_separable(self):
        """Prototype structure must carry class signal (premise of learning)."""
        task = SyntheticTask(_cfg(class_sep=3.0, feature_noise=0.1))
        counts = np.full(5, 40)
        x, y = task.sample(counts, np.random.default_rng(0))
        # nearest-centroid classifier in feature space should beat chance
        centroids = np.stack([x[y == k].mean(axis=0) for k in range(5)])
        pred = np.argmin(
            ((x[:, None, :] - centroids[None]) ** 2).sum(-1), axis=1
        )
        assert (pred == y).mean() > 0.5


class TestPartitioners:
    def test_dirichlet_row_sums(self, rng):
        counts = dirichlet_partition(10, 6, h=0.5, samples_per_client=30, rng=rng)
        assert counts.shape == (10, 6)
        assert np.all(counts.sum(axis=1) == 30)

    def test_dirichlet_heterogeneity_ordering(self):
        """Lower h concentrates mass on fewer classes."""
        rng1, rng2 = np.random.default_rng(0), np.random.default_rng(0)
        lo = dirichlet_partition(200, 10, h=0.1, samples_per_client=50, rng=rng1)
        hi = dirichlet_partition(200, 10, h=100.0, samples_per_client=50, rng=rng2)

        def mean_entropy(c):
            p = c / c.sum(axis=1, keepdims=True)
            with np.errstate(divide="ignore", invalid="ignore"):
                e = -np.where(p > 0, p * np.log(p), 0.0).sum(axis=1)
            return e.mean()

        assert mean_entropy(lo) < mean_entropy(hi)

    def test_dirichlet_bad_h(self, rng):
        with pytest.raises(ValueError):
            dirichlet_partition(5, 3, h=0.0, samples_per_client=10, rng=rng)

    def test_dirichlet_vector_totals(self, rng):
        totals = np.array([5, 10, 15])
        counts = dirichlet_partition(3, 4, h=1.0, samples_per_client=totals, rng=rng)
        assert np.array_equal(counts.sum(axis=1), totals)

    def test_natural_partition_minimum(self, rng):
        counts = natural_partition(50, 8, mean_samples=30, rng=rng)
        assert np.all(counts.sum(axis=1) >= 8)

    def test_lognormal_counts_mean(self, rng):
        counts = lognormal_sample_counts(5000, 50, rng)
        assert abs(counts.mean() - 50) < 5

    def test_lognormal_bad_mean(self, rng):
        with pytest.raises(ValueError):
            lognormal_sample_counts(5, 0, rng)

    @given(
        h=st.sampled_from([0.1, 0.5, 1.0, 10.0, 100.0]),
        n=st.integers(2, 30),
        k=st.integers(2, 12),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_dirichlet_counts_valid(self, h, n, k, seed):
        rng = np.random.default_rng(seed)
        counts = dirichlet_partition(n, k, h, 25, rng)
        assert counts.min() >= 0
        assert np.all(counts.sum(axis=1) == 25)


class TestFederatedDataset:
    def test_builder_basic(self):
        ds = build_federated_dataset(_cfg(), num_clients=12, mean_samples=20, seed=0)
        assert ds.num_clients == 12
        assert all(c.num_train > 0 and c.num_test > 0 for c in ds.clients)

    def test_client_ids_sequential(self):
        ds = build_federated_dataset(_cfg(), num_clients=5, mean_samples=20, seed=0)
        assert [c.client_id for c in ds.clients] == list(range(5))

    def test_pooled_sizes(self):
        ds = build_federated_dataset(_cfg(), num_clients=6, mean_samples=20, seed=0)
        x, y = ds.pooled_train()
        assert len(y) == sum(c.num_train for c in ds.clients)
        assert x.shape[0] == len(y)

    def test_label_histogram_matches(self):
        """Each client's train labels are exactly its row of the partition,
        and it is tested only on classes it trains on."""
        cfg = _cfg()
        ds = build_federated_dataset(cfg, num_clients=4, mean_samples=20, seed=0)
        counts = natural_partition(4, cfg.num_classes, 20, np.random.default_rng(0))
        for c, row in zip(ds.clients, counts):
            hist = np.bincount(c.y_train, minlength=cfg.num_classes)
            assert np.array_equal(hist, row)
            assert set(np.unique(c.y_test)) <= set(np.flatnonzero(row))

    def test_bad_test_fraction(self):
        with pytest.raises(ValueError):
            build_federated_dataset(_cfg(), 4, 20, 0, test_fraction=0.0)

    def test_unknown_partition(self):
        with pytest.raises(ValueError, match="unknown partition"):
            build_federated_dataset(_cfg(), 4, 20, 0, partition="nope")

    def test_dirichlet_partition_path(self):
        ds = build_federated_dataset(_cfg(), 6, 20, 0, partition="dirichlet", h=0.3)
        assert ds.num_clients == 6

    def test_reproducible(self):
        a = build_federated_dataset(_cfg(), 4, 20, seed=3)
        b = build_federated_dataset(_cfg(), 4, 20, seed=3)
        assert np.allclose(a.clients[0].x_train, b.clients[0].x_train)

    def test_different_seeds_differ(self):
        a = build_federated_dataset(_cfg(), 4, 20, seed=3)
        b = build_federated_dataset(_cfg(), 4, 20, seed=4)
        assert not np.allclose(a.clients[0].x_train[:2], b.clients[0].x_train[:2])


class TestRegistry:
    @pytest.mark.parametrize(
        "builder,classes",
        [
            (cifar10_like, 10),
            (speech_like, 35),
        ],
    )
    def test_builders(self, builder, classes):
        ds = builder(scale=0.004, seed=0)
        assert ds.num_classes == classes
        assert ds.num_clients >= 8

    def test_femnist_classes(self):
        ds = femnist_like(scale=0.003, seed=0)
        assert ds.num_classes == 62

    def test_openimage_reduced_classes_documented(self):
        ds = openimage_like(scale=0.0006, seed=0)
        assert ds.num_classes == 48  # substitution recorded in DESIGN.md

    def test_femnist_dirichlet_switch(self):
        ds = femnist_like(scale=0.003, seed=0, h=0.5)
        assert ds.name == "femnist_like"

    def test_image_flag_changes_shape(self):
        flat = cifar10_like(scale=0.08, seed=0, image=False)
        img = cifar10_like(scale=0.08, seed=0, image=True)
        assert len(flat.input_shape) == 1
        assert len(img.input_shape) == 3
