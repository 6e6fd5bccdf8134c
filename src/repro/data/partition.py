"""Label-distribution partitioners for federated datasets.

A partitioner decides *how many samples of each class* every client holds.
The output is always an integer matrix of shape ``(num_clients,
num_classes)`` whose row sums equal the requested per-client sample counts.

Two schemes cover the paper's setups:

* :func:`dirichlet_partition` — per-client class mix drawn from
  ``Dirichlet(h)``; lower ``h`` means higher heterogeneity.  This is the
  knob swept in Fig. 13 and the CIFAR-10 partition of §5.1.
* :func:`natural_partition` — the "realistic partition" analogue: strongly
  skewed class mixes (low-concentration Dirichlet) plus log-normal
  per-client sample counts, mirroring FEMNIST/OpenImage's organic imbalance.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "dirichlet_partition",
    "natural_partition",
    "lognormal_sample_counts",
]


def lognormal_sample_counts(
    num_clients: int,
    mean_samples: float,
    rng: np.random.Generator,
    sigma: float = 0.6,
    minimum: int = 8,
) -> np.ndarray:
    """Per-client sample counts with realistic long-tailed imbalance."""
    if mean_samples <= 0:
        raise ValueError("mean_samples must be positive")
    mu = np.log(mean_samples) - 0.5 * sigma**2  # so E[count] == mean_samples
    counts = rng.lognormal(mu, sigma, num_clients)
    return np.maximum(counts.round().astype(int), minimum)


def _counts_from_probs(
    probs: np.ndarray, totals: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Multinomial draw per client: probabilities -> integer class counts."""
    out = np.zeros(probs.shape, dtype=int)
    for i, (p, n) in enumerate(zip(probs, totals)):
        out[i] = rng.multinomial(int(n), p)
    return out


def dirichlet_partition(
    num_clients: int,
    num_classes: int,
    h: float,
    samples_per_client: np.ndarray | int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Dirichlet(h) label partition (paper Fig. 13; Diao et al. setup).

    ``h`` is the concentration parameter the paper calls the *data
    heterogeneity level*: lower ``h`` concentrates each client on fewer
    classes.
    """
    if h <= 0:
        raise ValueError("Dirichlet concentration h must be positive")
    totals = (
        np.full(num_clients, samples_per_client, dtype=int)
        if np.isscalar(samples_per_client)
        else np.asarray(samples_per_client, dtype=int)
    )
    probs = rng.dirichlet(np.full(num_classes, h), size=num_clients)
    return _counts_from_probs(probs, totals, rng)


def natural_partition(
    num_clients: int,
    num_classes: int,
    mean_samples: float,
    rng: np.random.Generator,
    concentration: float = 0.5,
    sigma: float = 0.6,
) -> np.ndarray:
    """Organic non-IID partition: skewed classes + long-tailed sizes."""
    totals = lognormal_sample_counts(num_clients, mean_samples, rng, sigma=sigma)
    probs = rng.dirichlet(np.full(num_classes, concentration), size=num_clients)
    return _counts_from_probs(probs, totals, rng)

