"""Operations on parameter trees (``dict[str, np.ndarray]``).

Models expose their weights as flat string-keyed dictionaries; federated
aggregation works on them through copy, difference, scaling and the weighted
average below.  All functions return new trees and never mutate their inputs.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

import numpy as np

from .compute import accum_dtype

ParamTree = dict[str, np.ndarray]

__all__ = ["ParamTree", "tree_copy", "tree_sub", "tree_scale", "tree_average"]


def tree_copy(tree: Mapping[str, np.ndarray]) -> ParamTree:
    """Deep-copy a parameter tree."""
    return {k: v.copy() for k, v in tree.items()}


def _check_keys(a: Mapping[str, np.ndarray], b: Mapping[str, np.ndarray]) -> None:
    if a.keys() != b.keys():
        missing = set(a) ^ set(b)
        raise KeyError(f"parameter trees differ on keys: {sorted(missing)[:8]}")


def tree_sub(a: Mapping[str, np.ndarray], b: Mapping[str, np.ndarray]) -> ParamTree:
    """Elementwise ``a - b``."""
    _check_keys(a, b)
    return {k: a[k] - b[k] for k in a}


def tree_scale(a: Mapping[str, np.ndarray], s: float) -> ParamTree:
    """Elementwise ``s * a``."""
    return {k: v * s for k, v in a.items()}


def tree_average(
    trees: Iterable[Mapping[str, np.ndarray]],
    weights: Iterable[float] | None = None,
) -> ParamTree:
    """Weighted average of parameter trees.

    Weights are normalized internally; with no weights, the plain mean is
    returned.  Raises on an empty input.

    Accumulation is in place: one output tree plus one scratch tensor per
    key, not a fresh intermediate tree per contributor.  Each contributor
    adds ``weight * value`` in input order, so the result is bit-identical
    to the chained ``out = out + w_i * tree_i`` form.
    """
    trees = list(trees)
    if not trees:
        raise ValueError("cannot average zero parameter trees")
    if weights is None:
        w = np.ones(len(trees))
    else:
        w = np.asarray(list(weights), dtype=accum_dtype())
        if len(w) != len(trees):
            raise ValueError("weights length must match number of trees")
        if np.any(w < 0):
            raise ValueError("aggregation weights must be non-negative")
    total = w.sum()
    if total <= 0:
        raise ValueError("aggregation weights sum to zero")
    w = w / total
    out = tree_scale(trees[0], float(w[0]))
    scratch: dict[str, np.ndarray] = {}
    for wi, tree in zip(w[1:], trees[1:]):
        _check_keys(out, tree)
        alpha = float(wi)
        for k, acc in out.items():
            s = scratch.get(k)
            if s is None:
                s = scratch[k] = np.empty_like(acc)
            # alpha * x == x * alpha; acc += t == acc + t elementwise.
            np.multiply(tree[k], alpha, out=s)
            acc += s
    return out

