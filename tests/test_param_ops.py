"""Parameter-tree algebra, including hypothesis property tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import param_ops as P


def _tree(rng, keys=("a", "b"), shape=(3, 2)):
    return {k: rng.normal(size=shape) for k in keys}


class TestBasicOps:
    def test_copy_is_deep(self, rng):
        t = _tree(rng)
        c = P.tree_copy(t)
        c["a"][0, 0] = 99.0
        assert t["a"][0, 0] != 99.0

    def test_add_sub_roundtrip(self, rng):
        a, b = _tree(rng), _tree(rng)
        total = P.tree_sub(a, P.tree_scale(b, -1.0))
        back = P.tree_sub(total, b)
        for k in a:
            np.testing.assert_array_equal(total[k], a[k] + b[k])
            np.testing.assert_allclose(back[k], a[k], rtol=0, atol=1e-12)

    def test_key_mismatch_raises(self, rng):
        with pytest.raises(KeyError):
            P.tree_sub(_tree(rng, keys=("a",)), _tree(rng, keys=("b",)))

    def test_key_mismatch_names_the_keys(self, rng):
        with pytest.raises(KeyError, match=r"\['b', 'c'\]"):
            P.tree_sub(_tree(rng, keys=("a", "b")), _tree(rng, keys=("a", "c")))

    def test_scale(self, rng):
        a = _tree(rng)
        s = P.tree_scale(a, 2.0)
        assert np.allclose(s["a"], 2 * a["a"])

    def test_sub_self_is_zero(self, rng):
        a = _tree(rng)
        assert not any(v.any() for v in P.tree_sub(a, a).values())

    def test_inputs_not_mutated(self, rng):
        a, b = _tree(rng), _tree(rng)
        a0, b0 = P.tree_copy(a), P.tree_copy(b)
        P.tree_sub(a, b)
        P.tree_scale(a, 3.0)
        for k in a:
            np.testing.assert_array_equal(a[k], a0[k])
            np.testing.assert_array_equal(b[k], b0[k])


class TestAverage:
    def test_plain_mean(self, rng):
        a, b = _tree(rng), _tree(rng)
        avg = P.tree_average([a, b])
        assert np.allclose(avg["a"], (a["a"] + b["a"]) / 2)

    def test_weighted(self, rng):
        a, b = _tree(rng), _tree(rng)
        avg = P.tree_average([a, b], [3.0, 1.0])
        assert np.allclose(avg["a"], 0.75 * a["a"] + 0.25 * b["a"])

    def test_weights_normalized(self, rng):
        a, b = _tree(rng), _tree(rng)
        two, five = P.tree_average([a, b], [2, 2]), P.tree_average([a, b], [5, 5])
        for k in a:
            np.testing.assert_array_equal(two[k], five[k])

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="zero"):
            P.tree_average([])

    def test_negative_weight_raises(self, rng):
        with pytest.raises(ValueError, match="non-negative"):
            P.tree_average([_tree(rng)], [-1.0])

    def test_zero_total_raises(self, rng):
        with pytest.raises(ValueError, match="zero"):
            P.tree_average([_tree(rng)], [0.0])

    def test_single_tree_identity(self, rng):
        a = _tree(rng)
        avg = P.tree_average([a])
        for k in a:
            np.testing.assert_array_equal(avg[k], a[k])

    def test_weights_length_mismatch_raises(self, rng):
        with pytest.raises(ValueError, match="length"):
            P.tree_average([_tree(rng), _tree(rng)], [1.0])

    def test_key_mismatch_raises(self, rng):
        with pytest.raises(KeyError):
            P.tree_average([_tree(rng, keys=("a",)), _tree(rng, keys=("b",))])

    def test_inputs_not_mutated(self, rng):
        """Accumulation is in place, but into a fresh tree, never an input."""
        trees = [_tree(rng) for _ in range(3)]
        before = [P.tree_copy(t) for t in trees]
        P.tree_average(trees, [1.0, 2.0, 3.0])
        for t, t0 in zip(trees, before):
            for k in t:
                np.testing.assert_array_equal(t[k], t0[k])

    def test_bit_identical_to_chained_form(self, rng):
        trees = [_tree(rng) for _ in range(4)]
        weights = [0.3, 1.7, 2.0, 0.5]
        w = np.asarray(weights, dtype=np.float64)
        w = w / w.sum()
        chained = {k: v * float(w[0]) for k, v in trees[0].items()}
        for wi, t in zip(w[1:], trees[1:]):
            chained = {k: chained[k] + t[k] * float(wi) for k in chained}
        avg = P.tree_average(trees, weights)
        for k in chained:
            np.testing.assert_array_equal(avg[k], chained[k])

    def test_accepts_generators(self, rng):
        trees = [_tree(rng) for _ in range(3)]
        listed = P.tree_average(trees, [1.0, 2.0, 3.0])
        streamed = P.tree_average((t for t in trees), (w for w in [1.0, 2.0, 3.0]))
        for k in listed:
            np.testing.assert_array_equal(streamed[k], listed[k])


@st.composite
def tree_pair(draw):
    n_keys = draw(st.integers(1, 4))
    keys = [f"k{i}" for i in range(n_keys)]
    shapes = [
        tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
        for _ in range(n_keys)
    ]
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    a = {k: rng.normal(size=s) for k, s in zip(keys, shapes)}
    b = {k: rng.normal(size=s) for k, s in zip(keys, shapes)}
    return a, b


class TestProperties:
    @given(tree_pair())
    @settings(max_examples=30, deadline=None)
    def test_average_between_extremes(self, pair):
        a, b = pair
        avg = P.tree_average([a, b])
        for k in a:
            lo = np.minimum(a[k], b[k])
            hi = np.maximum(a[k], b[k])
            assert np.all(avg[k] >= lo - 1e-12)
            assert np.all(avg[k] <= hi + 1e-12)

    @given(tree_pair())
    @settings(max_examples=30, deadline=None)
    def test_sub_anticommutes(self, pair):
        a, b = pair
        ab, ba = P.tree_sub(a, b), P.tree_sub(b, a)
        for k in a:
            np.testing.assert_array_equal(ab[k], -ba[k])

    @given(tree_pair(), st.floats(-4.0, 4.0))
    @settings(max_examples=30, deadline=None)
    def test_scale_distributes_over_sub(self, pair, s):
        a, b = pair
        lhs = P.tree_scale(P.tree_sub(a, b), s)
        rhs = P.tree_sub(P.tree_scale(a, s), P.tree_scale(b, s))
        for k in a:
            np.testing.assert_allclose(lhs[k], rhs[k], rtol=1e-12, atol=1e-12)

    @given(tree_pair(), st.lists(st.floats(0.1, 10.0), min_size=1, max_size=5))
    @settings(max_examples=30, deadline=None)
    def test_average_of_copies_is_identity(self, pair, weights):
        a, _ = pair
        avg = P.tree_average([a] * len(weights), weights)
        for k in a:
            np.testing.assert_allclose(avg[k], a[k], rtol=1e-12, atol=1e-12)

    @given(tree_pair(), st.floats(0.1, 10.0), st.floats(0.1, 10.0))
    @settings(max_examples=30, deadline=None)
    def test_average_is_order_free(self, pair, wa, wb):
        a, b = pair
        ab = P.tree_average([a, b], [wa, wb])
        ba = P.tree_average([b, a], [wb, wa])
        for k in a:
            np.testing.assert_array_equal(ab[k], ba[k])
