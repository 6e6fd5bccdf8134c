"""Attention blocks and the model zoo."""

import numpy as np
import pytest

from repro.nn.attention import MultiHeadSelfAttention, PatchEmbed
from repro.nn.gradcheck import max_relative_grad_error
from repro.nn.zoo import (
    complexity_ladder,
    mlp,
    reference_device_models,
    small_cnn,
    small_resnet,
    vit_tiny,
)


class TestMultiHeadAttention:
    def test_shape(self, rng):
        mha = MultiHeadSelfAttention(8, 2, rng)
        x = rng.normal(size=(2, 5, 8))
        assert mha.forward(x).shape == x.shape

    def test_heads_must_divide(self, rng):
        with pytest.raises(ValueError):
            MultiHeadSelfAttention(8, 3, rng)

    def test_gradcheck(self, rng):
        mha = MultiHeadSelfAttention(6, 2, rng)
        x = rng.normal(size=(2, 3, 6))
        target = rng.normal(size=(2, 3, 6))

        def loss_fn():
            return float((mha.forward(x) * target).sum())

        mha.zero_grad()
        mha.forward(x)
        mha.backward(target)
        assert max_relative_grad_error(loss_fn, mha.params(), mha.grads(), rng) < 1e-5

    def test_input_grad_numeric(self, rng):
        mha = MultiHeadSelfAttention(4, 2, rng)
        x = rng.normal(size=(1, 3, 4))
        target = rng.normal(size=(1, 3, 4))
        mha.forward(x)
        dx = mha.backward(target)
        eps = 1e-6
        for idx in [(0, 0, 0), (0, 2, 3)]:
            x2 = x.copy()
            x2[idx] += eps
            up = (mha.forward(x2) * target).sum()
            x2[idx] -= 2 * eps
            down = (mha.forward(x2) * target).sum()
            assert abs((up - down) / (2 * eps) - dx[idx]) < 1e-6

    def test_out_weight_grad_matches_einsum_oracle(self, rng):
        """The (sample, token) sums run as one GEMM; einsum is the oracle.
        ``dout`` is a transposed view, so the flattening has to copy."""
        mha = MultiHeadSelfAttention(6, 2, rng)
        x = rng.normal(size=(3, 4, 6))
        dout = rng.normal(size=(4, 3, 6)).transpose(1, 0, 2)
        mha.forward(x)
        ctx_flat = mha._cache[5]
        mha.backward(dout)
        assert np.allclose(mha.g_w_out, np.einsum("ntd,nte->de", ctx_flat, dout), atol=1e-12)

    def test_permutation_equivariance(self, rng):
        """Self-attention without masks commutes with token permutation
        once positional information is absent."""
        mha = MultiHeadSelfAttention(6, 2, rng)
        x = rng.normal(size=(1, 4, 6))
        perm = np.array([2, 0, 3, 1])
        out1 = mha.forward(x)[:, perm]
        out2 = mha.forward(x[:, perm])
        assert np.allclose(out1, out2, atol=1e-10)


class TestPatchEmbed:
    def test_token_count(self, rng):
        pe = PatchEmbed(3, 8, 4, 16, rng)
        x = rng.normal(size=(2, 3, 8, 8))
        assert pe.forward(x).shape == (2, 4, 16)

    def test_indivisible_patch_raises(self, rng):
        with pytest.raises(ValueError, match="divide"):
            PatchEmbed(3, 9, 4, 16, rng)

    def test_gradcheck(self, rng):
        pe = PatchEmbed(2, 4, 2, 6, rng)
        x = rng.normal(size=(2, 2, 4, 4))
        target = rng.normal(size=(2, 4, 6))

        def loss_fn():
            return float((pe.forward(x) * target).sum())

        pe.zero_grad()
        pe.forward(x)
        pe.backward(target)
        assert max_relative_grad_error(loss_fn, pe.params(), pe.grads(), rng) < 1e-5

    def test_weight_grad_matches_einsum_oracle(self, rng):
        pe = PatchEmbed(2, 4, 2, 6, rng)
        x = rng.normal(size=(3, 2, 4, 4))
        dout = rng.normal(size=(4, 3, 6)).transpose(1, 0, 2)
        pe.forward(x)
        pe.backward(dout)
        assert np.allclose(pe.g_w, np.einsum("ntf,ntd->fd", pe._cache, dout), atol=1e-12)

    def test_backward_input_shape(self, rng):
        pe = PatchEmbed(3, 8, 4, 16, rng)
        x = rng.normal(size=(2, 3, 8, 8))
        y = pe.forward(x)
        assert pe.backward(np.ones_like(y)).shape == x.shape


class TestZoo:
    def test_families_produce_valid_models(self, rng):
        models = [
            mlp((10,), 5, rng),
            small_cnn((3, 8, 8), 5, rng),
            small_resnet((1, 8, 8), 5, rng),
            vit_tiny((1, 8, 8), 5, rng, dim=8, heads=2, mlp_hidden=12, patch=4),
        ]
        for m in models:
            assert m.macs() > 0
            assert m.num_params() > 0

    def test_ladder_roughly_doubles(self, rng):
        ladder = complexity_ladder((16,), 4, rng, levels=6, base_width=8, kind="mlp")
        macs = [m.macs() for m in ladder]
        assert all(b > a for a, b in zip(macs, macs[1:]))
        ratios = [b / a for a, b in zip(macs, macs[1:])]
        # compound scaling: each level multiplies width by sqrt(2) => MACs ~2x
        assert all(1.3 < r < 3.0 for r in ratios)

    def test_ladder_cnn_kind_auto(self, rng):
        ladder = complexity_ladder((1, 8, 8), 4, rng, levels=3)
        assert ladder[0].input_shape == (1, 8, 8)

    def test_reference_models_strictly_ordered(self, rng):
        refs = reference_device_models((3, 8, 8), 10, rng)
        macs = [
            refs["mobilenet_v2_like"].macs(),
            refs["mobilenet_v3_like"].macs(),
            refs["efficientnet_b4_like"].macs(),
        ]
        assert macs[0] < macs[1] < macs[2]

    def test_vit_square_input_required(self, rng):
        with pytest.raises(ValueError, match="square"):
            vit_tiny((1, 8, 4), 5, rng)

    def test_stem_not_transformable(self, rng):
        for m in (
            mlp((6,), 3, rng),
            small_cnn((1, 8, 8), 3, rng),
            small_resnet((1, 8, 8), 3, rng),
        ):
            assert not m.cells[0].transformable
            assert not m.cells[-1].transformable
