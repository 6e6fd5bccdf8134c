"""Cell-level tests: shapes, identity construction, transforms, narrowing."""

import numpy as np
import pytest

from repro.nn.cells import (
    ConvCell,
    ConvClassifierCell,
    DenseCell,
    FlatClassifierCell,
    ResidualConvCell,
    TokenClassifierCell,
    ViTCell,
    ViTStemCell,
    make_widen_mapping,
)

from test_cell_tables import MODELS  # the four zoo models, small


@pytest.mark.parametrize("transformed", [False, True], ids=["fresh", "widened+deepened"])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_role_tables_agree_with_live_tensors(name, transformed, rng):
    """Every cell kind's role table, against the tensors it describes."""
    model = MODELS[name](rng)
    if transformed:
        for cell in model.transformable_cells():
            model.widen_cell(cell.cell_id, 1.5, rng)
        model.deepen_after(model.transformable_cells()[0].cell_id, rng)
    for cell in model.cells:
        tensors = {**cell.params(), **cell.state()}
        widths = {
            "in": cell.in_dim,
            "out": cell.out_dim,
            "hidden": getattr(cell, "hidden_dim", None),
        }
        have = set()
        for key, roles in cell.axis_roles().items():
            assert len(roles) == tensors[key].ndim, (cell.cell_id, key)
            for axis, role in enumerate(roles):
                if role is not None:
                    assert tensors[key].shape[axis] == widths[role], (cell.cell_id, key, axis)
                    have.add(role)
        for role in sorted(set(widths) - have):
            # No role at all: the cell cannot be narrowed, whatever is asked.
            error = ValueError if have else NotImplementedError
            with pytest.raises(error, match=f"no {role}" if have else "cannot be narrowed"):
                cell.narrow(**{f"{role}_idx": np.arange(1)})


class TestWidenMapping:
    def test_keeps_originals_first(self, rng):
        wm = make_widen_mapping(4, 2.0, rng)
        assert np.array_equal(wm.mapping[:4], np.arange(4))
        assert wm.new_width == 8

    def test_counts(self, rng):
        wm = make_widen_mapping(3, 2.0, rng)
        assert wm.counts.sum() == wm.new_width
        assert np.all(wm.counts >= 1)

    def test_fractional_factor(self, rng):
        wm = make_widen_mapping(10, 1.1, rng)
        assert wm.new_width == 11

    def test_factor_must_exceed_one(self, rng):
        with pytest.raises(ValueError):
            make_widen_mapping(4, 1.0, rng)

    def test_always_grows(self, rng):
        wm = make_widen_mapping(1, 1.0001, rng)
        assert wm.new_width == 2

    def test_scale_for_consumer(self, rng):
        wm = make_widen_mapping(2, 2.0, rng)
        s = wm.scale_for_consumer()
        assert len(s) == 4
        # each new channel's divisor equals the multiplicity of its source
        for j, src in enumerate(wm.mapping):
            assert s[j] == wm.counts[src]


class TestConvCell:
    def test_forward_shape(self, rng):
        cell = ConvCell(3, 8, rng, pool="max")
        x = rng.normal(size=(2, 3, 8, 8))
        assert cell.forward(x).shape == (2, 8, 4, 4)

    def test_identity_cell_exact(self, rng):
        cell = ConvCell.identity(4)
        x = np.abs(rng.normal(size=(2, 4, 6, 6)))  # post-ReLU inputs
        assert np.allclose(cell.forward(x), x)

    def test_identity_has_bias_no_norm(self):
        cell = ConvCell.identity(3)
        assert cell.bn is None
        assert cell.conv.b is not None

    def test_bias_dropped_under_norm(self, rng):
        assert ConvCell(2, 3, rng, norm=True).conv.b is None
        assert ConvCell(2, 3, rng, norm=False).conv.b is not None

    def test_widen_output_duplicates(self, rng):
        cell = ConvCell(2, 4, rng)
        w_before = cell.conv.w.copy()
        wm = cell.widen_output(2.0, rng)
        assert cell.out_dim == 8
        assert np.allclose(cell.conv.w[:4], w_before)
        for j, src in enumerate(wm.mapping):
            assert np.allclose(cell.conv.w[j], w_before[src])

    def test_widen_duplicates_bn_rows(self, rng):
        cell = ConvCell(2, 4, rng)
        cell.bn.running_mean = rng.normal(size=4)
        rm = cell.bn.running_mean.copy()
        wm = cell.widen_output(2.0, rng)
        assert np.allclose(cell.bn.running_mean, rm[wm.mapping])

    def test_expand_input_divides(self, rng):
        producer = ConvCell(2, 4, rng)
        consumer = ConvCell(4, 3, rng)
        w_before = consumer.conv.w.copy()
        wm = producer.widen_output(2.0, rng)
        consumer.expand_input(wm)
        assert consumer.conv.w.shape[1] == 8
        scale = wm.scale_for_consumer()
        for j, src in enumerate(wm.mapping):
            assert np.allclose(consumer.conv.w[:, j], w_before[:, src] / scale[j])

    def test_narrow_leading(self, rng):
        cell = ConvCell(4, 8, rng)
        w = cell.conv.w.copy()
        cell.narrow(out_idx=np.arange(3), in_idx=np.arange(2))
        assert cell.conv.w.shape == (3, 2, 3, 3)
        assert np.allclose(cell.conv.w, w[:3, :2])

    def test_narrow_hidden_raises(self, rng):
        with pytest.raises(ValueError, match="no hidden"):
            ConvCell(2, 2, rng).narrow(hidden_idx=np.arange(1))

    def test_macs(self, rng):
        cell = ConvCell(2, 4, rng)
        m, shape = cell.macs((2, 8, 8))
        assert m == 8 * 8 * 4 * 2 * 9
        assert shape == (4, 8, 8)


class TestResidualConvCell:
    def test_forward_shape_and_grad(self, rng):
        cell = ResidualConvCell(3, 5, rng, hidden=4)
        x = rng.normal(size=(2, 3, 6, 6))
        y = cell.forward(x)
        assert y.shape == (2, 5, 6, 6)
        dx = cell.backward(rng.normal(size=y.shape))
        assert dx.shape == x.shape

    def test_identity_exact(self, rng):
        cell = ResidualConvCell.identity(4)
        x = np.abs(rng.normal(size=(2, 4, 5, 5)))
        assert np.allclose(cell.forward(x), x)

    def test_widen_internal_preserves_function(self, rng):
        cell = ResidualConvCell(3, 3, rng)
        x = rng.normal(size=(2, 3, 6, 6))
        before = cell.forward(x, train=False)
        cell.widen_internal(2.0, rng)
        after = cell.forward(x, train=False)
        assert cell.hidden_dim == 6
        assert np.allclose(before, after, atol=1e-10)

    def test_narrow_all_axes(self, rng):
        cell = ResidualConvCell(4, 6, rng, hidden=8)
        cell.narrow(out_idx=np.arange(3), in_idx=np.arange(2), hidden_idx=np.arange(4))
        assert cell.conv1.w.shape == (4, 2, 3, 3)
        assert cell.conv2.w.shape == (3, 4, 3, 3)
        assert cell.proj.w.shape == (3, 2, 1, 1)
        x = rng.normal(size=(1, 2, 4, 4))
        assert cell.forward(x).shape == (1, 3, 4, 4)

    def test_macs_includes_projection(self, rng):
        cell = ResidualConvCell(2, 2, rng)
        m, _ = cell.macs((2, 4, 4))
        conv = 4 * 4 * 2 * 2 * 9
        proj = 4 * 4 * 2 * 2 * 1
        assert m == 2 * conv + proj


class TestDenseCell:
    def test_identity_exact(self, rng):
        cell = DenseCell.identity(5)
        x = np.abs(rng.normal(size=(3, 5)))
        assert np.allclose(cell.forward(x), x)

    def test_widen_expand_pipeline(self, rng):
        a = DenseCell(4, 6, rng)
        b = DenseCell(6, 3, rng)
        x = rng.normal(size=(5, 4))
        before = b.forward(a.forward(x))
        wm = a.widen_output(2.0, rng)
        b.expand_input(wm)
        after = b.forward(a.forward(x))
        assert np.allclose(before, after, atol=1e-10)

    def test_narrow(self, rng):
        cell = DenseCell(6, 8, rng)
        cell.narrow(out_idx=np.arange(4), in_idx=np.arange(3))
        assert cell.fc.w.shape == (3, 4)

    def test_clone_preserves_id_and_independence(self, rng):
        cell = DenseCell(3, 3, rng)
        c2 = cell.clone()
        assert c2.cell_id == cell.cell_id
        c2.fc.w[0, 0] = 99.0
        assert cell.fc.w[0, 0] != 99.0


class TestViTCell:
    def test_forward_backward_shapes(self, rng):
        cell = ViTCell(8, 2, 16, rng)
        x = rng.normal(size=(2, 4, 8))
        y = cell.forward(x)
        assert y.shape == x.shape
        assert cell.backward(rng.normal(size=y.shape)).shape == x.shape

    def test_identity_exact(self, rng):
        cell = ViTCell.identity(8, 2, 16, rng)
        x = rng.normal(size=(2, 4, 8))
        assert np.allclose(cell.forward(x), x)

    def test_widen_internal_preserves(self, rng):
        cell = ViTCell(8, 2, 12, rng)
        x = rng.normal(size=(2, 4, 8))
        before = cell.forward(x)
        cell.widen_internal(2.0, rng)
        assert cell.hidden_dim == 24
        assert np.allclose(before, cell.forward(x), atol=1e-10)

    def test_narrow_hidden_only(self, rng):
        cell = ViTCell(8, 2, 16, rng)
        cell.narrow(hidden_idx=np.arange(8))
        assert cell.hidden_dim == 8
        with pytest.raises(ValueError):
            cell.narrow(out_idx=np.arange(4))


class TestClassifierCells:
    def test_conv_classifier(self, rng):
        cell = ConvClassifierCell(6, 4, rng)
        x = rng.normal(size=(3, 6, 4, 4))
        assert cell.forward(x).shape == (3, 4)

    def test_flat_classifier_narrow_in(self, rng):
        cell = FlatClassifierCell(8, 3, rng)
        cell.narrow(in_idx=np.arange(5))
        assert cell.head.w.shape == (5, 3)
        with pytest.raises(ValueError):
            cell.narrow(out_idx=np.arange(2))

    def test_token_classifier_backward(self, rng):
        cell = TokenClassifierCell(8, 3, rng)
        x = rng.normal(size=(2, 5, 8))
        y = cell.forward(x)
        dx = cell.backward(np.ones_like(y))
        assert dx.shape == x.shape
        # mean pooling spreads gradient uniformly over tokens
        assert np.allclose(dx[:, 0], dx[:, 4])

    def test_not_transformable(self, rng):
        for cell in (
            ConvClassifierCell(4, 2, rng),
            FlatClassifierCell(4, 2, rng),
            TokenClassifierCell(4, 2, rng),
        ):
            assert not cell.transformable


class TestViTStem:
    def test_tokens_shape(self, rng):
        stem = ViTStemCell(3, 8, 4, 16, rng)
        x = rng.normal(size=(2, 3, 8, 8))
        assert stem.forward(x).shape == (2, 4, 16)

    def test_not_transformable(self, rng):
        assert not ViTStemCell(1, 8, 4, 8, rng).transformable


class TestCellParams:
    def test_param_grad_keys_match(self, rng):
        for cell in (
            ConvCell(2, 3, rng),
            ResidualConvCell(2, 3, rng),
            DenseCell(4, 5, rng),
            ViTCell(8, 2, 12, rng),
        ):
            assert cell.params().keys() == cell.grads().keys()

    def test_num_params_positive(self, rng):
        cell = ConvCell(2, 3, rng)
        assert cell.num_params() == sum(v.size for v in cell.params().values())

    def test_unique_cell_ids(self, rng):
        a = ConvCell(2, 2, rng)
        b = ConvCell(2, 2, rng)
        assert a.cell_id != b.cell_id

    def test_inserted_origin(self):
        assert ConvCell.identity(3).origin == "inserted"
        assert DenseCell.identity(3).origin == "inserted"
