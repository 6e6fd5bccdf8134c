"""CellModel tests: chaining, params, transforms, lineage, cost accounting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import mlp, small_cnn, small_resnet, vit_tiny
from repro.nn.cells import ConvCell, DenseCell, FlatClassifierCell
from repro.nn.model import CellModel


def _flat_model(rng, width=8, depth=2, classes=4, features=6):
    return mlp((features,), classes, rng, width=width, depth=depth)


class TestConstruction:
    def test_interface_mismatch_raises(self, rng):
        conv = ConvCell(3, 4, rng)
        dense = DenseCell(4, 4, rng)
        with pytest.raises(ValueError, match="interface mismatch"):
            CellModel([conv, dense], (3, 8, 8), 4)

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="at least one"):
            CellModel([], (4,), 2)

    def test_bad_output_dim_raises(self, rng):
        cells = [DenseCell(4, 8, rng), FlatClassifierCell(8, 3, rng)]
        with pytest.raises(ValueError, match="expected"):
            CellModel(cells, (4,), 5)  # classifier emits 3, not 5

    def test_unique_model_ids(self, rng):
        a = _flat_model(rng)
        b = _flat_model(rng)
        assert a.model_id != b.model_id


class TestParams:
    def test_keys_prefixed_by_cell_id(self, rng):
        m = _flat_model(rng)
        for key in m.params():
            cell_id = key.split("/")[0]
            assert any(c.cell_id == cell_id for c in m.cells)

    def test_set_params_roundtrip(self, rng):
        m = _flat_model(rng)
        snap = m.get_params()
        for p in m.params().values():
            p += 1.0
        m.set_params(snap)
        assert all(np.allclose(m.params()[k], snap[k]) for k in snap)

    def test_set_params_strict_missing_key(self, rng):
        m = _flat_model(rng)
        with pytest.raises(KeyError):
            m.set_params({"nope/w": np.zeros(2)})

    def test_set_params_shape_mismatch(self, rng):
        m = _flat_model(rng)
        bad = {k: np.zeros(np.asarray(v.shape) + 1) for k, v in m.get_params().items()}
        with pytest.raises(ValueError, match="shape mismatch"):
            m.set_params(bad)

    def test_zero_grad(self, rng):
        m = _flat_model(rng)
        x = rng.normal(size=(4, 6))
        y = rng.integers(0, 4, 4)
        m.loss_and_grad(x, y)
        assert any(np.abs(g).sum() > 0 for g in m.grads().values())
        m.zero_grad()
        assert all(np.abs(g).sum() == 0 for g in m.grads().values())

    def test_nbytes_matches_params(self, rng):
        m = _flat_model(rng)
        assert m.nbytes() == sum(v.nbytes for v in m.params().values())


class TestExecution:
    def test_predict_batches_consistent(self, rng):
        m = _flat_model(rng)
        x = rng.normal(size=(20, 6))
        assert np.allclose(m.predict(x, batch_size=7), m.predict(x, batch_size=64))

    def test_evaluate_returns_loss_acc(self, rng):
        m = _flat_model(rng)
        x = rng.normal(size=(10, 6))
        y = rng.integers(0, 4, 10)
        loss, acc = m.evaluate(x, y)
        assert loss > 0
        assert 0.0 <= acc <= 1.0

    def test_training_reduces_loss(self, rng):
        from repro.nn.optim import SGD

        m = _flat_model(rng, width=16)
        x = rng.normal(size=(32, 6))
        y = (x[:, 0] > 0).astype(int)
        opt = SGD(0.1)
        first = None
        for _ in range(60):
            m.zero_grad()
            loss = m.loss_and_grad(x, y)
            first = first or loss
            opt.step(m.params(), m.grads())
        assert loss < first * 0.5


class TestTransforms:
    @pytest.mark.parametrize(
        "maker,shape",
        [
            (lambda r: mlp((6,), 4, r, width=8), (6,)),
            (lambda r: small_cnn((1, 8, 8), 4, r, width=4), (1, 8, 8)),
            (lambda r: small_resnet((1, 8, 8), 4, r, width=4), (1, 8, 8)),
            (
                lambda r: vit_tiny((1, 8, 8), 4, r, dim=8, heads=2, mlp_hidden=12, patch=4),
                (1, 8, 8),
            ),
        ],
    )
    def test_widen_preserves_function(self, maker, shape, rng):
        m = maker(rng)
        x = rng.normal(size=(4,) + shape)
        before = m.predict(x)
        for cell in m.transformable_cells():
            m.widen_cell(cell.cell_id, 2.0, rng)
        assert np.allclose(before, m.predict(x), atol=1e-8)

    @pytest.mark.parametrize(
        "maker,shape",
        [
            (lambda r: mlp((6,), 4, r, width=8), (6,)),
            (lambda r: small_cnn((1, 8, 8), 4, r, width=4), (1, 8, 8)),
            (lambda r: small_resnet((1, 8, 8), 4, r, width=4), (1, 8, 8)),
            (
                lambda r: vit_tiny((1, 8, 8), 4, r, dim=8, heads=2, mlp_hidden=12, patch=4),
                (1, 8, 8),
            ),
        ],
    )
    def test_deepen_preserves_function(self, maker, shape, rng):
        m = maker(rng)
        x = rng.normal(size=(4,) + shape)
        before = m.predict(x)
        anchor = m.transformable_cells()[0]
        m.deepen_after(anchor.cell_id, rng, count=2)
        assert np.allclose(before, m.predict(x), atol=1e-8)

    def test_widen_increases_macs(self, rng):
        m = _flat_model(rng)
        before = m.macs()
        m.widen_cell(m.transformable_cells()[0].cell_id, 2.0, rng)
        assert m.macs() > before

    def test_widen_records_history(self, rng):
        m = _flat_model(rng)
        cid = m.transformable_cells()[0].cell_id
        m.widen_cell(cid, 2.0, rng, round_idx=7)
        rec = m.history[-1]
        assert rec.op == "widen"
        assert rec.cell_id == cid
        assert rec.round == 7

    def test_deepen_inserts_after_anchor(self, rng):
        m = _flat_model(rng)
        cid = m.transformable_cells()[0].cell_id
        idx = m.cell_index(cid)
        inserted = m.deepen_after(cid, rng)
        assert m.cells[idx + 1].cell_id == inserted[0]
        assert m.cells[idx + 1].origin == "inserted"

    def test_deepen_marks_last_op(self, rng):
        m = _flat_model(rng)
        cell = m.transformable_cells()[0]
        m.deepen_after(cell.cell_id, rng)
        assert cell.last_op == "deepen"

    def test_widen_marks_last_op_and_count(self, rng):
        m = _flat_model(rng)
        cell = m.transformable_cells()[0]
        m.widen_cell(cell.cell_id, 2.0, rng)
        assert cell.last_op == "widen"
        assert cell.widen_count == 1

    def test_widen_untransformable_raises(self, rng):
        m = _flat_model(rng)
        stem = m.cells[0]
        assert not stem.transformable
        with pytest.raises(ValueError, match="not transformable"):
            m.widen_cell(stem.cell_id, 2.0, rng)

    def test_widen_unknown_cell_raises(self, rng):
        m = _flat_model(rng)
        with pytest.raises(KeyError):
            m.widen_cell("nope", 2.0, rng)

    def test_widened_model_trains(self, rng):
        """After a widen, gradients still flow and shapes stay consistent."""
        from repro.nn.optim import SGD

        m = _flat_model(rng)
        m.widen_cell(m.transformable_cells()[0].cell_id, 2.0, rng)
        x = rng.normal(size=(8, 6))
        y = rng.integers(0, 4, 8)
        opt = SGD(0.05)
        m.zero_grad()
        m.loss_and_grad(x, y)
        opt.step(m.params(), m.grads())


class TestClone:
    def test_clone_new_id_same_cells(self, rng):
        m = _flat_model(rng)
        c = m.clone()
        assert c.model_id != m.model_id
        assert c.parent_id == m.model_id
        assert [a.cell_id for a in c.cells] == [a.cell_id for a in m.cells]

    def test_clone_keep_id(self, rng):
        m = _flat_model(rng)
        c = m.clone(keep_id=True)
        assert c.model_id == m.model_id

    def test_clone_weight_independence(self, rng):
        m = _flat_model(rng)
        c = m.clone()
        next(iter(c.params().values()))[...] = 123.0
        assert not np.allclose(next(iter(m.params().values())), 123.0)

    def test_clone_birth_round(self, rng):
        m = _flat_model(rng)
        c = m.clone(birth_round=9)
        assert c.birth_round == 9


class TestCostAccounting:
    def test_mlp_macs_formula(self, rng):
        m = mlp((6,), 4, rng, width=8, depth=2)
        # 6*8 + 8*8 + 8*4
        assert m.macs() == 48 + 64 + 32

    def test_train_macs_3x(self, rng):
        m = _flat_model(rng)
        assert m.train_macs_per_sample() == 3 * m.macs()

    def test_cell_macs_sums_to_total(self, rng):
        m = small_cnn((1, 8, 8), 4, rng, width=4)
        total, shape = 0, m.input_shape
        for cell in m.cells:
            macs, shape = cell.macs(shape)
            total += macs
        assert shape == (4,)
        assert total == m.macs()

    def test_summary_contains_cells(self, rng):
        m = _flat_model(rng)
        s = m.summary()
        for cell in m.cells:
            assert cell.cell_id in s


@given(
    seed=st.integers(0, 1000),
    width=st.integers(2, 10),
    depth=st.integers(1, 3),
    factor=st.sampled_from([1.5, 2.0, 3.0]),
)
@settings(max_examples=25, deadline=None)
def test_property_widen_any_cell_preserves_function(seed, width, depth, factor):
    """Function preservation holds for every cell, width, depth, factor."""
    rng = np.random.default_rng(seed)
    m = mlp((5,), 3, rng, width=width, depth=depth)
    x = rng.normal(size=(6, 5))
    before = m.predict(x)
    cells = m.transformable_cells()
    target = cells[seed % len(cells)] if cells else None
    if target is None:
        return
    m.widen_cell(target.cell_id, factor, rng)
    assert np.allclose(before, m.predict(x), atol=1e-8)


@given(seed=st.integers(0, 1000), n_ops=st.integers(1, 5))
@settings(max_examples=20, deadline=None)
def test_property_random_transform_sequences_preserve_function(seed, n_ops):
    """Arbitrary interleavings of widen/deepen keep the function intact."""
    rng = np.random.default_rng(seed)
    m = mlp((5,), 3, rng, width=6, depth=2)
    x = rng.normal(size=(5, 5))
    before = m.predict(x)
    for _ in range(n_ops):
        cells = m.transformable_cells()
        cell = cells[int(rng.integers(0, len(cells)))]
        if rng.random() < 0.5:
            m.widen_cell(cell.cell_id, 2.0, rng)
        else:
            m.deepen_after(cell.cell_id, rng)
    assert np.allclose(before, m.predict(x), atol=1e-7)
