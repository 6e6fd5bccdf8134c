"""DoC tracker (Eq. 1) and cell-activeness tracker (§4.1)."""

import numpy as np
import pytest

from repro.core.activeness import ActivenessTracker, cell_gradient_norms
from repro.core.doc import DoCTracker
from repro.nn import mlp


class TestDoCTracker:
    def test_not_ready_before_window(self):
        doc = DoCTracker(gamma=3, delta=2)
        for loss in [5, 4, 3, 2]:
            doc.update(loss)
        assert not doc.ready()
        assert doc.value() is None

    def test_formula_matches_hand_computation(self):
        doc = DoCTracker(gamma=2, delta=2)
        losses = [10.0, 8.0, 7.0, 6.5, 6.3]
        for l in losses:
            doc.update(l)
        # j runs over the last gamma=2 positions: j=3, j=4
        expected = ((losses[1] - losses[3]) / 2 + (losses[2] - losses[4]) / 2) / 2
        assert doc.value() == pytest.approx(expected)

    def test_flat_curve_triggers(self):
        doc = DoCTracker(gamma=2, delta=2)
        for _ in range(10):
            doc.update(1.0)
        assert doc.should_transform(beta=0.003)

    def test_steep_curve_does_not_trigger(self):
        doc = DoCTracker(gamma=2, delta=2)
        for i in range(10):
            doc.update(10.0 - i)  # slope 1 per round
        assert not doc.should_transform(beta=0.003)

    def test_rising_loss_triggers(self):
        """Negative DoC (loss getting worse) also counts as 'not improving'."""
        doc = DoCTracker(gamma=2, delta=2)
        for i in range(10):
            doc.update(1.0 + 0.1 * i)
        assert doc.should_transform(beta=0.003)

    def test_reset_clears(self):
        doc = DoCTracker(gamma=2, delta=2)
        for _ in range(6):
            doc.update(1.0)
        doc.reset()
        assert not doc.ready()
        assert doc.history == []

    def test_bad_params(self):
        with pytest.raises(ValueError):
            DoCTracker(0, 2)
        with pytest.raises(ValueError):
            DoCTracker(2, 0)

    def test_state_round_trips_and_rejects_non_numbers(self):
        doc = DoCTracker(gamma=2, delta=2)
        for loss in (3.0, 2.5, float("nan"), 2):
            doc.update(loss)
        again = DoCTracker(gamma=2, delta=2)
        again.load_state_dict(doc.state_dict())
        assert str(again.history) == str(doc.history)
        for losses in (["nan", "inf", True], [1.0, None], [False], "1.0", (1.0,), {"a": 1.0}):
            with pytest.raises(ValueError, match="DoCTracker/"):
                again.load_state_dict({"schema": doc.schema, "losses": losses})
        assert str(again.history) == str(doc.history)  # a refused payload loads nothing

    def test_larger_beta_triggers_earlier(self):
        """Paper: 'a larger threshold will make FedTrans transform more
        frequently' — a slope that fails beta=0.01 passes beta=0.5."""
        doc = DoCTracker(gamma=2, delta=2)
        for i in range(10):
            doc.update(10.0 - 0.2 * i)  # DoC = 0.2
        assert not doc.should_transform(beta=0.01)
        assert doc.should_transform(beta=0.5)


class TestActiveness:
    def test_cell_gradient_norms(self, rng):
        m = mlp((6,), 3, rng, width=4)
        grad = {k: np.ones_like(v) for k, v in m.params().items()}
        norms = cell_gradient_norms(m, grad)
        assert set(norms) == {c.cell_id for c in m.cells}
        for cell in m.cells:
            g2 = sum(v.size for k, v in cell.params().items())
            w2 = sum(float((v**2).sum()) for v in cell.params().values())
            assert norms[cell.cell_id] == pytest.approx(np.sqrt(g2) / np.sqrt(w2))

    def test_missing_grad_keys_tolerated(self, rng):
        m = mlp((6,), 3, rng, width=4)
        norms = cell_gradient_norms(m, {})
        assert all(v == 0.0 for v in norms.values())

    def test_window_mean(self, rng):
        m = mlp((6,), 3, rng, width=4)
        tracker = ActivenessTracker(window=2)
        g1 = {k: np.ones_like(v) for k, v in m.params().items()}
        g2 = {k: np.zeros_like(v) for k, v in m.params().items()}
        tracker.update(m, g1)
        a1 = tracker.activeness(m)
        tracker.update(m, g2)
        a2 = tracker.activeness(m)
        for cid in a2:
            assert a2[cid] == pytest.approx(a1[cid] / 2)

    def test_window_evicts(self, rng):
        m = mlp((6,), 3, rng, width=4)
        tracker = ActivenessTracker(window=1)
        tracker.update(m, {k: np.ones_like(v) for k, v in m.params().items()})
        tracker.update(m, {k: np.zeros_like(v) for k, v in m.params().items()})
        assert all(v == 0.0 for v in tracker.activeness(m).values())

    def test_only_transformable_cells_reported(self, rng):
        m = mlp((6,), 3, rng, width=4)
        tracker = ActivenessTracker(window=3)
        tracker.update(m, {k: np.ones_like(v) for k, v in m.params().items()})
        act = tracker.activeness(m)
        assert set(act) == {c.cell_id for c in m.transformable_cells()}

    def test_ready_and_reset(self, rng):
        m = mlp((6,), 3, rng, width=4)
        tracker = ActivenessTracker(window=3)
        assert not tracker.ready()
        tracker.update(m, {k: np.ones_like(v) for k, v in m.params().items()})
        assert tracker.ready()
        tracker.reset()
        assert not tracker.ready()

    def test_bad_window(self):
        with pytest.raises(ValueError):
            ActivenessTracker(0)

    def test_state_round_trips_non_finite_norms(self, rng):
        """A NaN aggregate (a poisoned run without the quarantine gate)
        makes the norms NaN; the window resumes as it was."""
        m = mlp((6,), 3, rng, width=4)
        tracker = ActivenessTracker(window=2)
        tracker.update(m, {k: np.ones_like(v) for k, v in m.params().items()})
        tracker.update(m, {k: np.full_like(v, np.nan) for k, v in m.params().items()})
        again = ActivenessTracker(window=2)
        again.load_state_dict(tracker.state_dict())
        assert str(again.state_dict()) == str(tracker.state_dict())
        assert all(np.isnan(v) for v in again.activeness(m).values())

    def test_normalization_mitigates_scale(self, rng):
        """Activeness is scale-free: scaling weights and grads together
        leaves it unchanged (the gradient-vanishing mitigation)."""
        m = mlp((6,), 3, rng, width=4)
        grad = {k: rng.normal(size=v.shape) for k, v in m.params().items()}
        base = cell_gradient_norms(m, grad)
        for p in m.params().values():
            p *= 10.0
        scaled = cell_gradient_norms(m, {k: 10 * g for k, g in grad.items()})
        for cid in base:
            assert scaled[cid] == pytest.approx(base[cid])
