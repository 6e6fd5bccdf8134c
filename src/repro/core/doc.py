"""Degree-of-convergence tracking (paper Eq. 1).

The DoC at round *i* averages γ consecutive loss slopes, each computed with
a step of δ rounds::

    DoC = (1/γ) Σ_{j=i-γ+1..i} ( L(j-δ) - L(j) ) / δ

A *small* DoC means the moving training loss has flattened — the elbow of
the curve — which is FedTrans's cue that the current model suite has
matured enough to warm up a larger model (§4.1, "Identifying the right
time to transform").

The tracker is reset after every transformation so the γ+δ history
requirement naturally enforces a warm-up period for each new frontier
model.
"""

from __future__ import annotations

from ..stateful import Stateful

__all__ = ["DoCTracker"]


class DoCTracker(Stateful):
    """Accumulates per-round training losses and evaluates Eq. 1."""

    state_fields = {"losses": ("_losses", list[float])}

    def __init__(self, gamma: int, delta: int):
        if gamma < 1 or delta < 1:
            raise ValueError("gamma and delta must be >= 1")
        self.gamma = gamma
        self.delta = delta
        self._losses: list[float] = []

    def update(self, loss: float) -> None:
        """Record one round's (mean) training loss."""
        self._losses.append(float(loss))

    def reset(self) -> None:
        """Clear history (called after each model transformation)."""
        self._losses.clear()

    @property
    def history(self) -> list[float]:
        return list(self._losses)

    def ready(self) -> bool:
        """True once enough history exists for a full γ-slope window."""
        return len(self._losses) >= self.gamma + self.delta

    def value(self) -> float | None:
        """The DoC, or ``None`` until enough history has accumulated."""
        if not self.ready():
            return None
        L = self._losses
        n = len(L)
        total = 0.0
        for j in range(n - self.gamma, n):
            total += (L[j - self.delta] - L[j]) / self.delta
        return total / self.gamma

    def should_transform(self, beta: float) -> bool:
        """Eq. 1 trigger: DoC has fallen to or below the threshold β.

        A *negative* DoC (loss rising over the window) also triggers — the
        model is certainly not improving, which the elbow rule treats the
        same as a flat curve.
        """
        doc = self.value()
        return doc is not None and doc <= beta
