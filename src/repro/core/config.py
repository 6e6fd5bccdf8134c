"""FedTrans configuration (paper Table 7 + §5.1 defaults).

Every knob the paper names has a field here; the ablation benches sweep
them (β → Fig. 10a, γ → Fig. 10b, widen/deepen degrees → Fig. 11, α →
Fig. 12) and the Table 3 component breakdown toggles the feature flags.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["FedTransConfig", "PAPER_DEFAULTS"]


@dataclass(frozen=True)
class FedTransConfig:
    """All FedTrans hyperparameters.

    Attributes
    ----------
    alpha:
        Cell-activeness selection threshold — cells whose activeness exceeds
        ``alpha * max(activeness)`` are transformed (§4.1, default 0.9).
    beta:
        Degree-of-convergence threshold; transformation triggers when
        ``DoC <= beta`` (default 0.003).
    gamma:
        Number of consecutive loss slopes averaged by the DoC (default 10).
    delta:
        Step size (in rounds) of each loss slope (paper Table 7: 20-100
        depending on dataset; scaled-down profiles use smaller values).
    eta:
        Decay base of cross-model soft aggregation, ``η^t`` (default 0.98).
    activeness_window:
        ``T``, rounds of gradients averaged into cell activeness (default 5).
    widen_factor:
        Width multiplier of a widen operation (default 2; Fig. 11 sweeps it).
    widen_noise:
        Relative noise on duplicated channels during widening (``dup``
        mode).  Pure Net2Net duplication leaves new channels in exact
        gradient symmetry with their sources (they would never diverge, and
        the widened model would keep its parent's effective capacity);
        Net2Net's standard fix is a small symmetry-breaking noise.
        Expressed as a fraction of the widened tensor's standard deviation.
    widen_mode:
        ``"zero"`` (default) grows fresh random channels behind zeroed
        outgoing weights — exactly function-preserving with immediately
        trainable new capacity.  ``"dup"`` is the paper's stated random-
        column duplication; at reduced simulation scale duplicated twins
        separate too slowly for capacity to materialize (DESIGN.md §2
        records this deviation), so duplication is kept as the faithful
        alternative rather than the default.
    deepen_cells:
        Identity cells inserted per deepen operation (default 1).
    max_models:
        Safety cap on the model-suite size (memory bound for simulation).
    utility_decay:
        Per-participation exponential forgetting of a client's utilities
        (Client Manager).  1.0 disables; without decay/clamp utilities grow
        without bound and the Eq. 3 softmax degenerates to a one-hot.
    utility_clamp:
        Hard bound on ``|utility|`` so assignment probabilities stay
        non-degenerate (worst-case softmax gap is ``2 * clamp``).  0.0
        disables.
    evict_after:
        Rounds of inactivity before a client's row is evicted from the
        Client Manager's utility table (memory proportional to the
        *active* fleet; an evicted client rehydrates as a fresh one).
        ``None`` (default) disables eviction — the dense legacy behavior.
    min_rounds_between_transforms:
        Extra cooldown after a transformation; the DoC history reset already
        enforces ``gamma + delta`` rounds, this only adds to it.

    Feature flags (Table 3 breakdown / Table 1):

    * ``gradient_cell_selection`` — 'l': activeness-ranked cell choice; when
      off, one uniformly random transformable cell is picked.
    * ``soft_aggregation`` — 's': cross-model weight sharing (Eq. 5); when
      off, models aggregate independently (within-model FedAvg only).
    * ``warmup`` — 'w': function-preserving weight inheritance; when off,
      new models are re-initialized from scratch.
    * ``decay`` — 'd': the η^t factor; when off, cross-model contributions
      never fade.
    * ``share_l2s`` — Table 1: when True, larger (newer) models also write
      into smaller ones during soft aggregation; the paper shows this hurts
      and defaults it off.
    * ``strict_eq5`` — keep Eq. 5's literal (un-decayed) denominator rather
      than a proper weighted mean; see DESIGN.md §2 for why the default
      deviates.
    """

    alpha: float = 0.9
    beta: float = 0.003
    gamma: int = 10
    delta: int = 30
    eta: float = 0.98
    activeness_window: int = 5
    widen_factor: float = 2.0
    widen_noise: float = 0.05
    widen_mode: str = "zero"
    deepen_cells: int = 1
    max_models: int = 8
    min_rounds_between_transforms: int = 0
    utility_decay: float = 0.99
    utility_clamp: float = 5.0
    evict_after: int | None = None
    gradient_cell_selection: bool = True
    soft_aggregation: bool = True
    warmup: bool = True
    decay: bool = True
    share_l2s: bool = False
    strict_eq5: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if self.gamma < 1 or self.delta < 1:
            raise ValueError("gamma and delta must be >= 1")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError("eta must lie in [0, 1]")
        if self.widen_factor <= 1.0:
            raise ValueError("widen_factor must exceed 1")
        if self.widen_noise < 0:
            raise ValueError("widen_noise must be non-negative")
        if self.deepen_cells < 1:
            raise ValueError("deepen_cells must be >= 1")
        if self.max_models < 1:
            raise ValueError("max_models must be >= 1")
        if not 0.0 < self.utility_decay <= 1.0:
            raise ValueError("utility_decay must lie in (0, 1]")
        if self.utility_clamp < 0.0:
            raise ValueError("utility_clamp must be non-negative (0 disables)")
        if self.evict_after is not None and self.evict_after < 1:
            raise ValueError("evict_after must be >= 1 (None disables eviction)")

    def scaled(self, **overrides) -> "FedTransConfig":
        """A copy with fields replaced (bench profiles shrink γ/δ)."""
        return replace(self, **overrides)


#: The exact values Table 7 reports for the paper-scale runs.
PAPER_DEFAULTS = FedTransConfig()
