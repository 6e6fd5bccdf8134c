"""Pacing policies: aggregation buffer size and per-client deadlines.

``static`` reproduces the pre-subsystem behavior exactly (constant
``buffer_k``, one global ``deadline_s``).  ``adaptive`` rescales the
buffer with the observed arrival rate, so the simulated time *per
aggregation step* stays near what the configured ``buffer_k`` cost when
the run began — a fleet that speeds up (stragglers dropped or downsized,
faster devices joining) buffers more per step instead of aggregating in a
frenzy, and a slowing fleet aggregates smaller batches instead of
stalling.  ``quantile`` replaces the single global deadline with
per-device-class deadlines estimated from each class's *own* completed
round times: slow devices get deadlines calibrated to slow-device
durations, so a class is trimmed of its outliers rather than condemned
wholesale by a deadline sized for fast hardware.
"""

from __future__ import annotations

from ...stateful import Finite
from ..types import FLClient
from .base import PacingPolicy
from .fleet import FleetStore

__all__ = ["StaticPacing", "AdaptivePacing", "QuantilePacing"]


class StaticPacing(PacingPolicy):
    """Constant ``buffer_k``, one global deadline — the default."""

    name = "static"

    def __init__(self, base_k: int, deadline_s: float | None, max_k: int):
        del max_k
        self.base_k = base_k
        self.deadline_s = deadline_s

    def buffer_k(self, step_idx: int) -> int:
        return self.base_k

    def deadline_for(self, client: FLClient) -> float | None:
        return self.deadline_s


class AdaptivePacing(PacingPolicy):
    """``buffer_k`` scaled by the observed (kept-)arrival rate.

    The first aggregation step runs at the configured ``base_k`` and
    calibrates a target step span ``base_k / rate_0``.  From then on
    ``buffer_k = clamp(round(rate_t * target_span), 1, max_k)`` where
    ``rate_t`` is an exponentially smoothed arrivals-per-simulated-second —
    i.e. the buffer grows exactly as fast as arrivals do.  Rates are
    measured from kept arrivals only (drops never fill the buffer).  All
    inputs are simulated-clock quantities, so the adaptation is as
    deterministic as the clock itself.
    """

    name = "adaptive"
    state_fields = {
        "rate": ("_rate", Finite | None),
        "target_span": ("_target_span", Finite | None),
        "last_arrival": ("_last_arrival", Finite | None),
    }

    def __init__(
        self,
        base_k: int,
        deadline_s: float | None,
        max_k: int,
        momentum: float = 0.3,
    ):
        if not 0.0 < momentum <= 1.0:
            raise ValueError("momentum must lie in (0, 1]")
        self.base_k = base_k
        self.deadline_s = deadline_s
        self.max_k = max(max_k, base_k)
        self.momentum = momentum
        self._rate: float | None = None  # EMA arrivals / simulated second
        self._target_span: float | None = None  # calibrated on first step
        self._last_arrival: float | None = None

    def buffer_k(self, step_idx: int) -> int:
        if self._rate is None or self._rate <= 0.0:
            return self.base_k
        if self._target_span is None:
            self._target_span = self.base_k / self._rate
        k = int(round(self._rate * self._target_span))
        return max(1, min(k, self.max_k))

    def deadline_for(self, client: FLClient) -> float | None:
        return self.deadline_s

    def observe_arrival(self, client_id, duration, now, dropped):
        if dropped:
            return
        if self._last_arrival is not None:
            gap = now - self._last_arrival
            if gap > 0.0:
                rate = 1.0 / gap
                m = self.momentum
                self._rate = rate if self._rate is None else (1 - m) * self._rate + m * rate
        self._last_arrival = now


class QuantilePacing(PacingPolicy):
    """Per-device-class deadline quantiles from completed round times.

    The engine's :class:`FleetStore` splits the fleet into
    ``fleet.num_classes`` equal-occupancy classes by device compute speed
    at construction (class membership never changes — it is hardware, not
    history).  Each class keeps a sliding window of the last
    ``fleet.stats.window`` true durations of its completed work items; once a
    class has seen ``min_samples`` of them, its deadline becomes
    ``quantile(window, q) * slack`` and is re-estimated every arrival —
    the bounded window keeps the per-arrival cost O(window) and lets the
    estimate track the suite as models grow, instead of averaging over a
    run's whole stale history.  Until then the class falls back to the
    global ``deadline_s`` (which may be ``None`` — no deadline while the
    evidence is thin, rather than a guess).  ``buffer_k`` stays static;
    combine with :class:`AdaptivePacing` ideas in a custom policy if both
    are wanted.

    The class column and the windows are the store's own
    (``fleet.classes``, ``fleet.stats`` — the
    :class:`~repro.fl.scheduling.fleet.RoundTimeStats` ring buffers, each
    with a sorted copy: one scatter write, one ``bisect`` delete and one
    ``insort`` per arrival, and an O(1) read of two order statistics per
    re-estimate, bit-identical to NumPy's ``quantile``); the policy keeps only
    the derived per-class deadlines.
    """

    name = "quantile"
    # Class membership is configuration (a pure function of the fleet) and
    # the sliding duration windows travel in the fleet store's payload; the
    # derived deadlines are the policy's own.
    state_fields = {"deadline": ("_deadline", list[Finite | None])}

    def __init__(
        self,
        base_k: int,
        deadline_s: float | None,
        max_k: int,
        fleet: FleetStore,
        q: float = 0.9,
        slack: float = 1.5,
        min_samples: int = 8,
    ):
        del max_k
        if not 0.0 < q <= 1.0:
            raise ValueError("q must lie in (0, 1]")
        if slack < 1.0:
            raise ValueError("slack must be >= 1 (a sub-1 slack drops the quantile itself)")
        if min_samples < 2:
            raise ValueError("min_samples must be >= 2")
        if fleet.stats.window < min_samples:
            raise ValueError("the fleet's round-time window must be >= min_samples")
        self.base_k = base_k
        self.deadline_s = deadline_s
        self.q = q
        self.slack = slack
        self.min_samples = min_samples
        self._fleet = fleet
        self._deadline: list[float | None] = [deadline_s] * fleet.num_classes

    def buffer_k(self, step_idx: int) -> int:
        return self.base_k

    def class_of(self, client_id: int) -> int:
        return self._fleet.class_of_id(client_id)

    def deadline_for(self, client: FLClient) -> float | None:
        return self._deadline[self.class_of(client.client_id)]

    def observe_arrival(self, client_id, duration, now, dropped):
        cls = self.class_of(client_id)
        stats = self._fleet.stats
        stats.observe(cls, float(duration))  # ring: oldest falls off
        if stats.count(cls) >= self.min_samples:
            self._deadline[cls] = stats.quantile(cls, self.q) * self.slack

    def deadline_quantiles(self) -> tuple[float, ...]:
        return tuple(d for d in self._deadline if d is not None)
