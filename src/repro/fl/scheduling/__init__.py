"""Pluggable scheduling subsystem: selection, pacing, straggler policies.

Three policy seams (see :mod:`~repro.fl.scheduling.base`) plus two stores:
the columnar :class:`~repro.fl.scheduling.fleet.FleetStore` (structure-of-
arrays fleet state — ids, device classes, utilities, round-time windows —
that makes a scheduler tick O(active) at million-client registration) is
the one home of scheduler state, and its
:class:`~repro.fl.scheduling.fleet.FleetView` the one pool type selectors
draw from; the sparse :class:`~repro.fl.scheduling.store.ClientStateStore`
holds per-client *strategy* state (``store.py`` says why that is not a
fleet column).  Policies are resolved by name through the
``make_*`` factories below, which is what ``CoordinatorConfig.selector`` /
``pacing`` / ``straggler`` feed; availability churn models
(:mod:`~repro.fl.scheduling.availability`) ride the ``availability``
selector, parsed from the ``availability_trace`` spec by the config.
"""

from __future__ import annotations

from .availability import (
    AvailabilityModel,
    BernoulliAvailability,
    DiurnalAvailability,
    TraceAvailability,
    parse_availability,
)
from .base import ClientSelector, PacingPolicy, StragglerPolicy, estimate_round_time
from .fleet import FleetStore, FleetView, RoundTimeStats, positions_to_rows
from .pacing import AdaptivePacing, QuantilePacing, StaticPacing
from .selectors import (
    AvailabilityAwareSelector,
    OortSelector,
    UniformSelector,
    uniform_choice,
)
from .store import ClientStateStore
from .straggler import DownsizePolicy, DropPolicy

__all__ = [
    "ClientSelector",
    "PacingPolicy",
    "StragglerPolicy",
    "estimate_round_time",
    "UniformSelector",
    "AvailabilityAwareSelector",
    "OortSelector",
    "uniform_choice",
    "StaticPacing",
    "AdaptivePacing",
    "QuantilePacing",
    "DropPolicy",
    "DownsizePolicy",
    "ClientStateStore",
    "FleetStore",
    "FleetView",
    "RoundTimeStats",
    "positions_to_rows",
    "AvailabilityModel",
    "BernoulliAvailability",
    "DiurnalAvailability",
    "TraceAvailability",
    "parse_availability",
    "SELECTOR_POLICIES",
    "PACING_POLICIES",
    "STRAGGLER_POLICIES",
    "make_selector",
    "make_pacing",
    "make_straggler",
]

SELECTOR_POLICIES = ("uniform", "availability", "oort")
PACING_POLICIES = ("static", "adaptive", "quantile")
STRAGGLER_POLICIES = ("drop", "downsize")

_SELECTORS = {
    "uniform": UniformSelector,
    "availability": AvailabilityAwareSelector,
    "oort": OortSelector,
}
_PACING = {
    "static": StaticPacing,
    "adaptive": AdaptivePacing,
    "quantile": QuantilePacing,
}
_STRAGGLERS = {
    "drop": DropPolicy,
    "downsize": DownsizePolicy,
}


def make_selector(
    name: str, seed: int = 0, availability_model: AvailabilityModel | None = None
) -> ClientSelector:
    """Instantiate a client selector by policy name.

    ``availability_model`` is the parsed churn model the ``availability``
    selector draws its online rates from (``CoordinatorConfig`` pairs the
    two; ``None`` keeps that selector's flat Bernoulli rate).
    """
    try:
        cls = _SELECTORS[name]
    except KeyError:
        raise ValueError(
            f"unknown selector {name!r}; choose from {SELECTOR_POLICIES}"
        ) from None
    if availability_model is not None:
        return cls(seed=seed, model=availability_model)
    return cls(seed=seed)


def make_pacing(
    name: str,
    base_k: int,
    deadline_s: float | None,
    max_k: int,
    fleet: FleetStore,
) -> PacingPolicy:
    """Instantiate a pacing policy by name.

    ``base_k`` is the resolved static buffer size (config or its
    clients_per_round-derived default), ``max_k`` the in-flight concurrency
    (the adaptive buffer never outgrows what can arrive), and ``fleet`` the
    engine's columnar store, whose class column and round-time ring buffers
    quantile pacing estimates its per-class deadlines from.
    """
    try:
        cls = _PACING[name]
    except KeyError:
        raise ValueError(
            f"unknown pacing policy {name!r}; choose from {PACING_POLICIES}"
        ) from None
    if cls is QuantilePacing:
        return cls(base_k, deadline_s, max_k, fleet)
    return cls(base_k, deadline_s, max_k)


def make_straggler(name: str) -> StragglerPolicy:
    """Instantiate a straggler policy by name."""
    try:
        cls = _STRAGGLERS[name]
    except KeyError:
        raise ValueError(
            f"unknown straggler policy {name!r}; choose from {STRAGGLER_POLICIES}"
        ) from None
    return cls()
