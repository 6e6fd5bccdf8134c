"""The round stages shared by the sync barrier and the buffered-async engine.

The paper's Algorithm 1 is one loop — select → assign → local train →
soft-aggregate (Eq. 5) → transform.  Its glue is written once, here;
``Coordinator._barrier_round`` and ``BufferedAsyncEngine.step`` are drivers
that keep only what a barrier and an event queue genuinely disagree on.

=========  ===================  ========================  ==========================  =======================
stage      function             sync driver               async driver                invariant carried
=========  ===================  ========================  ==========================  =======================
select     ``selector.select``  whole ``fleet.view()``    ``fleet.available_view()``  I12 registration-order
                                                          per wave + straggler veto   views
dispatch   :func:`dispatch`     the round's one wave      at flush: every wave        I1 item-order results;
                                                          deferred since the last     I10 infrastructure
                                                          (faults: each wave's end)   faults cost zero time
failures   (driver)             drops the failed item     releases the whole client
encode     :func:`encode`       one codec call after      one codec call per flush,   I11 encode, then meter,
                                dispatch                  in dispatch order: finish   then quarantine
                                                          events need the wire-time
                                                          price
meter      :func:`meter`        all survivors at once     per arrival; a dropped one  I11 ``bytes_up`` is the
                                                          is not charged its upload   on-wire size
admit      :func:`admit`        all survivors at once     per landed arrival          I10 clean runs untouched
aggregate  (driver)             ``strategy.aggregate``    ``aggregate_buffered``      I1 one RNG, event order
close      :func:`close_round`  ``round_time`` = slowest  ``round_time`` = clock      I12 eviction metered
                                participant               advance; pacing fields      once per round
=========  ===================  ========================  ==========================  =======================

Every stage takes ``ctx`` — the coordinator — and looks its collaborators
up *at call time*, so an executor, codec or validator swapped or
instrumented after construction is the one that runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .executor import TrainItem
from .faults import ItemFailure
from .types import (
    ArrivalRecord,
    ClientUpdate,
    FaultRecord,
    RoundRecord,
    SchedulerRecord,
    TrainingLog,
)

if TYPE_CHECKING:
    from .coordinator import Coordinator

__all__ = ["RoundTally", "dispatch", "encode", "meter", "admit", "close_round"]


@dataclass
class RoundTally:
    """One round's running counts and costs, opened before selection.

    ``fallback_before`` is the selector's offline-fallback meter at open
    (:func:`close_round` reports the round's delta against it);
    ``requested``/``selected`` sum over the round's waves; ``events`` are
    the stage-emitted log lines the driver orders into the record.
    """

    fallback_before: int
    requested: int = 0
    selected: int = 0
    downsized: int = 0
    macs: float = 0.0
    bytes_down: int = 0
    bytes_up: int = 0
    raw_bytes_up: int = 0
    events: list[str] = field(default_factory=list)


def dispatch(
    ctx: Coordinator,
    work: list[tuple[int, int, list[str]]],
    models: dict,
) -> tuple[list[tuple[TrainItem, ClientUpdate]], list[ItemFailure]]:
    """Train every ``(client, assigned model)`` pair of one or more waves.

    ``work`` lists ``(index, client_id, model_ids)`` in dispatch order;
    ``index`` — the round (sync) or dispatch wave (async) — seeds each work
    item's ``SeedSequence`` spawn key ``(index, client, sub)``, so items of
    several waves train in one ``train_round`` call and stack into shared
    cohorts.  Returns the completed ``(item, update)`` pairs in item order
    and the permanent failures (retry budget exhausted), which are never
    charged any cost.
    """
    items = [
        TrainItem(model_id, client_id, sub_idx, index)
        for index, client_id, model_ids in work
        for sub_idx, model_id in enumerate(model_ids)
    ]
    results = ctx.executor.train_round(work[0][0], items, models)
    pairs, failures = [], []
    for item, result in zip(items, results):
        if isinstance(result, ItemFailure):
            failures.append(result)
        else:
            pairs.append((item, result))
    return pairs, failures


def encode(
    ctx: Coordinator, pairs: list[tuple[TrainItem, ClientUpdate]], models: dict
) -> None:
    """Re-encode the surviving updates, in place, as they cross the wire.

    One codec call per flush (the sync round's survivors, or an async
    flush's), against the models the waves trained on (the server may
    aggregate before an async arrival lands) and in item order, so
    error-feedback residuals advance identically on every backend.  Runs
    before metering (``bytes_up`` becomes the on-wire size; ``wire_time``
    re-prices the upload leg of ``round_time``) and before quarantine
    (poisoned tensors pass through the codec raw, so the NaN scan still
    sees them).
    """
    codec = ctx.transport
    if codec is None or not codec.config.has_update or not pairs:
        return
    clients = ctx.executor.clients_by_id
    codec.encode_update(
        [update for _, update in pairs],
        [models.get(item.model_id) for item, _ in pairs],
        device=[clients[item.client_id].device for item, _ in pairs],
        wire_time=ctx.config.wire_time,
    )


def meter(
    tally: RoundTally, updates: list[ClientUpdate], *, uploaded: bool = True
) -> float:
    """Charge ``updates`` to the round; returns the MACs they spent.

    A quarantined update is charged in full (the device trained and the
    upload landed — only aggregation ignores it); an arrival dropped at its
    deadline (``uploaded=False``) is not charged the upload it never made.
    """
    macs = float(sum(u.macs_spent for u in updates))
    tally.macs += macs
    tally.bytes_down += sum(u.bytes_down for u in updates)
    if uploaded:
        tally.bytes_up += sum(u.bytes_up for u in updates)
        tally.raw_bytes_up += sum(u.raw_bytes_up for u in updates)
    return macs


def admit(
    ctx: Coordinator,
    round_idx: int,
    updates: list[ClientUpdate],
    log: TrainingLog,
    events: list[str],
) -> list[ClientUpdate]:
    """Validate each update; rejects go to the ledger, survivors return.

    Order-preserving and side-effect-free on a clean round: the validator's
    running stats advance exactly as in any clean run — which is why
    quarantine-on and quarantine-off clean runs are bit-identical.
    """
    if ctx.validator is None:
        return updates
    kept = []
    for update in updates:
        reason = ctx.validator.admit(update)
        if reason is None:
            kept.append(update)
            continue
        log.quarantined_updates += 1
        log.faults.append(
            FaultRecord(
                round_idx=round_idx,
                kind="update_rejected",
                action="quarantined",
                client_id=update.client_id,
                model_id=update.model_id,
                detail=reason,
            )
        )
        events.append(f"quarantined update: {reason}")
    return kept


def close_round(
    ctx: Coordinator,
    round_idx: int,
    log: TrainingLog,
    tally: RoundTally,
    updates: list[ClientUpdate],
    *,
    participants: list[int],
    assignments: dict[int, list[str]],
    round_time: float,
    num_models: int,
    events: list[str],
    arrivals: list[ArrivalRecord] | None = None,
    **pacing_fields,
) -> RoundRecord:
    """Feed the aggregated ``updates`` back, book the tally, build the record.

    ``pacing_fields`` are the async-only :class:`SchedulerRecord` fields
    (effective ``buffer_k``, deadlines, dropped count).
    """
    cfg = ctx.config
    ctx.selector.observe_round(round_idx, updates)
    log.total_macs += tally.macs
    log.total_bytes_down += tally.bytes_down
    log.total_bytes_up += tally.bytes_up
    log.total_raw_bytes_up += tally.raw_bytes_up
    log.downsized_updates += tally.downsized
    # Fleet-store utility eviction joins the strategy-side count in one
    # meter; both are 0 unless evict_after is configured.
    evicted = ctx.strategy.drain_evicted() + ctx.fleet.advance(round_idx)
    log.evicted_clients += evicted
    return RoundRecord(
        round_idx=round_idx,
        participants=participants,
        assignments=assignments,
        mean_loss=float(np.mean([u.train_loss for u in updates])) if updates else 0.0,
        macs=tally.macs,
        bytes_down=tally.bytes_down,
        bytes_up=tally.bytes_up,
        raw_bytes_up=tally.raw_bytes_up,
        round_time=round_time,
        num_models=num_models,
        events=events,
        arrivals=arrivals or [],
        scheduler=SchedulerRecord(
            selector=cfg.selector,
            pacing=cfg.pacing,
            straggler=cfg.straggler,
            requested=tally.requested,
            selected=tally.selected,
            downsized=tally.downsized,
            evicted=evicted,
            offline_fallback_rounds=(
                ctx.selector.offline_fallback_rounds - tally.fallback_before
            ),
            **pacing_fields,
        ),
    )
