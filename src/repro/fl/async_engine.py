"""Buffered-asynchronous round driver with pluggable scheduling policies.

Synchronous FL pays the straggler tax every round: the barrier waits for
the slowest participant (``round_time = max(client_times)``, the regime the
paper's Table 6 measures).  This engine removes the barrier the way FedBuff
(Nguyen et al.) does, over a simulated event clock, while running the same
round stages as the barrier (:mod:`~repro.fl.rounds` — the stage table
there says what each driver adds):

* A :class:`VirtualClock` orders ``(client, model)`` work completions by
  their ``device/latency.py``-derived finish times.  The *compute* still
  runs through the regular :class:`~repro.fl.executor.RoundExecutor`
  backends in deterministic dispatch waves — only the simulated timeline
  is asynchronous.
* The server keeps ``concurrency`` clients in flight (over-selection: more
  than ``buffer_k``) and fires :meth:`Strategy.aggregate_buffered` on the
  first ``buffer_k`` arrivals.  Updates dispatched against older server
  weights carry a staleness count; the default hook discounts them by
  ``staleness_discount ** staleness``.

Participation, cadence, and straggler handling are policies from
:mod:`~repro.fl.scheduling`, consulted at every dispatch wave:

* the **selector** picks each wave's clients from the not-in-flight pool;
* the **pacing policy** supplies the step's effective ``buffer_k`` and a
  per-client deadline (``static`` reproduces the old global knobs;
  ``adaptive`` rescales the buffer with the observed arrival rate;
  ``quantile`` estimates per-device-class deadlines from completed round
  times) and is fed every arrival's true duration;
* the **straggler policy** sees each dispatch *before* compute runs:
  ``drop`` leaves it alone — an arrival past its deadline is discarded
  with the wasted compute metered (``TrainingLog.dropped_updates`` /
  ``dropped_macs``; the dropped upload never lands, so ``bytes_up`` is not
  charged) — while ``downsize`` re-assigns a predicted-late client the
  largest *compatible smaller* model whose estimated round time fits the
  deadline, so the slot yields a usable update instead of a drop
  (``TrainingLog.downsized_updates``).

**Determinism contract** (same as the barrier): event ties break on
``(finish_time, dispatch_seq)``, every work item's RNG derives from
``SeedSequence(seed, spawn_key=(wave, client, sub))``, and selection /
assignment / aggregation consume the coordinator RNG in event order — so
async runs are bit-reproducible for a fixed seed across all executor
backends.  Each :class:`~repro.fl.types.RoundRecord` covers one buffered
aggregation step; its ``round_time`` is the simulated clock advance since
the previous step, so ``sum(round_time)`` is total simulated time in both
modes.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..stateful import Stateful, check_schema, record_from_state, record_state, schema_tag
from .rounds import RoundTally, admit, close_round, dispatch, encode, meter
from .scheduling import make_pacing, make_straggler
from .types import ArrivalRecord, ClientUpdate, RoundRecord, TrainingLog

if TYPE_CHECKING:
    from .coordinator import Coordinator

__all__ = ["VirtualClock", "BufferedAsyncEngine"]


class VirtualClock(Stateful):
    """A deterministic simulated-time event queue.

    Events are ``(time, dispatch_seq, payload)`` triples popped in
    lexicographic order — the ``dispatch_seq`` tie-break is what keeps runs
    bit-reproducible when two clients finish at the exact same simulated
    instant.  ``now`` only moves forward.
    """

    schema = schema_tag("VirtualClock")

    def __init__(self) -> None:
        self._events: list[tuple[float, int, "_Pending"]] = []
        self.now = 0.0

    def schedule(self, time: float, seq: int, payload: "_Pending") -> None:
        heapq.heappush(self._events, (time, seq, payload))

    def pop(self) -> tuple[float, int, "_Pending"]:
        """Advance to (and return) the next completion event."""
        if not self._events:
            raise RuntimeError("virtual clock has no scheduled events")
        time, seq, payload = heapq.heappop(self._events)
        self.now = max(self.now, time)
        return time, seq, payload

    def __len__(self) -> int:
        return len(self._events)

    def state_dict(self) -> dict:
        # Sorting is safe (and canonical): dispatch_seq is unique, so the
        # (time, seq) prefix always decides and payloads never compare.
        return {
            "schema": self.schema,
            "now": self.now,
            "events": [
                {"time": t, "seq": s, "pending": record_state(p)}
                for t, s, p in sorted(self._events, key=lambda e: (e[0], e[1]))
            ],
        }

    def load_state_dict(self, payload: dict) -> None:
        check_schema(payload, self.schema)
        self.now = float(payload["now"])
        self._events = [
            (float(e["time"]), int(e["seq"]), record_from_state(_Pending, e["pending"]))
            for e in payload["events"]
        ]
        heapq.heapify(self._events)


@dataclass
class _Pending:
    """One in-flight client: its precomputed updates await their finish time.

    Travels in the clock's checkpoint payload, tensor trees included (a
    resumed arrival must be the update the uninterrupted run would have
    received); the declaration below is its codec.
    """

    dispatch_seq: int
    client_id: int
    model_ids: tuple[str, ...]
    dispatch_time: float
    finish_time: float
    version: int  # server aggregation count at dispatch (staleness anchor)
    dropped: bool
    downsized: bool = False
    updates: list[ClientUpdate] = field(default_factory=list)


class BufferedAsyncEngine(Stateful):
    """FedBuff-style buffered aggregation over a simulated event clock.

    The coordinator (``ctx``) owns the outer loop and the collaborators;
    :meth:`step` replaces its barrier, keeping in-flight work alive across
    steps.  Costs are accounted when an arrival (or drop) event fires, so
    the ledger matches what the simulated server has seen at each
    aggregation.
    """

    def __init__(self, ctx: Coordinator):
        self.ctx = ctx
        config, clients = ctx.config, ctx.clients
        self.clock = VirtualClock()
        self.buffer_k = config.buffer_k or max(1, config.clients_per_round // 2)
        self.concurrency = min(
            config.async_concurrency or config.clients_per_round, len(clients)
        )
        self.pacing = make_pacing(
            config.pacing,
            base_k=self.buffer_k,
            deadline_s=config.deadline_s,
            max_k=self.concurrency,
            fleet=ctx.fleet,
        )
        self.straggler = make_straggler(config.straggler)
        self._dispatch_seq = 0
        self._wave = 0
        self._version = 0  # completed aggregation steps
        # One models dict per aggregation epoch: server models only mutate
        # in aggregate_buffered, so every wave in between reuses the same
        # dict.  (The process executor publishes by per-model version, so
        # those waves publish nothing and the publish after an aggregation
        # ships a delta of just the <= buffer_k models the step touched.)
        self._models_epoch: dict | None = None

    def _models(self) -> dict:
        if self._models_epoch is None:
            self._models_epoch = self.ctx.strategy.models()
        return self._models_epoch

    # ------------------------------------------------------------------
    def _fill_slots(self, tally: RoundTally) -> None:
        """Dispatch fresh work until ``concurrency`` clients are in flight.

        Each call is one *wave*: the selector and assignment draw from the
        coordinator RNG, the straggler policy gets a veto on predicted-late
        dispatches, then the whole wave trains against the current server
        models.  The wave index doubles as the executor's ``round_idx``, so
        every ``(wave, client, sub)`` work item gets a unique SeedSequence
        spawn key — a client is never dispatched twice in one wave because
        it stays in flight until its completion (or drop) event fires.
        """
        ctx = self.ctx
        need = self.concurrency - ctx.fleet.in_flight_count()
        if need <= 0:
            return
        # O(active) candidate pool: an exclusion view over the columnar
        # store (registration order, in-flight rows skipped; I12).
        available = ctx.fleet.available_view()
        if not len(available):
            return
        wave = self._wave
        self._wave += 1
        want = min(need, len(available))
        selected = ctx.selector.select(wave, available, want, ctx.rng)
        tally.requested += need
        tally.selected += len(selected)
        assignments = ctx.strategy.assign(wave, selected, ctx.rng)
        models = self._models()
        # Straggler policy: a predicted-late client may be re-assigned a
        # smaller compatible model before any compute is spent (one call per
        # wave, so the prescreen batches over the fleet's device columns).
        deadlines: dict[int, float | None] = {
            client.client_id: self.pacing.deadline_for(client) for client in selected
        }
        resolved = self.straggler.resolve_wave(
            selected,
            assignments,
            deadlines,
            models,
            ctx.config.trainer,
            ctx.strategy.compatible_models,
            fleet=ctx.fleet,
        )
        downsized_ids: set[int] = set()
        for client in selected:
            cid = client.client_id
            revised, downsized = resolved[cid]
            if downsized:
                mids = assignments[cid]
                assignments[cid] = revised
                downsized_ids.add(cid)
                tally.downsized += 1
                tally.events.append(
                    f"downsized client {cid}: {mids[0]} -> "
                    f"{revised[0]} to fit deadline {deadlines[cid]:g}s"
                )
        pairs, failures = dispatch(ctx, wave, selected, assignments, models)
        # A permanent failure releases the whole client: its partial
        # updates are discarded, it is never scheduled on the clock, and the
        # next wave may reselect it.
        failed_ids = {f.client_id for f in failures}
        pairs = [p for p in pairs if p[0].client_id not in failed_ids]
        # Encoded at *dispatch*: with ``wire_time`` the re-priced round_time
        # must be known before the finish event is scheduled below.
        encode(ctx, pairs, models)
        per_client: dict[int, list[ClientUpdate]] = {}
        for item, update in pairs:
            per_client.setdefault(item.client_id, []).append(update)
        for client in selected:
            if client.client_id in failed_ids:
                tally.events.append(
                    f"client {client.client_id} failed permanently in wave "
                    f"{wave}; slot released"
                )
                continue
            ups = per_client[client.client_id]
            # Sub-models train sequentially on-device (as in sync mode).
            duration = float(sum(u.round_time for u in ups))
            deadline = deadlines[client.client_id]
            dropped = deadline is not None and duration > deadline
            # The server stops waiting at the deadline; the straggler's own
            # finish time is recorded for the log either way.
            event_time = self.clock.now + (
                min(duration, deadline) if dropped else duration
            )
            seq = self._dispatch_seq
            self._dispatch_seq += 1
            ctx.fleet.mark_in_flight(client.client_id)
            self.clock.schedule(
                event_time,
                seq,
                _Pending(
                    dispatch_seq=seq,
                    client_id=client.client_id,
                    model_ids=tuple(assignments[client.client_id]),
                    dispatch_time=self.clock.now,
                    finish_time=self.clock.now + duration,
                    version=self._version,
                    dropped=dropped,
                    downsized=client.client_id in downsized_ids,
                    updates=ups,
                ),
            )

    # ------------------------------------------------------------------
    def step(self, step_idx: int, log: TrainingLog) -> RoundRecord:
        """Run one buffered aggregation step; returns its RoundRecord.

        Collects arrivals (dropping deadline violators) until the pacing
        policy's effective ``buffer_k`` usable updates are buffered, fires
        the strategy's staleness-aware aggregation, and meters every event
        — kept, dropped, or downsized — into the log's cost ledger.
        """
        ctx = self.ctx
        cfg = ctx.config
        t_start = self.clock.now
        effective_k = self.pacing.buffer_k(step_idx)
        tally = RoundTally(ctx.selector.offline_fallback_rounds)
        buffered: list[_Pending] = []
        arrivals: list[ArrivalRecord] = []
        # Spin guards: consecutive events that buffered nothing, one limit.
        empty_waves = 0
        consecutive_drops = 0
        consecutive_quarantines = 0
        drop_limit = max(64, 8 * self.concurrency)
        while len(buffered) < effective_k:
            self._fill_slots(tally)
            if not len(self.clock):
                # Every client of the wave failed permanently and nothing
                # else is in flight: dispatch again (fresh spawn keys).
                empty_waves += 1
                if empty_waves > drop_limit:
                    raise RuntimeError(
                        f"{empty_waves} dispatch waves in a row failed "
                        "permanently on every selected client, so nothing is "
                        f"in flight — the fault spec (faults={cfg.faults!r}) "
                        f"outruns the retry budget (retries={cfg.retries}); "
                        "lower the rates or raise retries"
                    )
                continue
            empty_waves = 0
            _, _, pending = self.clock.pop()
            ctx.fleet.clear_in_flight(pending.client_id)
            staleness = self._version - pending.version
            self.pacing.observe_arrival(
                pending.client_id,
                pending.finish_time - pending.dispatch_time,
                self.clock.now,
                pending.dropped,
            )
            # Charged before validation: a quarantined update still
            # crossed the network (a dropped one never uploaded).
            macs = meter(tally, pending.updates, uploaded=not pending.dropped)
            kept = (
                []
                if pending.dropped
                else admit(ctx, step_idx, pending.updates, log, tally.events)
            )
            # Landed, but every update failed validation: buffers nothing.
            quarantined = not pending.dropped and bool(pending.updates) and not kept
            arrivals.append(
                ArrivalRecord(
                    dispatch_seq=pending.dispatch_seq,
                    client_id=pending.client_id,
                    model_ids=pending.model_ids,
                    dispatch_time=pending.dispatch_time,
                    finish_time=pending.finish_time,
                    staleness=staleness,
                    dropped=pending.dropped,
                    downsized=pending.downsized,
                    quarantined=quarantined,
                )
            )
            if pending.dropped:
                log.dropped_updates += 1
                log.dropped_macs += macs
                consecutive_drops += 1
                if consecutive_drops > drop_limit:
                    which = (
                        f"per-class deadline quantiles {self.pacing.deadline_quantiles()}"
                        if cfg.pacing == "quantile"
                        else f"deadline_s={cfg.deadline_s}"
                    )
                    raise RuntimeError(
                        f"{which} dropped {consecutive_drops} arrivals in a row "
                        "— no client can finish inside its deadline; raise it "
                        "(or use the downsize straggler policy)"
                    )
                continue
            consecutive_drops = 0
            if quarantined:
                consecutive_quarantines += 1
                if consecutive_quarantines > drop_limit:
                    raise RuntimeError(
                        f"quarantine rejected {consecutive_quarantines} whole "
                        "arrivals in a row — every client's updates are "
                        "failing validation; check the fault spec or widen "
                        "quarantine_norm_mult"
                    )
                continue
            consecutive_quarantines = 0
            pending.updates = kept
            buffered.append(pending)

        updates = [u for p in buffered for u in p.updates]
        staleness_per_update = [
            self._version - p.version for p in buffered for _ in p.updates
        ]
        events = ctx.strategy.aggregate_buffered(
            step_idx,
            updates,
            staleness_per_update,
            ctx.rng,
            cfg.staleness_discount,
        )
        self._version += 1
        self._models_epoch = None  # server models changed; next wave re-snapshots
        events = list(events or []) + tally.events
        dropped_here = sum(1 for a in arrivals if a.dropped)
        if dropped_here:
            # Only quantile pacing has per-class deadlines; static and
            # adaptive both hold every client to the one global deadline_s.
            deadline_desc = (
                "their per-class deadlines"
                if cfg.pacing == "quantile"
                else f"deadline {cfg.deadline_s}s"
            )
            events.append(
                f"dropped {dropped_here} straggler arrival(s) past {deadline_desc}"
            )
        return close_round(
            ctx, step_idx, log, tally, updates,
            participants=[p.client_id for p in buffered],
            assignments={p.client_id: list(p.model_ids) for p in buffered},
            round_time=float(self.clock.now - t_start),
            num_models=len(ctx.strategy.models()),
            events=events,
            arrivals=arrivals,
            effective_buffer_k=effective_k,
            deadline_s=cfg.deadline_s,
            deadline_quantiles=self.pacing.deadline_quantiles(),
            dropped=dropped_here,
        )

    # ------------------------------------------------------------------
    # durability (Stateful)
    # ------------------------------------------------------------------
    schema = schema_tag("BufferedAsyncEngine")

    def state_dict(self) -> dict:
        """Everything live between two :meth:`step` calls.

        Checkpoints are taken at the wave-drain barrier (between steps):
        what must survive is the in-flight work — the clock's pending
        events carry each dispatched client's precomputed update tensors —
        plus the counters that anchor staleness, wave seeding, and
        dispatch-order tie-breaks.  The selector belongs to the
        coordinator's payload; pacing and straggler policies are ours.
        """
        return {
            "schema": self.schema,
            "clock": self.clock.state_dict(),
            "in_flight": self.ctx.fleet.in_flight_ids(),
            "dispatch_seq": self._dispatch_seq,
            "wave": self._wave,
            "version": self._version,
            "pacing": self.pacing.state_dict(),
            "straggler": self.straggler.state_dict(),
        }

    def load_state_dict(self, payload: dict) -> None:
        check_schema(payload, self.schema)
        self.clock.load_state_dict(payload["clock"])
        self.ctx.fleet.set_in_flight_ids(payload["in_flight"])
        self._dispatch_seq = int(payload["dispatch_seq"])
        self._wave = int(payload["wave"])
        self._version = int(payload["version"])
        self.pacing.load_state_dict(payload["pacing"])
        self.straggler.load_state_dict(payload["straggler"])
        self._models_epoch = None
