"""Stage spans recorded from outside the engine.

The harness wraps the public seams the round loop already calls —
instance attributes on the built coordinator and a few class-level
public methods created inside ``Coordinator.run()`` — so no file under
``src/`` changes.  Every call becomes a span ``(name, start, end, parent,
round)`` kept in memory; :meth:`Tracer.stage_table` turns them into
self-time-per-round numbers and :meth:`Tracer.chrome_trace` into
Chrome/Perfetto trace-event JSON.  In-program spans (``repro.obs``,
worker-side timings) are ROADMAP item 1; until then anything inside
``_run_round`` that is not one of these seams shows up as
``fl.coordinator.self`` and pool workers are invisible.
"""

from __future__ import annotations

import threading
import time

from repro.fl import BufferedAsyncEngine, CheckpointWriter, LocalTrainer
from repro.fl.scheduling import QuantilePacing

from metrics import STAGES

__all__ = ["RUN_SPAN", "Tracer"]

# The root span around ``Coordinator.run()``; its self time is the
# round-loop glue no seam covers (``fl.coordinator.self``).
RUN_SPAN = "fl.coordinator.run"

# (attribute path from the coordinator, method, span name, round source).
# Round source: True = the first argument is the round id; False = inherit
# the enclosing span's; "sync" = the first argument is the round id in
# sync mode but the dispatch-*wave* index in async mode, where the span
# inherits the enclosing ``step``'s round instead.
_INSTANCE_SEAMS = (
    ("selector", "select", "fl.scheduling.select", "sync"),
    ("selector", "observe_round", "fl.scheduling.observe", True),
    ("strategy", "assign", "core.strategy.assign", "sync"),
    ("strategy", "aggregate", "core.strategy.aggregate", True),
    ("strategy", "aggregate_buffered", "core.strategy.aggregate", True),
    ("strategy.client_manager", "update", "core.client_manager.update", False),
    ("strategy.aggregator", "aggregate", "core.aggregator.aggregate", False),
    ("strategy.transformer", "transform", "core.transformer.transform", False),
    ("executor", "train_round", "fl.executor.train_round", "sync"),
    ("executor", "eval_round", "fl.executor.eval_round", False),
    ("executor", "logits_round", "fl.executor.eval_round", False),
    ("executor", "eval_and_logits_round", "fl.executor.eval_round", False),
    ("transport", "encode_update", "fl.transport.encode_update", False),
    ("validator", "admit", "fl.faults.admit", False),
    ("", "evaluate", "fl.coordinator.evaluate", True),
)
_CLASS_SEAMS = (
    (LocalTrainer, "train", "fl.client.train", False),
    (BufferedAsyncEngine, "step", "fl.async_engine.step", True),
    (CheckpointWriter, "write", "fl.checkpoint.write", True),
    (QuantilePacing, "observe_arrival", "fl.scheduling.observe", False),
)


class Tracer:
    """Records one span per wrapped call; wrappers are removable."""

    def __init__(self) -> None:
        # (name, start, end, parent index, round id, thread id); ``end`` is
        # None while the call is still running.
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._undo: list[tuple[object, str, object, bool]] = []

    # ------------------------------------------------------------------
    def _wrap(self, owner, attr: str, name: str, round_arg: bool) -> None:
        on_class = isinstance(owner, type)
        inner = owner.__dict__[attr] if on_class else getattr(owner, attr)
        first = 1 if on_class else 0  # skip self on unbound functions
        spans, local = self.spans, self._local

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else -1
            if round_arg:
                round_id = int(args[first])
            else:
                round_id = spans[parent][4] if parent >= 0 else -1
            idx = len(spans)
            start = time.perf_counter()
            spans.append((name, start, None, parent, round_id, 0))
            stack.append(idx)
            try:
                return inner(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx] = (
                    name, start, time.perf_counter(), parent, round_id,
                    threading.get_ident(),
                )

        had_own = attr in vars(owner)
        setattr(owner, attr, traced)
        self._undo.append((owner, attr, inner, had_own))

    def instrument(self, coord) -> None:
        """Wrap every seam present on ``coord`` (absent layers are skipped)."""
        self._wrap(coord, "run", RUN_SPAN, False)
        sync = coord.config.mode == "sync"
        for path, attr, name, round_arg in _INSTANCE_SEAMS:
            if round_arg == "sync":
                round_arg = sync
            owner = coord
            for part in filter(None, path.split(".")):
                owner = getattr(owner, part, None)
            if owner is not None and hasattr(owner, attr):
                self._wrap(owner, attr, name, round_arg)
        for cls, attr, name, round_arg in _CLASS_SEAMS:
            self._wrap(cls, attr, name, round_arg)

    def remove(self) -> None:
        """Undo every wrapper (class attributes restored, instance ones deleted)."""
        for owner, attr, inner, had_own in reversed(self._undo):
            if had_own:
                setattr(owner, attr, inner)
            else:
                delattr(owner, attr)
        self._undo.clear()

    # ------------------------------------------------------------------
    def stage_table(self, rounds: int) -> dict[str, float]:
        """Self time and call count per stage per round, plus coverage.

        A span's self time is its duration minus its direct children's, so
        the stage rows and ``fl.coordinator.self`` add up to the traced
        run's wall time exactly.
        """
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0 and end is not None:
                child_time[parent] += end - start
        self_ms = dict.fromkeys((*STAGES, RUN_SPAN), 0.0)
        calls = dict.fromkeys((*STAGES, RUN_SPAN), 0)
        run_wall = 0.0
        for idx, (name, start, end, *_) in enumerate(self.spans):
            if end is None:
                continue
            self_ms[name] += (end - start - child_time[idx]) * 1e3
            calls[name] += 1
            if name == RUN_SPAN:
                run_wall += end - start
        out: dict[str, float] = {}
        for name in STAGES:
            out[f"{name}.ms_per_round"] = self_ms[name] / rounds
            out[f"{name}.calls_per_round"] = calls[name] / rounds
        out["fl.coordinator.self.ms_per_round"] = self_ms[RUN_SPAN] / rounds
        out["trace.coverage_frac"] = (
            1.0 - self_ms[RUN_SPAN] / (run_wall * 1e3) if run_wall else 0.0
        )
        return out

    def chrome_trace(self, process_name: str) -> dict:
        """Chrome trace-event JSON (open in https://ui.perfetto.dev)."""
        done = [s for s in self.spans if s[2] is not None]
        origin = min((s[1] for s in done), default=0.0)
        events = [
            {"name": "process_name", "ph": "M", "pid": 1, "args": {"name": process_name}}
        ]
        for name, start, end, parent, round_id, tid in done:
            events.append(
                {
                    "name": name,
                    "cat": name.rsplit(".", 1)[0],
                    "ph": "X",
                    "ts": (start - origin) * 1e6,
                    "dur": (end - start) * 1e6,
                    "pid": 1,
                    "tid": tid,
                    "args": {"round": round_id, "parent": parent},
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}
