"""The snapshot protocol: coordinator-side publisher, worker-side reader.

:mod:`~repro.fl.shm` knows how one segment is laid out; this module knows
which segment is current and who holds it.  The process round executor
owns a :class:`SnapshotPublisher` and carries its ``(version, segment
name)`` — the ordinal of its real publishes, not a model property — to
the workers, which call :func:`worker_models`.

Shared-memory snapshot publishing
---------------------------------
A snapshot is one full segment.  :meth:`SnapshotPublisher.publish`
compares the suite with the current segment itself
(:func:`~repro.fl.shm.segment_holds`): a publish is reused exactly when the
segment holds the same model ids and specs and every tensor's bytes — even
when the caller passes freshly built models — and otherwise the whole
suite is written into a fresh segment and the previous one is unlinked.
Eq. 5's soft aggregation (and every baseline's) writes every model of the
suite each round, so a suite that moved is, in every measured run, a suite
whose models all moved.  Workers map the current segment once, rebuild the
suite around read-only views into it, and close their previous mapping.
Nothing has to announce a write: a model changed in place by any code
path is republished because its bytes are not the segment's.

Segments are owned by the coordinator process, through the publisher's
registry: the current segment is unlinked by the next real publish, by
:meth:`SnapshotPublisher.release` (executor ``close()``, and a pool heal —
dead workers hold no mappings worth preserving), and — as a crash
backstop — by a ``weakref.finalize`` hook at interpreter exit.
"""

from __future__ import annotations

import logging
import os
import secrets
import weakref

from ..nn.model import CellModel
from ..stateful import Stateful
from . import shm as _shm
from .faults import FaultPlan, InjectedShmFault, SnapshotChainError

__all__ = [
    "SnapshotPublisher",
    "worker_reset",
    "worker_models",
]


# ----------------------------------------------------------------------
# coordinator side: the publisher
# ----------------------------------------------------------------------
class SnapshotPublisher(Stateful):
    """Publishes a model suite as one shared-memory segment, numbered by
    :attr:`version`, the ordinal of its real publishes.

    The public ``*_count`` / ``*_bytes`` counters meter it for benchmarks
    and tests; byte counts are segment payload bytes (header + raw
    tensors).  ``fault_plan`` may fail a real publish once, before any
    state moves.
    """

    # The segment and meters are all rebuilt from the first post-resume
    # publish; persisting them would pin a checkpoint to
    # the process backend for no benefit.
    state_fields = {}

    def __init__(self, *, fault_plan: FaultPlan | None = None):
        self.version = 0
        # The current segment's name; None before the first publish.
        self.name: str | None = None
        # Owned shared-memory segments by name (the current one, at most);
        # the finalizer holds this dict (not self), so an abandoned
        # publisher still unlinks at exit.
        self.segments: dict = {}
        self._arena_prefix = f"repro-{os.getpid()}-{secrets.token_hex(4)}"
        self.finalizer = weakref.finalize(self, _shm.unlink_segments, self.segments)
        self._fault_plan = fault_plan
        self.publish_count = 0
        self.reused_publish_count = 0
        self.bytes_published_total = 0
        self.last_publish_bytes = 0

    def publish(
        self, models: dict[str, CellModel], fault_attempt: int = 0
    ) -> tuple[int, str]:
        """Publish the current suite; returns ``(version, segment name)``.

        When the current segment holds the suite's ids, specs and bytes it
        is reused outright, even for freshly built models (the async
        engine's many dispatch waves between aggregations, and repeated
        evaluations of an idle suite, publish nothing).  Otherwise the
        whole suite is written into a new segment and the previous one is
        unlinked (safe: the executor settles every future of a wave before
        the next publish, including on failure, so no worker is mid-attach
        between publishes, and workers' existing mappings survive the
        unlink)."""
        current = self.segments.get(self.name)
        if current is not None and _shm.segment_holds(current, models):
            self.reused_publish_count += 1
            return self.version, self.name
        # Deterministic publish fault: keyed on the ordinal of *real*
        # publishes (reuses never fault, and the counter only advances on
        # success), injected before any state mutates so the retry sees a
        # clean slate.  Attempt 0 only — the retry runs clean.
        if (
            self._fault_plan is not None
            and fault_attempt == 0
            and self._fault_plan.publish_fails(self.publish_count)
        ):
            raise InjectedShmFault(
                f"injected snapshot publish failure (publish ordinal {self.publish_count})"
            )
        self.version += 1
        self.name = f"{self._arena_prefix}-v{self.version}"
        seg, nbytes = _shm.write_snapshot_segment(self.name, "full", models)
        retired = dict(self.segments)
        self.segments.clear()
        self.segments[self.name] = seg
        self.publish_count += 1
        self.last_publish_bytes = nbytes
        self.bytes_published_total += nbytes
        # Last, with the new segment owned and the books closed: an old
        # segment that is already gone (external /dev/shm cleaner) is the
        # cleanup path's metered no-op, not a mid-publish exception.
        _shm.unlink_segments(retired)
        return self.version, self.name

    def release(self) -> None:
        """Unlink the owned segment and reset publish state (idempotent)."""
        _shm.unlink_segments(self.segments)
        self.name = None


# ----------------------------------------------------------------------
# worker side: the reader
# ----------------------------------------------------------------------
_LOG = logging.getLogger(__name__ + ".worker")

# This process's one mapping: the segment the cached suite's tensors view
# into.  Unlinking by the coordinator only removes the name; the mapping
# stays valid until this worker moves to a newer version and closes it.
_WORKER: dict = {"version": 0, "name": None, "segment": None, "models": None}


def worker_reset() -> None:
    """Forget every snapshot (pool initializer; published versions start at 1)."""
    _WORKER.update(version=0, name=None, segment=None, models=None)


def worker_models(version: int, name: str) -> dict[str, CellModel]:
    """Return the suite of snapshot ``version``, published as segment ``name``.

    A worker already at ``version`` returns its cached suite.  Otherwise it
    attaches the new segment, builds the suite around read-only views into
    it (zero-copy: the only per-tensor cost is the ndarray wrapper) and
    closes its previous mapping.
    """
    if _WORKER["version"] == version:
        return _WORKER["models"]
    try:
        seg = _shm.attach_segment(name)
    except FileNotFoundError:
        raise SnapshotChainError(
            f"shared-memory segment {name!r} does not exist; expected snapshot "
            f"(v{version}, {name!r}), worker has attached {_WORKER['name']!r} "
            f"(v{_WORKER['version']}). The coordinator unlinks a segment when "
            "it publishes the next one, on pool heal, and on close() — a stale "
            "future from before a pool rebuild hits exactly this."
        ) from None
    models = _shm.read_snapshot_segment(seg)
    old = _WORKER["segment"]
    _WORKER.update(version=version, name=name, segment=seg, models=models)
    if old is not None:
        try:
            old.close()
        except OSError as err:
            # A close() failure leaks one worker-side mapping until process
            # exit — worth a log line, never worth failing the job (the
            # segment itself is coordinator-owned and already retired).
            _LOG.warning("closing segment %r failed: %s", old.name, err)
    return models
