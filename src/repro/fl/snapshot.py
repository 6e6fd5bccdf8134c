"""The snapshot chain protocol: coordinator-side publisher, worker-side reader.

:mod:`~repro.fl.shm` knows how one segment is laid out; this module knows
which segments exist, in what order, and who holds them.  The process
round executor owns a :class:`SnapshotPublisher` and carries its
``(version, chain)`` to the workers, which call :func:`worker_models`.

Shared-memory delta snapshot publishing
---------------------------------------
The process backend publishes *deltas* into a shared-memory arena:
:meth:`SnapshotPublisher.publish` compares each model's
:attr:`~repro.nn.model.CellModel.version` against the versions it last
published and writes only the changed (or new) models' tensors into a
fresh segment (:mod:`~repro.fl.shm`), plus the removed ids in its header.
Workers patch their cached suite by replaying the segment chain from
whatever snapshot version they last loaded, mapping each model's tensors
as read-only views into the shared buffer; a full snapshot re-compacts the
chain every ``FULL_SNAPSHOT_EVERY`` deltas (and on first publish) so the
chain a lagging worker must replay stays short, and workers drop their
older mappings when they rebase onto it.  A publish where *no* version
changed reuses the current snapshot outright — even when the caller passes
a freshly built dict.  This is what keeps the buffered-async engine cheap:
each aggregation step touches at most ``buffer_k`` models, so each publish
ships ``buffer_k`` models, not the whole suite.  The contract is the model
version counter: any code that mutates a model outside
``set_params``/``set_state``/transformations must call ``bump_version()``
or workers will train against stale weights.

Segments are owned by the coordinator process, through the publisher's
registry: the chain's segments are unlinked on compaction, on
:meth:`SnapshotPublisher.release` (executor ``close()``, and a pool heal —
dead workers hold no mappings worth preserving), and — as a crash
backstop — by a ``weakref.finalize`` hook at interpreter exit.
"""

from __future__ import annotations

import logging
import os
import secrets
import weakref

from ..analysis import sanitize as _sanitize
from ..nn.model import CellModel
from ..stateful import Stateful, check_schema, schema_tag
from . import shm as _shm
from .faults import FaultPlan, InjectedShmFault, SnapshotChainError

__all__ = [
    "FULL_SNAPSHOT_EVERY",
    "Chain",
    "SnapshotPublisher",
    "worker_reset",
    "worker_models",
]

# Delta chain length cap: a full snapshot is rewritten after this many
# consecutive delta publishes, bounding both the number of live
# shared-memory segments and the replay work of a worker that sat idle for
# many publishes.
FULL_SNAPSHOT_EVERY = 8

#: ``(version, "full" | "delta", segment name)`` of every retained segment:
#: the latest full snapshot plus the deltas published since it.
Chain = tuple[tuple[int, str, str], ...]


# ----------------------------------------------------------------------
# coordinator side: the publisher
# ----------------------------------------------------------------------
class SnapshotPublisher(Stateful):
    """Publishes a model suite as a versioned full/delta segment chain.

    The public ``publish_*`` / ``*_bytes`` counters meter it for
    benchmarks and tests; byte counts are segment payload bytes (header +
    raw tensors).  ``rle`` turns on the snapshot transport codec;
    ``fault_plan`` may fail a real publish once, before any state moves.
    """

    def __init__(self, *, rle: bool = False, fault_plan: FaultPlan | None = None):
        self.version = 0
        self.chain: list[tuple[int, str, str]] = []
        # Owned shared-memory segments by name; the finalizer holds this
        # dict (not self), so an abandoned publisher still unlinks at exit.
        self.segments: dict = {}
        self._arena_prefix = f"repro-{os.getpid()}-{secrets.token_hex(4)}"
        self.finalizer = weakref.finalize(self, _shm.unlink_segments, self.segments)
        # model_id -> CellModel.version at last publish; None = never published.
        self._published_versions: dict[str, int] | None = None
        # Sanitizer cross-check (no-op unless enabled): a model whose bytes
        # moved but whose version did not would be silently reused by the
        # version-compare below — exactly the bug class RL004 guards
        # statically and this watch catches dynamically.
        self._version_watch = _sanitize.VersionWatch()
        self._deltas_since_full = 0
        # Snapshot transport codec: delta segments are byte-diffed against
        # the shadow — each tensor's bytes as of its previous publish,
        # exactly the state workers hold when they replay the delta (see
        # shm.write_snapshot_segment).
        self._rle = rle
        self._shadow: dict[tuple[str, str, str], bytes] = {}
        self._fault_plan = fault_plan
        # Publish metering.  Byte counters are on-wire segment payload
        # sizes; the raw counter keeps the uncompressed total so the
        # transport ledger can report both.
        self.publish_count = 0
        self.full_publish_count = 0
        self.delta_publish_count = 0
        self.reused_publish_count = 0
        self.bytes_published_total = 0
        self.raw_bytes_published_total = 0
        self.full_bytes_total = 0
        self.delta_bytes_total = 0
        self.last_publish_bytes = 0

    def publish(
        self, models: dict[str, CellModel], fault_attempt: int = 0
    ) -> tuple[int, Chain]:
        """Publish the current suite; returns ``(version, snapshot chain)``.

        Per-model versions decide what (if anything) ships:

        * every version matches the last publish — the snapshot is reused
          outright, even for a freshly built dict (the async engine's many
          dispatch waves between aggregations, and repeated evaluations of
          an idle suite, publish nothing);
        * some versions moved — only those models' tensors land in a delta
          segment appended to the chain;
        * first publish, every model changed, or ``FULL_SNAPSHOT_EVERY``
          deltas accumulated — a full snapshot segment is written and the
          old chain segments are unlinked (safe: the executor settles every
          future of a wave before the next publish, including on failure,
          so no worker is mid-attach between publishes, and workers'
          existing mappings survive the unlink).
        """
        self._version_watch.check_all(models, where="snapshot publish")
        versions = {mid: m.version for mid, m in models.items()}
        if versions == self._published_versions:
            self.reused_publish_count += 1
            return self.version, tuple(self.chain)
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
        prev = self._published_versions
        changed = {
            mid: m
            for mid, m in models.items()
            if prev is None or prev.get(mid) != m.version
        }
        removed = frozenset(prev or ()) - frozenset(models)
        self.version += 1
        full = (
            prev is None
            or len(changed) == len(models)
            or self._deltas_since_full >= FULL_SNAPSHOT_EVERY
        )
        name = f"{self._arena_prefix}-v{self.version}"
        shadow = self._shadow if self._rle else None
        retired: dict = {}
        if full:
            seg, nbytes, raw_nbytes = _shm.write_snapshot_segment(
                name, "full", dict(models), shadow=shadow
            )
            retired = dict(self.segments)  # the registry is the old chain
            self.segments.clear()
            self.chain = [(self.version, "full", name)]
            self._deltas_since_full = 0
            self.full_publish_count += 1
            self.full_bytes_total += nbytes
        else:
            seg, nbytes, raw_nbytes = _shm.write_snapshot_segment(
                name, "delta", changed, removed, frozenset(models),
                rle=self._rle, shadow=shadow,
            )
            self.chain.append((self.version, "delta", name))
            self._deltas_since_full += 1
            self.delta_publish_count += 1
            self.delta_bytes_total += nbytes
        self.segments[name] = seg
        if shadow is not None:
            # The shadow tracks the *current* suite only: retired models'
            # bytes must never anchor a future diff.
            for skey in [k for k in shadow if k[0] not in models]:
                del shadow[skey]
        self._published_versions = versions
        self.publish_count += 1
        self.last_publish_bytes = nbytes
        self.bytes_published_total += nbytes
        self.raw_bytes_published_total += raw_nbytes
        # Last, with the new segment owned and the books closed: an old
        # segment that is already gone (external /dev/shm cleaner) is the
        # cleanup path's metered no-op, not a mid-publish exception.
        _shm.unlink_segments(retired)
        return self.version, tuple(self.chain)

    def release(self) -> None:
        """Unlink every owned segment and reset publish state (idempotent)."""
        _shm.unlink_segments(self.segments)
        self.chain = []
        self._published_versions = None
        self._deltas_since_full = 0
        # Fresh workers rebase on a full (raw) snapshot, so the rle shadow
        # restarts with them — a stale shadow would diff against bytes the
        # new workers never held.
        self._shadow.clear()

    def state_dict(self) -> dict:
        # Chain, published versions, shadow and meters are all rebuilt from
        # the first post-resume publish; persisting them would pin a
        # checkpoint to the process backend for no benefit.
        return {"schema": schema_tag(type(self).__name__)}

    def load_state_dict(self, payload: dict) -> None:
        check_schema(payload, schema_tag(type(self).__name__))


# ----------------------------------------------------------------------
# worker side: the reader
# ----------------------------------------------------------------------
_LOG = logging.getLogger(__name__ + ".worker")

# This process's view of the chain, patched forward at most once per
# snapshot version.  ``segments`` is name -> SharedMemory: the segments
# whose buffers installed models view into.  Unlinking by the coordinator
# only removes the name; these mappings stay valid until closed, which
# happens wholesale when a full snapshot rebases the suite.
_WORKER: dict = {"version": 0, "models": None, "segments": {}}


def worker_reset() -> None:
    """Forget every snapshot (pool initializer; published versions start at 1)."""
    _WORKER.update(version=0, models=None, segments={})


def _worker_segment(name: str, chain: Chain = ()):
    seg = _WORKER["segments"].get(name)
    if seg is None:
        try:
            seg = _shm.attach_segment(name)
        except FileNotFoundError:
            expected = [(v, k, n) for v, k, n in chain] if chain else "unknown"
            raise SnapshotChainError(
                f"shared-memory segment {name!r} does not exist; expected "
                f"snapshot chain {expected}, worker has attached "
                f"{sorted(_WORKER['segments'])}. The coordinator unlinks "
                "segments on chain compaction, pool heal, and close() — a "
                "worker asked to replay a retired chain (or a stale future "
                "from before a pool rebuild) hits exactly this."
            ) from None
        _WORKER["segments"][name] = seg
    return seg


def _worker_rebase(keep: str) -> None:
    """Close every attached segment except ``keep`` (full-snapshot rebase)."""
    segments = _WORKER["segments"]
    for name in [n for n in segments if n != keep]:
        try:
            segments.pop(name).close()
        except OSError as err:
            # A close() failure leaks one worker-side mapping until process
            # exit — worth a log line, never worth failing the rebase (the
            # segment itself is coordinator-owned and already retired).
            _LOG.warning("closing rebased segment %r failed: %s", name, err)


def worker_models(version: int, chain: Chain) -> dict[str, CellModel]:
    """Bring this worker's cached suite up to ``version`` and return it.

    ``chain`` is the publisher's currently retained snapshot segments,
    ordered by version: one full snapshot first, then the deltas published
    since.  A worker already past the full snapshot replays only the
    deltas newer than its cached version; a worker that lagged behind the
    full snapshot (or never loaded one) rebases on it first — closing its
    older segment mappings, since every model is rebuilt from the full
    segment.  Each segment is mapped at most once per worker, and a
    model's tensors are read-only views into the mapping — replaying a
    delta installs offsets, it never copies tensor bytes.
    """
    if _WORKER["version"] == version:
        return _WORKER["models"]
    models = _WORKER["models"]
    cur = _WORKER["version"]
    base_ver, base_kind, base_name = chain[0]
    if models is None or cur < base_ver:
        if base_kind != "full":
            raise RuntimeError(
                f"snapshot chain must start with a full snapshot, got {base_kind!r}"
            )
        kind, models, _, _ = _shm.read_snapshot_segment(
            _worker_segment(base_name, chain)
        )
        _worker_rebase(keep=base_name)
        cur = base_ver
    for ver, kind, name in chain[1:]:
        if ver <= cur:
            continue
        # Deltas replay in publish order, so the worker's current suite is
        # byte-for-byte the state the coordinator run-length encoded
        # against (when snapshot compression is on; raw deltas ignore it).
        _, changed, removed, all_ids = _shm.read_snapshot_segment(
            _worker_segment(name, chain), prev_models=models
        )
        models.update(changed)
        for rid in removed:
            models.pop(rid, None)
        if set(models) != set(all_ids):
            raise RuntimeError(
                f"snapshot delta v{ver} left an incoherent suite: "
                f"{sorted(set(models) ^ set(all_ids))}"
            )
        cur = ver
    if cur != version:
        raise RuntimeError(
            f"worker could not reach snapshot v{version} (stuck at v{cur})"
        )
    _WORKER["models"] = models
    _WORKER["version"] = version
    return models
