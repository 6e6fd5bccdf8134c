"""Runtime sanitizer: dynamic checks for what the AST cannot see.

Two checks, both off by default and enabled together via the
``REPRO_SANITIZE=1`` environment variable, the CLI ``--sanitize`` flag,
or :func:`set_sanitizer`:

**Write-after-publish guard** — while an executor round is in flight the
server models are *published*: workers clone them (train) or read them
(eval), and any concurrent write corrupts an unpredictable subset
of the round.  :func:`published` flips every ``params()``/``state()``
array read-only for the duration of the round, so a racing write raises
NumPy's ``ValueError: assignment destination is read-only`` at the
exact offending statement instead of silently skewing results.  Worker-
side shared-memory views are *always* read-only (see ``repro.fl.shm``);
this guard extends the same protection to the coordinator-side originals
on every backend, including serial and thread where memory is shared.

**Version/fingerprint cross-check** — snapshot publishing (a publish is
reused when no version moved) trusts ``CellModel.version``.  The static
rule RL004 catches the *pattern* of a missed ``bump_version()``; the
:class:`VersionWatch` catches the *effect*: at every snapshot publish it
hashes the model's parameter/state bytes and raises
:class:`SanitizerError` when the content moved while the version counter
did not.

Both checks are dtype-independent: they compare raw bytes, so they work
identically under ``compute_dtype="float32"`` — but note the engine's
bit-identity *claims* are stated at float64 (see ``CONTRACTS.md``), so a
float32 + sanitize run validates the invariants without asserting the
float64 golden digests.

Overhead is one ``blake2b`` over the model bytes per model per snapshot
publish, plus a flag flip per array per round; tiny next to the
numeric work, but nonzero — hence opt-in.
"""

from __future__ import annotations

import hashlib
import os
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.nn.model import CellModel

__all__ = [
    "SanitizerError",
    "sanitizer_enabled",
    "set_sanitizer",
    "model_fingerprint",
    "published",
    "VersionWatch",
]


class SanitizerError(RuntimeError):
    """A dynamic contract violation caught by the sanitizer."""


def _env_enabled() -> bool:
    return os.environ.get("REPRO_SANITIZE", "").strip().lower() in (
        "1",
        "true",
        "yes",
        "on",
    )


_enabled: bool = _env_enabled()


def sanitizer_enabled() -> bool:
    """True when runtime sanitizer checks are active in this process."""
    return _enabled


def set_sanitizer(enabled: bool) -> None:
    """Switch the sanitizer on or off process-wide.

    The coordinator calls this when configured with ``sanitize=True``;
    tests use it to scope checks.  Subprocesses inherit the setting via
    ``REPRO_SANITIZE`` (fork) or re-read it from the environment (spawn).
    """
    global _enabled
    _enabled = bool(enabled)


def model_fingerprint(model: "CellModel") -> str:
    """Content hash over every parameter and state tensor.

    Keys are sorted and mixed into the digest together with shape and
    dtype, so two models agree iff their live trees are byte-identical.
    """
    h = hashlib.blake2b(digest_size=16)
    for scope, tree in (("p", model.params()), ("s", model.state())):
        for key in sorted(tree):
            arr = tree[key]
            h.update(scope.encode())
            h.update(key.encode())
            h.update(str(arr.shape).encode())
            h.update(arr.dtype.str.encode())
            h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _model_arrays(models: Mapping[str, "CellModel"]) -> Iterator[np.ndarray]:
    for model in models.values():
        yield from (arr for *_, arr in model.tensors("param", "state"))


@contextmanager
def published(models: Mapping[str, "CellModel"]) -> Iterator[None]:
    """Freeze the published models' live arrays for the guarded block.

    No-op when the sanitizer is off.  Only arrays that were writable on
    entry are restored on exit, so nesting and pre-frozen views (worker
    shm mappings) are safe.
    """
    if not _enabled:
        yield
        return
    frozen: list[np.ndarray] = []
    try:
        for arr in _model_arrays(models):
            if arr.flags.writeable:
                arr.flags.writeable = False
                frozen.append(arr)
        yield
    finally:
        for arr in frozen:
            arr.flags.writeable = True


class VersionWatch:
    """Detect content drift that skipped ``bump_version()``.

    Remembers ``(version, fingerprint)`` per model id; on every
    :meth:`check` it recomputes the fingerprint and raises
    :class:`SanitizerError` if the bytes moved while the version stood
    still.  Version bumps (with or without content change — re-stamping
    is legal) simply refresh the record.
    """

    def __init__(self) -> None:
        self._seen: dict[str, tuple[int, str]] = {}

    def reset(self) -> None:
        self._seen.clear()

    def check(self, model: "CellModel", where: str = "snapshot publish") -> None:
        if not _enabled:
            return
        fp = model_fingerprint(model)
        prev = self._seen.get(model.model_id)
        if prev is not None:
            prev_version, prev_fp = prev
            if model.version == prev_version and fp != prev_fp:
                raise SanitizerError(
                    f"model {model.model_id} content changed at version "
                    f"{model.version} without bump_version() (detected at "
                    f"{where}); a reused snapshot would serve stale weights"
                )
        self._seen[model.model_id] = (model.version, fp)

    def check_all(
        self, models: Mapping[str, "CellModel"], where: str = "snapshot publish"
    ) -> None:
        if not _enabled:
            return
        for model in models.values():
            self.check(model, where=where)
