"""Runtime sanitizer: a dynamic check for what the AST cannot see.

One check, off by default and enabled via the ``REPRO_SANITIZE=1``
environment variable, the CLI ``--sanitize`` flag, or
:func:`set_sanitizer`:

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

The check is dtype-independent, so it works identically under
``compute_dtype="float32"`` — but note the engine's bit-identity *claims*
are stated at float64 (see ``CONTRACTS.md``), so a float32 + sanitize run
validates the invariant without asserting the float64 golden digests.

Overhead is a flag flip per array per round; tiny next to the numeric
work, but nonzero — hence opt-in.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator, Mapping

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.nn.model import CellModel

__all__ = [
    "sanitizer_enabled",
    "set_sanitizer",
    "published",
]


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
