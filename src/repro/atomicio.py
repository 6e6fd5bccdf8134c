"""Crash-consistent file writes: temp file + fsync + ``os.replace``.

A plain ``open(path, "w")`` truncates the destination before the new
bytes land — a crash mid-write leaves a torn file where a good one used
to be.  Every durable artifact in this repo (the payload files of
:mod:`repro.container` — saved models and checkpoint payloads — run-log
``.json`` exports and checkpoint manifests) goes through
:func:`atomic_write` instead:

1. the bytes are written to a temp file **in the destination directory**
   (same filesystem, so the rename below is atomic);
2. the temp file is flushed and ``fsync``\\ ed (the data is durable
   before the name moves);
3. ``os.replace`` swaps it in — readers see either the old complete file
   or the new complete file, never a mixture;
4. the parent directory is ``fsync``\\ ed so the rename itself survives
   a power cut.

A stale ``*.tmp-*`` file left by a killed process is garbage by
construction — nothing ever reads temp names — and is safe to ignore or
delete.
"""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager
from pathlib import Path

__all__ = ["atomic_write", "fsync_dir"]


def fsync_dir(path: str | os.PathLike) -> None:
    """Flush a directory entry so a completed rename survives a crash."""
    fd = os.open(str(path), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


@contextmanager
def atomic_write(path: str | os.PathLike, mode: str = "wb", encoding: str | None = None):
    """Open a temp file that atomically replaces ``path`` on clean exit.

    ``mode`` is ``"wb"`` (default) or ``"w"`` (pass ``encoding``).  On an
    exception inside the block the temp file is removed and ``path`` is
    left untouched — whatever complete version existed before still
    exists after.
    """
    if mode not in ("wb", "w"):
        raise ValueError(f"atomic_write mode must be 'wb' or 'w', got {mode!r}")
    target = Path(path)
    fd, tmp = tempfile.mkstemp(
        dir=target.parent, prefix=target.name + ".tmp-", suffix=""
    )
    try:
        with os.fdopen(fd, mode, encoding=encoding) as f:
            yield f
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, target)
        fsync_dir(target.parent)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
