"""Compute substrate: one process-wide knob (the dtype) and workspace pooling.

* **Compute dtype** — every tensor the substrate creates (initializers,
  layer buffers, synthetic data, transform-grown channels) uses the
  process-wide compute dtype.  ``float64`` is the default and the
  *bit-identity* dtype: golden fixtures, the executor determinism
  contract, and the eval-cache identity guarantees are all stated at
  float64.  ``float32`` halves memory traffic and roughly doubles BLAS
  throughput; results are deterministic per seed but numerically distinct
  from float64 runs (see ROADMAP "Hot-path compute substrate" for the
  exact contract).  The knob is resolved in one place —
  ``CoordinatorConfig.compute_dtype`` / ``FedTransConfig.compute_dtype``
  / ``--dtype`` all funnel into :func:`set_compute_dtype` — and shipped
  to process-pool workers through the pool initializer.

* **Workspace pooling** — hot-path kernels (im2col, BatchNorm
  temporaries, ReLU, softmax/cross-entropy scratch) write into
  per-layer :class:`Workspace` buffers sized on first use and reused
  across steps, so the steady-state training step performs no large heap
  allocations.  Pooling is arithmetic-transparent (bit-identical on or
  off; the regression test pins both the identity and the allocation
  saving, against a fresh-allocating ``Workspace.get`` of its own).

The dtype is a plain module global: it is set once at run start
(before models and data are built) and only read on the hot path.
Changing the dtype mid-run does not retype existing models — mixing
dtypes silently upcasts, so runs should build everything under one
setting.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "COMPUTE_DTYPES",
    "ACCUM_DTYPE",
    "accum_dtype",
    "compute_dtype",
    "compute_dtype_name",
    "set_compute_dtype",
    "Workspace",
]

#: The dtypes the substrate supports, by config/CLI name.
COMPUTE_DTYPES = ("float32", "float64")

_DTYPES = {name: np.dtype(name) for name in COMPUTE_DTYPES}

#: The accumulator dtype: reductions that must stay numerically stable
#: regardless of the working precision (norms, weighted averages over
#: many clients, Eq. 5 cross-model sums) accumulate here.  Fixed at
#: float64 — under the default compute dtype this is the identity, and
#: under float32 it keeps long reductions from losing low-order bits.
#: This is the "accumulator allowlist" repro-lint's RL003 points at:
#: kernels name their accumulation precision through :func:`accum_dtype`
#: instead of hard-coding ``np.float64``.
ACCUM_DTYPE: np.dtype = np.dtype("float64")

_compute_dtype: np.dtype = np.dtype("float64")


def compute_dtype() -> np.dtype:
    """The process-wide dtype of every tensor the substrate creates."""
    return _compute_dtype


def accum_dtype() -> np.dtype:
    """The dtype for precision-critical reductions (always float64)."""
    return ACCUM_DTYPE


def compute_dtype_name() -> str:
    """The current compute dtype as its config/CLI name."""
    return _compute_dtype.name


def set_compute_dtype(dtype: str | np.dtype | None) -> np.dtype:
    """Set the process-wide compute dtype; returns the resolved dtype.

    ``None`` leaves the current setting untouched (the config-layer
    "inherit" value).  Anything other than float32/float64 is rejected:
    the substrate's kernels and the latency model are written for IEEE
    floats of those two widths.
    """
    global _compute_dtype
    if dtype is None:
        return _compute_dtype
    name = dtype if isinstance(dtype, str) else np.dtype(dtype).name
    if name not in _DTYPES:
        raise ValueError(
            f"compute dtype must be one of {COMPUTE_DTYPES}, got {dtype!r}"
        )
    _compute_dtype = _DTYPES[name]
    return _compute_dtype


class Workspace:
    """Named scratch buffers reused across steps by one owner.

    Each layer (and the aggregator) owns a private workspace, so reuse is
    free of cross-thread races: parallel backends clone models per work
    item, and a clone starts with a fresh (empty) workspace.  ``get``
    hands back the buffer registered under ``name`` when its shape and
    dtype still match, else allocates a replacement — steady-state
    training (fixed batch shape) allocates exactly once per buffer.

    Contents are *not* preserved between calls: callers must fully
    overwrite a buffer before reading it (``zero_first`` zeroes only
    freshly allocated buffers, for pad-border style invariants).
    """

    __slots__ = ("_bufs",)

    def __init__(self) -> None:
        self._bufs: dict[object, np.ndarray] = {}

    def get(
        self,
        name: object,
        shape: tuple[int, ...],
        dtype: np.dtype,
        zero_first: bool = False,
    ) -> np.ndarray:
        shape = tuple(shape)
        buf = self._bufs.get(name)
        if buf is None or buf.shape != shape or buf.dtype != dtype:
            buf = np.zeros(shape, dtype) if zero_first else np.empty(shape, dtype)
            self._bufs[name] = buf
        return buf

    def clear(self) -> None:
        self._bufs.clear()

    def prune(self, keep) -> None:
        """Drop every buffer whose name fails the ``keep`` predicate."""
        self._bufs = {k: v for k, v in self._bufs.items() if keep(k)}

    # Workspaces are caches: cloning or pickling an owner must never drag
    # the buffers along (process payloads, deep-copied models).
    def __deepcopy__(self, memo) -> "Workspace":
        return Workspace()

    def __reduce__(self):
        return (Workspace, ())
