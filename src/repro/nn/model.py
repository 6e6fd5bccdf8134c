"""CellModel: an ordered chain of cells with lineage-aware parameter naming.

Parameters are keyed ``"{cell_id}/{layer}.{tensor}"``.  Because a widened
cell keeps its ``cell_id`` and an inserted cell mints a fresh one, two models
related by FedTrans transformations share keys exactly on their common
lineage — which is what makes cross-model weight sharing (soft aggregation,
HeteroFL-style cropping) a pure dictionary operation.

Version contract
----------------
Every model carries a monotone :attr:`~CellModel.version` counter.  All
mutating entry points bump it — :meth:`~CellModel.set_params`,
:meth:`~CellModel.set_state`, :meth:`~CellModel.widen_cell`,
:meth:`~CellModel.deepen_after` — and code that writes parameters through
the live references returned by :meth:`~CellModel.params` (optimizer steps,
re-initialization) must call :meth:`~CellModel.bump_version` itself.
``clone(keep_id=True)`` carries the version (a replica of server state);
a fresh-id clone starts a new version history at 0.

Two subsystems key caches on ``(model_id, version)``: the coordinator's
incremental evaluation cache and the process executor's delta snapshot
publishing.  The cost accessors :meth:`~CellModel.macs`,
:meth:`~CellModel.num_params`, and :meth:`~CellModel.nbytes` are memoized
per version, so hot paths (compatible-model filtering per client) stop
re-walking every cell.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .cells import Cell, ConvCell
from .losses import accuracy, softmax_cross_entropy
from .param_ops import ParamTree

__all__ = [
    "CellModel",
    "TransformRecord",
    "model_id_counter",
    "set_model_id_counter",
]

_model_counter = itertools.count()
_model_counter_position = 0  # ids handed out so far (mirrors _model_counter)


def _new_model_id() -> str:
    global _model_counter_position
    _model_counter_position += 1
    return f"m{next(_model_counter):03d}"


def model_id_counter() -> int:
    """How many model ids this process has handed out (checkpointing)."""
    return _model_counter_position


def set_model_id_counter(position: int) -> None:
    """Restore the id counter so future models get the same ids as an
    uninterrupted run would (resume bit-identity requires the lineage's
    ``m%03d`` names to continue exactly where the checkpoint stopped)."""
    global _model_counter, _model_counter_position
    if position < 0:
        raise ValueError(f"model id counter must be >= 0, got {position}")
    _model_counter = itertools.count(position)
    _model_counter_position = position


@dataclass
class TransformRecord:
    """One structural edit applied to a model (for lineage/similarity)."""

    op: str  # 'widen' | 'deepen'
    cell_id: str  # the cell widened, or the anchor cell deepened after
    round: int
    detail: dict = field(default_factory=dict)


class CellModel:
    """A neural network as an ordered list of :class:`Cell` objects.

    Parameters
    ----------
    cells:
        The cell chain; interfaces must line up (validated).
    input_shape:
        Per-sample input shape — ``(C, H, W)`` for image cells, ``(F,)`` for
        flat cells.
    num_classes:
        Output dimensionality (for validation and reporting).
    """

    def __init__(
        self,
        cells: list[Cell],
        input_shape: tuple[int, ...],
        num_classes: int,
        model_id: str | None = None,
        parent_id: str | None = None,
        birth_round: int = 0,
    ):
        if not cells:
            raise ValueError("a model needs at least one cell")
        for prev, nxt in zip(cells, cells[1:]):
            if prev.out_interface != nxt.in_interface:
                raise ValueError(
                    f"interface mismatch: {prev.cell_id} emits {prev.out_interface}, "
                    f"{nxt.cell_id} expects {nxt.in_interface}"
                )
        self.cells = cells
        # The first cell is fed the data batch and nothing reads
        # d(loss)/d(data): a conv stem never computes it.
        if isinstance(cells[0], ConvCell):
            cells[0].conv.needs_input_grad = False
        self.input_shape = tuple(input_shape)
        self.num_classes = num_classes
        self.model_id = model_id or _new_model_id()
        self.parent_id = parent_id
        self.birth_round = birth_round
        self.history: list[TransformRecord] = []
        # Length of the leading replica axis of every tensor, or None: only
        # :meth:`replicate` builds a stacked model.
        self.replicas: int | None = None
        # Monotone mutation counter (see module docstring).  Cost metrics
        # are memoized against it: ``_cost_version`` records the version the
        # cached macs/params/nbytes triple was computed at.
        self._version = 0
        self._cost_version = -1
        self._macs_cache = 0
        self._num_params_cache = 0
        self._nbytes_cache = 0
        # Chain validation: raises if shapes are inconsistent.
        self.macs()

    # ------------------------------------------------------------------
    # versioning
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Monotone counter of parameter/state/structure mutations."""
        return self._version

    def bump_version(self) -> None:
        """Record a mutation.

        Called automatically by every mutating ``CellModel`` method; code
        that writes through the live arrays of :meth:`params` /
        :meth:`state` (e.g. in-place optimizer steps) must call this so
        version-keyed caches (evaluation cache, snapshot deltas, cost
        memoization) observe the change.
        """
        self._version += 1

    def sync_version(self, version: int) -> None:
        """Restamp the counter to ``version`` — the derived-model pattern.

        For models *derived* from a source model and republished under a
        stable id (subnet crops rebuilt from a global model every round):
        the derived weights are a pure function of the source, so carrying
        the source's version lets version-keyed caches see a
        rebuilt-but-identical derivation as unchanged and a
        rebuilt-after-training one as changed.  A currently valid memoized
        cost triple is restamped along with it (restamping never changes
        structure); a stale one is explicitly invalidated so it cannot
        collide with the new stamp.
        """
        if self._cost_version == self._version:
            self._cost_version = version
        else:
            self._cost_version = -1
        self._version = version

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        for cell in self.cells:
            x = cell.forward(x, train)
        return x

    def backward(self, dout: np.ndarray) -> None:
        """Accumulate parameter gradients into the cells (the gradient with
        respect to the input batch is not part of the result)."""
        for cell in reversed(self.cells):
            dout = cell.backward(dout)

    def loss_and_grad(self, x: np.ndarray, y: np.ndarray) -> float:
        """One forward/backward pass; gradients accumulate into the cells."""
        logits = self.forward(x, train=True)
        loss, dlogits = softmax_cross_entropy(logits, y)
        self.backward(dlogits)
        return loss

    def predict(self, x: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Inference logits, evaluated in batches with train=False."""
        outs = []
        for start in range(0, len(x), batch_size):
            outs.append(self.forward(x[start : start + batch_size], train=False))
        return np.concatenate(outs, axis=0)

    def evaluate(self, x: np.ndarray, y: np.ndarray, batch_size: int = 256) -> tuple[float, float]:
        """Return ``(mean_loss, accuracy)`` on a dataset."""
        logits = self.predict(x, batch_size)
        loss, _ = softmax_cross_entropy(logits, y)
        return loss, accuracy(logits, y)

    # ------------------------------------------------------------------
    # parameters
    # ------------------------------------------------------------------
    def params(self) -> ParamTree:
        """Live references, keyed by ``cell_id/layer.tensor``."""
        out: ParamTree = {}
        for cell in self.cells:
            for k, v in cell.params().items():
                out[f"{cell.cell_id}/{k}"] = v
        return out

    def grads(self) -> ParamTree:
        out: ParamTree = {}
        for cell in self.cells:
            for k, v in cell.grads().items():
                out[f"{cell.cell_id}/{k}"] = v
        return out

    def state(self) -> ParamTree:
        out: ParamTree = {}
        for cell in self.cells:
            for k, v in cell.state().items():
                out[f"{cell.cell_id}/{k}"] = v
        return out

    def get_params(self) -> ParamTree:
        """Deep copies of all parameters."""
        return {k: v.copy() for k, v in self.params().items()}

    def get_state(self) -> ParamTree:
        return {k: v.copy() for k, v in self.state().items()}

    def set_params(self, tree: ParamTree, strict: bool = True) -> None:
        """Write values into the live parameter arrays (shape-checked)."""
        live = self.params()
        if strict and live.keys() != tree.keys():
            missing = set(live) ^ set(tree)
            raise KeyError(f"param keys mismatch: {sorted(missing)[:8]}")
        for k, v in tree.items():
            if k not in live:
                if strict:
                    raise KeyError(k)
                continue
            if live[k].shape != v.shape:
                raise ValueError(f"shape mismatch for {k}: {live[k].shape} vs {v.shape}")
            live[k][...] = v
        self.bump_version()

    def set_state(self, tree: ParamTree, strict: bool = True) -> None:
        live = self.state()
        for k, v in tree.items():
            if k not in live:
                if strict:
                    raise KeyError(k)
                continue
            live[k][...] = v
        self.bump_version()

    def zero_grad(self) -> None:
        for cell in self.cells:
            cell.zero_grad()

    def num_params(self) -> int:
        if self._cost_version != self._version:
            self._recompute_costs()
        return self._num_params_cache

    def nbytes(self) -> int:
        """Serialized size of the parameters in bytes."""
        if self._cost_version != self._version:
            self._recompute_costs()
        return self._nbytes_cache

    # ------------------------------------------------------------------
    # cost accounting
    # ------------------------------------------------------------------
    def _recompute_costs(self) -> None:
        """Walk the chain once; validate it and cache macs/params/nbytes.

        ``_cost_version`` is stamped last so a validation failure mid-walk
        leaves the cache invalid (the next call re-raises instead of
        serving a half-computed total).
        """
        total = 0
        shape = self.input_shape
        for cell in self.cells:
            m, shape = cell.macs(shape)
            total += m
        if shape != (self.num_classes,):
            raise ValueError(
                f"model emits shape {shape}, expected ({self.num_classes},)"
            )
        num_params = 0
        nbytes = 0
        for v in self.params().values():
            # Costs are per replica: a stacked workspace meters as its source.
            num_params += v.size // (self.replicas or 1)
            nbytes += v.nbytes // (self.replicas or 1)
        self._macs_cache = total
        self._num_params_cache = int(num_params)
        self._nbytes_cache = int(nbytes)
        self._cost_version = self._version

    def macs(self) -> int:
        """Per-sample forward multiply-accumulate operations (memoized)."""
        if self._cost_version != self._version:
            self._recompute_costs()
        return self._macs_cache

    def train_macs_per_sample(self) -> int:
        """Training cost per sample: forward + backward ~= 3x forward MACs."""
        return 3 * self.macs()

    def cell_macs(self) -> dict[str, int]:
        """Per-cell forward MACs (used by activeness diagnostics)."""
        out: dict[str, int] = {}
        shape = self.input_shape
        for cell in self.cells:
            m, shape = cell.macs(shape)
            out[cell.cell_id] = m
        return out

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def cell_index(self, cell_id: str) -> int:
        for i, cell in enumerate(self.cells):
            if cell.cell_id == cell_id:
                return i
        raise KeyError(f"no cell {cell_id} in model {self.model_id}")

    def get_cell(self, cell_id: str) -> Cell:
        return self.cells[self.cell_index(cell_id)]

    def transformable_cells(self) -> list[Cell]:
        return [c for c in self.cells if c.transformable]

    def clone(self, birth_round: int | None = None, keep_id: bool = False) -> "CellModel":
        """Deep copy; lineage (cell ids) is always preserved.

        ``keep_id=True`` keeps the same ``model_id`` — used for per-client
        training workspaces, which are *replicas* of a server model rather
        than new family members — and carries the :attr:`version` counter,
        so a replica answers version-keyed cache lookups exactly like its
        original.  The default mints a fresh id (the transformation path)
        and starts a fresh version history.
        """
        new = CellModel(
            [c.clone() for c in self.cells],
            self.input_shape,
            self.num_classes,
            model_id=self.model_id if keep_id else None,
            parent_id=self.parent_id if keep_id else self.model_id,
            birth_round=self.birth_round if birth_round is None else birth_round,
        )
        new.history = list(self.history)
        if keep_id:
            # The constructor already validated and cached costs for this
            # structure; restamp them under the carried version.
            new._version = self._version
            new._cost_version = self._version
        return new

    def replicate(self, k: int) -> "CellModel":
        """A ``k``-replica training workspace: ``clone(keep_id=True)`` with
        every tensor copied ``k`` times along a new leading axis.

        Replica ``r`` of a forward/backward pass over ``(k, B, ...)``
        activations is bit-identical to that pass on the 2-D slice, so one
        workspace trains a cohort of ``k`` participants of this model in one
        loop (:meth:`repro.fl.client.LocalTrainer.train`).  Refused unless
        every layer declares the axis (``Layer.replica_axis``: Dense and
        ReLU; not Conv, BatchNorm, LayerNorm, attention, Dropout).  A
        workspace trains; it is not evaluated, transformed or published.
        """
        if k < 1:
            raise ValueError(f"a workspace needs at least one replica, got {k}")
        work = self.clone(keep_id=True)
        for cell in work.cells:
            for _, layer in cell._named_layers():
                layer.replicate(k)
        work.replicas = k
        return work

    @property
    def stackable(self) -> bool:
        """Whether :meth:`replicate` accepts this model."""
        return all(
            layer.replica_axis for cell in self.cells for _, layer in cell._named_layers()
        )

    def widen_cell(
        self,
        cell_id: str,
        factor: float,
        rng: np.random.Generator,
        round_idx: int = 0,
        noise: float = 0.0,
        mode: str = "dup",
    ) -> None:
        """Function-preserving widen of one cell (Net2WiderNet).

        Output-widening cells propagate a :class:`WidenMapping` expansion to
        the next cell in the chain; interface-stable cells widen internally.

        ``mode="dup"`` follows the paper's stated rule (random column
        duplication with multiplicity division); ``noise`` then perturbs the
        duplicates to break their gradient symmetry.  ``mode="zero"`` grows
        fresh random channels behind zeroed outgoing weights — also exactly
        function-preserving, with immediately-trainable new capacity (see
        :class:`repro.nn.cells.WidenMapping`).
        """
        idx = self.cell_index(cell_id)
        cell = self.cells[idx]
        if not cell.transformable:
            raise ValueError(f"cell {cell_id} is not transformable")
        before = cell.num_params()
        if cell.can_widen_output:
            if idx + 1 >= len(self.cells):
                raise ValueError("cannot widen the terminal cell's output")
            wm = cell.widen_output(factor, rng, noise, mode)
            self.cells[idx + 1].expand_input(wm, rng, noise)
        elif cell.can_widen_internal:
            cell.widen_internal(factor, rng, noise, mode)
        else:
            raise ValueError(f"cell {cell_id} supports no widening")
        cell.widen_count += 1
        cell.last_op = "widen"
        self.history.append(
            TransformRecord(
                "widen",
                cell_id,
                round_idx,
                {"factor": factor, "params_before": before, "params_after": cell.num_params()},
            )
        )
        self.bump_version()
        self.macs()  # re-validate the chain (recomputes: the version moved)

    def deepen_after(
        self, cell_id: str, rng: np.random.Generator, count: int = 1, round_idx: int = 0
    ) -> list[str]:
        """Insert ``count`` identity cells right after ``cell_id`` (Net2DeeperNet)."""
        idx = self.cell_index(cell_id)
        anchor = self.cells[idx]
        inserted: list[str] = []
        for offset in range(count):
            new_cell = anchor.identity_like(rng)
            self.cells.insert(idx + 1 + offset, new_cell)
            inserted.append(new_cell.cell_id)
        anchor.last_op = "deepen"
        self.history.append(
            TransformRecord("deepen", cell_id, round_idx, {"inserted": inserted})
        )
        self.bump_version()
        self.macs()
        return inserted

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def summary(self) -> str:
        """Human-readable architecture table."""
        lines = [
            f"model {self.model_id} (parent={self.parent_id}) "
            f"macs={self.macs():,} params={self.num_params():,}"
        ]
        shape = self.input_shape
        for cell in self.cells:
            m, shape = cell.macs(shape)
            flags = "" if cell.transformable else " [fixed]"
            lines.append(
                f"  {cell.cell_id:<8} {cell.kind:<10} out={shape} "
                f"params={cell.num_params():>8,} macs={m:>12,}{flags}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CellModel {self.model_id} cells={len(self.cells)} macs={self.macs():,}>"
