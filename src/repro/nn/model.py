"""CellModel: an ordered chain of cells with lineage-aware parameter naming.

Parameters are keyed ``"{cell_id}/{layer}.{tensor}"``.  Because a widened
cell keeps its ``cell_id`` and an inserted cell mints a fresh one, two models
related by FedTrans transformations share keys exactly on their common
lineage — which is what makes cross-model weight sharing (soft aggregation,
HeteroFL-style cropping) a pure dictionary operation.

:meth:`CellModel.tensors` is the one place a key is built, from each layer's
declared tensors (``Layer.param_names`` / ``state_names``); the trees, the
arena, the snapshot reader, activeness and the subnet index maps
(:meth:`~CellModel.axis_roles`) read keys and attributes from it.

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

The process executor's snapshot publishing keys on ``(model_id, version)``
(a publish is reused when no version moved).  The cost accessors
:meth:`~CellModel.macs`, :meth:`~CellModel.num_params`, and
:meth:`~CellModel.nbytes` are memoized per version, so hot paths
(compatible-model filtering per client) stop re-walking every cell.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .cells import Cell, ConvCell, DenseCell
from .compute import Workspace
from .layers import BatchNorm2d, Layer, ReLU
from .losses import accuracy, one_hot, softmax_cross_entropy
from .param_ops import ParamTree

__all__ = [
    "Arena",
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


#: Tensor scope -> the ``Layer`` attribute declaring that scope's tensors.
_SCOPES = {"param": "param_names", "state": "state_names"}


def _signature(params: ParamTree, state: ParamTree) -> tuple:
    """What a workspace's layout is built from: every tensor's key, shape and dtype."""
    return tuple((k, v.shape, v.dtype) for tree in (params, state) for k, v in tree.items())


class Arena:
    """A training workspace's parameters and gradients as flat buffers.

    Tensor-major: tensor ``t`` (parameter order) owns one contiguous block
    of each buffer and is stored there in C order with shape ``lead +
    shape_t`` — so replica ``r`` of a stacked tensor has the unstacked
    tensor's shape and strides, the layout CONTRACTS.md I3 pins.  Every
    layer's parameter and gradient attributes are views of these blocks, so
    a step's zero-grad, optimizer update and clip are whole-buffer
    operations (:meth:`repro.fl.client.LocalTrainer.train`).  ``scratch``
    has the same layout and no owner between operations; ``grad_rows`` and
    ``scratch_rows`` view each tensor's block as a ``(K, n)`` matrix, one
    row per replica (``K = 1`` without a replica axis).  The buffers grow to
    the largest cohort the workspace has trained and are re-pointed, not
    reallocated, for a smaller one.
    """

    def __init__(self, model: "CellModel"):
        params, state = model.params(), model.state()
        dtypes = {v.dtype for v in params.values()}
        if len(dtypes) != 1:
            raise ValueError(f"an arena holds one dtype, model {model.model_id} has {dtypes}")
        self.signature = _signature(params, state)
        self._dtype = dtypes.pop()
        # (layer, attribute) of every tensor, in params() / state() order.
        self._slots = [(layer, name) for _, _, layer, name, _ in model.tensors("param")]
        self._state_slots = [(layer, name) for _, _, layer, name, _ in model.tensors("state")]
        self._shapes = [v.shape for v in params.values()]
        self._buffers = (np.empty(0, self._dtype),) * 3
        self.lead: tuple[int, ...] | None = None  # () or (K,): the replica axis, if any

    def load(self, params: ParamTree, state: ParamTree, lead: tuple[int, ...]) -> None:
        """Point the layers at ``lead``-stacked blocks and copy the tensors in."""
        if lead != self.lead:
            self._bind(lead)
        for (layer, name), src in zip(self._slots, params.values()):
            np.copyto(getattr(layer, name), src)  # broadcasting is replicate's repeat
        self.grads.fill(0.0)
        # State is the workspace's own (no stackable layer keeps any).
        for (layer, name), src in zip(self._state_slots, state.values()):
            np.copyto(getattr(layer, name), src)

    def _bind(self, lead: tuple[int, ...]) -> None:
        k = lead[0] if lead else 1
        ends = np.cumsum([0] + [k * math.prod(shape) for shape in self._shapes]).tolist()
        if ends[-1] > self._buffers[0].size:
            self._buffers = tuple(np.empty(ends[-1], self._dtype) for _ in range(3))
        self.params, self.grads, self.scratch = (buf[: ends[-1]] for buf in self._buffers)
        self.grad_rows, self.scratch_rows = [], []
        for (layer, name), shape, start, stop in zip(self._slots, self._shapes, ends, ends[1:]):
            setattr(layer, name, self.params[start:stop].reshape(lead + shape))
            setattr(layer, "g_" + name, self.grads[start:stop].reshape(lead + shape))
            self.grad_rows.append(self.grads[start:stop].reshape(k, -1))
            self.scratch_rows.append(self.scratch[start:stop].reshape(k, -1))
        self.lead = lead


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
        self._shared_ws = Workspace(shared=True)
        self._wire()
        self.input_shape = tuple(input_shape)
        self.num_classes = num_classes
        self.model_id = model_id or _new_model_id()
        self.parent_id = parent_id
        self.birth_round = birth_round
        self.history: list[TransformRecord] = []
        # Length of the leading replica axis of every tensor, or None: only
        # :meth:`replicate` / :meth:`refill` build a stacked model.
        self.replicas: int | None = None
        # Set once this model is a training workspace (:attr:`arena`).
        self._arena: Arena | None = None
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

    def _wire(self) -> None:
        """Set the layers' ``needs_input_grad``, ``in_place``, ``shared_ws``."""
        # The first cell is fed the data batch and nothing reads
        # d(loss)/d(data): a conv or dense stem never computes it.
        if isinstance(self.cells[0], ConvCell):
            self.cells[0].conv.needs_input_grad = False
        elif isinstance(self.cells[0], DenseCell):
            self.cells[0].fc.needs_input_grad = False
        for cell in self.cells:
            # Only the base loop hands each activation and gradient to one
            # layer; a custom forward/backward may read them again.
            plain = type(cell).forward is Cell.forward and type(cell).backward is Cell.backward
            chain = [layer for _, layer in cell._named_layers()]
            for prev, layer in zip([None, *chain], chain):
                layer.shared_ws = self._shared_ws
                if isinstance(layer, (ReLU, BatchNorm2d)):
                    layer.in_place = plain and prev is not None and not prev.keeps_output

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
        version-keyed caches (snapshot reuse, cost memoization) observe
        the change.
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
        respect to the input batch is not part of the result).  ``dout`` is
        consumed: an in-place layer may write into it."""
        for cell in reversed(self.cells):
            dout = cell.backward(dout)

    def loss_and_grad(self, x: np.ndarray, y: np.ndarray) -> float:
        """One forward/backward pass on integer labels ``y``: their
        :func:`~repro.nn.losses.one_hot` rows, then :meth:`target_loss_and_grad`."""
        return self.target_loss_and_grad(x, one_hot(y, self.num_classes, x.dtype))

    def target_loss_and_grad(
        self, x: np.ndarray, target: np.ndarray
    ) -> float | np.ndarray:
        """One forward/backward pass against one-hot ``target`` rows;
        gradients accumulate into the cells.  The loss is one float per
        replica (an array on a stacked workspace)."""
        logits = self.forward(x, train=True)
        loss, dlogits = softmax_cross_entropy(logits, target)
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
        loss, _ = softmax_cross_entropy(logits, one_hot(y, self.num_classes, logits.dtype))
        return loss, accuracy(logits, y)

    # ------------------------------------------------------------------
    # parameters
    # ------------------------------------------------------------------
    def tensors(self, *scopes: str) -> Iterator[tuple[str, Cell, Layer, str, np.ndarray]]:
        """``(key, cell, layer, attribute, tensor)`` of every live tensor of
        ``scopes`` (``"param"``, ``"state"``) in key order: cell, layer, then
        declaration order.  The only code that joins a cell id into a key."""
        declared = [_SCOPES[scope] for scope in scopes]
        for cell in self.cells:
            for lname, layer in cell._named_layers():
                for names in declared:
                    for name in getattr(layer, names):
                        arr = getattr(layer, name)
                        if arr is not None:
                            yield f"{cell.cell_id}/{lname}.{name}", cell, layer, name, arr

    def params(self) -> ParamTree:
        """Live references, keyed by ``cell_id/layer.tensor``."""
        return {key: arr for key, _, _, _, arr in self.tensors("param")}

    def grads(self) -> ParamTree:
        return {key: getattr(layer, "g_" + n) for key, _, layer, n, _ in self.tensors("param")}

    def state(self) -> ParamTree:
        return {key: arr for key, _, _, _, arr in self.tensors("state")}

    def axis_roles(self) -> dict[str, tuple[Cell, tuple[str | None, ...]]]:
        """``key -> (cell, per-axis roles)``: :meth:`Cell.axis_roles` under
        full keys, a layer's state after its parameters."""
        roles = {
            (layer, name): per_axis
            for cell in self.cells
            for (_, layer, name), per_axis in cell._tensor_roles().items()
        }
        return {
            key: (cell, roles[layer, name])
            for key, cell, layer, name, _ in self.tensors("param", "state")
            if (layer, name) in roles
        }

    def get_params(self) -> ParamTree:
        """Deep copies of all parameters."""
        return {k: v.copy() for k, v in self.params().items()}

    def get_state(self) -> ParamTree:
        return {k: v.copy() for k, v in self.state().items()}

    def set_params(self, tree: ParamTree) -> None:
        self.set_tensors(param=tree)

    def set_state(self, tree: ParamTree) -> None:
        self.set_tensors(state=tree)

    def set_tensors(self, **trees: ParamTree) -> None:
        """Copy each tree into the live tensors of its scope (``param``,
        ``state``): exactly their keys (else ``KeyError``) at exactly their
        shapes (else ``ValueError``); nothing broadcasts, and every tree is
        checked before any is written, so a refused call writes nothing."""
        writes = []
        for scope, tree in trees.items():
            live = {key: arr for key, _, _, _, arr in self.tensors(scope)}
            if live.keys() != tree.keys():
                diff = sorted(live.keys() ^ tree.keys())[:8]
                raise KeyError(f"{scope} keys mismatch: {diff}")
            for k, v in tree.items():
                if live[k].shape != np.shape(v):
                    raise ValueError(f"shape mismatch for {k}: {live[k].shape} vs {np.shape(v)}")
                writes.append((live[k], v))
        for dst, v in writes:
            dst[...] = v
        self.bump_version()

    def zero_grad(self) -> None:
        for g in self.grads().values():
            g[...] = 0.0

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
        its parameters and gradients in one :class:`Arena`, every tensor
        copied ``k`` times along a new leading axis.  ``k == 1`` is the
        no-axis case: tensors keep their shapes and :attr:`replicas` stays
        ``None``.

        Replica ``r`` of a forward/backward pass over ``(k, B, ...)``
        activations is bit-identical to that pass on the 2-D slice, so one
        workspace trains a cohort of ``k`` participants of this model in one
        loop (:meth:`repro.fl.client.LocalTrainer.train`).  ``k > 1`` is
        refused unless every layer declares the axis (``Layer.replica_axis``:
        Dense and ReLU; not Conv, pooling, BatchNorm, LayerNorm or
        attention).  A workspace trains cohorts and runs a fleet sweep's
        forward passes (K = 1, :meth:`predict`); it is not transformed or
        published, and :meth:`refill` reloads it for the next job.
        """
        work = self.clone(keep_id=True)
        work.refill(self, k)
        return work

    def refill(self, source: "CellModel", k: int) -> bool:
        """Load ``k`` replicas of ``source``'s parameters and state into this
        workspace, as :meth:`replicate` would build them.

        ``np.copyto`` into the arena (broadcasting is the replica repeat),
        gradients zeroed, :attr:`replicas` set and the version stamped to
        ``source.version`` (the derived-model pattern of
        :meth:`sync_version`): a refilled workspace is a fresh
        ``source.replicate(k)`` in all but its buffers' addresses.  Returns
        ``False`` and touches nothing when ``source``'s tensor keys, shapes
        or dtypes are not this workspace's: the caller builds a new one.
        """
        if k < 1:
            raise ValueError(f"a workspace needs at least one replica, got {k}")
        if k > 1 and not self.stackable:
            raise ValueError(f"model {self.model_id} holds layers with no replica axis")
        params, state = source.params(), source.state()
        if self._arena is None:
            self._arena = Arena(self)  # this model's own layout, recorded once
        if _signature(params, state) != self._arena.signature:
            return False
        self._arena.load(params, state, (k,) if k > 1 else ())
        self.replicas = k if k > 1 else None
        self.sync_version(source.version)
        return True

    @property
    def arena(self) -> Arena:
        """This workspace's flat parameter and gradient buffers.  A model
        that is not a workspace yet (a plain clone handed to the trainer)
        becomes one in place: its tensors move into an arena unchanged."""
        if self._arena is None:
            self.refill(self, 1)
        return self._arena

    def drop_caches(self) -> None:
        """Drop every layer's forward caches, keeping its pooled scratch
        buffers warm for the next step (:meth:`Cell.drop_caches`)."""
        for cell in self.cells:
            cell.drop_caches()

    def release_scratch(self) -> None:
        """Drop every layer's forward caches and pooled scratch buffers — what
        a discarded clone released — keeping parameters, gradients and state."""
        for cell in self.cells:
            cell.release_scratch()
        self._shared_ws.clear()

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
        self._wire()
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
