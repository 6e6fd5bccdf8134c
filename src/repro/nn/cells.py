"""The Cell abstraction: minimal transformable model-architecture blocks.

FedTrans (§3) performs every model transformation at the granularity of a
*Cell* — "the minimum component of the model architecture (e.g., a
convolution layer or a ResNet block)".  A model is an ordered list of cells
(:class:`repro.nn.model.CellModel`); widening and deepening rewrite cells
in a function-preserving way (Net2Net / network-morphism style):

* **widen** — output channels (or an internal hidden width) are duplicated by
  a random mapping that keeps the original channels first; the consumer of
  those channels divides the duplicated columns by their multiplicity so the
  pre- and post-widen models compute the same function.
* **deepen** — an identity cell is inserted.  Identity conv/dense cells carry
  exact identity weights (valid because cell outputs pass through ReLU, and
  ``relu(identity(x)) == x`` for ``x >= 0``); identity ViT cells zero their
  residual-branch output projections.

Each cell carries lineage metadata (``cell_id``, ``origin``, ``widen_count``,
``last_op``) used by FedTrans's architectural-similarity measure (§4.2) and
by the alternating widen/deepen control flow (Fig. 5).

Adding a cell kind = a constructor record + wiring rows.  A subclass
declares ``ctor_args`` (constructor keyword -> how to read it back from the
live tensors; :mod:`repro.nn.serialization` writes and rebuilds specs from
it, given the class's row in ``CELL_TYPES``) and ``wiring`` (``layer ->
(input role, output role)`` with roles ``'in'`` / ``'out'`` / ``'hidden'``);
each layer type declares which axis of which tensor is its input / output
side (``Layer.tensor_axes``).
:class:`Cell` executes those tables: ``widen_output`` / ``widen_internal`` /
``expand_input`` / ``narrow`` / ``axis_roles`` exist once, there.  A role on
a layer's output axis grows (He-normal or duplicated channels), on its input
axis it is consumer-expanded, and tensors are visited in table order — which
is therefore the RNG draw order (CONTRACTS.md I1).

Design notes recorded in DESIGN.md:

* Inserted identity cells are norm-free — a train-mode BatchNorm cannot be an
  exact identity on unseen batch statistics.
* Dense cells use no LayerNorm: normalizing across features breaks the
  function-preservation of channel duplication (BatchNorm, being
  per-channel, is safe and is kept in conv cells).
* Residual and ViT cells widen *internally* (hidden width), keeping their
  external interface fixed; plain conv/dense cells widen their output
  channels and propagate an expansion to the next cell.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterator
from typing import Literal

import numpy as np

from .layers import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Dense,
    GELU,
    GlobalAvgPool2d,
    Layer,
    LayerNorm,
    MaxPool2d,
    ReLU,
)
from .attention import MultiHeadSelfAttention, PatchEmbed
from .compute import accum_dtype
from .init import identity_conv_kernel, identity_dense

__all__ = [
    "Cell",
    "CELL_TYPES",
    "ConvCell",
    "ResidualConvCell",
    "DenseCell",
    "ViTCell",
    "ViTStemCell",
    "ConvClassifierCell",
    "FlatClassifierCell",
    "TokenClassifierCell",
    "WidenMapping",
    "make_widen_mapping",
    "cell_id_counter",
    "set_cell_id_counter",
]

Interface = Literal["chw", "flat", "tokens"]

_id_counter = itertools.count()
_id_counter_position = 0  # ids handed out so far (mirrors _id_counter)


def _new_cell_id(prefix: str) -> str:
    """Monotonic, human-readable, process-unique cell identifier."""
    global _id_counter_position
    _id_counter_position += 1
    return f"{prefix}{next(_id_counter):04d}"


def cell_id_counter() -> int:
    """How many cell ids this process has handed out (checkpointing)."""
    return _id_counter_position


def set_cell_id_counter(position: int) -> None:
    """Restore the id counter so cells minted after a resume (deepen
    transforms) get the same ids an uninterrupted run would mint."""
    global _id_counter, _id_counter_position
    if position < 0:
        raise ValueError(f"cell id counter must be >= 0, got {position}")
    _id_counter = itertools.count(position)
    _id_counter_position = position


class WidenMapping:
    """Result of widening a channel axis.

    Two function-preserving schemes share this record:

    * ``zero_new=False`` (Net2Net duplication, the paper's stated rule):
      ``mapping[j]`` is the source channel replicated into new channel
      ``j``; consumers divide duplicated input columns by the source's
      multiplicity so the composite function is unchanged.
    * ``zero_new=True`` (zero-expansion): new channels carry fresh random
      incoming weights while the consumer's new input columns start at
      zero, so the new pathway contributes nothing initially — also exactly
      function-preserving, but free of the duplicate-symmetry problem
      (identical twins receive no first-order force pulling them apart, so
      duplicated capacity can stay collapsed for a long time).
    """

    def __init__(self, mapping: np.ndarray, old_width: int, zero_new: bool = False):
        self.mapping = mapping
        self.old_width = old_width
        self.new_width = len(mapping)
        self.counts = np.bincount(mapping, minlength=old_width)
        self.zero_new = zero_new

    def scale_for_consumer(self) -> np.ndarray:
        """Per-new-channel divisor for the consuming layer (duplication)."""
        return self.counts[self.mapping].astype(accum_dtype())


def make_widen_mapping(
    old_width: int, factor: float, rng: np.random.Generator, mode: str = "dup"
) -> WidenMapping:
    """Build a widening map that keeps original channels first.

    The new width is ``ceil(old * factor)`` and must strictly exceed the old
    width.  With ``mode="dup"`` extra channels are uniform random duplicates
    of existing ones, exactly the paper's "randomly select columns from the
    pre-expanded Cell's weights" rule; ``mode="zero"`` marks the extra
    channels as fresh zero-outgoing pathways (see :class:`WidenMapping`).
    """
    if factor <= 1.0:
        raise ValueError(f"widen factor must exceed 1.0, got {factor}")
    if mode not in ("dup", "zero"):
        raise ValueError(f"unknown widen mode {mode!r}")
    new_width = int(np.ceil(old_width * factor))
    if new_width <= old_width:
        new_width = old_width + 1
    extra = rng.integers(0, old_width, size=new_width - old_width)
    return WidenMapping(
        np.concatenate([np.arange(old_width), extra]), old_width, zero_new=mode == "zero"
    )


def _grow_axis(
    arr: np.ndarray,
    wm: WidenMapping,
    axis: int,
    rng: np.random.Generator,
    noise: float,
) -> np.ndarray:
    """Widened-cell weight growth along ``axis`` (incoming side).

    Duplication mode gathers by the mapping and perturbs the duplicates;
    zero mode appends fresh He-normal channels (std ``sqrt(2 / fan_in)``,
    the fan-in being the tensor's size per entry of ``axis``).
    """
    if wm.zero_new:
        shape = list(arr.shape)
        shape[axis] = wm.new_width - wm.old_width
        extra = rng.normal(0.0, np.sqrt(2.0 / (arr.size // arr.shape[axis])), shape)
        if extra.dtype != arr.dtype:
            extra = extra.astype(arr.dtype)
        return np.concatenate([arr, extra], axis=axis)
    out = _dup_axis(arr, wm.mapping, axis)
    _break_symmetry(out, axis, wm.old_width, noise, rng)
    return out


def _grow_axis_fill(arr: np.ndarray, wm: WidenMapping, axis: int, fill: float) -> np.ndarray:
    """Per-channel vectors (bias, BN rows): duplicate, or append ``fill``."""
    if wm.zero_new:
        shape = list(arr.shape)
        shape[axis] = wm.new_width - wm.old_width
        return np.concatenate([arr, np.full(shape, fill, dtype=arr.dtype)], axis=axis)
    return _dup_axis(arr, wm.mapping, axis)


def _expand_consumer_axis(
    arr: np.ndarray,
    wm: WidenMapping,
    axis: int,
    rng: np.random.Generator | None = None,
    noise: float = 0.0,
) -> np.ndarray:
    """Consumer-side input expansion along ``axis``.

    Duplication mode divides the duplicated columns by their multiplicity
    (function preservation) and optionally perturbs them (symmetry
    breaking); zero mode appends zero columns so the new pathway starts
    silent.
    """
    if wm.zero_new:
        shape = list(arr.shape)
        shape[axis] = wm.new_width - wm.old_width
        return np.concatenate([arr, np.zeros(shape, dtype=arr.dtype)], axis=axis)
    out = _dup_axis(arr, wm.mapping, axis)
    scale_shape = [1] * arr.ndim
    scale_shape[axis] = wm.new_width
    # Duplication counts are small exact integers: casting the divisor to
    # the tensor dtype keeps float32 models float32 without changing the
    # float64 result.
    out = out / wm.scale_for_consumer().reshape(scale_shape).astype(out.dtype, copy=False)
    if rng is not None:
        _break_symmetry(out, axis, wm.old_width, noise, rng)
    return out


class Cell:
    """Base class for model cells.

    A subclass declares what it is made of — ``ctor_args``, ``wiring``, its
    layers — and inherits every structural transform; it overrides
    ``forward``/``backward`` only when its layers do not form a plain chain.
    ``in_interface``/``out_interface`` describe the activation layout so
    :class:`~repro.nn.model.CellModel` can validate the chain.
    """

    kind: str = "cell"
    in_interface: Interface = "chw"
    out_interface: Interface = "chw"
    transformable: bool = True
    can_widen_output: bool = False
    can_widen_internal: bool = False

    #: The architecture record: constructor keyword -> how to read its value
    #: back from the live cell (widths come from tensor shapes, so a widened
    #: cell describes itself).  Written into specs in this order.
    ctor_args: dict[str, Callable[["Cell"], object]] = {}
    #: ``layer attribute -> (input role, output role)``, each 'in' | 'out' |
    #: 'hidden' | None (None = that side is never resized).  Row order is
    #: the order transforms visit tensors, hence the RNG draw order.
    wiring: dict[str, tuple[str | None, str | None]] = {}

    def __init__(self, cell_id: str | None = None, origin: str = "root"):
        self.cell_id = cell_id or _new_cell_id("c")
        self.origin = origin  # 'root' | 'inserted'
        self.widen_count = 0
        self.last_op: str | None = None  # 'widen' | 'deepen' | None

    # -- execution ---------------------------------------------------------
    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        for _, layer in self._named_layers():
            x = layer.forward(x, train)
        return x

    def backward(self, dout: np.ndarray) -> np.ndarray:
        for _, layer in reversed(self._named_layers()):
            dout = layer.backward(dout)
        return dout

    def _named_layers(self) -> list[tuple[str, Layer]]:
        raise NotImplementedError

    # -- parameter access ----------------------------------------------------
    def params(self) -> dict[str, np.ndarray]:
        return self._short_keyed("params")

    def grads(self) -> dict[str, np.ndarray]:
        return self._short_keyed("grads")

    def state(self) -> dict[str, np.ndarray]:
        return self._short_keyed("state")

    def _short_keyed(self, accessor: str) -> dict[str, np.ndarray]:
        """A layer accessor's tensors keyed ``layer.tensor`` (no cell id)."""
        return {
            f"{lname}.{k}": v
            for lname, layer in self._named_layers()
            for k, v in getattr(layer, accessor)().items()
        }

    def num_params(self) -> int:
        return int(sum(v.size for v in self.params().values()))

    # -- cost accounting -----------------------------------------------------
    def macs(self, input_shape: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
        total = 0
        shape = input_shape
        for _, layer in self._named_layers():
            m, shape = layer.macs(shape)
            total += m
        return total, shape

    # -- the wiring table, executed --------------------------------------------
    def _roles(self) -> set[str]:
        return {role for pair in self.wiring.values() for role in pair if role}

    def _role_axes(self) -> Iterator[tuple[str, Layer, str, int, str, bool, float | None]]:
        """Every live role-carrying axis, in table order: ``(layer name,
        layer, tensor name, axis, role, on the output side, fresh fill)``."""
        for lname, roles in self.wiring.items():
            layer = getattr(self, lname)
            if layer is None:  # optional layer (a norm-free ConvCell's bn)
                continue
            for tname, (*axes, fresh) in layer.tensor_axes.items():
                if getattr(layer, tname) is None:  # bias-free conv
                    continue
                for axis, role, grows in zip(axes, roles, (False, True)):
                    if axis is not None and role is not None:
                        yield lname, layer, tname, axis, role, grows, fresh

    def _rewrite(self, edit: Callable[..., np.ndarray | None]) -> None:
        """Replace each tagged tensor by ``edit(arr, axis, role, grows, fresh)``
        wherever that returns an array, then re-allocate the gradient
        buffers of the layers it touched."""
        touched: dict[str, Layer] = {}
        for lname, layer, tname, axis, role, grows, fresh in self._role_axes():
            new = edit(getattr(layer, tname), axis, role, grows, fresh)
            if new is not None:
                setattr(layer, tname, new)
                touched[lname] = layer
        for layer in touched.values():
            layer.resize_grads()

    def _resize(
        self, role: str, wm: WidenMapping, rng: np.random.Generator | None, noise: float
    ) -> None:
        """Widen every axis tagged ``role`` by ``wm``: on a layer's output
        side the channels grow (weights randomly, per-channel vectors by
        their fresh fill), on its input side they are consumer-expanded."""

        def edit(arr, axis, tagged, grows, fresh):
            if tagged != role:
                return None
            # Consumer side, duplication mode: outgoing-side symmetry
            # breaking matters — a duplicate's incoming-weight gradient is
            # driven by its *outgoing* columns.  Zero mode: the new columns
            # start silent (zero).
            if not grows:
                return _expand_consumer_axis(arr, wm, axis, rng, noise)
            if fresh is None:
                return _grow_axis(arr, wm, axis, rng, noise)
            return _grow_axis_fill(arr, wm, axis, fresh)

        self._rewrite(edit)

    # -- structural transforms ------------------------------------------------
    def widen_output(
        self,
        factor: float,
        rng: np.random.Generator,
        noise: float = 0.0,
        mode: str = "dup",
    ) -> WidenMapping:
        if not self.can_widen_output:
            raise NotImplementedError(f"{self.kind} cells cannot widen their output")
        wm = make_widen_mapping(self.out_dim, factor, rng, mode)
        self._resize("out", wm, rng, noise)
        return wm

    def widen_internal(
        self,
        factor: float,
        rng: np.random.Generator,
        noise: float = 0.0,
        mode: str = "dup",
    ) -> None:
        if not self.can_widen_internal:
            raise NotImplementedError(f"{self.kind} cells cannot widen internally")
        self._resize("hidden", make_widen_mapping(self.hidden_dim, factor, rng, mode), rng, noise)

    def expand_input(
        self, wm: WidenMapping, rng: np.random.Generator | None = None, noise: float = 0.0
    ) -> None:
        if "in" not in self._roles():
            raise NotImplementedError(f"{self.kind} cells cannot expand their input")
        self._resize("in", wm, rng, noise)

    def identity_like(self, rng: np.random.Generator) -> "Cell":
        """The exact-identity cell ``deepen`` inserts after this one: the
        plain cell of its output interface unless a subclass says otherwise."""
        if self.out_interface == "tokens":
            raise ValueError("token identity cells require a ViT anchor")
        return (ConvCell if self.out_interface == "chw" else DenseCell).identity(self.out_dim)

    # -- subnet extraction (HeteroFL / FLuID machinery) -------------------
    #
    # ``narrow`` keeps only the given channel indices.  Unlike widen/deepen
    # it is *lossy by design* — HeteroFL-style submodels crop the global
    # model.  ``axis_roles`` names, for each parameter tensor, which axes
    # correspond to the cell's out / in / hidden channel dimensions so that
    # subnet updates can be scattered back into global coordinates.

    #: roles for narrowable axes: param key -> tuple of per-axis roles,
    #: each 'out' | 'in' | 'hidden' | None (None = axis never narrowed).
    def axis_roles(self) -> dict[str, tuple[str | None, ...]]:
        return {f"{lname}.{tname}": r for (lname, _, tname), r in self._tensor_roles().items()}

    def _tensor_roles(self) -> dict[tuple[str, Layer, str], tuple[str | None, ...]]:
        """:meth:`axis_roles` keyed ``(layer name, layer, tensor name)``."""
        roles: dict[tuple[str, Layer, str], list[str | None]] = {}
        for lname, layer, tname, axis, role, _, _ in self._role_axes():
            per_axis = roles.setdefault((lname, layer, tname), [None] * getattr(layer, tname).ndim)
            per_axis[axis] = role
        return {slot: tuple(per_axis) for slot, per_axis in roles.items()}

    def narrow(
        self,
        out_idx: np.ndarray | None = None,
        in_idx: np.ndarray | None = None,
        hidden_idx: np.ndarray | None = None,
    ) -> None:
        keep = {"out": out_idx, "in": in_idx, "hidden": hidden_idx}
        roles = self._roles()
        if not roles:
            raise NotImplementedError(f"{self.kind} cells cannot be narrowed")
        for role, idx in keep.items():
            if idx is not None and role not in roles:
                raise ValueError(f"{self.kind} cells have no {role} axis")

        def take(arr, axis, role, grows, fresh):
            return None if keep[role] is None else _dup_axis(arr, keep[role], axis)

        self._rewrite(take)

    def clone(self) -> "Cell":
        """Deep copy preserving the cell id and lineage metadata."""
        import copy

        new = copy.deepcopy(self)
        new.drop_caches()  # clones do not pin activations; their pools start empty
        return new

    def drop_caches(self) -> None:
        """Drop the layers' forward caches, which can pin arrays no pooled
        buffer owns, such as a step's input batch.  The buffers stay."""
        for _, layer in self._named_layers():
            for attr in ("_cache", "_x", "_shape"):
                if hasattr(layer, attr):
                    setattr(layer, attr, None)

    def release_scratch(self) -> None:
        """Drop the layers' forward caches and empty their pooled scratch."""
        self.drop_caches()
        for _, layer in self._named_layers():
            if hasattr(layer, "_ws"):
                layer._ws.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.cell_id} params={self.num_params()}>"


def _dup_axis(arr: np.ndarray, mapping: np.ndarray, axis: int) -> np.ndarray:
    """Gather ``arr`` along ``axis`` using ``mapping`` (channel duplication)."""
    return np.take(arr, mapping, axis=axis)


def _break_symmetry(
    arr: np.ndarray,
    axis: int,
    old_width: int,
    noise: float,
    rng: np.random.Generator,
) -> None:
    """Perturb the *duplicated* channels of a widened tensor in place.

    Pure Net2Net duplication leaves the new channels exactly equal to their
    sources — identical incoming and outgoing weights mean identical
    gradients, so the duplicates never diverge and the widened model's
    effective capacity stays that of its parent.  Following Chen et al.
    (Net2Net), a small noise (``noise`` x the tensor's std) on the new
    channels breaks the symmetry; ``noise=0`` keeps the transform exactly
    function-preserving (used by the property tests).
    """
    if noise <= 0.0 or arr.shape[axis] <= old_width:
        return
    sl = [slice(None)] * arr.ndim
    sl[axis] = slice(old_width, None)
    target = arr[tuple(sl)]
    scale = noise * max(float(arr.std()), 1e-8)
    target += rng.normal(0.0, scale, size=target.shape)


class ConvCell(Cell):
    """Conv -> (BatchNorm) -> ReLU -> (pool).

    The workhorse cell for CNN models.  Supports output widening, input
    expansion, and identity construction (for deepen).
    """

    kind = "conv"
    in_interface = "chw"
    out_interface = "chw"
    can_widen_output = True
    ctor_args = {
        "in_channels": lambda c: c.in_dim,
        "out_channels": lambda c: c.out_dim,
        "kernel": lambda c: c.conv.kernel,
        "stride": lambda c: c.conv.stride,
        "norm": lambda c: c.bn is not None,
        "pool": lambda c: c._pool_kind,
    }
    wiring = {"conv": ("in", "out"), "bn": ("out", "out")}

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        rng: np.random.Generator,
        kernel: int = 3,
        stride: int = 1,
        norm: bool = True,
        pool: str | None = None,
        transformable: bool = True,
        cell_id: str | None = None,
        origin: str = "root",
    ):
        super().__init__(cell_id, origin)
        self.transformable = transformable
        # A bias ahead of BatchNorm is redundant (BN subtracts the mean), so
        # it exists only on norm-free cells.
        self.conv = Conv2d(in_channels, out_channels, kernel, rng, stride=stride, bias=not norm)
        self.bn = BatchNorm2d(out_channels) if norm else None
        self.act = ReLU()
        if pool is None:
            self.pool = None
        elif pool == "max":
            self.pool = MaxPool2d(2)
        elif pool == "avg":
            self.pool = AvgPool2d(2)
        else:
            raise ValueError(f"unknown pool kind {pool!r}")
        self._pool_kind = pool

    @property
    def in_dim(self) -> int:
        return self.conv.in_channels

    @property
    def out_dim(self) -> int:
        return self.conv.out_channels

    def _named_layers(self) -> list[tuple[str, Layer]]:
        layers: list[tuple[str, Layer]] = [("conv", self.conv)]
        if self.bn is not None:
            layers.append(("bn", self.bn))
        layers.append(("act", self.act))
        if self.pool is not None:
            layers.append(("pool", self.pool))
        return layers

    @classmethod
    def identity(cls, channels: int, kernel: int = 3) -> "ConvCell":
        """An exact-identity conv cell (norm-free; see module docstring)."""
        rng = np.random.default_rng(0)  # immediately overwritten below
        cell = cls(
            channels,
            channels,
            rng,
            kernel=kernel,
            norm=False,
            transformable=True,
            origin="inserted",
        )
        cell.conv.w = identity_conv_kernel(channels, kernel)  # the bias is born zero
        return cell


class ResidualConvCell(Cell):
    """ResNet-style block: conv-bn-relu-conv-bn + 1x1 projection skip, relu.

    The skip path always uses an explicit 1x1 projection so that input
    expansion (after an upstream widen) has a uniform implementation.  The
    block widens *internally* — its hidden channel count grows while the
    external interface stays fixed.
    """

    kind = "residual"
    in_interface = "chw"
    out_interface = "chw"
    can_widen_internal = True
    ctor_args = {
        "in_channels": lambda c: c.in_dim,
        "out_channels": lambda c: c.out_dim,
        "hidden": lambda c: c.hidden_dim,
        "stride": lambda c: c.conv1.stride,
    }
    wiring = {
        "conv1": ("in", "hidden"),
        "bn1": ("hidden", "hidden"),
        "conv2": ("hidden", "out"),
        "bn2": ("out", "out"),
        "proj": ("in", "out"),
    }

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        rng: np.random.Generator,
        hidden: int | None = None,
        stride: int = 1,
        transformable: bool = True,
        cell_id: str | None = None,
        origin: str = "root",
    ):
        super().__init__(cell_id, origin)
        self.transformable = transformable
        hidden = hidden or out_channels
        self.conv1 = Conv2d(in_channels, hidden, 3, rng, stride=stride, bias=False)
        self.bn1 = BatchNorm2d(hidden)
        self.act1 = ReLU()
        self.conv2 = Conv2d(hidden, out_channels, 3, rng, bias=False)
        self.bn2 = BatchNorm2d(out_channels)
        self.proj = Conv2d(in_channels, out_channels, 1, rng, stride=stride, pad=0)
        self.act_out = ReLU()

    @property
    def in_dim(self) -> int:
        return self.conv1.in_channels

    @property
    def out_dim(self) -> int:
        return self.conv2.out_channels

    @property
    def hidden_dim(self) -> int:
        return self.conv1.out_channels

    def _named_layers(self) -> list[tuple[str, Layer]]:
        return [
            ("conv1", self.conv1),
            ("bn1", self.bn1),
            ("act1", self.act1),
            ("conv2", self.conv2),
            ("bn2", self.bn2),
            ("proj", self.proj),
            ("act_out", self.act_out),
        ]

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        h = self.act1.forward(self.bn1.forward(self.conv1.forward(x, train), train), train)
        y = self.bn2.forward(self.conv2.forward(h, train), train)
        s = self.proj.forward(x, train)
        return self.act_out.forward(y + s, train)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        d = self.act_out.backward(dout)
        ds = self.proj.backward(d)
        dy = self.conv2.backward(self.bn2.backward(d))
        dh = self.conv1.backward(self.bn1.backward(self.act1.backward(dy)))
        return dh + ds

    def macs(self, input_shape: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
        m1, shape1 = self.conv1.macs(input_shape)
        m2, shape2 = self.conv2.macs(shape1)
        mp, _ = self.proj.macs(input_shape)
        return m1 + m2 + mp, shape2

    def identity_like(self, rng: np.random.Generator) -> "ResidualConvCell":
        return ResidualConvCell.identity(self.out_dim)

    @classmethod
    def identity(cls, channels: int) -> "ResidualConvCell":
        """Residual cell computing the identity: zeroed main branch, identity skip."""
        rng = np.random.default_rng(0)
        cell = cls(channels, channels, rng, origin="inserted")
        cell.conv2.w = np.zeros_like(cell.conv2.w)
        cell.proj.w = identity_conv_kernel(channels, 1)  # the bias is born zero
        return cell


class DenseCell(Cell):
    """Dense -> ReLU; the MLP analogue of :class:`ConvCell`."""

    kind = "dense"
    in_interface = "flat"
    out_interface = "flat"
    can_widen_output = True
    ctor_args = {"in_features": lambda c: c.in_dim, "out_features": lambda c: c.out_dim}
    wiring = {"fc": ("in", "out")}

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        transformable: bool = True,
        cell_id: str | None = None,
        origin: str = "root",
    ):
        super().__init__(cell_id, origin)
        self.transformable = transformable
        self.fc = Dense(in_features, out_features, rng)
        self.act = ReLU()

    @property
    def in_dim(self) -> int:
        return self.fc.in_features

    @property
    def out_dim(self) -> int:
        return self.fc.out_features

    def _named_layers(self) -> list[tuple[str, Layer]]:
        return [("fc", self.fc), ("act", self.act)]

    @classmethod
    def identity(cls, features: int) -> "DenseCell":
        rng = np.random.default_rng(0)
        cell = cls(features, features, rng, origin="inserted")
        cell.fc.w = identity_dense(features)  # the bias is born zero
        return cell


class ViTCell(Cell):
    """Pre-norm transformer encoder block; widens its MLP hidden width."""

    kind = "vit"
    in_interface = "tokens"
    out_interface = "tokens"
    can_widen_internal = True
    ctor_args = {
        "dim": lambda c: c.in_dim,
        "heads": lambda c: c.attn.heads,
        "mlp_hidden": lambda c: c.hidden_dim,
    }
    # The token dimension is shared by every ViT cell and is never resized;
    # only the MLP hidden width grows (widen) or shrinks (subnets).
    wiring = {"fc1": (None, "hidden"), "fc2": ("hidden", None)}

    def __init__(
        self,
        dim: int,
        heads: int,
        mlp_hidden: int,
        rng: np.random.Generator,
        transformable: bool = True,
        cell_id: str | None = None,
        origin: str = "root",
    ):
        super().__init__(cell_id, origin)
        self.transformable = transformable
        self.ln1 = LayerNorm(dim)
        self.attn = MultiHeadSelfAttention(dim, heads, rng)
        self.ln2 = LayerNorm(dim)
        self.fc1 = Dense(dim, mlp_hidden, rng)
        self.act = GELU()
        self.fc2 = Dense(mlp_hidden, dim, rng)

    @property
    def in_dim(self) -> int:
        return self.ln1.features

    @property
    def out_dim(self) -> int:
        return self.ln1.features

    @property
    def hidden_dim(self) -> int:
        return self.fc1.out_features

    def _named_layers(self) -> list[tuple[str, Layer]]:
        return [
            ("ln1", self.ln1),
            ("attn", self.attn),
            ("ln2", self.ln2),
            ("fc1", self.fc1),
            ("act", self.act),
            ("fc2", self.fc2),
        ]

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        a = self.attn.forward(self.ln1.forward(x, train), train)
        x1 = x + a
        n, t, d = x1.shape
        h = self.ln2.forward(x1, train)
        h2 = self.fc1.forward(h.reshape(n * t, d), train)
        h3 = self.fc2.forward(self.act.forward(h2, train), train)
        self._tok_shape = (n, t, d)
        return x1 + h3.reshape(n, t, d)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        n, t, d = self._tok_shape
        dh3 = dout.reshape(n * t, d)
        dh = self.fc1.backward(self.act.backward(self.fc2.backward(dh3)))
        dx1 = dout + self.ln2.backward(dh.reshape(n, t, d))
        da = self.attn.backward(dx1)
        return dx1 + self.ln1.backward(da)

    def macs(self, input_shape: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
        t, d = input_shape
        m_attn, _ = self.attn.macs((t, d))
        m_mlp = t * (d * self.hidden_dim + self.hidden_dim * d)
        return m_attn + m_mlp, (t, d)

    def identity_like(self, rng: np.random.Generator) -> "ViTCell":
        return ViTCell.identity(self.out_dim, self.attn.heads, self.hidden_dim, rng)

    @classmethod
    def identity(
        cls, dim: int, heads: int, mlp_hidden: int, rng: np.random.Generator
    ) -> "ViTCell":
        """Exact-identity block: both residual branches project to zero."""
        cell = cls(dim, heads, mlp_hidden, rng, origin="inserted")
        cell.attn.w_out = np.zeros_like(cell.attn.w_out)  # the biases are born zero
        cell.fc2.w = np.zeros_like(cell.fc2.w)
        return cell


class ViTStemCell(Cell):
    """Patch embedding stem; not transformable."""

    kind = "vit_stem"
    in_interface = "chw"
    out_interface = "tokens"
    transformable = False
    ctor_args = {
        "in_channels": lambda c: c.embed.in_channels,
        "image_size": lambda c: c.embed.image_size,
        "patch": lambda c: c.embed.patch,
        "dim": lambda c: c.embed.dim,
    }

    def __init__(
        self,
        in_channels: int,
        image_size: int,
        patch: int,
        dim: int,
        rng: np.random.Generator,
        cell_id: str | None = None,
    ):
        super().__init__(cell_id)
        self.transformable = False
        self.embed = PatchEmbed(in_channels, image_size, patch, dim, rng)

    @property
    def in_dim(self) -> int:
        return self.embed.in_channels

    @property
    def out_dim(self) -> int:
        return self.embed.dim

    def _named_layers(self) -> list[tuple[str, Layer]]:
        return [("embed", self.embed)]


class _ClassifierCell(Cell):
    """Linear head over (pooled) features; not transformable.  The three
    classifiers differ only in how they reach flat features."""

    kind = "classifier"
    out_interface = "flat"
    transformable = False
    ctor_args = {"in_dim": lambda c: c.in_dim, "num_classes": lambda c: c.out_dim}
    wiring = {"head": ("in", None)}

    def __init__(
        self,
        in_dim: int,
        num_classes: int,
        rng: np.random.Generator,
        cell_id: str | None = None,
    ):
        super().__init__(cell_id)
        self.transformable = False
        self.head = Dense(in_dim, num_classes, rng)

    @property
    def in_dim(self) -> int:
        return self.head.in_features

    @property
    def out_dim(self) -> int:
        return self.head.out_features

    def _named_layers(self) -> list[tuple[str, Layer]]:
        return [("head", self.head)]


class FlatClassifierCell(_ClassifierCell):
    """Linear head over flat features; not transformable."""

    in_interface = "flat"


class ConvClassifierCell(_ClassifierCell):
    """Global average pool + linear head for CHW features; not transformable."""

    in_interface = "chw"

    def __init__(
        self,
        in_dim: int,
        num_classes: int,
        rng: np.random.Generator,
        cell_id: str | None = None,
    ):
        super().__init__(in_dim, num_classes, rng, cell_id)
        self.gap = GlobalAvgPool2d()

    def _named_layers(self) -> list[tuple[str, Layer]]:
        return [("gap", self.gap), ("head", self.head)]


class TokenClassifierCell(_ClassifierCell):
    """Mean-pool tokens + linear head (ViT); not transformable."""

    in_interface = "tokens"
    # Nothing upstream of it changes width (ViT cells widen internally), so
    # its input is never expanded or narrowed.
    wiring = {}
    _tokens: int | None = None  # token count of the last forward

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        self._tokens = x.shape[1]
        return self.head.forward(x.mean(axis=1), train)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        dpool = self.head.backward(dout)
        t = self._tokens
        return np.broadcast_to(dpool[:, None, :], (dpool.shape[0], t, dpool.shape[1])) / t

    def macs(self, input_shape: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
        t, d = input_shape
        m, out_shape = self.head.macs((d,))
        return m, out_shape


#: Spec ``type`` -> class: the cell kinds :mod:`repro.nn.serialization` can
#: write and rebuild (checkpoints, snapshot headers).
CELL_TYPES: dict[str, type[Cell]] = {
    cls.__name__: cls
    for cls in (
        ConvCell,
        ResidualConvCell,
        DenseCell,
        ViTCell,
        ViTStemCell,
        ConvClassifierCell,
        FlatClassifierCell,
        TokenClassifierCell,
    )
}
