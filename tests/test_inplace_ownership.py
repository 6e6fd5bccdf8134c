"""In-place writes: where a model lets a layer write into the buffers it is
handed, and the witness that doing so changes no bit.

``CellModel`` marks a ``ReLU`` or ``BatchNorm2d`` ``in_place`` when it sits
inside a cell's plain chain (the base ``Cell.forward``/``backward`` loop),
is not the cell's first layer, and follows a layer that does not keep its
output (``Layer.keeps_output``: ``MaxPool2d``, ``ReLU``).  Such a layer
writes its output into the activation it was handed and its ``dx`` into
the gradient it was handed; every other layer, and every layer outside a
model, returns fresh arrays and never writes its arguments.  The model also
points every layer at its one shared workspace for call-local temporaries
(``Layer.shared_ws``).

* **Bit identity** — training steps and a ragged-batch predict on the wired
  model equal, byte for byte, the same calls on a workspace with every
  ``in_place`` flag cleared: losses, gradients, parameters, state, logits.
* **Structure** — over every ``CELL_TYPES`` kind, also after widen, deepen
  and narrow, only a ``ReLU``/``BatchNorm2d`` of a plain chain is marked,
  never a cell's first layer, never one after a layer that keeps its
  output; and the guard does fail on such a marking.
* **Standalone layers** — every layer class leaves the bytes of ``x`` and
  ``dout`` unchanged.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.subnet import build_subnet, ratio_spec
from repro.nn import SGD, CellModel, mlp, set_compute_dtype, small_cnn, small_resnet, vit_tiny
from repro.nn.attention import MultiHeadSelfAttention, PatchEmbed
from repro.nn.cells import CELL_TYPES, Cell, ConvCell, ConvClassifierCell
from repro.nn.layers import (
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
from repro.nn.losses import one_hot, softmax_cross_entropy


@pytest.fixture(autouse=True)
def _restore_compute_dtype():
    yield
    set_compute_dtype("float64")


def _stride2_cnn(input_shape, num_classes, rng):
    """A stem plus a stride-2 cell: the dilated input-gradient path."""
    cells = [
        ConvCell(input_shape[0], 8, rng, transformable=False),
        ConvCell(8, 8, rng, stride=2),
        ConvClassifierCell(8, num_classes, rng),
    ]
    return CellModel(cells, input_shape, num_classes)


def _norm_free_cnn(input_shape, num_classes, rng):
    """Norm-free cells (a ReLU straight after the conv) and an avg pool."""
    cells = [
        ConvCell(input_shape[0], 6, rng, norm=False, pool="avg", transformable=False),
        ConvCell(6, 6, rng, pool="max"),
        ConvCell(6, 6, rng, norm=False),
        ConvClassifierCell(6, num_classes, rng),
    ]
    return CellModel(cells, input_shape, num_classes)


IMAGE = (3, 8, 8)
FAMILIES = {
    "small_cnn": (lambda rng: small_cnn(IMAGE, 4, rng, width=8), IMAGE),
    "small_resnet": (lambda rng: small_resnet(IMAGE, 4, rng, width=8), IMAGE),
    "stride2": (lambda rng: _stride2_cnn(IMAGE, 4, rng), IMAGE),
    "mlp": (lambda rng: mlp((8,), 4, rng, width=16, depth=3), (8,)),
}


def _layers(model: CellModel) -> list[Layer]:
    return [layer for cell in model.cells for _, layer in cell._named_layers()]


def _bytes(tree: dict[str, np.ndarray]) -> dict[str, bytes]:
    return {k: np.ascontiguousarray(v).tobytes() for k, v in tree.items()}


def _run(source: CellModel, k: int, in_place: bool, xs, labels, train: bool, x_eval, eval_batch):
    """Steps of forward / cross-entropy / backward / SGD on a ``k``-replica
    workspace of ``source``, wired as the model wires it or with every
    ``in_place`` flag cleared, then a predict: everything as bytes."""
    work = source.replicate(k)
    assert any(layer.in_place for layer in _layers(work))
    if not in_place:
        for layer in _layers(work):
            layer.in_place = False
    opt = SGD(0.1, momentum=0.9)
    seen = []
    for x, y in zip(xs, labels):
        work.zero_grad()
        logits = work.forward(x, train=train)
        loss, dlogits = softmax_cross_entropy(logits, one_hot(y, source.num_classes, x.dtype))
        work.backward(dlogits)
        seen.append((np.asarray(loss).tobytes(), _bytes(work.grads())))
        opt.step(work.params(), work.grads())
        seen.append((_bytes(work.params()), _bytes(work.state())))
    # The sweep's forward runs on a K = 1 workspace.
    if k > 1:
        work.refill(source, 1)
    seen.append(work.predict(x_eval, eval_batch).tobytes())
    return seen


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(sorted(FAMILIES)),
    dtype=st.sampled_from(["float64", "float32"]),
    stacked=st.booleans(),
    train=st.booleans(),
    steps=st.integers(0, 2),
    batch=st.integers(1, 6),
    eval_batch=st.integers(2, 5),
    seed=st.integers(0, 2**16),
)
def test_in_place_writes_change_no_bit(family, dtype, stacked, train, steps, batch, eval_batch, seed):
    build, shape = FAMILIES[family]
    k = 3 if stacked and family == "mlp" else 1
    set_compute_dtype(dtype)
    model = build(np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    lead = (k,) if k > 1 else ()
    xs = rng.normal(size=(steps,) + lead + (batch,) + shape).astype(dtype)
    labels = rng.integers(0, 4, size=(steps,) + lead + (batch,))
    # Two full eval batches and a ragged one.
    x_eval = rng.normal(size=(2 * eval_batch + 1,) + shape).astype(dtype)
    wired = _run(model, k, True, xs, labels, train, x_eval, eval_batch)
    plain = _run(model, k, False, xs, labels, train, x_eval, eval_batch)
    assert wired == plain


# ----------------------------------------------------------------------
# structure
# ----------------------------------------------------------------------
def assert_wiring(model: CellModel) -> None:
    """Only a ReLU/BatchNorm2d of a plain chain writes in place, never a
    cell's first layer, never one after a layer that keeps its output; and
    every layer draws call-local scratch from the model's shared workspace."""
    for cell in model.cells:
        plain = type(cell).forward is Cell.forward and type(cell).backward is Cell.backward
        chain = [layer for _, layer in cell._named_layers()]
        for i, layer in enumerate(chain):
            assert layer.shared_ws is model._shared_ws, (cell.cell_id, i)
            if not layer.in_place:
                continue
            where = f"{cell.cell_id} layer {i} ({type(layer).__name__})"
            assert isinstance(layer, (ReLU, BatchNorm2d)), where
            assert plain, f"{where}: {type(cell).__name__} has its own forward/backward"
            assert i > 0, f"{where}: the first layer of a cell"
            assert not chain[i - 1].keeps_output, f"{where}: follows a layer keeping its output"


def _every_kind(rng) -> list[CellModel]:
    return [
        small_cnn(IMAGE, 4, rng, width=6),
        _norm_free_cnn(IMAGE, 4, rng),
        small_resnet(IMAGE, 4, rng, width=6),
        mlp((8,), 4, rng, width=8),
        vit_tiny(IMAGE, 4, rng, dim=8, heads=2, mlp_hidden=8, depth=1),
    ]


def test_every_cell_kind_is_wired_by_the_rule():
    rng = np.random.default_rng(0)
    models = _every_kind(rng)
    kinds = {type(cell) for model in models for cell in model.cells}
    assert kinds == set(CELL_TYPES.values())
    for model in models:
        assert_wiring(model)
        widened = model.clone()
        deepened = model.clone()
        for cell in model.transformable_cells():
            widened.widen_cell(cell.cell_id, 1.5, rng)
            deepened.deepen_after(cell.cell_id, rng)
        narrowed = build_subnet(model, ratio_spec(model, 0.5))
        for variant in (widened, deepened, narrowed):
            assert_wiring(variant)


def test_the_rule_marks_the_layers_that_may_write():
    """ConvCell: BatchNorm after the conv, the ReLU after BatchNorm (or
    after the conv when norm-free); DenseCell: the ReLU after the Dense;
    nothing in residual or ViT cells and nothing after a pool."""
    rng = np.random.default_rng(1)
    cnn, norm_free, resnet, flat, vit = _every_kind(rng)
    marked = lambda model: [  # noqa: E731
        [type(layer).__name__ for _, layer in cell._named_layers() if layer.in_place]
        for cell in model.cells
    ]
    assert marked(cnn) == [["BatchNorm2d", "ReLU"]] * 3 + [[]]
    assert marked(norm_free) == [["ReLU"], ["BatchNorm2d", "ReLU"], ["ReLU"], []]
    assert marked(resnet) == [["BatchNorm2d", "ReLU"], [], [], []]
    assert marked(flat) == [["ReLU"], ["ReLU"], []]
    assert all(m == [] for m in marked(vit))


class _PoolThenAct(ConvCell):
    """A plain chain with a ReLU placed after a MaxPool2d."""

    def _named_layers(self):
        return [("conv", self.conv), ("pool", self.pool), ("act", self.act)]


def test_the_guard_fails_on_a_write_after_a_layer_keeping_its_output():
    rng = np.random.default_rng(2)
    cell = _PoolThenAct(3, 4, rng, norm=False, pool="max", transformable=False)
    model = CellModel([cell, ConvClassifierCell(4, 3, rng)], IMAGE, 3)
    assert not cell.act.in_place  # the model never marks it
    assert_wiring(model)
    cell.act.in_place = True
    with pytest.raises(AssertionError, match="follows a layer keeping its output"):
        assert_wiring(model)


# ----------------------------------------------------------------------
# standalone layers never write their arguments
# ----------------------------------------------------------------------
LAYERS = {
    Dense: (lambda rng: Dense(5, 4, rng), (6, 5)),
    Conv2d: (lambda rng: Conv2d(3, 4, 3, rng), (2, 3, 6, 6)),
    BatchNorm2d: (lambda rng: BatchNorm2d(3), (4, 3, 5, 5)),
    LayerNorm: (lambda rng: LayerNorm(5), (2, 3, 5)),
    ReLU: (lambda rng: ReLU(), (4, 7)),
    GELU: (lambda rng: GELU(), (4, 7)),
    AvgPool2d: (lambda rng: AvgPool2d(2), (2, 3, 4, 4)),
    MaxPool2d: (lambda rng: MaxPool2d(2), (2, 3, 4, 4)),
    GlobalAvgPool2d: (lambda rng: GlobalAvgPool2d(), (2, 3, 4, 4)),
    MultiHeadSelfAttention: (lambda rng: MultiHeadSelfAttention(8, 2, rng), (2, 5, 8)),
    PatchEmbed: (lambda rng: PatchEmbed(3, 8, 4, 6, rng), (2, 3, 8, 8)),
}


def _concrete(cls: type) -> set[type]:
    found = set()
    for sub in cls.__subclasses__():
        if not sub.__name__.startswith("_"):
            found.add(sub)
        found |= _concrete(sub)
    return found


def test_the_table_covers_every_layer_class():
    assert _concrete(Layer) == set(LAYERS)


@pytest.mark.parametrize("train", [True, False])
@pytest.mark.parametrize("cls", LAYERS, ids=lambda cls: cls.__name__)
def test_a_standalone_layer_never_writes_its_arguments(cls, train):
    build, shape = LAYERS[cls]
    rng = np.random.default_rng(3)
    layer = build(rng)
    assert not layer.in_place
    x = rng.normal(size=shape)
    x_before = x.tobytes()
    y = layer.forward(x, train)
    dout = rng.normal(size=y.shape)
    dout_before = dout.tobytes()
    dx = layer.backward(dout)
    assert x.tobytes() == x_before
    assert dout.tobytes() == dout_before
    assert not np.may_share_memory(y, x) and not np.may_share_memory(dx, dout)
