"""The Module protocol: parameters, named tensors, cast and draw derived
from a layer's attributes in assignment order, pinned to the checkpoint
layout."""

import hashlib
import inspect
import tracemalloc

import numpy as np
import pytest

from moonnet import attention, backbone, train
from moonnet.config import ExperimentConfig
from moonnet.tensor import Buffer, Module, Param, Tensor4
from moonnet.train import SGD, PatchModel, SyntheticPatchTask, bce_with_logits


def test_members_follow_assignment_order():
    class Leaf(Module):
        def __init__(self, name):
            self.w = Param(f"{name}/w", np.zeros(2))

    class Tree(Module):
        def __init__(self):
            self.b = Param("b", np.zeros(1))
            self.absent = None
            self.kids = [Leaf("k0"), Leaf("k1")]
            self.a = Param("a", np.zeros(1))
            self.numbers = [1, 2]

    tree = Tree()
    assert [n for n, _ in tree.named_tensors()] == ["b", "k0/w", "k1/w", "a"]
    assert [p.name for p in tree.parameters()] == ["b", "k0/w", "k1/w", "a"]


def test_checkpoint_layout_is_pinned():
    names = [n for n, _ in PatchModel(ExperimentConfig()).named_tensors()]
    assert len(names) == 131
    # pinned, so a layout change is a deliberate one (ConvBlock convs carry
    # no bias, so checkpoints from before that change are refused on load)
    digest = hashlib.sha256("\n".join(names).encode()).hexdigest()
    assert digest.startswith("4b69e6a83a0b77bf")


def test_parameters_are_the_param_subset_in_order():
    model = PatchModel(ExperimentConfig())
    params = model.parameters()
    named = model.named_tensors()
    assert len(params) == 89
    ids = {id(p.value) for p in params}
    subset = [(n, a) for n, a in named if id(a) in ids]
    assert [n for n, _ in subset] == [p.name for p in params]
    assert all(a is p.value for (_, a), p in zip(subset, params))
    # the rest are the two batchnorm buffers of each conv block
    assert all(n.endswith(("/bn_running_mean", "/bn_running_var"))
               for n, a in named if id(a) not in ids)


def test_named_arrays_are_live():
    model = PatchModel(ExperimentConfig())
    x = SyntheticPatchTask(64).sample(0).image
    before = model.forward(x, training=False)
    arrays = dict(model.named_tensors())
    arrays["stage4/conv/bn_running_var"][...] = 4.0
    after = model.forward(x, training=False)
    assert not np.array_equal(after, before)
    arrays["head/weight"][...] *= 2.0  # the head bias is zero
    assert np.array_equal(model.forward(x, training=False), 2.0 * after)


def test_zero_grad_clears_every_nested_grad():
    """An SGD over a layer's ``parameters()`` clears every nested gradient
    and no other."""
    model = PatchModel(ExperimentConfig())
    for p in model.parameters():
        p.grad = np.ones_like(p.value)
    stage = model.backbone.stages[1]
    for layer in (stage.c2f.block.cv1, stage.c2f.block, stage.c2f, stage):
        SGD(layer.parameters(), lr=0.1).zero_grad()
        assert all(p.grad is None for p in layer.parameters())
    assert all(p.grad.all() for p in model.backbone.stages[2].parameters())
    SGD(model.parameters(), lr=0.1).zero_grad()
    assert all(p.grad is None for p in model.parameters())


def test_first_gradient_is_taken_by_reference():
    p = Param("w", np.zeros(3, np.float32))
    g = np.ones(3, np.float32)
    p.add_grad(g)
    assert p.grad is g
    p.add_grad(np.ones(3, np.float32))
    assert p.grad is g and np.array_equal(g, [2.0, 2.0, 2.0])


def test_backward_gives_every_parameter_a_gradient_of_its_dtype():
    model = PatchModel(ExperimentConfig())
    task = SyntheticPatchTask(64)
    x, _, _ = task.batch([0, 1])
    model.backward(np.ones_like(model.forward(x, training=True)))
    assert all(p.grad.dtype == p.value.dtype and p.grad.shape == p.value.shape
               for p in model.parameters())


def _modules(module):
    yield module
    for v in module._members():
        if isinstance(v, Module):
            yield from _modules(v)


def test_only_training_forwards_keep_a_tape():
    model = PatchModel(ExperimentConfig())
    taped = [m for m in _modules(model) if hasattr(m, "_tape")]
    assert {type(m).__name__ for m in taped} == {
        "PatchModel", "ConvBlock", "Bottleneck", "C2f", "SEBlock", "CBAMBlock"}
    x = SyntheticPatchTask(64).sample(0).image
    model.forward(x, training=True)
    assert all(m._tape is not None for m in taped)
    model.forward(x, training=False)
    assert all(m._tape is None for m in taped)
    # a backward consumes the tape of the training forward before it
    model.backward(np.ones_like(model.forward(x, training=True)))
    assert all(m._tape is None for m in taped)


@pytest.mark.parametrize("training", [True, False])
def test_backward_without_a_tape_raises_one_line(training):
    model = PatchModel(ExperimentConfig())
    x = SyntheticPatchTask(64).sample(0).image
    g = np.ones_like(model.forward(x, training=training))
    if training:
        model.backward(g)  # consumes the tape; a second backward has none
    with pytest.raises(RuntimeError) as e:
        model.backward(g)
    assert str(e.value) == "PatchModel.backward needs a training forward first"
    with pytest.raises(RuntimeError, match=r"^ConvBlock\.backward needs a training forward"):
        model.backbone.stages[0].conv.backward(np.ones((1, 32, 32, 32), dtype=np.float32))


@pytest.mark.parametrize("size", [64, 128])
def test_backward_frees_the_tape_as_it_goes(size):
    """Once backward has run, the model holds its gradients and nothing
    else, and no point of the backward holds more than the forward's tape
    plus the gradients."""
    model = PatchModel(ExperimentConfig(input_size=size))
    x, labels, _ = SyntheticPatchTask(size).batch(range(4))
    tracemalloc.start()
    try:
        logits = model.forward(x, training=True)
        g = bce_with_logits(logits, labels)[1]
        tape = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        model.backward(g)  # the input gradient is dropped at once
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    grads = sum(p.grad.nbytes for p in model.parameters())
    assert after <= 1.05 * grads, after / grads
    assert peak <= tape + grads, peak / (tape + grads)


def test_no_layer_writes_a_protocol_method():
    layers = [cls for mod in (attention, backbone, train)
              for _, cls in inspect.getmembers(mod, inspect.isclass)
              if issubclass(cls, Module) and cls is not Module]
    assert {cls.__name__ for cls in layers} >= {
        "ConvBlock", "Bottleneck", "C2f", "Stage", "Backbone", "SEBlock", "CBAMBlock",
        "PatchModel"}
    protocol = {"parameters", "named_tensors", "zero_grad", "cast", "draw"}
    for cls in layers:
        assert not protocol & set(vars(cls)), cls


def test_layers_build_with_their_drawn_weights_zero(monkeypatch):
    """No layer makes a generator: the Params that declare a fan-in are
    built zero, and only ``draw`` fills them."""
    def no_rng(*args, **kwargs):
        raise AssertionError("a generator was made")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    layers = {
        backbone.ConvBlock(3, 8, 3, "conv"): ["conv/weight"],
        backbone.C2f(8, "c2f"): ["c2f/cv1/weight", "c2f/b0/cv1/weight", "c2f/b0/cv2/weight",
                                 "c2f/cv2/weight"],
        attention.SEBlock(24): ["se/w1", "se/b1"],
        attention.CBAMBlock(24): ["cbam/w1", "cbam/b1"],
    }
    for layer, names in layers.items():
        drawn = [p for p in layer.parameters() if p.fan_in is not None]
        assert [p.name for p in drawn] == names
        assert not any(p.value.any() for p in drawn)


def test_draw_walks_the_drawn_params_in_checkpoint_order():
    class Leaf(Module):
        def __init__(self, name):
            self.w = Param(f"{name}/w", np.zeros((2, 3), dtype=np.float32), fan_in=4)
            self.b = Param(f"{name}/b", np.ones(2, dtype=np.float32))

    class Tree(Module):
        def __init__(self):
            self.kids = [Leaf("k0"), Leaf("k1")]
            self.stat = Buffer("stat", np.ones(2, dtype=np.float32))

    tree = Tree()
    assert tree.draw(np.random.default_rng(3)) is tree
    rng = np.random.default_rng(3)
    for kid in tree.kids:
        assert kid.w.value.dtype == np.float32
        assert kid.w.value.tobytes() == rng.uniform(-0.5, 0.5, (2, 3)).astype(np.float32).tobytes()
        assert np.array_equal(kid.b.value, np.ones(2))
    assert np.array_equal(tree.stat.value, np.ones(2))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(3, 5), (4, 2**14), (9, 2**14 + 3)])  # 1, 1 and 3 chunks
def test_chunked_draw_is_a_single_draw(shape, dtype):
    """Param.draw draws 2^16 values at a time: the bits are those of one draw
    of the whole weight, rounded to float32, in a float32 or float64 value."""
    p = Param("w", np.zeros(shape, dtype=dtype), fan_in=9)
    p.draw(np.random.default_rng(7))
    whole = np.random.default_rng(7).uniform(-1 / 3, 1 / 3, size=shape).astype(np.float32)
    assert p.value.dtype == dtype
    assert p.value.tobytes() == whole.astype(dtype).tobytes()


def test_build_holds_one_copy_of_the_weights():
    # the draw writes each chunk into the weight, so building the default
    # model holds no second, float64 copy of a weight
    tracemalloc.start()
    try:
        model = PatchModel(ExperimentConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    nbytes = sum(a.nbytes for _, a in model.named_tensors())
    assert nbytes > 10_000_000
    assert peak <= 1.1 * nbytes, peak / nbytes


def test_cast_recasts_every_tensor_and_keeps_the_layout():
    model = PatchModel(ExperimentConfig())
    before = [(n, a.copy()) for n, a in model.named_tensors()]
    param_names = [p.name for p in model.parameters()]
    assert model.cast(np.float64) is model
    after = model.named_tensors()
    assert [n for n, _ in after] == [n for n, _ in before]
    for (_, a), (_, b) in zip(before, after):
        assert a.dtype == np.float32 and b.dtype == np.float64
        assert np.array_equal(b, a.astype(np.float64))
    assert [p.name for p in model.parameters()] == param_names and len(param_names) == 89
    # the cast model trains in float64, buffers included
    x, labels, _ = SyntheticPatchTask(64).batch([0, 1])
    logits = model.forward(Tensor4(x.values.astype(np.float64)), training=True)
    model.backward(bce_with_logits(logits, labels)[1])
    assert logits.dtype == np.float64
    assert all(a.dtype == np.float64 for _, a in model.named_tensors())
    assert all(p.grad.dtype == np.float64 for p in model.parameters())


def test_buffers_get_no_gradient_and_no_update():
    model = PatchModel(ExperimentConfig())
    buffers = [t for t in model._tensors() if isinstance(t, Buffer)]
    assert len(buffers) == 131 - 89
    opt = SGD(model.parameters(), lr=0.1)
    assert not any(isinstance(p, Buffer) for p in opt.params)
    x, labels, _ = SyntheticPatchTask(64).batch([0, 1])
    logits = model.forward(x, training=True)
    stats = [b.value.copy() for b in buffers]  # the running statistics this forward set
    model.backward(bce_with_logits(logits, labels)[1])
    opt.step()
    assert all(b.grad is None for b in buffers)
    assert all(np.array_equal(b.value, v) for b, v in zip(buffers, stats))
