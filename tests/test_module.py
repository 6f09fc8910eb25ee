"""The Module protocol: parameters, named tensors and zero_grad derived from
a layer's attributes in assignment order, pinned to the checkpoint layout."""

import hashlib

import numpy as np

from moonnet.config import ExperimentConfig
from moonnet.tensor import Module, Param
from moonnet.train import PatchModel, SyntheticPatchTask


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
    model = PatchModel(ExperimentConfig())
    for p in model.parameters():
        p.grad[...] = 1.0
    stage = model.backbone.stages[1]
    for layer in (stage.c2f.block.cv1, stage.c2f.block, stage.c2f, stage):
        layer.zero_grad()
        assert all(not p.grad.any() for p in layer.parameters())
    assert all(p.grad.all() for p in model.backbone.stages[2].parameters())
    model.zero_grad()
    assert all(not p.grad.any() for p in model.parameters())
