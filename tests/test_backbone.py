"""Backbone design table, shape arithmetic, and composition tests."""

import functools

import numpy as np
import pytest

from moonnet import backbone
from moonnet.attention import GateKind, bottleneck_width
from moonnet.backbone import (
    AttentionKind,
    Backbone,
    BASE_LADDER,
    ConfigError,
    DESIGN_ATTENTION,
    DOUBLED_LADDER,
    build_design,
)
from moonnet.config import ExperimentConfig
from moonnet.tensor import ShapeError, Tensor4
from moonnet.train import SGD, PatchModel, SyntheticPatchTask, bce_with_logits


def random_input(shape, seed=0):
    return Tensor4(np.random.default_rng(seed).standard_normal(shape).astype(np.float32))


def channels(design):
    return tuple(s.out_channels for s in design.stages)


class TestBuildDesign:
    def test_design5_quarter_width_ladder(self):
        d = build_design(5, 0.25)
        assert channels(d) == (32, 64, 128, 256, 512)

    def test_design1_full_width_base_ladder(self):
        d = build_design(1, 1.0)
        assert channels(d) == (64, 128, 256, 512, 1024)
        assert all(s.attention is AttentionKind.SE for s in d.stages)

    def test_design0_has_no_attention(self):
        d = build_design(0, 0.25)
        assert all(s.attention is AttentionKind.NONE for s in d.stages)

    def test_attention_sequences(self):
        seq = lambda d: tuple(s.attention for s in build_design(d).stages)
        SE, CB = AttentionKind.SE, AttentionKind.CBAM
        assert seq(5) == (SE, CB, SE, CB, SE)  # alternating, SE first
        assert seq(6) == (SE, SE, CB, SE, CB)
        assert seq(1) == (SE,) * 5
        assert seq(2) == (CB,) * 5
        assert seq(3) == (CB, SE, CB, SE, CB)
        assert seq(4) == (CB, SE, CB, SE, CB)

    def test_doubled_ladder_is_exactly_twice_base(self):
        for d_lo, d_hi in [(3, 4)]:
            lo = channels(build_design(d_lo, 0.5))
            hi = channels(build_design(d_hi, 0.5))
            assert tuple(2 * c for c in lo) == hi

    def test_unknown_design(self):
        with pytest.raises(ConfigError):
            build_design(7)

    def test_bad_width(self):
        with pytest.raises(ConfigError):
            build_design(5, 0.0)

    def test_channel_rounding_floor_at_one(self):
        """Stage 0 has no C2f block, so it may round down to one channel."""
        d = build_design(1, 0.01, ladder=(64, 200, 400, 600, 800))
        assert channels(d) == (1, 2, 4, 6, 8)

    @pytest.mark.parametrize("design_id, width, message", [
        (1, 0.01, "width 0.01 gives design 1 stage 1 1 channels"),
        (5, 0.3, "width 0.3 gives design 5 stage 1 77 channels"),
        (0, 0.1, "width 0.1 gives design 0 stage 2 51 channels")])
    def test_odd_c2f_channels_rejected(self, design_id, width, message):
        """A C2f block splits its channels in half; the stage 0 conv has none."""
        with pytest.raises(ConfigError, match=message):
            build_design(design_id, width)


class TestBackboneForward:
    def test_stage_output_shapes(self):
        bb = Backbone(build_design(0, 0.25), seed=0)
        outs = bb.forward(random_input((1, 3, 64, 64)))
        assert [o.shape for o in outs] == [
            (1, 32, 32, 32), (1, 64, 16, 16), (1, 128, 8, 8),
            (1, 256, 4, 4), (1, 512, 2, 2)]

    def test_indivisible_input_rejected(self):
        bb = Backbone(build_design(0, 0.25), seed=0)
        with pytest.raises(ShapeError):
            bb.forward(random_input((1, 3, 48, 48)))

    def test_attention_preserves_stage_shapes(self):
        for design_id in (1, 2, 5):
            d = build_design(design_id, 0.25, ladder=DOUBLED_LADDER)
            ref = Backbone(build_design(0, 0.25), seed=0)
            bb = Backbone(d, seed=0)
            x = random_input((1, 3, 64, 64), seed=design_id)
            shapes = [o.shape for o in bb.forward(x)]
            ref_shapes = [o.shape for o in ref.forward(x)]
            assert shapes == ref_shapes

    def test_identity_init_matches_design0_bitwise(self):
        # same seed => same conv/C2f weights; residual-tanh attention at
        # identity-safe init must vanish from the composition entirely
        x = random_input((1, 3, 64, 64), seed=9)
        outs0 = Backbone(build_design(0, 0.25), seed=4).forward(x)
        outs5 = Backbone(build_design(5, 0.25, GateKind.RESIDUAL_TANH), seed=4).forward(x)
        for a, b in zip(outs0, outs5):
            assert np.array_equal(a.values, b.values)

    def test_param_count_ordering_on_equal_ladder(self):
        # no attention < all-SE < all-CBAM at identical channels
        ladder = (32, 64, 128, 256, 512)
        counts = [sum(p.value.size for p in
                      Backbone(build_design(i, 1.0, ladder=ladder), seed=0).parameters())
                  for i in (0, 1, 2)]
        assert counts[0] < counts[1] < counts[2]

    @pytest.mark.parametrize("design_id", [1, 2, 3, 4, 5, 6])
    def test_attention_blocks_keep_the_default_reduction(self, design_id):
        # every block a built backbone holds uses SE's r = 16 bottleneck
        bb = Backbone(build_design(design_id, 0.25), seed=None)
        blocks = [(st.attention, spec) for st, spec in
                  zip(bb.stages, build_design(design_id, 0.25).stages)]
        for block, spec in blocks:
            assert (block is None) == (spec.attention is AttentionKind.NONE)
            if block is not None:
                assert block.m == bottleneck_width(spec.out_channels, 16)
        assert any(block is not None for block, _ in blocks)


class TestBackboneBackward:
    def test_truncated_backbone_backward_shapes(self):
        d = build_design(5, 0.25, ladder=(16, 32, 64, 128, 256), spatial_kernel=3)
        d.stages = d.stages[:2]
        bb = Backbone(d, seed=1)
        x = random_input((1, 3, 8, 8), seed=2)
        outs = bb.forward(x)
        grads = [np.ones(o.shape, dtype=np.float32) for o in outs]
        gx = bb.backward(grads)
        assert gx.shape == x.shape
        assert np.isfinite(gx).all()


class TestInitOracles:
    """Exact statements about a freshly built model: with the residual gate
    the attention blocks vanish from forward and backward; with the sigmoid
    gate an SE stage scales its conv block's output by exactly 0.5."""

    @staticmethod
    def _step(design_id, seed, size):
        cfg = ExperimentConfig(design_id=design_id, width=0.125, input_size=size, seed=seed,
                               batch=2).validate()
        model = PatchModel(cfg)
        x, labels, _ = SyntheticPatchTask(size).batch([10 * seed, 10 * seed + 1])
        logits = model.forward(x)
        model.backward(bce_with_logits(logits, labels)[1])
        return logits, {p.name: p.grad for p in model.parameters()}

    @pytest.mark.parametrize("size", [64, 128])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_residual_gate_designs_train_like_design0_at_init(self, seed, size):
        logits0, grads0 = self._step(0, seed, size)
        for design_id in (4, 5, 6):
            logits, grads = self._step(design_id, seed, size)
            assert np.array_equal(logits, logits0)
            # the conv, C2f and head parameters; attention adds the rest
            shared = grads0.keys() & grads.keys()
            assert len(shared) == len(grads0) == 65
            for name in shared:
                assert np.array_equal(grads[name], grads0[name]), name

    @pytest.mark.parametrize("size", [64, 128])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_sigmoid_gate_halves_design5_stage0(self, seed, size):
        x = random_input((2, 3, size, size), seed=seed)
        plain, gated = (Backbone(build_design(d, 0.125, GateKind.SIGMOID_ORIGINAL),
                                 seed=seed).forward(x)[0].values for d in (0, 5))
        assert np.array_equal(gated, 0.5 * plain)


# the weight map that makes a sigmoid-gate model of a residual-gate one
GATE_MAP = {"w2": 2.0, "b2": 2.0, "spatial_bias": 2.0, "spatial_kernel": 4.0}


class TestCrossGateOracle:
    """The residual gate is the sigmoid gate under a fixed weight map.

    ``1 + tanh(z) = 2 sigmoid(2z)``, so doubling an SE block's ``w2`` and
    ``b2`` makes the sigmoid gate compute half the residual gate's output.
    CBAM's spatial conv reads that halved tensor, so its kernel is
    quadrupled and its bias doubled.  Every attention block feeds a
    training-mode batchnorm, which removes the scale up to its ``eps``; the
    tests set ``eps`` to 1e-18 and run in float64, so the two models agree
    to rounding.  If a weight is mapped by f, its gradient is mapped by
    1/f, so SGD keeps the two together when the mapped gradients are
    scaled by f**2.

    Measured (designs 1-6, seed 0, 64 px, batch 4): the logits, of order
    1, agree to 6.4e-13 at most (design 4, which has a low-variance
    channel; at eps 1e-14 it reads 6.3e-9), the per-tensor gradient error
    is at most 1.1e-10 of the tensor's largest gradient, and 20 mapped SGD
    steps keep the losses within 2.3e-12.  The bounds sit 16x, 90x and 43x
    above these, room for another BLAS's summation order, and far below
    what a wrong map gives: a 2x kernel map moves the logits by 0.37 or
    more, and SGD without the lr map parts by 6.3e-4 after one step.
    """

    LOGIT_BOUND = 1e-11
    GRAD_BOUND = 1e-8
    LOSS_BOUND = 1e-10

    @pytest.fixture(autouse=True)
    def tiny_batchnorm_eps(self, monkeypatch):
        monkeypatch.setattr(backbone, "batchnorm_silu",
                            functools.partial(backbone.batchnorm_silu, eps=1e-18))

    @staticmethod
    def _factor(name, gate_map=GATE_MAP):
        return gate_map.get(name.rsplit("/", 1)[-1], 1.0) if "/att/" in name else 1.0

    def _twins(self, design_id, gate_map=GATE_MAP, randomize=True):
        """A float64 residual-gate model, its attention parameters drawn
        0.3 * N(0, 1) unless ``randomize`` is off, and the sigmoid-gate
        model that ``gate_map`` makes of it."""
        res, sig = (PatchModel(ExperimentConfig(design_id=design_id, gate=gate)).cast(np.float64)
                    for gate in (GateKind.RESIDUAL_TANH, GateKind.SIGMOID_ORIGINAL))
        rng = np.random.default_rng(0)
        for p in res.parameters():
            if randomize and "/att/" in p.name:
                p.value[...] = 0.3 * rng.standard_normal(p.value.shape)
        for (name, a), (_, b) in zip(res.named_tensors(), sig.named_tensors()):
            b[...] = self._factor(name, gate_map) * a
        return res, sig

    @staticmethod
    def _step(model, task, x, targets):
        """One training-mode forward and backward; returns (logits, loss)."""
        logits = model.forward(Tensor4(x.values.astype(np.float64)))
        loss, g = task.loss(logits, targets)
        model.backward(g)
        return logits, loss

    @pytest.mark.parametrize("design_id", range(1, 7))
    def test_mapped_sigmoid_model_computes_the_residual_model(self, design_id):
        task = SyntheticPatchTask(64)
        x, targets, _ = task.batch(range(4))
        res, sig = self._twins(design_id)
        logits_res, _ = self._step(res, task, x, targets)
        logits_sig, _ = self._step(sig, task, x, targets)
        assert np.abs(logits_res - logits_sig).max() <= self.LOGIT_BOUND
        for p, q in zip(res.parameters(), sig.parameters()):
            err = np.abs(p.grad - self._factor(p.name) * q.grad).max() / np.abs(p.grad).max()
            assert err <= self.GRAD_BOUND, p.name

    @pytest.mark.parametrize("design_id", range(2, 7))
    def test_a_doubled_spatial_kernel_breaks_it(self, design_id):
        x, _, _ = SyntheticPatchTask(64).batch(range(4))
        x = Tensor4(x.values.astype(np.float64))
        res, sig = self._twins(design_id, {**GATE_MAP, "spatial_kernel": 2.0})
        assert np.abs(res.forward(x) - sig.forward(x)).max() > self.LOGIT_BOUND

    def _loss_gaps(self, lr_map):
        """|loss_res - loss_sig| at each of 20 SGD steps of design 5 from
        fresh builds, the sigmoid model's mapped gradients scaled by f**2
        when ``lr_map`` is on."""
        task = SyntheticPatchTask(64)
        res, sig = self._twins(5, randomize=False)
        opt_res, opt_sig = (SGD(m.parameters(), lr=0.01, momentum=0.9) for m in (res, sig))
        for _, (x, targets) in zip(range(20), task.batches(np.random.default_rng([0, 2]), 4)):
            _, loss_res = self._step(res, task, x, targets)
            _, loss_sig = self._step(sig, task, x, targets)
            if lr_map:
                for q in sig.parameters():
                    q.grad *= self._factor(q.name) ** 2
            opt_res.step()
            opt_sig.step()
            yield abs(loss_res - loss_sig)

    def test_lr_map_keeps_sgd_together(self):
        assert max(self._loss_gaps(lr_map=True)) <= self.LOSS_BOUND

    def test_sgd_parts_without_the_lr_map(self):
        assert any(gap > self.LOSS_BOUND for gap in self._loss_gaps(lr_map=False))
