"""Optimizer, synthetic task, training-loop, config, and CLI tests."""

import dataclasses
import hashlib
import itertools
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import moonnet
from moonnet import backbone
from moonnet import tensor as T
from moonnet.attention import GateKind
from moonnet.augment import AugmentPackage, load_annotations
from moonnet.checkpoint import (META_PREFIX, CheckpointError, bytes_to_tensor,
                                load_checkpoint, save_checkpoint)
from moonnet.cli import main as cli_main
from moonnet.config import ConfigError, ExperimentConfig, load_config_file, parse_config_text
from moonnet.metrics import evaluate
from moonnet.tensor import Param, Tensor4, clipped_sigmoid
from moonnet.train import (
    EVAL_PIXELS_PER_FORWARD,
    PatchModel,
    SGD,
    SyntheticPatchTask,
    TrainState,
    bce_with_logits,
    evaluate_model,
    load_model_checkpoint,
    model_detections,
    save_model_checkpoint,
    sweep,
    sweep_table,
    train,
)


def tiny_cfg(**kw):
    base = dict(design_id=5, width=0.125, input_size=64, epochs=1,
                steps_per_epoch=5, batch=2, lr=0.01, momentum=0.9, seed=0)
    base.update(kw)
    return ExperimentConfig(**base)


def fixed_batch_run(cfg, keep_best=False) -> TrainState:
    """Every step of the run on one batch, the task's first: plain gradient
    descent when the momentum is 0."""
    state = TrainState(cfg, keep_best)
    x, labels, _ = SyntheticPatchTask(cfg.input_size, cfg.augment).batch(range(cfg.batch))
    for _ in range(cfg.epochs * cfg.steps_per_epoch):
        state.step(x, labels)
    return state


def reference_batches(cfg):
    """train()'s batches written out: ``cfg.batch`` sample seeds per step from
    the ``[seed, 2]`` stream, each batch from ``task.batch``."""
    task = SyntheticPatchTask(cfg.input_size, cfg.augment)
    rng = np.random.default_rng([cfg.seed, 2])
    for _ in range(cfg.epochs * cfg.steps_per_epoch):
        x, labels, _ = task.batch([int(s) for s in rng.integers(0, 2 ** 31, size=cfg.batch)])
        yield x, labels


def reference_run(cfg):
    """train()'s loop written out with the library's parts: returns the
    losses, the final model, and a copy of the weights that gave the lowest
    loss, taken before that step's update."""
    model = PatchModel(cfg)
    opt = SGD(model.parameters(), cfg.lr, cfg.momentum)
    losses, best = [], None
    for x, labels in reference_batches(cfg):
        logits = model.forward(x, training=True)
        loss, g = bce_with_logits(logits, labels)
        if not losses or loss < min(losses):
            best = [(n, a.copy()) for n, a in model.named_tensors()]
        losses.append(loss)
        model.backward(g)
        opt.step()
    return losses, model, best


def same_tensors(a, b):
    """Two (name, array) lists hold the same names, dtypes, shapes and bytes."""
    return [(n, x.dtype, x.shape, x.tobytes()) for n, x in a] == \
        [(n, x.dtype, x.shape, x.tobytes()) for n, x in b]


def sgd_param(value, grad=None):
    p = Param("theta", np.asarray(value))
    p.grad = None if grad is None else np.asarray(grad)
    return p


class TestSgdStep:
    def test_single_step_no_momentum(self):
        p = sgd_param([1.0, 2.0], [0.5, -1.0])
        SGD([p], lr=0.1, momentum=0.0).step()
        assert np.allclose(p.value, [0.95, 2.1])

    def test_none_gradient_is_zero_and_momentum_decays(self):
        p = sgd_param([1.0])
        opt = SGD([p], lr=0.1, momentum=0.5)
        opt.velocities[0][...] = 2.0
        opt.step()
        assert opt.velocities[0][0] == 1.0 and p.value[0] == 0.9

    def test_momentum_accumulates(self):
        # two steps with constant gradient g=1: v goes 1, then 1.9
        p = sgd_param([0.0])
        opt = SGD([p], lr=1.0, momentum=0.9)
        p.grad = np.array([1.0])
        opt.step()
        assert p.value[0] == -1.0
        p.grad = np.array([1.0])
        opt.step()
        assert p.value[0] == pytest.approx(-2.9)

    def test_in_place(self):
        theta = np.zeros(3)
        p = sgd_param(theta, np.ones(3))
        SGD([p], 0.1, 0.0).step()
        assert p.value is theta and np.allclose(theta, -0.1)

    def test_quadratic_bowl_converges(self):
        # f(x) = 0.5 x^T A x with A = diag(1, 10)
        A = np.array([1.0, 10.0])
        p = sgd_param([5.0, -3.0])
        opt = SGD([p], lr=0.1, momentum=0.9)
        for _ in range(300):
            p.grad = A * p.value
            opt.step()
        assert float(np.abs(p.value).max()) < 1e-6

    def test_step_consumes_every_gradient(self):
        model = PatchModel(tiny_cfg())
        opt = SGD(model.parameters(), lr=0.01)
        x, labels, _ = SyntheticPatchTask(64).batch(range(2))
        model.backward(bce_with_logits(model.forward(x, training=True), labels)[1])
        assert all(p.grad is not None for p in model.parameters())
        opt.step()
        assert all(p.grad is None for p in model.parameters())

    def test_train_step_peak_is_the_same_at_every_step(self):
        """No gradient outlives its step, so the next forward does not carry
        the last step's gradients: the traced peak of each step above the
        weights and velocities is that of the first step."""
        state = TrainState(ExperimentConfig(input_size=64))
        x, labels, _ = SyntheticPatchTask(64).batch(range(4))
        peaks = []
        tracemalloc.start()
        try:
            weights = tracemalloc.get_traced_memory()[0]
            for _ in range(4):
                tracemalloc.reset_peak()
                state.step(x, labels)
                peaks.append(tracemalloc.get_traced_memory()[1] - weights)
        finally:
            tracemalloc.stop()
        # a step that leaves its 15.5 MB of gradients for the next one to clear
        # carries them through that step's forward: 1.10x at 64 px
        assert max(peaks[1:]) <= 1.01 * peaks[0], [p / peaks[0] for p in peaks]


class TestBceWithLogits:
    def test_fixture(self):
        # z=0, y=1: loss = log 2; grad = (0.5 - 1) / 1
        loss, g = bce_with_logits(np.zeros((1, 1, 1, 1)), np.ones((1, 1, 1, 1)))
        assert loss == pytest.approx(np.log(2.0))
        assert g.flat[0] == pytest.approx(-0.5)

    def test_extreme_logits_stay_finite(self):
        z = np.array([[[[1000.0, -1000.0]]]])
        y = np.array([[[[1.0, 0.0]]]])
        loss, g = bce_with_logits(z, y)
        assert np.isfinite(loss) and np.isfinite(g).all()
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_matches_naive_formula(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal((2, 1, 2, 2))
        y = (rng.random((2, 1, 2, 2)) > 0.5).astype(float)
        p = 1 / (1 + np.exp(-z))
        naive = -(y * np.log(p) + (1 - y) * np.log(1 - p)).mean()
        loss, _ = bce_with_logits(z, y)
        assert loss == pytest.approx(naive)


class TestSyntheticTask:
    def test_sample_deterministic(self):
        task = SyntheticPatchTask(64)
        a, b = task.sample(3), task.sample(3)
        assert np.array_equal(a.image.values, b.image.values)
        assert len(a.boxes) == len(b.boxes)

    def test_patch_sizes_below_small_object_cutoff(self):
        task = SyntheticPatchTask(96)
        for seed in range(5):
            for b in task.sample(seed).boxes:
                assert b.area < 32 * 32
                assert 3 <= b.x2 - b.x1 <= 7

    def test_label_grid_matches_boxes(self):
        task = SyntheticPatchTask(64)
        li = task.sample(1)
        lab = task.label_grid(li)
        assert lab.shape == (1, 2, 2)
        assert lab.sum() == len(li.boxes)  # one patch per cell at most

    def test_values_in_unit_range(self):
        img = SyntheticPatchTask(64).sample(7).image.values
        assert img.min() >= 0.0 and img.max() <= 1.0

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            SyntheticPatchTask(48)

    def test_augmented_labels_stay_consistent(self):
        task = SyntheticPatchTask(64, AugmentPackage.VER2)
        for seed in range(5):
            li = task.sample(seed)
            lab = task.label_grid(li)
            assert lab.sum() == len(li.boxes)

    def test_batch_shapes(self):
        task = SyntheticPatchTask(64)
        x, labels, samples = task.batch([0, 1, 2])
        assert x.shape == (3, 3, 64, 64)
        assert labels.shape == (3, 1, 2, 2)
        assert len(samples) == 3


class TestPatchModel:
    def test_logit_grid_shape(self):
        model = PatchModel(tiny_cfg())
        task = SyntheticPatchTask(64)
        x, _, _ = task.batch([0, 1])
        assert model.forward(x).shape == (2, 1, 2, 2)

    def test_untrained_identity_designs_agree_bitwise(self):
        # residual-tanh attention at init vanishes, so design 5 must emit
        # the same logits as the attention-free design 0 under one seed
        task = SyntheticPatchTask(64)
        x, _, _ = task.batch([5])
        l0 = PatchModel(tiny_cfg(design_id=0)).forward(x, training=False)
        l5 = PatchModel(tiny_cfg(design_id=5, gate=GateKind.RESIDUAL_TANH)).forward(
            x, training=False)
        assert np.array_equal(l0, l5)

    # sha256 of every named tensor's name, dtype, shape and bytes, in
    # checkpoint order, taken before model construction learned to skip draws;
    # the gate does not enter the init, so both gates share a digest
    @pytest.mark.parametrize("design_id, width, gate, seed, digest", [
        (5, 0.25, GateKind.RESIDUAL_TANH, 0,
         "b49976543be17b4c77fa2d04ce49f67543f112c871d6ecdf0c6e1dd19cffcb12"),
        (5, 0.25, GateKind.RESIDUAL_TANH, 3,
         "31e67e5a86f83e1f3e11b8acb753725299fc2ab4f78469bf511d66b9dc31bc6c"),
        (5, 0.25, GateKind.SIGMOID_ORIGINAL, 0,
         "b49976543be17b4c77fa2d04ce49f67543f112c871d6ecdf0c6e1dd19cffcb12"),
        (5, 0.25, GateKind.SIGMOID_ORIGINAL, 3,
         "31e67e5a86f83e1f3e11b8acb753725299fc2ab4f78469bf511d66b9dc31bc6c"),
        (2, 0.125, GateKind.SIGMOID_ORIGINAL, 1,
         "eced444d135f99b03c42c3585a33d151572fc692f5d598c7fc89938ede3ee49f"),
        (0, 0.125, GateKind.SIGMOID_ORIGINAL, 1,
         "ce6781392b465e3770175fbeffb822bf238ee183b8191c609113eb76686c4543"),
    ])
    def test_initial_weights_pinned(self, design_id, width, gate, seed, digest):
        cfg = ExperimentConfig(design_id=design_id, width=width, gate=gate, seed=seed)
        h = hashlib.sha256()
        for name, arr in PatchModel(cfg).named_tensors():
            h.update(f"{name} {arr.dtype.str} {arr.shape}\n".encode())
            h.update(arr.tobytes())
        assert h.hexdigest() == digest


class TestTrainLoop:
    def test_deterministic_loss_log(self):
        a = train(tiny_cfg())
        b = train(tiny_cfg())
        assert a.losses == b.losses
        assert a.accuracies == b.accuracies

    def test_seed_changes_trajectory(self):
        a = train(tiny_cfg())
        b = train(tiny_cfg(seed=1))
        assert a.losses != b.losses

    def test_writes_log_and_checkpoints(self, tmp_path):
        result = train(tiny_cfg(), out_dir=tmp_path)
        log = (tmp_path / "train_log.txt").read_text().splitlines()
        assert log[0] == "step loss accuracy"
        assert len(log) == 1 + result.steps_run
        first = log[1].split()
        assert first[0] == "0" and float(first[1]) == pytest.approx(result.losses[0], abs=1e-6)
        assert (tmp_path / "final.ckpt").exists()
        assert (tmp_path / "best.ckpt").exists()

    def test_best_checkpoint_holds_the_weights_of_the_best_loss(self, tmp_path):
        cfg = tiny_cfg(lr=0.005, momentum=0.0)
        result = fixed_batch_run(cfg, keep_best=True)
        result.save(tmp_path)
        model, _, _ = load_model_checkpoint(tmp_path / "best.ckpt")
        x, labels, _ = SyntheticPatchTask(cfg.input_size).batch(range(cfg.batch))
        loss, _ = bce_with_logits(model.forward(x, training=True), labels)
        assert loss.hex() == min(result.losses).hex()

    def test_target_accuracy_stops_early(self):
        cfg = tiny_cfg(epochs=1, steps_per_epoch=400)
        result = train(cfg, target_accuracy=0.95)
        assert result.steps_run < 400
        assert result.final_accuracy >= 0.95

    @pytest.mark.parametrize("target", [float("nan"), float("inf"), 1.5, 0.0, -1.0])
    def test_target_accuracy_outside_unit_interval_raises(self, target, monkeypatch):
        import moonnet.train as mtrain

        monkeypatch.setattr(mtrain, "PatchModel", lambda *a: pytest.fail("built a model"))
        with pytest.raises(ConfigError, match=r"target accuracy must be in \(0, 1\]"):
            train(tiny_cfg(), target_accuracy=target)

    def test_target_accuracy_one_is_allowed(self):
        assert train(tiny_cfg(epochs=1, steps_per_epoch=2), target_accuracy=1.0).steps_run == 2

    def test_fixed_batch_loss_strictly_decreases(self):
        cfg = tiny_cfg(epochs=1, steps_per_epoch=30, lr=0.005, momentum=0.0)
        result = fixed_batch_run(cfg)
        diffs = np.diff(result.losses)
        assert np.all(diffs < 0.0)

    @pytest.mark.parametrize("augment", [AugmentPackage.VER1, AugmentPackage.VER3])
    @pytest.mark.parametrize("gate", [GateKind.SIGMOID_ORIGINAL, GateKind.RESIDUAL_TANH])
    @pytest.mark.parametrize("design_id", [0, 5])
    def test_train_is_the_reference_loop(self, tmp_path, design_id, gate, augment):
        """Same bits as the loop written out: every loss, every final tensor,
        and best.ckpt's tensors against the loop's snapshot."""
        cfg = tiny_cfg(design_id=design_id, gate=gate, augment=augment, steps_per_epoch=6,
                       width=0.0625, seed=3)
        state = train(cfg, out_dir=tmp_path)
        losses, model, best = reference_run(cfg)
        assert [v.hex() for v in state.losses] == [v.hex() for v in losses]
        assert same_tensors(state.model.named_tensors(), model.named_tensors())
        for name, expected in (("final", model.named_tensors()), ("best", best)):
            saved = [(n, a) for n, a in load_checkpoint(tmp_path / f"{name}.ckpt")
                     if not n.startswith(META_PREFIX)]
            assert same_tensors(saved, expected), name


class TestTaskProtocol:
    @pytest.mark.parametrize("augment", [AugmentPackage.VER1, AugmentPackage.VER3])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_batches_are_the_reference_draw(self, seed, augment):
        """``batches`` yields reference_run's batches bit for bit and draws
        ``batch`` seeds per batch, no more, so the saved stream state holds."""
        cfg = tiny_cfg(seed=seed, augment=augment, batch=3, steps_per_epoch=4)
        task = SyntheticPatchTask(cfg.input_size, cfg.augment)
        rng = np.random.default_rng([seed, 2])
        got = itertools.islice(task.batches(rng, cfg.batch), 4)
        for (x, targets), (ex, et) in zip(got, reference_batches(cfg), strict=True):
            assert (x.values.dtype, x.shape, x.values.tobytes()) == \
                (ex.values.dtype, ex.shape, ex.values.tobytes())
            assert (targets.dtype, targets.shape, targets.tobytes()) == \
                (et.dtype, et.shape, et.tobytes())
        after = np.random.default_rng([seed, 2])
        after.integers(0, 2 ** 31, size=4 * cfg.batch)
        assert rng.bit_generator.state == after.bit_generator.state

    def test_train_state_builds_the_configured_task(self):
        cfg = tiny_cfg(input_size=128, augment=AugmentPackage.VER3)
        task = TrainState(cfg).task
        assert (task.size, task.augment) == (cfg.input_size, cfg.augment)

    def test_step_scores_through_the_task(self, monkeypatch):
        """TrainState.step takes its loss and accuracy from its task."""
        calls = []

        def counted(name, method):
            def wrapper(self, *args):
                calls.append(name)
                return method(self, *args)
            return wrapper

        for name in ("loss", "accuracy"):
            monkeypatch.setattr(SyntheticPatchTask, name,
                                counted(name, getattr(SyntheticPatchTask, name)))
        train(tiny_cfg(steps_per_epoch=2))
        assert calls == ["loss", "accuracy"] * 2

    @pytest.mark.parametrize("size,n_images", [(64, 20), (128, 9)])
    def test_evaluate_model_is_the_loop_written_out(self, size, n_images):
        """evaluate_model's metrics and accuracy, by .hex(), are those of a
        loop over task.batch, model_detections and the cell-accuracy formula,
        which the task's ``detections`` and ``accuracy`` reproduce."""
        model = PatchModel(ExperimentConfig(input_size=size, seed=5))
        task = SyntheticPatchTask(size)
        per_forward = EVAL_PIXELS_PER_FORWARD // size ** 2
        preds, gts, logits, targets = [], [], [], []
        for start in range(10_000, 10_000 + n_images, per_forward):
            x, t, samples = task.batch(range(start, min(start + per_forward, 10_000 + n_images)))
            z = model.forward(x, training=False)
            for i, li in enumerate(samples):
                preds.append(model_detections(z[i:i + 1], task, li))
                assert task.detections(z[i:i + 1], li) == preds[-1]
                gts.append(li.boxes)
            logits.append(z)
            targets.append(t)
        logits, targets = np.concatenate(logits), np.concatenate(targets)
        acc = float(np.mean((logits > 0.0) == (targets > 0.5)))
        assert task.accuracy(logits, targets).hex() == acc.hex()
        expected = evaluate(preds, gts, num_classes=1)
        result, got = evaluate_model(model, task, n_images=n_images)
        assert {k: v.hex() for k, v in result.as_dict().items()} == \
            {k: v.hex() for k, v in expected.as_dict().items()}
        assert got.hex() == acc.hex()


class TestFusedConvBlock:
    @pytest.mark.parametrize("gate", [GateKind.RESIDUAL_TANH, GateKind.SIGMOID_ORIGINAL])
    def test_three_steps_train_as_batchnorm_then_silu(self, gate, monkeypatch):
        """ConvBlock's fused batchnorm_silu trains bit for bit as the
        batchnorm -> silu pair it replaced: three steps of design 5, every
        loss and every named tensor."""
        def three_steps():
            cfg = tiny_cfg(design_id=5, gate=gate, batch=4, width=0.25)
            state = TrainState(cfg)
            task = SyntheticPatchTask(cfg.input_size, cfg.augment)
            for i in range(3):
                x, labels, _ = task.batch(range(4 * i, 4 * i + 4))
                state.step(x, labels)
            return state

        fused = three_steps()
        calls = []

        def batchnorm_then_silu(x, gamma, beta, **bn):
            calls.append(x.shape)
            y, bw_bn = T.batchnorm(x, gamma, beta, **bn)
            out, bw_act = T.silu(y)
            return out, lambda g: bw_bn(*bw_act(g))

        monkeypatch.setattr(backbone, "batchnorm_silu", batchnorm_then_silu)
        pair = three_steps()
        assert len(calls) == 3 * 21  # the 21 ConvBlocks of design 5, at each step
        assert [v.hex() for v in fused.losses] == [v.hex() for v in pair.losses]
        assert same_tensors(fused.model.named_tensors(), pair.model.named_tensors())


class TestFloat32TracksFloat64:
    # Relative loss gaps measured over seeds 0-9 at these settings (width
    # 0.125, batch 4, 64 px), designs 0, 2 and 5 under both gates: at most
    # 4.4e-7 at step 0, where only float32 rounding separates the twins, and
    # at most 6.6e-2 over 10 steps (design 2, residual gate, seed 4), as SGD
    # amplifies that rounding; the next worst run reached 9.5e-3.
    STEP0_BOUND = 2e-6
    BOUND = 0.15

    @pytest.mark.parametrize("gate", list(GateKind))
    @pytest.mark.parametrize("design_id", [0, 2, 5])
    def test_ten_steps_against_the_float64_cast(self, design_id, gate):
        """A model and its float64 cast trained on the same batches: the
        losses stay close step by step, and nothing in the float32 model is
        upcast (logits, input gradient, weights, buffers, gradients and
        velocities)."""
        def step(model, opt, x, labels):
            logits = model.forward(x, training=True)
            loss, g = bce_with_logits(logits, labels)
            gx = model.backward(g)
            grads = [p.grad for p in model.parameters()]  # the step consumes them
            opt.step()
            return loss, ([logits, gx] + [a for _, a in model.named_tensors()]
                          + opt.velocities + grads)

        cfg = tiny_cfg(design_id=design_id, gate=gate, width=0.125, batch=4)
        m32, m64 = PatchModel(cfg), PatchModel(cfg).cast(np.float64)
        o32, o64 = (SGD(m.parameters(), cfg.lr, cfg.momentum) for m in (m32, m64))
        task = SyntheticPatchTask(cfg.input_size, cfg.augment)
        rng = np.random.default_rng([cfg.seed, 2])  # train()'s batch-seed stream
        gaps = []
        for _ in range(10):
            x, labels, _ = task.batch([int(s) for s in rng.integers(0, 2 ** 31, size=4)])
            loss32, arrays = step(m32, o32, x, labels)
            loss64, _ = step(m64, o64, Tensor4(x.values.astype(np.float64)), labels)
            assert {a.dtype.str for a in arrays} == {"<f4"}
            gaps.append(abs(loss32 - loss64) / loss64)
        assert gaps[0] <= self.STEP0_BOUND, gaps
        assert max(gaps) <= self.BOUND, gaps


class TestCheckpointGlue:
    def test_model_round_trip_bitwise_forward(self, tmp_path):
        cfg = tiny_cfg()
        result = train(cfg)
        p = tmp_path / "m.ckpt"
        save_model_checkpoint(result.model, cfg, p)
        model2, cfg2, rng_state = load_model_checkpoint(p)
        assert cfg2 == cfg
        task = SyntheticPatchTask(64)
        x, _, _ = task.batch([9])
        a = result.model.forward(x, training=False)
        b = model2.forward(x, training=False)
        assert np.array_equal(a, b)
        assert isinstance(rng_state, dict)

    def test_resume_rng_state_recorded(self, tmp_path):
        train(tiny_cfg(), out_dir=tmp_path)
        _, _, state = load_model_checkpoint(tmp_path / "final.ckpt")
        assert "state" in state or state == {}

    def test_loaded_rng_state_re_saves_byte_for_byte(self, tmp_path):
        """The state dict a load returns is a valid ``rng`` for a save, so a
        CLI run's files re-save unchanged; a checkpoint saved without a
        generator loads ``{}``, which re-saves as ``{}``."""
        train(tiny_cfg(), out_dir=tmp_path)
        save_model_checkpoint(PatchModel(tiny_cfg()), tiny_cfg(), tmp_path / "bare.ckpt")
        resaved = tmp_path / "resaved.ckpt"
        for name, drawn in (("final.ckpt", True), ("best.ckpt", True), ("bare.ckpt", False)):
            model, cfg, rng_state = load_model_checkpoint(tmp_path / name)
            assert (rng_state != {}) is drawn
            save_model_checkpoint(model, cfg, resaved, rng=rng_state)
            assert resaved.read_bytes() == (tmp_path / name).read_bytes(), name

    @staticmethod
    def _rewritten(tmp_path, edit):
        """A saved tiny model's checkpoint with its tensor list passed through edit."""
        cfg = tiny_cfg()
        p = tmp_path / "m.ckpt"
        save_model_checkpoint(PatchModel(cfg), cfg, p)
        save_checkpoint(edit(load_checkpoint(p)), p)
        return p

    def test_load_draws_no_weights(self, tmp_path, monkeypatch):
        cfg = tiny_cfg()
        p, resaved = tmp_path / "m.ckpt", tmp_path / "resaved.ckpt"
        save_model_checkpoint(train(cfg).model, cfg, p)

        def no_draw(*args, **kwargs):
            raise AssertionError("a weight was drawn")

        monkeypatch.setattr(Param, "draw", no_draw)
        monkeypatch.setattr(np.random, "default_rng", no_draw)
        with pytest.raises(AssertionError, match="drawn"):
            PatchModel(cfg)
        model, cfg2, _ = load_model_checkpoint(p)
        save_model_checkpoint(model, cfg2, resaved)
        assert resaved.read_bytes() == p.read_bytes()

    def test_missing_tensor_is_checkpoint_error_naming_it(self, tmp_path):
        p = self._rewritten(tmp_path, lambda ts: [t for t in ts if t[0] != "stage2/conv/bn_beta"])
        with pytest.raises(CheckpointError, match="missing tensor 'stage2/conv/bn_beta'"):
            load_model_checkpoint(p)

    def test_missing_metadata_is_checkpoint_error(self, tmp_path):
        p = self._rewritten(tmp_path, lambda ts: [t for t in ts if t[0] != "__meta__/config"])
        with pytest.raises(CheckpointError, match="missing tensor '__meta__/config'"):
            load_model_checkpoint(p)

    @pytest.mark.parametrize("shape", [(1,), (3, 5)])  # broadcastable, and not
    def test_wrong_shape_is_checkpoint_error_naming_it(self, tmp_path, shape):
        p = self._rewritten(tmp_path, lambda ts: [
            (n, np.ones(shape, np.float32) if n == "stage1/conv/bn_gamma" else a)
            for n, a in ts])
        with pytest.raises(CheckpointError, match="'stage1/conv/bn_gamma' has shape"):
            load_model_checkpoint(p)

    @pytest.mark.parametrize("name, blob", [
        ("config", bytes_to_tensor(b"\xff\xfe")),
        ("rng", bytes_to_tensor(b"{\"a\": \"\xe9\"}")),
        ("config", np.zeros(0, np.float32)),
        ("config", bytes_to_tensor(b"design_id=9\n")),
        ("config", bytes_to_tensor(b"design_id=5\n")[:2]),
    ], ids=["config-not-utf8", "rng-not-utf8", "blob-under-4-bytes", "bad-config",
            "length-past-end"])
    def test_malformed_metadata_is_checkpoint_error_naming_it(self, tmp_path, name, blob):
        p = self._rewritten(tmp_path, lambda ts: [
            (n, blob if n == "__meta__/" + name else a) for n, a in ts])
        with pytest.raises(CheckpointError, match=f"tensor '__meta__/{name}': "):
            load_model_checkpoint(p)

    def test_conv_bias_of_older_layout_is_refused(self, tmp_path):
        # ConvBlock convs carried a bias before; batchnorm running means
        # saved with one do not fit a model without it
        def add_bias(ts):
            i = [n for n, _ in ts].index("stage0/conv/weight")
            return ts[:i + 1] + [("stage0/conv/bias", np.zeros(ts[i][1].shape[0], np.float32))] \
                + ts[i + 1:]
        p = self._rewritten(tmp_path, add_bias)
        with pytest.raises(CheckpointError, match="unexpected tensor 'stage0/conv/bias'"):
            load_model_checkpoint(p)


class TestEvaluateModel:
    def test_trained_model_beats_chance(self):
        cfg = tiny_cfg(epochs=1, steps_per_epoch=400)
        result = train(cfg, target_accuracy=0.97)
        task = SyntheticPatchTask(64)
        metrics, acc = evaluate_model(result.model, task, n_images=16)
        assert acc > 0.9
        assert metrics.ap50 > 0.5

    def test_one_forward_per_chunk(self, monkeypatch):
        calls = []
        forward = PatchModel.forward

        def counted(self, *args, **kwargs):
            calls.append(1)
            return forward(self, *args, **kwargs)

        monkeypatch.setattr(PatchModel, "forward", counted)
        model = PatchModel(ExperimentConfig(seed=7))
        metrics, acc = evaluate_model(model, SyntheticPatchTask(64), n_images=8)
        assert len(calls) == 1  # 8 images of 64 px fit one 2^16-pixel forward
        # pinned: reusing the detection logits for accuracy changes no metric
        assert metrics.as_dict() == {
            "ap50": float.fromhex("0x1.6e1c06aabfbccp-1"),
            "ap75": float.fromhex("0x1.6e1c06aabfbccp-1"),
            "ap": float.fromhex("0x1.6e1c06aabfbcdp-1"),
            "recall": 1.0,
            "precision": 0.625,
        }
        assert acc == 19 / 32

    @pytest.mark.parametrize("size", [64, 128])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_batched_forwards_score_like_one_forward_per_image(self, size, seed):
        model = PatchModel(ExperimentConfig(input_size=size, seed=seed))
        task = SyntheticPatchTask(size)
        # two full forwards of images and a partial one
        n_images = 2 * (EVAL_PIXELS_PER_FORWARD // size ** 2) + 2
        preds, gts, correct, total = [], [], 0, 0
        for i in range(n_images):
            li = task.sample(10_000 + i)
            logits = model.forward(li.image, training=False)
            preds.append(model_detections(logits, task, li))
            gts.append(li.boxes)
            labels = task.label_grid(li)[None]
            correct += ((logits > 0) == (labels > 0.5)).sum()
            total += labels.size
        assert sum(map(len, preds)) > 0
        expected = evaluate(preds, gts, num_classes=1)
        result, acc = evaluate_model(model, task, n_images=n_images)
        assert {k: v.hex() for k, v in result.as_dict().items()} == \
            {k: v.hex() for k, v in expected.as_dict().items()}
        assert acc == correct / total

    @pytest.mark.parametrize("seed", [0, 1])
    def test_detections_localize_on_the_cell_channel_mean(self, seed):
        # threshold 0 makes every cell confident; each box is the bounding box
        # of the cell's pixels within 0.15 of its brightest channel mean
        task = SyntheticPatchTask(128)
        li = task.sample(seed)
        logits = np.random.default_rng(seed).standard_normal((1, 1, task.grid, task.grid))
        boxes = model_detections(logits, task, li, threshold=0.0)
        assert len(boxes) == task.grid ** 2
        cell, image = task.CELL, li.image.values[0]
        for box, (gy, gx) in zip(boxes, np.ndindex(task.grid, task.grid)):
            patch = image.mean(axis=0)[gy * cell:(gy + 1) * cell, gx * cell:(gx + 1) * cell]
            ys, xs = np.nonzero(patch >= patch.max() - 0.15)
            assert (box.x1, box.y1, box.x2, box.y2) == (
                gx * cell + xs.min(), gy * cell + ys.min(),
                gx * cell + xs.max() + 1, gy * cell + ys.max() + 1)
            assert box.score == float(clipped_sigmoid(logits[0, 0])[gy, gx])

    def test_sweep_rows_structure(self):
        rows = sweep(tiny_cfg(epochs=1, steps_per_epoch=2), {"input_size": ["64"]})
        assert len(rows) == 1
        assert list(rows[0]) == ["input_size", "steps", "final_loss", "accuracy", "ap50",
                                 "ap75", "ap", "recall", "precision"]
        assert rows[0]["input_size"] == "64" and rows[0]["steps"] == 2


class TestSweep:
    def test_one_cell_row_is_train_then_evaluate_model(self):
        """Same bits as calling train() and evaluate_model on the cell's config."""
        base = tiny_cfg(epochs=1, steps_per_epoch=3)
        (row,) = sweep(base, {"gate": ["sigmoid"], "seed": ["2"]})
        cfg = dataclasses.replace(base, gate=GateKind.SIGMOID_ORIGINAL, seed=2)
        result = train(cfg)
        metrics, acc = evaluate_model(result.model, SyntheticPatchTask(64), n_images=16)
        assert row == {"gate": "sigmoid", "seed": "2", "steps": 3,
                       "final_loss": result.losses[-1], "accuracy": acc, **metrics.as_dict()}

    def test_seed_rows_print_mean_and_std(self):
        rows = sweep(tiny_cfg(epochs=1, steps_per_epoch=2),
                     {"design_id": ["0", "5"], "seed": ["0", "1"]})
        header, columns, *lines = sweep_table(rows).splitlines()
        assert "eval task: 16 Ver1 images" in header and "mean±std (ddof=1)" in header
        assert columns.split() == ["design_id", "steps", "final_loss", "accuracy", "ap50",
                                   "ap75", "ap", "recall", "precision"]
        assert len(lines) == 2
        for line, design in zip(lines, ("0", "5")):
            runs = [r for r in rows if r["design_id"] == design]
            assert [r["seed"] for r in runs] == ["0", "1"]
            expected = [f"{np.mean(v):.4f}±{np.std(v, ddof=1):.4f}" for v in
                        ([r[c] for r in runs] for c in columns.split()[2:])]
            assert line.split() == [design, "2", *expected]

    def test_one_seed_prints_plain_numbers(self):
        rows = sweep(tiny_cfg(epochs=1, steps_per_epoch=2), {"seed": ["4"]})
        _, columns, line = sweep_table(rows).splitlines()
        assert columns.split()[:2] == ["seed", "steps"]
        assert line.split() == ["4", "2", *(f"{rows[0][c]:.4f}" for c in columns.split()[2:])]

    def test_grid_is_the_product_in_flag_order(self, capsys):
        rc = cli_main(["sweep", "--over", "gate=sigmoid,residual-tanh",
                       "--over", "design_id=0,5", "--width", "0.125", "--batch", "2",
                       "--epochs", "1", "--steps-per-epoch", "1"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].split()[:2] == ["gate", "design_id"]
        assert [tuple(line.split()[:2]) for line in lines[2:]] == [
            ("sigmoid", "0"), ("sigmoid", "5"), ("residual-tanh", "0"), ("residual-tanh", "5")]

    def test_cell_that_cannot_build_stops_before_training(self, monkeypatch):
        """Width 0.3 gives design 5 a 77-channel C2f stage: the second cell
        fails validation, so the first cell never trains."""
        import moonnet.train as mtrain

        monkeypatch.setattr(mtrain, "train", lambda *a, **k: pytest.fail("trained"))
        with pytest.raises(ConfigError, match="width 0.3 gives design 5 stage 1"):
            sweep(tiny_cfg(), {"width": ["0.25", "0.3"]})

    def test_attention_free_design_trains_once_for_both_gates(self, monkeypatch):
        """Design 0 has no attention block, so its gate changes nothing: the
        two design-0 cells share one run and each row keeps its gate."""
        import moonnet.train as mtrain

        trained = []

        def counted(cfg, *args, **kwargs):
            trained.append(cfg)
            return train(cfg, *args, **kwargs)

        monkeypatch.setattr(mtrain, "train", counted)
        rows = sweep(tiny_cfg(epochs=1, steps_per_epoch=2),
                     {"design_id": ["0", "5"], "gate": ["sigmoid", "residual-tanh"]})
        assert [c.design_id for c in trained] == [0, 5, 5]
        assert [(r["design_id"], r["gate"]) for r in rows] == [
            ("0", "sigmoid"), ("0", "residual-tanh"), ("5", "sigmoid"), ("5", "residual-tanh")]
        assert {**rows[0], "gate": None} == {**rows[1], "gate": None}
        assert rows[2]["final_loss"] != rows[3]["final_loss"]

    def test_config_file_is_the_base(self, tmp_path, capsys):
        """An --over key may also be in the --config file, which it overrides."""
        (tmp_path / "c.cfg").write_text("input_size=50\nwidth=0.125\nbatch=2\n")
        rc = cli_main(["sweep", "--config", str(tmp_path / "c.cfg"), "--over",
                       "input_size=64", "--epochs", "1", "--steps-per-epoch", "1"])
        assert rc == 0
        assert capsys.readouterr().out.splitlines()[2].split()[:2] == ["64", "1"]


class TestConfig:
    def test_round_trip_through_text(self):
        cfg = tiny_cfg(design_id=2, gate=GateKind.SIGMOID_ORIGINAL,
                       augment=AugmentPackage.VER3)
        assert parse_config_text(cfg.to_text()) == cfg

    def test_comments_and_blank_lines(self):
        cfg = parse_config_text("# a comment\n\nlr=0.5  # inline\n")
        assert cfg.lr == 0.5

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            parse_config_text("warp_speed=9\n")

    def test_bad_value(self):
        with pytest.raises(ConfigError):
            parse_config_text("lr=fast\n")

    def test_fuzzed_file_loads_or_raises_config_error(self, tmp_path):
        """Seeded fuzz: overwrite one to three bytes of a saved config, with
        number-like or arbitrary bytes, or truncate it."""
        valid = tiny_cfg().to_text().encode()
        alphabet = list(b"0123456789 -.e=\n#infa\xff")
        rng = np.random.default_rng(0)
        p = tmp_path / "c.cfg"
        for case in range(1000):
            data = bytearray(valid)
            if case % 3 == 0:
                data = data[:rng.integers(len(data))]
            else:
                for i in rng.integers(len(data), size=rng.integers(1, 4)):
                    data[i] = int(rng.choice(alphabet) if case % 3 == 1 else rng.integers(256))
            p.write_bytes(bytes(data))
            try:
                load_config_file(p).validate()
            except ConfigError:
                pass

    @pytest.mark.parametrize("kw", [dict(input_size=50), dict(lr=-1.0),
                                    dict(design_id=9), dict(width=0.0),
                                    dict(momentum=1.0), dict(batch=0),
                                    dict(input_size=-32, batch=2), dict(seed=-1),
                                    dict(width=0.3), dict(design_id=0, width=0.1),
                                    dict(width=float("nan"))])
    def test_validate_rejects(self, kw):
        with pytest.raises(ConfigError):
            dataclasses.replace(ExperimentConfig(), **kw).validate()

    def test_validate_passes_only_configs_that_build(self):
        """Every design and width from 0.05 to 1.0: a config that validates
        builds a model whose C2f blocks split evenly; any other is rejected
        naming the width."""
        for design_id in range(7):
            for width in np.round(np.arange(0.05, 1.0001, 0.05), 2):
                cfg = ExperimentConfig(design_id=design_id, width=float(width))
                try:
                    cfg.validate()
                except ConfigError as e:
                    assert str(e).startswith(f"width {width} gives design {design_id} stage")
                    continue
                stages = PatchModel(cfg, draw=False).backbone.stages
                assert all(st.c2f is None or st.c2f.channels % 2 == 0 for st in stages)

    def test_default_text_pinned(self):
        assert ExperimentConfig().to_text() == (
            "design_id=5\ngate=residual-tanh\nwidth=0.25\ninput_size=64\naugment=ver1\n"
            "lr=0.01\nmomentum=0.9\nbatch=4\nepochs=5\nsteps_per_epoch=100\nseed=0\n")

    def test_augment_value_case_insensitive(self):
        assert parse_config_text("augment=VER3\n").augment is AugmentPackage.VER3

    def test_sweep_validates_every_size_before_training(self, monkeypatch):
        import moonnet.train as mtrain

        monkeypatch.setattr(mtrain, "train", lambda *a, **k: pytest.fail("trained"))
        with pytest.raises(ConfigError, match="input_size"):
            sweep(tiny_cfg(), {"input_size": ["64", "50"]})


def sized_runs(size):
    """A train, augment-preview and sweep at one input size.  The sizes the
    tests pass are ones NumPy refuses before allocating anything: an image
    of 2^63 bytes or more is "too big", one of 512 PiB cannot be allocated."""
    return [["train", "--input-size", size, "--epochs", "1", "--steps-per-epoch", "1"],
            ["augment-preview", "--size", size], ["sweep", "--over", f"input_size={size}"]]


class TestCli:
    def test_train_success_exit_zero(self, tmp_path, capsys):
        rc = cli_main(["train", "--design", "5", "--width", "0.125",
                       "--epochs", "1", "--steps-per-epoch", "3", "--batch", "2",
                       "--out", str(tmp_path / "run")])
        assert rc == 0
        assert "trained 3 steps" in capsys.readouterr().out
        assert (tmp_path / "run" / "final.ckpt").exists()

    def test_invalid_config_exit_one(self, capsys):
        rc = cli_main(["train", "--size", "50"])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--epochs", "0"],
                                      ["--size", "32", "--batch", "1"],
                                      ["--lr", "fast"],
                                      ["--size", "-32", "--batch", "2"]])
    def test_rejected_train_flags_exit_one(self, argv, capsys):
        rc = cli_main(["train", *argv])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv, names", [
        *[(argv, "array is too big") for argv in sized_runs("8589934592")],
        (["sweep", "--over", "input_size=64,x"], "input_size"),
        (["augment-preview", "--size", "50"], "got 50"),
        (["sweep", "--over", "input_size=64", "--size", "96"], "--over"),
        (["sweep", "--over", "input_size=64", "--input-size", "96"], "--over"),
        *[(["train", "--epochs", "1", "--steps-per-epoch", "30", "--target-accuracy", v],
           f"got {v}") for v in ("nan", "1.5", "-1", "0", "inf")],
        (["sweep", "--over", "warp=1"], "unknown key 'warp'"),
        (["sweep", "--over", "batch=2,"], "bad value for 'batch': ''"),
        (["sweep", "--over", "batch="], "bad value for 'batch': ''"),
        (["sweep", "--over", "batch"], "bad value for 'batch': ''"),
        (["sweep", "--over", "seed=0", "--over", "seed=1"], "--over names 'seed' twice"),
        (["sweep", "--over", "seed=0,0"], "the same config"),
        (["sweep", "--over", "design_id=5,05"], "the same config"),
        (["sweep", "--over", "design_id=0,5", "--design", "5"], "--design-id/--design"),
        (["sweep", "--over", "lr=0.1", "--lr", "0.2"], "'lr' is set by both --over and --lr")])
    def test_rejected_flags_exit_one(self, argv, names, capsys):
        rc = cli_main(argv)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and names in err

    @pytest.mark.parametrize("argv", sized_runs("2147483648"),
                             ids=["train", "augment-preview", "sweep"])
    def test_unallocatable_size_exit_two(self, argv, capsys):
        rc = cli_main(argv)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("runtime failure: Unable to allocate") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [["train", "--epochs", "1", "--steps-per-epoch", "1"],
                                      ["gradcheck"], ["augment-preview"]],
                             ids=["train", "gradcheck", "augment-preview"])
    def test_negative_seed_exit_one(self, argv, capsys):
        rc = cli_main([*argv, "--seed", "-1"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "seed" in err

    def test_diverging_run_prints_one_line(self, capsys):
        # the overflow on the way to the non-finite loss warns nothing
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli_main(["train", "--lr", "1e30", "--width", "0.0625", "--epochs", "1",
                           "--steps-per-epoch", "2"])
        assert rc == 2
        assert capsys.readouterr().err == "runtime failure: non-finite loss at step 1\n"

    def test_size_32_trains_with_batch_2(self, capsys):
        rc = cli_main(["train", "--size", "32", "--batch", "2", "--width", "0.125",
                       "--epochs", "1", "--steps-per-epoch", "2"])
        assert rc == 0
        assert "trained 2 steps" in capsys.readouterr().out

    def test_flags_are_config_keys(self):
        from moonnet.cli import _build_config, build_parser

        args = build_parser().parse_args(
            ["train", "--design-id", "2", "--input-size", "96", "--gate", "sigmoid",
             "--augment", "ver2", "--steps-per-epoch", "7"])
        cfg = _build_config(args)
        assert (cfg.design_id, cfg.input_size, cfg.gate, cfg.augment, cfg.steps_per_epoch) \
            == (2, 96, GateKind.SIGMOID_ORIGINAL, AugmentPackage.VER2, 7)

    @pytest.mark.parametrize("cmd", ["stats", "evaluate"])
    def test_bad_annotation_exit_one(self, tmp_path, capsys, cmd):
        d = tmp_path / "ann"
        d.mkdir()
        (d / "a.txt").write_text("5 2 5 4 0\n")
        argv = [str(d)] if cmd == "stats" else ["--gt", str(d), "--preds", str(d)]
        rc = cli_main([cmd, *argv])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "a.txt:1:" in err and err.count("\n") == 1

    @pytest.mark.parametrize("cmd", ["stats", "evaluate"])
    def test_infinite_box_exit_one(self, tmp_path, capsys, cmd):
        d = tmp_path / "ann"
        d.mkdir()
        (d / "a.txt").write_text("0 0 10 10 0\n0 0 inf 5 0\n")
        argv = [str(d)] if cmd == "stats" else ["--gt", str(d), "--preds", str(d)]
        rc = cli_main([cmd, *argv])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "a.txt:2: non-finite box" in captured.err
        assert captured.err.count("\n") == 1

    def test_missing_annotation_dir_exit_one(self, tmp_path):
        rc = cli_main(["evaluate", "--gt", str(tmp_path / "none"),
                       "--preds", str(tmp_path / "none")])
        assert rc == 1

    def test_stats_fixture(self, tmp_path, capsys):
        d = tmp_path / "ann"
        d.mkdir()
        (d / "a.txt").write_text("0 0 30 30 0\n0 0 28 37 0\n")
        rc = cli_main(["stats", str(d)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "mean area: 968.0 px^2 (31.1 x 31.1)" in out

    def test_evaluate_dirs(self, tmp_path, capsys):
        gt, pr = tmp_path / "gt", tmp_path / "pr"
        gt.mkdir(), pr.mkdir()
        (gt / "i.txt").write_text("0 0 10 10 0\n")
        (pr / "i.txt").write_text("0 0 10 10 0 0.9\n")
        rc = cli_main(["evaluate", "--gt", str(gt), "--preds", str(pr)])
        assert rc == 0
        assert "ap50" in capsys.readouterr().out

    def test_evaluate_shares_dota_class_names_between_dirs(self, tmp_path, capsys):
        gt, pr = tmp_path / "gt", tmp_path / "pr"
        gt.mkdir(), pr.mkdir()
        plane, ship = "0 0 10 0 10 10 0 10 plane 0", "20 20 30 20 30 30 20 30 ship 0"
        (gt / "i.txt").write_text(f"{plane}\n{ship}\n")
        # the same boxes, the class names first seen in the other order
        (pr / "i.txt").write_text(f"{ship}\n{plane}\n")
        out = tmp_path / "m.txt"
        rc = cli_main(["evaluate", "--gt", str(gt), "--preds", str(pr), "--out", str(out)])
        assert rc == 0
        assert "ap50=1.000000" in out.read_text().splitlines()

    def test_evaluate_missing_pred_file_means_no_detections(self, tmp_path, capsys):
        gt, pr = tmp_path / "gt", tmp_path / "pr"
        gt.mkdir(), pr.mkdir()
        (gt / "a.txt").write_text("0 0 10 10 0\n")
        (gt / "b.txt").write_text("0 0 10 10 0\n")
        (pr / "a.txt").write_text("0 0 10 10 0 0.9\n")
        out = tmp_path / "m.txt"
        rc = cli_main(["evaluate", "--gt", str(gt), "--preds", str(pr), "--out", str(out)])
        assert rc == 0
        assert "recall=0.500000" in out.read_text().splitlines()

    def test_evaluate_negative_class_id_exit_one(self, tmp_path, capsys):
        gt, pr = tmp_path / "gt", tmp_path / "pr"
        gt.mkdir(), pr.mkdir()
        (gt / "i.txt").write_text("0 0 10 10 0\n20 20 30 30 -1\n")
        (pr / "i.txt").write_text("0 0 10 10 0 0.9\n")
        rc = cli_main(["evaluate", "--gt", str(gt), "--preds", str(pr)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "i.txt:2: class id must be non-negative, got -1" in captured.err
        assert captured.err.count("\n") == 1

    def test_augment_preview(self, capsys):
        rc = cli_main(["augment-preview", "--package", "ver2", "--seed", "1"])
        assert rc == 0
        assert "boxes in" in capsys.readouterr().out

    @pytest.mark.parametrize("out, written", [("a/b/img", ["img.npy", "img.txt"]),
                                              ("x.npy", ["x.npy.npy", "x.npy.txt"])],
                             ids=["fresh-nested-dir", "npy-suffix"])
    def test_augment_preview_writes_the_files_it_prints(self, tmp_path, capsys, out, written):
        out = tmp_path / out
        rc = cli_main(["augment-preview", "--out", str(out)])
        assert rc == 0
        assert sorted(p.name for p in out.parent.iterdir()) == written
        assert capsys.readouterr().out.endswith(f"wrote {out}.npy and {out}.txt\n")
        assert np.load(f"{out}.npy").shape == (1, 3, 64, 64)
        assert load_annotations(f"{out}.txt")

    @pytest.mark.parametrize("argv", [
        ["train", "--config", "{dir}"],
        ["train", "--config", "{latin1}"],
        ["stats", "{latin1}"],
        ["evaluate", "--gt", "{latin1_dir}", "--preds", "{ann}"],
        ["train", "--epochs", "1", "--steps-per-epoch", "1", "--out", "{latin1}"],
        ["evaluate", "--gt", "{ann}", "--preds", "{ann}", "--out", "{dir}"],
        ["train", "--lr", "nan"],
        ["train", "--lr", "inf"],
        ["evaluate", "--gt", "{ann}", "--preds", "{orphan_dir}"],
        ["evaluate", "--gt", "{empty_dir}", "--preds", "{ann}"],
        ["evaluate", "--gt", "{difficult_dir}", "--preds", "{ann}"],
        ["augment-preview", "--out", "{latin1}/img"],
    ], ids=["config-is-dir", "config-not-utf8", "stats-not-utf8", "evaluate-not-utf8",
            "train-out-is-file", "evaluate-out-is-dir", "lr-nan", "lr-inf",
            "evaluate-orphan-pred", "evaluate-gt-no-box", "evaluate-gt-all-difficult",
            "augment-preview-out-under-file"])
    def test_file_and_value_errors_exit_one(self, tmp_path, capsys, argv):
        paths = {"dir": tmp_path, "latin1": tmp_path / "l1.txt",
                 "latin1_dir": tmp_path / "l1", "ann": tmp_path / "ann",
                 "orphan_dir": tmp_path / "orphan", "empty_dir": tmp_path / "empty",
                 "difficult_dir": tmp_path / "difficult"}
        # a comment line, valid as a config and as annotations once decoded
        paths["latin1"].write_bytes("# caf\xe9\n".encode("latin-1"))
        for d in ("latin1_dir", "ann", "orphan_dir", "empty_dir", "difficult_dir"):
            paths[d].mkdir()
        (paths["latin1_dir"] / "a.txt").write_bytes(paths["latin1"].read_bytes())
        (paths["ann"] / "a.txt").write_text("0 0 10 10 0\n")
        # a prediction file whose name matches no ground-truth file
        (paths["orphan_dir"] / "A.txt").write_text("0 0 10 10 0 0.9\n")
        # ground truth with nothing to score: no box at all, or only difficult ones
        (paths["empty_dir"] / "a.txt").write_text("")
        (paths["difficult_dir"] / "a.txt").write_text("0 0 10 0 10 10 0 10 plane 1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli_main([a.format(**paths) for a in argv])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        if {"{empty_dir}", "{difficult_dir}"} & set(argv):
            assert err.startswith(f"error: --gt {argv[2].format(**paths)}: ")

    def test_train_out_is_a_file_fails_before_the_first_step(self, tmp_path, capsys,
                                                             monkeypatch):
        import moonnet.train as mtrain

        monkeypatch.setattr(mtrain.TrainState, "step", lambda *a: pytest.fail("stepped"))
        out = tmp_path / "f"
        out.write_text("")
        rc = cli_main(["train", "--epochs", "1", "--steps-per-epoch", "1", "--out", str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert out.read_text() == ""

    def test_python_dash_m_moonnet(self):
        src = str(Path(moonnet.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-m", "moonnet", "--help"], env=env,
                             capture_output=True, text=True, timeout=60)
        assert out.returncode == 0
        assert out.stdout.startswith("usage: moonnet")

    def test_config_file_merges_under_flags(self, tmp_path, capsys):
        cfgf = tmp_path / "c.cfg"
        cfgf.write_text("design_id=0\nepochs=1\nsteps_per_epoch=2\nwidth=0.125\nbatch=2\n")
        rc = cli_main(["train", "--config", str(cfgf), "--steps-per-epoch", "3"])
        assert rc == 0
        assert "trained 3 steps" in capsys.readouterr().out
