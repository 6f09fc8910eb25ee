"""Optimizer, synthetic task, training-loop, config, and CLI tests."""

import dataclasses
import hashlib
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import moonnet
from moonnet.attention import GateKind
from moonnet.augment import AugmentPackage
from moonnet.checkpoint import (CheckpointError, bytes_to_tensor, load_checkpoint,
                                save_checkpoint)
from moonnet.cli import main as cli_main
from moonnet.config import ConfigError, ExperimentConfig, load_config_file, parse_config_text
from moonnet.metrics import evaluate
from moonnet.tensor import clipped_sigmoid
from moonnet.train import (
    EVAL_PIXELS_PER_FORWARD,
    PatchModel,
    SGD,
    SyntheticPatchTask,
    bce_with_logits,
    evaluate_model,
    load_model_checkpoint,
    model_detections,
    resolution_sweep,
    save_model_checkpoint,
    sgd_step,
    train,
)


def tiny_cfg(**kw):
    base = dict(design_id=5, width=0.125, input_size=64, epochs=1,
                steps_per_epoch=5, batch=2, lr=0.01, momentum=0.9, seed=0)
    base.update(kw)
    return ExperimentConfig(**base)


class TestSgdStep:
    def test_single_step_no_momentum(self):
        theta = np.array([1.0, 2.0])
        v = np.zeros(2)
        sgd_step(theta, np.array([0.5, -1.0]), v, lr=0.1, momentum=0.0)
        assert np.allclose(theta, [0.95, 2.1])

    def test_none_gradient_is_zero_and_momentum_decays(self):
        theta = np.array([1.0])
        v = np.array([2.0])
        sgd_step(theta, None, v, lr=0.1, momentum=0.5)
        assert v[0] == 1.0 and theta[0] == 0.9

    def test_momentum_accumulates(self):
        # two steps with constant gradient g=1: v goes 1, then 1.9
        theta = np.array([0.0])
        v = np.zeros(1)
        g = np.array([1.0])
        sgd_step(theta, g, v, lr=1.0, momentum=0.9)
        assert theta[0] == -1.0
        sgd_step(theta, g, v, lr=1.0, momentum=0.9)
        assert theta[0] == pytest.approx(-2.9)

    def test_in_place(self):
        theta = np.zeros(3)
        out = sgd_step(theta, np.ones(3), np.zeros(3), 0.1, 0.0)
        assert out is theta

    def test_quadratic_bowl_converges(self):
        # f(x) = 0.5 x^T A x with A = diag(1, 10)
        A = np.array([1.0, 10.0])
        x = np.array([5.0, -3.0])
        v = np.zeros(2)
        for _ in range(300):
            sgd_step(x, A * x, v, lr=0.1, momentum=0.9)
        assert float(np.abs(x).max()) < 1e-6


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
        result = train(cfg, out_dir=tmp_path, fixed_batch=True)
        model, _, _ = load_model_checkpoint(tmp_path / "best.ckpt")
        x, labels, _ = SyntheticPatchTask(cfg.input_size).batch(range(cfg.batch))
        loss, _ = bce_with_logits(model.forward(x, training=True), labels)
        assert loss.hex() == min(result.losses).hex()

    def test_target_accuracy_stops_early(self):
        cfg = tiny_cfg(epochs=1, steps_per_epoch=400)
        result = train(cfg, target_accuracy=0.95)
        assert result.steps_run < 400
        assert result.final_accuracy >= 0.95

    def test_fixed_batch_loss_strictly_decreases(self):
        cfg = tiny_cfg(epochs=1, steps_per_epoch=30, lr=0.005, momentum=0.0)
        result = train(cfg, fixed_batch=True)
        diffs = np.diff(result.losses)
        assert np.all(diffs < 0.0)


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

        patched = [m for name, m in sys.modules.items()
                   if name.split(".")[0] == "moonnet" and hasattr(m, "uniform_init")]
        assert len(patched) >= 4  # tensor, backbone, attention, train
        for m in patched:
            monkeypatch.setattr(m, "uniform_init", no_draw)
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
        rows = resolution_sweep(tiny_cfg(epochs=1, steps_per_epoch=2), [64],
                                n_eval_images=2)
        assert len(rows) == 1
        assert {"size", "ap50", "ap75", "ap", "recall", "precision",
                "accuracy"} <= set(rows[0])


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
                                    dict(input_size=-32, batch=2), dict(seed=-1)])
    def test_validate_rejects(self, kw):
        with pytest.raises(ConfigError):
            dataclasses.replace(ExperimentConfig(), **kw).validate()

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
            resolution_sweep(tiny_cfg(), [64, 50])


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

    @pytest.mark.parametrize("argv, names", [(["sweep", "--sizes", "64,x"], "--sizes"),
                                             (["augment-preview", "--size", "50"], "got 50")])
    def test_rejected_flags_exit_one(self, argv, names, capsys):
        rc = cli_main(argv)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and names in err

    @pytest.mark.parametrize("argv", [["train", "--epochs", "1", "--steps-per-epoch", "1"],
                                      ["gradcheck"], ["augment-preview"]],
                             ids=["train", "gradcheck", "augment-preview"])
    def test_negative_seed_exit_one(self, argv, capsys):
        rc = cli_main([*argv, "--seed", "-1"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "seed" in err

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
    ], ids=["config-is-dir", "config-not-utf8", "stats-not-utf8", "evaluate-not-utf8",
            "train-out-is-file", "evaluate-out-is-dir", "lr-nan", "lr-inf",
            "evaluate-orphan-pred", "evaluate-gt-no-box", "evaluate-gt-all-difficult"])
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
