"""The benchmark workloads.  Each is a closed loop with one caller: an
operation starts only after the previous one has finished.

* ``train-small`` and ``train-large`` time training steps (data, forward,
  loss, backward, optimizer) of the design-5 backbone.  The loop runs
  episodes of ``EPISODE_STEPS`` steps from one saved initial state, so every
  episode of a run must repeat the first one's losses bit for bit.
* ``eval-verify`` times the four desk tasks that do not train: one
  ``gradcheck.run_full_suite``, then rounds of ``metrics.evaluate`` on a
  crowded fixture, ``train.evaluate_model`` and a checkpoint save/load
  round trip.

All moonnet calls go through module attributes or methods, so the tracer's
wrappers see them.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from moonnet import gradcheck as mgc
from moonnet import metrics as mmetrics
from moonnet import train as mtrain
from moonnet.attention import GateKind
from moonnet.augment import AugmentPackage, BBox
from moonnet.config import ExperimentConfig

import reference


@dataclass
class PhaseResult:
    """What one timed phase measured."""
    op_s: list[float] = field(default_factory=list)  # wall time per operation
    items: int = 0            # images trained, or boxes scored
    item_s: float = 0.0       # time the item rate divides by
    attempted: int = 0
    failed: int = 0
    tasks: dict[str, list[float]] = field(default_factory=dict)  # eval-verify split
    counts: dict[str, int] = field(default_factory=dict)         # exact per-call counts

    @property
    def rounds(self) -> int:
        return len(self.op_s)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

class TrainWorkload:
    EPISODE_STEPS = 16
    WARMUP_STEPS = 2
    op, item = "step", "images"

    def __init__(self, seed: int, input_size: int, gate: GateKind, augment: AugmentPackage,
                 batch: int = 4):
        self.cfg = ExperimentConfig(design_id=5, gate=gate, width=0.25, input_size=input_size,
                                    augment=augment, batch=batch, seed=seed).validate()
        rng = np.random.default_rng([seed, 2])
        self.batch_seeds = [[int(s) for s in rng.integers(0, 2 ** 31, size=batch)]
                            for _ in range(self.EPISODE_STEPS)]
        self.reference_losses: list[float] = []

    def setup(self):
        # free the previous set-up first, so repeated set-ups never hold two models
        self.task = self.model = self.opt = self.initial = None
        cfg = self.cfg
        self.task = mtrain.SyntheticPatchTask(cfg.input_size, cfg.augment)
        self.model = mtrain.PatchModel(cfg)
        self.opt = mtrain.SGD(self.model.parameters(), cfg.lr, cfg.momentum)
        self.initial = [a.copy() for _, a in self.model.named_tensors()]
        for k in range(self.WARMUP_STEPS):
            self._step(k)
        self._reset()

    def prepare_checks(self):
        """Nothing to precompute: episode 1 of the first phase is the reference."""

    @property
    def param_tensors(self) -> int:
        return len(self.opt.params)

    def _reset(self):
        for (_, arr), arr0 in zip(self.model.named_tensors(), self.initial):
            arr[...] = arr0
        for v in self.opt.velocities:
            v[...] = 0.0

    def _step(self, k: int) -> float:
        x, labels, _ = self.task.batch(self.batch_seeds[k])
        logits = self.model.forward(x, training=True)
        loss, g = mtrain.bce_with_logits(logits, labels)
        self.opt.zero_grad()
        self.model.backward(g)
        self.opt.step()
        return loss

    def run(self, seconds: float, tracer=None) -> PhaseResult:
        res = PhaseResult()
        ref = self.reference_losses
        if tracer is not None:
            tracer.set_phase("step")
        deadline = perf_counter() + seconds
        while perf_counter() < deadline or not res.op_s:
            self._reset()
            for k in range(self.EPISODE_STEPS):
                t0 = perf_counter()
                loss = self._step(k)
                res.op_s.append(perf_counter() - t0)
                res.attempted += 1
                if k == len(ref):
                    ref.append(loss)
                if not np.isfinite(loss) or loss.hex() != ref[k].hex():
                    res.failed += 1
                if perf_counter() >= deadline:
                    break
        res.items = self.cfg.batch * len(res.op_s)
        res.item_s = sum(res.op_s)
        return res


# ---------------------------------------------------------------------------
# evaluation and verification
# ---------------------------------------------------------------------------

def crowded_fixture(seed: int, n_images: int = 16, n_gt: int = 150, n_pred: int = 150,
                    n_classes: int = 5, canvas: float = 512.0, difficult_frac: float = 0.03):
    """DOTA-like scenes: ground truths packed around a few cluster centres,
    a few percent flagged difficult; half the predictions are jittered copies
    of a ground truth (class kept nine times in ten), half are clutter."""
    rng = np.random.default_rng([seed, 31])
    preds_by_image, gts_by_image = [], []
    for _ in range(n_images):
        centres = rng.uniform(64.0, canvas - 64.0, size=(6, 2))
        xy = centres[rng.integers(0, 6, size=n_gt)] + rng.normal(0.0, 40.0, size=(n_gt, 2))
        wh = rng.uniform(6.0, 32.0, size=(n_gt, 2))
        xy = np.clip(xy, 0.0, canvas - wh)
        cls = rng.integers(0, n_classes, size=n_gt)
        difficult = rng.random(n_gt) < difficult_frac
        gts = [BBox(float(x), float(y), float(x + w), float(y + h), int(c), difficult=bool(d))
               for (x, y), (w, h), c, d in zip(xy, wh, cls, difficult)]

        n_copy = n_pred // 2
        src = rng.integers(0, n_gt, size=n_copy)
        box = np.concatenate([xy[src], xy[src] + wh[src]], axis=1)
        box += rng.normal(0.0, 0.08, size=(n_copy, 4)) * np.tile(wh[src], 2)
        keep = rng.random(n_copy) < 0.9
        copy_cls = np.where(keep, cls[src], rng.integers(0, n_classes, size=n_copy))
        copy_score = rng.beta(4.0, 2.0, size=n_copy)

        n_clutter = n_pred - n_copy
        cxy = centres[rng.integers(0, 6, size=n_clutter)] + rng.normal(0.0, 60.0, size=(n_clutter, 2))
        cwh = rng.uniform(6.0, 32.0, size=(n_clutter, 2))
        clutter = np.concatenate([cxy, cxy + cwh], axis=1)
        clutter_cls = rng.integers(0, n_classes, size=n_clutter)
        clutter_score = rng.beta(2.0, 4.0, size=n_clutter)

        preds = []
        for (x1, y1, x2, y2), c, s in zip(np.concatenate([box, clutter]),
                                          np.concatenate([copy_cls, clutter_cls]),
                                          np.concatenate([copy_score, clutter_score])):
            preds.append(BBox(float(x1), float(y1), float(max(x2, x1 + 1.0)),
                              float(max(y2, y1 + 1.0)), int(c), score=float(s)))
        preds_by_image.append(preds)
        gts_by_image.append(gts)
    return preds_by_image, gts_by_image


def same_bytes(path_a: str, path_b: str, chunk: int = 1 << 20) -> bool:
    """Byte equality of two files, read a chunk at a time."""
    with open(path_a, "rb") as a, open(path_b, "rb") as b:
        while True:
            block = a.read(chunk)
            if block != b.read(chunk):
                return False
            if not block:
                return True


class EvalVerifyWorkload:
    N_CLASSES = 5
    INFER_IMAGES = 16
    # The suite runs with the CLI's default seed, as `moonnet gradcheck` does;
    # the workload seed drives the fixture, the model and the inferred images.
    GRADCHECK_SEED = 0
    op, item = "round", "boxes"

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.cfg = ExperimentConfig(design_id=5, width=0.25, input_size=64, seed=seed).validate()
        self.seed_base = 1_000_000 + self.INFER_IMAGES * seed
        self.save_path = os.path.join(workdir, "model.ckpt")
        self.resave_path = os.path.join(workdir, "resaved.ckpt")
        self.infer_reference = None

    def setup(self):
        self.preds = self.gts = self.model = self.task = None
        self.preds, self.gts = crowded_fixture(self.seed, n_classes=self.N_CLASSES)
        self.n_preds = sum(len(p) for p in self.preds)
        self.model = mtrain.PatchModel(self.cfg)
        self.task = mtrain.SyntheticPatchTask(self.cfg.input_size, AugmentPackage.VER1)
        self.model.forward(self.task.sample(self.seed_base).image, training=False)

    def prepare_checks(self):
        """The brute-force answer every timed evaluate() must equal."""
        self.reference = reference.reference_evaluate(self.preds, self.gts, self.N_CLASSES)

    @property
    def param_tensors(self) -> int:
        return len(self.model.parameters())

    def _timed(self, res, tracer, task, fn, *args, **kwargs):
        if tracer is not None:
            tracer.set_phase(task)
        t0 = perf_counter()
        out = fn(*args, **kwargs)
        res.tasks.setdefault(task, []).append(perf_counter() - t0)
        res.attempted += 1
        return out

    def run(self, seconds: float, tracer=None) -> PhaseResult:
        res = PhaseResult()
        deadline = perf_counter() + seconds
        # The suite takes longer than a whole round, so it runs once per phase;
        # the rounds that fill the rest of the time give the round statistics.
        reports = self._timed(res, tracer, "gradcheck", mgc.run_full_suite,
                              self.GRADCHECK_SEED)
        if not all(r.passed for r in reports):
            res.failed += 1
        res.counts["gradcheck.sites"] = len(reports)
        rounds = ("evaluate", "infer", "save", "load")
        while perf_counter() < deadline or not res.op_s:
            result = self._timed(res, tracer, "evaluate", mmetrics.evaluate,
                                 self.preds, self.gts, num_classes=self.N_CLASSES)
            if not reference.matches(result, self.reference):
                res.failed += 1

            infer = self._timed(res, tracer, "infer", mtrain.evaluate_model, self.model,
                                self.task, n_images=self.INFER_IMAGES, seed_base=self.seed_base)
            infer = (infer[0].as_dict(), float(infer[1]))
            if self.infer_reference is None:
                self.infer_reference = infer
            if infer != self.infer_reference:
                res.failed += 1

            self._timed(res, tracer, "save", mtrain.save_model_checkpoint, self.model,
                        self.cfg, self.save_path)
            loaded, cfg, _ = self._timed(res, tracer, "load", mtrain.load_model_checkpoint,
                                         self.save_path)
            mtrain.save_model_checkpoint(loaded, cfg, self.resave_path)
            del loaded  # so the next round's load never holds two copies
            if not same_bytes(self.save_path, self.resave_path):
                res.failed += 1
            res.counts["checkpoint.bytes"] = os.path.getsize(self.save_path)
            with open(self.save_path, "rb") as f:
                # the MOONNET1 header: 8-byte magic, then the u32 tensor count
                res.counts["checkpoint.tensors"] = struct.unpack("<I", f.read(12)[8:])[0]

            res.op_s.append(sum(res.tasks[task][-1] for task in rounds))
        res.items = self.n_preds * res.rounds
        res.item_s = sum(res.tasks["evaluate"])
        return res

WORKLOADS = {
    "train-small": lambda seed, workdir: TrainWorkload(
        seed, 64, GateKind.RESIDUAL_TANH, AugmentPackage.VER1),
    "train-large": lambda seed, workdir: TrainWorkload(
        seed, 128, GateKind.SIGMOID_ORIGINAL, AugmentPackage.VER3),
    "eval-verify": EvalVerifyWorkload,
}

