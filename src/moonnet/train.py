"""Training harness: SGD with momentum, the synthetic tiny-patch task, the
patch-presence model (backbone + 1x1 head), and the sweep over config keys.

The synthetic task stands in for aerial tiny-object data at desk scale:
bright 3-7 px patches on textured noise, one label per 32x32 cell of the
image, matching the backbone's final-stage grid.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .augment import AugmentPackage, BBox, LabeledImage, apply_package
from .backbone import Backbone, ConfigError, build_design
from .checkpoint import (META_PREFIX, CheckpointError, bytes_to_tensor, load_checkpoint,
                         save_checkpoint, tensor_to_bytes)
from .config import ExperimentConfig, parse_config_text, set_field
from .metrics import EvalResult, evaluate
from .tensor import Module, Param, Tensor4, clipped_sigmoid, conv2d, uniform_init

__all__ = [
    "sgd_step",
    "SGD",
    "SyntheticPatchTask",
    "PatchModel",
    "TrainingDiverged",
    "TrainResult",
    "train",
    "evaluate_model",
    "sweep",
    "sweep_table",
    "save_model_checkpoint",
    "load_model_checkpoint",
]


class TrainingDiverged(RuntimeError):
    """Raised when the loss becomes non-finite."""


def sgd_step(theta: np.ndarray, grad: np.ndarray | None, velocity: np.ndarray,
             lr: float, momentum: float) -> np.ndarray:
    """One SGD-with-momentum update, in place: v <- m*v + g; theta <- theta - lr*v.
    A None gradient is zero."""
    velocity *= momentum
    if grad is not None:
        velocity += grad
    theta -= lr * velocity
    return theta


class SGD:
    def __init__(self, params: list[Param], lr: float, momentum: float = 0.9):
        self.params = params
        self.lr = lr
        self.momentum = momentum
        self.velocities = [np.zeros_like(p.value) for p in params]

    def step(self):
        for p, v in zip(self.params, self.velocities):
            sgd_step(p.value, p.grad, v, self.lr, self.momentum)

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()


# ---------------------------------------------------------------------------
# synthetic tiny-patch task
# ---------------------------------------------------------------------------

class SyntheticPatchTask:
    """Images with bright tiny patches on textured noise.

    Each 32x32 cell independently contains one patch with probability 1/2;
    patch sides are 3..7 px, below the COCO small-object cutoff.  The label
    is the per-cell presence grid, recomputed from the (possibly augmented)
    patch boxes, so geometric augmentation stays label-consistent.
    """

    CELL = 32
    PATCH_SIDES = (3, 4, 5, 6, 7)
    PATCH_PROB = 0.5

    def __init__(self, image_size: int = 64, augment: AugmentPackage = AugmentPackage.VER1):
        if image_size < self.CELL or image_size % self.CELL:
            raise ConfigError(f"image size must be a positive multiple of {self.CELL}, "
                              f"got {image_size}")
        self.size = image_size
        self.grid = image_size // self.CELL
        self.augment = augment

    def sample(self, seed: int) -> LabeledImage:
        rng = np.random.default_rng([seed, 17])
        s = self.size
        coarse = rng.uniform(0.0, 0.25, size=(s // 8, s // 8))
        base = np.kron(coarse, np.ones((8, 8))) + rng.uniform(0.0, 0.25, size=(s, s))
        img = np.stack([base + rng.uniform(0.0, 0.05, size=(s, s)) for _ in range(3)])
        boxes = []
        for gy in range(self.grid):
            for gx in range(self.grid):
                if rng.random() >= self.PATCH_PROB:
                    continue
                side = int(rng.choice(self.PATCH_SIDES))
                y0 = gy * self.CELL + int(rng.integers(1, self.CELL - side - 1))
                x0 = gx * self.CELL + int(rng.integers(1, self.CELL - side - 1))
                img[:, y0:y0 + side, x0:x0 + side] += rng.uniform(0.7, 1.0)
                boxes.append(BBox(x0, y0, x0 + side, y0 + side, class_id=0))
        img = np.clip(img, 0.0, 1.0).astype(np.float32)
        li = LabeledImage(Tensor4(img[None]), boxes)
        if self.augment is not AugmentPackage.VER1:
            li = apply_package(self.augment, li, seed)
        return li

    def label_grid(self, li: LabeledImage) -> np.ndarray:
        """Per-cell presence from box centers, shape (1, grid, grid)."""
        lab = np.zeros((1, self.grid, self.grid), dtype=np.float32)
        for b in li.boxes:
            cx = int((b.x1 + b.x2) / 2) // self.CELL
            cy = int((b.y1 + b.y2) / 2) // self.CELL
            lab[0, min(cy, self.grid - 1), min(cx, self.grid - 1)] = 1.0
        return lab

    def batch(self, seeds) -> tuple[Tensor4, np.ndarray, list[LabeledImage]]:
        samples = [self.sample(s) for s in seeds]
        images = np.concatenate([li.image.values for li in samples], axis=0)
        labels = np.stack([self.label_grid(li) for li in samples], axis=0)
        return Tensor4(images), labels, samples


# ---------------------------------------------------------------------------
# model
# ---------------------------------------------------------------------------

class PatchModel(Module):
    """Backbone plus a 1x1 conv head emitting one presence logit per cell.

    ``draw=False`` builds the same tensors without drawing any (every drawn
    weight is zeros), for ``load_model_checkpoint`` to fill from a file.
    """

    def __init__(self, cfg: ExperimentConfig, draw: bool = True):
        design = build_design(cfg.design_id, cfg.width, cfg.gate)
        seed = cfg.seed if draw else None
        self.backbone = Backbone(design, seed=seed)
        c_last = design.stages[-1].out_channels
        shape = (1, c_last, 1, 1)
        self.head_w = Param("head/weight", np.zeros(shape, dtype=np.float32) if seed is None
                            else uniform_init(np.random.default_rng([seed, 1000]), shape,
                                              c_last))
        self.head_b = Param("head/bias", np.zeros((1,), dtype=np.float32))
        self._tape = None

    def forward(self, x: Tensor4, training: bool = True) -> np.ndarray:
        """Returns per-cell logits of shape (n, 1, grid, grid)."""
        outs = self.backbone.forward(x, training)
        logits, bw_head = conv2d(outs[-1], self.head_w.value, self.head_b.value)
        self._tape = (len(outs), bw_head) if training else None
        return logits.values

    def backward(self, g_logits: np.ndarray):
        n_stages, bw_head = self._tape
        g_last, gw, gb = bw_head(g_logits)
        self.head_w.add_grad(gw)
        self.head_b.add_grad(gb)
        grads = [None] * (n_stages - 1) + [g_last]
        return self.backbone.backward(grads)


def bce_with_logits(logits: np.ndarray, labels: np.ndarray):
    """Mean binary cross-entropy over cells; returns (loss, dloss/dlogits)."""
    z = logits
    # log(1 + exp(-|z|)) is the stable softplus core
    loss = np.maximum(z, 0.0) - z * labels + np.log1p(np.exp(-np.abs(z)))
    p = clipped_sigmoid(z)
    grad = (p - labels) / z.size
    return float(loss.mean()), grad.astype(logits.dtype)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

@dataclass
class TrainResult:
    losses: list[float]
    accuracies: list[float]
    steps_run: int
    final_accuracy: float
    model: "PatchModel | None" = None
    checkpoint_path: Path | None = None


def _batch_accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    pred = logits > 0.0
    return float((pred == (labels > 0.5)).mean())


def train(cfg: ExperimentConfig, out_dir=None, target_accuracy: float | None = None,
          fixed_batch: bool = False) -> TrainResult:
    """Train a patch model; fully deterministic under (config, seed).

    ``target_accuracy``, in (0, 1], stops early once the trailing-20-step mean
    accuracy reaches the target.  ``fixed_batch`` trains full-batch on one fixed
    batch (deterministic gradient descent, used by the smoke property tests).
    """
    cfg.validate()
    # a negated range test, so that nan fails it too
    if target_accuracy is not None and not 0.0 < target_accuracy <= 1.0:
        raise ConfigError(f"target accuracy must be in (0, 1], got {target_accuracy}")
    task = SyntheticPatchTask(cfg.input_size, cfg.augment)
    model = PatchModel(cfg)
    opt = SGD(model.parameters(), cfg.lr, cfg.momentum)
    total_steps = cfg.epochs * cfg.steps_per_epoch
    data_rng = np.random.default_rng([cfg.seed, 2])

    losses, accs = [], []
    best_loss = np.inf
    best_state = None
    out_dir = Path(out_dir) if out_dir is not None else None
    ckpt_path = best_path = None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        ckpt_path = out_dir / "final.ckpt"
        best_path = out_dir / "best.ckpt"

    if fixed_batch:
        fixed = task.batch(range(cfg.batch))

    for step in range(total_steps):
        if fixed_batch:
            x, labels, _ = fixed
        else:
            seeds = data_rng.integers(0, 2 ** 31, size=cfg.batch)
            x, labels, _ = task.batch([int(s) for s in seeds])
        logits = model.forward(x, training=True)
        loss, gl = bce_with_logits(logits, labels)
        if not np.isfinite(loss):
            raise TrainingDiverged(f"non-finite loss at step {step}")
        losses.append(loss)
        accs.append(_batch_accuracy(logits, labels))
        # the weights that gave this loss, before the update moves them
        if loss < best_loss and best_path is not None:
            best_loss = loss
            best_state = [(n, a.copy()) for n, a in model.named_tensors()]
        opt.zero_grad()
        model.backward(gl)
        opt.step()
        if target_accuracy is not None and len(accs) >= 20 \
                and float(np.mean(accs[-20:])) >= target_accuracy:
            break

    final_acc = float(np.mean(accs[-20:]))
    if out_dir is not None:
        save_model_checkpoint(model, cfg, ckpt_path, rng=data_rng)
        if best_state is not None:
            save_checkpoint(_meta_tensors(cfg, data_rng) + best_state, best_path)
        log = "\n".join(f"{i} {l:.6f} {a:.4f}"
                        for i, (l, a) in enumerate(zip(losses, accs)))
        (out_dir / "train_log.txt").write_text("step loss accuracy\n" + log + "\n")
    return TrainResult(losses=losses, accuracies=accs, steps_run=len(losses),
                       final_accuracy=final_acc, model=model, checkpoint_path=ckpt_path)


# ---------------------------------------------------------------------------
# checkpoint glue
# ---------------------------------------------------------------------------

def _rng_state_bytes(rng: np.random.Generator | None) -> bytes:
    if rng is None:
        return b"{}"
    state = rng.bit_generator.state
    return json.dumps(state, default=str, sort_keys=True).encode()


def _meta_tensors(cfg: ExperimentConfig, rng: np.random.Generator | None):
    return [(META_PREFIX + "config", bytes_to_tensor(cfg.to_text().encode())),
            (META_PREFIX + "rng", bytes_to_tensor(_rng_state_bytes(rng)))]


def save_model_checkpoint(model: PatchModel, cfg: ExperimentConfig, path,
                          rng: np.random.Generator | None = None):
    save_checkpoint(_meta_tensors(cfg, rng) + model.named_tensors(), path)


def load_model_checkpoint(path) -> tuple[PatchModel, ExperimentConfig, dict]:
    """Rebuild the model a checkpoint was saved from.  The model is built
    without drawing weights, and each tensor is copied once, from a view of
    the file's bytes into the model.  Raises CheckpointError naming the
    tensor when one is missing, has the wrong shape, or is not part of the
    model, so no checkpoint of another layout loads in part."""
    by_name = dict(load_checkpoint(path))

    def take(name):
        if name not in by_name:
            raise CheckpointError(f"{path}: missing tensor {name!r}")
        return by_name.pop(name)

    def meta(key, parse):
        name = META_PREFIX + key
        blob = take(name)
        try:
            return parse(tensor_to_bytes(blob).decode("utf-8"))
        except (CheckpointError, ValueError) as e:  # ConfigError and decode errors too
            raise CheckpointError(f"{path}: tensor {name!r}: {e}") from None

    cfg = meta("config", lambda text: parse_config_text(text).validate())
    rng_state = meta("rng", json.loads)
    model = PatchModel(cfg, draw=False)
    for name, arr in model.named_tensors():
        value = take(name)
        if value.shape != arr.shape:
            raise CheckpointError(f"{path}: tensor {name!r} has shape {value.shape}, "
                                  f"the model expects {arr.shape}")
        arr[...] = value
    if by_name:
        raise CheckpointError(f"{path}: unexpected tensor {next(iter(by_name))!r}")
    return model, cfg, rng_state


# ---------------------------------------------------------------------------
# evaluation and the sweep
# ---------------------------------------------------------------------------

def _refine_cell_box(brightness: np.ndarray, gy: int, gx: int, cell: int) -> BBox:
    """Localize the bright blob inside a confident cell: bounding box of the
    pixels within 0.15 of the cell's peak ``brightness`` (the image's
    channel mean, shape (h, w))."""
    patch = brightness[gy * cell:(gy + 1) * cell, gx * cell:(gx + 1) * cell]
    mask = patch >= patch.max() - 0.15
    ys, xs = np.nonzero(mask)
    x1, x2 = gx * cell + xs.min(), gx * cell + xs.max() + 1
    y1, y2 = gy * cell + ys.min(), gy * cell + ys.max() + 1
    return BBox(float(x1), float(y1), float(x2), float(y2), class_id=0)


def model_detections(logits: np.ndarray, task: SyntheticPatchTask,
                     li: LabeledImage, threshold: float = 0.5) -> list[BBox]:
    """One detection per confident cell of ``li``'s model logits (shape
    (1, 1, grid, grid)), localized to the bright blob."""
    probs = clipped_sigmoid(logits[0, 0])
    brightness = li.image.values[0].mean(axis=0)
    out = []
    for gy in range(task.grid):
        for gx in range(task.grid):
            p = float(probs[gy, gx])
            if p >= threshold:
                box = _refine_cell_box(brightness, gy, gx, task.CELL)
                out.append(replace(box, score=p))
    return out


# input pixels per evaluate_model forward: 16 images at 64 px, 4 at 128 px
EVAL_PIXELS_PER_FORWARD = 2 ** 16


def evaluate_model(model: PatchModel, task: SyntheticPatchTask, n_images: int = 32,
                   seed_base: int = 10_000) -> tuple[EvalResult, float]:
    """Detection metrics plus cell accuracy on freshly generated samples.
    Eval-mode batchnorm uses running statistics, so the images of one forward
    do not interact; each image is scored from its own slice of the logits."""
    per_forward = max(1, EVAL_PIXELS_PER_FORWARD // task.size ** 2)
    preds_by_image, gts_by_image = [], []
    correct = total = 0
    for start in range(seed_base, seed_base + n_images, per_forward):
        stop = min(start + per_forward, seed_base + n_images)
        x, labels, samples = task.batch(range(start, stop))
        logits = model.forward(x, training=False)
        for i, li in enumerate(samples):
            gts_by_image.append(li.boxes)
            preds_by_image.append(model_detections(logits[i:i + 1], task, li))
        correct += ((logits > 0) == (labels > 0.5)).sum()
        total += labels.size
    result = evaluate(preds_by_image, gts_by_image, num_classes=1)
    return result, correct / total


SWEEP_EVAL_IMAGES = 16
_SWEEP_METRICS = ("final_loss", "accuracy", "ap50", "ap75", "ap", "recall", "precision")


def sweep(base_cfg: ExperimentConfig, axes: dict[str, list[str]]) -> list[dict]:
    """Train and evaluate each cell of the product of ``axes`` (config key ->
    value texts), in ``axes`` order, after validating every cell."""
    cells = []
    for texts in itertools.product(*axes.values()):
        cfg = replace(base_cfg)
        for key, text in zip(axes, texts):
            set_field(cfg, key, text)
        cells.append((dict(zip(axes, texts)), cfg.validate()))
    if len({cfg.to_text() for _, cfg in cells}) < len(cells):
        raise ConfigError("two cells of the sweep give the same config")
    rows = []
    for point, cfg in cells:
        result = train(cfg)
        metrics, acc = evaluate_model(result.model, SyntheticPatchTask(cfg.input_size),
                                      n_images=SWEEP_EVAL_IMAGES)
        rows.append({**point, "steps": result.steps_run, "final_loss": result.losses[-1],
                     "accuracy": acc, **metrics.as_dict()})
    return rows


def sweep_table(rows: list[dict]) -> str:
    """One line per cell; rows that differ only in ``seed`` share a line whose
    numbers are the mean ± sample std (ddof=1) over those seeds."""
    seeds = {r.get("seed") for r in rows}
    keys = [k for k in rows[0] if k not in _SWEEP_METRICS and (k != "seed" or len(seeds) == 1)]
    groups: dict[tuple, list] = {}
    for r in rows:
        groups.setdefault(tuple(r[k] for k in keys), []).append([r[c] for c in _SWEEP_METRICS])
    lines = [f"eval task: {SWEEP_EVAL_IMAGES} Ver1 images at input_size; seeds: mean±std (ddof=1)",
             " ".join(f"{c:>15s}" for c in keys + list(_SWEEP_METRICS))]
    for key, runs in groups.items():
        v = np.array(runs)
        stats = (map("{:.4f}±{:.4f}".format, v.mean(0), v.std(0, ddof=1)) if len(v) > 1
                 else map("{:.4f}".format, v[0]))
        lines.append(" ".join(f"{c:>15}" for c in (*key, *stats)))
    return "\n".join(lines)
