"""Training harness: SGD with momentum, the synthetic tiny-patch task, the
patch-presence model (backbone + 1x1 head), and the sweep over config keys.

The synthetic task stands in for aerial tiny-object data at desk scale:
bright 3-7 px patches on textured noise, one label per 32x32 cell of the
image, matching the backbone's final-stage grid.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .augment import AugmentPackage, BBox, LabeledImage, apply_package
from .backbone import DESIGN_ATTENTION, AttentionKind, Backbone, ConfigError, build_design
from .checkpoint import (META_PREFIX, CheckpointError, CheckpointReader, bytes_to_tensor,
                         save_checkpoint, tensor_to_bytes)
from .config import ExperimentConfig, parse_config_text, set_field
from .metrics import EvalResult, evaluate
from .tensor import Module, Param, Tensor4, clipped_sigmoid, conv2d

__all__ = [
    "SGD",
    "SyntheticPatchTask",
    "PatchModel",
    "TrainingDiverged",
    "TrainState",
    "train",
    "evaluate_model",
    "sweep",
    "sweep_table",
    "save_model_checkpoint",
    "load_model_checkpoint",
]


class TrainingDiverged(RuntimeError):
    """Raised when the loss becomes non-finite."""


class SGD:
    def __init__(self, params: list[Param], lr: float, momentum: float = 0.9):
        self.params = params
        self.lr = lr
        self.momentum = momentum
        self.velocities = [np.zeros_like(p.value) for p in params]

    def step(self):
        """One SGD-with-momentum update of each parameter, in place:
        v <- m*v + g; theta <- theta - lr*v, where a None gradient is zero.
        The step consumes the gradients it applies: each ``grad`` is None after it."""
        for p, v in zip(self.params, self.velocities):
            v *= self.momentum
            if p.grad is not None:
                v += p.grad
            p.value -= self.lr * v
            p.grad = None

    def zero_grad(self):
        """Drops gradients that no step applied."""
        for p in self.params:
            p.grad = None


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
        self.backbone = Backbone(design, seed=cfg.seed if draw else None)
        c_last = design.stages[-1].out_channels
        self.head_w = Param("head/weight", np.zeros((1, c_last, 1, 1), dtype=np.float32), c_last)
        self.head_b = Param("head/bias", np.zeros((1,), dtype=np.float32))
        self._tape = None
        if draw:
            self.head_w.draw(np.random.default_rng([cfg.seed, 1000]))

    def forward(self, x: Tensor4, training: bool = True) -> np.ndarray:
        """Returns per-cell logits of shape (n, 1, grid, grid)."""
        outs = self.backbone.forward(x, training)
        logits, bw_head = conv2d(outs[-1], self.head_w.value, self.head_b.value)
        self._tape = (len(outs), bw_head) if training else None
        return logits.values

    def backward(self, g_logits: np.ndarray):
        n_stages, bw_head = self._pop_tape()
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

def _cell_accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of cells whose presence logit (> 0) agrees with the label."""
    return float(np.mean((logits > 0.0) == (labels > 0.5)))


@dataclass(eq=False)
class TrainState:
    """One run's state, built from ``cfg``: model, optimizer, batch-seed stream, and
    each step's loss and cell accuracy.  With ``keep_best`` (a run that writes
    ``best.ckpt``) also the lowest loss and a copy of the weights that gave it."""
    cfg: ExperimentConfig
    keep_best: bool = False
    model: PatchModel = field(init=False)
    opt: SGD = field(init=False)
    data_rng: np.random.Generator = field(init=False)
    losses: list[float] = field(init=False, default_factory=list)
    accuracies: list[float] = field(init=False, default_factory=list)
    best_loss: float = field(init=False, default=np.inf)
    best_tensors: list[tuple[str, np.ndarray]] | None = field(init=False, default=None)

    def __post_init__(self):
        self.model = PatchModel(self.cfg)
        self.opt = SGD(self.model.parameters(), self.cfg.lr, self.cfg.momentum)
        self.data_rng = np.random.default_rng([self.cfg.seed, 2])

    @property
    def steps_run(self) -> int:
        return len(self.losses)

    @property
    def final_accuracy(self) -> float:  # the mean over the last 20 steps
        return float(np.mean(self.accuracies[-20:]))

    def step(self, x: Tensor4, labels: np.ndarray):
        """One SGD step on the batch, recording its loss and cell accuracy."""
        logits = self.model.forward(x, training=True)
        loss, gl = bce_with_logits(logits, labels)
        if not np.isfinite(loss):
            raise TrainingDiverged(f"non-finite loss at step {self.steps_run}")
        self.losses.append(loss)
        self.accuracies.append(_cell_accuracy(logits, labels))
        # the weights that gave this loss, before the update moves them
        if self.keep_best and loss < self.best_loss:
            self.best_loss = loss
            self.best_tensors = [(n, a.copy()) for n, a in self.model.named_tensors()]
        self.model.backward(gl)
        self.opt.step()

    def save(self, out_dir: Path):
        """Write ``final.ckpt``, ``best.ckpt`` (if a best was kept) and ``train_log.txt``."""
        save_model_checkpoint(self.model, self.cfg, out_dir / "final.ckpt", rng=self.data_rng)
        if self.best_tensors is not None:
            save_checkpoint(_meta_tensors(self.cfg, self.data_rng) + self.best_tensors,
                            out_dir / "best.ckpt")
        log = "\n".join(f"{i} {l:.6f} {a:.4f}"
                        for i, (l, a) in enumerate(zip(self.losses, self.accuracies)))
        (out_dir / "train_log.txt").write_text("step loss accuracy\n" + log + "\n")


def train(cfg: ExperimentConfig, out_dir=None, target_accuracy: float | None = None) -> TrainState:
    """Train a patch model; fully deterministic under (config, seed).

    ``target_accuracy``, in (0, 1], stops early once the trailing-20-step mean
    accuracy reaches the target.  With ``out_dir`` the directory is made
    before the first step and the run's files are written there at the end.
    """
    cfg.validate()
    # a negated range test, so that nan fails it too
    if target_accuracy is not None and not 0.0 < target_accuracy <= 1.0:
        raise ConfigError(f"target accuracy must be in (0, 1], got {target_accuracy}")
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
    task = SyntheticPatchTask(cfg.input_size, cfg.augment)
    state = TrainState(cfg, keep_best=out_dir is not None)
    for _ in range(cfg.epochs * cfg.steps_per_epoch):
        seeds = state.data_rng.integers(0, 2 ** 31, size=cfg.batch)
        x, labels, _ = task.batch([int(s) for s in seeds])
        state.step(x, labels)
        if target_accuracy is not None and state.steps_run >= 20 \
                and state.final_accuracy >= target_accuracy:
            break
    if out_dir is not None:
        state.save(out_dir)
    return state


# ---------------------------------------------------------------------------
# checkpoint glue
# ---------------------------------------------------------------------------

def _rng_state_bytes(rng: np.random.Generator | dict | None) -> bytes:
    """A Generator's state, or a state dict as ``load_model_checkpoint``
    returns it, as JSON; None is ``{}``."""
    state = rng.bit_generator.state if isinstance(rng, np.random.Generator) else rng or {}
    return json.dumps(state, default=str, sort_keys=True).encode()


def _meta_tensors(cfg: ExperimentConfig, rng: np.random.Generator | dict | None):
    return [(META_PREFIX + "config", bytes_to_tensor(cfg.to_text().encode())),
            (META_PREFIX + "rng", bytes_to_tensor(_rng_state_bytes(rng)))]


def save_model_checkpoint(model: PatchModel, cfg: ExperimentConfig, path,
                          rng: np.random.Generator | dict | None = None):
    """Write ``model`` with ``cfg`` and ``rng``, a Generator or the state dict
    that ``load_model_checkpoint`` returns, so a load then a save of that
    dict re-writes the file byte for byte."""
    save_checkpoint(_meta_tensors(cfg, rng) + model.named_tensors(), path)


def load_model_checkpoint(path) -> tuple[PatchModel, ExperimentConfig, dict]:
    """Rebuild the model a checkpoint was saved from, in one pass over the
    file: the metadata, then a model built without drawing weights, then each
    tensor, in the order saved, read straight into the model.  Raises
    CheckpointError naming the tensor when one is missing, has the wrong
    shape, or is not part of the model, so no other layout loads in part."""
    with open(path, "rb") as f, CheckpointReader(f) as r:
        def take(name, into=None):
            found = r.header()
            if found is None:
                raise CheckpointError(f"{path}: missing tensor {name!r}")
            if found[0] != name:
                raise CheckpointError(f"{path}: missing tensor {name!r}, unexpected tensor "
                                      f"{found[0]!r} in its place")
            return r.read(into)

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
            take(name, arr)
        if (extra := r.header()) is not None:
            raise CheckpointError(f"{path}: unexpected tensor {extra[0]!r}")
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
    preds_by_image, gts_by_image, logits_and_labels = [], [], []
    for start in range(seed_base, seed_base + n_images, per_forward):
        stop = min(start + per_forward, seed_base + n_images)
        x, labels, samples = task.batch(range(start, stop))
        logits = model.forward(x, training=False)
        for i, li in enumerate(samples):
            gts_by_image.append(li.boxes)
            preds_by_image.append(model_detections(logits[i:i + 1], task, li))
        logits_and_labels.append((logits, labels))
    result = evaluate(preds_by_image, gts_by_image, num_classes=1)
    return result, _cell_accuracy(*map(np.concatenate, zip(*logits_and_labels)))


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
    rows, runs = [], {}
    for point, cfg in cells:
        # the gate acts only in attention blocks, so a design without any trains once
        gate_free = set(DESIGN_ATTENTION[cfg.design_id]) == {AttentionKind.NONE}
        key = replace(cfg, gate=ExperimentConfig.gate).to_text() if gate_free else cfg.to_text()
        if key not in runs:
            state = train(cfg)
            metrics, acc = evaluate_model(state.model, SyntheticPatchTask(cfg.input_size),
                                          n_images=SWEEP_EVAL_IMAGES)
            runs[key] = {"steps": state.steps_run, "final_loss": state.losses[-1],
                         "accuracy": acc, **metrics.as_dict()}
        rows.append({**point, **runs[key]})
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
