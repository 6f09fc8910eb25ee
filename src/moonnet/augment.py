"""Box-aware image augmentation: three packages of seedable transforms.

Package Ver1 applies nothing, Ver2 applies geometric transforms only
(flips and lossless quarter-turn rotations), Ver3 adds bounded box jitter
and photometric adjustment with noise.  All geometry is exact on boxes;
pixel values live in [0, 1].
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .tensor import ShapeError, Tensor4

__all__ = [
    "BBox",
    "LabeledImage",
    "AugmentPackage",
    "hflip",
    "vflip",
    "rotate90",
    "photometric",
    "jitter_boxes",
    "apply_package",
    "load_annotations",
    "save_annotations",
    "AnnotationError",
]


class AnnotationError(ValueError):
    """Raised for malformed annotation files."""


@dataclass
class BBox:
    """Axis-aligned box in finite pixel coordinates, x1 < x2 and y1 < y2,
    with a non-negative class id."""
    x1: float
    y1: float
    x2: float
    y2: float
    class_id: int = 0
    score: float | None = None
    difficult: bool = False

    def __post_init__(self):
        if not all(map(math.isfinite, (self.x1, self.y1, self.x2, self.y2))):
            raise ValueError(f"non-finite box ({self.x1}, {self.y1}, {self.x2}, {self.y2})")
        if not (self.x1 < self.x2 and self.y1 < self.y2):
            raise ValueError(f"degenerate box ({self.x1}, {self.y1}, {self.x2}, {self.y2})")
        if self.class_id < 0:
            raise ValueError(f"class id must be non-negative, got {self.class_id}")
        if self.score is not None and not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score must lie in [0, 1], got {self.score}")

    @property
    def area(self) -> float:
        return (self.x2 - self.x1) * (self.y2 - self.y1)


@dataclass
class LabeledImage:
    """A single (1, 3, h, w) image with its boxes."""
    image: Tensor4
    boxes: list[BBox] = field(default_factory=list)

    def __post_init__(self):
        if self.image.n != 1 or self.image.c != 3:
            raise ShapeError(f"labeled image must be (1, 3, h, w), got {self.image.shape}")

    @property
    def width(self) -> int:
        return self.image.w

    @property
    def height(self) -> int:
        return self.image.h


class AugmentPackage(enum.Enum):
    VER1 = 1  # no augmentation
    VER2 = 2  # geometric only
    VER3 = 3  # geometric + box jitter + photometric


def hflip(li: LabeledImage) -> LabeledImage:
    """Mirror left-right; box (x1, y1, x2, y2) -> (W-x2, y1, W-x1, y2)."""
    w = li.width
    img = Tensor4(li.image.values[:, :, :, ::-1].copy())
    boxes = [replace(b, x1=w - b.x2, x2=w - b.x1) for b in li.boxes]
    return LabeledImage(img, boxes)


def vflip(li: LabeledImage) -> LabeledImage:
    """Mirror top-bottom; box (x1, y1, x2, y2) -> (x1, H-y2, x2, H-y1)."""
    h = li.height
    img = Tensor4(li.image.values[:, :, ::-1, :].copy())
    boxes = [replace(b, y1=h - b.y2, y2=h - b.y1) for b in li.boxes]
    return LabeledImage(img, boxes)


def rotate90(li: LabeledImage, quarter_turns: int) -> LabeledImage:
    """Lossless counter-clockwise rotation by quarter_turns * 90 degrees."""
    if quarter_turns not in (0, 1, 2, 3):
        raise ValueError(f"quarter_turns must be in 0..3, got {quarter_turns}")
    if quarter_turns == 0:
        return LabeledImage(Tensor4(li.image.values.copy()),
                            [replace(b) for b in li.boxes])
    out = li
    for _ in range(quarter_turns):
        w = out.width
        img = Tensor4(np.rot90(out.image.values, 1, axes=(2, 3)).copy())
        # one CCW turn maps (x, y) -> (y, W - x)
        boxes = [replace(b, x1=b.y1, y1=w - b.x2, x2=b.y2, y2=w - b.x1)
                 for b in out.boxes]
        out = LabeledImage(img, boxes)
    return out


def photometric(li: LabeledImage, brightness: float = 0.0, contrast: float = 1.0,
                noise_sigma: float = 0.0,
                rng: np.random.Generator | None = None) -> LabeledImage:
    """Contrast about 0.5, brightness shift, Gaussian noise, clamp to [0, 1].

    Boxes are never touched by photometric ops.
    """
    if contrast <= 0:
        raise ValueError(f"contrast must be positive, got {contrast}")
    v = li.image.values
    out = contrast * (v - 0.5) + 0.5 + brightness
    if noise_sigma > 0.0:
        if rng is None:
            rng = np.random.default_rng(0)
        out = out + rng.normal(0.0, noise_sigma, size=out.shape).astype(v.dtype)
    out = np.clip(out, 0.0, 1.0).astype(v.dtype)
    return LabeledImage(Tensor4(out), [replace(b) for b in li.boxes])


def jitter_boxes(li: LabeledImage, max_frac: float, rng: np.random.Generator) -> LabeledImage:
    """Shift each box edge by up to max_frac of the box size, clip to the
    image, and drop any box that becomes degenerate (the only sanctioned
    box-count change)."""
    boxes = []
    for b in li.boxes:
        bw, bh = b.x2 - b.x1, b.y2 - b.y1
        d = rng.uniform(-max_frac, max_frac, size=4)
        x1 = min(max(b.x1 + d[0] * bw, 0.0), li.width)
        y1 = min(max(b.y1 + d[1] * bh, 0.0), li.height)
        x2 = min(max(b.x2 + d[2] * bw, 0.0), li.width)
        y2 = min(max(b.y2 + d[3] * bh, 0.0), li.height)
        if x1 < x2 and y1 < y2:
            boxes.append(replace(b, x1=x1, y1=y1, x2=x2, y2=y2))
    return LabeledImage(Tensor4(li.image.values.copy()), boxes)


def apply_package(pkg: AugmentPackage, li: LabeledImage, seed: int) -> LabeledImage:
    """Apply one augmentation package deterministically under seed."""
    if pkg is AugmentPackage.VER1:
        return li
    rng = np.random.default_rng([seed, pkg.value])
    out = li
    if rng.random() < 0.5:
        out = hflip(out)
    if rng.random() < 0.5:
        out = vflip(out)
    out = rotate90(out, int(rng.integers(0, 4)))
    if pkg is AugmentPackage.VER3:
        out = jitter_boxes(out, 0.05, rng)
        brightness = rng.uniform(-0.2, 0.2)
        contrast = rng.uniform(0.8, 1.2)
        out = photometric(out, brightness, contrast, noise_sigma=0.05, rng=rng)
    return out


# ---------------------------------------------------------------------------
# annotation text formats
# ---------------------------------------------------------------------------
#
# Two line formats are accepted:
#   DOTA-style:  x1 y1 x2 y2 x3 y3 x4 y4 class_name difficulty
#                (the polygon is converted to its enclosing axis-aligned box)
#   simple:      x1 y1 x2 y2 class_id [score]

def _parse_line(line: str, class_ids: dict[str, int]):
    parts = line.split()
    if len(parts) == 10:
        coords = [float(p) for p in parts[:8]]
        difficult = int(parts[9])
        if difficult not in (0, 1):
            raise ValueError(f"difficulty must be 0 or 1, got {parts[9]}")
        cid = class_ids.setdefault(parts[8], len(class_ids))
        xs, ys = coords[0::2], coords[1::2]
        return BBox(min(xs), min(ys), max(xs), max(ys), cid, difficult=bool(difficult))
    if len(parts) in (5, 6):
        x1, y1, x2, y2 = (float(p) for p in parts[:4])
        score = float(parts[5]) if len(parts) == 6 else None
        return BBox(x1, y1, x2, y2, int(parts[4]), score=score)
    raise ValueError(f"expected 5, 6 or 10 fields, got {len(parts)}")


def load_annotations(path, class_ids: dict[str, int] | None = None) -> list[BBox]:
    """Parse one annotation file; ``class_ids`` maps DOTA class names to ids
    and is extended in place as new names appear.  Any malformed line raises
    AnnotationError naming ``file:line``."""
    if class_ids is None:
        class_ids = {}
    boxes = []
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise AnnotationError(f"{path}: not UTF-8 text: {e.reason} at byte {e.start}") from None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            boxes.append(_parse_line(line, class_ids))
        except ValueError as e:
            raise AnnotationError(f"{path}:{lineno}: {e}: {line!r}") from e
    return boxes


def save_annotations(path, boxes: list[BBox]):
    """Write boxes in the simple format (score column only when present),
    each float in its shortest exact form so ``load_annotations`` reads
    back the same values.  The format has no column for the difficult
    flag, so a difficult box raises AnnotationError and nothing is written."""
    lines = []
    for i, b in enumerate(boxes):
        if b.difficult:
            raise AnnotationError(f"{path}: box {i} {b} is marked difficult, and the "
                                  f"simple format has no column for the flag")
        fields = [repr(float(v)) for v in (b.x1, b.y1, b.x2, b.y2)] + [str(b.class_id)]
        if b.score is not None:
            fields.append(repr(float(b.score)))
        lines.append(" ".join(fields))
    Path(path).write_text("\n".join(lines) + "\n")
