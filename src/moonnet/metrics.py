"""Detection evaluation: IoU, greedy matching, AP at fixed and swept
IoU thresholds, precision/recall, and the mean-box-area statistic.

AP uses the all-point interpolated area under the monotone precision
envelope; classes with zero ground-truth boxes are excluded from the class
mean.  Boxes flagged difficult are ignored in matching (neither TP nor FP).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .augment import BBox

__all__ = [
    "iou",
    "match_detections",
    "MatchResult",
    "precision_recall",
    "pr_curve",
    "average_precision",
    "coco_ap",
    "COCO_THRESHOLDS",
    "evaluate",
    "EvalResult",
    "mean_box_area",
]

COCO_THRESHOLDS = tuple(round(0.5 + 0.05 * i, 2) for i in range(10))


def _corners(boxes: list[BBox]) -> np.ndarray:
    """(4, n) float64 rows x1, y1, x2, y2."""
    return np.array([[b.x1 for b in boxes], [b.y1 for b in boxes],
                     [b.x2 for b in boxes], [b.y2 for b in boxes]], dtype=np.float64)


def iou(a: BBox | list[BBox], b: BBox | list[BBox]) -> float | np.ndarray:
    """Intersection over union in [0, 1]: a float for two boxes, or the
    (len(a), len(b)) float64 matrix for two box lists, from the same IEEE
    operations either way; exactly 0 where the boxes do not overlap."""
    pair = isinstance(a, BBox)
    ca = _corners([a] if pair else a)[:, :, None]
    cb = _corners([b] if pair else b)[:, None, :]
    ix, iy = np.maximum(0.0, np.minimum(ca[2:], cb[2:]) - np.maximum(ca[:2], cb[:2]))
    inter = ix * iy
    (aw, ah), (bw, bh) = ca[2:] - ca[:2], cb[2:] - cb[:2]
    union = aw * ah + bw * bh - inter
    out = np.divide(inter, union, out=np.zeros_like(inter), where=inter != 0.0)
    return float(out[0, 0]) if pair else out


@dataclass
class MatchResult:
    """Per-image matching outcome at one IoU threshold.

    tp[i] / ignored[i] flag the i-th prediction in score order; matched_gt
    maps that prediction index to the GT index it claimed.
    """
    order: list[int]
    tp: list[bool]
    ignored: list[bool]
    matched_gt: dict[int, int]
    n_gt: int  # non-difficult ground truths


def match_detections(preds: list[BBox], gts: list[BBox], iou_thresh: float,
                     ious: np.ndarray | None = None) -> MatchResult:
    """Greedy matching: predictions in descending score order (ties broken by
    input order) each claim the highest-IoU unmatched same-class GT with
    IoU >= threshold.  A match to a difficult GT counts as neither TP nor FP.
    ``ious`` is the class-masked (len(preds), len(gts)) IoU matrix (exactly 0
    for pairs of different classes), built here when not given, so that the
    thresholds of a sweep can share one.
    """
    # a stable sort: reverse=True keeps tied scores in input order
    order = sorted(range(len(preds)), reverse=True,
                   key=[1.0 if p.score is None else p.score for p in preds].__getitem__)
    if ious is None:
        same_class = (np.array([p.class_id for p in preds])[:, None]
                      == np.array([g.class_id for g in gts])[None, :])
        ious = np.where(same_class, iou(preds, gts), 0.0)
    elif ious.shape != (len(preds), len(gts)):
        raise ValueError(f"ious has shape {ious.shape}, expected {(len(preds), len(gts))}")
    hit = (ious >= iou_thresh) & (ious > 0.0)
    rows, cols = np.nonzero(hit)
    # each prediction's candidate (GT index, IoU) pairs, in GT-index order
    candidates = [[] for _ in preds]
    for pi, j, v in zip(rows.tolist(), cols.tolist(), ious[hit].tolist()):
        candidates[pi].append((j, v))
    taken = [False] * len(gts)
    tp, ignored = [], []
    matched_gt = {}
    for pi in order:
        best_j, best_iou = -1, 0.0
        for j, v in candidates[pi]:
            if not taken[j] and v > best_iou:
                best_j, best_iou = j, v
        difficult = best_j >= 0 and gts[best_j].difficult
        if best_j >= 0:
            taken[best_j] = True
            matched_gt[pi] = best_j
        tp.append(best_j >= 0 and not difficult)
        ignored.append(difficult)
    n_gt = sum(1 for g in gts if not g.difficult)
    return MatchResult(order, tp, ignored, matched_gt, n_gt)


def precision_recall(preds_by_image, gts_by_image, iou_thresh: float):
    """Dataset-level precision and recall at one threshold, all classes pooled."""
    tp = fp = n_gt = 0
    for preds, gts in zip(preds_by_image, gts_by_image):
        m = match_detections(preds, gts, iou_thresh)
        tp += sum(m.tp)
        fp += sum(1 for t, ig in zip(m.tp, m.ignored) if not t and not ig)
        n_gt += m.n_gt
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / n_gt if n_gt else 0.0
    return precision, recall


def _sweep(preds_by_image, gts_by_image, class_ids, thresholds):
    """{threshold: {class_id: (recall, precision envelope, n_gt)}}.  Per class,
    the image split, each image's score order and IoU matrix, and the (score
    desc, image, rank) merge of all images run once; per threshold only
    matching runs, and its flags, in each image's score order, go to the
    merged order."""
    curves = {t: {} for t in thresholds}
    for cid in class_ids:
        split = [([p for p in preds if p.class_id == cid], [g for g in gts if g.class_id == cid])
                 for preds, gts in zip(preds_by_image, gts_by_image)]
        # each image's scores in match order, concatenated: the stable sort
        # breaks score ties by image, then by rank within the image
        ranked = np.array([s for ps, _ in split for s in sorted(
            (1.0 if p.score is None else p.score for p in ps), reverse=True)], dtype=np.float64)
        merged = np.argsort(-ranked, kind="stable")
        # single-class lists, so the plain IoU matrix is already class-masked
        ious = [iou(ps, gs) for ps, gs in split]
        for t in thresholds:
            matches = [match_detections(ps, gs, t, m) for (ps, gs), m in zip(split, ious)]
            n_gt = sum(m.n_gt for m in matches)
            tp = np.array([v for m in matches for v in m.tp], dtype=bool)[merged]
            ignored = np.array([v for m in matches for v in m.ignored], dtype=bool)[merged]
            ctp = np.cumsum(tp[~ignored])
            recall = ctp / n_gt if n_gt else np.zeros(len(ctp))
            precision = ctp / np.arange(1, len(ctp) + 1)
            curves[t][cid] = (recall, np.maximum.accumulate(precision[::-1])[::-1], n_gt)
    return curves


def pr_curve(preds_by_image, gts_by_image, class_id: int, iou_thresh: float):
    """(recall, precision-envelope) points for one class, plus n_gt: the
    predictions of all images swept in descending score order, the precision
    the running maximum from the right."""
    [curves] = _sweep(preds_by_image, gts_by_image, [class_id], [iou_thresh]).values()
    recall, precision, n_gt = curves[class_id]
    return recall.tolist(), precision.tolist(), n_gt


def _mean_aps(preds_by_image, gts_by_image, thresholds, num_classes):
    """[(mean AP, per-class AP)] per threshold.  Without ``num_classes`` only
    the class ids present in the ground truth are swept, since no other class
    can enter the mean.  With it, every box's class id must be in
    range(num_classes): a box outside would be dropped from AP silently."""
    if num_classes is None:
        class_ids = sorted({b.class_id for gts in gts_by_image for b in gts})
    else:
        if num_classes < 1:
            raise ValueError(f"num_classes must be at least 1, got {num_classes}")
        outside = sorted({b.class_id for boxes in (*preds_by_image, *gts_by_image)
                          for b in boxes if not 0 <= b.class_id < num_classes})
        if outside:
            raise ValueError(f"class id {outside[0]} is outside range(num_classes={num_classes})")
        class_ids = range(num_classes)
    out = []
    for curves in _sweep(preds_by_image, gts_by_image, class_ids, thresholds).values():
        per_class = {}
        for cid, (recall, precision, n_gt) in curves.items():
            if n_gt:  # a class absent from ground truth is excluded from the mean
                # cumsum adds left to right: the bits of a loop summing from 0.0
                terms = np.diff(recall, prepend=0.0) * precision
                per_class[cid] = float(np.cumsum(np.append(0.0, terms))[-1])
        out.append((sum(per_class.values()) / len(per_class) if per_class else 0.0, per_class))
    return out


def average_precision(preds_by_image, gts_by_image, iou_thresh: float,
                      num_classes: int | None = None):
    """All-point interpolated AP per class and the mean over classes with
    at least one ground truth.  Returns (mean_ap, per_class dict)."""
    return _mean_aps(preds_by_image, gts_by_image, [iou_thresh], num_classes)[0]


def coco_ap(preds_by_image, gts_by_image, num_classes: int | None = None) -> float:
    """Mean AP over IoU thresholds 0.50:0.05:0.95."""
    vals = [m for m, _ in _mean_aps(preds_by_image, gts_by_image, COCO_THRESHOLDS, num_classes)]
    return sum(vals) / len(vals)


@dataclass
class EvalResult:
    ap50: float
    ap75: float
    ap: float
    recall: float
    precision: float
    evaluated_classes: int = 0

    def as_dict(self):
        return {"ap50": self.ap50, "ap75": self.ap75, "ap": self.ap,
                "recall": self.recall, "precision": self.precision}


def evaluate(preds_by_image, gts_by_image, num_classes: int | None = None) -> EvalResult:
    """The full metric block: AP50, AP75, swept AP, recall, precision."""
    ap50, per_class = average_precision(preds_by_image, gts_by_image, 0.5, num_classes)
    ap75, _ = average_precision(preds_by_image, gts_by_image, 0.75, num_classes)
    ap = coco_ap(preds_by_image, gts_by_image, num_classes)
    precision, recall = precision_recall(preds_by_image, gts_by_image, 0.5)
    return EvalResult(ap50=ap50, ap75=ap75, ap=ap, recall=recall,
                      precision=precision, evaluated_classes=len(per_class))


def mean_box_area(boxes: list[BBox]) -> tuple[float, float]:
    """Arithmetic mean of box areas and its square root (mean side length)."""
    if not boxes:
        raise ValueError("mean_box_area needs at least one box")
    mean = float(np.mean([b.area for b in boxes]))
    return mean, float(np.sqrt(mean))
