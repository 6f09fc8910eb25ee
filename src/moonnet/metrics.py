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
    ax1, ay1, ax2, ay2 = _corners([a] if pair else a)[:, :, None]
    bx1, by1, bx2, by2 = _corners([b] if pair else b)[:, None, :]
    ix = np.maximum(0.0, np.minimum(ax2, bx2) - np.maximum(ax1, bx1))
    iy = np.maximum(0.0, np.minimum(ay2, by2) - np.maximum(ay1, by1))
    inter = ix * iy
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
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


def match_detections(preds: list[BBox], gts: list[BBox], iou_thresh: float) -> MatchResult:
    """Greedy matching: predictions in descending score order (ties broken by
    input order) each claim the highest-IoU unmatched same-class GT with
    IoU >= threshold.  A match to a difficult GT counts as neither TP nor FP.
    """
    order = sorted(range(len(preds)),
                   key=lambda i: (-(preds[i].score if preds[i].score is not None else 1.0), i))
    ious = iou(preds, gts)
    same_class = (np.array([p.class_id for p in preds])[:, None]
                  == np.array([g.class_id for g in gts])[None, :])
    hit = same_class & (ious >= iou_thresh) & (ious > 0.0)
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


def pr_curve(preds_by_image, gts_by_image, class_id: int, iou_thresh: float):
    """(recall, precision-envelope) points for one class, plus n_gt.

    Predictions are pooled across images and swept in descending score order;
    the returned precision is the running maximum from the right.
    """
    scored = []  # (score, image_index, tp, ignored)
    n_gt = 0
    for img_i, (preds, gts) in enumerate(zip(preds_by_image, gts_by_image)):
        cls_preds = [p for p in preds if p.class_id == class_id]
        cls_gts = [g for g in gts if g.class_id == class_id]
        m = match_detections(cls_preds, cls_gts, iou_thresh)
        n_gt += m.n_gt
        for rank, pi in enumerate(m.order):
            s = cls_preds[pi].score if cls_preds[pi].score is not None else 1.0
            scored.append((s, img_i, rank, m.tp[rank], m.ignored[rank]))
    # global descending score, stable w.r.t. (image, within-image rank)
    scored.sort(key=lambda t: (-t[0], t[1], t[2]))
    recalls, precisions = [], []
    tp = fp = 0
    for s, _, _, is_tp, is_ign in scored:
        if is_ign:
            continue
        if is_tp:
            tp += 1
        else:
            fp += 1
        recalls.append(tp / n_gt if n_gt else 0.0)
        precisions.append(tp / (tp + fp))
    # monotone envelope from the right
    for i in range(len(precisions) - 2, -1, -1):
        precisions[i] = max(precisions[i], precisions[i + 1])
    return recalls, precisions, n_gt


def average_precision(preds_by_image, gts_by_image, iou_thresh: float,
                      num_classes: int | None = None):
    """All-point interpolated AP per class and the mean over classes with
    at least one ground truth.  Returns (mean_ap, per_class dict).  Without
    ``num_classes`` only the class ids present in the ground truth are swept,
    since no other class can enter the mean."""
    if num_classes is None:
        class_ids = sorted({b.class_id for gts in gts_by_image for b in gts})
    else:
        class_ids = range(num_classes)
    per_class = {}
    for cid in class_ids:
        recalls, precisions, n_gt = pr_curve(preds_by_image, gts_by_image, cid, iou_thresh)
        if n_gt == 0:
            continue  # class absent from ground truth: excluded from the mean
        ap = 0.0
        prev_r = 0.0
        for r, p in zip(recalls, precisions):
            ap += (r - prev_r) * p
            prev_r = r
        per_class[cid] = ap
    mean = sum(per_class.values()) / len(per_class) if per_class else 0.0
    return mean, per_class


def coco_ap(preds_by_image, gts_by_image, num_classes: int | None = None) -> float:
    """Mean AP over IoU thresholds 0.50:0.05:0.95."""
    vals = [average_precision(preds_by_image, gts_by_image, t, num_classes)[0]
            for t in COCO_THRESHOLDS]
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
