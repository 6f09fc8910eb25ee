"""Brute-force detection-metric reference for checking ``moonnet.metrics.evaluate``.

It shares no code with ``moonnet.metrics``.  IoU comes from one NumPy matrix
per image and class, computed with the same IEEE operations as the scalar
``iou()``, so every threshold decision is identical.  Matching is greedy in
descending score order (ties by input order); each prediction claims the
first highest-IoU untaken ground truth at or above the threshold.  A claim
on a difficult box is neither TP nor FP.  AP is written as the mean, over
ground truths, of the precision envelope at each TP event.  That equals the
all-point interpolated area, summed in a different order.
"""

from __future__ import annotations

import numpy as np

THRESHOLDS = (0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95)
TP, FP, IGNORED = 1, 0, -1


def _iou_matrix(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    ix = np.maximum(0.0, np.minimum(p[:, None, 2], g[None, :, 2]) - np.maximum(p[:, None, 0], g[None, :, 0]))
    iy = np.maximum(0.0, np.minimum(p[:, None, 3], g[None, :, 3]) - np.maximum(p[:, None, 1], g[None, :, 1]))
    inter = ix * iy
    area_p = (p[:, 2] - p[:, 0]) * (p[:, 3] - p[:, 1])
    area_g = (g[:, 2] - g[:, 0]) * (g[:, 3] - g[:, 1])
    out = inter / (area_p[:, None] + area_g[None, :] - inter)
    out[inter == 0.0] = 0.0
    return out


def _greedy(ious: np.ndarray, difficult: np.ndarray, thresh: float) -> list[int]:
    """Outcome (TP/FP/IGNORED) per prediction row, rows already in score order."""
    taken = np.zeros(ious.shape[1], dtype=bool)
    out = []
    for row in ious:
        cand = np.where(taken | (row < thresh), -1.0, row)
        j = int(np.argmax(cand)) if cand.size else -1
        if j < 0 or cand[j] < 0.0:
            out.append(FP)
            continue
        taken[j] = True
        out.append(IGNORED if difficult[j] else TP)
    return out


def _ap(events: list[tuple[float, int, int, int]], n_gt: int) -> float:
    events.sort(key=lambda e: (-e[0], e[1], e[2]))
    outcomes = [e[3] for e in events if e[3] != IGNORED]
    tp = np.cumsum([o == TP for o in outcomes])
    precision = tp / np.arange(1, len(outcomes) + 1)
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    return float(sum(envelope[k] for k, o in enumerate(outcomes) if o == TP)) / n_gt


def reference_evaluate(preds_by_image, gts_by_image, num_classes: int) -> dict:
    """AP50, AP75, the COCO-swept AP, pooled precision/recall at IoU 0.5, and
    the number of classes with ground truth, as a plain dict."""
    per_thresh_ap = {t: [] for t in THRESHOLDS}
    tp50 = fp50 = n_gt_all = 0
    evaluated = 0
    for cid in range(num_classes):
        events = {t: [] for t in THRESHOLDS}
        n_gt = 0
        for img, (preds, gts) in enumerate(zip(preds_by_image, gts_by_image)):
            ps = [p for p in preds if p.class_id == cid]
            gs = [g for g in gts if g.class_id == cid]
            difficult = np.array([g.difficult for g in gs], dtype=bool)
            n_gt += int((~difficult).sum())
            scores = [1.0 if p.score is None else p.score for p in ps]
            order = sorted(range(len(ps)), key=lambda i: (-scores[i], i))
            pa = np.array([[ps[i].x1, ps[i].y1, ps[i].x2, ps[i].y2] for i in order],
                          dtype=np.float64).reshape(-1, 4)
            ga = np.array([[g.x1, g.y1, g.x2, g.y2] for g in gs], dtype=np.float64).reshape(-1, 4)
            ious = _iou_matrix(pa, ga)
            for t in THRESHOLDS:
                for rank, outcome in enumerate(_greedy(ious, difficult, t)):
                    events[t].append((scores[order[rank]], img, rank, outcome))
        tp50 += sum(e[3] == TP for e in events[0.5])
        fp50 += sum(e[3] == FP for e in events[0.5])
        n_gt_all += n_gt
        if n_gt == 0:
            continue
        evaluated += 1
        for t in THRESHOLDS:
            per_thresh_ap[t].append(_ap(events[t], n_gt))
    mean_ap = {t: (sum(v) / len(v) if v else 0.0) for t, v in per_thresh_ap.items()}
    return {
        "ap50": mean_ap[0.5],
        "ap75": mean_ap[0.75],
        "ap": sum(mean_ap.values()) / len(THRESHOLDS),
        "recall": tp50 / n_gt_all if n_gt_all else 0.0,
        "precision": tp50 / (tp50 + fp50) if tp50 + fp50 else 0.0,
        "evaluated_classes": evaluated,
    }


def matches(result, ref: dict, tol: float = 1e-12) -> bool:
    """True when an EvalResult equals the reference: floats to ``tol``,
    the evaluated-class count exactly."""
    return (result.evaluated_classes == ref["evaluated_classes"]
            and all(abs(getattr(result, k) - ref[k]) <= tol
                    for k in ("ap50", "ap75", "ap", "recall", "precision")))
