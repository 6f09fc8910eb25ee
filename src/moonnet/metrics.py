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
    "match_plan",
    "MatchPlan",
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


@dataclass
class MatchPlan:
    """The threshold-independent part of matching one image, for any threshold >= floor:
    the score order and, per prediction with a candidate GT, its rank in that order, its
    index and its (IoU, GT index) pairs, IoU > 0 and >= floor, IoU desc, then GT index."""
    order: list[int]
    candidates: list[tuple[int, int, list[tuple[float, int]]]]
    difficult: list[bool]
    n_gt: int  # non-difficult ground truths
    floor: float


def match_plan(preds: list[BBox], gts: list[BBox], floor: float) -> MatchPlan:
    """The plan match_detections runs for any threshold >= ``floor``: the plans of
    the classes on both sides, re-indexed into the image's box indices."""
    images = [(preds, gts)]
    both = {p.class_id for p in preds} & {g.class_id for g in gts}
    return _pooled_plans(images, _prepare(images, both, floor), floor)[0]


def _class_plan(preds: list[BBox], gts: list[BBox], floor: float) -> MatchPlan:
    """The plan of one class's boxes in one image, from one iou call: the lists
    hold one class, so the plain IoU matrix is already class-masked."""
    ious = iou(preds, gts)
    hit = np.flatnonzero((ious >= floor) & (ious > 0.0))  # 2-D np.nonzero is far slower
    hit = hit[np.argsort(-ious.ravel()[hit], kind="stable")]  # IoU desc, then row-major
    candidates = [[] for _ in preds]
    for k, v in zip(hit.tolist(), ious.ravel()[hit].tolist()):
        candidates[k // len(gts)].append((v, k % len(gts)))
    return _plan(preds, gts, floor, candidates)


def _plan(preds, gts, floor, candidates) -> MatchPlan:
    """The plan of ``candidates[i]``, prediction i's (IoU, GT index) list."""
    # a stable sort: reverse=True keeps tied scores in input order
    order = sorted(range(len(preds)), reverse=True,
                   key=[1.0 if p.score is None else p.score for p in preds].__getitem__)
    difficult = [g.difficult for g in gts]
    return MatchPlan(order, [(rank, i, candidates[i]) for rank, i in enumerate(order)
                             if candidates[i]], difficult, sum(not d for d in difficult), floor)


def match_detections(preds: list[BBox], gts: list[BBox], iou_thresh: float,
                     plan: MatchPlan | None = None) -> MatchResult:
    """Greedy matching: predictions in descending score order (ties broken by
    input order) each claim the highest-IoU unmatched same-class GT with
    IoU >= threshold, the lowest GT index among equal IoUs.  A match to a
    difficult GT counts as neither TP nor FP.  ``plan`` (built here with floor
    ``iou_thresh`` when not given) lets the thresholds of a sweep share one."""
    if plan is None:
        plan = match_plan(preds, gts, iou_thresh)
    elif (shape := (len(plan.order), len(plan.difficult))) != (len(preds), len(gts)):
        raise ValueError(f"plan has shape {shape}, expected {(len(preds), len(gts))}")
    elif iou_thresh < plan.floor:
        raise ValueError(f"threshold {iou_thresh} is below the plan's floor {plan.floor}")
    taken, matched_gt = [False] * len(gts), {}
    tp, ignored = [False] * len(preds), [False] * len(preds)
    for rank, pi, candidates in plan.candidates:
        for v, j in candidates:  # IoU descending: the first untaken one wins
            if v < iou_thresh:
                break
            if not taken[j]:
                taken[j] = True
                matched_gt[pi] = j
                tp[rank], ignored[rank] = not plan.difficult[j], plan.difficult[j]
                break
    return MatchResult(list(plan.order), tp, ignored, matched_gt, plan.n_gt)


def _paired(preds_by_image, gts_by_image):
    """The (preds, gts) pair of each image; zip alone would drop unpaired ones."""
    if len(preds_by_image) != len(gts_by_image):
        raise ValueError(f"{len(preds_by_image)} prediction lists for {len(gts_by_image)} "
                         "ground-truth lists: one of each per image")
    return list(zip(preds_by_image, gts_by_image))


def precision_recall(preds_by_image, gts_by_image, iou_thresh: float, plans=None):
    """Dataset-level precision and recall at one threshold, all classes pooled,
    from one match plan per image (floor <= iou_thresh), built here when not given."""
    images = _paired(preds_by_image, gts_by_image)
    tp = fp = n_gt = 0
    for (preds, gts), plan in zip(images, plans or [None] * len(images)):
        m = match_detections(preds, gts, iou_thresh, plan)
        tp += sum(m.tp)
        fp += sum(1 for t, ig in zip(m.tp, m.ignored) if not t and not ig)
        n_gt += m.n_gt
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / n_gt if n_gt else 0.0
    return precision, recall


def _prepare(images, class_ids, floor):
    """{class id: (split, merge, plans, indices)}: per image the class's (preds, gts),
    match plan with floor ``floor`` and box indices; the (score desc, image, rank) merge."""
    groups = [({}, {}) for _ in images]  # {class id: box indices}, one pass per image
    for image, pair in zip(images, groups):
        for boxes, by_id in zip(image, pair):
            for i, b in enumerate(boxes):
                by_id.setdefault(b.class_id, []).append(i)
    classes = {}
    for cid in class_ids:
        indices = [(pg.get(cid, []), gg.get(cid, [])) for pg, gg in groups]
        split = [([preds[i] for i in pi], [gts[j] for j in gi])
                 for (preds, gts), (pi, gi) in zip(images, indices)]
        # each image's scores in match order: the stable sort breaks ties by image, then rank
        ranked = np.array([s for ps, _ in split for s in sorted(
            (1.0 if p.score is None else p.score for p in ps), reverse=True)], dtype=np.float64)
        plans = [_class_plan(ps, gs, floor) for ps, gs in split]
        classes[cid] = split, np.argsort(-ranked, kind="stable"), plans, indices
    return classes


def _pooled_plans(images, classes, floor):
    """Each image's all-class plan (floor ``floor``), by re-indexing the class plans
    of ``_prepare``'s ``classes``, which must hold every class on both sides of an
    image: candidates never cross classes."""
    candidates = [[[] for _ in preds] for preds, _ in images]
    for _, _, plans, indices in classes.values():
        for image, plan, (pi, gi) in zip(candidates, plans, indices):
            for _, i, cands in plan.candidates:
                image[pi[i]] = [(v, gi[j]) for v, j in cands]
    return [_plan(preds, gts, floor, c) for (preds, gts), c in zip(images, candidates)]


def _curves(classes, thresholds):
    """{threshold: {class_id: (recall, precision envelope, n_gt)}}: per threshold only
    the greedy pass runs, and its flags, in each image's score order, go to the merge."""
    curves = {t: {} for t in thresholds}
    for cid, (split, merged, plans, _) in classes.items():
        for t in thresholds:
            matches = [match_detections(ps, gs, t, plan) for (ps, gs), plan in zip(split, plans)]
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
    classes = _prepare(_paired(preds_by_image, gts_by_image), [class_id], iou_thresh)
    recall, precision, n_gt = _curves(classes, [iou_thresh])[iou_thresh][class_id]
    return recall.tolist(), precision.tolist(), n_gt


def _prepare_aps(preds_by_image, gts_by_image, num_classes, floor):
    """``_prepare`` of the class ids AP sweeps: those in the ground truth (no
    other class can enter the mean), or range(num_classes), outside which no
    box's class id may lie, since it would be dropped from AP silently."""
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
    return _prepare(_paired(preds_by_image, gts_by_image), class_ids, floor)


def _mean_aps(classes, thresholds):
    """[(mean AP, per-class AP)] per threshold, from ``_prepare``'s classes."""
    out = []
    for curves in _curves(classes, thresholds).values():
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
    classes = _prepare_aps(preds_by_image, gts_by_image, num_classes, iou_thresh)
    return _mean_aps(classes, [iou_thresh])[0]


def coco_ap(preds_by_image, gts_by_image, num_classes: int | None = None) -> float:
    """Mean AP over IoU thresholds 0.50:0.05:0.95."""
    classes = _prepare_aps(preds_by_image, gts_by_image, num_classes, COCO_THRESHOLDS[0])
    vals = [m for m, _ in _mean_aps(classes, COCO_THRESHOLDS)]
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
    classes = _prepare_aps(preds_by_image, gts_by_image, num_classes, 0.5)
    [(ap50, per_class)], [(ap75, _)] = _mean_aps(classes, [0.5]), _mean_aps(classes, [0.75])
    coco = [m for m, _ in _mean_aps(classes, COCO_THRESHOLDS)]
    # ``classes`` (GT ids or range(num_classes)) holds every class on both sides
    plans = _pooled_plans(_paired(preds_by_image, gts_by_image), classes, 0.5)
    precision, recall = precision_recall(preds_by_image, gts_by_image, 0.5, plans)
    return EvalResult(ap50=ap50, ap75=ap75, ap=sum(coco) / len(coco), recall=recall,
                      precision=precision, evaluated_classes=len(per_class))


def mean_box_area(boxes: list[BBox]) -> tuple[float, float]:
    """Arithmetic mean of box areas and its square root (mean side length)."""
    if not boxes:
        raise ValueError("mean_box_area needs at least one box")
    mean = float(np.mean([b.area for b in boxes]))
    return mean, float(np.sqrt(mean))
