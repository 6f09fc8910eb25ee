"""Detection metric tests against hand-worked fixtures and an independent
brute-force AP reference."""

import hashlib
import itertools
from dataclasses import astuple, replace

import numpy as np
import pytest

from moonnet import metrics
from moonnet.augment import BBox
from moonnet.metrics import (
    MatchResult,
    COCO_THRESHOLDS,
    average_precision,
    coco_ap,
    evaluate,
    iou,
    match_detections,
    mean_box_area,
    precision_recall,
    pr_curve,
)


class TestIoU:
    def test_identical_boxes(self):
        b = BBox(1, 1, 5, 5)
        assert iou(b, b) == 1.0

    def test_disjoint(self):
        assert iou(BBox(0, 0, 1, 1), BBox(2, 2, 3, 3)) == 0.0

    def test_touching_edges_zero(self):
        assert iou(BBox(0, 0, 1, 1), BBox(1, 0, 2, 1)) == 0.0

    def test_one_seventh_fixture(self):
        # 2x2 boxes offset by (1,1): inter 1, union 4+4-1=7
        v = iou(BBox(0, 0, 2, 2), BBox(1, 1, 3, 3))
        assert abs(v - 1.0 / 7.0) < 1e-12

    def test_containment(self):
        # 1x1 inside 4x4: 1/16
        assert iou(BBox(0, 0, 4, 4), BBox(1, 1, 2, 2)) == pytest.approx(1 / 16)

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = np.sort(rng.uniform(0, 10, 4))
            a = BBox(x[0], x[0], x[2], x[2] + 1)
            b = BBox(x[1], x[1], x[3], x[3] + 1)
            assert iou(a, b) == iou(b, a)
            assert 0.0 <= iou(a, b) <= 1.0


class TestMatching:
    def test_high_score_claims_best_gt(self):
        gts = [BBox(0, 0, 10, 10), BBox(20, 0, 30, 10)]
        preds = [BBox(0, 0, 10, 10, score=0.9), BBox(1, 0, 11, 10, score=0.8)]
        m = match_detections(preds, gts, 0.5)
        assert m.tp == [True, False]  # second pred finds no free GT above 0.5
        assert m.matched_gt[0] == 0

    def test_class_mismatch_never_matches(self):
        gts = [BBox(0, 0, 10, 10, class_id=1)]
        preds = [BBox(0, 0, 10, 10, class_id=0, score=0.9)]
        m = match_detections(preds, gts, 0.5)
        assert m.tp == [False]

    def test_each_gt_claimed_once(self):
        gts = [BBox(0, 0, 10, 10)]
        preds = [BBox(0, 0, 10, 10, score=0.9), BBox(0, 0, 10, 10, score=0.8)]
        m = match_detections(preds, gts, 0.5)
        assert sorted(m.tp) == [False, True]
        assert m.tp[0] is True  # higher score wins

    def test_difficult_gt_neither_tp_nor_fp(self):
        gts = [BBox(0, 0, 10, 10, difficult=True)]
        preds = [BBox(0, 0, 10, 10, score=0.9)]
        m = match_detections(preds, gts, 0.5)
        assert m.tp == [False]
        assert m.ignored == [True]
        assert m.n_gt == 0

    def test_prefers_higher_iou_gt(self):
        gts = [BBox(0, 0, 10, 10), BBox(0, 0, 12, 10)]
        preds = [BBox(0, 0, 12, 10, score=0.9)]
        m = match_detections(preds, gts, 0.5)
        assert m.matched_gt[0] == 1

    def test_threshold_boundary_inclusive(self):
        # IoU exactly 0.5: 5x10 pred over left half of 10x10 GT... that is 0.5
        gts = [BBox(0, 0, 10, 10)]
        preds = [BBox(0, 0, 5, 10, score=0.9)]
        assert iou(preds[0], gts[0]) == 0.5
        m = match_detections(preds, gts, 0.5)
        assert m.tp == [True]


class TestPrecisionRecall:
    def test_identity_tp_fp_fn(self):
        gts = [[BBox(0, 0, 10, 10), BBox(20, 20, 30, 30)]]
        preds = [[BBox(0, 0, 10, 10, score=0.9), BBox(50, 50, 60, 60, score=0.8)]]
        p, r = precision_recall(preds, gts, 0.5)
        assert p == 0.5  # 1 TP, 1 FP
        assert r == 0.5  # 1 TP, 2 GT

    def test_empty_predictions(self):
        p, r = precision_recall([[]], [[BBox(0, 0, 1, 1)]], 0.5)
        assert (p, r) == (0.0, 0.0)

    def test_perfect(self):
        gts = [[BBox(0, 0, 10, 10)]]
        preds = [[BBox(0, 0, 10, 10, score=0.9)]]
        assert precision_recall(preds, gts, 0.5) == (1.0, 1.0)


def brute_force_ap(preds_by_image, gts_by_image, class_id, thresh):
    """Independent AP reference: explicit event list, cumulative counts,
    right-to-left precision envelope, rectangle sum.  No shared code with
    the implementation beyond iou()."""
    events = []  # (score, img, order, tp?)
    total_gt = 0
    for img, (preds, gts) in enumerate(zip(preds_by_image, gts_by_image)):
        ps = [p for p in preds if p.class_id == class_id]
        gs = [g for g in gts if g.class_id == class_id]
        total_gt += sum(0 if g.difficult else 1 for g in gs)
        used = set()
        idx = sorted(range(len(ps)),
                     key=lambda i: (-(ps[i].score if ps[i].score is not None else 1.0), i))
        for rank, i in enumerate(idx):
            cand = [(iou(ps[i], g), j) for j, g in enumerate(gs)
                    if j not in used and iou(ps[i], g) >= thresh]
            if cand:
                best = max(cand, key=lambda t: t[0])[1]
                used.add(best)
                if gs[best].difficult:
                    continue  # dropped from the event list entirely
                events.append((ps[i].score if ps[i].score is not None else 1.0,
                               img, rank, True))
            else:
                events.append((ps[i].score if ps[i].score is not None else 1.0,
                               img, rank, False))
    if total_gt == 0:
        return None
    events.sort(key=lambda e: (-e[0], e[1], e[2]))
    rec, prec = [], []
    tp = fp = 0
    for _, _, _, is_tp in events:
        tp, fp = tp + (1 if is_tp else 0), fp + (0 if is_tp else 1)
        rec.append(tp / total_gt)
        prec.append(tp / (tp + fp))
    for i in range(len(prec) - 2, -1, -1):
        prec[i] = max(prec[i], prec[i + 1])
    ap = 0.0
    last = 0.0
    for r, p in zip(rec, prec):
        ap += (r - last) * p
        last = r
    return ap


def random_scene(rng, n_classes=3):
    def rand_box(cls, score=None, difficult=False):
        x1, y1 = rng.uniform(0, 40, 2)
        w, h = rng.uniform(2, 15, 2)
        return BBox(x1, y1, x1 + w, y1 + h, cls, score=score, difficult=difficult)

    n_img = rng.integers(1, 4)
    gts_by_image, preds_by_image = [], []
    for _ in range(n_img):
        gts = [rand_box(int(rng.integers(0, n_classes)),
                        difficult=bool(rng.random() < 0.1))
               for _ in range(rng.integers(0, 5))]
        preds = []
        for g in gts:
            if rng.random() < 0.7:  # noisy copy of a GT
                d = rng.uniform(-3, 3, 4)
                preds.append(BBox(g.x1 + d[0], g.y1 + d[1],
                                  max(g.x2 + d[2], g.x1 + d[0] + 1),
                                  max(g.y2 + d[3], g.y1 + d[1] + 1),
                                  g.class_id, score=float(rng.uniform(0.1, 1.0))))
        for _ in range(rng.integers(0, 3)):  # background false alarms
            preds.append(rand_box(int(rng.integers(0, n_classes)),
                                  score=float(rng.uniform(0.1, 1.0))))
        gts_by_image.append(gts)
        preds_by_image.append(preds)
    return preds_by_image, gts_by_image


class TestAPAgainstBruteForce:
    def test_fifty_random_fixtures_exact(self):
        rng = np.random.default_rng(77)
        checked = 0
        for _ in range(50):
            preds, gts = random_scene(rng)
            for thresh in (0.5, 0.75):
                _, per_class = average_precision(preds, gts, thresh, num_classes=3)
                for cid in range(3):
                    ref = brute_force_ap(preds, gts, cid, thresh)
                    if ref is None:
                        assert cid not in per_class
                    else:
                        assert per_class[cid] == pytest.approx(ref, abs=1e-12)
                        checked += 1
        assert checked > 50

    def test_tied_scores_across_images_exact(self):
        # tied and missing scores: the merge must order ties by image, then rank
        rng = np.random.default_rng(31)
        checked = 0
        for _ in range(60):
            images = [tricky_image(rng) for _ in range(int(rng.integers(2, 5)))]
            preds, gts = [p for p, _ in images], [g for _, g in images]
            for thresh in (0.5, 0.75):
                _, per_class = average_precision(preds, gts, thresh, num_classes=3)
                for cid in range(3):
                    ref = brute_force_ap(preds, gts, cid, thresh)
                    assert per_class.get(cid) == ref
                    checked += ref is not None
        assert checked > 100

    def test_textbook_curve(self):
        # one class, one image: TP FP TP in score order over 2 GTs
        gts = [[BBox(0, 0, 10, 10), BBox(20, 0, 30, 10)]]
        preds = [[BBox(0, 0, 10, 10, score=0.9),
                  BBox(50, 0, 60, 10, score=0.8),
                  BBox(20, 0, 30, 10, score=0.7)]]
        _, per_class = average_precision(preds, gts, 0.5)
        # envelope precisions: [1, 2/3, 2/3]; recalls [.5, .5, 1]
        assert per_class[0] == pytest.approx(0.5 * 1.0 + 0.5 * (2 / 3))


class TestAPProperties:
    def test_score_monotone_transform_invariance(self):
        rng = np.random.default_rng(5)
        preds, gts = random_scene(rng)
        a, _ = average_precision(preds, gts, 0.5, num_classes=3)
        squashed = [[BBox(p.x1, p.y1, p.x2, p.y2, p.class_id,
                          score=p.score ** 3 if p.score is not None else None)
                     for p in img] for img in preds]
        b, _ = average_precision(squashed, gts, 0.5, num_classes=3)
        assert a == pytest.approx(b, abs=1e-12)

    def test_ap_non_increasing_in_threshold(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            preds, gts = random_scene(rng)
            vals = [average_precision(preds, gts, t, num_classes=3)[0]
                    for t in COCO_THRESHOLDS]
            for lo, hi in itertools.pairwise(vals):
                assert hi <= lo + 1e-12

    def test_zero_gt_class_excluded(self):
        gts = [[BBox(0, 0, 10, 10, class_id=0)]]
        preds = [[BBox(0, 0, 10, 10, class_id=0, score=0.9),
                  BBox(5, 5, 8, 8, class_id=2, score=0.4)]]
        mean, per_class = average_precision(preds, gts, 0.5, num_classes=3)
        assert set(per_class) == {0}
        assert mean == 1.0  # class-2 false alarms cannot dilute an absent class

    def test_without_num_classes_only_gt_class_ids_are_swept(self, monkeypatch):
        """A ground-truth class id of 1000 costs one sweep, not a thousand."""
        calls = []
        match = metrics.match_detections
        monkeypatch.setattr(metrics, "match_detections",
                            lambda *a: calls.append(a) or match(*a))
        gts = [[BBox(0, 0, 10, 10, 0), BBox(20, 20, 30, 30, 1000)], [BBox(5, 5, 9, 9, 0)]]
        preds = [[BBox(0, 0, 10, 10, 0, score=0.9)], [BBox(5, 5, 9, 9, 7, score=0.5)]]
        res = evaluate(preds, gts)
        gt_classes, images = 2, 2
        assert len(calls) == 12 * gt_classes * images + images
        assert res == evaluate(preds, gts, num_classes=1001)

    @pytest.mark.parametrize("num_classes", [0, -1])
    def test_num_classes_below_one_raises(self, num_classes):
        gts = [[BBox(0, 0, 10, 10, 0)]]
        preds = [[BBox(0, 0, 10, 10, 0, score=0.9)]]
        for call in (lambda: evaluate(preds, gts, num_classes),
                     lambda: average_precision(preds, gts, 0.5, num_classes),
                     lambda: coco_ap(preds, gts, num_classes)):
            with pytest.raises(ValueError, match=rf"num_classes must be at least 1, got {num_classes}"):
                call()

    @pytest.mark.parametrize("side", ["gt", "pred"])
    def test_class_id_outside_num_classes_raises(self, side):
        """GT classes {0, 3} with num_classes=1 once scored ap50=1.0 with
        recall 0.5: AP dropped class 3 while precision_recall counted it."""
        gts = [[BBox(0, 0, 10, 10, 0)], [BBox(20, 20, 30, 30, 3 if side == "gt" else 0)]]
        preds = [[BBox(0, 0, 10, 10, 0, score=0.9)],
                 [BBox(20, 20, 30, 30, 3 if side == "pred" else 0, score=0.8)]]
        for call in (lambda: evaluate(preds, gts, num_classes=1),
                     lambda: average_precision(preds, gts, 0.5, num_classes=1),
                     lambda: coco_ap(preds, gts, num_classes=1)):
            with pytest.raises(ValueError, match=r"class id 3 .*num_classes=1\)"):
                call()
        assert evaluate(preds, gts, num_classes=4).evaluated_classes == 1 + (side == "gt")

    def test_unpaired_image_lists_raise(self):
        """evaluate([[p]], [[g], [g]]) once scored ap50=1.0 and recall=1.0:
        zip dropped the second image, whose GT no prediction found."""
        g, p = BBox(0, 0, 10, 10, 0), BBox(0, 0, 10, 10, 0, score=0.9)
        for preds, gts in (([[p]], [[g], [g]]), ([[p], [p]], [[g]]), ([], [[g]]),
                           ([[p]], [[], []])):  # no GT at all, so no class to sweep
            for call in (lambda: evaluate(preds, gts), lambda: evaluate(preds, gts, 1),
                         lambda: average_precision(preds, gts, 0.5),
                         lambda: coco_ap(preds, gts), lambda: precision_recall(preds, gts, 0.5),
                         lambda: pr_curve(preds, gts, 0, 0.5)):
                with pytest.raises(ValueError, match=rf"^{len(preds)} prediction lists for "
                                                     rf"{len(gts)} ground-truth lists"):
                    call()

    def test_perfect_detector_all_ones(self):
        gts = [[BBox(0, 0, 10, 10, 0), BBox(20, 20, 25, 28, 1)]]
        preds = [[BBox(0, 0, 10, 10, 0, score=0.9), BBox(20, 20, 25, 28, 1, score=0.8)]]
        res = evaluate(preds, gts)
        assert (res.ap50, res.ap75, res.ap) == (1.0, 1.0, 1.0)
        assert (res.precision, res.recall) == (1.0, 1.0)
        assert res.evaluated_classes == 2

    def test_coco_ap_is_mean_over_thresholds(self):
        rng = np.random.default_rng(9)
        preds, gts = random_scene(rng)
        expect = np.mean([average_precision(preds, gts, t, num_classes=3)[0]
                          for t in COCO_THRESHOLDS])
        assert coco_ap(preds, gts, num_classes=3) == pytest.approx(expect)


class TestPrCurve:
    def test_envelope_monotone_non_increasing(self):
        rng = np.random.default_rng(21)
        preds, gts = random_scene(rng)
        for cid in range(3):
            _, prec, _ = pr_curve(preds, gts, cid, 0.5)
            for lo, hi in itertools.pairwise(prec):
                assert hi <= lo + 1e-12


def scalar_iou(a, b):
    """IoU of one pair in plain Python floats: the scalar form the matrix
    reproduces operation for operation."""
    ix = max(0.0, min(a.x2, b.x2) - max(a.x1, b.x1))
    iy = max(0.0, min(a.y2, b.y2) - max(a.y1, b.y1))
    inter = ix * iy
    if inter == 0.0:
        return 0.0
    return inter / (a.area + b.area - inter)


def scalar_match(preds, gts, iou_thresh, plan=None):
    """Greedy matching as one scalar IoU per (prediction, GT) pair: the
    O(P*G) loop that match_detections replaced, kept as its oracle.  It
    takes match_detections' arguments but ignores a shared ``plan`` and
    computes every IoU itself."""
    order = sorted(range(len(preds)),
                   key=lambda i: (-(preds[i].score if preds[i].score is not None else 1.0), i))
    taken = [False] * len(gts)
    tp, ignored = [], []
    matched_gt = {}
    for pi in order:
        p = preds[pi]
        best_j, best_iou = -1, 0.0
        for j, g in enumerate(gts):
            if taken[j] or g.class_id != p.class_id:
                continue
            v = scalar_iou(p, g)
            if v >= iou_thresh and v > best_iou:
                best_j, best_iou = j, v
        if best_j >= 0:
            taken[best_j] = True
            matched_gt[pi] = best_j
            tp.append(not gts[best_j].difficult)
            ignored.append(gts[best_j].difficult)
        else:
            tp.append(False)
            ignored.append(False)
    n_gt = sum(1 for g in gts if not g.difficult)
    return MatchResult(order, tp, ignored, matched_gt, n_gt)


def tricky_image(rng, n_classes=3):
    """One image whose boxes hit every matching edge case: integer-grid and
    float boxes, duplicated GTs (IoU ties), difficult GTs, exact copies
    (IoU 1), nested and touching boxes, tied and None scores, and empty
    prediction or GT lists."""
    def rand_box(cls, **kw):
        if rng.random() < 0.5:  # integer grid: exact ties and shared edges
            x1, y1 = (int(v) for v in rng.integers(0, 12, 2))
            w, h = (int(v) for v in rng.integers(1, 6, 2))
        else:
            x1, y1 = rng.uniform(0, 12, 2)
            w, h = rng.uniform(0.5, 6, 2)
        return BBox(x1, y1, x1 + w, y1 + h, cls, **kw)

    def score():
        r = rng.random()
        if r < 0.15:
            return None
        if r < 0.6:
            return float(rng.choice([0.25, 0.5, 0.75]))  # ties
        return float(rng.uniform(0, 1))

    gts = []
    for _ in range(int(rng.integers(0, 10)) if rng.random() > 0.1 else 0):
        if gts and rng.random() < 0.25:
            gts.append(replace(gts[int(rng.integers(len(gts)))],
                               difficult=bool(rng.random() < 0.3)))
        else:
            gts.append(rand_box(int(rng.integers(n_classes)),
                                difficult=bool(rng.random() < 0.15)))
    preds = []
    for _ in range(int(rng.integers(0, 12)) if rng.random() > 0.1 else 0):
        r = rng.random()
        if gts and r < 0.3:  # exact copy, maybe of another class
            g = gts[int(rng.integers(len(gts)))]
            cls = g.class_id if rng.random() < 0.8 else int(rng.integers(n_classes))
            preds.append(BBox(g.x1, g.y1, g.x2, g.y2, cls, score=score()))
        elif gts and r < 0.6:  # jittered copy
            g = gts[int(rng.integers(len(gts)))]
            d = rng.uniform(-1, 1, 4)
            preds.append(BBox(g.x1 + d[0], g.y1 + d[1], max(g.x2 + d[2], g.x1 + d[0] + 0.5),
                              max(g.y2 + d[3], g.y1 + d[1] + 0.5), g.class_id, score=score()))
        else:
            preds.append(rand_box(int(rng.integers(n_classes)), score=score()))
    return preds, gts


EDGE_PAIRS = [
    (BBox(1, 1, 5, 5), BBox(1, 1, 5, 5)),                  # identical
    (BBox(0, 0, 4, 4), BBox(1, 1, 2, 2)),                  # nested
    (BBox(0.1, 0.2, 3.7, 4.9), BBox(0.3, 0.4, 1.1, 1.3)),  # nested, float
    (BBox(0, 0, 1, 1), BBox(1, 0, 2, 1)),                  # touching edge
    (BBox(0, 0, 1, 1), BBox(1, 1, 2, 2)),                  # touching corner
    (BBox(0, 0, 1, 1), BBox(2, 2, 3, 3)),                  # disjoint
    (BBox(0, 0, 2, 2), BBox(1, 1, 3, 3)),                  # 1/7
    (BBox(0, 0, 10, 10), BBox(0, 0, 5, 10)),               # exactly 0.5
    (BBox(0.1, 0.1, 0.3, 0.7), BBox(0.2, 0.1, 0.4, 0.7)),  # inexact halves
    (BBox(1e-3, 1e-3, 2e-3, 2e-3), BBox(1.5e-3, 1e-3, 2.5e-3, 2e-3)),
    (BBox(0, 0, 1e4, 1e4), BBox(1e4 - 1e-3, 0, 2e4, 1e4)),
]


class TestIoUMatrix:
    def test_matrix_equals_scalar_form_bit_for_bit(self):
        rng = np.random.default_rng(55)
        a = [pa for pa, _ in EDGE_PAIRS] + [pb for _, pb in EDGE_PAIRS]
        for _ in range(20):
            preds, gts = tricky_image(rng)
            a += preds + gts
        b = list(reversed(a))
        m = iou(a, b)
        assert m.shape == (len(a), len(b)) and m.dtype == np.float64
        for i, j in itertools.product(range(len(a)), range(len(b))):
            assert m[i, j].hex() == scalar_iou(a[i], b[j]).hex() == iou(a[i], b[j]).hex()

    def test_edge_pairs(self):
        for pa, pb in EDGE_PAIRS:
            v = iou(pa, pb)
            assert type(v) is float
            assert v.hex() == scalar_iou(pa, pb).hex() == iou(pb, pa).hex()
            assert iou([pa], [pb])[0, 0].hex() == v.hex()

    def test_empty_lists_give_empty_matrices(self):
        b = [BBox(0, 0, 1, 1)] * 3
        assert iou([], b).shape == (0, 3)
        assert iou(b, []).shape == (3, 0)
        assert iou([], []).shape == (0, 0)


class TestMatchingEquivalence:
    THRESHOLDS = (0.0, 0.5, 0.95, 1.0)

    def test_matches_scalar_loop_on_seeded_scenes(self):
        rng = np.random.default_rng(2024)
        seen = dict(empty=0, ignored=0, exact=0, tie=0)
        for _ in range(250):
            preds, gts = tricky_image(rng)
            seen["empty"] += not preds or not gts
            for t in self.THRESHOLDS:
                m = match_detections(preds, gts, t)
                ref = scalar_match(preds, gts, t)
                assert astuple(m) == astuple(ref)
                seen["ignored"] += sum(m.ignored)
                seen["exact"] += t == 1.0 and len(m.matched_gt)
            # a prediction with two equal best IoUs on distinct untaken GTs
            for p in preds:
                ious = [scalar_iou(p, g) for g in gts if g.class_id == p.class_id]
                seen["tie"] += len(ious) > 1 and max(ious) > 0 and ious.count(max(ious)) > 1
        assert all(v > 0 for v in seen.values()), seen

    def test_plan_matches_scalar_loop_at_every_floor(self):
        """One plan serves every threshold at or above its floor: a plan at
        floor 0 or 0.5, shared like a sweep's, matches as the scalar oracle."""
        rng = np.random.default_rng(2024)
        thresholds = (0.0, 0.5, 0.75, 0.95, 1.0)
        for _ in range(250):
            preds, gts = tricky_image(rng)
            plans = {floor: metrics.match_plan(preds, gts, floor) for floor in (0.0, 0.5)}
            for t in thresholds:
                ref = astuple(scalar_match(preds, gts, t))
                assert astuple(match_detections(preds, gts, t)) == ref
                for floor, plan in plans.items():
                    if t >= floor:
                        assert astuple(match_detections(preds, gts, t, plan)) == ref

    def test_plan_refuses_a_low_threshold_and_other_boxes(self):
        preds = [BBox(0, 0, 4, 4, 0, score=0.9), BBox(1, 1, 5, 5, 0, score=0.5)]
        gts = [BBox(0, 0, 4, 4, 0)]
        plan = metrics.match_plan(preds, gts, 0.5)
        cases = [((preds, gts, 0.45), r"threshold 0\.45 is below the plan's floor 0\.5"),
                 ((preds[:1], gts, 0.5), r"plan has shape \(2, 1\), expected \(1, 1\)"),
                 ((preds, gts * 2, 0.5), r"plan has shape \(2, 1\), expected \(2, 2\)"),
                 ((preds, [], 0.5), r"plan has shape \(2, 1\), expected \(2, 0\)")]
        for args, message in cases:
            with pytest.raises(ValueError, match=message) as e:
                match_detections(*args, plan)
            assert "\n" not in str(e.value)
        assert match_detections(preds, gts, 0.5, plan).tp == [True, False]

    @staticmethod
    def _count_calls(monkeypatch, name):
        """evaluate()'s calls of the module global ``name``: C*I on a crowded
        scene, and still one per class and image when a class is on one side
        only of an image."""
        calls = []
        build = getattr(metrics, name)
        monkeypatch.setattr(metrics, name, lambda *a: calls.append(a) or build(*a))
        preds, gts = crowded_scene(0, n_images=4)
        classes, images = 3, 4
        evaluate(preds, gts, num_classes=classes)
        assert len(calls) == classes * images
        calls.clear()
        evaluate([preds[0], [p for p in preds[1] if p.class_id != 2]], gts[:2], num_classes=3)
        assert len(calls) == classes * 2

    def test_one_iou_matrix_per_class_and_image_per_sweep(self, monkeypatch):
        """One IoU matrix per class and image for all of evaluate(): AP50,
        AP75, the COCO sweep and the pooled P/R pass all read it."""
        self._count_calls(monkeypatch, "iou")

    def test_one_match_plan_per_class_and_image(self, monkeypatch):
        """One class plan (floor 0.5) per class and image for all of evaluate();
        the pooled P/R plans are assembled from them, not built."""
        self._count_calls(monkeypatch, "_class_plan")

    def test_pooled_plans_equal_match_plan(self, monkeypatch):
        """The P/R plans evaluate() assembles from the class plans are == to
        match_plan(preds, gts, 0.5) image by image, with and without
        num_classes, also where a class id is on one side only."""
        seen = []
        pooled = metrics.precision_recall
        monkeypatch.setattr(metrics, "precision_recall",
                            lambda p, g, t, plans: seen.append(plans) or pooled(p, g, t, plans))
        rng = np.random.default_rng(2024)
        images = [tricky_image(rng) for _ in range(250)]
        scenes = [tuple(zip(*images[k:k + 3])) for k in range(0, 250, 3)]
        # class 5 only among image 0's predictions and image 1's GTs, class 2 only among GTs
        scenes += [([[BBox(0, 0, 4, 4, 5, score=0.9), BBox(1, 1, 5, 5, 1, score=0.5)], []],
                    [[BBox(0, 0, 4, 4, 2), BBox(1, 1, 5, 6, 1), BBox(0, 0, 4, 4, 2)],
                     [BBox(0, 0, 4, 4, 5)]])]
        one_sided = 0
        for preds, gts in scenes:
            for num_classes in (None, 6):
                seen.clear()
                evaluate(list(preds), list(gts), num_classes)
                [plans] = seen
                assert len(plans) == len(preds)
                for p, g, plan in zip(preds, gts, plans):
                    assert plan == metrics.match_plan(p, g, 0.5)
                    one_sided += bool({b.class_id for b in p} ^ {b.class_id for b in g})
        assert one_sided > 50

    def test_evaluate_equals_scalar_matching(self, monkeypatch):
        rng = np.random.default_rng(7)
        scenes = []
        for _ in range(40):
            n = int(rng.integers(1, 4))
            images = [tricky_image(rng) for _ in range(n)]
            scenes.append(([p for p, _ in images], [g for _, g in images]))
        fast = [evaluate(p, g, num_classes=3) for p, g in scenes]
        monkeypatch.setattr(metrics, "match_detections", scalar_match)
        slow = [evaluate(p, g, num_classes=3) for p, g in scenes]
        assert fast == slow


def crowded_scene(seed, n_images=3, n_gt=60, n_pred=70, n_classes=3):
    """Clustered boxes in a 256-px canvas: most predictions are jittered
    copies of a ground truth, the rest clutter; a few GTs are difficult."""
    rng = np.random.default_rng(seed)
    preds_by_image, gts_by_image = [], []
    for _ in range(n_images):
        centres = rng.uniform(32, 224, size=(4, 2))
        xy = centres[rng.integers(0, 4, n_gt)] + rng.normal(0, 20, (n_gt, 2))
        wh = rng.uniform(4, 20, (n_gt, 2))
        cls = rng.integers(0, n_classes, n_gt)
        gts = [BBox(float(x), float(y), float(x + w), float(y + h), int(c),
                    difficult=bool(rng.random() < 0.05))
               for (x, y), (w, h), c in zip(xy, wh, cls)]
        preds = []
        for _ in range(n_pred):
            if rng.random() < 0.6:
                j = int(rng.integers(n_gt))
                x, y = xy[j] + rng.normal(0, 0.1, 2) * wh[j]
                w, h = wh[j] * rng.uniform(0.8, 1.2, 2)
                c = int(cls[j])
            else:
                x, y = centres[rng.integers(0, 4)] + rng.normal(0, 30, 2)
                w, h = rng.uniform(4, 20, 2)
                c = int(rng.integers(n_classes))
            preds.append(BBox(float(x), float(y), float(x + w), float(y + h), c,
                              score=float(rng.uniform())))
        preds_by_image.append(preds)
        gts_by_image.append(gts)
    return preds_by_image, gts_by_image


class TestEvaluatePinned:
    def test_crowded_scene_fields_pinned(self):
        preds, gts = crowded_scene(3)
        res = evaluate(preds, gts, num_classes=3)
        # the values of the scalar-loop evaluator this one replaced
        assert [v.hex() for v in (res.ap50, res.ap75, res.ap, res.recall, res.precision)] == [
            "0x1.f6dccb5e29e60p-3", "0x1.0c590f3cd9b6dp-5", "0x1.7b993b2033953p-4",
            "0x1.d986a8b1927f4p-2", "0x1.8dab7ec1dd343p-2"]
        assert res.evaluated_classes == 3

    # ap50, ap75, ap, recall, precision of the per-threshold evaluator that the
    # per-class sweep replaced; every class is in the ground truth, so the
    # results without num_classes are the same
    SEED_PINS = {
        0: ["0x1.09c34a2eafd2cp-2", "0x1.1a3b409f9529bp-5", "0x1.7992e86bd7afap-4",
            "0x1.02fa0be82fa0cp-1", "0x1.ae6076b981daep-2"],
        1: ["0x1.f9a3db53c10c1p-3", "0x1.280243abe93acp-5", "0x1.6e61505cce7ffp-4",
            "0x1.deacafb74a399p-2", "0x1.8a9d58a9d58aap-2"],
        2: ["0x1.174d65135dc15p-2", "0x1.c6884913c3cd8p-5", "0x1.ba689390b03bbp-4",
            "0x1.0000000000000p-1", "0x1.b13b13b13b13bp-2"],
    }

    @pytest.mark.parametrize("num_classes", [3, None])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_crowded_scene_seeds_pinned(self, seed, num_classes):
        res = evaluate(*crowded_scene(seed), num_classes=num_classes)
        assert [v.hex() for v in (res.ap50, res.ap75, res.ap, res.recall, res.precision)] \
            == self.SEED_PINS[seed]
        assert res.evaluated_classes == 3

    def test_per_class_ap_pinned(self):
        preds, gts = crowded_scene(3)
        pins = {0.5: ["0x1.965e5233e82b0p-3", "0x1.c29a900f675cfp-3", "0x1.45cebfeb9714fp-2"],
                0.75: ["0x1.47ca61b3947cap-6", "0x1.ee9c7f8458e02p-6", "0x1.89d7bd1a96762p-5"]}
        for t, expect in pins.items():
            _, per_class = average_precision(preds, gts, t, num_classes=3)
            assert {c: v.hex() for c, v in per_class.items()} == dict(enumerate(expect))

    def test_pr_curve_pinned(self):
        preds, gts = crowded_scene(3)
        # (class, threshold): n_gt, points, sha-256 prefix of the points' hex
        pins = {(0, 0.5): (65, 81, "f0cf7063e0cdee19"), (0, 0.95): (65, 83, "a1ddeebba9a42e5f"),
                (1, 0.5): (40, 53, "bfd35c5f49d18219"), (1, 0.95): (40, 54, "cd3e9aca90cac1d1"),
                (2, 0.5): (68, 72, "63553c4f9042760f"), (2, 0.95): (68, 73, "b0ed78b73cc0d8f7")}
        for (cid, t), (n_gt, points, digest) in pins.items():
            recalls, precisions, n = pr_curve(preds, gts, cid, t)
            assert all(type(v) is float for v in recalls + precisions)
            text = " ".join(v.hex() for v in recalls + precisions).encode()
            assert (n, len(recalls), len(precisions)) == (n_gt, points, points)
            assert hashlib.sha256(text).hexdigest()[:16] == digest


class TestMeanBoxArea:
    def test_weighted_fixture(self):
        # {900, 1036} px^2 -> mean 968, side 31.11...
        boxes = [BBox(0, 0, 30, 30), BBox(0, 0, 28, 37)]
        mean, side = mean_box_area(boxes)
        assert mean == 968.0
        assert side == pytest.approx(31.1, abs=0.02)

    def test_single_square(self):
        mean, side = mean_box_area([BBox(0, 0, 32, 32)])
        assert (mean, side) == (1024.0, 32.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            mean_box_area([])
