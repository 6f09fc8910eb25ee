"""Augmentation transform and package tests."""

import numpy as np
import pytest

from moonnet.augment import (
    AnnotationError,
    AugmentPackage,
    BBox,
    LabeledImage,
    apply_package,
    hflip,
    jitter_boxes,
    load_annotations,
    photometric,
    rotate90,
    save_annotations,
    vflip,
)
from moonnet.tensor import Tensor4


def make_image(h=10, w=10, seed=0, boxes=None):
    img = np.random.default_rng(seed).uniform(0, 1, (1, 3, h, w)).astype(np.float32)
    return LabeledImage(Tensor4(img), boxes or [])


class TestBBox:
    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            BBox(4, 2, 4, 5)

    @pytest.mark.parametrize("coords", [(0, 0, np.inf, 5), (-np.inf, 0, 1, 1),
                                        (0, -np.inf, 1, np.inf), (0, np.nan, 1, 1)])
    def test_rejects_non_finite(self, coords):
        with pytest.raises(ValueError, match="non-finite box"):
            BBox(*coords)

    def test_rejects_bad_score(self):
        with pytest.raises(ValueError):
            BBox(0, 0, 1, 1, score=1.5)

    def test_area(self):
        assert BBox(1, 2, 4, 6).area == 12


class TestFlips:
    def test_hflip_box_fixture(self):
        li = make_image(10, 10, boxes=[BBox(1, 2, 4, 5)])
        out = hflip(li)
        b = out.boxes[0]
        assert (b.x1, b.y1, b.x2, b.y2) == (6, 2, 9, 5)

    def test_hflip_involution(self):
        li = make_image(8, 12, boxes=[BBox(2, 1, 5, 6), BBox(0, 0, 3, 3)])
        out = hflip(hflip(li))
        assert np.array_equal(out.image.values, li.image.values)
        for a, b in zip(out.boxes, li.boxes):
            assert (a.x1, a.y1, a.x2, a.y2) == (b.x1, b.y1, b.x2, b.y2)

    def test_vflip_involution(self):
        li = make_image(8, 12, boxes=[BBox(2, 1, 5, 6)])
        out = vflip(vflip(li))
        assert np.array_equal(out.image.values, li.image.values)
        a, b = out.boxes[0], li.boxes[0]
        assert (a.x1, a.y1, a.x2, a.y2) == (b.x1, b.y1, b.x2, b.y2)

    def test_flip_moves_marked_pixel_with_box(self):
        img = np.zeros((1, 3, 6, 6), dtype=np.float32)
        img[0, :, 2, 1] = 1.0
        li = LabeledImage(Tensor4(img), [BBox(1, 2, 2, 3)])
        for op in (hflip, vflip):
            out = op(li)
            b = out.boxes[0]
            ys, xs = np.nonzero(out.image.values[0, 0])
            assert b.x1 <= xs[0] < b.x2
            assert b.y1 <= ys[0] < b.y2

    def test_outputs_in_bounds(self):
        rng = np.random.default_rng(6)
        for trial in range(10):
            boxes = []
            for _ in range(3):
                xs = np.sort(rng.uniform(0, 11, 2))
                ys = np.sort(rng.uniform(0, 21, 2))
                boxes.append(BBox(xs[0], ys[0], xs[1] + 0.5, ys[1] + 0.5))
            li = make_image(22, 12, seed=trial, boxes=boxes)
            for op in (hflip, vflip):
                out = op(li)
                for b in out.boxes:
                    assert 0 <= b.x1 < b.x2 <= out.width
                    assert 0 <= b.y1 < b.y2 <= out.height


class TestRotate90:
    def test_zero_turns_is_identity(self):
        li = make_image(6, 6, boxes=[BBox(1, 2, 3, 4)])
        out = rotate90(li, 0)
        assert np.array_equal(out.image.values, li.image.values)
        assert (out.boxes[0].x1, out.boxes[0].y2) == (1, 4)

    def test_four_turns_is_identity(self):
        li = make_image(6, 8, boxes=[BBox(1, 2, 3, 4)])
        out = li
        for _ in range(4):
            out = rotate90(out, 1)
        assert np.array_equal(out.image.values, li.image.values)
        a, b = out.boxes[0], li.boxes[0]
        assert (a.x1, a.y1, a.x2, a.y2) == (b.x1, b.y1, b.x2, b.y2)

    def test_marked_pixel_stays_in_box(self):
        img = np.zeros((1, 3, 8, 8), dtype=np.float32)
        img[0, :, 5, 2] = 1.0
        li = LabeledImage(Tensor4(img), [BBox(2, 5, 3, 6)])
        for q in (1, 2, 3):
            out = rotate90(li, q)
            ys, xs = np.nonzero(out.image.values[0, 0])
            b = out.boxes[0]
            assert b.x1 <= xs[0] < b.x2, f"q={q}"
            assert b.y1 <= ys[0] < b.y2, f"q={q}"

    def test_area_preserved_on_square_image(self):
        li = make_image(8, 8, boxes=[BBox(1, 2, 4, 7)])
        for q in range(4):
            out = rotate90(li, q)
            assert out.boxes[0].area == li.boxes[0].area

    def test_bad_turns(self):
        with pytest.raises(ValueError):
            rotate90(make_image(), 4)


class TestPhotometric:
    def test_neutral_parameters_identity(self):
        li = make_image(6, 6, boxes=[BBox(1, 1, 3, 3)])
        out = photometric(li, brightness=0.0, contrast=1.0, noise_sigma=0.0)
        # contrast is applied about 0.5, so neutral parameters round-trip
        # through one subtract/add pair; exact to float32 rounding only
        assert np.allclose(out.image.values, li.image.values, atol=1e-6)

    def test_boxes_never_move(self):
        li = make_image(6, 6, boxes=[BBox(1, 1, 3, 3, class_id=2)])
        out = photometric(li, 0.3, 1.4, 0.2, rng=np.random.default_rng(3))
        b = out.boxes[0]
        assert (b.x1, b.y1, b.x2, b.y2, b.class_id) == (1, 1, 3, 3, 2)

    def test_seeded_noise_replayable(self):
        li = make_image(6, 6)
        a = photometric(li, 0.1, 1.1, 0.1, rng=np.random.default_rng(7))
        b = photometric(li, 0.1, 1.1, 0.1, rng=np.random.default_rng(7))
        assert np.array_equal(a.image.values, b.image.values)

    def test_output_clamped(self):
        li = make_image(6, 6)
        out = photometric(li, 0.9, 2.0, 0.5, rng=np.random.default_rng(1))
        assert out.image.values.min() >= 0.0
        assert out.image.values.max() <= 1.0

    def test_rejects_nonpositive_contrast(self):
        with pytest.raises(ValueError):
            photometric(make_image(), contrast=0.0)


class TestJitter:
    def test_never_degenerate(self):
        rng = np.random.default_rng(5)
        li = make_image(20, 20, boxes=[BBox(0.2, 0.1, 1.0, 0.9), BBox(5, 5, 15, 15)])
        for seed in range(20):
            out = jitter_boxes(li, 0.05, np.random.default_rng(seed))
            for b in out.boxes:
                assert b.x1 < b.x2 and b.y1 < b.y2
                assert 0 <= b.x1 and b.x2 <= 20


class TestPackages:
    def test_ver1_is_identity_for_any_seed(self):
        li = make_image(12, 12, boxes=[BBox(2, 2, 5, 5)])
        for seed in (0, 1, 99):
            out = apply_package(AugmentPackage.VER1, li, seed)
            assert out is li

    def test_ver2_preserves_box_count(self):
        li = make_image(12, 12, boxes=[BBox(2, 2, 5, 5), BBox(7, 1, 9, 4)])
        for seed in range(10):
            out = apply_package(AugmentPackage.VER2, li, seed)
            assert len(out.boxes) == 2

    def test_ver3_byte_reproducible(self):
        li = make_image(12, 12, boxes=[BBox(2, 2, 5, 5)])
        a = apply_package(AugmentPackage.VER3, li, 123)
        b = apply_package(AugmentPackage.VER3, li, 123)
        assert a.image.values.tobytes() == b.image.values.tobytes()
        assert [(x.x1, x.y1, x.x2, x.y2) for x in a.boxes] == \
               [(x.x1, x.y1, x.x2, x.y2) for x in b.boxes]

    def test_packages_differ_by_seed(self):
        li = make_image(12, 12, boxes=[BBox(2, 2, 5, 5)])
        a = apply_package(AugmentPackage.VER3, li, 1)
        b = apply_package(AugmentPackage.VER3, li, 2)
        assert not np.array_equal(a.image.values, b.image.values)


class TestAnnotationIO:
    def test_simple_format_round_trip(self, tmp_path):
        boxes = [BBox(1, 2, 3, 4, 0), BBox(0.5, 0.5, 9.5, 8, 2, score=0.75)]
        p = tmp_path / "img1.txt"
        save_annotations(p, boxes)
        back = load_annotations(p)
        for a, b in zip(back, boxes):
            assert (a.x1, a.y1, a.x2, a.y2, a.class_id, a.score) == \
                   (b.x1, b.y1, b.x2, b.y2, b.class_id, b.score)

    def test_seeded_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(12)
        boxes = [BBox(63.9999991, 1, 63.9999999, 2)]
        for _ in range(200):
            x1, y1 = rng.uniform(0, 512, 2)
            w, h = rng.uniform(1e-6, 40, 2)
            score = float(rng.uniform()) if rng.random() < 0.5 else None
            boxes.append(BBox(x1, y1, x1 + w, y1 + h, int(rng.integers(5)), score=score))
        p = tmp_path / "seeded.txt"
        save_annotations(p, boxes)
        assert load_annotations(p) == boxes

    def test_difficult_box_is_refused_not_saved_as_ordinary(self, tmp_path):
        # the simple format has no difficult column: a save used to drop the
        # flag, and evaluate() would then score the box as ordinary ground truth
        p = tmp_path / "hard.txt"
        with pytest.raises(AnnotationError, match=r"box 1 .*difficult"):
            save_annotations(p, [BBox(1, 1, 4, 4, 0), BBox(0, 0, 5, 5, 1, difficult=True)])
        assert not p.exists()

    def test_dota_polygon_to_enclosing_box(self, tmp_path):
        p = tmp_path / "dota.txt"
        p.write_text("10 10 30 12 28 40 9 38 small-vehicle 0\n"
                     "50 50 60 50 60 60 50 60 ship 1\n")
        ids = {}
        boxes = load_annotations(p, ids)
        assert ids == {"small-vehicle": 0, "ship": 1}
        b = boxes[0]
        assert (b.x1, b.y1, b.x2, b.y2) == (9, 10, 30, 40)
        assert not b.difficult
        assert boxes[1].difficult

    def test_blank_lines_and_comments_skipped(self, tmp_path):
        p = tmp_path / "a.txt"
        p.write_text("# header\n\n1 2 3 4 0\n")
        assert len(load_annotations(p)) == 1

    def test_malformed_line_raises(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("1 2 3\n")
        with pytest.raises(AnnotationError):
            load_annotations(p)

    @pytest.mark.parametrize("line", ["5 2 5 4 0",            # degenerate box
                                      "1 nan 3 4 0",          # NaN coordinate
                                      "0 0 inf 5 0",          # infinite coordinate
                                      "1 2 3 4 0 1.5",        # score outside [0, 1]
                                      "20 20 30 30 -1",       # negative class id
                                      "0 0 10 0 10 10 0 10 plane 2",    # difficulty not 0/1
                                      "0 0 10 0 10 10 0 10 plane -1"])
    def test_bad_box_is_annotation_error_naming_line(self, tmp_path, line):
        p = tmp_path / "bad.txt"
        p.write_text("1 2 3 4 0\n" + line + "\n")
        with pytest.raises(AnnotationError, match=r"bad\.txt:2: "):
            load_annotations(p)

    def test_fuzzed_file_loads_or_raises_annotation_error(self, tmp_path):
        """Seeded fuzz: overwrite one to three bytes of a valid file in both
        formats, with number-like or arbitrary bytes, or truncate it."""
        valid = (b"0 0 10 10 0\n1.5 2 8 9 3 0.25\n"
                 b"0 0 10 0 10 10 0 10 plane 1\n20 20 30 20 30 30 20 30 ship 0\n")
        alphabet = list(b"0123456789 -.e\n\tinfa#\xff")
        rng = np.random.default_rng(0)
        p = tmp_path / "a.txt"
        for case in range(1000):
            data = bytearray(valid)
            if case % 3 == 0:
                data = data[:rng.integers(len(data))]
            else:
                for i in rng.integers(len(data), size=rng.integers(1, 4)):
                    data[i] = int(rng.choice(alphabet) if case % 3 == 1 else rng.integers(256))
            p.write_bytes(bytes(data))
            try:
                load_annotations(p)
            except AnnotationError:
                pass
