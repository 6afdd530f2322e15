import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobilabel.errors import DimensionMismatch, InstanceInPadding
from mobilabel.initlabel import InstanceLabel, LabelSet
from mobilabel.maskcore import BBox, PreparedMask, box_iou, iou, rle_encode
from mobilabel.rescale import (
    invert_labels,
    make_transform,
    transform_labels,
    transform_raster,
)


def rect_label(frame_h, frame_w, y, x, h, w, score=1.0, iid=0):
    m = np.zeros((frame_h, frame_w), dtype=bool)
    m[y:y + h, x:x + w] = True
    return InstanceLabel.from_mask(m, score, iid)


# -- make_transform ------------------------------------------------------

def test_make_transform_quarter():
    t = make_transform(800, 1200, 0.25)
    assert (t.content_height, t.content_width) == (200, 300)
    assert (t.pad_bottom, t.pad_right) == (600, 900)


def test_make_transform_identity():
    t = make_transform(800, 1200, 1.0)
    assert (t.pad_bottom, t.pad_right) == (0, 0)
    assert (t.content_height, t.content_width) == (800, 1200)


def test_make_transform_round_half_down():
    t = make_transform(101, 101, 0.25)  # 25.25 rounds to 25
    assert (t.content_height, t.content_width) == (25, 25)
    assert make_transform(10, 10, 0.25).content_height == 2  # 2.5 rounds down


def test_make_transform_rejects_bad_scale():
    with pytest.raises(ValueError):
        make_transform(10, 10, 0.0)
    with pytest.raises(ValueError):
        make_transform(10, 10, 1.5)
    with pytest.raises(ValueError):
        make_transform(8, 8, 5e-324)  # 1 / scale overflows


@given(st.integers(1, 300), st.integers(1, 300), st.floats(0.05, 1.0))
def test_make_transform_pads_restore_size(h, w, s):
    t = make_transform(h, w, s)
    assert t.content_height + t.pad_bottom == h
    assert t.content_width + t.pad_right == w
    assert t.pad_bottom >= 0 and t.pad_right >= 0
    assert t.content_height >= 1 and t.content_width >= 1


# -- transform_raster ----------------------------------------------------

def test_raster_identity_scale():
    r = np.arange(12.0).reshape(3, 4)
    t = make_transform(3, 4, 1.0)
    assert np.array_equal(transform_raster(r, t), r)


def test_raster_constant_fill():
    r = np.full((8, 8), 7.0)
    t = make_transform(8, 8, 0.5)
    out = transform_raster(r, t, pad_value=-1.0)
    assert (out[:4, :4] == 7.0).all()
    assert (out[4:, :] == -1.0).all() and (out[:, 4:] == -1.0).all()


def test_raster_checkerboard_sampling():
    r = np.indices((4, 4)).sum(axis=0) % 2  # checkerboard, 0 at (0,0)
    t = make_transform(4, 4, 0.5)
    out = transform_raster(r.astype(float), t)
    # nearest neighbor picks source pixels (0,0),(0,2),(2,0),(2,2): all zeros
    assert (out[:2, :2] == 0.0).all()


def test_raster_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        transform_raster(np.zeros((4, 4)), make_transform(8, 8, 0.5))


@given(st.integers(2, 64), st.integers(2, 64), st.floats(0.1, 1.0))
@settings(max_examples=60)
def test_raster_keeps_original_shape(h, w, s):
    r = np.zeros((h, w))
    out = transform_raster(r, make_transform(h, w, s))
    assert out.shape == (h, w)


# -- transform_labels ----------------------------------------------------

def test_labels_box_scaling():
    inst = rect_label(200, 300, 80, 40, 100, 200)
    assert inst.box == BBox(40, 80, 200, 100)
    t = make_transform(200, 300, 0.25)
    out = transform_labels(LabelSet("f", 200, 300, [inst]), t)
    assert out.instances[0].box == BBox(10, 20, 50, 25)


def test_labels_identity_scale():
    inst = rect_label(40, 40, 3, 7, 11, 13, score=0.5)
    ls = LabelSet("f", 40, 40, [inst])
    out = transform_labels(ls, make_transform(40, 40, 1.0))
    assert out.instances == ls.instances
    assert (out.height, out.width, out.frame_id) == (40, 40, "f")


def test_labels_vanished_instance_dropped():
    m = np.zeros((20, 20), dtype=bool)
    m[5, 5] = True  # never hit by src=4*dst sampling
    inst = InstanceLabel.from_mask(m, 1.0, 0)
    out = transform_labels(LabelSet("f", 20, 20, [inst]), make_transform(20, 20, 0.25))
    assert out.instances == []


def test_labels_dimension_mismatch():
    inst = rect_label(20, 20, 2, 2, 4, 4)
    with pytest.raises(DimensionMismatch):
        transform_labels(LabelSet("f", 20, 20, [inst]), make_transform(40, 40, 0.5))


def test_labels_area_ratio_convex_blobs():
    rng = np.random.default_rng(11)
    t = make_transform(160, 240, 0.25)
    for _ in range(50):
        h = int(rng.integers(20, 70))
        w = int(rng.integers(20, 70))
        y = int(rng.integers(0, 160 - h))
        x = int(rng.integers(0, 240 - w))
        inst = rect_label(160, 240, y, x, h, w)
        out = transform_labels(LabelSet("f", 160, 240, [inst]), t)
        ratio = out.instances[0].area / (0.25 ** 2 * h * w)
        assert 0.8 <= ratio <= 1.2


# -- invert_labels -------------------------------------------------------

def test_invert_identity_scale():
    inst = rect_label(30, 30, 2, 3, 10, 12)
    ls = LabelSet("f", 30, 30, [inst])
    out = invert_labels(ls, make_transform(30, 30, 1.0))
    assert out.instances == ls.instances


def test_invert_rejects_instance_in_padding():
    t = make_transform(40, 40, 0.5)  # content 20x20
    inst = rect_label(40, 40, 25, 25, 8, 8)  # entirely in pad region
    with pytest.raises(InstanceInPadding):
        invert_labels(LabelSet("f", 40, 40, [inst]), t)


def invert_whole_box(inst, t, shape):
    """Reference: resize the mask into its whole inverted box, then keep the
    part inside the frame; None when the box misses the frame."""
    fg = PreparedMask(inst.mask)
    inv = 1.0 / t.scale
    y, x, h, w = inst.box.y * inv, inst.box.x * inv, inst.box.h * inv, inst.box.w * inv
    r0, c0 = int(round(y)), int(round(x))
    nrows, ncols = max(1, int(round(h))), max(1, int(round(w)))
    in_h, in_w = fg.bits.shape
    r = np.minimum(((np.arange(nrows) + 0.5) * in_h / nrows).astype(np.int64), in_h - 1)
    c = np.minimum(((np.arange(ncols) + 0.5) * in_w / ncols).astype(np.int64), in_w - 1)
    resized = fg.bits[np.ix_(r, c)]
    rr0, cc0 = max(r0, 0), max(c0, 0)
    rr1, cc1 = min(r0 + nrows, shape[0]), min(c0 + ncols, shape[1])
    if rr1 <= rr0 or cc1 <= cc0:
        return None
    out = np.zeros(shape, dtype=bool)
    out[rr0:rr1, cc0:cc1] = resized[rr0 - r0: rr1 - r0, cc0 - c0: cc1 - c0]
    return out


def test_invert_matches_whole_box_resize():
    # boxes up to 3x the frame, overhanging on every side, with half-pixel ties
    rng = np.random.default_rng(21)
    H, W = 24, 40
    for i in range(400):
        scale = float(rng.choice([0.25, 0.5, 0.3, 0.75]))
        t = make_transform(H, W, scale)
        ch, cw = t.content_height, t.content_width
        bh, bw = int(rng.integers(1, ch + 1)), int(rng.integers(1, cw + 1))
        r, c = int(rng.integers(0, ch - bh + 1)), int(rng.integers(0, cw - bw + 1))
        m = np.zeros((H, W), dtype=bool)
        m[r:r + bh, c:c + bw] = rng.random((bh, bw)) < 0.6
        if not m.any():
            continue
        y, x = (rng.uniform(-1, 1, 2) * (H * scale, W * scale) * 8).round() / 8
        h, w = (rng.uniform(0, rng.choice([1, 3]), 2) * (H * scale, W * scale) * 8).round() / 8
        inst = InstanceLabel(mask=rle_encode(m), box=BBox(x, y, w, h), score=0.5, instance_id=i)
        got = invert_labels(LabelSet("f", H, W, [inst]), t).instances
        ref = invert_whole_box(inst, t, (H, W))
        if ref is None or not ref.any():
            assert got == []
        else:
            (g,) = got
            assert np.array_equal(PreparedMask(g.mask).frame(), ref)
            assert g.box == BBox(x * (1.0 / scale), y * (1.0 / scale), w * (1.0 / scale), h * (1.0 / scale))


def corner_pixel(box):
    """One foreground pixel at the top-left of an 8x8 frame, with a given box."""
    m = np.zeros((8, 8), dtype=bool)
    m[0, 0] = True
    return InstanceLabel(mask=rle_encode(m), box=box, score=1.0, instance_id=0)


@pytest.mark.parametrize("side", [2000, 10**7])
def test_invert_memory_is_bounded_by_the_frame(side):
    t = make_transform(8, 8, 0.25)
    inst = corner_pixel(BBox(0, 0, side * 0.25, side * 0.25))
    tracemalloc.start()
    try:
        (back,) = invert_labels(LabelSet("f", 8, 8, [inst]), t).instances
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, f"{peak / 1e6:.1f} MB"
    assert PreparedMask(back.mask).area == 64  # the whole frame, sampled from one pixel


def test_invert_box_beyond_float_range():
    t = make_transform(8, 8, 0.25)
    # a far edge at infinity is clipped to the frame like any overhang
    tall = LabelSet("f", 8, 8, [corner_pixel(BBox(0, 0, 1, 1e308))])
    (back,) = invert_labels(tall, t).instances
    assert PreparedMask(back.mask).box == BBox(0, 0, 4, 8)
    # a near edge at infinity misses the frame
    far = LabelSet("f", 8, 8, [corner_pixel(BBox(1e308, 0, 1, 1))])
    assert invert_labels(far, t).instances == []


def test_round_trip_rectangles_exact():
    rng = np.random.default_rng(3)
    H, W = 200, 320
    t = make_transform(H, W, 0.25)
    for i in range(60):
        h = int(rng.integers(20, 61))
        w = int(rng.integers(20, 61))
        y = int(rng.integers(0, H - h))
        x = int(rng.integers(0, W - w))
        m = np.zeros((H, W), dtype=bool)
        m[y:y + h, x:x + w] = True
        ls = LabelSet("f", H, W, [InstanceLabel.from_mask(m, 0.9, i)])
        back = invert_labels(transform_labels(ls, t), t)
        (bi,) = back.instances
        assert bi.box == BBox(x, y, w, h)
        assert iou(PreparedMask(bi.mask), PreparedMask(rle_encode(m))) == 1.0
        assert bi.score == 0.9 and bi.instance_id == i


def test_round_trip_ellipses_documented_bound():
    # curved boundaries lose detail under 4x quantization; the box-anchored
    # paste keeps them above 0.78 IoU at >= 20 px minor axis (rectangles
    # round-trip exactly, see above)
    rng = np.random.default_rng(5)
    H, W = 200, 320
    t = make_transform(H, W, 0.25)
    yy, xx = np.mgrid[0:H, 0:W]
    for _ in range(40):
        a = float(rng.uniform(10, 28))
        b = float(rng.uniform(10, 28))
        cy = float(rng.uniform(a + 1, H - a - 1))
        cx = float(rng.uniform(b + 1, W - b - 1))
        m = ((yy - cy) / a) ** 2 + ((xx - cx) / b) ** 2 <= 1.0
        ls = LabelSet("f", H, W, [InstanceLabel.from_mask(m, 1.0, 0)])
        back = invert_labels(transform_labels(ls, t), t)
        assert iou(PreparedMask(back.instances[0].mask), PreparedMask(rle_encode(m))) >= 0.78


def test_box_iou_scale_invariant_at_quarter():
    rng = np.random.default_rng(9)
    for _ in range(100):
        a = BBox(*rng.uniform(0, 100, 2), *rng.uniform(1, 60, 2))
        b = BBox(*rng.uniform(0, 100, 2), *rng.uniform(1, 60, 2))
        sa = BBox(a.x * 0.25, a.y * 0.25, a.w * 0.25, a.h * 0.25)
        sb = BBox(b.x * 0.25, b.y * 0.25, b.w * 0.25, b.h * 0.25)
        assert box_iou(sa, sb) == box_iou(a, b)  # exact: power-of-two scale

