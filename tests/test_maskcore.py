import json
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mobilabel import aggregate, maskcore
from mobilabel.aggregate import AggParams, mask_agg, nms
from mobilabel.errors import DimensionMismatch, EmptyMask, EmptyTarget, RleSumMismatch
from mobilabel.initlabel import DbscanParams, InstanceLabel, LabelSet, dbscan_partition
from mobilabel.io import read_labels
from mobilabel.maskcore import (
    BBox,
    PreparedMask,
    Rle,
    box_iou,
    coverage,
    decode,
    intersection,
    iou,
    ious,
    overlaps,
    rle_decode,
    rle_encode,
)
from mobilabel.metrics import EvalConfig, evaluate
from mobilabel.rounds import gt_overlap_filter

from oracles import components_ref, coverage_ref, iou_ref, prepared_ref, rle_counts_ref, rle_expand_ref

masks = arrays(bool, st.tuples(st.integers(1, 12), st.integers(1, 12)))


def prepared(m):
    return PreparedMask.from_bits(m, 0, 0, m.shape)


def mask_from_pixels(h, w, pixels):
    m = np.zeros((h, w), dtype=bool)
    for r, c in pixels:
        m[r, c] = True
    return m


# -- RLE ---------------------------------------------------------------

def test_rle_all_zero():
    assert rle_encode(np.zeros((2, 2), dtype=bool)).counts == (4,)


def test_rle_single_pixel_column_major():
    m = mask_from_pixels(2, 2, [(0, 0)])
    assert rle_encode(m).counts == (0, 1, 3)


def test_rle_decode_examples():
    assert not rle_decode(Rle(2, 2, (4,))).any()
    assert rle_decode(Rle(2, 2, (0, 4))).all()


def test_rle_decode_sum_mismatch():
    with pytest.raises(RleSumMismatch):
        rle_decode(Rle(2, 2, (3,)))


def test_rle_round_trip_random_64():
    rng = np.random.default_rng(7)
    m = rng.random((64, 64)) < 0.3
    assert np.array_equal(rle_decode(rle_encode(m)), m)


@given(masks)
def test_rle_round_trip(m):
    rle = rle_encode(m)
    assert sum(rle.counts) == m.size
    assert np.array_equal(rle_decode(rle), m)


@given(masks)
def test_rle_counts_match_reference(m):
    assert list(rle_encode(m).counts) == rle_counts_ref(m)


# -- prepared masks: IoU / coverage ------------------------------------

def prep(m):
    return PreparedMask(rle_encode(m))


def paste(p):
    full = np.zeros(p.shape, dtype=bool)
    full[p.row: p.row + p.bits.shape[0], p.col: p.col + p.bits.shape[1]] = p.bits
    return full


def test_mask_iou_identical():
    m = mask_from_pixels(4, 4, [(1, 1), (2, 2)])
    assert iou(prep(m), prep(m)) == 1.0


def test_mask_iou_disjoint():
    a = mask_from_pixels(4, 4, [(0, 0)])
    b = mask_from_pixels(4, 4, [(3, 3)])
    assert iou(prep(a), prep(b)) == 0.0


def test_mask_iou_one_third():
    a = mask_from_pixels(3, 1, [(0, 0), (1, 0)])
    b = mask_from_pixels(3, 1, [(1, 0), (2, 0)])
    assert iou(prep(a), prep(b)) == pytest.approx(1 / 3)


def test_mask_iou_both_empty():
    z = np.zeros((3, 3), dtype=bool)
    assert iou(prep(z), prep(z)) == 0.0


def test_mask_iou_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        iou(prep(np.ones((2, 3), dtype=bool)), prep(np.ones((3, 2), dtype=bool)))


@given(masks.flatmap(lambda a: st.tuples(st.just(a), arrays(bool, a.shape))))
def test_mask_iou_matches_reference_and_symmetric(pair):
    a, b = pair
    assert iou(prep(a), prep(b)) == pytest.approx(iou_ref(a, b))
    assert iou(prep(a), prep(b)) == iou(prep(b), prep(a))


def test_box_iou_examples():
    assert box_iou(BBox(0, 0, 2, 2), BBox(0, 0, 2, 2)) == 1.0
    assert box_iou(BBox(0, 0, 2, 2), BBox(5, 5, 2, 2)) == 0.0
    assert box_iou(BBox(0, 0, 2, 2), BBox(1, 0, 2, 2)) == pytest.approx(1 / 3)


def test_coverage_full_and_empty_refs():
    targ = mask_from_pixels(5, 5, [(2, 2), (2, 3)])
    ref = mask_from_pixels(5, 5, [(2, 2), (2, 3), (2, 4)])
    assert coverage([prep(ref)], prep(targ)) == 1.0
    assert coverage([], prep(targ)) == 0.0


def test_coverage_seven_of_ten():
    targ = np.zeros((5, 5), dtype=bool)
    targ[0, :] = True
    targ[1, :] = True  # 10 px
    r1 = np.zeros((5, 5), dtype=bool)
    r1[0, 0:4] = True
    r2 = np.zeros((5, 5), dtype=bool)
    r2[1, 0:3] = True
    r2[4, :] = True  # outside targ, must not count
    assert coverage([prep(r1), prep(r2)], prep(targ)) == pytest.approx(0.7)


def test_coverage_empty_target():
    with pytest.raises(EmptyTarget):
        coverage([prep(np.ones((2, 2), dtype=bool))], prep(np.zeros((2, 2), dtype=bool)))


@given(masks.flatmap(lambda a: st.tuples(st.just(a), arrays(bool, a.shape), arrays(bool, a.shape))))
def test_coverage_matches_reference_and_monotone(trip):
    targ, r1, r2 = trip
    if not targ.any():
        return
    c1 = coverage([prep(r1)], prep(targ))
    c2 = coverage([prep(r1), prep(r2)], prep(targ))
    assert c1 == pytest.approx(coverage_ref([r1], targ))
    assert c2 == pytest.approx(coverage_ref([r1, r2], targ))
    assert c2 >= c1
    assert coverage([prep(targ)], prep(targ)) == 1.0


def test_prepared_mask_rejects_bad_counts():
    with pytest.raises(RleSumMismatch):
        PreparedMask(Rle(2, 2, (3,)))


def test_rle_refuses_a_negative_run_that_still_sums_to_the_frame():
    with pytest.raises(RleSumMismatch, match="least run -1"):
        Rle(2, 2, (3, -1, 2))
    rle = Rle(2, 2, np.array([1, 3]))  # any int-like counts become a tuple of ints
    assert rle.counts == (1, 3) and all(type(c) is int for c in rle.counts)


def _edge_masks(h, w):
    """Empty, single pixel, full frame, last row/column, a column-wrapping run."""
    single = np.zeros((h, w), dtype=bool)
    single[h // 2, w // 2] = True
    last_row = np.zeros((h, w), dtype=bool)
    last_row[-1, :] = True
    last_col = np.zeros((h, w), dtype=bool)
    last_col[:, -1] = True
    scan = np.zeros(h * w, dtype=bool)  # column-major pixel scan
    scan[h - 1: 2 * h + 1] = True  # one run from the bottom of column 0 into column 2
    wrap = scan.reshape(w, h).T
    return [np.zeros((h, w), dtype=bool), single, np.ones((h, w), dtype=bool),
            last_row, last_col, wrap]


small_frames = st.tuples(st.integers(1, 24), st.integers(1, 24))
kernel_cases = small_frames.flatmap(lambda hw: st.tuples(
    st.one_of(arrays(bool, hw), st.sampled_from(_edge_masks(*hw))),
    st.one_of(arrays(bool, hw), st.sampled_from(_edge_masks(*hw))),
    st.lists(st.one_of(arrays(bool, hw), st.sampled_from(_edge_masks(*hw))), max_size=3)))


@given(kernel_cases)
@settings(max_examples=200)
def test_kernel_matches_pixel_oracles(case):
    a, b, refs = case
    pa, pb = prep(a), prep(b)
    for m, p in ((a, pa), (b, pb)):
        assert np.array_equal(paste(p), m)
        assert p.area == int(m.sum())
        if p.area:
            rows, cols = np.nonzero(m)  # the bitmap is the tight box
            assert (p.row, p.col) == (rows.min(), cols.min())
            assert p.bits.shape == (rows.max() - p.row + 1, cols.max() - p.col + 1)
    assert intersection(pa, pb) == int((a & b).sum())
    assert iou(pa, pb) == iou_ref(a, b)
    if b.any():
        assert coverage([prep(r) for r in refs + [a]], pb) == coverage_ref(refs + [a], b)


# -- the pairwise kernel: overlaps / ious --------------------------------

def _abutting(hw):
    """Two rectangles whose boxes share an edge but no pixel (none if the
    frame is one column wide)."""
    h, w = hw
    if w < 2:
        return st.just([])

    def pair(cut, rows_a, rows_b, lo, hi):
        left, right = np.zeros(hw, dtype=bool), np.zeros(hw, dtype=bool)
        left[min(rows_a): max(rows_a) + 1, lo: cut] = True
        right[min(rows_b): max(rows_b) + 1, cut: hi] = True
        return [left, right]

    rows = st.tuples(st.integers(0, h - 1), st.integers(0, h - 1))
    return st.integers(1, w - 1).flatmap(lambda cut: st.builds(
        pair, st.just(cut), rows, rows, st.integers(0, cut - 1), st.integers(cut + 1, w)))


def _mask_lists(hw):
    one = st.one_of(arrays(bool, hw), st.sampled_from(_edge_masks(*hw)))
    return st.tuples(st.lists(one, max_size=4), st.lists(one, max_size=4),
                     st.one_of(st.just([]), _abutting(hw)))


_LEFT, _RIGHT = np.zeros((4, 6), dtype=bool), np.zeros((4, 6), dtype=bool)
_LEFT[:, :3], _RIGHT[:, 3:] = True, True


@given(small_frames.flatmap(_mask_lists))
@example(([], [], [_LEFT, _RIGHT]))  # boxes that share an edge: 0 and 0.0
@example(([np.zeros((3, 3), dtype=bool)], [], []))  # a row against no column
@settings(max_examples=200)
def test_overlaps_and_ious_equal_the_scalar_kernel_on_every_pair(case):
    list_a, list_b, abutting = case
    a = [prep(m) for m in list_a + abutting[:1]]
    b = [prep(m) for m in abutting[1:] + list_b]
    inter, pair_iou = overlaps(a, b), ious(a, b)
    assert inter.shape == pair_iou.shape == (len(a), len(b))
    assert inter.dtype == np.int64 and pair_iou.dtype == np.float64
    for i, p in enumerate(a):
        for j, q in enumerate(b):
            n = intersection(p, q)
            assert inter[i, j] == n == int((paste(p) & paste(q)).sum())
            union = p.area + q.area - n
            want = n / union if union else 0.0  # the scalar IoU in Python ints
            assert float(pair_iou[i, j]).hex() == want.hex() == iou(p, q).hex()


def test_overlaps_refuses_differing_frame_sizes_even_for_disjoint_boxes():
    a = prep(mask_from_pixels(4, 4, [(0, 0)]))
    b = prep(mask_from_pixels(6, 6, [(5, 5)]))
    for kernel in (overlaps, ious):
        with pytest.raises(DimensionMismatch):
            kernel([a], [b])
        with pytest.raises(DimensionMismatch):
            kernel([a, b], [a])
        assert kernel([a, b], []).shape == (2, 0)  # no pair to compare


# -- the pairwise kernel: only boxes that meet reach the pixels ------------

def _box_pixels(p):
    return paste(PreparedMask.from_bits(np.ones(p.bits.shape, dtype=bool), p.row, p.col, p.shape))


def _boxes_meet(p, q):
    return bool((_box_pixels(p) & _box_pixels(q)).any())


@pytest.fixture
def window_calls(monkeypatch):
    """Every maskcore._window call as (caller, a, b), and every call of the
    pairwise kernel as (a, b), wherever a module bound it."""
    log = {"window": [], "kernel": []}
    window, kernel = maskcore._window, maskcore.overlaps

    def spy_window(a, b):
        log["window"].append((sys._getframe(1).f_code.co_name, a, b))
        return window(a, b)

    def spy_kernel(a, b):
        log["kernel"].append((list(a), list(b)))
        return kernel(a, b)

    monkeypatch.setattr(maskcore, "_window", spy_window)
    for mod in (maskcore, aggregate):  # ious, and so metrics and rounds, call maskcore.overlaps
        monkeypatch.setattr(mod, "overlaps", spy_kernel)
    return log


def _squares(corners, side, first_id=0):
    out = []
    for n, (r, c) in enumerate(corners):
        m = np.zeros((64, 96), dtype=bool)
        m[r: r + side, c: c + side] = True
        out.append(InstanceLabel.from_mask(m, round(0.9 - 0.05 * n, 2), first_id + n))
    return LabelSet("f", 64, 96, out)


# six large squares on a grid and eight small ones: two small ones lie inside
# a large one, one crosses a large one's edge, one shares a large one's edge
# without a common pixel, and the rest lie apart
LARGE_CORNERS = [(0, 0), (0, 30), (0, 60), (30, 0), (30, 30), (30, 60)]
SMALL_CORNERS = [(2, 2), (8, 38), (12, 62), (30, 16), (20, 20), (50, 18), (52, 48), (50, 84)]
LARGE, SMALL = _squares(LARGE_CORNERS, 16), _squares(SMALL_CORNERS, 6)


@pytest.mark.parametrize("call", [
    lambda: mask_agg(LARGE, SMALL, AggParams()),
    lambda: mask_agg(LARGE, SMALL, AggParams(match_thrd=0.05, filt_frac=0.05, cover_frac=0.05)),
    lambda: nms(LabelSet("f", 64, 96, LARGE.instances + _squares(SMALL_CORNERS, 6, 10).instances), 0.3),
    lambda: gt_overlap_filter(SMALL, LARGE, 0.0),
    lambda: evaluate([SMALL], [LARGE], EvalConfig()),
], ids=["mask_agg", "mask_agg_low", "nms", "gt_overlap_filter", "evaluate"])
def test_pixels_are_counted_only_where_boxes_meet(window_calls, call):
    call()
    counted = [(a, b) for caller, a, b in window_calls["window"] if caller == "intersection"]
    assert all(_boxes_meet(a, b) for a, b in counted), "a box-disjoint pair reached the pixels"
    meeting = [(p, q) for a, b in window_calls["kernel"] for p in a for q in b if _boxes_meet(p, q)]
    assert [(id(a), id(b)) for a, b in counted] == [(id(p), id(q)) for p, q in meeting]
    assert {caller for caller, _, _ in window_calls["window"]} <= {"intersection", "coverage"}
    assert all(_boxes_meet(a, b) for caller, a, b in window_calls["window"] if caller == "coverage")
    pairs = sum(len(a) * len(b) for a, b in window_calls["kernel"])
    assert len(meeting) < pairs / 3


# -- prepared masks: encoding a placed bitmap ---------------------------

def _placed(hw):
    """A bitmap no larger than the frame and an offset that keeps it inside."""
    h, w = hw
    return st.tuples(st.integers(1, h), st.integers(1, w)).flatmap(lambda bhw: st.tuples(
        st.one_of(arrays(bool, bhw), st.sampled_from(_edge_masks(*bhw))),
        st.integers(0, h - bhw[0]), st.integers(0, w - bhw[1]), st.just(hw)))


@given(small_frames.flatmap(_placed))
@settings(max_examples=300)
def test_encoder_matches_pixel_oracles(case):
    bits, r, c, shape = case
    m = np.zeros(shape, dtype=bool)
    m[r: r + bits.shape[0], c: c + bits.shape[1]] = bits
    p = PreparedMask.from_bits(bits, r, c, shape)
    rle = p.rle()
    assert (rle.height, rle.width) == shape
    assert list(rle.counts) == rle_counts_ref(m)
    assert p.area == int(m.sum())
    assert np.array_equal(p.frame(), m)
    if p.area:
        rows, cols = np.nonzero(m)
        assert p.box == BBox(x=cols.min(), y=rows.min(), w=cols.max() - cols.min() + 1,
                             h=rows.max() - rows.min() + 1)
        assert np.array_equal(p.bits, PreparedMask(rle).bits)
    else:
        assert p.bits.shape == (0, 0)
        with pytest.raises(EmptyMask):
            p.box


def test_encoder_edge_placements():
    # a full-height box: its runs meet across column edges and merge into one
    assert PreparedMask.from_bits(np.ones((5, 2)), 0, 3, (5, 8)).rle().counts == (15, 10, 15)
    # a mask ending on the last pixel has no trailing zero run
    assert PreparedMask.from_bits(np.ones((1, 1)), 4, 7, (5, 8)).rle().counts == (39, 1)
    # first pixel: a leading zero run
    assert PreparedMask.from_bits(np.ones((1, 1)), 0, 0, (5, 8)).rle().counts == (0, 1, 39)
    empty = PreparedMask.from_bits(np.zeros((3, 3)), 1, 1, (5, 8))
    assert (empty.area, empty.bits.shape, empty.rle().counts) == (0, (0, 0), (40,))
    # background may hang over the frame edge; foreground may not
    hang = np.zeros((3, 3), dtype=bool)
    hang[1, 1] = True
    assert PreparedMask.from_bits(hang, -1, 6, (5, 8)).rle().counts == (35, 1, 4)
    with pytest.raises(ValueError):
        PreparedMask.from_bits(np.ones((2, 2)), 4, 0, (5, 8))


# -- prepared masks: decoding any counts a file may carry ----------------

# (height, width, counts): the encoder never writes zero-length interior runs
# or a trailing 0, and these runs cross several column edges or end on the
# last row or column
LOOSE_COUNTS = [
    (5, 1, [0, 3, 0, 2]), (1, 5, [0, 3, 0, 2]), (2, 3, [1, 5, 0]), (3, 4, [12]),
    (3, 4, [0, 12, 0]), (3, 4, [2, 7, 3]), (3, 4, [1, 10, 1]), (2, 5, [1, 0, 0, 8, 1]),
    (3, 4, [11, 1]), (4, 3, [3, 1, 3, 1, 0, 0, 3, 1]), (4, 3, [8, 4]), (3, 4, [0, 1, 10, 1]),
]


def _check_decodes(h, w, counts):
    """Decode against the run expansion; returns the expected frame."""
    want = rle_expand_ref(h, w, counts)
    rle = Rle(h, w, counts)
    p = PreparedMask(rle)
    assert np.array_equal(rle_decode(rle), want)
    assert np.array_equal(p.frame(), want)
    assert p.area == int(want.sum())
    if p.area:
        rows, cols = np.nonzero(want)
        assert (p.row, p.col) == (rows.min(), cols.min())
        assert p.bits.shape == (rows.max() - p.row + 1, cols.max() - p.col + 1)
    else:
        assert p.bits.shape == (0, 0)
    assert list(p.rle().counts) == rle_counts_ref(want)
    return want


def _loose_counts(hw):
    """Zeros-first counts summing to h * w, with zero-length runs anywhere."""
    h, w = hw
    return st.lists(st.integers(0, h * w), max_size=9).map(
        lambda cuts: (h, w, np.diff([0, *sorted(cuts), h * w]).tolist()))


@pytest.mark.parametrize("case", LOOSE_COUNTS)
def test_decoder_matches_run_expansion_on_loose_counts(case, tmp_path):
    h, w, counts = case
    want = _check_decodes(h, w, counts)
    box = [0.0, 0.0, 0.0, 0.0]
    if want.any():
        rows, cols = np.nonzero(want)
        box = [float(cols.min()), float(rows.min()),
               float(cols.max() - cols.min() + 1), float(rows.max() - rows.min() + 1)]
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"frame_id": "f", "height": h, "width": w, "instances": [
        {"id": 0, "score": 0.5, "box": box, "rle": {"size": [h, w], "counts": counts}}]}))
    inst, = read_labels(path).instances
    assert list(inst.mask.counts) == counts
    if want.any():
        assert PreparedMask(inst.mask).box == BBox(*box)
    assert np.array_equal(rle_decode(inst.mask), want)


@given(small_frames.flatmap(_loose_counts))
@settings(max_examples=300)
def test_decoder_matches_run_expansion_on_random_counts(case):
    _check_decodes(*case)


# -- decode: a list of masks in one pass ----------------------------------

def _fill_of(bits):
    while bits.base is not None:
        bits = bits.base
    return bits


def _check_batch(rles):
    """decode equals the per-mask reference on every field, and no fill
    holds more than one frame of pixels."""
    got = list(decode(rles))
    assert len(got) == len(rles)
    for m, rle in zip(got, rles):
        bits, row, col, area, shape = prepared_ref(rle.height, rle.width, rle.counts)
        assert (m.row, m.col, m.area, m.shape) == (row, col, area, shape)
        assert all(type(v) is int for v in (m.row, m.col, m.area))
        assert (m.bits.dtype, m.bits.shape, m.bits.strides) == (bits.dtype, bits.shape, bits.strides)
        assert np.array_equal(m.bits, bits)
        assert _fill_of(m.bits).size <= rle.height * rle.width


def _odd_counts(h, w):
    """Runs the encoder never writes: none at all but zeros, a leading 0 over
    the whole frame, and two foreground runs split by a zero-length zero-run."""
    n = h * w
    return [[n], [0, n], [0, 1, 0, n - 1], [n - 1, 0, 0, 1]]


def _rle_lists(hw):
    h, w = hw
    kinds = [rle_encode(m).counts for m in _edge_masks(h, w)] + _odd_counts(h, w)
    one = st.one_of(_loose_counts(hw).map(lambda case: case[2]), st.sampled_from(kinds))
    return st.lists(one, max_size=8).map(lambda counts: [Rle(h, w, c) for c in counts])


@given(small_frames.flatmap(_rle_lists))
@example([])
@example([Rle(1, 1, (1,)), Rle(1, 1, (0, 1)), Rle(1, 1, (0, 1, 0))])  # 1x1 frames
@example([Rle(3, 4, (2, 7, 3)), Rle(3, 4, (12,)), Rle(3, 4, (0, 1, 10, 1))])  # runs over column edges
@settings(max_examples=300)
def test_decode_equals_the_per_mask_decoder(rles):
    _check_batch(rles)


def test_decode_shares_fills_and_splits_long_lists():
    # small boxes share one fill
    pixels = [rle_encode(mask_from_pixels(64, 64, [(r, 63 - r)])) for r in range(64)]
    got = list(decode(pixels))
    assert all(_fill_of(m.bits) is _fill_of(got[0].bits) for m in got)
    _check_batch(pixels)
    # many more counts than one batch holds (1024 on frames up to 256x256),
    # dense masks over a batch alone, and boxes of up to the whole frame
    rng = np.random.default_rng(7)
    rles = [rle_encode(rng.random((64, 64)) < 0.5) for _ in range(3)]
    rles += [Rle(64, 64, np.diff([0, *sorted(rng.integers(0, 64 * 64, 63)), 64 * 64]))
             for _ in range(300)]
    assert sum(len(r.counts) for r in rles) > 10 * 1024
    _check_batch(pixels + rles + pixels)


def test_decode_refuses_a_mix_of_frame_sizes_when_called():
    with pytest.raises(DimensionMismatch, match="shapes differ"):
        decode([Rle(2, 3, (6,)), Rle(3, 2, (6,))])  # not only once iterated
    assert list(decode([])) == []
    assert list(decode(iter([Rle(2, 3, (6,))])))[0].area == 0


# -- components --------------------------------------------------------

@given(masks)
@example(mask_from_pixels(6, 6, [(0, 0), (0, 1), (4, 4), (4, 5), (5, 4)]))
@example(mask_from_pixels(3, 3, [(0, 0), (1, 1)]))  # diagonal neighbors join
@example(mask_from_pixels(6, 6, [(0, 4), (3, 0)]))  # later row, earlier column
@example(np.zeros((3, 3), dtype=bool))
@settings(max_examples=60)
def test_components_match_reference(m):
    # the depth-blind 2D baseline: DBSCAN over flat points, 8-neighbors only
    pts = np.column_stack([*np.nonzero(m), np.zeros((np.count_nonzero(m), 3))])
    got = dbscan_partition(pts, DbscanParams(min_pts=1, pixel_window=3), m.shape)
    ref = components_ref(m, connectivity=8)
    assert len(got) == len(ref)
    for g, r in zip(got, ref):
        assert np.array_equal(g, r)


# -- boxes -------------------------------------------------------------

def test_bbox_single_pixel():
    m = mask_from_pixels(6, 8, [(3, 5)])
    assert prepared(m).box == BBox(x=5, y=3, w=1, h=1)


def test_bbox_full_frame():
    assert prepared(np.ones((4, 7), dtype=bool)).box == BBox(0, 0, 7, 4)


def test_bbox_l_shape():
    pix = [(r, 1) for r in range(2, 8)] + [(7, c) for c in range(1, 5)]
    m = mask_from_pixels(10, 10, pix)
    assert prepared(m).box == BBox(x=1, y=2, w=4, h=6)


def test_bbox_empty_mask():
    with pytest.raises(EmptyMask):
        prepared(np.zeros((2, 2), dtype=bool)).box


@given(masks)
def test_bbox_contains_and_touches(m):
    if not m.any():
        return
    b = prepared(m).box
    rows, cols = np.nonzero(m)
    assert rows.min() == b.y and cols.min() == b.x
    assert rows.max() == b.y + b.h - 1
    assert cols.max() == b.x + b.w - 1
