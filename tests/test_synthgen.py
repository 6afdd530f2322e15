import numpy as np
import pytest

from mobilabel.errors import PlacementFailure
from mobilabel.initlabel import (
    DbscanParams,
    InstanceLabel,
    LabelSet,
    binarize_motion,
    dbscan_partition,
    make_initial_labels,
    unproject,
)
from mobilabel.io import (
    read_depth,
    read_intrinsics,
    read_labels,
    read_motion,
    write_depth,
    write_intrinsics,
    write_labels,
    write_motion,
)
from mobilabel.maskcore import PreparedMask, iou, rle_decode, rle_encode
from mobilabel.synthgen import (
    DetectorNoise,
    SceneSpec,
    generate_scene,
    mock_detector,
    occlusion_fixture,
)


# -- spec validation ----------------------------------------------------------

def test_scene_spec_rejects_bad_ranges():
    with pytest.raises(ValueError):
        SceneSpec(n_objects=(5, 2))
    with pytest.raises(ValueError):
        SceneSpec(depth_range=(0.0, 10.0))
    with pytest.raises(ValueError):
        SceneSpec(moving_fraction=1.5)
    with pytest.raises(ValueError):
        SceneSpec(size_range=(0, 4))
    with pytest.raises(ValueError):
        SceneSpec(depth_sigma=-0.1)
    with pytest.raises(ValueError):
        SceneSpec(seed=-1)


# -- generate_scene -----------------------------------------------------------

def test_same_seed_is_byte_identical():
    spec = SceneSpec(seed=7, depth_sigma=0.05, motion_blur=2)
    d1, m1, k1, g1 = generate_scene(spec, 3)
    d2, m2, k2, g2 = generate_scene(spec, 3)
    assert d1.tobytes() == d2.tobytes()
    assert m1.tobytes() == m2.tobytes()
    assert k1 == k2
    assert g1 == g2


def test_frames_differ_and_seeds_differ():
    spec = SceneSpec(seed=7)
    d0, _, _, g0 = generate_scene(spec, 0)
    d1, _, _, g1 = generate_scene(spec, 1)
    d9, _, _, g9 = generate_scene(SceneSpec(seed=8), 0)
    assert d0.tobytes() != d1.tobytes() or g0 != g1
    assert d0.tobytes() != d9.tobytes() or g0 != g9


def test_moving_fraction_one_marks_everything():
    _, motion, _, gt = generate_scene(SceneSpec(seed=1, moving_fraction=1.0), 0)
    assert gt.instances
    for inst in gt.instances:
        assert inst.attributes == {"moving": True}
        assert motion[rle_decode(inst.mask)].min() > 0.5


def test_moving_fraction_zero_keeps_motion_silent():
    _, motion, _, gt = generate_scene(SceneSpec(seed=1, moving_fraction=0.0), 0)
    assert all(not inst.attributes["moving"] for inst in gt.instances)
    assert not motion.any()


def test_masks_disjoint_and_depth_constant():
    spec = SceneSpec(seed=11, n_objects=(6, 6))
    depth, _, _, gt = generate_scene(spec, 2)
    total = 0
    bg = np.ones((spec.height, spec.width), dtype=bool)
    for inst in gt.instances:
        m = rle_decode(inst.mask)
        total += m.sum()
        bg &= ~m
        vals = np.unique(depth[m])
        assert len(vals) == 1
        assert spec.depth_range[0] <= vals[0] <= spec.depth_range[1]
    assert np.logical_or.reduce([rle_decode(inst.mask) for inst in gt.instances]).sum() == total
    # background ramp stays clear of the object depth range
    assert depth[bg].min() >= 2.0 * spec.depth_range[1] - 1e-5


def test_motion_foreground_equals_moving_union():
    _, motion, _, gt = generate_scene(SceneSpec(seed=3, moving_fraction=0.5), 4)
    moving = [rle_decode(i.mask) for i in gt.instances if i.attributes["moving"]]
    want = np.zeros_like(motion, dtype=bool)
    for m in moving:
        want |= m
    assert np.array_equal(binarize_motion(motion, 0.1), want)
    assert np.array_equal(binarize_motion(motion, 1.0), want)


def _unblurred_motion(gt):
    motion = np.zeros((gt.height, gt.width), dtype=bool)
    for inst in gt.instances:
        if inst.attributes["moving"]:
            motion |= rle_decode(inst.mask)
    return motion


@pytest.mark.parametrize("r", [1, 2, 3])
def test_motion_blur_is_exact_window_count(r):
    size = 2 * r + 1
    touched = False
    for seed in range(4):
        spec = SceneSpec(seed=seed, height=24, width=32, n_objects=(3, 3),
                         size_range=(6, 14), margin=0, moving_fraction=1.0, motion_blur=r)
        _, motion, _, gt = generate_scene(spec, 0)
        pre = _unblurred_motion(gt)
        touched |= bool(pre[[0, -1]].any() or pre[:, [0, -1]].any())
        counts = motion.astype(np.float64) * size * size
        assert np.abs(counts - np.round(counts)).max() < 1e-4
        want = np.array([[pre[max(i - r, 0):i + r + 1, max(j - r, 0):j + r + 1].sum()
                          for j in range(spec.width)] for i in range(spec.height)])
        assert np.array_equal(np.round(counts), want)
        # the exact mean, rounded once to float32
        assert np.array_equal(motion, want.astype(np.float32) / np.float32(size * size))
    assert touched  # some object lies on the frame border


@pytest.mark.parametrize("r", [1, 2, 3])
def test_motion_blur_matches_scipy_uniform_filter(r):
    ndimage = pytest.importorskip("scipy.ndimage")
    for seed in range(3):
        spec = SceneSpec(seed=seed, n_objects=(4, 8), depth_sigma=0.05, motion_blur=r)
        _, motion, _, gt = generate_scene(spec, seed)
        pre = _unblurred_motion(gt).astype(np.float64)
        ref = ndimage.uniform_filter(pre, size=2 * r + 1, mode="constant", cval=0.0)
        ref = np.clip(ref, 0.0, 1.0).astype(np.float32)
        assert np.array_equal(np.round(motion.astype(np.float64) * 255.0),
                              np.round(ref.astype(np.float64) * 255.0))
        assert np.abs(motion - ref).max() <= 1e-6


def test_zero_noise_scene_is_recovered_by_initial_labels():
    spec = SceneSpec(seed=5, n_objects=(4, 4), moving_fraction=0.5)
    depth, motion, k, gt = generate_scene(spec, 0)
    got = make_initial_labels(depth, motion, k, DbscanParams())
    moving_gt = [i for i in gt.instances if i.attributes["moving"]]
    assert len(got.instances) == len(moving_gt)
    for pred in got.instances:
        best = max(iou(PreparedMask(pred.mask), PreparedMask(g.mask)) for g in moving_gt)
        assert best >= 0.99


def test_placement_failure_when_frame_too_small():
    spec = SceneSpec(seed=0, height=40, width=40, n_objects=(2, 2),
                     size_range=(30, 30))
    with pytest.raises(PlacementFailure):
        generate_scene(spec, 0)


def test_objects_keep_margin_gap():
    spec = SceneSpec(seed=13, n_objects=(5, 5), margin=8)
    _, _, _, gt = generate_scene(spec, 1)
    boxes = [inst.box for inst in gt.instances]
    for i, a in enumerate(boxes):
        assert a.x >= spec.margin and a.y >= spec.margin
        assert a.x + a.w <= spec.width - spec.margin
        assert a.y + a.h <= spec.height - spec.margin
        for b in boxes[:i]:
            dx = max(b.x - (a.x + a.w), a.x - (b.x + b.w))
            dy = max(b.y - (a.y + a.h), a.y - (b.y + b.h))
            assert max(dx, dy) > spec.margin - 1


def test_outputs_pass_io_round_trip(tmp_path):
    depth, motion, k, gt = generate_scene(SceneSpec(seed=2, depth_sigma=0.02,
                                                    motion_blur=1), 0)
    write_depth(tmp_path / "d.dpf1", depth)
    write_motion(tmp_path / "m.pgm", motion)
    write_intrinsics(tmp_path / "k.json", k)
    write_labels(tmp_path / "l.json", gt)
    assert np.array_equal(read_depth(tmp_path / "d.dpf1"), depth)
    got = read_motion(tmp_path / "m.pgm") / 255.0
    assert np.abs(got - motion).max() <= 0.5 / 255.0
    assert read_intrinsics(tmp_path / "k.json") == k
    assert read_labels(tmp_path / "l.json") == gt
    assert all(inst.box == PreparedMask(inst.mask).box for inst in gt.instances)


def test_occlusion_fixture_partition():
    depth, motion, k, expected = occlusion_fixture()
    fg = binarize_motion(motion, 0.1)
    assert np.array_equal(fg, expected[0] | expected[1])
    pts = unproject(depth, k, fg)
    got = dbscan_partition(pts, DbscanParams(), depth.shape)
    assert len(got) == 2
    ious = [[iou(PreparedMask(rle_encode(g)), PreparedMask(rle_encode(e))) for e in expected]
            for g in got]
    assert sorted(max(row) for row in ious) == [1.0, 1.0]


# -- mock_detector ------------------------------------------------------------

def _scene_gt(seed=4):
    return generate_scene(SceneSpec(seed=seed, n_objects=(5, 5)), 0)[3]


def test_zero_noise_returns_gt_with_unit_scores():
    gt = _scene_gt()
    out = mock_detector(gt, DetectorNoise(), np.random.default_rng(0))
    assert out == gt
    assert all(inst.score == 1.0 for inst in out.instances)


def test_full_dropout_empties_predictions():
    gt = _scene_gt()
    out = mock_detector(gt, DetectorNoise(dropout=1.0), np.random.default_rng(0))
    assert out.instances == []


def test_dropout_concentration():
    noise = DetectorNoise(dropout=0.3)
    rng = np.random.default_rng(123)
    kept = total = 0
    for seed in range(20):
        gt = _scene_gt(seed)
        for _ in range(10):
            total += len(gt.instances)
            kept += len(mock_detector(gt, noise, rng).instances)
    assert total >= 1000
    assert abs(kept / total - 0.7) <= 0.05


def test_jitter_keeps_ids_and_shifts_masks():
    gt = _scene_gt()
    noise = DetectorNoise(mask_jitter=2)
    out = mock_detector(gt, noise, np.random.default_rng(9))
    assert [i.instance_id for i in out.instances] == [i.instance_id for i in gt.instances]
    for got, want in zip(out.instances, gt.instances):
        assert got.area == want.area  # interior shifts preserve pixel count
        assert iou(PreparedMask(got.mask), PreparedMask(want.mask)) > 0.5


def test_false_positive_injection():
    gt = _scene_gt()
    noise = DetectorNoise(false_positives=3, fp_size=10)
    out = mock_detector(gt, noise, np.random.default_rng(1))
    assert len(out.instances) == len(gt.instances) + 3
    added = out.instances[len(gt.instances):]
    old_ids = {i.instance_id for i in gt.instances}
    assert all(i.instance_id not in old_ids for i in added)
    assert all(i.area == 100 for i in added)
    out.validate()


def test_score_sampling_clipped_and_deterministic():
    gt = _scene_gt()
    noise = DetectorNoise(score_mean=0.8, score_sigma=0.3)
    a = mock_detector(gt, noise, np.random.default_rng(5))
    b = mock_detector(gt, noise, np.random.default_rng(5))
    assert a == b
    assert all(0.0 <= i.score <= 1.0 for i in a.instances)
    assert len({i.score for i in a.instances}) > 1


def test_noise_validation():
    with pytest.raises(ValueError):
        DetectorNoise(dropout=-0.1)
    with pytest.raises(ValueError):
        DetectorNoise(score_mean=1.2)
    with pytest.raises(ValueError):
        DetectorNoise(mask_jitter=-1)
    with pytest.raises(ValueError):
        DetectorNoise(fp_size=0)


def test_region_confines_false_positives():
    gt = _scene_gt()
    noise = DetectorNoise(false_positives=50, fp_size=10)
    out = mock_detector(gt, noise, np.random.default_rng(2), region=(30, 40))
    added = out.instances[len(gt.instances):]
    assert len(added) == 50
    for inst in added:
        m = rle_decode(inst.mask)
        assert not m[30:, :].any() and not m[:, 30 + 10:].any()
        assert m[:30, :40].sum() == 100


def test_region_blocks_jitter_across_boundary():
    # mask flush against the region's inner corner: shifts toward the
    # boundary must fall back to the original placement, shifts away
    # from it stay legal, and pixels never land outside the region
    m = np.zeros((64, 64), dtype=bool)
    m[10:30, 10:30] = True
    gt = LabelSet("f", 64, 64, [InstanceLabel.from_mask(m, 1.0, 0)])
    noise = DetectorNoise(mask_jitter=3)
    moved = 0
    for seed in range(30):
        out = mock_detector(gt, noise, np.random.default_rng(seed), region=(30, 30))
        got = rle_decode(out.instances[0].mask)
        assert not got[30:, :].any() and not got[:, 30:].any()
        assert got.sum() == 400
        moved += not np.array_equal(got, m)
    assert moved > 0


def test_jitter_beyond_the_frame_keeps_masks_inside():
    # a shift longer than the frame clips the mask away entirely, so the
    # original placement is kept; shorter shifts may clip at the border
    m = np.zeros((8, 6), dtype=bool)
    m[2:5, 1:4] = True
    gt = LabelSet("f", 8, 6, [InstanceLabel.from_mask(m, 1.0, 0)])
    for seed in range(30):
        out = mock_detector(gt, DetectorNoise(mask_jitter=20), np.random.default_rng(seed))
        got = rle_decode(out.instances[0].mask)
        assert 0 < got.sum() <= 9
        assert out.instances[0].box == PreparedMask(out.instances[0].mask).box


def test_region_validation():
    gt = _scene_gt()
    with pytest.raises(ValueError):
        mock_detector(gt, DetectorNoise(), np.random.default_rng(0),
                      region=(gt.height + 1, gt.width))
    with pytest.raises(ValueError):
        mock_detector(gt, DetectorNoise(), np.random.default_rng(0), region=(0, 5))
