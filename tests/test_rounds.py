import dataclasses
import json

import numpy as np
import pytest

from mobilabel.aggregate import AggParams
from mobilabel.errors import (
    DimensionMismatch,
    FrameMismatch,
    MissingPredictions,
    SchemaViolation,
    StageOrderViolation,
    UnsafeFrameId,
)
from mobilabel.initlabel import InstanceLabel, LabelSet
from mobilabel.io import read_labels, read_transform
from mobilabel.maskcore import PreparedMask, iou
from mobilabel.rescale import make_transform, transform_labels
from mobilabel.rounds import (
    DetectorExchange,
    RoundConfig,
    build_round,
    default_config_snapshot,
    default_stages,
    gt_overlap_filter,
    run_pipeline,
    threshold_filter,
)
from mobilabel.synthgen import SceneSpec, generate_scene

H, W = 64, 96


def rect(y, x, h, w, score=1.0, iid=0):
    m = np.zeros((H, W), dtype=bool)
    m[y:y + h, x:x + w] = True
    return InstanceLabel.from_mask(m, score, iid)


def lset(fid, *insts):
    return LabelSet(fid, H, W, list(insts))


# -- configs ------------------------------------------------------------------

def test_default_snapshot_matches_stock_values():
    assert default_config_snapshot() == {
        "motion_threshold": 0.1,
        "m2m_conf": 0.5,
        "l2s_scales": (1.0, 0.25),
        "l2s_confs": (0.9, 0.8),
        "scale_jitter": (0.5, 1.0),
        "match_thrd": 0.5,
        "filt_frac": 0.75,
        "cover_frac": 0.5,
        "gt_overlap_min_iou": 0.1,
    }


def test_final_stage_refuses_a_reversed_jitter_range_like_moving2mobile():
    for stage in ("moving2mobile", "final"):
        conf = 0.5 if stage == "moving2mobile" else None
        with pytest.raises(ValueError, match="empty jitter range"):
            RoundConfig(stage=stage, conf_threshold=conf, scale=(1.0, 0.5))
    assert RoundConfig(stage="final", scale=(0.5, 0.5)).scale == (0.5, 0.5)


def test_default_epochs_are_advisory_three_then_twenty():
    m2m, l2s, final = default_stages()
    assert m2m.epochs == 3 and l2s.epochs == 20 and final.epochs == 20


def test_round_config_validation():
    with pytest.raises(ValueError):
        RoundConfig(stage="warmup")
    with pytest.raises(ValueError):
        RoundConfig(stage="moving2mobile", conf_threshold=(0.5, 0.6), scale=(0.5, 1.0))
    with pytest.raises(ValueError):
        RoundConfig(stage="moving2mobile", conf_threshold=0.5, scale=(1.0, 0.5))
    with pytest.raises(ValueError):
        RoundConfig(stage="large2small", conf_threshold=(0.9, 0.8), scale=(1.0, 0.25))
    with pytest.raises(ValueError):
        RoundConfig(stage="final", conf_threshold=0.5)
    with pytest.raises(ValueError):
        RoundConfig(stage="moving2mobile", conf_threshold=1.5, scale=(0.5, 1.0))


@pytest.mark.parametrize("stage, changes", [
    ("large2small", {"conf_threshold": (True, 0.8)}),
    ("large2small", {"conf_threshold": (0.9, False)}),
    ("large2small", {"scale": (True, 0.25)}),
    ("large2small", {"epochs": 2.5}),
    ("large2small", {"epochs": True}),
    ("large2small", {"epochs": float("inf")}),
    ("moving2mobile", {"scale": (True, 1.0)}),
    ("moving2mobile", {"epochs": 3.0}),
    ("final", {"scale": (0.5, True)}),
    ("final", {"epochs": True}),
])
def test_stages_refuse_a_bool_pair_entry_or_a_non_integer_epochs(stage, changes):
    cfg = next(c for c in default_stages() if c.stage == stage)
    with pytest.raises(ValueError):
        dataclasses.replace(cfg, **changes)


@pytest.mark.parametrize("changes", [
    {"conf_threshold": [True, 0.8]},
    {"scale": [1.0, True]},
    {"epochs": 2.5},
    {"epochs": True},
])
def test_manifest_with_a_bool_pair_entry_or_non_integer_epochs_is_a_schema_violation(tmp_path, changes):
    ex = DetectorExchange(tmp_path / "x")
    ex.root.mkdir()
    config = {**default_stages()[1].to_dict(), "agg": dataclasses.asdict(AggParams()), **changes}
    ex.manifest_path.write_text(json.dumps({"frame_ids": [], "config": config}))
    with pytest.raises(SchemaViolation) as err:
        ex.read_manifest()
    assert err.value.field_path == "$.config"


def test_round_config_dict_round_trip():
    for cfg in default_stages():
        assert RoundConfig.from_dict(cfg.to_dict()) == cfg


# -- threshold_filter ---------------------------------------------------------

def test_threshold_keeps_high_scores():
    ls = lset("f", rect(0, 0, 4, 4, 0.95, 0), rect(8, 0, 4, 4, 0.6, 1),
              rect(16, 0, 4, 4, 0.3, 2))
    assert len(threshold_filter(ls, 0.9).instances) == 1
    assert len(threshold_filter(ls, 0.0).instances) == 3
    assert len(threshold_filter(ls, 0.6).instances) == 2  # inclusive


def test_threshold_monotone():
    rng = np.random.default_rng(0)
    ls = lset("f", *[rect(4 * i, 0, 3, 3, float(s), i)
                     for i, s in enumerate(rng.random(12))])
    counts = [len(threshold_filter(ls, c).instances) for c in np.linspace(0, 1, 21)]
    assert counts == sorted(counts, reverse=True)
    assert threshold_filter(ls, 0.0) == ls


# -- gt_overlap_filter --------------------------------------------------------

def test_gt_overlap_examples():
    gt = lset("f", rect(0, 0, 9, 5))
    far = rect(40, 40, 5, 5, 0.9, 0)         # IoU 0
    same = rect(0, 0, 9, 5, 0.9, 1)          # identical
    edge = rect(8, 0, 2, 5, 0.9, 2)          # inter 5, union 50: IoU exactly 0.1
    preds = lset("f", far, same, edge)
    kept = gt_overlap_filter(preds, gt, 0.1)
    assert [i.instance_id for i in kept.instances] == [1, 2]


def test_gt_overlap_low_iou_removed():
    gt = lset("f", rect(0, 0, 10, 10))
    graze = rect(9, 9, 10, 10, 0.9, 7)  # inter 1, union 199: IoU ~ 0.005
    kept = gt_overlap_filter(lset("f", graze), gt, 0.1)
    assert kept.instances == []


def test_gt_overlap_empty_gt_drops_everything():
    preds = lset("f", rect(0, 0, 4, 4, 0.9, 0))
    assert gt_overlap_filter(preds, lset("f"), 0.0).instances == []


def test_gt_overlap_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        gt_overlap_filter(lset("f"), LabelSet("f", H, W + 1, []), 0.1)


def test_gt_overlap_identity_when_all_match():
    gt = lset("f", rect(0, 0, 10, 10, 1.0, 0), rect(20, 20, 8, 8, 1.0, 1))
    preds = lset("f", rect(0, 1, 10, 10, 0.9, 0), rect(20, 20, 8, 8, 0.8, 1))
    assert gt_overlap_filter(preds, gt, 0.1) == preds


# -- exchange -----------------------------------------------------------------

def test_exchange_request_response_round_trip(tmp_path):
    ex = DetectorExchange(tmp_path / "x")
    ls = lset("000003", rect(0, 0, 5, 5, 0.7, 0))
    t = make_transform(H, W, 0.25)
    ex.write_request(ls, t)
    got = read_labels(ex.labels_path("000003"))
    got_t = read_transform(ex.transform_path("000003"))
    assert got == ls and got_t == t
    ex.write_response(ls)
    assert ex.read_response("000003") == ls


def test_exchange_missing_prediction_names_frame(tmp_path):
    ex = DetectorExchange(tmp_path / "x")
    ex.ensure_dirs()
    with pytest.raises(MissingPredictions) as err:
        ex.read_response("000042")
    assert "000042" in str(err.value)


def test_exchange_frame_id_mismatch(tmp_path):
    ex = DetectorExchange(tmp_path / "x")
    ex.ensure_dirs()
    ls = lset("000001", rect(0, 0, 5, 5))
    import mobilabel.io as io
    io.write_labels(ex.pred_path("000002"), ls)
    with pytest.raises(FrameMismatch):
        ex.read_response("000002")


@pytest.mark.parametrize("frame_id", ["../../up", "a/b", "/abs"])
def test_exchange_refuses_a_frame_id_with_a_path_separator(tmp_path, frame_id):
    ex = DetectorExchange(tmp_path / "x")
    for path_of in (ex.labels_path, ex.transform_path, ex.pred_path):
        with pytest.raises(UnsafeFrameId):
            path_of(frame_id)
    with pytest.raises(UnsafeFrameId):
        ex.write_request(lset(frame_id, rect(0, 0, 5, 5)))
    assert not [p for p in tmp_path.rglob("*") if p.is_file()]


def test_run_pipeline_refuses_duplicate_frame_ids(tmp_path):
    ls = lset("000000", rect(0, 0, 5, 5))
    with pytest.raises(FrameMismatch):
        run_pipeline([ls, ls], default_stages()[:1], tmp_path / "x",
                     detector=lambda labels, t: labels)
    assert not (tmp_path / "x").exists()


def test_manifest_round_trip(tmp_path):
    ex = DetectorExchange(tmp_path / "x")
    cfg = default_stages()[1]
    ex.write_manifest(["000000", "000001"], cfg)
    ids, got = ex.read_manifest()
    assert ids == ["000000", "000001"] and got == cfg


@pytest.mark.parametrize("payload, field", [
    ({"frame_ids": "abc", "config": {"stage": "final"}}, "$.frame_ids"),
    ({"frame_ids": ["000000", 1], "config": {"stage": "final"}}, "$.frame_ids[1]"),
    ({"config": {"stage": "final"}}, "$.frame_ids"),
    ({"frame_ids": [], "config": ["final"]}, "$.config"),
    ({"frame_ids": []}, "$.config"),
    ({"frame_ids": [], "config": {"stage": "final", "epochs": "x"}}, "$.config"),
    ({"frame_ids": [], "config": {"epochs": 3}}, "$.config"),
    ({"frame_ids": [], "config": {"stage": "nope"}}, "$.config"),
    ({"frame_ids": [], "config": {**default_stages()[1].to_dict(),
                                  "agg": {"no_such_knob": 1}}}, "$.config"),
    (["000000"], "$"),
    ({"frame_ids": [], "config": {**default_stages()[0].to_dict(),
                                  "conf_threshold": 10**400}}, "$.config"),
])
def test_malformed_manifest_is_a_schema_violation(tmp_path, payload, field):
    ex = DetectorExchange(tmp_path / "x")
    ex.root.mkdir()
    ex.manifest_path.write_text(json.dumps(payload))
    with pytest.raises(SchemaViolation) as err:
        ex.read_manifest()
    assert err.value.field_path == field


# -- build_round --------------------------------------------------------------

def _large_small_gt():
    # one large (40x40 = 1600 px) and one small (16x16 = 256 px) object
    big = rect(4, 4, 40, 40, 1.0, 0)
    small = rect(10, 60, 16, 16, 1.0, 1)
    return lset("000000", big, small), big, small


def test_m2m_round_applies_threshold(tmp_path):
    cur = lset("000000", rect(0, 0, 8, 8, 1.0, 0))
    ex = DetectorExchange(tmp_path / "m2m")
    ex.write_response(lset("000000", rect(0, 0, 8, 8, 0.9, 0),
                           rect(16, 0, 8, 8, 0.4, 1)))
    cfg = default_stages()[0]
    out = build_round(cfg, [cur], ex)
    assert len(out) == 1 and [i.instance_id for i in out[0].instances] == [0]


def test_m2m_missing_frame_raises(tmp_path):
    cur = lset("000000", rect(0, 0, 8, 8))
    ex = DetectorExchange(tmp_path / "m2m")
    ex.ensure_dirs()
    with pytest.raises(MissingPredictions):
        build_round(default_stages()[0], [cur], ex)


def test_l2s_recovers_small_objects(tmp_path):
    gt, big, small = _large_small_gt()
    l1 = lset("000000", big)  # small object missing after the first round
    cfg = default_stages()[1]
    ex_l = DetectorExchange(tmp_path / "large")
    ex_s = DetectorExchange(tmp_path / "small")
    t_small = make_transform(H, W, cfg.scale[1])
    ex_l.write_request(l1, make_transform(H, W, cfg.scale[0]))
    ex_s.write_request(l1, t_small)
    ex_l.write_response(l1)                      # large scale sees the large object
    ex_s.write_response(transform_labels(gt, t_small))  # small scale sees everything
    out = build_round(cfg, [l1], ex_l, ex_s)[0]
    best = max(iou(PreparedMask(i.mask), PreparedMask(small.mask)) for i in out.instances)
    assert best >= 0.5
    assert any(iou(PreparedMask(i.mask), PreparedMask(big.mask)) > 0.99 for i in out.instances)


def test_l2s_low_scores_are_dropped(tmp_path):
    gt, big, small = _large_small_gt()
    cfg = default_stages()[1]
    ex_l = DetectorExchange(tmp_path / "large")
    ex_s = DetectorExchange(tmp_path / "small")
    weak = lset("000000", rect(4, 4, 40, 40, 0.89, 0))  # below the 0.9 cut
    ex_l.write_response(weak)
    ex_l.write_request(gt, make_transform(H, W, cfg.scale[0]))
    ex_s.write_request(gt, make_transform(H, W, cfg.scale[1]))
    ex_s.write_response(lset("000000"))
    out = build_round(cfg, [gt], ex_l, ex_s)[0]
    assert out.instances == []


def test_l2s_missing_small_transform_raises(tmp_path):
    gt, _, _ = _large_small_gt()
    ex_l = DetectorExchange(tmp_path / "large")
    ex_s = DetectorExchange(tmp_path / "small")
    ex_l.write_request(gt, make_transform(H, W, default_stages()[1].scale[0]))
    ex_l.write_response(gt)
    ex_s.write_response(lset("000000"))
    with pytest.raises(FileNotFoundError) as err:
        build_round(default_stages()[1], [gt], ex_l, ex_s)
    assert str(ex_s.transform_path("000000")) in str(err.value)


def test_final_round_passes_through(tmp_path):
    gt, _, _ = _large_small_gt()
    out = build_round(default_stages()[2], [gt], DetectorExchange(tmp_path / "f"))
    assert out == [gt]


# -- run_pipeline -------------------------------------------------------------

def _capture_detector(gt_by_frame):
    def detector(ls, transform):
        gt = gt_by_frame[ls.frame_id]
        if transform is None or transform.scale == 1.0:
            large = [i for i in gt.instances if i.area >= 1024]
            return LabelSet(gt.frame_id, gt.height, gt.width, large)
        return transform_labels(gt, transform)
    return detector


def _pipeline_inputs(n_frames=3):
    spec = SceneSpec(seed=21, n_objects=(4, 4), moving_fraction=0.5,
                     size_range=(16, 48), ellipse_fraction=0.0)
    gt_by_frame = {}
    l0 = []
    for i in range(n_frames):
        _, _, _, gt = generate_scene(spec, i)
        gt_by_frame[gt.frame_id] = gt
        movers = [inst for inst in gt.instances if inst.attributes["moving"]]
        l0.append(LabelSet(gt.frame_id, gt.height, gt.width, movers))
    return l0, gt_by_frame


def test_pipeline_stage_order_enforced(tmp_path):
    l0, _ = _pipeline_inputs(1)
    m2m, l2s, final = default_stages()
    with pytest.raises(StageOrderViolation):
        run_pipeline(l0, [l2s, m2m, final], tmp_path)
    with pytest.raises(StageOrderViolation):
        run_pipeline(l0, [l2s], tmp_path)


def test_pipeline_end_to_end_with_mock_detector(tmp_path):
    l0, gt_by_frame = _pipeline_inputs(3)
    det = _capture_detector(gt_by_frame)
    res = run_pipeline(l0, default_stages(), tmp_path / "run", detector=det)
    assert set(res) == {"l0", "moving2mobile", "large2small", "final"}
    # the first round generalizes past motion: static large objects appear
    for fid, after in zip(sorted(gt_by_frame), res["moving2mobile"]):
        gt = gt_by_frame[fid]
        static_large = [i for i in gt.instances
                        if not i.attributes["moving"] and i.area >= 1024]
        for want in static_large:
            assert any(iou(PreparedMask(i.mask), PreparedMask(want.mask)) > 0.99
                       for i in after.instances)
    # the two-scale round recovers every object at loose IoU
    for fid, l2 in zip(sorted(gt_by_frame), res["large2small"]):
        gt = gt_by_frame[fid]
        for want in gt.instances:
            assert any(iou(PreparedMask(i.mask), PreparedMask(want.mask)) >= 0.5
                       for i in l2.instances)
    assert res["final"] == res["large2small"]
    assert (tmp_path / "run" / "final" / "MANIFEST.json").exists()


def _tree_bytes(root):
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_l2s_maps_the_large_scale_back_too(tmp_path):
    # a noise-free detector at scales (0.5, 0.25): both runs must land in
    # original coordinates, so aggregation merges them one per object
    l0, gt_by_frame = _pipeline_inputs(3)

    def detector(ls, transform):
        gt = gt_by_frame[ls.frame_id]
        return gt if transform is None else transform_labels(gt, transform)

    m2m, l2s, _ = default_stages()
    l2s = dataclasses.replace(l2s, scale=(0.5, 0.25))
    res = run_pipeline(l0, [m2m, l2s], tmp_path, detector=detector)
    for fid, got in zip(sorted(gt_by_frame), res["large2small"]):
        gt = gt_by_frame[fid]
        assert len(got.instances) == len(gt.instances)
        for want in gt.instances:
            assert any(iou(PreparedMask(i.mask), PreparedMask(want.mask)) >= 0.5
                       for i in got.instances)


def test_pipeline_reruns_byte_identical(tmp_path):
    l0, gt_by_frame = _pipeline_inputs(2)
    det = _capture_detector(gt_by_frame)
    res_a = run_pipeline(l0, default_stages(), tmp_path / "a", detector=det)
    res_b = run_pipeline(l0, default_stages(), tmp_path / "b", detector=det)
    assert res_a == res_b
    assert _tree_bytes(tmp_path / "a") == _tree_bytes(tmp_path / "b")
