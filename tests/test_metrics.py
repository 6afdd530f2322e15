import numpy as np
import pytest

from mobilabel.errors import DimensionMismatch, FrameMismatch, MissingAttribute
from mobilabel.initlabel import InstanceLabel, LabelSet
from mobilabel.maskcore import rle_decode
from mobilabel.metrics import (
    COCO_THRESHOLDS,
    EvalConfig,
    _match_frame,
    evaluate,
    size_bucket,
)

import oracles
from oracles import ap101_ref, greedy_match_ref, iou_ref

H, W = 48, 64


def rect(y, x, h, w):
    m = np.zeros((H, W), dtype=bool)
    m[y:y + h, x:x + w] = True
    return m


def labels(fid, *entries):
    insts = [InstanceLabel.from_mask(m, score, i, attributes=attrs)
             for i, (m, score, attrs) in enumerate(entries)]
    return LabelSet(fid, H, W, insts)


AT50 = EvalConfig(iou_thresholds=(0.5,))


def match_ids(preds, gt, iou_thrd, mode="mask"):
    """One frame's greedy matching at one threshold: prediction id -> ground-truth id."""
    ordered, (gt_col,) = _match_frame(preds, gt, mode, (iou_thrd,))
    return {p.instance_id: gt.instances[j].instance_id for p, j in zip(ordered, gt_col) if j >= 0}


# -- size buckets ------------------------------------------------------------

def test_size_bucket_examples():
    assert size_bucket(500) == "S"
    assert size_bucket(5000) == "M"
    assert size_bucket(100_000) == "L"
    assert size_bucket(1023) == "S" and size_bucket(1024) == "M"
    assert size_bucket(9215) == "M" and size_bucket(9216) == "L"


def test_eval_config_validation():
    with pytest.raises(ValueError):
        EvalConfig(iou_thresholds=(0.9, 0.5))
    with pytest.raises(ValueError):
        EvalConfig(iou_thresholds=())
    with pytest.raises(ValueError):
        EvalConfig(max_dets=0)
    with pytest.raises(ValueError):
        EvalConfig(mode="polygon")
    assert COCO_THRESHOLDS[0] == 0.5 and COCO_THRESHOLDS[-1] == 0.95 and len(COCO_THRESHOLDS) == 10


# -- match_instances -----------------------------------------------------------

def test_match_identity():
    gt = labels("f", (rect(0, 0, 8, 8), 1.0, None), (rect(20, 20, 8, 8), 1.0, None))
    assert match_ids(gt, gt, 0.5) == {0: 0, 1: 1}


def test_match_prefers_higher_iou():
    g1 = rect(0, 0, 10, 10)
    g2 = rect(0, 8, 10, 10)
    pred = rect(0, 1, 10, 10)  # IoU 9/11 with g1, shifted further from g2
    gt = labels("f", (g1, 1.0, None), (g2, 1.0, None))
    preds = labels("f", (pred, 0.9, None))
    assert match_ids(preds, gt, 0.5) == {0: 0}


def test_match_two_preds_one_gt():
    g = rect(0, 0, 10, 10)
    gt = labels("f", (g, 1.0, None))
    preds = labels("f", (g, 0.6, None), (g, 0.9, None))
    assert match_ids(preds, gt, 0.5) == {1: 0}  # higher score wins the only GT


def test_match_iou_tie_goes_to_lower_gt_id():
    g = rect(0, 0, 10, 10)
    gt = LabelSet("f", H, W, [InstanceLabel.from_mask(g, 1.0, i) for i in (7, 2, 5)])
    preds = labels("f", (g, 0.9, None), (g, 0.8, None))
    assert match_ids(preds, gt, 0.5) == {0: 2, 1: 5}


def test_match_dimension_mismatch():
    gt = labels("f", (rect(0, 0, 4, 4), 1.0, None))
    with pytest.raises(DimensionMismatch):
        match_ids(LabelSet("f", H, W + 1, []), gt, 0.5)


def test_match_box_mode():
    g = rect(0, 0, 10, 10)
    p = rect(0, 0, 10, 9)
    gt = labels("f", (g, 1.0, None))
    preds = labels("f", (p, 0.9, None))
    assert match_ids(preds, gt, 0.85, mode="box") == {0: 0}  # box IoU 0.9
    assert match_ids(preds, gt, 0.95, mode="box") == {}


# -- perfect / empty -------------------------------------------------------------

def test_identity_predictions_score_one():
    gt = [labels("a", (rect(0, 0, 8, 8), 1.0, None), (rect(30, 30, 10, 12), 1.0, None)),
          labels("b", (rect(4, 4, 20, 20), 1.0, None))]
    r = evaluate(gt, gt)
    assert r.ar == 1.0 and r.ap == 1.0
    assert all(v == 1.0 for v in r.ar_per_threshold + r.ap_per_threshold)


def test_empty_predictions():
    gt = [labels("a", (rect(0, 0, 8, 8), 1.0, None))]
    preds = [LabelSet("a", H, W, [])]
    r = evaluate(preds, gt)
    assert r.ar == 0.0 and r.ap == 0.0
    assert r.n_pred == 0 and r.n_gt == 1


def test_all_false_positives():
    gt = [labels("a", (rect(0, 0, 8, 8), 1.0, None))]
    preds = [labels("a", (rect(30, 40, 8, 8), 0.9, None))]
    r = evaluate(preds, gt)
    assert r.ap == 0.0 and r.ar == 0.0


def test_frame_mismatch():
    gt = [labels("a", (rect(0, 0, 8, 8), 1.0, None))]
    with pytest.raises(FrameMismatch):
        evaluate([], gt)
    with pytest.raises(FrameMismatch):
        evaluate([LabelSet("b", H, W, [])], gt)
    with pytest.raises(FrameMismatch):
        evaluate(gt, [])
    with pytest.raises(FrameMismatch):
        evaluate(gt + [LabelSet("b", H, W, [])], gt)


def untouchable(frames):
    """frames, then a failure if anything draws past them."""
    yield from frames
    raise AssertionError("drawn past the faulty frame")


def test_streamed_frames_fail_at_the_faulty_frame():
    a, b = (labels(f, (rect(0, 0, 8, 8), 1.0, {"moving": True})) for f in "ab")
    with pytest.raises(FrameMismatch, match="duplicate"):
        evaluate(untouchable([a, b, a]), untouchable([a, b, a]))
    with pytest.raises(FrameMismatch):
        evaluate(untouchable([a, b]), untouchable([a, a]))
    flagless = labels("c", (rect(0, 0, 8, 8), 1.0, None))
    with pytest.raises(MissingAttribute, match="'c'"):
        evaluate(untouchable([a, flagless]), untouchable([a, flagless]), with_attributes=True)


# -- hand-computed AP fixture -----------------------------------------------------

def test_ap_hand_fixture():
    # two GT objects; ranked predictions: TP(0.9), FP(0.8), TP(0.7)
    g1 = rect(0, 0, 10, 10)
    g2 = rect(20, 20, 10, 10)
    gt = [labels("a", (g1, 1.0, None), (g2, 1.0, None))]
    preds = [labels("a", (g1, 0.9, None), (rect(36, 50, 8, 8), 0.8, None), (g2, 0.7, None))]
    r = evaluate(preds, gt, AT50)
    # precision envelope: 1.0 for recall <= 0.5 (51 grid points), 2/3 above
    expected = (51 * 1.0 + 50 * (2 / 3)) / 101
    assert r.ap == pytest.approx(expected, abs=1e-12)
    assert r.ap == pytest.approx(ap101_ref([0.9, 0.8, 0.7], [True, False, True], 2), abs=1e-12)
    assert r.ar == 1.0


# -- bucket behaviour ---------------------------------------------------------------

def test_bucket_ar_weighted_average_recovers_overall():
    rng = np.random.default_rng(0)
    gt_frames, pred_frames = [], []
    for f in range(8):
        gts, preds = [], []
        for _ in range(int(rng.integers(1, 8))):
            h = int(rng.integers(3, 40))
            w = int(rng.integers(3, 40))
            y = int(rng.integers(0, H - h))
            x = int(rng.integers(0, W - w))
            gts.append((rect(y, x, h, w), 1.0, None))
            if rng.random() < 0.7:  # imperfect predictions
                dy, dx = int(rng.integers(0, 3)), int(rng.integers(0, 3))
                preds.append((rect(min(y + dy, H - h), min(x + dx, W - w), h, w),
                              float(rng.random()), None))
        gt_frames.append(labels(f"{f:03d}", *gts))
        pred_frames.append(labels(f"{f:03d}", *preds) if preds else LabelSet(f"{f:03d}", H, W, []))
    r = evaluate(pred_frames, gt_frames)
    weighted = sum(r.ar_by_size[b] * r.gt_by_size[b] for b in ("S", "M", "L")) / r.n_gt
    assert abs(weighted - r.ar) < 1e-9
    assert sum(r.gt_by_size.values()) == r.n_gt


def test_zero_gt_bucket_reports_zero():
    # dedicated large frame: only a >= 9216 px^2 object fits bucket L
    m = np.zeros((128, 128), dtype=bool)
    m[10:110, 10:110] = True  # 10000 px^2
    gt = [LabelSet("a", 128, 128, [InstanceLabel.from_mask(m, 1.0, 0)])]
    r = evaluate(gt, gt)
    assert r.gt_by_size == {"S": 0, "M": 0, "L": 1}
    assert r.ar_by_size["S"] == 0.0 and r.ap_by_size["S"] == 0.0
    assert r.ar_by_size["L"] == 1.0


# -- attribute split ------------------------------------------------------------------

def test_attribute_split_moving_only_preds():
    mov = rect(0, 0, 10, 10)
    sta = rect(20, 20, 10, 10)
    gt = [labels("a", (mov, 1.0, {"moving": True}), (sta, 1.0, {"moving": False}))]
    preds = [labels("a", (mov, 1.0, None))]
    split = evaluate(preds, gt, AT50, with_attributes=True).ar_by_attribute
    assert split == {"all": 0.5, "static": 0.0, "moving": 1.0}


def test_attribute_split_all_moving():
    mov = rect(0, 0, 10, 10)
    gt = [labels("a", (mov, 1.0, {"moving": True}))]
    split = evaluate(gt, gt, AT50, with_attributes=True).ar_by_attribute
    assert split["moving"] == 1.0
    assert split["static"] == 0.0  # no static GT: reported as zero


def test_attribute_split_missing_flag():
    gt = [labels("a", (rect(0, 0, 10, 10), 1.0, None))]
    with pytest.raises(MissingAttribute):
        evaluate(gt, gt, AT50, with_attributes=True).ar_by_attribute


# -- invariances ------------------------------------------------------------------------

def random_dataset(rng, n_frames):
    gt_frames, pred_frames = [], []
    for f in range(n_frames):
        gts, preds = [], []
        for _ in range(int(rng.integers(1, 9))):
            h = int(rng.integers(3, 24))
            w = int(rng.integers(3, 24))
            y = int(rng.integers(0, H - h))
            x = int(rng.integers(0, W - w))
            gts.append((rect(y, x, h, w), 1.0, None))
            roll = rng.random()
            if roll < 0.55:
                preds.append((rect(y, x, h, w), float(rng.integers(1, 20)) / 20.0, None))
            elif roll < 0.8:
                preds.append((rect(min(y + 2, H - h), x, h, w), float(rng.integers(1, 20)) / 20.0, None))
        gt_frames.append(labels(f"{f:03d}", *gts))
        pred_frames.append(labels(f"{f:03d}", *preds) if preds else LabelSet(f"{f:03d}", H, W, []))
    return pred_frames, gt_frames


def test_frame_order_invariance():
    rng = np.random.default_rng(21)
    preds, gt = random_dataset(rng, 6)
    a = evaluate(preds, gt)
    order = rng.permutation(len(gt))
    b = evaluate([preds[i] for i in order], [gt[i] for i in order])
    assert a == b


def test_iterators_score_like_lists():
    preds, gt = random_dataset(np.random.default_rng(5), 6)
    cfg = EvalConfig(iou_thresholds=(0.5, 0.75), max_dets=3)
    assert evaluate(iter(preds), iter(gt), cfg) == evaluate(preds, gt, cfg)
    assert evaluate(iter(()), iter(())) == evaluate([], [])


def test_equal_score_permutation_invariance():
    g1 = rect(0, 0, 10, 10)
    g2 = rect(20, 20, 10, 10)
    gt = [labels("a", (g1, 1.0, None), (g2, 1.0, None))]
    p1 = InstanceLabel.from_mask(g1, 0.7, 0)
    p2 = InstanceLabel.from_mask(g2, 0.7, 1)
    a = evaluate([LabelSet("a", H, W, [p1, p2])], gt)
    b = evaluate([LabelSet("a", H, W, [p2, p1])], gt)
    assert a == b


def test_ar_monotone_in_max_dets():
    rng = np.random.default_rng(33)
    preds, gt = random_dataset(rng, 5)
    last = 0.0
    for k in (1, 2, 3, 5, 8, 100):
        r = evaluate(preds, gt, EvalConfig(max_dets=k))
        assert r.ar >= last - 1e-12
        last = r.ar


# -- oracle agreement ----------------------------------------------------------------------

def test_matches_bruteforce_oracle_on_random_frames():
    rng = np.random.default_rng(8)
    for _ in range(30):
        preds, gt = random_dataset(rng, 3)
        cfg = EvalConfig(iou_thresholds=(0.5, 0.75))
        r = evaluate(preds, gt, cfg)
        for ti, thr in enumerate(cfg.iou_thresholds):
            matched_total = 0
            n_gt = 0
            pooled = []
            for pf, gf in zip(preds, gt):
                pm = [rle_decode(inst.mask) for inst in pf.instances]
                ps = [inst.score for inst in pf.instances]
                gm = [rle_decode(inst.mask) for inst in gf.instances]
                match = greedy_match_ref(pm, ps, gm, thr)
                matched_total += len(match)
                n_gt += len(gm)
                for i, inst in enumerate(pf.instances):
                    pooled.append((-inst.score, gf.frame_id, inst.instance_id, i in match))
            pooled.sort()
            want_ar = matched_total / n_gt if n_gt else 0.0
            assert abs(r.ar_per_threshold[ti] - want_ar) < 1e-9
            want_ap = ap101_ref([-k[0] for k in pooled], [k[3] for k in pooled], n_gt)
            assert abs(r.ap_per_threshold[ti] - want_ap) < 1e-9


def _sized_scene(rng, fid, side=160):
    """S, M and L objects with moving flags, plus jittered and stray predictions."""
    gts, preds = [], []
    for lo, hi in ((6, 30), (34, 92), (100, 150)):  # S, M and L sides at the default buckets
        for _ in range(int(rng.integers(1, 4))):
            h, w = (int(v) for v in rng.integers(lo, hi, size=2))
            y, x = int(rng.integers(0, side - h + 1)), int(rng.integers(0, side - w + 1))
            m = np.zeros((side, side), dtype=bool)
            m[y:y + h, x:x + w] = True
            gts.append((m, 1.0, {"moving": bool(rng.random() < 0.5)}))
            if rng.random() < 0.8:  # shifted and resized, so it may leave its bucket
                dh, dw = (int(v) for v in rng.integers(-h // 4, h // 4 + 1, size=2))
                y2 = min(max(y + int(rng.integers(-4, 5)), 0), side - 1)
                x2 = min(max(x + int(rng.integers(-4, 5)), 0), side - 1)
                p = np.zeros((side, side), dtype=bool)
                p[y2:y2 + max(h + dh, 1), x2:x2 + max(w + dw, 1)] = True
                preds.append((p, float(rng.random()), None))
    for _ in range(int(rng.integers(0, 4))):  # false positives of any size
        h, w = (int(v) for v in rng.integers(4, 120, size=2))
        p = np.zeros((side, side), dtype=bool)
        p[rng.integers(0, side - h):, rng.integers(0, side - w):][:h, :w] = True
        preds.append((p, float(rng.random()), None))

    def frame(entries):
        insts = [InstanceLabel.from_mask(m, sc, i, attributes=a)
                 for i, (m, sc, a) in enumerate(entries)]
        return LabelSet(fid, side, side, insts)
    return frame(preds), frame(gts)


def test_split_scores_match_bruteforce_oracle(monkeypatch):
    # every split follows the documented convention: a matched prediction
    # counts in its ground truth's size bucket, an unmatched one in its own
    seen = {}  # the pixel-loop IoU oracle, computed once per mask pair

    def cached_iou_ref(a, b):
        if (id(a), id(b)) not in seen:  # the entry keeps both arrays, so ids stay unique
            seen[id(a), id(b)] = (a, b, iou_ref(a, b))
        return seen[id(a), id(b)][2]
    monkeypatch.setattr(oracles, "iou_ref", cached_iou_ref)
    cfg = EvalConfig(iou_thresholds=(0.3, 0.5, 0.75))
    for seed in range(3):
        rng = np.random.default_rng(seed)
        frames = [_sized_scene(rng, f"{f:03d}") for f in range(3)]
        preds, gt = [p for p, _ in frames], [g for _, g in frames]
        r = evaluate(preds, gt, cfg, with_attributes=True)
        masks = [([rle_decode(i.mask) for i in pf.instances], [rle_decode(g.mask) for g in gf.instances])
                 for pf, gf in zip(preds, gt)]

        gts = [g for gf in gt for g in gf.instances]
        gt_size = [size_bucket(g.area) for g in gts]
        gt_moving = [g.attributes["moving"] for g in gts]
        groups = {"S": [b == "S" for b in gt_size], "M": [b == "M" for b in gt_size],
                  "L": [b == "L" for b in gt_size], "all": [True] * len(gts),
                  "static": [not m for m in gt_moving], "moving": gt_moving}
        recall = {k: [] for k in groups}
        ap_size = {b: [] for b in ("S", "M", "L")}
        for thr in cfg.iou_thresholds:
            found = []
            pooled = []  # (-score, frame id, instance id, matched, bucket)
            for pf, gf, (pm, gm) in zip(preds, gt, masks):
                match = greedy_match_ref(pm, [i.score for i in pf.instances], gm, thr)
                found += [j in match.values() for j in range(len(gf.instances))]
                for i, inst in enumerate(pf.instances):
                    bucket = (size_bucket(gf.instances[match[i]].area) if i in match
                              else size_bucket(inst.area))
                    pooled.append((-inst.score, gf.frame_id, inst.instance_id, i in match, bucket))
            pooled.sort()
            for k, members in groups.items():
                n = sum(members)
                recall[k].append(sum(f and m for f, m in zip(found, members)) / n if n else 0.0)
            for b in ap_size:
                kept = [e for e in pooled if e[4] == b]
                ap_size[b].append(ap101_ref([-e[0] for e in kept], [e[3] for e in kept],
                                            gt_size.count(b)))
        for b in ("S", "M", "L"):
            assert r.gt_by_size[b] == gt_size.count(b)
            assert abs(r.ar_by_size[b] - np.mean(recall[b])) < 1e-9
            assert abs(r.ap_by_size[b] - np.mean(ap_size[b])) < 1e-9
        for a in ("all", "static", "moving"):
            assert r.gt_by_attribute[a] == sum(groups[a])
            assert abs(r.ar_by_attribute[a] - np.mean(recall[a])) < 1e-9
        assert min(r.gt_by_size.values()) > 0 and r.gt_by_attribute["moving"] > 0


def test_iou_matrix_against_reference():
    rng = np.random.default_rng(4)
    for _ in range(10):
        a = rect(int(rng.integers(0, 30)), int(rng.integers(0, 40)), 10, 12)
        b = rect(int(rng.integers(0, 30)), int(rng.integers(0, 40)), 8, 14)
        gt = labels("f", (a, 1.0, None))
        preds = labels("f", (b, 0.9, None))
        got = match_ids(preds, gt, 1e-9)
        assert (got == {0: 0}) == (iou_ref(b, a) >= 1e-9)
