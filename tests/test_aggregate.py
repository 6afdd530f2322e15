import numpy as np
import pytest

from mobilabel.aggregate import AggParams, _contains, _prepare, mask_agg, nms
from mobilabel.errors import DimensionMismatch
from mobilabel.initlabel import InstanceLabel, LabelSet
from mobilabel.maskcore import rle_decode

from oracles import mask_agg_literal

H, W = 40, 60


def rect(y, x, h, w):
    m = np.zeros((H, W), dtype=bool)
    m[y:y + h, x:x + w] = True
    return m


def labels(*entries):
    instances = [InstanceLabel.from_mask(m, score, i) for i, (m, score) in enumerate(entries)]
    return LabelSet("f", H, W, instances)


def content(ls):
    """Identity of a label set ignoring ids and ordering."""
    return {(inst.mask.counts, round(inst.score, 12)) for inst in ls.instances}


def filter_smaller(ml, filt_frac):
    """mask_agg's large-set pre-filter on its own: drop what a larger one holds."""
    prepared = _prepare(ml, 0)
    held = _contains(prepared, filt_frac).any(axis=0)
    return LabelSet(ml.frame_id, ml.height, ml.width, [p.inst for p, h in zip(prepared, held) if not h])


def filter_larger(ms, filt_frac):
    """mask_agg's small-set pre-filter on its own: drop what holds a smaller one."""
    prepared = _prepare(ms, 1)
    holds = _contains(prepared, filt_frac).any(axis=1)
    return LabelSet(ms.frame_id, ms.height, ms.width, [p.inst for p, h in zip(prepared, holds) if not h])


def agg_content(dicts):
    from mobilabel.maskcore import rle_encode
    return {(rle_encode(d["mask"]).counts, round(d["score"], 12)) for d in dicts}


DEFAULTS = AggParams()


def test_agg_params_defaults_and_validation():
    assert (DEFAULTS.match_thrd, DEFAULTS.filt_frac, DEFAULTS.cover_frac) == (0.5, 0.75, 0.5)
    with pytest.raises(ValueError):
        AggParams(match_thrd=0.0)
    with pytest.raises(ValueError):
        AggParams(filt_frac=1.0)


# -- pre-filters -----------------------------------------------------------

def test_remove_smaller_80_percent_inside():
    big = rect(0, 0, 20, 20)
    small = rect(2, 2, 10, 10)  # fully inside: coverage 1.0 > 0.75
    out = filter_smaller(labels((big, 0.9), (small, 0.8)), 0.75)
    assert content(out) == content(labels((big, 0.9)))


def test_remove_smaller_keeps_disjoint():
    ls = labels((rect(0, 0, 8, 8), 0.9), (rect(20, 20, 8, 8), 0.8))
    assert content(filter_smaller(ls, 0.75)) == content(ls)


def test_remove_smaller_70_percent_kept():
    big = rect(0, 0, 20, 20)
    small = rect(2, 14, 10, 10)  # 10x6 inside = 60 of 100 -> 0.6 <= 0.75
    ls = labels((big, 0.9), (small, 0.8))
    assert content(filter_smaller(ls, 0.75)) == content(ls)
    # 0.70 exactly is also kept (strict >)
    small7 = rect(2, 13, 10, 10)  # 10x7 inside = 0.7
    ls7 = labels((big, 0.9), (small7, 0.8))
    assert content(filter_smaller(ls7, 0.75)) == content(ls7)


def test_remove_larger_drops_container():
    container = rect(0, 0, 20, 20)
    inner = rect(5, 5, 10, 10)  # container covers it 100% > 0.75
    out = filter_larger(labels((container, 0.9), (inner, 0.8)), 0.75)
    assert content(out) == content(labels((inner, 0.8)))


def test_remove_larger_keeps_disjoint_and_equal_area():
    ls = labels((rect(0, 0, 8, 8), 0.9), (rect(20, 20, 8, 8), 0.8))
    assert content(filter_larger(ls, 0.75)) == content(ls)
    a = rect(0, 0, 8, 8)
    b = rect(0, 4, 8, 8)  # same area, 50% overlap: neither strictly larger
    ls2 = labels((a, 0.9), (b, 0.8))
    assert content(filter_larger(ls2, 0.5)) == content(ls2)


# -- mask_agg fixture cases ---------------------------------------------------

def group_case():
    big = rect(10, 10, 10, 30)                # 300 px
    parts = [rect(10, 10 + k * 10, 10, 9) for k in range(3)]  # each 90 px, jointly 0.9
    ml = labels((big, 0.7))
    ms = labels(*[(p, 0.8) for p in parts])
    return ml, ms, parts


def test_mask_agg_group_case():
    ml, ms, parts = group_case()
    out = mask_agg(ml, ms, DEFAULTS)
    assert content(out) == content(labels(*[(p, 0.8) for p in parts]))


def test_mask_agg_singleton_higher_score():
    big = rect(0, 0, 10, 10)
    single = rect(0, 0, 10, 9)  # IoU 0.9 with big
    out = mask_agg(labels((big, 0.7)), labels((single, 0.9)), DEFAULTS)
    assert content(out) == content(labels((single, 0.9)))
    # score tie keeps the large-branch mask (strict > in HigherScoring)
    out2 = mask_agg(labels((big, 0.9)), labels((single, 0.9)), DEFAULTS)
    assert content(out2) == content(labels((big, 0.9)))


def test_mask_agg_zero_coverage_union():
    lonely_large = rect(0, 0, 10, 10)
    lonely_small = rect(30, 40, 5, 5)
    out = mask_agg(labels((lonely_large, 0.6)), labels((lonely_small, 0.9)), DEFAULTS)
    assert content(out) == content(labels((lonely_large, 0.6), (lonely_small, 0.9)))


def test_mask_agg_empty_small_set():
    big = rect(0, 0, 20, 20)
    inner = rect(2, 2, 10, 10)  # dropped by the pre-filter
    ml = labels((big, 0.9), (inner, 0.8))
    out = mask_agg(ml, LabelSet("f", H, W, []), DEFAULTS)
    assert content(out) == content(filter_smaller(ml, DEFAULTS.filt_frac))


def test_mask_agg_empty_large_set():
    container = rect(0, 0, 20, 20)
    inner = rect(5, 5, 10, 10)
    ms = labels((container, 0.9), (inner, 0.8))
    out = mask_agg(LabelSet("f", H, W, []), ms, DEFAULTS)
    assert content(out) == content(filter_larger(ms, DEFAULTS.filt_frac))


def test_mask_agg_part_case_keeps_large():
    big = rect(10, 10, 12, 20)  # 240 px
    part = rect(12, 12, 4, 10)  # 40 px inside: coverage 1/6 < 0.5, IoU small
    out = mask_agg(labels((big, 0.7)), labels((part, 0.95)), DEFAULTS)
    assert content(out) == content(labels((big, 0.7)))


def test_mask_agg_dimension_mismatch():
    ml = labels((rect(0, 0, 4, 4), 1.0))
    ms = LabelSet("f", H + 1, W, [])
    with pytest.raises(DimensionMismatch):
        mask_agg(ml, ms, DEFAULTS)


def test_mask_agg_ids_sequential_scores_preserved():
    ml, ms, _ = group_case()
    out = mask_agg(ml, ms, DEFAULTS)
    assert [i.instance_id for i in out.instances] == list(range(len(out.instances)))
    assert all(i.score == 0.8 for i in out.instances)


def test_mask_agg_output_instances_are_inputs():
    ml, ms, _ = group_case()
    pool = content(ml) | content(ms)
    out = mask_agg(ml, ms, DEFAULTS)
    assert content(out) <= pool


def test_mask_agg_invariant_to_input_order():
    ml, ms, _ = group_case()
    ml_rev = LabelSet("f", H, W, list(reversed(ml.instances)))
    ms_rev = LabelSet("f", H, W, list(reversed(ms.instances)))
    a = mask_agg(ml, ms, DEFAULTS)
    b = mask_agg(ml_rev, ms_rev, DEFAULTS)
    assert a == b


def random_proposals(rng, n, lo, hi, taken_scores):
    entries = []
    for _ in range(n):
        h = int(rng.integers(lo, hi))
        w = int(rng.integers(lo, hi))
        y = int(rng.integers(0, H - h))
        x = int(rng.integers(0, W - w))
        while True:
            score = round(float(rng.integers(1, 1000)) / 1000.0, 3)
            if score not in taken_scores:
                taken_scores.add(score)
                break
        entries.append((rect(y, x, h, w), score))
    return entries


def test_mask_agg_matches_literal_interpreter_on_random_sets():
    rng = np.random.default_rng(314)
    params = AggParams()
    for trial in range(60):
        scores = set()
        ml_entries = random_proposals(rng, int(rng.integers(0, 7)), 8, 26, scores)
        ms_entries = random_proposals(rng, int(rng.integers(0, 9)), 3, 12, scores)
        ml = labels(*ml_entries) if ml_entries else LabelSet("f", H, W, [])
        ms = labels(*ms_entries) if ms_entries else LabelSet("f", H, W, [])
        got = mask_agg(ml, ms, params)
        want = mask_agg_literal(
            [{"mask": m, "score": s} for m, s in ml_entries],
            [{"mask": m, "score": s} for m, s in ms_entries],
            params.match_thrd, params.filt_frac, params.cover_frac,
        )
        assert content(got) == agg_content(want), f"trial {trial}"


def test_mask_agg_renumbering_keeps_every_other_field():
    def tagged(entries, large):
        return LabelSet("f", H, W, [
            InstanceLabel.from_mask(m, score, i, {"large": large, "moving": i % 2 == 0})
            for i, (m, score) in enumerate(entries)])

    rng = np.random.default_rng(2718)
    # random sets with distinct scores, then untouched masks of both sets
    # tied in score, which canonical order breaks by input id, large first
    cases = []
    for _ in range(40):
        scores = set()
        cases.append((random_proposals(rng, int(rng.integers(0, 7)), 8, 26, scores),
                      random_proposals(rng, int(rng.integers(0, 9)), 3, 12, scores)))
    cases.append(([(rect(0, 0, 9, 9), 0.5), (rect(0, 20, 9, 9), 0.5)],
                  [(rect(30, 0, 4, 4), 0.5), (rect(30, 20, 4, 4), 0.5)]))
    for ml_entries, ms_entries in cases:
        ml, ms = tagged(ml_entries, True), tagged(ms_entries, False)
        out = mask_agg(ml, ms, DEFAULTS)
        pool = {(i.mask, i.score, i.attributes["large"]): i for i in ml.instances + ms.instances}
        chosen = [pool[(i.mask, i.score, i.attributes["large"])] for i in out.instances]
        assert [i.instance_id for i in out.instances] == list(range(len(chosen)))
        assert [(i.mask, i.box, i.score, i.attributes) for i in out.instances] == \
            [(i.mask, i.box, i.score, i.attributes) for i in chosen]
        assert chosen == sorted(chosen, key=lambda i: (-i.score, i.instance_id,
                                                       not i.attributes["large"]))
    # the last, tied case: every mask is untouched and kept
    assert [(i.instance_id, i.attributes) for i in out.instances] == [
        (0, {"large": True, "moving": True}), (1, {"large": False, "moving": True}),
        (2, {"large": True, "moving": False}), (3, {"large": False, "moving": False})]


# -- nms ---------------------------------------------------------------------

def test_nms_identical_masks():
    m = rect(0, 0, 10, 10)
    out = nms(labels((m, 0.9), (m, 0.8)), 0.5)
    assert len(out.instances) == 1
    assert out.instances[0].score == 0.9


def test_nms_disjoint_all_kept():
    ls = labels((rect(0, 0, 6, 6), 0.9), (rect(10, 10, 6, 6), 0.8), (rect(20, 20, 6, 6), 0.7))
    assert len(nms(ls, 0.5).instances) == 3


def test_nms_chain_keeps_ends():
    # A and C are disjoint; B overlaps each at IoU 0.43. At threshold 0.4
    # the greedy pass keeps A, drops B against A, then keeps C.
    a = rect(0, 0, 10, 10)
    b = rect(1, 0, 20, 10)
    c = rect(12, 0, 10, 10)
    out = nms(labels((a, 0.9), (b, 0.8), (c, 0.7)), 0.4)
    assert content(out) == content(labels((a, 0.9), (c, 0.7)))


def test_nms_tie_breaks_by_lower_id():
    m = rect(0, 0, 10, 10)
    shifted = rect(0, 1, 10, 10)
    ls = labels((m, 0.8), (shifted, 0.8))
    out = nms(ls, 0.5)
    assert [i.instance_id for i in out.instances] == [0]


@pytest.mark.parametrize("iou_thrd", [-1.0, 1.5, 7.0, float("nan")])
def test_nms_rejects_threshold_outside_unit_interval(iou_thrd):
    m = rect(0, 0, 10, 10)
    with pytest.raises(ValueError):
        nms(labels((m, 0.9), (m, 0.8)), iou_thrd)


def test_nms_antichain_property():
    rng = np.random.default_rng(7)
    scores = set()
    ls = labels(*random_proposals(rng, 12, 4, 20, scores))
    out = nms(ls, 0.3)
    masks = [rle_decode(i.mask) for i in out.instances]
    for i in range(len(masks)):
        for j in range(i + 1, len(masks)):
            inter = (masks[i] & masks[j]).sum()
            union = (masks[i] | masks[j]).sum()
            assert inter / union <= 0.3
