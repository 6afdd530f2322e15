"""Whole-subsystem acceptance checks, one test per shipping criterion.

Each test exercises a subsystem end to end against an independent
reference implementation (tests/oracles.py), an exact expected value,
or a stated behavioural bar, and enforces its own wall-clock budget.
Every test registers a one-line verdict that the conftest hook prints
after the run, so a single pytest invocation yields a pass/fail line
per criterion.
"""

import functools
import time
import zlib

import numpy as np

import conftest
import oracles
from oracles import ap101_ref, dbscan_matrix_ref, greedy_match_ref, iou_ref, mask_agg_literal

from mobilabel.aggregate import AggParams, mask_agg
from mobilabel.cli import main
from mobilabel.errors import FormatError
from mobilabel.initlabel import (
    CameraIntrinsics,
    DbscanParams,
    InstanceLabel,
    LabelSet,
    dbscan_partition,
    make_initial_labels,
    project,
    unproject,
)
from mobilabel.io import (
    read_depth,
    read_intrinsics,
    read_labels,
    read_motion,
    read_transform,
    write_depth,
    write_intrinsics,
    write_labels,
    write_motion,
    write_transform,
)
from mobilabel.maskcore import PreparedMask, iou, rle_decode, rle_encode
from mobilabel.metrics import COCO_THRESHOLDS, EvalConfig, evaluate
from mobilabel.rescale import ScaleTransform, invert_labels, make_transform, transform_labels
from mobilabel.rounds import default_config_snapshot, default_stages, run_pipeline
from mobilabel.synthgen import (
    DetectorNoise,
    SceneSpec,
    generate_scene,
    mock_detector,
    occlusion_fixture,
)


def criterion(name):
    """Tie a test to one summary line: pass with a detail string, or fail
    with the exception that sank it."""
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException as e:
                conftest.record(name, False, f"{type(e).__name__}: {e}")
                raise
            conftest.record(name, True, detail or "")
        return wrapper
    return deco


def rect(y, x, h, w, shape):
    m = np.zeros(shape, dtype=bool)
    m[y:y + h, x:x + w] = True
    return m


# -- 1. camera geometry -------------------------------------------------------

@criterion("pinhole unproject/project round trip, 10k random triples")
def test_pinhole_round_trip_recovers_pixels():
    rng = np.random.default_rng(1001)
    n = 10_000
    fx = rng.uniform(50.0, 2000.0, n)
    fy = rng.uniform(50.0, 2000.0, n)
    cx = rng.uniform(0.0, 64.0, n)
    cy = rng.uniform(0.0, 64.0, n)
    rr = rng.integers(0, 32, n)
    cc = rng.integers(0, 32, n)
    dd = rng.uniform(0.1, 80.0, n)

    depth = np.ones((32, 32))
    moving = np.zeros((32, 32), dtype=bool)
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(n):
        k = CameraIntrinsics(fx=float(fx[i]), fy=float(fy[i]),
                             cx=float(cx[i]), cy=float(cy[i]))
        r, c = int(rr[i]), int(cc[i])
        moving[r, c] = True
        depth[r, c] = dd[i]
        pt = unproject(depth, k, moving)[0]
        row, col = project(pt, k)
        worst = max(worst, abs(row - r), abs(col - c))
        moving[r, c] = False
    elapsed = time.perf_counter() - t0

    assert worst < 1e-9, f"round-trip error {worst:.3e}"
    assert elapsed < 1.0, f"{elapsed:.2f}s over the 1s budget"
    return f"max err {worst:.1e}, {elapsed:.2f}s < 1s"


# -- 2. clustering ------------------------------------------------------------

def _pixel_sets(masks):
    return {frozenset((int(r), int(c)) for r, c in zip(*np.nonzero(m)))
            for m in masks}


@criterion("pixel clustering equals the brute-force reference")
def test_clustering_matches_brute_force_partition():
    t0 = time.perf_counter()

    # abutting blocks at 5m vs 50m: only depth can split them
    depth, motion, k, expected = occlusion_fixture()
    pts = unproject(depth, k, motion >= 0.5)
    got = dbscan_partition(pts, DbscanParams(), depth.shape)
    assert len(got) == 2, f"expected 2 clusters, got {len(got)}"
    assert _pixel_sets(got) == _pixel_sets(expected)

    rng = np.random.default_rng(2002)
    grid_h = grid_w = 80
    f = 80.0
    sizes = [int(rng.integers(1, 300)) for _ in range(140)]
    sizes += [int(rng.integers(300, 1000)) for _ in range(45)]
    sizes += [int(rng.integers(1000, 1800)) for _ in range(14)]
    sizes += [2000]
    eps_pool = (0.2, 0.5, 1.0, 2.5)
    min_pts_pool = (1, 2, 4, 8)
    window_pool = (3, 5, 10, 11)

    for trial, n in enumerate(sizes):
        flat = rng.choice(grid_h * grid_w, size=n, replace=False)
        rows, cols = np.divmod(flat, grid_w)
        order = np.lexsort((cols, rows))
        rows, cols = rows[order], cols[order]
        # a few depth plateaus plus jitter, so clusters can split on depth
        d = rng.choice(np.array([5.0, 12.0, 30.0]), size=n) + rng.normal(0.0, 0.05, n)
        x = (cols - grid_w / 2.0) / f * d
        y = (rows - grid_h / 2.0) / f * d
        points = [(int(r), int(c), float(xi), float(yi), float(zi))
                  for r, c, xi, yi, zi in zip(rows, cols, x, y, d)]
        params = DbscanParams(eps=float(rng.choice(eps_pool)),
                              min_pts=int(rng.choice(min_pts_pool)),
                              pixel_window=int(rng.choice(window_pool)))
        got = dbscan_partition(points, params, (grid_h, grid_w))
        want = dbscan_matrix_ref(points, params.eps, params.min_pts, params.pixel_window)
        assert _pixel_sets(got) == set(want), f"set {trial} ({n} points, {params})"

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"{elapsed:.1f}s over the 30s budget"
    return f"200 sets + depth fixture, {elapsed:.1f}s < 30s"


# -- 3. proposal aggregation --------------------------------------------------

AGG_H, AGG_W = 40, 60


def _agg_labels(*entries):
    insts = [InstanceLabel.from_mask(m, score, i) for i, (m, score) in enumerate(entries)]
    return LabelSet("f", AGG_H, AGG_W, insts)


def _content(ls):
    return {(inst.mask.counts, round(inst.score, 12)) for inst in ls.instances}


def _literal_content(dicts):
    return {(rle_encode(d["mask"]).counts, round(d["score"], 12)) for d in dicts}


def _check_against_literal(ml_entries, ms_entries, params):
    ml = _agg_labels(*ml_entries)
    ms = _agg_labels(*ms_entries)
    got = mask_agg(ml, ms, params)
    want = mask_agg_literal(
        [{"mask": m, "score": s} for m, s in ml_entries],
        [{"mask": m, "score": s} for m, s in ms_entries],
        params.match_thrd, params.filt_frac, params.cover_frac,
    )
    assert _content(got) == _literal_content(want)
    return got


@criterion("two-scale aggregation equals the literal merge rules")
def test_aggregation_matches_literal_interpreter():
    t0 = time.perf_counter()
    params = AggParams()
    R = lambda y, x, h, w: rect(y, x, h, w, (AGG_H, AGG_W))

    # a group of parts jointly covering a large mask replaces it
    big = R(10, 10, 10, 30)
    parts = [R(10, 10 + k * 10, 10, 9) for k in range(3)]
    out = _check_against_literal([(big, 0.7)], [(p, 0.8) for p in parts], params)
    assert _content(out) == _content(_agg_labels(*[(p, 0.8) for p in parts]))

    # a single matching part: the higher-scoring mask wins
    big = R(0, 0, 10, 10)
    single = R(0, 0, 10, 9)
    out = _check_against_literal([(big, 0.7)], [(single, 0.9)], params)
    assert _content(out) == _content(_agg_labels((single, 0.9)))

    # zero mutual coverage: both sides are kept by the final unions
    lonely_large = R(0, 0, 10, 10)
    lonely_small = R(30, 40, 5, 5)
    out = _check_against_literal([(lonely_large, 0.6)], [(lonely_small, 0.9)], params)
    assert _content(out) == _content(_agg_labels((lonely_large, 0.6), (lonely_small, 0.9)))

    # empty small side: only the pre-filtered large masks survive
    big = R(0, 0, 20, 20)
    inner = R(2, 2, 10, 10)
    out = _check_against_literal([(big, 0.9), (inner, 0.8)], [], params)
    assert _content(out) == _content(_agg_labels((big, 0.9)))

    rng = np.random.default_rng(3003)

    def random_entries(n, lo, hi, taken):
        entries = []
        for _ in range(n):
            h = int(rng.integers(lo, hi))
            w = int(rng.integers(lo, hi))
            y = int(rng.integers(0, AGG_H - h))
            x = int(rng.integers(0, AGG_W - w))
            while True:
                score = round(float(rng.integers(1, 1000)) / 1000.0, 3)
                if score not in taken:
                    taken.add(score)
                    break
            entries.append((R(y, x, h, w), score))
        return entries

    for trial in range(50):
        taken = set()
        ml = random_entries(int(rng.integers(0, 7)), 8, 26, taken)
        ms = random_entries(int(rng.integers(0, 9)), 3, 12, taken)
        _check_against_literal(ml, ms, params)

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"{elapsed:.1f}s over the 10s budget"
    return f"4 fixtures + 50 random merges, {elapsed:.1f}s < 10s"


# -- 4. evaluation metrics ----------------------------------------------------

@criterion("AR/AP equal the exhaustive matching oracle within 1e-9")
def test_metrics_agree_with_bruteforce_oracle(monkeypatch):
    t0 = time.perf_counter()
    seen = {}  # the pixel-loop IoU oracle, computed once per mask pair

    def cached_iou_ref(a, b):
        if (id(a), id(b)) not in seen:  # the entry keeps both arrays, so ids stay unique
            seen[id(a), id(b)] = (a, b, iou_ref(a, b))
        return seen[id(a), id(b)][2]
    monkeypatch.setattr(oracles, "iou_ref", cached_iou_ref)
    rng = np.random.default_rng(4004)
    H = W = 64

    gt_frames, pred_frames = [], []
    for fi in range(100):
        fid = f"{fi:03d}"
        gts, preds = [], []
        for _ in range(int(rng.integers(0, 11))):
            h = int(rng.integers(3, 30))
            w = int(rng.integers(3, 30))
            y = int(rng.integers(0, H - h))
            x = int(rng.integers(0, W - w))
            gts.append(rect(y, x, h, w, (H, W)))
            if rng.random() < 0.75 and len(preds) < 10:
                dy, dx = int(rng.integers(0, 4)), int(rng.integers(0, 4))
                preds.append((rect(min(y + dy, H - h), min(x + dx, W - w), h, w, (H, W)),
                              float(rng.random())))
        while rng.random() < 0.4 and len(preds) < 10:  # unrelated false positives
            h = int(rng.integers(3, 12))
            w = int(rng.integers(3, 12))
            preds.append((rect(int(rng.integers(0, H - h)), int(rng.integers(0, W - w)),
                               h, w, (H, W)), float(rng.random())))
        gt_frames.append(LabelSet(fid, H, W, [
            InstanceLabel.from_mask(m, 1.0, i) for i, m in enumerate(gts)]))
        pred_frames.append(LabelSet(fid, H, W, [
            InstanceLabel.from_mask(m, s, i) for i, (m, s) in enumerate(preds)]))

    r = evaluate(pred_frames, gt_frames)
    masks = [([rle_decode(i.mask) for i in pf.instances], [rle_decode(i.mask) for i in gf.instances])
             for pf, gf in zip(pred_frames, gt_frames)]

    worst = 0.0
    ar_means, ap_means = [], []
    for ti, thr in enumerate(COCO_THRESHOLDS):
        matched_total = 0
        n_gt = 0
        pooled = []
        for pf, gf, (pm, gm) in zip(pred_frames, gt_frames, masks):
            ps = [inst.score for inst in pf.instances]
            match = greedy_match_ref(pm, ps, gm, thr)
            matched_total += len(match)
            n_gt += len(gm)
            for i, inst in enumerate(pf.instances):
                pooled.append((-inst.score, gf.frame_id, inst.instance_id, i in match))
        pooled.sort()
        want_ar = matched_total / n_gt if n_gt else 0.0
        want_ap = ap101_ref([-e[0] for e in pooled], [e[3] for e in pooled], n_gt)
        worst = max(worst, abs(r.ar_per_threshold[ti] - want_ar),
                    abs(r.ap_per_threshold[ti] - want_ap))
        ar_means.append(want_ar)
        ap_means.append(want_ap)
    worst = max(worst, abs(r.ar - float(np.mean(ar_means))),
                abs(r.ap - float(np.mean(ap_means))))
    assert worst < 1e-9, f"oracle disagreement {worst:.3e}"

    ident = evaluate(gt_frames, gt_frames)
    assert ident.ar == 1.0 and ident.ap == 1.0
    empty = evaluate([LabelSet(g.frame_id, H, W, []) for g in gt_frames], gt_frames)
    assert empty.ar == 0.0 and empty.ap == 0.0

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"{elapsed:.1f}s over the 60s budget"
    return f"max dev {worst:.1e}, identity 1.0, empty 0.0, {elapsed:.1f}s < 60s"


# -- 5. stock configuration ---------------------------------------------------

@criterion("stock defaults snapshot is exact")
def test_stock_defaults_snapshot_is_exact():
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
    return "9 settings match"


# -- 6. staged pipeline -------------------------------------------------------

@criterion("pipeline improves labels stage by stage on 100 frames")
def test_pipeline_improves_labels_stage_by_stage(tmp_path):
    t0 = time.perf_counter()
    spec = SceneSpec(seed=20260814, height=160, width=224, n_objects=(3, 6),
                     size_range=(20, 44), moving_fraction=0.5, depth_range=(4.0, 40.0))
    frames = [generate_scene(spec, i) for i in range(100)]
    gt = [g for _, _, _, g in frames]
    params = DbscanParams()
    l0 = [make_initial_labels(d, m, k, params, frame_id=g.frame_id)
          for d, m, k, g in frames]

    gt_by_id = {g.frame_id: g for g in gt}

    def make_detector(noise):
        # Stands in for a trained detector: at full resolution it only
        # finds instances of at least 1024 px (it never saw smaller ones
        # clean), while at the reduced scale everything is in range.
        def detector(ls, transform):
            g = gt_by_id[ls.frame_id]
            if transform is None or transform.scale == 1.0:
                kept = [inst for inst in g.instances if inst.area >= 1024]
                base = LabelSet(g.frame_id, g.height, g.width, kept)
                tag = 0 if transform is None else 1
            else:
                base = transform_labels(g, transform)
                tag = 2
            rng = np.random.default_rng([20260814, zlib.crc32(ls.frame_id.encode()), tag])
            return mock_detector(base, noise, rng)
        return detector

    stages = default_stages()
    noisy = run_pipeline(l0, stages, tmp_path / "noisy",
                         detector=make_detector(DetectorNoise(
                             mask_jitter=1, score_mean=0.95, score_sigma=0.02, dropout=0.05)))
    clean = run_pipeline(l0, stages, tmp_path / "clean",
                         detector=make_detector(DetectorNoise()))

    at50 = EvalConfig(iou_thresholds=(0.5,))
    split0 = evaluate(l0, gt, at50, with_attributes=True).ar_by_attribute
    split1 = evaluate(noisy["moving2mobile"], gt, at50, with_attributes=True).ar_by_attribute
    ar_s1 = evaluate(noisy["moving2mobile"], gt, at50).ar_by_size["S"]
    ar_s2 = evaluate(noisy["large2small"], gt, at50).ar_by_size["S"]
    final = evaluate(clean["final"], gt, at50)
    elapsed = time.perf_counter() - t0

    assert split0["moving"] >= 0.90, f"initial moving recall {split0['moving']:.3f}"
    assert split0["static"] == 0.0, f"initial static recall {split0['static']:.3f}"
    assert split1["static"] > split0["static"], "first round gained no static recall"
    assert ar_s2 > ar_s1, f"small-object recall {ar_s1:.3f} -> {ar_s2:.3f}"
    assert final.ar >= 0.95, f"noise-free final recall {final.ar:.3f}"
    assert elapsed < 300.0, f"{elapsed:.0f}s over the 300s budget"
    return (f"moving {split0['moving']:.2f}, static 0 -> {split1['static']:.2f}, "
            f"small {ar_s1:.2f} -> {ar_s2:.2f}, final {final.ar:.2f}, {elapsed:.0f}s < 300s")


# -- 7. scale round trip ------------------------------------------------------

@criterion("quarter-scale label round trip stays tight")
def test_rescale_round_trip_recovers_labels():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7007)
    H, W = 200, 260
    t = make_transform(H, W, 0.25)

    total = big = 0
    worst_box = 0.0
    worst_iou = 1.0
    for s in range(50):
        insts = []
        for i in range(10):
            h = int(rng.integers(6, 41))
            w = int(rng.integers(6, 41))
            y = int(rng.integers(0, H - h))
            x = int(rng.integers(0, W - w))
            insts.append(InstanceLabel.from_mask(
                rect(y, x, h, w, (H, W)), float(rng.uniform(0.05, 1.0)), i))
        ls = LabelSet(f"{s:03d}", H, W, insts)
        back = invert_labels(transform_labels(ls, t), t)
        assert [i.instance_id for i in back.instances] == [i.instance_id for i in ls.instances]
        for a, b in zip(ls.instances, back.instances):
            dev = max(abs(a.box.x - b.box.x), abs(a.box.y - b.box.y),
                      abs((a.box.x + a.box.w) - (b.box.x + b.box.w)),
                      abs((a.box.y + a.box.h) - (b.box.y + b.box.h)))
            worst_box = max(worst_box, dev)
            assert dev <= 4.0, f"box drifted {dev:.1f}px"
            total += 1
            if min(a.box.w, a.box.h) >= 20:
                big += 1
                v = iou(PreparedMask(a.mask), PreparedMask(b.mask))
                worst_iou = min(worst_iou, v)
                assert v >= 0.9, f"mask IoU {v:.3f} for a {a.box.w:.0f}x{a.box.h:.0f} blob"

    elapsed = time.perf_counter() - t0
    assert total == 500 and big >= 100
    assert elapsed < 10.0, f"{elapsed:.1f}s over the 10s budget"
    return (f"500 labels, box dev <= {worst_box:.0f}px, "
            f"IoU >= {worst_iou:.2f} on {big} blobs >= 20px, {elapsed:.1f}s < 10s")


# -- 8. file formats ----------------------------------------------------------

@criterion("fuzzed files fail typed, writers byte-stable")
def test_readers_reject_fuzz_and_writers_repeat_bytes(tmp_path):
    t0 = time.perf_counter()
    rng = np.random.default_rng(8008)

    depth = rng.uniform(0.5, 60.0, (12, 16))
    motion = (rng.random((12, 16)) < 0.3).astype(float)
    labels = LabelSet("000007", 12, 16, [
        InstanceLabel.from_mask(rect(1, 2, 4, 5, (12, 16)), 0.875, 0, {"moving": True}),
        InstanceLabel.from_mask(rect(6, 9, 5, 6, (12, 16)), 0.5, 1),
    ])
    intrinsics = CameraIntrinsics(fx=100.0, fy=120.0, cx=8.0, cy=6.0)
    transform = make_transform(12, 16, 0.25)

    formats = {
        "depth.dpf1": (write_depth, read_depth, depth),
        "motion.pgm": (write_motion, read_motion, motion),
        "labels.json": (write_labels, read_labels, labels),
        "intrinsics.json": (write_intrinsics, read_intrinsics, intrinsics),
        "transform.json": (write_transform, read_transform, transform),
    }

    # writers: identical input -> identical bytes, and stable under reread
    for name, (write, read, obj) in formats.items():
        a, b = tmp_path / f"a.{name}", tmp_path / f"b.{name}"
        write(a, obj)
        write(b, obj)
        assert a.read_bytes() == b.read_bytes(), f"{name} writer not deterministic"
        write(b, read(a))
        assert a.read_bytes() == b.read_bytes(), f"{name} unstable after reread"

    rejected = survived = 0
    for name, (write, read, obj) in formats.items():
        base = (tmp_path / f"a.{name}").read_bytes()
        target = tmp_path / f"fuzz.{name}"
        for _ in range(10_000):
            mode = int(rng.integers(0, 5))
            if mode == 0:
                data = base[:int(rng.integers(0, len(base) + 1))]
            elif mode == 1:
                data = bytearray(base)
                for _ in range(int(rng.integers(1, 9))):
                    data[int(rng.integers(0, len(data)))] ^= int(rng.integers(1, 256))
                data = bytes(data)
            elif mode == 2:
                pos = int(rng.integers(0, len(base) + 1))
                data = base[:pos] + rng.bytes(int(rng.integers(1, 17))) + base[pos:]
            elif mode == 3:
                data = b""
            else:
                data = rng.bytes(int(rng.integers(0, 200)))
            target.write_bytes(data)
            try:
                read(target)
                survived += 1
            except FormatError:
                rejected += 1

    elapsed = time.perf_counter() - t0
    assert rejected + survived == 50_000
    assert elapsed < 60.0, f"{elapsed:.1f}s over the 60s budget"
    return f"50k fuzzed reads ({rejected} rejected, {survived} still valid), {elapsed:.1f}s < 60s"


# -- 9. command-line determinism ----------------------------------------------

def _tree_bytes(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _run(argv):
    code = main(argv)
    assert code == 0, f"exit {code} for {argv}"


@criterion("every CLI command repeats byte-identically, incl. 8 workers")
def test_cli_reruns_are_byte_identical(tmp_path):
    t0 = time.perf_counter()

    def run_command(name, argv_of):
        # two plain runs plus two 8-worker runs; all four trees must agree
        trees = []
        for tag, extra in (("a", []), ("b", []), ("w8a", ["--workers", "8"]),
                           ("w8b", ["--workers", "8"])):
            out = tmp_path / f"{name}.{tag}"
            _run(argv_of(out) + extra)
            trees.append(_tree_bytes(out))
        assert trees[0] == trees[1] == trees[2] == trees[3], f"{name} runs differ"
        return tmp_path / f"{name}.a"

    data = run_command("synth", lambda out: [
        "synth", "--out", str(out), "--frames", "8", "--height", "96", "--width", "128",
        "--objects", "2", "4", "--size-range", "14", "32", "--seed", "11"])
    l0 = run_command("init", lambda out: [
        "init-labels", "--data", str(data), "--out", str(out)])
    run_command("rescale", lambda out: [
        "rescale", "--labels", str(l0), "--out", str(out), "--scale", "0.25",
        "--depth", str(data / "depth"), "--motion", str(data / "motion")])
    run_command("aggregate", lambda out: [
        "aggregate", "--large", str(l0), "--small", str(l0), "--out", str(out)])
    run_command("filter", lambda out: [
        "filter", "--labels", str(l0), "--out", str(out), "--conf", "0.8"])
    run_command("eval", lambda out: [
        "eval", "--pred", str(l0), "--gt", str(data / "labels"), "--attributes",
        "--json", str(out / "report.json")])
    run_command("pipeline", lambda out: [
        "pipeline", "--l0", str(l0), "--exchange", str(out / "exchange"),
        "--out", str(out / "stages"), "--mock-gt", str(data / "labels"),
        "--mock-jitter", "1", "--mock-score-mean", "0.9", "--mock-score-sigma", "0.05",
        "--mock-dropout", "0.1", "--mock-fp", "1", "--seed", "5"])

    elapsed = time.perf_counter() - t0
    return f"7 commands x 4 runs, {elapsed:.0f}s"
