"""Command-line front end.

One binary, one subcommand per pipeline step:

  synth        generate a synthetic dataset directory
  init-labels  cluster motion-seeded depth points into initial labels
  rescale      shrink a label/raster set, or map labels back up
  aggregate    merge large- and small-scale proposals (or NMS baseline)
  filter       score-threshold or ground-truth-overlap filtering
  eval         class-agnostic recall/precision report
  pipeline     run the self-training rounds against an exchange dir

Every hyperparameter is a flag whose stock default is read from the
code that owns it (DbscanParams, AggParams, default_stages and the
function signatures), so the CLI cannot drift from the library; a
--config file (flat JSON object of flag names) supplies defaults, and
explicit flags win over it.  Exit codes: 0 success, 1 internal error,
2 usage or contract violation, 3 missing inputs.  All outputs are
byte-deterministic and independent of --workers.
"""

import argparse
import dataclasses
import functools
import inspect
import json
import sys
import zlib
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .aggregate import AggParams, mask_agg, nms
from .errors import MissingPredictions, MobilabelError
from .initlabel import DbscanParams, InstanceLabel, LabelSet, make_initial_labels
from .io import (
    DatasetLayout,
    _dump_json,
    atomic_write_bytes,
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
from .metrics import COCO_THRESHOLDS, EvalConfig, evaluate
from .rescale import invert_labels, make_transform, transform_labels, transform_raster
from .rounds import RoundConfig, default_stages, gt_overlap_filter, run_pipeline, threshold_filter
from .synthgen import DetectorNoise, SceneSpec, generate_scene, mock_detector, scene_intrinsics

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_MISSING = 3


# -- plumbing ---------------------------------------------------------------------

def _each_frame(args, fn, frame_ids, **shared) -> list:
    """fn(frame_id, **shared) for every frame, results in frame order; with
    --workers above 1 the frames fan out over that many processes."""
    if args.workers < 1:
        raise ValueError(f"workers must be at least 1, got {args.workers}")
    frame_ids = list(frame_ids)
    call = functools.partial(fn, **shared)
    if args.workers == 1 or len(frame_ids) <= 1:
        return [call(fid) for fid in frame_ids]
    with ProcessPoolExecutor(max_workers=args.workers) as pool:
        return list(pool.map(call, frame_ids))


def _require(args, *names) -> None:
    for name in names:
        if getattr(args, name) is None:
            raise ValueError(f"--{name.replace('_', '-')} is required")


def _need_dir(path, what: str) -> Path:
    path = Path(path)
    if not path.is_dir():
        raise FileNotFoundError(f"{what} directory not found: {path}")
    return path


def _need_file(path, what: str) -> Path:
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"{what} not found: {path}")
    return path


def _label_ids(dirpath: Path) -> list[str]:
    return sorted(p.stem for p in dirpath.glob("*.json"))


def _frame_labels(dirpath: Path, fid: str) -> LabelSet:
    path = dirpath / f"{fid}.json"
    if not path.exists():
        raise MissingPredictions(fid)
    return read_labels(path)


def _say(args, line: str) -> None:
    if args.verbose:
        print(line, file=sys.stderr)


# -- synth ------------------------------------------------------------------------

def _synth_frame(index, spec, layout):
    depth, motion, _, gt = generate_scene(spec, index)
    write_depth(layout.depth_path(gt.frame_id), depth)
    write_motion(layout.motion_path(gt.frame_id), motion)
    write_labels(layout.labels_path(gt.frame_id), gt)
    return gt.frame_id, len(gt.instances)


def cmd_synth(args) -> int:
    _require(args, "out")
    spec = SceneSpec(seed=args.seed, height=args.height, width=args.width,
                     n_objects=tuple(args.objects), depth_range=tuple(args.depth_range),
                     moving_fraction=args.moving_fraction,
                     size_range=tuple(args.size_range),
                     ellipse_fraction=args.ellipse_fraction,
                     depth_sigma=args.depth_sigma, motion_blur=args.motion_blur,
                     margin=args.margin)
    layout = DatasetLayout(Path(args.out))
    layout.ensure_dirs()
    write_intrinsics(layout.intrinsics_path, scene_intrinsics(spec))
    results = _each_frame(args, _synth_frame, range(args.frames), spec=spec, layout=layout)
    for fid, n in results:
        _say(args, f"frame {fid}: {n} instances")
    total = sum(n for _, n in results)
    print(f"synth: {len(results)} frames, {total} instances -> {layout.root}")
    return EXIT_OK


# -- init-labels --------------------------------------------------------------------

def _init_frame(fid, layout, out, k, params, motion_threshold, min_area):
    ls = make_initial_labels(read_depth(layout.depth_path(fid)),
                             read_motion(layout.motion_path(fid)), k, params,
                             motion_threshold=motion_threshold, min_area=min_area,
                             frame_id=fid)
    write_labels(out / f"{fid}.json", ls)
    return len(ls.instances)


def cmd_init_labels(args) -> int:
    _require(args, "data", "out")
    layout = DatasetLayout(_need_dir(args.data, "dataset"))
    _need_dir(layout.depth_dir, "depth")
    _need_dir(layout.motion_dir, "motion")
    _need_file(layout.intrinsics_path, "intrinsics file")
    ids = layout.validate()
    k = read_intrinsics(layout.intrinsics_path)
    params = DbscanParams(eps=args.eps, min_pts=args.min_pts,
                          pixel_window=args.pixel_window)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    counts = _each_frame(args, _init_frame, ids, layout=layout, out=out, k=k, params=params,
                         motion_threshold=args.motion_threshold, min_area=args.min_area)
    for fid, n in zip(ids, counts):
        _say(args, f"frame {fid}: {n} instances")
    print(f"init-labels: {len(ids)} frames, {sum(counts)} instances -> {out}")
    return EXIT_OK


# -- rescale ----------------------------------------------------------------------

def _shrink_frame(fid, labels_in, out, scale, depth_in, motion_in):
    labels = read_labels(labels_in / f"{fid}.json")
    t = make_transform(labels.height, labels.width, scale)
    write_transform(out / "transforms" / f"{fid}.json", t)
    shrunk = transform_labels(labels, t)
    write_labels(out / "labels" / f"{fid}.json", shrunk)
    if depth_in is not None:
        write_depth(out / "depth" / f"{fid}.dpf1",
                    transform_raster(read_depth(depth_in / f"{fid}.dpf1"), t, pad_value=1.0))
    if motion_in is not None:
        write_motion(out / "motion" / f"{fid}.pgm",
                     transform_raster(read_motion(motion_in / f"{fid}.pgm"), t, pad_value=0.0))
    return len(shrunk.instances)


def _invert_frame(fid, labels_in, out, transforms_in):
    labels = read_labels(labels_in / f"{fid}.json")
    mapped = invert_labels(labels, read_transform(transforms_in / f"{fid}.json"))
    write_labels(out / "labels" / f"{fid}.json", mapped)
    return len(mapped.instances)


def cmd_rescale(args) -> int:
    _require(args, "labels", "out")
    labels_in = _need_dir(args.labels, "labels")
    out = Path(args.out)
    ids = _label_ids(labels_in)
    if args.invert:
        if args.depth or args.motion:
            raise ValueError("rasters cannot be inverted; drop --depth/--motion")
        transforms_in = _need_dir(args.transforms or labels_in.parent / "transforms",
                                  "transforms")
        (out / "labels").mkdir(parents=True, exist_ok=True)
        counts = _each_frame(args, _invert_frame, ids, labels_in=labels_in, out=out,
                             transforms_in=transforms_in)
        mode = "invert"
    else:
        depth_in = _need_dir(args.depth, "depth") if args.depth else None
        motion_in = _need_dir(args.motion, "motion") if args.motion else None
        for sub, wanted in (("labels", True), ("transforms", True),
                            ("depth", depth_in), ("motion", motion_in)):
            if wanted:
                (out / sub).mkdir(parents=True, exist_ok=True)
        counts = _each_frame(args, _shrink_frame, ids, labels_in=labels_in, out=out,
                             scale=args.scale, depth_in=depth_in, motion_in=motion_in)
        mode = f"scale {args.scale}"
    print(f"rescale: {mode}, {len(ids)} frames, {sum(counts)} instances -> {out}")
    return EXIT_OK


# -- aggregate ----------------------------------------------------------------------

def _pooled_nms(large: LabelSet, small: LabelSet, iou_thrd: float) -> LabelSet:
    """The NMS baseline over both scales' proposals, renumbered in pool order."""
    insts = []
    for inst in list(large.instances) + list(small.instances):
        insts.append(InstanceLabel(mask=inst.mask, box=inst.box, score=inst.score,
                                   instance_id=len(insts), attributes=inst.attributes))
    return nms(LabelSet(large.frame_id, large.height, large.width, insts), iou_thrd)


def _aggregate_frame(fid, large_in, small_in, out, merge):
    large = _frame_labels(large_in, fid)
    small = _frame_labels(small_in, fid)
    merged = merge(large, small)
    write_labels(out / f"{fid}.json", merged)
    return len(large.instances) + len(small.instances), len(merged.instances)


def cmd_aggregate(args) -> int:
    _require(args, "large", "small", "out")
    large_in = _need_dir(args.large, "large-scale labels")
    small_in = _need_dir(args.small, "small-scale labels")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.nms:
        merge = functools.partial(_pooled_nms, iou_thrd=args.nms_iou)
        how = f"nms {args.nms_iou}"
    else:
        merge = functools.partial(mask_agg, p=AggParams(match_thrd=args.match_thrd,
                                                        filt_frac=args.filt_frac,
                                                        cover_frac=args.cover_frac))
        how = "mask-agg"
    ids = _label_ids(large_in)
    results = _each_frame(args, _aggregate_frame, ids, large_in=large_in,
                          small_in=small_in, out=out, merge=merge)
    n_in = sum(a for a, _ in results)
    n_out = sum(b for _, b in results)
    print(f"aggregate: {how}, {len(ids)} frames, {n_in} -> {n_out} instances -> {out}")
    return EXIT_OK


# -- filter -----------------------------------------------------------------------

def _filter_frame(fid, labels_in, out, keep, gt_in):
    labels = read_labels(labels_in / f"{fid}.json")
    kept = keep(labels) if gt_in is None else keep(labels, _frame_labels(gt_in, fid))
    write_labels(out / f"{fid}.json", kept)
    return len(labels.instances), len(kept.instances)


def cmd_filter(args) -> int:
    _require(args, "labels", "out")
    labels_in = _need_dir(args.labels, "labels")
    if args.gt_overlap:
        if args.gt is None:
            raise ValueError("--gt-overlap needs --gt")
        _need_dir(args.gt, "ground-truth labels")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.conf is not None:
        keep, gt_in = functools.partial(threshold_filter, conf=args.conf), None
        how = f"conf {args.conf}"
    else:
        keep, gt_in = functools.partial(gt_overlap_filter, min_iou=args.min_iou), Path(args.gt)
        how = f"gt-overlap {args.min_iou}"
    ids = _label_ids(labels_in)
    results = _each_frame(args, _filter_frame, ids, labels_in=labels_in, out=out,
                          keep=keep, gt_in=gt_in)
    n_in = sum(a for a, _ in results)
    n_out = sum(b for _, b in results)
    print(f"filter: {how}, {len(ids)} frames, kept {n_out} of {n_in} -> {out}")
    return EXIT_OK


# -- eval -------------------------------------------------------------------------

def cmd_eval(args) -> int:
    _require(args, "pred", "gt")
    pred_in = _need_dir(args.pred, "predictions")
    gt_in = _need_dir(args.gt, "ground-truth labels")
    gt_ids = _label_ids(gt_in)
    preds, gts = [], []
    for fid in gt_ids:
        preds.append(_frame_labels(pred_in, fid))
        gts.append(read_labels(gt_in / f"{fid}.json"))
    cfg = EvalConfig(iou_thresholds=tuple(args.iou_thresholds),
                     max_dets=args.max_dets, mode=args.mode)
    report = evaluate(preds, gts, cfg, with_attributes=args.attributes)
    if args.json:
        report_path = Path(args.json)
        report_path.parent.mkdir(parents=True, exist_ok=True)
        fields = {k: v for k, v in dataclasses.asdict(report).items() if v is not None}
        atomic_write_bytes(report_path, _dump_json(fields))
    line = (f"eval: AR {report.ar:.4f} AP {report.ap:.4f}"
            f" (S {report.ar_by_size['S']:.4f}"
            f" M {report.ar_by_size['M']:.4f}"
            f" L {report.ar_by_size['L']:.4f})"
            f" gt {report.n_gt} pred {report.n_pred} frames {len(gt_ids)}")
    if report.ar_by_attribute is not None:
        line += (f" moving {report.ar_by_attribute['moving']:.4f}"
                 f" static {report.ar_by_attribute['static']:.4f}")
    print(line)
    return EXIT_OK


# -- pipeline ---------------------------------------------------------------------

def _frame_rng(seed: int, frame_id: str, tag: int) -> np.random.Generator:
    # per (frame, branch) stream: independent of visit order and workers
    return np.random.default_rng([seed, zlib.crc32(frame_id.encode("ascii")), tag])


def _make_mock(gt_dir: Path, noise: DetectorNoise, seed: int):
    table = {p.stem: read_labels(p) for p in sorted(gt_dir.glob("*.json"))}

    def detector(ls: LabelSet, transform):
        if ls.frame_id not in table:
            raise MissingPredictions(ls.frame_id)
        gt = table[ls.frame_id]
        if transform is None:
            base, tag, region = gt, 0, None
        else:
            base = transform_labels(gt, transform)
            tag = 1 + int(round(transform.scale * 1_000_000))
            region = (transform.content_height, transform.content_width)
        return mock_detector(base, noise, _frame_rng(seed, ls.frame_id, tag),
                             region=region)

    return detector


def cmd_pipeline(args) -> int:
    _require(args, "l0", "exchange", "out")
    l0_in = _need_dir(args.l0, "initial labels")
    detector = None
    if args.mock_gt is not None:
        noise = DetectorNoise(mask_jitter=args.mock_jitter,
                              score_mean=args.mock_score_mean,
                              score_sigma=args.mock_score_sigma,
                              dropout=args.mock_dropout,
                              false_positives=args.mock_fp)
        detector = _make_mock(_need_dir(args.mock_gt, "mock ground truth"),
                              noise, args.seed)
    agg = AggParams(match_thrd=args.match_thrd, filt_frac=args.filt_frac,
                    cover_frac=args.cover_frac)
    stages = (
        RoundConfig(stage="moving2mobile", conf_threshold=args.m2m_conf,
                    scale=tuple(args.jitter), epochs=args.m2m_epochs),
        RoundConfig(stage="large2small", conf_threshold=tuple(args.l2s_confs),
                    scale=tuple(args.l2s_scales), agg=agg, epochs=args.l2s_epochs),
        RoundConfig(stage="final", scale=tuple(args.jitter), epochs=args.final_epochs),
    )
    l0 = [read_labels(p) for p in sorted(l0_in.glob("*.json"))]
    results = run_pipeline(l0, stages, Path(args.exchange), detector=detector)
    out = Path(args.out)
    parts = []
    for stage in ("l0", "moving2mobile", "large2small", "final"):
        stage_dir = out / stage
        stage_dir.mkdir(parents=True, exist_ok=True)
        for ls in results[stage]:
            write_labels(stage_dir / f"{ls.frame_id}.json", ls)
        parts.append(f"{stage} {sum(len(ls.instances) for ls in results[stage])}")
    print(f"pipeline: {len(l0)} frames, " + " -> ".join(parts) + f" instances -> {out}")
    return EXIT_OK


# -- parser -----------------------------------------------------------------------

def _add_common(sp) -> None:
    sp.add_argument("--config", default=None,
                    help="JSON file of flag defaults; explicit flags win")
    sp.add_argument("--workers", type=int, default=1,
                    help="worker processes over frames for synth, init-labels, rescale, "
                         "aggregate and filter; eval and pipeline run in one process")
    sp.add_argument("--seed", type=int, default=0, help="random seed")
    sp.add_argument("-v", "--verbose", action="store_true",
                    help="per-frame progress on stderr")


def _default(fn, name: str):
    return inspect.signature(fn).parameters[name].default


def build_parser():
    dbscan, agg = DbscanParams(), AggParams()
    m2m, l2s, final = default_stages()
    parser = argparse.ArgumentParser(
        prog="mobilabel",
        description="Unsupervised mobile-object label pipeline over depth and motion.")
    subs = parser.add_subparsers(dest="command", required=True, metavar="command")
    fmt = argparse.ArgumentDefaultsHelpFormatter

    sp = subs.add_parser("synth", formatter_class=fmt,
                         help="generate a synthetic dataset directory")
    sp.add_argument("--out", help="(required) dataset directory to create")
    sp.add_argument("--frames", type=int, default=10, help="number of frames")
    sp.add_argument("--height", type=int, default=128)
    sp.add_argument("--width", type=int, default=192)
    sp.add_argument("--objects", type=int, nargs=2, default=[3, 6],
                    metavar=("LO", "HI"), help="object count range")
    sp.add_argument("--depth-range", type=float, nargs=2, default=[4.0, 40.0],
                    metavar=("LO", "HI"), help="object depth range, meters")
    sp.add_argument("--moving-fraction", type=float, default=0.5)
    sp.add_argument("--size-range", type=int, nargs=2, default=[16, 48],
                    metavar=("LO", "HI"), help="object side range, pixels")
    sp.add_argument("--ellipse-fraction", type=float, default=0.5)
    sp.add_argument("--depth-sigma", type=float, default=0.0,
                    help="depth noise sigma, meters")
    sp.add_argument("--motion-blur", type=int, default=0,
                    help="motion probability box-blur radius, pixels")
    sp.add_argument("--margin", type=int, default=8,
                    help="object gap and border margin, pixels")
    _add_common(sp)
    sp.set_defaults(fn=cmd_synth)

    sp = subs.add_parser("init-labels", formatter_class=fmt,
                         help="initial labels from depth + motion clustering")
    sp.add_argument("--data", help="(required) dataset directory")
    sp.add_argument("--out", help="(required) output labels directory")
    sp.add_argument("--motion-threshold", type=float,
                    default=_default(make_initial_labels, "motion_threshold"),
                    help="motion probability cut, inclusive")
    sp.add_argument("--eps", type=float, default=dbscan.eps,
                    help="clustering radius, meters")
    sp.add_argument("--min-pts", type=int, default=dbscan.min_pts,
                    help="neighbors (incl. self) for a core point")
    sp.add_argument("--pixel-window", type=int, default=dbscan.pixel_window,
                    help="pixel neighborhood width")
    sp.add_argument("--min-area", type=int, default=_default(make_initial_labels, "min_area"),
                    help="drop clusters below this pixel area")
    _add_common(sp)
    sp.set_defaults(fn=cmd_init_labels)

    sp = subs.add_parser("rescale", formatter_class=fmt,
                         help="shrink labels/rasters, or map labels back up")
    sp.add_argument("--labels", help="(required) input labels directory")
    sp.add_argument("--out", help="(required) output directory")
    sp.add_argument("--scale", type=float, default=0.25, help="shrink factor")
    sp.add_argument("--invert", action="store_true",
                    help="map labels back through recorded transforms")
    sp.add_argument("--transforms", default=None,
                    help="transform directory for --invert "
                         "(default: <labels>/../transforms)")
    sp.add_argument("--depth", default=None, help="also shrink this depth directory")
    sp.add_argument("--motion", default=None, help="also shrink this motion directory")
    _add_common(sp)
    sp.set_defaults(fn=cmd_rescale)

    sp = subs.add_parser("aggregate", formatter_class=fmt,
                         help="merge large- and small-scale proposals")
    sp.add_argument("--large", help="(required) large-scale labels directory")
    sp.add_argument("--small", help="(required) small-scale labels directory")
    sp.add_argument("--out", help="(required) output labels directory")
    sp.add_argument("--match-thrd", type=float, default=agg.match_thrd,
                    help="IoU above which two masks count as the same object")
    sp.add_argument("--filt-frac", type=float, default=agg.filt_frac,
                    help="coverage above which pre-filters drop a mask")
    sp.add_argument("--cover-frac", type=float, default=agg.cover_frac,
                    help="coverage above which parts replace a large mask")
    sp.add_argument("--nms", action="store_true",
                    help="greedy suppression baseline instead of mask aggregation")
    sp.add_argument("--nms-iou", type=float, default=0.5,
                    help="suppression IoU for --nms")
    _add_common(sp)
    sp.set_defaults(fn=cmd_aggregate)

    sp = subs.add_parser("filter", formatter_class=fmt,
                         help="keep instances by score or ground-truth overlap")
    sp.add_argument("--labels", help="(required) input labels directory")
    sp.add_argument("--out", help="(required) output labels directory")
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--conf", type=float, default=None,
                       help="keep instances scoring at least this")
    group.add_argument("--gt-overlap", action="store_true",
                       help="keep instances overlapping ground truth (needs --gt)")
    sp.add_argument("--gt", default=None, help="ground-truth labels directory")
    sp.add_argument("--min-iou", type=float, default=_default(gt_overlap_filter, "min_iou"),
                    help="overlap cut for --gt-overlap, inclusive")
    _add_common(sp)
    sp.set_defaults(fn=cmd_filter)

    sp = subs.add_parser("eval", formatter_class=fmt,
                         help="class-agnostic average recall/precision")
    sp.add_argument("--pred", help="(required) prediction labels directory")
    sp.add_argument("--gt", help="(required) ground-truth labels directory")
    sp.add_argument("--mode", choices=("mask", "box"), default="mask")
    sp.add_argument("--max-dets", type=int, default=100,
                    help="predictions kept per frame, by score")
    sp.add_argument("--iou-thresholds", type=float, nargs="+",
                    default=list(COCO_THRESHOLDS), help="matching IoU grid")
    sp.add_argument("--attributes", action="store_true",
                    help="also split recall by the moving flag")
    sp.add_argument("--json", default=None, help="write the full report here")
    _add_common(sp)
    sp.set_defaults(fn=cmd_eval)

    sp = subs.add_parser("pipeline", formatter_class=fmt,
                         help="run the self-training rounds")
    sp.add_argument("--l0", help="(required) initial labels directory")
    sp.add_argument("--exchange", help="(required) detector exchange root")
    sp.add_argument("--out", help="(required) per-stage output directory")
    sp.add_argument("--m2m-conf", type=float, default=m2m.conf_threshold,
                    help="first-round confidence cut")
    sp.add_argument("--l2s-confs", type=float, nargs=2, default=list(l2s.conf_threshold),
                    metavar=("LARGE", "SMALL"), help="two-scale confidence cuts")
    sp.add_argument("--l2s-scales", type=float, nargs=2, default=list(l2s.scale),
                    metavar=("LARGE", "SMALL"), help="two-scale inference factors")
    sp.add_argument("--jitter", type=float, nargs=2, default=list(m2m.scale),
                    metavar=("LO", "HI"), help="training scale jitter range")
    sp.add_argument("--match-thrd", type=float, default=l2s.agg.match_thrd)
    sp.add_argument("--filt-frac", type=float, default=l2s.agg.filt_frac)
    sp.add_argument("--cover-frac", type=float, default=l2s.agg.cover_frac)
    sp.add_argument("--m2m-epochs", type=int, default=m2m.epochs,
                    help="advisory epoch count for the first round")
    sp.add_argument("--l2s-epochs", type=int, default=l2s.epochs)
    sp.add_argument("--final-epochs", type=int, default=final.epochs)
    sp.add_argument("--mock-gt", default=None,
                    help="drive a built-in mock detector from these ground-truth "
                         "labels instead of reading external responses")
    sp.add_argument("--mock-dropout", type=float, default=0.0)
    sp.add_argument("--mock-jitter", type=int, default=0,
                    help="mock mask shift amplitude, pixels")
    sp.add_argument("--mock-score-mean", type=float, default=1.0)
    sp.add_argument("--mock-score-sigma", type=float, default=0.0)
    sp.add_argument("--mock-fp", type=int, default=0,
                    help="mock false positives per frame")
    _add_common(sp)
    sp.set_defaults(fn=cmd_pipeline)

    return parser, subs


def _apply_config(parser, subs, args, argv):
    path = _need_file(args.config, "config file")
    try:
        data = json.loads(path.read_text())
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ValueError(f"config file {path}: {e}") from None
    if not isinstance(data, dict):
        raise ValueError(f"config file {path}: expected a flat object")
    sub = subs.choices[args.command]
    known = {a.dest for a in sub._actions}
    overrides = {}
    for key, value in data.items():
        dest = key.replace("-", "_")
        if dest not in known or dest in ("help", "config"):
            raise ValueError(f"config file {path}: unknown option {key!r}")
        overrides[dest] = value
    sub.set_defaults(**overrides)
    return parser.parse_args(argv)  # explicit flags beat config defaults


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser, subs = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            args = _apply_config(parser, subs, args, argv)
        return args.fn(args)
    except SystemExit as e:  # argparse usage errors and --help
        return e.code if isinstance(e.code, int) else EXIT_USAGE
    except (FileNotFoundError, NotADirectoryError, MissingPredictions) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_MISSING
    except (MobilabelError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as e:  # pragma: no cover - safety net
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
