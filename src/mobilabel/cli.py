"""Command-line front end.

One binary, one subcommand per pipeline step:

  synth        generate a synthetic dataset directory
  init-labels  cluster motion-seeded depth points into initial labels
  rescale      shrink a label/raster set, or map labels back up
  aggregate    merge large- and small-scale proposals (or NMS baseline)
  filter       score-threshold or ground-truth-overlap filtering
  eval         class-agnostic recall/precision report
  pipeline     run the self-training rounds against an exchange dir

Every hyperparameter is declared once, as a flag whose stock default
is read from the code that owns it.  The flags of a config object
(SceneSpec, DbscanParams, AggParams, DetectorNoise, EvalConfig) store
under its field names and default to a default instance's values, and
each command builds the object from them by name.  argparse enforces
required flags, --workers >= 1, synth --frames >= 1, init-labels
--min-area >= 0 and the ranges of --conf, --min-iou, --nms-iou,
--motion-threshold, --scale and pipeline's --m2m-conf, --l2s-confs,
--l2s-scales and --jitter before any frame is read.  A label file
must be named after its frame id, since output files are named after
frame ids; any other is refused with exit code 2, as is an eval
prediction file whose frame has no ground truth.
--seed exists only where random numbers are drawn (synth, pipeline) and
-v only where per-frame progress is printed (synth, init-labels).  A
--config file (flat JSON object keyed by flag names) is parsed as flags
placed before the explicit ones, which win over it.  Exit codes: 0
success, 1 internal error, 2 usage or contract violation, 3 missing
inputs.  All outputs are byte-deterministic and independent of
--workers.
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
from .errors import FrameMismatch, MissingPredictions, MobilabelError
from .initlabel import DbscanParams, LabelSet, make_initial_labels
from .io import (
    DatasetLayout,
    _dump_json,
    read_depth,
    read_frame_labels,
    read_intrinsics,
    read_motion,
    read_transform,
    write_depth,
    write_intrinsics,
    write_labels,
    write_motion,
    write_transform,
)
from .metrics import EvalConfig, evaluate
from .rescale import invert_labels, make_transform, transform_labels, transform_raster
from .rounds import STAGES, RoundConfig, default_stages, gt_overlap_filter, run_pipeline, threshold_filter
from .synthgen import DetectorNoise, SceneSpec, generate_scene, mock_detector, scene_intrinsics

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_MISSING = 3


# -- plumbing ---------------------------------------------------------------------

def _each_frame(args, fn, frame_ids, **shared) -> list:
    """fn(frame_id, **shared) for every frame, results in frame order; with
    --workers above 1 the frames fan out over that many processes."""
    frame_ids = list(frame_ids)
    call = functools.partial(fn, **shared)
    if args.workers == 1 or len(frame_ids) <= 1:
        return [call(fid) for fid in frame_ids]
    with ProcessPoolExecutor(max_workers=args.workers) as pool:
        return list(pool.map(call, frame_ids))


def _from_flags(cls, args):
    """cls built by field name from the parsed flags, nargs lists as tuples."""
    values = {f.name: getattr(args, f.name) for f in dataclasses.fields(cls)}
    return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in values.items()})


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
    """dirpath/<fid>.json, refused unless its frame_id is fid: output file
    names come from frame ids, so an id cannot lead outside a directory."""
    return read_frame_labels(dirpath / f"{fid}.json", fid)


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
    spec = _from_flags(SceneSpec, args)
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
    ls = make_initial_labels(read_depth(layout.depth_path(fid)), read_motion(layout.motion_path(fid)),
                             k, params, motion_threshold, min_area, fid)
    write_labels(out / f"{fid}.json", ls)
    return len(ls.instances)


def cmd_init_labels(args) -> int:
    layout = DatasetLayout(_need_dir(args.data, "dataset"))
    _need_dir(layout.depth_dir, "depth")
    _need_dir(layout.motion_dir, "motion")
    _need_file(layout.intrinsics_path, "intrinsics file")
    ids = layout.validate()
    k = read_intrinsics(layout.intrinsics_path)
    params = _from_flags(DbscanParams, args)
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
    labels = _frame_labels(labels_in, fid)
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
    labels = _frame_labels(labels_in, fid)
    mapped = invert_labels(labels, read_transform(transforms_in / f"{fid}.json"))
    write_labels(out / "labels" / f"{fid}.json", mapped)
    return len(mapped.instances)


def cmd_rescale(args) -> int:
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
    insts = [dataclasses.replace(inst, instance_id=n)
             for n, inst in enumerate(list(large.instances) + list(small.instances))]
    return nms(LabelSet(large.frame_id, large.height, large.width, insts), iou_thrd)


def _aggregate_frame(fid, large_in, small_in, out, merge):
    large = _frame_labels(large_in, fid)
    small = _frame_labels(small_in, fid)
    merged = merge(large, small)
    write_labels(out / f"{fid}.json", merged)
    return len(large.instances) + len(small.instances), len(merged.instances)


def cmd_aggregate(args) -> int:
    large_in = _need_dir(args.large, "large-scale labels")
    small_in = _need_dir(args.small, "small-scale labels")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.nms:
        merge = functools.partial(_pooled_nms, iou_thrd=args.nms_iou)
        how = f"nms {args.nms_iou}"
    else:
        merge = functools.partial(mask_agg, p=_from_flags(AggParams, args))
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
    labels = _frame_labels(labels_in, fid)
    if gt_in is None:
        kept = keep(labels)
    else:
        _need_file(gt_in / f"{fid}.json", "ground-truth labels")
        kept = keep(labels, _frame_labels(gt_in, fid))
    write_labels(out / f"{fid}.json", kept)
    return len(labels.instances), len(kept.instances)


def cmd_filter(args) -> int:
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
    pred_in = _need_dir(args.pred, "predictions")
    gt_in = _need_dir(args.gt, "ground-truth labels")
    gt_ids = _label_ids(gt_in)
    extra = sorted(set(_label_ids(pred_in)) - set(gt_ids))
    if extra:
        raise FrameMismatch(f"predictions for frames without ground truth: {', '.join(extra)}")
    report = evaluate((_frame_labels(pred_in, fid) for fid in gt_ids),
                      (_frame_labels(gt_in, fid) for fid in gt_ids),
                      _from_flags(EvalConfig, args), with_attributes=args.attributes)
    if args.json:
        report_path = Path(args.json)
        report_path.parent.mkdir(parents=True, exist_ok=True)
        fields = {k: v for k, v in dataclasses.asdict(report).items() if v is not None}
        _dump_json(report_path, fields)
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
    return np.random.default_rng([seed, zlib.crc32(frame_id.encode("utf-8")), tag])


def _make_mock(gt_dir: Path, noise: DetectorNoise, seed: int, frame_ids: list[str]):
    for fid in frame_ids:  # every file is found before the pipeline writes anything
        _need_file(gt_dir / f"{fid}.json", "ground-truth labels")
    table = {fid: _frame_labels(gt_dir, fid) for fid in frame_ids}

    def detector(ls: LabelSet, transform):
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
    agg = _from_flags(AggParams, args)
    stages = (
        RoundConfig(stage="moving2mobile", conf_threshold=args.m2m_conf,
                    scale=tuple(args.jitter), epochs=args.m2m_epochs),
        RoundConfig(stage="large2small", conf_threshold=tuple(args.l2s_confs),
                    scale=tuple(args.l2s_scales), agg=agg, epochs=args.l2s_epochs),
        RoundConfig(stage="final", scale=tuple(args.jitter), epochs=args.final_epochs),
    )
    l0_in = _need_dir(args.l0, "initial labels")
    mock = None
    if args.mock_gt is not None:
        mock = (_need_dir(args.mock_gt, "mock ground truth"), _from_flags(DetectorNoise, args))
    l0 = [_frame_labels(l0_in, fid) for fid in _label_ids(l0_in)]
    detector = None if mock is None else _make_mock(*mock, args.seed, [ls.frame_id for ls in l0])
    results = run_pipeline(l0, stages, Path(args.exchange), detector=detector)
    out = Path(args.out)
    parts = []
    for stage in ("l0", *STAGES):
        stage_dir = out / stage
        stage_dir.mkdir(parents=True, exist_ok=True)
        for ls in results[stage]:
            write_labels(stage_dir / f"{ls.frame_id}.json", ls)
        parts.append(f"{stage} {sum(len(ls.instances) for ls in results[stage])}")
    print(f"pipeline: {len(l0)} frames, " + " -> ".join(parts) + f" instances -> {out}")
    return EXIT_OK


# -- parser -----------------------------------------------------------------------

def _checked(cast, ok, what: str):
    """argparse type: cast(text), refused as a usage error unless ok(value)."""
    def convert(text):
        value = cast(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{what}, got {text}")
        return value
    convert.__name__ = cast.__name__  # argparse names the type in "invalid float value"
    return convert


_COUNT = _checked(int, lambda v: v >= 1, "must be at least 1")
_UNIT = _checked(float, lambda v: 0 <= v <= 1, "must lie in [0, 1]")
_SCALE = _checked(float, lambda v: 0 < v <= 1 and np.isfinite(1 / v), "must lie in (0, 1] with a finite reciprocal")
_AREA = _checked(int, lambda v: v >= 0, "must be at least 0")


def _add_common(sp) -> None:
    sp.add_argument("--config", default=None,
                    help="JSON file of flag defaults; explicit flags win")
    sp.add_argument("--workers", type=_COUNT, default=1,
                    help="worker processes over frames for synth, init-labels, rescale, "
                         "aggregate and filter; eval and pipeline run in one process")


def _add_seed(sp) -> None:
    sp.add_argument("--seed", type=int, default=0, help="random seed")


def _add_verbose(sp) -> None:
    sp.add_argument("-v", "--verbose", action="store_true",
                    help="per-frame progress on stderr")


def _add_agg_flags(sp) -> None:
    sp.add_argument("--match-thrd", type=float,
                    help="IoU above which two masks count as the same object")
    sp.add_argument("--filt-frac", type=float,
                    help="coverage above which pre-filters drop a mask")
    sp.add_argument("--cover-frac", type=float,
                    help="coverage above which parts replace a large mask")


def _flag_defaults(obj) -> dict:
    """obj's fields for set_defaults, which also sets the default (and help) of
    each flag stored under a field name; tuples as the lists nargs parses into."""
    return {k: list(v) if isinstance(v, tuple) else v for k, v in vars(obj).items()}


def build_parser():
    m2m, l2s, final = default_stages()
    init = inspect.signature(make_initial_labels).parameters
    parser = argparse.ArgumentParser(
        prog="mobilabel",
        description="Unsupervised mobile-object label pipeline over depth and motion.")
    subs = parser.add_subparsers(dest="command", required=True, metavar="command")
    fmt = argparse.ArgumentDefaultsHelpFormatter

    sp = subs.add_parser("synth", formatter_class=fmt,
                         help="generate a synthetic dataset directory")
    sp.add_argument("--out", required=True, help="(required) dataset directory to create")
    sp.add_argument("--frames", type=_COUNT, default=10, help="number of frames")
    sp.add_argument("--height", type=int)
    sp.add_argument("--width", type=int)
    sp.add_argument("--objects", dest="n_objects", type=int, nargs=2,
                    metavar=("LO", "HI"), help="object count range")
    sp.add_argument("--depth-range", type=float, nargs=2,
                    metavar=("LO", "HI"), help="object depth range, meters")
    sp.add_argument("--moving-fraction", type=float)
    sp.add_argument("--size-range", type=int, nargs=2,
                    metavar=("LO", "HI"), help="object side range, pixels")
    sp.add_argument("--ellipse-fraction", type=float)
    sp.add_argument("--depth-sigma", type=float, help="depth noise sigma, meters")
    sp.add_argument("--motion-blur", type=int,
                    help="motion probability box-blur radius, pixels")
    sp.add_argument("--margin", type=int, help="object gap and border margin, pixels")
    _add_common(sp)
    _add_seed(sp)
    _add_verbose(sp)
    sp.set_defaults(fn=cmd_synth, **_flag_defaults(SceneSpec()))

    sp = subs.add_parser("init-labels", formatter_class=fmt,
                         help="initial labels from depth + motion clustering")
    sp.add_argument("--data", required=True, help="(required) dataset directory")
    sp.add_argument("--out", required=True, help="(required) output labels directory")
    sp.add_argument("--motion-threshold", type=_UNIT,
                    default=init["motion_threshold"].default,
                    help="motion probability cut, inclusive")
    sp.add_argument("--eps", type=float, help="clustering radius, meters")
    sp.add_argument("--min-pts", type=int, help="neighbors (incl. self) for a core point")
    sp.add_argument("--pixel-window", type=int,
                    help="neighbors lie within PIXEL_WINDOW // 2 rows and columns")
    sp.add_argument("--min-area", type=_AREA, default=init["min_area"].default,
                    help="drop clusters below this pixel area")
    _add_common(sp)
    _add_verbose(sp)
    sp.set_defaults(fn=cmd_init_labels, **_flag_defaults(DbscanParams()))

    sp = subs.add_parser("rescale", formatter_class=fmt,
                         help="shrink labels/rasters, or map labels back up")
    sp.add_argument("--labels", required=True, help="(required) input labels directory")
    sp.add_argument("--out", required=True, help="(required) output directory")
    sp.add_argument("--scale", type=_SCALE, default=l2s.scale[1], help="shrink factor")
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
    sp.add_argument("--large", required=True, help="(required) large-scale labels directory")
    sp.add_argument("--small", required=True, help="(required) small-scale labels directory")
    sp.add_argument("--out", required=True, help="(required) output labels directory")
    _add_agg_flags(sp)
    sp.add_argument("--nms", action="store_true",
                    help="greedy suppression baseline instead of mask aggregation")
    sp.add_argument("--nms-iou", type=_UNIT, default=0.5,
                    help="suppression IoU for --nms")
    _add_common(sp)
    sp.set_defaults(fn=cmd_aggregate, **_flag_defaults(AggParams()))

    sp = subs.add_parser("filter", formatter_class=fmt,
                         help="keep instances by score or ground-truth overlap")
    sp.add_argument("--labels", required=True, help="(required) input labels directory")
    sp.add_argument("--out", required=True, help="(required) output labels directory")
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--conf", type=_UNIT, default=None,
                       help="keep instances scoring at least this")
    group.add_argument("--gt-overlap", action="store_true",
                       help="keep instances overlapping ground truth (needs --gt)")
    sp.add_argument("--gt", default=None, help="ground-truth labels directory")
    sp.add_argument("--min-iou", type=_UNIT,
                    default=inspect.signature(gt_overlap_filter).parameters["min_iou"].default,
                    help="overlap cut for --gt-overlap, inclusive")
    _add_common(sp)
    sp.set_defaults(fn=cmd_filter)

    sp = subs.add_parser("eval", formatter_class=fmt,
                         help="class-agnostic average recall/precision")
    sp.add_argument("--pred", required=True, help="(required) prediction labels directory")
    sp.add_argument("--gt", required=True, help="(required) ground-truth labels directory")
    sp.add_argument("--mode", choices=("mask", "box"))
    sp.add_argument("--max-dets", type=int, help="predictions kept per frame, by score")
    sp.add_argument("--iou-thresholds", type=float, nargs="+", help="matching IoU grid")
    sp.add_argument("--attributes", action="store_true",
                    help="also split recall by the moving flag")
    sp.add_argument("--json", default=None, help="write the full report here")
    _add_common(sp)
    sp.set_defaults(fn=cmd_eval, **_flag_defaults(EvalConfig()))

    sp = subs.add_parser("pipeline", formatter_class=fmt,
                         help="run the self-training rounds")
    sp.add_argument("--l0", required=True, help="(required) initial labels directory")
    sp.add_argument("--exchange", required=True, help="(required) detector exchange root")
    sp.add_argument("--out", required=True, help="(required) per-stage output directory")
    sp.add_argument("--m2m-conf", type=_UNIT, default=m2m.conf_threshold,
                    help="first-round confidence cut")
    sp.add_argument("--l2s-confs", type=_UNIT, nargs=2, default=list(l2s.conf_threshold),
                    metavar=("LARGE", "SMALL"), help="two-scale confidence cuts")
    sp.add_argument("--l2s-scales", type=_SCALE, nargs=2, default=list(l2s.scale),
                    metavar=("LARGE", "SMALL"), help="two-scale inference factors")
    sp.add_argument("--jitter", type=_SCALE, nargs=2, default=list(m2m.scale),
                    metavar=("LO", "HI"), help="training scale jitter range")
    _add_agg_flags(sp)
    sp.add_argument("--m2m-epochs", type=int, default=m2m.epochs,
                    help="advisory epoch count for the first round")
    sp.add_argument("--l2s-epochs", type=int, default=l2s.epochs)
    sp.add_argument("--final-epochs", type=int, default=final.epochs)
    sp.add_argument("--mock-gt", default=None,
                    help="drive a built-in mock detector from these ground-truth "
                         "labels instead of reading external responses")
    sp.add_argument("--mock-dropout", dest="dropout", metavar="MOCK_DROPOUT", type=float)
    sp.add_argument("--mock-jitter", dest="mask_jitter", metavar="MOCK_JITTER", type=int,
                    help="mock mask shift amplitude, pixels")
    sp.add_argument("--mock-score-mean", dest="score_mean", metavar="MOCK_SCORE_MEAN",
                    type=float)
    sp.add_argument("--mock-score-sigma", dest="score_sigma", metavar="MOCK_SCORE_SIGMA",
                    type=float)
    sp.add_argument("--mock-fp", dest="false_positives", metavar="MOCK_FP", type=int,
                    help="mock false positives per frame")
    _add_common(sp)
    _add_seed(sp)
    sp.set_defaults(fn=cmd_pipeline, **_flag_defaults(l2s.agg),
                    **_flag_defaults(DetectorNoise()))

    return parser, subs


def _with_config(subs, argv):
    """(argv, config path): argv with the --config file's flags placed
    right after the subcommand, so argparse converts every value, an
    exclusive group sees both sources, and a later explicit flag wins.
    Keys are flag names without the leading dashes, `_` read as `-`."""
    pre = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    pre.add_argument("command", nargs="?")
    pre.add_argument("--config")
    known, _ = pre.parse_known_args(argv)
    if known.config is None or known.command not in subs.choices:
        return argv, known.config
    path = _need_file(known.config, "config file")
    try:
        data = json.loads(path.read_text())
    except (RecursionError, ValueError) as e:  # ValueError covers bad UTF-8 and bad JSON
        raise ValueError(f"config file {path}: {e}") from None
    if not isinstance(data, dict):
        raise ValueError(f"config file {path}: expected a flat object")
    actions = {flag: a for a in subs.choices[known.command]._actions for flag in a.option_strings}
    tokens = []
    for key, value in data.items():
        flag = "--" + key.replace("_", "-")
        action = actions.get(flag)
        if action is None or action.dest in ("help", "config"):
            raise ValueError(f"config file {path}: unknown option {key!r}")
        if action.nargs == 0:  # a switch
            if not isinstance(value, bool):
                raise ValueError(f"config file {path}: {key!r} must be true or false")
            tokens += [flag] if value else []
            continue
        values = value if isinstance(value, list) and action.nargs is not None else [value]
        if any(v is None or isinstance(v, (bool, list, dict)) for v in values):
            raise ValueError(f"config file {path}: {key!r} has an invalid value {value!r}")
        # --flag=value, so a value starting with "-" is not read as a flag
        tokens += [f"{flag}={value}"] if action.nargs is None else [flag, *map(str, values)]
    at = argv.index(known.command) + 1
    return [*argv[:at], *tokens, *argv[at:]], known.config


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser, subs = build_parser()
    try:
        argv, config = _with_config(subs, argv)
        args = parser.parse_args(argv)
        if args.config != config:  # an abbreviation the pre-parser cannot see
            parser.error("spell out --config in full")
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
