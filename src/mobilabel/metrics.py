"""Class-agnostic recall/precision evaluation over label sets.

All predicted and ground-truth instances are treated as one class.
Matching is greedy per frame: predictions in descending score order each
take the unmatched ground-truth instance of highest IoU at or above the
threshold. One matching per (frame, threshold) feeds every reported
number, so size-bucket recalls weighted by their ground-truth counts
reproduce the overall recall exactly.

Conventions, chosen once and used everywhere:
- Instance area is the mask pixel count, in box mode too.
- Pooled rankings order by (score desc, frame_id, instance id), which
  makes every result independent of frame and instance list order.
- Bucketed precision ignores predictions that matched ground truth of
  another bucket and unmatched predictions whose own area falls outside
  the bucket; unmatched predictions inside it count as false positives.
- Empty denominators (no ground truth in a bucket, no predictions)
  report 0, never NaN; the counts are exposed alongside.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, FrameMismatch, MissingAttribute
from .initlabel import LabelSet
from .maskcore import PreparedMask, box_iou, iou

__all__ = [
    "EvalConfig",
    "EvalReport",
    "size_bucket",
    "match_instances",
    "evaluate",
    "attribute_split_ar",
    "COCO_THRESHOLDS",
]

COCO_THRESHOLDS = tuple(round(0.5 + 0.05 * i, 2) for i in range(10))
SIZE_NAMES = ("S", "M", "L")


@dataclass(frozen=True)
class EvalConfig:
    iou_thresholds: tuple[float, ...] = COCO_THRESHOLDS
    max_dets: int = 100
    size_buckets: tuple[float, float] = (1024.0, 9216.0)
    mode: str = "mask"

    def __post_init__(self):
        t = tuple(self.iou_thresholds)
        object.__setattr__(self, "iou_thresholds", t)
        if not t or any(not (0 < x <= 1) for x in t) or any(a >= b for a, b in zip(t, t[1:])):
            raise ValueError(f"iou_thresholds must be strictly increasing within (0, 1], got {t}")
        if self.max_dets < 1:
            raise ValueError(f"max_dets must be >= 1, got {self.max_dets}")
        if self.mode not in ("mask", "box"):
            raise ValueError(f"mode must be 'mask' or 'box', got {self.mode!r}")
        lo, hi = self.size_buckets
        if not (0 < lo < hi):
            raise ValueError(f"size bucket boundaries must be increasing, got {self.size_buckets}")


@dataclass
class EvalReport:
    """Recall and precision summary; thresholds align with the config."""

    ar: float
    ap: float
    ar_per_threshold: tuple[float, ...]
    ap_per_threshold: tuple[float, ...]
    ar_by_size: dict[str, float]
    ap_by_size: dict[str, float]
    n_gt: int
    n_pred: int
    gt_by_size: dict[str, int]
    ar_by_attribute: dict[str, float] | None = None
    gt_by_attribute: dict[str, int] | None = None


def size_bucket(area: float, boundaries: tuple[float, float] = (1024.0, 9216.0)) -> str:
    """S below the first boundary, M below the second, L otherwise."""
    if area < 0:
        raise ValueError(f"area must be non-negative, got {area}")
    if area < boundaries[0]:
        return "S"
    if area < boundaries[1]:
        return "M"
    return "L"


def _pred_order(labels: LabelSet) -> list:
    return sorted(labels.instances, key=lambda i: (-i.score, i.instance_id))


def _iou_matrix(preds, gts, mode: str) -> np.ndarray:
    if mode == "box":
        region, pair_iou = (lambda inst: inst.box), box_iou
    else:
        region, pair_iou = (lambda inst: PreparedMask(inst.mask)), iou
    gt_regions = [region(g) for g in gts]
    out = np.zeros((len(preds), len(gts)))
    for i, p in enumerate(preds):
        a = region(p)
        for j, b in enumerate(gt_regions):
            out[i, j] = pair_iou(a, b)
    return out


def _greedy(iou: np.ndarray, gts, thr: float) -> dict[int, int]:
    """pred row -> gt column under score-order greedy matching.

    Rows must already be in descending-score order. Ties in IoU go to the
    ground-truth instance with the lower id.
    """
    by_id = sorted(range(len(gts)), key=lambda j: gts[j].instance_id)
    taken = set()
    out = {}
    for i in range(iou.shape[0]):
        best_j, best = -1, -1.0
        for j in by_id:
            if j in taken:
                continue
            v = iou[i, j]
            if v >= thr and v > best:
                best_j, best = j, v
        if best_j >= 0:
            out[i] = best_j
            taken.add(best_j)
    return out


def match_instances(preds: LabelSet, gt: LabelSet, iou_thrd: float, mode: str = "mask") -> dict[int, int]:
    """Greedy matching for one frame: prediction id -> ground-truth id."""
    if (preds.height, preds.width) != (gt.height, gt.width):
        raise DimensionMismatch(
            f"prediction frame is {preds.height}x{preds.width}, ground truth {gt.height}x{gt.width}"
        )
    ordered = _pred_order(preds)
    iou = _iou_matrix(ordered, gt.instances, mode)
    raw = _greedy(iou, gt.instances, iou_thrd)
    return {ordered[i].instance_id: gt.instances[j].instance_id for i, j in raw.items()}


class _Frame:
    """Matching state for one frame across every threshold."""

    def __init__(self, preds: LabelSet, gt: LabelSet, cfg: EvalConfig):
        if (preds.height, preds.width) != (gt.height, gt.width):
            raise DimensionMismatch(
                f"frame {gt.frame_id!r}: predictions are {preds.height}x{preds.width}, "
                f"ground truth {gt.height}x{gt.width}"
            )
        self.frame_id = gt.frame_id
        self.preds = _pred_order(preds)[: cfg.max_dets]
        self.gts = gt.instances
        self.pred_bucket = [size_bucket(p.area, cfg.size_buckets) for p in self.preds]
        self.gt_bucket = [size_bucket(g.area, cfg.size_buckets) for g in self.gts]
        iou = _iou_matrix(self.preds, self.gts, cfg.mode)
        # matches[t][pred index] = gt index
        self.matches = {t: _greedy(iou, self.gts, t) for t in cfg.iou_thresholds}


def _interpolated_ap(entries: list[tuple], n_gt: int) -> float:
    """entries: (sort_key, kind) with kind 'tp'/'fp'/'ignore', pre-sorted."""
    if n_gt == 0:
        return 0.0
    tp = fp = 0
    recalls, precisions = [], []
    for _, kind in entries:
        if kind == "ignore":
            continue
        if kind == "tp":
            tp += 1
        else:
            fp += 1
        recalls.append(tp / n_gt)
        precisions.append(tp / (tp + fp))
    if not recalls:
        return 0.0
    rec = np.asarray(recalls)
    prec = np.asarray(precisions)
    prec = np.maximum.accumulate(prec[::-1])[::-1]  # envelope from the right
    # i / 100.0 is correctly rounded; linspace would give 70 * 0.01 > 0.7
    # and skip past a recall that is exactly 7/10.
    grid = np.arange(101) / 100.0
    idx = np.searchsorted(rec, grid, side="left")
    vals = np.where(idx < len(prec), prec[np.minimum(idx, len(prec) - 1)], 0.0)
    return float(vals.mean())


def _check_parallel(preds: list[LabelSet], gt: list[LabelSet]) -> None:
    if len(preds) != len(gt):
        raise FrameMismatch(f"{len(preds)} prediction frames vs {len(gt)} ground-truth frames")
    for p, g in zip(preds, gt):
        if p.frame_id != g.frame_id:
            raise FrameMismatch(f"frame id {p.frame_id!r} paired against {g.frame_id!r}")
    ids = [g.frame_id for g in gt]
    if len(set(ids)) != len(ids):
        raise FrameMismatch("duplicate frame ids in the ground-truth list")


def evaluate(preds: list[LabelSet], gt: list[LabelSet], cfg: EvalConfig = EvalConfig(),
             with_attributes: bool = False) -> EvalReport:
    """Full evaluation of parallel prediction/ground-truth frame lists."""
    _check_parallel(preds, gt)
    frames = [_Frame(p, g, cfg) for p, g in zip(preds, gt)]
    frames.sort(key=lambda f: f.frame_id)

    n_gt = sum(len(f.gts) for f in frames)
    n_pred = sum(len(f.preds) for f in frames)
    gt_by_size = {b: 0 for b in SIZE_NAMES}
    for f in frames:
        for b in f.gt_bucket:
            gt_by_size[b] += 1

    attr_names = ("all", "static", "moving")
    gt_by_attr = None
    if with_attributes:
        for f in frames:
            for g in f.gts:
                if g.attributes is None or "moving" not in g.attributes:
                    raise MissingAttribute(
                        f"frame {f.frame_id!r} instance {g.instance_id} lacks the moving flag"
                    )
        gt_by_attr = {
            "all": n_gt,
            "static": sum(not g.attributes["moving"] for f in frames for g in f.gts),
            "moving": sum(bool(g.attributes["moving"]) for f in frames for g in f.gts),
        }

    ar_t, ap_t = [], []
    ar_size_t = {b: [] for b in SIZE_NAMES}
    ap_size_t = {b: [] for b in SIZE_NAMES}
    ar_attr_t = {a: [] for a in attr_names}

    for t in cfg.iou_thresholds:
        matched = 0
        matched_size = {b: 0 for b in SIZE_NAMES}
        matched_attr = {a: 0 for a in attr_names}
        pooled = []
        for f in frames:
            m = f.matches[t]
            for i, p in enumerate(f.preds):
                key = (-p.score, f.frame_id, p.instance_id)
                if i in m:
                    pooled.append((key, "tp", f.gt_bucket[m[i]]))
                else:
                    pooled.append((key, "fp", f.pred_bucket[i]))
            matched += len(m)
            for j in m.values():
                matched_size[f.gt_bucket[j]] += 1
            if with_attributes:
                for j in m.values():
                    moving = bool(f.gts[j].attributes["moving"])
                    matched_attr["all"] += 1
                    matched_attr["moving" if moving else "static"] += 1
        pooled.sort(key=lambda e: e[0])

        ar_t.append(matched / n_gt if n_gt else 0.0)
        ap_t.append(_interpolated_ap([(k, kind) for k, kind, _ in pooled], n_gt))
        for b in SIZE_NAMES:
            ar_size_t[b].append(matched_size[b] / gt_by_size[b] if gt_by_size[b] else 0.0)
            entries = []
            for k, kind, bucket in pooled:
                if kind == "tp":
                    entries.append((k, "tp" if bucket == b else "ignore"))
                else:
                    entries.append((k, "fp" if bucket == b else "ignore"))
            ap_size_t[b].append(_interpolated_ap(entries, gt_by_size[b]))
        if with_attributes:
            for a in attr_names:
                denom = gt_by_attr[a]
                ar_attr_t[a].append(matched_attr[a] / denom if denom else 0.0)

    report = EvalReport(
        ar=float(np.mean(ar_t)),
        ap=float(np.mean(ap_t)),
        ar_per_threshold=tuple(ar_t),
        ap_per_threshold=tuple(ap_t),
        ar_by_size={b: float(np.mean(ar_size_t[b])) for b in SIZE_NAMES},
        ap_by_size={b: float(np.mean(ap_size_t[b])) for b in SIZE_NAMES},
        n_gt=n_gt,
        n_pred=n_pred,
        gt_by_size=gt_by_size,
    )
    if with_attributes:
        report.ar_by_attribute = {a: float(np.mean(ar_attr_t[a])) for a in attr_names}
        report.gt_by_attribute = gt_by_attr
    return report


def attribute_split_ar(preds: list[LabelSet], gt: list[LabelSet],
                       cfg: EvalConfig = EvalConfig()) -> dict[str, float]:
    """AR over all / static / moving ground truth; predictions unfiltered."""
    return evaluate(preds, gt, cfg, with_attributes=True).ar_by_attribute
