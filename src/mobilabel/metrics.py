"""Class-agnostic recall/precision evaluation over label sets.

All predicted and ground-truth instances are treated as one class.
Matching is greedy per frame: predictions in descending score order each
take the unmatched ground-truth instance of highest IoU at or above the
threshold. One matching per (frame, threshold) feeds every reported
number, so size-bucket recalls weighted by their ground-truth counts
reproduce the overall recall exactly. The pooled predictions are ranked
once; per threshold, one hit vector over that ranking gives every AP
and one found vector over the pooled ground truth gives every recall
(overall, per size bucket, static/moving).

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
    "evaluate",
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


def size_bucket(area: float, boundaries: tuple[float, float] = EvalConfig.size_buckets) -> str:
    """S below the first boundary, M below the second, L otherwise."""
    if area < 0:
        raise ValueError(f"area must be non-negative, got {area}")
    if area < boundaries[0]:
        return "S"
    if area < boundaries[1]:
        return "M"
    return "L"


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


def _match_frame(preds: LabelSet, gt: LabelSet, mode: str, thresholds,
                 max_dets: int | None = None) -> tuple[list, list[dict[int, int]]]:
    """One frame's top-scoring predictions and, per threshold, their
    greedy matching (pred index -> gt index)."""
    if (preds.height, preds.width) != (gt.height, gt.width):
        raise DimensionMismatch(
            f"frame {gt.frame_id!r}: predictions are {preds.height}x{preds.width}, "
            f"ground truth {gt.height}x{gt.width}"
        )
    ordered = sorted(preds.instances, key=lambda i: (-i.score, i.instance_id))[:max_dets]
    iou = _iou_matrix(ordered, gt.instances, mode)
    return ordered, [_greedy(iou, gt.instances, t) for t in thresholds]


def _ap101(hit: np.ndarray, n_gt: int) -> float:
    """101-point interpolated AP of a ranked hit vector against n_gt ground truth."""
    if n_gt == 0 or not len(hit):
        return 0.0
    tp = np.cumsum(hit)
    rec = tp / n_gt
    prec = tp / np.arange(1, len(hit) + 1)
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
    thresholds = cfg.iou_thresholds
    frames = [(g, *_match_frame(p, g, cfg.mode, thresholds, cfg.max_dets)) for p, g in zip(preds, gt)]
    frames.sort(key=lambda f: f[0].frame_id)

    # Pool every frame: once ranked, gt_of[t, k] is the pooled gt index that
    # the prediction of rank k matches at threshold t, or -1.
    gts = [(g.frame_id, inst) for g, _, _ in frames for inst in g.instances]
    keys = []
    gt_of = np.full((len(thresholds), sum(len(o) for _, o, _ in frames)), -1)
    gt_off = 0
    for g, ordered, matches in frames:
        for t, m in enumerate(matches):
            for i, j in m.items():
                gt_of[t, len(keys) + i] = gt_off + j
        keys += [(-p.score, g.frame_id, p.instance_id) for p in ordered]
        gt_off += len(g.instances)
    rank = sorted(range(len(keys)), key=keys.__getitem__)
    gt_of = gt_of[:, rank]

    def buckets(instances):
        return np.array([size_bucket(i.area, cfg.size_buckets) for i in instances], dtype=str)

    pred_bucket = buckets(p for _, ordered, _ in frames for p in ordered)[rank]
    gt_bucket = buckets(inst for _, inst in gts)
    groups = {"all": np.ones(len(gts), dtype=bool)}
    groups.update((b, gt_bucket == b) for b in SIZE_NAMES)
    if with_attributes:
        for fid, g in gts:
            if g.attributes is None or "moving" not in g.attributes:
                raise MissingAttribute(f"frame {fid!r} instance {g.instance_id} lacks the moving flag")
        moving = np.array([bool(g.attributes["moving"]) for _, g in gts], dtype=bool)
        groups.update(static=~moving, moving=moving)
    counts = {k: int(mask.sum()) for k, mask in groups.items()}

    recall = {k: [] for k in groups}
    ap_t, ap_size_t = [], {b: [] for b in SIZE_NAMES}
    for row in gt_of:
        hit = row >= 0
        found = np.zeros(len(gts), dtype=bool)
        found[row[hit]] = True
        for k, mask in groups.items():
            recall[k].append(int(found[mask].sum()) / counts[k] if counts[k] else 0.0)
        # a hit counts in its ground truth's bucket, a miss in its own
        bucket = pred_bucket.copy()
        bucket[hit] = gt_bucket[row[hit]]
        ap_t.append(_ap101(hit, counts["all"]))
        for b in SIZE_NAMES:
            ap_size_t[b].append(_ap101(hit[bucket == b], counts[b]))

    report = EvalReport(
        ar=float(np.mean(recall["all"])),
        ap=float(np.mean(ap_t)),
        ar_per_threshold=tuple(recall["all"]),
        ap_per_threshold=tuple(ap_t),
        ar_by_size={b: float(np.mean(recall[b])) for b in SIZE_NAMES},
        ap_by_size={b: float(np.mean(ap_size_t[b])) for b in SIZE_NAMES},
        n_gt=len(gts),
        n_pred=len(keys),
        gt_by_size={b: counts[b] for b in SIZE_NAMES},
    )
    if with_attributes:
        attrs = ("all", "static", "moving")
        report.ar_by_attribute = {a: float(np.mean(recall[a])) for a in attrs}
        report.gt_by_attribute = {a: counts[a] for a in attrs}
    return report
