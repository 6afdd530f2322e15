"""Class-agnostic recall/precision evaluation over label sets.

All predicted and ground-truth instances are treated as one class.
Matching is greedy per frame: predictions in descending score order each
take the unmatched ground-truth instance of highest IoU at or above the
threshold. One matching per (frame, threshold) feeds every reported
number, so size-bucket recalls weighted by their ground-truth counts
reproduce the overall recall exactly. Each frame is matched as it is
drawn and folded into per-instance scalars. The pooled predictions are
ranked once; per threshold, one hit vector over that ranking gives every
AP and one found vector over the pooled ground truth gives every recall
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

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

from .errors import DimensionMismatch, FrameMismatch, MissingAttribute
from .initlabel import LabelSet
from .maskcore import PreparedMask, box_iou, ious

__all__ = [
    "EvalConfig",
    "EvalReport",
    "size_bucket",
    "evaluate",
    "COCO_THRESHOLDS",
]

COCO_THRESHOLDS = tuple(round(0.5 + 0.05 * i, 2) for i in range(10))
SIZE_NAMES = ("S", "M", "L")
SIZE_BOUNDARIES = (1024.0, 9216.0)  # pixel areas where M and L start


@dataclass(frozen=True)
class EvalConfig:
    iou_thresholds: tuple[float, ...] = COCO_THRESHOLDS
    max_dets: int = 100
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


def size_bucket(area: float) -> str:
    """S below the first of SIZE_BOUNDARIES, M below the second, L otherwise."""
    if area < 0:
        raise ValueError(f"area must be non-negative, got {area}")
    if area < SIZE_BOUNDARIES[0]:
        return "S"
    if area < SIZE_BOUNDARIES[1]:
        return "M"
    return "L"


def _iou_matrix(preds, gts, mode: str) -> np.ndarray:
    if mode == "mask":
        return ious([PreparedMask(p.mask) for p in preds], [PreparedMask(g.mask) for g in gts])
    return np.array([[box_iou(p.box, g.box) for g in gts] for p in preds]).reshape(len(preds), len(gts))


def _greedy(iou: np.ndarray, gts, thresholds) -> np.ndarray:
    """Greedy matching at every threshold at once: a (thresholds, rows)
    array of the ground-truth column each prediction row takes, or -1.

    Rows must already be in descending-score order. Ties in IoU go to the
    ground-truth instance with the lower id.
    """
    out = np.full((len(thresholds), len(iou)), -1)
    if not iou.size:
        return out
    by_id = np.argsort([g.instance_id for g in gts], kind="stable")
    iou = iou[:, by_id]
    free = iou >= np.array(thresholds)[:, None, None]  # (threshold, row, column); False once taken
    for i, row in enumerate(iou):
        cand = np.where(free[:, i], row, -1.0)
        k = cand.argmax(axis=1)  # the first of equal maxima, so the lowest id
        hit = cand.max(axis=1) >= 0
        out[hit, i] = by_id[k[hit]]
        free[hit, :, k[hit]] = False
    return out


def _match_frame(preds: LabelSet, gt: LabelSet, mode: str, thresholds,
                 max_dets: int | None = None) -> tuple[list, np.ndarray]:
    """One frame's top-scoring predictions and a (thresholds, predictions)
    array of the ground-truth index each one matches, or -1."""
    if (preds.height, preds.width) != (gt.height, gt.width):
        raise DimensionMismatch(
            f"frame {gt.frame_id!r}: predictions are {preds.height}x{preds.width}, "
            f"ground truth {gt.height}x{gt.width}"
        )
    ordered = sorted(preds.instances, key=lambda i: (-i.score, i.instance_id))[:max_dets]
    return ordered, _greedy(_iou_matrix(ordered, gt.instances, mode), gt.instances, thresholds)


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


def _paired(preds: Iterable[LabelSet], gt: Iterable[LabelSet]) -> Iterator[tuple[LabelSet, LabelSet]]:
    """(prediction, ground truth) frame pairs, drawn one at a time and
    refused with FrameMismatch as soon as their ids differ, a ground-truth
    id repeats, or one side runs out before the other."""
    seen = set()
    for n, (p, g) in enumerate(zip_longest(preds, gt)):
        if p is None or g is None:
            side = "prediction" if p is None else "ground-truth"
            raise FrameMismatch(f"only {n} {side} frames, but more on the other side")
        if p.frame_id != g.frame_id:
            raise FrameMismatch(f"frame id {p.frame_id!r} paired against {g.frame_id!r}")
        if g.frame_id in seen:
            raise FrameMismatch(f"duplicate frame id {g.frame_id!r} in the ground truth")
        seen.add(g.frame_id)
        yield p, g


def evaluate(preds: Iterable[LabelSet], gt: Iterable[LabelSet], cfg: EvalConfig = EvalConfig(),
             with_attributes: bool = False) -> EvalReport:
    """Full evaluation of parallel prediction/ground-truth frames, drawn one
    pair at a time from any iterables (generators that read files, say)."""
    # key and bucket per prediction, bucket and moving flag per ground truth,
    # and per frame the pooled ground-truth index each prediction matches or -1
    keys, pred_bucket, gt_bucket, moving = [], [], [], []
    gt_of = [np.empty((len(cfg.iou_thresholds), 0), dtype=int)]
    for p, g in _paired(preds, gt):
        if with_attributes:
            for inst in g.instances:
                if inst.attributes is None or "moving" not in inst.attributes:
                    raise MissingAttribute(f"frame {g.frame_id!r} instance {inst.instance_id} lacks the moving flag")
                moving.append(bool(inst.attributes["moving"]))
        ordered, matched = _match_frame(p, g, cfg.mode, cfg.iou_thresholds, cfg.max_dets)
        gt_of.append(np.where(matched >= 0, matched + len(gt_bucket), -1))
        keys += [(-q.score, g.frame_id, q.instance_id) for q in ordered]
        pred_bucket += [size_bucket(q.area) for q in ordered]
        gt_bucket += [size_bucket(inst.area) for inst in g.instances]

    # (score, frame id, instance id) is a total order: frame order cannot matter
    rank = sorted(range(len(keys)), key=keys.__getitem__)
    gt_of = np.concatenate(gt_of, axis=1)[:, rank]
    pred_bucket = np.array(pred_bucket, dtype=str)[rank]
    gt_bucket = np.array(gt_bucket, dtype=str)
    groups = {"all": np.ones(len(gt_bucket), dtype=bool)}
    groups.update((b, gt_bucket == b) for b in SIZE_NAMES)
    if with_attributes:
        moving = np.array(moving, dtype=bool)
        groups.update(static=~moving, moving=moving)
    counts = {k: int(mask.sum()) for k, mask in groups.items()}

    recall = {k: [] for k in groups}
    ap_t, ap_size_t = [], {b: [] for b in SIZE_NAMES}
    for row in gt_of:
        hit = row >= 0
        found = np.zeros(len(gt_bucket), dtype=bool)
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
        n_gt=len(gt_bucket),
        n_pred=len(keys),
        gt_by_size={b: counts[b] for b in SIZE_NAMES},
    )
    if with_attributes:
        attrs = ("all", "static", "moving")
        report.ar_by_attribute = {a: float(np.mean(recall[a])) for a in attrs}
        report.gt_by_attribute = {a: counts[a] for a in attrs}
    return report
