"""Merging large-detector and small-detector mask proposals.

The large branch tends to propose whole objects and groups of small
objects; the small branch proposes small objects and parts of large ones.
:func:`mask_agg` resolves the two accordingly: a large mask sufficiently
covered by several small masks is treated as a group and replaced by
them, while a large mask overlapping a single well-matched small mask
keeps whichever scores higher. Plain NMS is provided as the baseline.

Aggregation selects among input instances; it never edits a mask. Every
overlap is measured with the pairwise kernel :func:`~mobilabel.maskcore.overlaps`
on masks prepared once per call.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionMismatch, check_real
from .initlabel import InstanceLabel, LabelSet
from .maskcore import PreparedMask, coverage, decode, ious, overlaps

__all__ = [
    "AggParams",
    "mask_agg",
    "nms",
]


@dataclass(frozen=True)
class AggParams:
    """Thresholds for :func:`mask_agg`; defaults are the working values."""

    match_thrd: float = 0.5
    filt_frac: float = 0.75
    cover_frac: float = 0.5

    def __post_init__(self):
        for name in ("match_thrd", "filt_frac", "cover_frac"):
            check_real(name, getattr(self, name), 0, 1, "()")


@dataclass(eq=False, slots=True)
class _Prepared:
    """Instance with its source set (0 large, 1 small) and prepared mask."""

    inst: InstanceLabel
    source: int
    mask: PreparedMask


def _prepare(labels: LabelSet, source: int) -> list[_Prepared]:
    """The non-empty instances in canonical (score desc, id, source) order."""
    # empty masks carry no evidence and would poison coverage fractions
    masks = decode(i.mask for i in labels.instances)
    prepared = (_Prepared(i, source, m) for i, m in zip(labels.instances, masks))
    return _canonical(p for p in prepared if p.mask.area)


def _canonical(prepared) -> list[_Prepared]:
    return sorted(prepared, key=lambda p: (-p.inst.score, p.inst.instance_id, p.source))


def _emit(frame: LabelSet, kept: list[_Prepared], reassign: bool) -> LabelSet:
    instances = [replace(p.inst, instance_id=n) if reassign else p.inst
                 for n, p in enumerate(kept)]
    return LabelSet(frame.frame_id, frame.height, frame.width, instances)


def _contains(prepared: list[_Prepared], filt_frac: float) -> np.ndarray:
    """[i, j]: instance i is strictly larger than j and holds more than filt_frac of it."""
    masks = [q.mask for q in prepared]
    area = np.array([m.area for m in masks], dtype=np.int64)
    return (area[:, None] > area) & (overlaps(masks, masks) / area > filt_frac)


def mask_agg(ml: LabelSet, ms: LabelSet, p: AggParams) -> LabelSet:
    """Aggregate large-branch and small-branch proposals.

    After pre-filtering both sets, each large mask is resolved against
    the small masks overlapping it: none -> the large mask itself;
    exactly one with IoU above match_thrd -> the higher-scoring of the
    two; a subset covering the large mask beyond cover_frac -> the
    subset (group of objects); otherwise the large mask itself (the
    small ones are parts). Every small mask that no large mask overlaps
    is added too. Output ids are reassigned in (score, id) order;
    scores are untouched.
    """
    if (ml.height, ml.width) != (ms.height, ms.width):
        raise DimensionMismatch(
            f"label sets differ in frame size: {ml.height}x{ml.width} vs {ms.height}x{ms.width}"
        )
    large, small = _prepare(ml, 0), _prepare(ms, 1)
    large = [q for q, held in zip(large, _contains(large, p.filt_frac).any(axis=0)) if not held]
    small = [q for q, holds in zip(small, _contains(small, p.filt_frac).any(axis=1)) if not holds]

    inter = overlaps([s.mask for s in small], [m.mask for m in large])
    agg = [s for s, touched in zip(small, inter.any(axis=1)) if not touched]
    for m, col in zip(large, inter.T):
        hits = [small[i] for i in np.flatnonzero(col)]
        if not hits:
            agg.append(m)
        elif len(hits) == 1 and col.max() / (hits[0].mask.area + m.mask.area - col.max()) > p.match_thrd:
            s = hits[0]
            agg.append(s if s.inst.score > m.inst.score else m)
        elif coverage([s.mask for s in hits], m.mask) > p.cover_frac:
            agg += hits
        else:
            agg.append(m)
    # a small instance several large ones take is kept once; the canonical key is unique
    return _emit(ml, _canonical(set(agg)), reassign=True)


def nms(proposals: LabelSet, iou_thrd: float) -> LabelSet:
    """Greedy score-descending suppression at the given mask-IoU level.

    Ties in score fall to the lower instance id. Survivors are returned
    highest score first, otherwise unchanged.
    """
    check_real("iou_thrd", iou_thrd, 0, 1)
    ordered = _prepare(proposals, 0)
    pair_iou = ious([q.mask for q in ordered], [q.mask for q in ordered])
    kept: list[int] = []
    for i, row in enumerate(pair_iou):
        if not (row[kept] > iou_thrd).any():
            kept.append(i)
    return _emit(proposals, [ordered[i] for i in kept], reassign=False)
