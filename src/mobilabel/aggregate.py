"""Merging large-detector and small-detector mask proposals.

The large branch tends to propose whole objects and groups of small
objects; the small branch proposes small objects and parts of large ones.
:func:`mask_agg` resolves the two accordingly: a large mask sufficiently
covered by several small masks is treated as a group and replaced by
them, while a large mask overlapping a single well-matched small mask
keeps whichever scores higher. Plain NMS is provided as the baseline.

Aggregation selects among input instances; it never edits a mask. Every
overlap is measured with the :mod:`~mobilabel.maskcore` kernel on masks
prepared once per call.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import DimensionMismatch
from .initlabel import InstanceLabel, LabelSet
from .maskcore import PreparedMask, coverage, intersection, iou

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
            v = getattr(self, name)
            if not (0 < v < 1):
                raise ValueError(f"{name} must lie in (0, 1), got {v}")


class _Prepared:
    """Instance with its source set (0 large, 1 small) and prepared mask."""

    __slots__ = ("inst", "source", "mask")

    def __init__(self, inst: InstanceLabel, source: int):
        self.inst = inst
        self.source = source
        self.mask = PreparedMask(inst.mask)


def _prepare(labels: LabelSet, source: int) -> list[_Prepared]:
    # empty masks carry no evidence and would poison coverage fractions
    return [p for p in (_Prepared(i, source) for i in labels.instances) if p.mask.area]


def _canonical(prepared: list[_Prepared]) -> list[_Prepared]:
    return sorted(prepared, key=lambda p: (-p.inst.score, p.inst.instance_id, p.source))


def _emit(frame: LabelSet, kept: list[_Prepared], reassign: bool) -> LabelSet:
    instances = [replace(p.inst, instance_id=n) if reassign else p.inst
                 for n, p in enumerate(kept)]
    return LabelSet(frame.frame_id, frame.height, frame.width, instances)


def _filter_smaller(prepared: list[_Prepared], filt_frac: float) -> list[_Prepared]:
    """Drop instances mostly inside a strictly larger single instance."""
    return [a for a in prepared if not any(
        b.mask.area > a.mask.area and intersection(b.mask, a.mask) / a.mask.area > filt_frac
        for b in prepared if b is not a)]


def _filter_larger(prepared: list[_Prepared], filt_frac: float) -> list[_Prepared]:
    """Drop instances that act as containers of a strictly smaller one."""
    return [a for a in prepared if not any(
        b.mask.area < a.mask.area and intersection(a.mask, b.mask) / b.mask.area > filt_frac
        for b in prepared if b is not a)]


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
    large = _filter_smaller(_canonical(_prepare(ml, 0)), p.filt_frac)
    small = _filter_larger(_canonical(_prepare(ms, 1)), p.filt_frac)

    agg: list[_Prepared] = []
    chosen, touched = set(), set()

    def add(q: _Prepared) -> None:
        if id(q) not in chosen:
            chosen.add(id(q))
            agg.append(q)

    for m in large:
        overlap = [s for s in small if intersection(s.mask, m.mask) > 0]
        touched.update(id(s) for s in overlap)
        if not overlap:
            add(m)
        elif len(overlap) == 1 and iou(overlap[0].mask, m.mask) > p.match_thrd:
            s = overlap[0]
            add(s if s.inst.score > m.inst.score else m)
        elif coverage([s.mask for s in overlap], m.mask) > p.cover_frac:
            for s in overlap:
                add(s)
        else:
            add(m)

    for s in small:
        if id(s) not in touched:
            add(s)

    return _emit(ml, _canonical(agg), reassign=True)


def nms(proposals: LabelSet, iou_thrd: float) -> LabelSet:
    """Greedy score-descending suppression at the given mask-IoU level.

    Ties in score fall to the lower instance id. Survivors are returned
    highest score first, otherwise unchanged.
    """
    if not (0 <= iou_thrd <= 1):
        raise ValueError(f"iou_thrd must lie in [0, 1], got {iou_thrd}")
    ordered = _canonical(_prepare(proposals, 0))
    kept: list[_Prepared] = []
    for cand in ordered:
        if all(iou(cand.mask, k.mask) <= iou_thrd for k in kept):
            kept.append(cand)
    return _emit(proposals, kept, reassign=False)
