"""Binary-mask primitives: RLE codec, IoU, coverage, boxes.

A binary mask is a 2D ``numpy`` array of ``bool`` with shape (height,
width). Stored masks are :class:`Rle`, valid once built. :class:`PreparedMask`,
a mask's tight-box bitmap, owns a mask's box and area, so label producers
work on crops. :func:`decode` is the one RLE decoder: it turns a list of
masks into prepared masks in one pass over their counts, and
``PreparedMask(rle)`` is its list of one; :meth:`PreparedMask.rle` encodes
back. Every mask IoU and coverage is :func:`intersection`, :func:`iou` or
:func:`coverage` over prepared masks, or, between two lists, the pairwise
kernel :func:`overlaps` or :func:`ious`, which counts pixels only where
boxes meet. :func:`rle_encode` and :func:`rle_decode` remain frame-array
adapters.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import DimensionMismatch, EmptyMask, EmptyTarget, RleSumMismatch

__all__ = [
    "Rle",
    "BBox",
    "rle_encode",
    "rle_decode",
    "PreparedMask",
    "decode",
    "intersection",
    "iou",
    "overlaps",
    "ious",
    "box_iou",
    "coverage",
]


@dataclass(frozen=True)
class Rle:
    """Run-length encoding of a binary mask.

    Counts alternate starting with a zeros-run over the column-major pixel
    scan, so a mask whose first scanned pixel is foreground encodes with a
    leading 0. Construction raises :class:`~mobilabel.errors.RleSumMismatch`
    unless the counts are non-negative and sum to ``height * width``.
    """

    height: int
    width: int
    counts: tuple[int, ...]

    def __post_init__(self):
        counts = tuple(map(int, self.counts))
        low, total = min(counts, default=0), sum(counts)
        if low < 0 or total != self.height * self.width:
            raise RleSumMismatch(f"RLE counts sum to {total} with least run {low}, expected runs "
                                 f">= 0 summing to {self.height * self.width} for {self.height}x{self.width}")
        object.__setattr__(self, "counts", counts)


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box: ``x``/``y`` is the left/top edge, sizes positive.

    Coordinates are real-valued; pixel-derived boxes use integer values
    where column c spans [c, c+1).
    """

    x: float
    y: float
    w: float
    h: float

    @property
    def area(self) -> float:
        return self.w * self.h


def rle_encode(mask: np.ndarray) -> Rle:
    """Encode a binary mask, scanning pixels column by column.

    The inverse of :func:`rle_decode`; the round trip is bit-exact.
    """
    mask = np.asarray(mask)
    if mask.ndim != 2 or mask.shape[0] < 1 or mask.shape[1] < 1:
        raise ValueError(f"mask must be a 2D array with positive dimensions, got shape {mask.shape}")
    return PreparedMask.from_bits(mask, 0, 0, mask.shape).rle()


def rle_decode(rle: Rle) -> np.ndarray:
    """Decode an :class:`Rle` back into a (height, width) bool array."""
    return PreparedMask(rle).frame()


def box_iou(a: BBox, b: BBox) -> float:
    """Intersection-over-union of two axis-aligned boxes."""
    ix = min(a.x + a.w, b.x + b.w) - max(a.x, b.x)
    iy = min(a.y + a.h, b.y + b.h) - max(a.y, b.y)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    union = a.area + b.area - inter
    if union <= 0:
        return 0.0
    return inter / union


class PreparedMask:
    """A mask decoded only inside its tight bounding box.

    ``bits`` is the (rows, cols) bitmap of the box whose top-left pixel is
    (``row``, ``col``) in the frame, ``area`` its foreground count and
    ``shape`` the frame size. An empty mask has a 0x0 bitmap. Built from
    the runs by :func:`decode` (``PreparedMask(rle)`` decodes a list of
    one), or by :meth:`from_bits` from a placed bitmap, and encoded back by
    :meth:`rle`, so only a mask whose box spans the whole frame allocates a
    frame-sized array.
    """

    __slots__ = ("bits", "row", "col", "area", "shape")

    def __init__(self, rle: Rle):
        m = next(decode([rle]))
        self.bits, self.row, self.col, self.area, self.shape = m.bits, m.row, m.col, m.area, m.shape

    @classmethod
    def from_bits(cls, bits, row: int, col: int, shape: tuple[int, int]) -> "PreparedMask":
        """The mask of a bitmap whose top-left pixel sits at (row, col) in a
        frame of ``shape``, trimmed to its tight box (a view of ``bits``).
        Raises ``ValueError`` for foreground outside the frame."""
        bits = np.asarray(bits, dtype=bool)
        if bits.ndim != 2:
            raise ValueError(f"bits must be a 2D array, got shape {bits.shape}")
        shape = (int(shape[0]), int(shape[1]))
        rows, cols = np.flatnonzero(bits.any(axis=1)), np.flatnonzero(bits.any(axis=0))
        if not rows.size:
            return cls._placed(np.zeros((0, 0), dtype=bool), 0, 0, 0, shape)
        bits = bits[rows[0]: rows[-1] + 1, cols[0]: cols[-1] + 1]
        self = cls._placed(bits, int(row) + int(rows[0]), int(col) + int(cols[0]),
                           int(np.count_nonzero(bits)), shape)
        r1, c1 = self.row + bits.shape[0], self.col + bits.shape[1]
        if min(self.row, self.col) < 0 or r1 > shape[0] or c1 > shape[1]:
            raise ValueError(f"foreground [{self.row}:{r1}, {self.col}:{c1}] lies outside "
                             f"the {shape} frame")
        return self

    @classmethod
    def _placed(cls, bits, row: int, col: int, area: int, shape) -> "PreparedMask":
        self = cls.__new__(cls)
        self.bits, self.row, self.col, self.area, self.shape = bits, row, col, area, shape
        return self

    def rle(self) -> Rle:
        """Column-major runs over the frame; the inverse of ``PreparedMask(rle)``."""
        h, w = self.shape
        framed = np.zeros((self.bits.shape[1], self.bits.shape[0] + 2), dtype=np.int8)
        framed[:, 1:-1] = self.bits.T
        # run starts and ends per box column, as column-major frame offsets
        c, r = np.nonzero(np.diff(framed, axis=1))
        bounds, n = np.unique((self.col + c) * h + self.row + r, return_counts=True)
        # an end and a start that meet across a column edge are one run
        counts = np.diff(np.concatenate(([0], bounds[n == 1], [h * w])))
        return Rle(height=h, width=w, counts=(counts[:-1] if counts[-1] == 0 else counts).tolist())

    @property
    def box(self) -> BBox:
        """Tight bounding box; raises :class:`~mobilabel.errors.EmptyMask` when empty."""
        if not self.area:
            raise EmptyMask("cannot compute the bounding box of an empty mask")
        rows, cols = self.bits.shape
        return BBox(x=float(self.col), y=float(self.row), w=float(cols), h=float(rows))

    def frame(self) -> np.ndarray:
        """The mask pasted into a frame-sized bool array."""
        out = np.zeros(self.shape, dtype=bool)
        out[self.row: self.row + self.bits.shape[0], self.col: self.col + self.bits.shape[1]] = self.bits
        return out


def decode(rles):
    """The :class:`PreparedMask` of each :class:`Rle`, in order, as an iterator.

    Masks are decoded in batches of consecutive masks. One pass of array
    operations over a batch's concatenated counts finds every mask's
    foreground runs, box and area; then each fill, the boxes of consecutive
    masks up to one frame of pixels, is laid down by one ``np.repeat`` when
    the iterator reaches it, and each ``bits`` is a view of its fill. A
    batch holds at most ``max(h * w, 65536) // 64`` counts (or one mask), so
    its arrays take about a frame's bytes, and a caller that keeps each mask
    only while it works on it holds about one frame, however long the list.
    Raises :class:`~mobilabel.errors.DimensionMismatch` at the call when
    the frame sizes differ.
    """
    rles = list(rles)
    if len(shapes := {(r.height, r.width) for r in rles}) > 1:
        raise DimensionMismatch(f"mask shapes differ: {sorted(shapes)}")
    return _lay(rles, *shapes.pop()) if rles else iter(())


def _groups(sizes, limit: int):
    """Consecutive sizes cut greedily into groups that sum to at most limit
    (a larger size alone): the group bounds [0, ..., len(sizes)] and each
    size's offset in its group."""
    starts, offsets, used = [], [], 0
    for s in sizes:
        if not offsets or used + s > limit:
            starts.append(len(offsets))
            used = 0
        offsets.append(used)
        used += s
    return [*starts, len(offsets)], offsets


def _lay(rles, h: int, w: int):
    """decode's iterator: plans a batch, then lays each fill as it is reached."""
    cuts, _ = _groups([len(r.counts) for r in rles], max(h * w, 1 << 16) // 64)
    for a, b in zip(cuts, cuts[1:]):
        for lengths, boxes in _plan(rles[a:b], h, w):
            buf = np.repeat(np.arange(lengths.size) % 2 == 1, lengths)
            for row, col, rows, cols, area, at in boxes:
                bits = buf[at: at + rows * cols].reshape(cols, rows).T if area else np.zeros((0, 0), dtype=bool)
                yield PreparedMask._placed(bits, row, col, area, (h, w))


def _plan(rles, h: int, w: int):
    """One batch of decode as its fills: each is the run lengths, zeros
    first, that one repeat lays down, and the (row, col, rows, cols, area,
    offset in the fill) of each of its masks, all 0 for an empty mask. Its
    count-sized arrays are freed when it returns, before any fill is laid."""
    lens = np.array([len(r.counts) for r in rles], dtype=np.int64)
    counts = np.fromiter(chain.from_iterable(r.counts for r in rles), dtype=np.int64, count=int(lens.sum()))
    owner = np.repeat(np.arange(len(rles)), lens)
    # each mask's counts sum to h * w, so one cumsum gives every run's end within its mask
    ends = np.cumsum(counts) - owner * (h * w)
    fg = ((np.arange(counts.size) - (np.cumsum(lens) - lens)[owner]) % 2 == 1) & (counts > 0)
    start, end = ends[fg] - counts[fg], ends[fg]  # column-major [start, end)
    runs = np.bincount(owner[fg], minlength=len(rles))
    first = np.cumsum(runs) - runs  # each mask's first run
    full = runs > 0
    at = first[full]
    c0, r0 = np.divmod(start, h)
    c1, r1 = np.divmod(end - 1, h)
    # a run crossing a column edge covers the last row of one column and the
    # first of the next, so the box takes every row; other runs lie in one column
    crosses = np.logical_or.reduceat(c0 != c1, at)
    row = np.where(crosses, 0, np.minimum.reduceat(r0, at))
    box = np.zeros((5, len(rles)), dtype=np.int64)  # row, col, rows, cols, area
    box[:, full] = (row, c0[at], np.where(crosses, h, np.maximum.reduceat(r1, at) + 1 - row),
                    c1[at + runs[full] - 1] - c0[at] + 1, np.add.reduceat(end - start, at))
    row, col, rows, cols, _ = box
    size = (rows * cols).tolist()
    cuts, offset = _groups(size, h * w)
    # a run's box is laid out column by column from its mask's offset in the fill
    k = np.repeat(np.arange(len(rles)), runs)
    lo = (c0 - col[k]) * rows[k] + r0 - row[k] + np.array(offset, dtype=np.int64)[k]
    edges = np.column_stack((lo, lo + end - start)).ravel()
    bounds = 2 * np.append(first, start.size)
    boxes = list(zip(*box.tolist(), offset))
    return [(np.diff(np.concatenate(([0], edges[bounds[a]: bounds[b]], [offset[b - 1] + size[b - 1]]))),
             boxes[a:b]) for a, b in zip(cuts, cuts[1:])]


def _window(a: PreparedMask, b: PreparedMask):
    """Frame window (r0, r1, c0, c1) where two boxes overlap, or None."""
    if a.shape != b.shape:
        raise DimensionMismatch(f"mask shapes differ: {a.shape} vs {b.shape}")
    r0, c0 = max(a.row, b.row), max(a.col, b.col)
    r1 = min(a.row + a.bits.shape[0], b.row + b.bits.shape[0])
    c1 = min(a.col + a.bits.shape[1], b.col + b.bits.shape[1])
    if r0 >= r1 or c0 >= c1:
        return None
    return r0, r1, c0, c1


def _view(bits: np.ndarray, row: int, col: int, win) -> np.ndarray:
    """The part of a box bitmap anchored at (row, col) inside a frame window."""
    r0, r1, c0, c1 = win
    return bits[r0 - row: r1 - row, c0 - col: c1 - col]


def intersection(a: PreparedMask, b: PreparedMask) -> int:
    """Pixels in both masks, counted over the overlap of their boxes."""
    win = _window(a, b)
    if win is None:
        return 0
    return int(np.count_nonzero(_view(a.bits, a.row, a.col, win) & _view(b.bits, b.row, b.col, win)))


def iou(a: PreparedMask, b: PreparedMask) -> float:
    """Intersection-over-union of two masks; 0.0 when both are empty."""
    return float(ious([a], [b])[0, 0])


def overlaps(a, b) -> np.ndarray:
    """The (len(a), len(b)) int64 matrix of :func:`intersection` counts, taken
    only on the pairs whose [row, col, row end, col end) boxes share a pixel
    (one broadcast finds them); the rest are 0. Differing frame sizes raise
    :class:`~mobilabel.errors.DimensionMismatch` even if no boxes meet."""
    if a and b and len(shapes := {m.shape for m in (*a, *b)}) > 1:
        raise DimensionMismatch(f"mask shapes differ: {sorted(shapes)}")
    box_a, box_b = (np.array([(m.row, m.col, m.row + m.bits.shape[0], m.col + m.bits.shape[1]) for m in ms],
                             dtype=np.int64).reshape(-1, 4) for ms in (a, b))
    lo, hi = np.maximum(box_a[:, None, :2], box_b[:, :2]), np.minimum(box_a[:, None, 2:], box_b[:, 2:])
    meet = (lo < hi).all(axis=2)
    out = np.zeros(meet.shape, dtype=np.int64)
    out[meet] = [intersection(a[i], b[j]) for i, j in zip(*np.nonzero(meet))]
    return out


def ious(a, b) -> np.ndarray:
    """The (len(a), len(b)) float64 IoU matrix over :func:`overlaps`; 0.0 for two empty masks."""
    area_a, area_b = (np.array([m.area for m in ms], dtype=np.int64) for ms in (a, b))
    inter = overlaps(a, b)
    return inter / np.maximum(area_a[:, None] + area_b - inter, 1)  # two empty masks: 0 / 1


def coverage(refs, targ: PreparedMask) -> float:
    """Fraction of ``targ`` covered by the union of the ``refs`` masks.

    Raises :class:`~mobilabel.errors.EmptyTarget` when the target has no
    foreground. An empty reference set covers nothing (0.0).
    """
    if targ.area == 0:
        raise EmptyTarget("coverage target mask is empty")
    covered = np.zeros_like(targ.bits)
    for m in refs:
        win = _window(m, targ)
        if win is not None:
            part = _view(covered, targ.row, targ.col, win)
            part |= _view(m.bits, m.row, m.col, win)
    return int(np.count_nonzero(covered & targ.bits)) / targ.area

