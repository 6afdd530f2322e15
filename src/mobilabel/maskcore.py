"""Binary-mask primitives: RLE codec, IoU, coverage, boxes.

A binary mask is a 2D ``numpy`` array of ``bool`` with shape (height,
width). Stored masks are :class:`Rle`, valid once built. :class:`PreparedMask`,
a mask's tight-box bitmap, is the one codec both ways and owns a mask's box
and area, so label producers work on crops, and every mask IoU and coverage
is :func:`intersection`, :func:`iou` or :func:`coverage` over prepared masks,
or, between two lists, the pairwise kernel :func:`overlaps` or :func:`ious`,
which counts pixels only where boxes meet. :func:`rle_encode` and
:func:`rle_decode` remain frame-array adapters over it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptyMask, EmptyTarget, RleSumMismatch

__all__ = [
    "Rle",
    "BBox",
    "rle_encode",
    "rle_decode",
    "PreparedMask",
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
    ``shape`` the frame size. An empty mask has a 0x0 bitmap. Built
    straight from the runs, or by :meth:`from_bits` from a placed bitmap,
    and encoded back by :meth:`rle`, so only a mask whose box spans the
    whole frame allocates a frame-sized array.
    """

    __slots__ = ("bits", "row", "col", "area", "shape")

    def __init__(self, rle: Rle):
        h = rle.height
        counts = np.asarray(rle.counts, dtype=np.int64)
        ends = np.cumsum(counts)
        fg = (np.arange(counts.size) % 2 == 1) & (counts > 0)
        start, end = ends[fg] - counts[fg], ends[fg]  # column-major [start, end)
        self.shape = (h, rle.width)
        self.area = int(counts[1::2].sum())
        if not self.area:
            self.bits, self.row, self.col = np.zeros((0, 0), dtype=bool), 0, 0
            return
        # a run crossing a column edge covers the last row of one column and the
        # first of the next, so the box takes every row; other runs lie in one column
        first, last = start // h, (end - 1) // h
        if (first != last).any():
            self.row, rows = 0, h
        else:
            self.row = int((start % h).min())
            rows = int(((end - 1) % h).max()) + 1 - self.row
        self.col, cols = int(first[0]), int(last[-1] - first[0]) + 1
        offset = (first - self.col) * rows + start % h - self.row
        bounds = np.concatenate(([0], np.column_stack((offset, offset + end - start)).ravel(),
                                 [rows * cols]))
        values = np.arange(bounds.size - 1) % 2 == 1
        self.bits = np.repeat(values, np.diff(bounds)).reshape((cols, rows)).T

    @classmethod
    def from_bits(cls, bits, row: int, col: int, shape: tuple[int, int]) -> "PreparedMask":
        """The mask of a bitmap whose top-left pixel sits at (row, col) in a
        frame of ``shape``, trimmed to its tight box (a view of ``bits``).
        Raises ``ValueError`` for foreground outside the frame."""
        bits = np.asarray(bits, dtype=bool)
        if bits.ndim != 2:
            raise ValueError(f"bits must be a 2D array, got shape {bits.shape}")
        self = cls.__new__(cls)
        self.shape = (int(shape[0]), int(shape[1]))
        rows, cols = np.flatnonzero(bits.any(axis=1)), np.flatnonzero(bits.any(axis=0))
        if not rows.size:
            self.bits, self.row, self.col, self.area = np.zeros((0, 0), dtype=bool), 0, 0, 0
            return self
        self.bits = bits[rows[0]: rows[-1] + 1, cols[0]: cols[-1] + 1]
        self.row, self.col = int(row) + int(rows[0]), int(col) + int(cols[0])
        self.area = int(np.count_nonzero(self.bits))
        r1, c1 = self.row + self.bits.shape[0], self.col + self.bits.shape[1]
        if min(self.row, self.col) < 0 or r1 > self.shape[0] or c1 > self.shape[1]:
            raise ValueError(f"foreground [{self.row}:{r1}, {self.col}:{c1}] lies outside "
                             f"the {self.shape} frame")
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

