"""Initial pseudo-labels from motion and depth.

The entry point is :func:`make_initial_labels`: binarize a motion
raster, lift every moving pixel to a pseudo 3D point through
the camera intrinsics, cluster the points with a depth-aware DBSCAN, and
rasterize each cluster back into a scored instance mask. Clustering in 3D
rather than on the 2D motion blob separates objects that overlap in image
space but sit at different depths.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NonPositiveDepth
from .maskcore import BBox, PreparedMask, Rle

__all__ = [
    "CameraIntrinsics",
    "DbscanParams",
    "InstanceLabel",
    "LabelSet",
    "binarize_motion",
    "unproject",
    "project",
    "dbscan_partition",
    "make_initial_labels",
]


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics in pixel units."""

    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self):
        if not (self.fx > 0 and self.fy > 0):
            raise ValueError(f"focal lengths must be positive, got fx={self.fx}, fy={self.fy}")


@dataclass(frozen=True)
class DbscanParams:
    """Clustering knobs.

    eps is a 3D Euclidean radius in meters. pixel_window gates candidate
    neighbors on the image plane: two points can only be neighbors when
    their rows and their columns each differ by at most pixel_window // 2
    (the default of 10 gives an 11 x 11 window) and they lie within eps in
    3D. min_pts counts the point itself.
    """

    eps: float = 1.0
    min_pts: int = 4
    pixel_window: int = 10

    def __post_init__(self):
        if self.eps <= 0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if self.min_pts < 1:
            raise ValueError(f"min_pts must be >= 1, got {self.min_pts}")
        if self.pixel_window < 1:
            raise ValueError(f"pixel_window must be >= 1, got {self.pixel_window}")


@dataclass(frozen=True)
class InstanceLabel:
    """One scored instance: RLE mask, box, id, optional attribute flags."""

    mask: Rle
    box: BBox
    score: float
    instance_id: int
    attributes: dict | None = None

    def __post_init__(self):
        if not (0.0 <= self.score <= 1.0):
            raise ValueError(f"score must lie in [0, 1], got {self.score}")

    @classmethod
    def from_mask(cls, mask, score: float, instance_id: int,
                  attributes: dict | None = None) -> "InstanceLabel":
        """Build from a :class:`PreparedMask` or a frame-sized binary mask,
        with the tight box derived from it."""
        if not isinstance(mask, PreparedMask):
            mask = PreparedMask.from_bits(mask, 0, 0, np.shape(mask))
        return cls(mask=mask.rle(), box=mask.box, score=score,
                   instance_id=instance_id, attributes=attributes)

    @property
    def area(self) -> int:
        return sum(self.mask.counts[1::2])


@dataclass
class LabelSet:
    """All instances of one frame. Masks share the frame dimensions."""

    frame_id: str
    height: int
    width: int
    instances: list[InstanceLabel] = field(default_factory=list)

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        ids = [inst.instance_id for inst in self.instances]
        if len(ids) != len(set(ids)):
            raise ValueError(f"duplicate instance ids in frame {self.frame_id!r}: {sorted(ids)}")
        for inst in self.instances:
            if (inst.mask.height, inst.mask.width) != (self.height, self.width):
                raise DimensionMismatch(
                    f"instance {inst.instance_id} mask is {inst.mask.height}x{inst.mask.width}, "
                    f"frame is {self.height}x{self.width}"
                )


def binarize_motion(motion: np.ndarray, threshold: float) -> np.ndarray:
    """Foreground where motion probability >= threshold (inclusive). A uint8
    raster holds a motion file's levels L, each the probability L / 255,
    and is cut at :func:`_level_cut`."""
    motion = np.asarray(motion)
    if motion.ndim != 2:
        raise ValueError(f"motion mask must be 2D, got shape {motion.shape}")
    if motion.dtype == np.uint8:
        return motion >= _level_cut(threshold)
    motion = motion.astype(np.float64, copy=False)
    if not np.isfinite(motion).all() or motion.min() < 0 or motion.max() > 1:
        raise ValueError("motion probabilities must be finite and lie in [0, 1]")
    return motion >= threshold


def _level_cut(threshold) -> int:
    """The smallest 8-bit level L with L / 255.0 >= threshold, or 256 when
    there is none, so ``levels >= _level_cut(t)`` selects what
    ``levels / 255.0 >= t`` selects."""
    return 256 - int(np.count_nonzero(np.arange(256, dtype=np.float64) / 255.0 >= threshold))


def unproject(depth: np.ndarray, k: CameraIntrinsics, moving: np.ndarray) -> np.ndarray:
    """Lift the foreground pixels, in row-major order, to an (n, 5) float64
    array of (row, col, x, y, z). Integer (row, col) addresses the pixel
    center; u = col, v = row: x = (u - cx) / fx * d, y = (v - cy) / fy * d, z = d.
    """
    depth = np.asarray(depth)
    moving = np.asarray(moving, dtype=bool)
    if depth.shape != moving.shape:
        raise DimensionMismatch(f"depth {depth.shape} vs motion {moving.shape}")
    flat = np.flatnonzero(moving)
    rows, cols = np.divmod(flat, moving.shape[1])
    d = depth.reshape(-1).take(flat).astype(np.float64)  # widen only the picked pixels
    bad = ~np.isfinite(d) | (d <= 0)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise NonPositiveDepth(int(rows[i]), int(cols[i]), float(d[i]))
    x = (cols - k.cx) / k.fx * d
    y = (rows - k.cy) / k.fy * d
    return np.column_stack((rows, cols, x, y, d))


def project(p, k: CameraIntrinsics) -> tuple[float, float]:
    """Inverse of :func:`unproject`: one (row, col, x, y, z) point to (row, col)."""
    _, _, x, y, z = p
    u = x / z * k.fx + k.cx
    v = y / z * k.fy + k.cy
    return v, u


def _window(rows, cols, half):
    """The flat index raster of row-major points (-1: no point), each point's
    place in it, and the window's forward pixel offsets as flat steps,
    nearest first. The raster is padded by the window half-width on every
    side, so no lookup needs a bounds check and no step wraps to another
    row: point i's neighbor candidates are raster[at[i] +- step]."""
    r, c = rows - rows.min() + half, cols - cols.min() + half
    width = int(c.max()) + half + 1
    raster = np.full((int(r.max()) + half + 1) * width, -1, dtype=np.int32)
    at = r * width + c
    raster[at] = np.arange(len(rows), dtype=np.int32)
    offsets = sorted(((dr, dc) for dr in range(half + 1) for dc in range(-half if dr else 1, half + 1)),
                     key=lambda o: o[0] * o[0] + o[1] * o[1])
    return raster, at, [dr * width + dc for dr, dc in offsets]


def _near(xyz, i, j, eps2):
    """The point pairs (i[k], j[k]) that lie within eps in 3D."""
    x, y, z = xyz
    dx, dy, dz = x.take(j) - x.take(i), y.take(j) - y.take(i), z.take(j) - z.take(i)
    near = dx * dx + dy * dy + dz * dz <= eps2
    return i[near], j[near]


def _reach(raster, src_at, step):
    """(k, j): the points j found one step away from the places src_at[k]."""
    j = raster.take(src_at + step)
    k = np.flatnonzero(j >= 0)
    return k, j[k]


def _core(xyz, raster, at, steps, eps2, min_pts):
    """Whether each point has at least min_pts neighbors, itself included.

    Only the open points, those still below min_pts, look neighbors up, both
    ways at each step; a pair of two open points is counted once, from its
    first point. A point leaves once it reaches min_pts: degree is only
    compared to min_pts, so where its count stops does not matter."""
    degree = np.ones(len(at), dtype=np.int64)
    is_open = degree < min_pts
    open_ = np.flatnonzero(is_open)
    for step in steps:
        if not open_.size:
            break
        # distinct points reach distinct points, so no `+= 1` repeats an index
        open_at = at.take(open_)
        k, j = _reach(raster, open_at, step)
        i, j = _near(xyz, open_[k], j, eps2)
        degree[i] += 1
        degree[j[is_open[j]]] += 1
        k, j = _reach(raster, open_at, -step)
        settled = ~is_open[j]  # an open j counted this pair from its side
        i, _ = _near(xyz, open_[k[settled]], j[settled], eps2)
        degree[i] += 1
        is_open[open_] = degree[open_] < min_pts
        open_ = open_[is_open[open_]]
    return ~is_open


def _union(root, a, b):
    """Merge the sets of each pair (a[k], b[k]) in place. `root` maps every
    point straight to the smallest point of its set, before and after."""
    while a.size:
        lo, hi = np.minimum(root[a], root[b]), np.maximum(root[a], root[b])
        apart = lo != hi
        np.minimum.at(root, hi[apart], lo[apart])
        while not np.array_equal(up := root[root], root):
            root[:] = up
        a, b = a[apart], b[apart]


def dbscan_partition(points, params: DbscanParams, shape: tuple[int, int]) -> list[np.ndarray]:
    """Cluster pseudo 3D points and rasterize each cluster to a frame-sized mask.

    points is any (n, 5) array-like of (row, col, x, y, z), one point per
    pixel at most. A point's neighbors are the points whose row and column
    each lie within pixel_window // 2 of its own AND within eps in 3D.
    Noise points are dropped. The result is sequential DBSCAN's in (row,
    col) order, whatever the input order; masks are sorted by the top-left
    corner of their bounding box, (min row, min col), which may be
    background.
    """
    return [p.frame() for p in _clusters(points, params, shape)]


def _clusters(points, params: DbscanParams, shape: tuple[int, int]) -> list[PreparedMask]:
    """:func:`dbscan_partition`'s clusters as box-domain masks, in its order.

    Two passes over the window's steps, nearest first, each computing only
    the distances it needs. :func:`_core` stops counting a point's
    neighbors once it reaches min_pts. The union pass joins core-core pairs
    and collects the core/non-core edges that place the border points
    afterwards; before computing a distance it drops non-core pairs and
    core pairs whose sets are already joined. Neither rule, nor the order
    of the steps, changes the result: a set's root is its smallest point
    whatever the order of the unions."""
    pts = np.asarray(points, dtype=np.float64)
    if len(pts) == 0:
        return []
    if pts.ndim != 2 or pts.shape[1] != 5:
        raise ValueError(f"points must be (n, 5) rows of (row, col, x, y, z), got {pts.shape}")
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    rows, cols = pts[:, 0].astype(np.int64), pts[:, 1].astype(np.int64)
    if ((np.diff(rows) == 0) & (np.diff(cols) == 0)).any():
        raise ValueError("two points share a pixel")
    xyz, n = np.ascontiguousarray(pts[:, 2:].T), len(pts)
    raster, at, steps = _window(rows, cols, params.pixel_window // 2)
    eps2 = params.eps * params.eps
    core = _core(xyz, raster, at, steps, eps2, params.min_pts)
    if not core.any():
        return []
    # clusters are the core-core components, created in the order of their
    # first core point, which is each component's root; the empty edge pair
    # covers pixel_window 1, which has no steps and so no pairs at all
    root, edges = np.arange(n), [(np.empty(0, np.int64), np.empty(0, np.int64))]
    # a core point's key is its root, a non-core point's -1: a pair whose
    # keys differ is a core pair not yet joined or a core/non-core edge
    key = np.where(core, root, -1)
    for step in steps:
        i, j = _reach(raster, at, step)
        k = np.flatnonzero(key.take(i) != key.take(j))
        i, j = _near(xyz, i[k], j[k], eps2)
        ci, cj = core[i], core[j]
        if (both := ci & cj).any():
            _union(root, i[both], j[both])
            key = np.where(core, root, -1)
        edges += [(i[ci & ~cj], j[ci & ~cj]), (j[cj & ~ci], i[cj & ~ci])]
    # a border point joins the earliest-created cluster with a core neighbor
    label = np.where(core, root, n)
    a, b = (np.concatenate(e) for e in zip(*edges))
    np.minimum.at(label, b, root[a])

    member = np.argsort(label, kind="stable")[:np.count_nonzero(label < n)]
    out = []
    for g in np.split(member, np.flatnonzero(np.diff(label[member])) + 1):
        r, c = rows[g] - rows[g].min(), cols[g] - cols[g].min()
        bits = np.zeros((r.max() + 1, c.max() + 1), dtype=bool)
        bits[r, c] = True
        out.append(PreparedMask.from_bits(bits, rows[g].min(), cols[g].min(), shape))
    return sorted(out, key=lambda p: (p.row, p.col))


def make_initial_labels(depth: np.ndarray, motion: np.ndarray, k: CameraIntrinsics,
                        params: DbscanParams, motion_threshold: float = 0.1,
                        min_area: int = 16, frame_id: str = "") -> LabelSet:
    """End-to-end initial pseudo-labels for one frame.

    ``motion`` holds uint8 levels or probabilities (see :func:`binarize_motion`).
    Clusters below min_area pixels are dropped. Every surviving instance
    gets score 1.0 and a sequential id starting at 0.
    """
    motion = np.asarray(motion)
    depth = np.asarray(depth)
    if depth.shape != motion.shape:
        raise DimensionMismatch(f"depth {depth.shape} vs motion {motion.shape}")
    moving = binarize_motion(motion, motion_threshold)
    points = unproject(depth, k, moving)
    instances = []
    for m in _clusters(points, params, moving.shape):
        if m.area < min_area:
            continue
        instances.append(InstanceLabel.from_mask(m, score=1.0, instance_id=len(instances)))
    h, w = moving.shape
    return LabelSet(frame_id=frame_id, height=int(h), width=int(w), instances=instances)
