"""Initial pseudo-labels from motion and depth.

The entry point is :func:`make_initial_labels`: binarize a motion
probability raster, lift every moving pixel to a pseudo 3D point through
the camera intrinsics, cluster the points with a depth-aware DBSCAN, and
rasterize each cluster back into a scored instance mask. Clustering in 3D
rather than on the 2D motion blob separates objects that overlap in image
space but sit at different depths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, NonPositiveDepth
from .maskcore import BBox, Rle, bbox_of, connected_components, rle_decode, rle_encode

__all__ = [
    "CameraIntrinsics",
    "DbscanParams",
    "PixelPoint3",
    "InstanceLabel",
    "LabelSet",
    "binarize_motion",
    "unproject",
    "project",
    "dbscan_partition",
    "contour_partition",
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

    eps is a 3D Euclidean radius in meters. pixel_window is the side of
    the square pixel neighborhood that gates candidate neighbors, so two
    points can only be neighbors when they are close both on the image
    plane and in 3D. min_pts counts the point itself.
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


class PixelPoint3(NamedTuple):
    """A pseudo 3D point remembering the pixel it came from."""

    row: int
    col: int
    x: float
    y: float
    z: float


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
    def from_mask(cls, mask: np.ndarray, score: float, instance_id: int,
                  attributes: dict | None = None) -> "InstanceLabel":
        """Build from a binary mask with the tight box derived from it."""
        return cls(mask=rle_encode(mask), box=bbox_of(mask), score=score,
                   instance_id=instance_id, attributes=attributes)

    def mask_array(self) -> np.ndarray:
        return rle_decode(self.mask)

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
    """Foreground where motion probability >= threshold (inclusive)."""
    motion = np.asarray(motion, dtype=np.float64)
    if motion.ndim != 2:
        raise ValueError(f"motion mask must be 2D, got shape {motion.shape}")
    if not np.isfinite(motion).all() or motion.min() < 0 or motion.max() > 1:
        raise ValueError("motion probabilities must be finite and lie in [0, 1]")
    return motion >= threshold


def unproject(depth: np.ndarray, k: CameraIntrinsics, moving: np.ndarray) -> list[PixelPoint3]:
    """Lift each foreground pixel to (x, y, z) through the inverse intrinsics.

    Integer (row, col) addresses the pixel center; u = col, v = row:
    x = (u - cx) / fx * d, y = (v - cy) / fy * d, z = d.
    """
    depth = np.asarray(depth, dtype=np.float64)
    moving = np.asarray(moving, dtype=bool)
    if depth.shape != moving.shape:
        raise DimensionMismatch(f"depth {depth.shape} vs motion {moving.shape}")
    rows, cols = np.nonzero(moving)
    d = depth[rows, cols]
    bad = ~np.isfinite(d) | (d <= 0)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise NonPositiveDepth(int(rows[i]), int(cols[i]), float(d[i]))
    x = (cols - k.cx) / k.fx * d
    y = (rows - k.cy) / k.fy * d
    return [PixelPoint3(int(r), int(c), float(xi), float(yi), float(zi))
            for r, c, xi, yi, zi in zip(rows, cols, x, y, d)]


def project(p: PixelPoint3, k: CameraIntrinsics) -> tuple[float, float]:
    """Pinhole projection back to (row, col); inverse of :func:`unproject`."""
    u = p.x / p.z * k.fx + k.cx
    v = p.y / p.z * k.fy + k.cy
    return v, u


def _window_neighbors(idx_by_pixel, rows, cols, xyz, i, half, eps2):
    """Indices whose pixel falls in the window around point i and whose
    3D distance is within eps. Includes i itself."""
    r0, c0 = rows[i], cols[i]
    out = []
    for r in range(r0 - half, r0 + half + 1):
        for c in range(c0 - half, c0 + half + 1):
            for j in idx_by_pixel.get((r, c), ()):
                d = xyz[j] - xyz[i]
                if d[0] * d[0] + d[1] * d[1] + d[2] * d[2] <= eps2:
                    out.append(j)
    return out


def dbscan_partition(points: list[PixelPoint3], params: DbscanParams,
                     shape: tuple[int, int]) -> list[np.ndarray]:
    """Cluster pseudo 3D points and rasterize each cluster to a mask.

    DBSCAN where the neighborhood of a point is the set of points inside
    the pixel_window x pixel_window square around its pixel AND within
    eps in 3D. Noise points are dropped. Points are processed in (row,
    col) order, so the result does not depend on the input ordering;
    output masks are sorted by their top-left foreground pixel.
    """
    if not points:
        return []
    pts = sorted(points, key=lambda p: (p.row, p.col))
    n = len(pts)
    rows = np.array([p.row for p in pts])
    cols = np.array([p.col for p in pts])
    xyz = np.array([[p.x, p.y, p.z] for p in pts], dtype=np.float64)

    idx_by_pixel: dict[tuple[int, int], list[int]] = {}
    for j in range(n):
        idx_by_pixel.setdefault((int(rows[j]), int(cols[j])), []).append(j)

    half = params.pixel_window // 2
    eps2 = params.eps * params.eps
    UNSEEN, NOISE = -2, -1
    label = np.full(n, UNSEEN, dtype=np.int64)
    cid = 0
    for i in range(n):
        if label[i] != UNSEEN:
            continue
        nb = _window_neighbors(idx_by_pixel, rows, cols, xyz, i, half, eps2)
        if len(nb) < params.min_pts:
            label[i] = NOISE
            continue
        label[i] = cid
        queue = list(nb)
        k = 0
        while k < len(queue):
            j = queue[k]
            k += 1
            if label[j] == NOISE:
                label[j] = cid  # border point adopted by the cluster
            if label[j] != UNSEEN:
                continue
            label[j] = cid
            nb_j = _window_neighbors(idx_by_pixel, rows, cols, xyz, j, half, eps2)
            if len(nb_j) >= params.min_pts:
                queue.extend(nb_j)
        cid += 1

    out = []
    for c in range(cid):
        member = label == c
        mask = np.zeros(shape, dtype=bool)
        mask[rows[member], cols[member]] = True
        out.append((int(rows[member].min()), int(cols[member].min()), mask))
    out.sort(key=lambda t: (t[0], t[1]))
    return [m for _, _, m in out]


def contour_partition(moving: np.ndarray) -> list[np.ndarray]:
    """Depth-blind baseline: 8-connected components of the motion blob."""
    return connected_components(moving, connectivity=8)


def make_initial_labels(depth: np.ndarray, motion: np.ndarray, k: CameraIntrinsics,
                        params: DbscanParams, motion_threshold: float = 0.1,
                        min_area: int = 16, frame_id: str = "") -> LabelSet:
    """End-to-end initial pseudo-labels for one frame.

    Clusters below min_area pixels are dropped. Every surviving instance
    gets score 1.0 and a sequential id starting at 0.
    """
    motion = np.asarray(motion)
    depth = np.asarray(depth)
    if depth.shape != motion.shape:
        raise DimensionMismatch(f"depth {depth.shape} vs motion {motion.shape}")
    moving = binarize_motion(motion, motion_threshold)
    points = unproject(depth, k, moving)
    masks = dbscan_partition(points, params, shape=moving.shape)
    instances = []
    for m in masks:
        if int(np.count_nonzero(m)) < min_area:
            continue
        instances.append(InstanceLabel.from_mask(m, score=1.0, instance_id=len(instances)))
    h, w = moving.shape
    return LabelSet(frame_id=frame_id, height=int(h), width=int(w), instances=instances)
