"""Synthetic scenes with known answers.

Single frames of depth, motion probability, camera intrinsics and
ground-truth labels, generated so that every downstream stage can be
checked against an exact expectation.  Objects are axis-aligned
rectangles or inscribed ellipses with constant per-object depth, placed
pairwise disjoint in 2D with a guard margin, over a vertical background
ramp that is far at the top and always at least twice the deepest
object.  Moving objects carry motion probability 1.0 inside their mask
and everything else stays at 0.0, so with zero blur the foreground at
any threshold in (0, 1] equals the union of moving masks exactly.

`mock_detector` stands in for a trained detector: it jitters masks,
resamples scores, drops instances and injects false positives, all
driven by a caller-provided generator so rounds can be replayed.
"""

from dataclasses import dataclass

import numpy as np

from .errors import PlacementFailure, check_int, check_real
from .initlabel import CameraIntrinsics, InstanceLabel, LabelSet
from .maskcore import PreparedMask, decode

__all__ = [
    "DetectorNoise",
    "SceneSpec",
    "generate_scene",
    "mock_detector",
    "occlusion_fixture",
    "scene_intrinsics",
]


@dataclass(frozen=True)
class SceneSpec:
    """Everything that determines a generated scene family.

    A spec plus a frame index is a pure function of its inputs; the
    same pair always yields identical rasters and labels.
    """

    seed: int = 0
    height: int = 128
    width: int = 192
    n_objects: tuple[int, int] = (3, 6)
    depth_range: tuple[float, float] = (4.0, 40.0)  # meters
    moving_fraction: float = 0.5
    size_range: tuple[int, int] = (16, 48)  # object side lengths, pixels
    ellipse_fraction: float = 0.5
    depth_sigma: float = 0.0  # additive Gaussian depth noise, meters
    motion_blur: int = 0  # box-blur radius on motion probability, pixels
    margin: int = 8  # min gap between objects and to the border, pixels

    def __post_init__(self):
        check_int("seed", self.seed, 0)
        check_int("height", self.height, 1)
        check_int("width", self.width, 1)
        _range("n_objects", self.n_objects, check_int, 0)
        _range("depth_range", self.depth_range, check_real, 0, ends="()")
        _range("size_range", self.size_range, check_int, 1)
        check_real("moving_fraction", self.moving_fraction, 0, 1)
        check_real("ellipse_fraction", self.ellipse_fraction, 0, 1)
        check_real("depth_sigma", self.depth_sigma, 0, ends="[)")
        check_int("motion_blur", self.motion_blur, 0)
        check_int("margin", self.margin, 0)


def _range(name, pair, check, *bounds, **ends):
    """Refuse pair unless it is (lo, hi), lo <= hi, each passing check(name, entry, ...)."""
    lo, hi = pair
    if check(name, lo, *bounds, **ends) > check(name, hi, *bounds, **ends):
        raise ValueError(f"{name} must be ordered (lo, hi), got {pair}")


def scene_intrinsics(spec: SceneSpec) -> CameraIntrinsics:
    """The pinhole model shared by every frame of a scene family."""
    f = float(max(spec.height, spec.width))
    return CameraIntrinsics(fx=f, fy=f, cx=spec.width / 2.0, cy=spec.height / 2.0)


def _object_mask(h: int, w: int, ellipse: bool) -> np.ndarray:
    if not ellipse:
        return np.ones((h, w), dtype=bool)
    yy = (np.arange(h) + 0.5 - h / 2.0) / (h / 2.0)
    xx = (np.arange(w) + 0.5 - w / 2.0) / (w / 2.0)
    return yy[:, None] ** 2 + xx[None, :] ** 2 <= 1.0


def _background_ramp(spec: SceneSpec) -> np.ndarray:
    # Far at the top, near at the bottom, everywhere >= 2x the deepest
    # object so foreground depth never blends into the background.
    far = 4.0 * spec.depth_range[1]
    near = 2.0 * spec.depth_range[1]
    col = far + (near - far) * (np.arange(spec.height) + 0.5) / spec.height
    return np.broadcast_to(col[:, None], (spec.height, spec.width)).copy()


def generate_scene(spec: SceneSpec, frame_index: int = 0):
    """Generate one frame: (depth, motion, intrinsics, ground truth).

    Object boxes keep a Chebyshev gap larger than ``spec.margin`` from
    each other and from the frame border.  Each object's depth is a
    constant sampled from ``spec.depth_range``.  Raises
    PlacementFailure when the count cannot be placed disjointly within
    a bounded number of attempts.
    """
    check_int("frame_index", frame_index, 0)
    rng = np.random.default_rng([spec.seed, frame_index])
    h, w, margin = int(spec.height), int(spec.width), spec.margin  # plain ints label the frame

    n = int(rng.integers(spec.n_objects[0], spec.n_objects[1] + 1))
    n_moving = int(spec.moving_fraction * n + 0.5)
    moving = np.zeros(n, dtype=bool)
    moving[:n_moving] = True
    rng.shuffle(moving)

    occupied = np.zeros((h, w), dtype=bool)
    placed = []  # (y0, x0, local mask, depth)
    budget = 100 * max(n, 1)
    while len(placed) < n:
        if budget == 0:
            raise PlacementFailure(
                f"placed {len(placed)} of {n} objects before running out of attempts")
        budget -= 1
        oh = int(rng.integers(spec.size_range[0], spec.size_range[1] + 1))
        ow = int(rng.integers(spec.size_range[0], spec.size_range[1] + 1))
        ellipse = bool(rng.random() < spec.ellipse_fraction)
        ymax = h - margin - oh
        xmax = w - margin - ow
        if ymax < margin or xmax < margin:
            continue
        y0 = int(rng.integers(margin, ymax + 1))
        x0 = int(rng.integers(margin, xmax + 1))
        if occupied[y0 - margin:y0 + oh + margin, x0 - margin:x0 + ow + margin].any():
            continue
        occupied[y0:y0 + oh, x0:x0 + ow] = True
        d = float(rng.uniform(spec.depth_range[0], spec.depth_range[1]))
        placed.append((y0, x0, _object_mask(oh, ow, ellipse), d))

    depth = _background_ramp(spec)
    motion = np.zeros((h, w), dtype=bool)
    instances = []
    for i, (y0, x0, local, d) in enumerate(placed):
        box = np.s_[y0:y0 + local.shape[0], x0:x0 + local.shape[1]]
        depth[box][local] = d
        if moving[i]:
            motion[box][local] = True
        instances.append(InstanceLabel.from_mask(
            PreparedMask.from_bits(local, y0, x0, (h, w)), 1.0, i,
            attributes={"moving": bool(moving[i])}))

    if spec.depth_sigma > 0.0:
        depth = depth + rng.normal(0.0, spec.depth_sigma, size=(h, w))
        np.maximum(depth, 1e-3, out=depth)  # depth must stay positive
    if spec.motion_blur > 0:
        # Box mean over a zero border as exact window counts: a row pass,
        # then a column pass, in the narrowest dtype that holds size**2.
        r, size = spec.motion_blur, 2 * spec.motion_blur + 1
        padded = np.zeros((h + 2 * r, w + 2 * r), dtype=np.min_scalar_type(size * size))
        padded[r:r + h, r:r + w] = motion
        rows = padded[:h].copy()
        for d in range(1, size):
            rows += padded[d:d + h]
        counts = rows[:, :w].copy()
        for d in range(1, size):
            counts += rows[:, d:d + w]
        motion = counts / np.float32(size * size)

    gt = LabelSet(f"{frame_index:06d}", h, w, instances)
    return depth.astype(np.float32), motion.astype(np.float32), scene_intrinsics(spec), gt


def occlusion_fixture():
    """Two abutting moving blocks that only depth can tell apart.

    The blocks share a vertical edge, so 2D contouring sees a single
    component; depth-aware clustering must recover the two documented
    masks.  Returns (depth, motion, intrinsics, expected_masks) with
    the near block first.
    """
    h = w = 64
    near = np.zeros((h, w), dtype=bool)
    far = np.zeros((h, w), dtype=bool)
    near[20:40, 10:30] = True
    far[20:40, 30:50] = True

    far_d = 50.0
    col = 4.0 * far_d + (2.0 * far_d - 4.0 * far_d) * (np.arange(h) + 0.5) / h
    depth = np.broadcast_to(col[:, None], (h, w)).copy()
    depth[near] = 5.0
    depth[far] = far_d
    motion = np.where(near | far, 1.0, 0.0)
    # fx = 60 keeps the 50 m block internally linked at eps 1: the
    # pixel pitch there is 50/60 m, while the seam jumps 45 m in z.
    intrinsics = CameraIntrinsics(fx=60.0, fy=60.0, cx=w / 2.0, cy=h / 2.0)
    return (depth.astype(np.float32), motion.astype(np.float32),
            intrinsics, [near, far])


@dataclass(frozen=True)
class DetectorNoise:
    """Corruption applied by `mock_detector`.

    mask_jitter shifts each mask by an integer offset drawn uniformly
    from [-j, j] per axis; scores are Gaussian around score_mean,
    clipped to [0, 1]; dropout removes instances independently;
    false_positives square masks of side fp_size are added per frame.
    """

    mask_jitter: int = 0
    score_mean: float = 1.0
    score_sigma: float = 0.0
    dropout: float = 0.0
    false_positives: int = 0
    fp_size: int = 12

    def __post_init__(self):
        check_int("mask_jitter", self.mask_jitter, 0)
        check_real("score_mean", self.score_mean, 0, 1)
        check_real("score_sigma", self.score_sigma, 0, ends="[)")
        check_real("dropout", self.dropout, 0, 1)
        check_int("false_positives", self.false_positives, 0)
        check_int("fp_size", self.fp_size, 1)


def _sample_score(noise: DetectorNoise, rng: np.random.Generator) -> float:
    if noise.score_sigma == 0.0:
        return noise.score_mean
    s = noise.score_mean + noise.score_sigma * rng.standard_normal()
    return float(min(1.0, max(0.0, s)))


def mock_detector(gt: LabelSet, noise: DetectorNoise, rng: np.random.Generator,
                  region: tuple[int, int] | None = None) -> LabelSet:
    """Corrupt ground truth the way an imperfect detector would.

    Kept instances retain their ids; boxes are re-derived tight from
    the jittered masks.  With all-default noise the output equals the
    input with scores 1.0.  region bounds the noise, e.g. to the
    (height, width) content part of a scale-padded canvas: jittered
    masks that would cross it keep their original placement, and false
    positives are drawn inside it.
    """
    rh, rw = region if region is not None else (gt.height, gt.width)
    if not (1 <= rh <= gt.height and 1 <= rw <= gt.width):
        raise ValueError(f"region {region} exceeds the {gt.height}x{gt.width} canvas")
    out = []
    for inst, mask in zip(gt.instances, decode(i.mask for i in gt.instances)):
        if rng.random() < noise.dropout:
            continue
        if noise.mask_jitter > 0:
            dy, dx = rng.integers(-noise.mask_jitter, noise.mask_jitter + 1, size=2)
            r, c = mask.row + int(dy), mask.col + int(dx)
            clipped = mask.bits[max(0, -r): max(0, gt.height - r), max(0, -c): max(0, gt.width - c)]
            shifted = PreparedMask.from_bits(clipped, max(r, 0), max(c, 0), mask.shape)
            # a border clip can erase or displace the mask out of the
            # allowed region; keep the original placement in that case
            rows, cols = shifted.bits.shape
            if shifted.area and shifted.row + rows <= rh and shifted.col + cols <= rw:
                mask = shifted
        attrs = dict(inst.attributes) if inst.attributes is not None else None
        out.append(InstanceLabel.from_mask(
            mask, _sample_score(noise, rng), inst.instance_id, attributes=attrs))

    next_id = max((inst.instance_id for inst in gt.instances), default=-1) + 1
    side = min(noise.fp_size, rh, rw)
    for k in range(noise.false_positives):
        y0 = int(rng.integers(0, rh - side + 1))
        x0 = int(rng.integers(0, rw - side + 1))
        fp = PreparedMask.from_bits(np.ones((side, side), dtype=bool), y0, x0, (gt.height, gt.width))
        out.append(InstanceLabel.from_mask(fp, _sample_score(noise, rng), next_id + k))
    return LabelSet(gt.frame_id, gt.height, gt.width, out)
