"""Downscale-and-pad geometry for the small-object self-training branch.

A frame is shrunk by a factor in (0, 1], anchored at the top-left, and
padded back to its original size on the right and bottom, so downstream
consumers never see a size change. Labels follow the same geometry:
boxes scale linearly (exactly invertible), masks are resampled nearest
neighbor. Inversion reconstructs each mask inside its inverted box, so
a box-shaped mask survives the round trip exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionMismatch, InstanceInPadding
from .initlabel import InstanceLabel, LabelSet
from .maskcore import BBox, PreparedMask

__all__ = [
    "ScaleTransform",
    "make_transform",
    "transform_raster",
    "transform_labels",
    "invert_labels",
]


@dataclass(frozen=True)
class ScaleTransform:
    """Shrink-to-top-left-and-pad geometry for one frame size."""

    scale: float
    pad_right: int
    pad_bottom: int
    orig_height: int
    orig_width: int

    @property
    def content_height(self) -> int:
        return self.orig_height - self.pad_bottom

    @property
    def content_width(self) -> int:
        return self.orig_width - self.pad_right


def _scaled_dim(dim: int, scale: float) -> int:
    # round half down, floor of 1: 25.25 -> 25, 2.5 -> 2
    return max(1, math.ceil(dim * scale - 0.5))


def make_transform(orig_h: int, orig_w: int, scale: float) -> ScaleTransform:
    """Build the transform for a frame size; scale must be in (0, 1]."""
    if not (0 < scale <= 1):
        raise ValueError(f"scale must lie in (0, 1], got {scale}")
    if orig_h < 1 or orig_w < 1:
        raise ValueError(f"frame dimensions must be positive, got {orig_h}x{orig_w}")
    content_h = _scaled_dim(orig_h, scale)
    content_w = _scaled_dim(orig_w, scale)
    return ScaleTransform(
        scale=float(scale),
        pad_right=orig_w - content_w,
        pad_bottom=orig_h - content_h,
        orig_height=orig_h,
        orig_width=orig_w,
    )


def _nn_rows_cols(t: ScaleTransform):
    """Source index per content pixel: src = floor(dst / scale), clamped."""
    rows = np.minimum((np.arange(t.content_height) / t.scale).astype(np.int64), t.orig_height - 1)
    cols = np.minimum((np.arange(t.content_width) / t.scale).astype(np.int64), t.orig_width - 1)
    return rows, cols


def transform_raster(values: np.ndarray, t: ScaleTransform, pad_value: float = 0.0) -> np.ndarray:
    """Nearest-neighbor downsample into the top-left, pad to original size."""
    values = np.asarray(values)
    if values.shape != (t.orig_height, t.orig_width):
        raise DimensionMismatch(f"raster is {values.shape}, transform expects {(t.orig_height, t.orig_width)}")
    if t.scale == 1.0:
        return values.copy()
    rows, cols = _nn_rows_cols(t)
    out = np.full(values.shape, pad_value, dtype=values.dtype)
    out[: t.content_height, : t.content_width] = values[np.ix_(rows, cols)]
    return out


def _scale_box(b: BBox, s: float) -> BBox:
    return BBox(x=b.x * s, y=b.y * s, w=b.w * s, h=b.h * s)


def transform_labels(labels: LabelSet, t: ScaleTransform) -> LabelSet:
    """Scale a label set down: linear boxes, nearest-neighbor masks.

    Instances whose mask vanishes at the reduced resolution are dropped.
    The returned set keeps the original (padded) frame dimensions.
    """
    if (labels.height, labels.width) != (t.orig_height, t.orig_width):
        raise DimensionMismatch(
            f"labels are {labels.height}x{labels.width}, transform expects "
            f"{t.orig_height}x{t.orig_width}"
        )
    if t.scale == 1.0:
        return LabelSet(labels.frame_id, labels.height, labels.width, list(labels.instances))
    rows, cols = _nn_rows_cols(t)
    out = []
    for inst in labels.instances:
        fg = PreparedMask(inst.mask)
        # the content pixels sampling the box form one span: sources never decrease
        r0, r1 = np.searchsorted(rows, (fg.row, fg.row + fg.bits.shape[0]))
        c0, c1 = np.searchsorted(cols, (fg.col, fg.col + fg.bits.shape[1]))
        small = fg.bits[np.ix_(rows[r0:r1] - fg.row, cols[c0:c1] - fg.col)]
        small = PreparedMask.from_bits(small, r0, c0, fg.shape)
        if not small.area:
            continue
        out.append(replace(inst, mask=small.rle(), box=_scale_box(inst.box, t.scale)))
    return LabelSet(labels.frame_id, labels.height, labels.width, out)


def _nn_resize(crop: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Center-aligned nearest-neighbor resize of a 2D bool array."""
    in_h, in_w = crop.shape
    r = np.minimum(((np.arange(out_h) + 0.5) * in_h / out_h).astype(np.int64), in_h - 1)
    c = np.minimum(((np.arange(out_w) + 0.5) * in_w / out_w).astype(np.int64), in_w - 1)
    return crop[np.ix_(r, c)]


def invert_labels(labels: LabelSet, t: ScaleTransform) -> LabelSet:
    """Map labels in shrunk coordinates back to original coordinates.

    Boxes divide by the scale. Each mask is cropped to its own foreground,
    resized into the rasterization of the inverted box, and pasted there;
    anchoring the reconstruction on the exactly-recovered box avoids the
    block misalignment a frame-aligned upsample would introduce. Instances
    with any foreground in the pad region raise; empty ones are dropped.
    """
    if (labels.height, labels.width) != (t.orig_height, t.orig_width):
        raise DimensionMismatch(
            f"labels are {labels.height}x{labels.width}, transform expects "
            f"{t.orig_height}x{t.orig_width}"
        )
    if t.scale == 1.0:
        return LabelSet(labels.frame_id, labels.height, labels.width, list(labels.instances))
    out = []
    for inst in labels.instances:
        fg = PreparedMask(inst.mask)
        if not fg.area:
            continue
        crop = fg.bits
        if fg.col + crop.shape[1] > t.content_width or fg.row + crop.shape[0] > t.content_height:
            raise InstanceInPadding(
                f"instance {inst.instance_id} extends into the padding of frame {labels.frame_id!r}"
            )
        box = _scale_box(inst.box, 1.0 / t.scale)
        # integer paste region from the inverted box
        r0 = int(round(box.y))
        c0 = int(round(box.x))
        nrows = max(1, int(round(box.h)))
        ncols = max(1, int(round(box.w)))
        rr0, cc0 = max(r0, 0), max(c0, 0)
        rr1, cc1 = min(r0 + nrows, t.orig_height), min(c0 + ncols, t.orig_width)
        if rr1 <= rr0 or cc1 <= cc0:
            continue
        resized = _nn_resize(crop, nrows, ncols)
        big = PreparedMask.from_bits(resized[rr0 - r0: rr1 - r0, cc0 - c0: cc1 - c0], rr0, cc0, fg.shape)
        if not big.area:
            continue
        out.append(replace(inst, mask=big.rle(), box=box))
    return LabelSet(labels.frame_id, labels.height, labels.width, out)
