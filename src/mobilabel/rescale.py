"""Downscale-and-pad geometry for the small-object self-training branch.

A frame is shrunk by a factor in (0, 1], anchored at the top-left, and
padded back to its original size on the right and bottom, so downstream
consumers never see a size change. The scale rule, (0, 1] with a finite
reciprocal, is written once, as :func:`check_scale`, which both
:func:`make_transform` and the stage configs call. A :class:`ScaleTransform`
is just that scale and the frame size; its content region and padding follow
from one rounding rule, so no transform can disagree with itself. Labels
follow the same geometry: boxes scale linearly (exactly invertible), masks
are resampled nearest neighbor. Inversion reconstructs each mask inside its
inverted box, sampling only the part of the box inside the frame, so a
box-shaped mask survives the round trip exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionMismatch, InstanceInPadding, check_int, check_real
from .initlabel import LabelSet
from .maskcore import BBox, PreparedMask, decode

__all__ = [
    "ScaleTransform",
    "make_transform",
    "transform_raster",
    "transform_labels",
    "invert_labels",
]


def _scaled_dim(dim: int, scale: float) -> int:
    # round half down, between 1 and dim: 25.25 -> 25, 2.5 -> 2
    return min(dim, max(1, math.ceil(dim * scale - 0.5)))


@dataclass(frozen=True)
class ScaleTransform:
    """Shrink-to-top-left-and-pad geometry for one frame size; build it
    with :func:`make_transform`."""

    scale: float
    orig_height: int
    orig_width: int

    @property
    def content_height(self) -> int:
        return _scaled_dim(self.orig_height, self.scale)

    @property
    def content_width(self) -> int:
        return _scaled_dim(self.orig_width, self.scale)

    @property
    def pad_bottom(self) -> int:
        return self.orig_height - self.content_height

    @property
    def pad_right(self) -> int:
        return self.orig_width - self.content_width


def check_scale(name: str, value):
    """value, refused unless in (0, 1] with a finite reciprocal, by which :func:`invert_labels` scales."""
    if math.isinf(1.0 / float(check_real(name, value, 0, 1, "(]"))):
        raise ValueError(f"{name} must lie in (0, 1] with a finite reciprocal, got {value!r}")
    return value


def make_transform(orig_h: int, orig_w: int, scale: float) -> ScaleTransform:
    """The transform of an orig_h x orig_w frame (integers >= 1) at a scale passing :func:`check_scale`."""
    check_int("orig_h", orig_h, 1)
    check_int("orig_w", orig_w, 1)
    return ScaleTransform(scale=float(check_scale("scale", scale)), orig_height=orig_h, orig_width=orig_w)


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
    for inst, fg in zip(labels.instances, decode(i.mask for i in labels.instances)):
        # the content pixels sampling the box form one span: sources never decrease
        r0, r1 = np.searchsorted(rows, (fg.row, fg.row + fg.bits.shape[0]))
        c0, c1 = np.searchsorted(cols, (fg.col, fg.col + fg.bits.shape[1]))
        small = fg.bits[np.ix_(rows[r0:r1] - fg.row, cols[c0:c1] - fg.col)]
        small = PreparedMask.from_bits(small, r0, c0, fg.shape)
        if not small.area:
            continue
        out.append(replace(inst, mask=small.rle(), box=_scale_box(inst.box, t.scale)))
    return LabelSet(labels.frame_id, labels.height, labels.width, out)


def _paste_axis(start: float, size: float, frame: int, n_in: int):
    """One axis of the paste into an inverted box that covers the pixels
    round(start) .. round(start) + max(1, round(size)) - 1, onto which n_in
    mask pixels are resized center-aligned nearest neighbor. Returns the
    first frame pixel the box covers and the source pixel of each covered
    frame pixel, or None when the box misses the frame. Rounding and
    clipping stay in float, so an edge at infinity is never made an int."""
    a = round(start, 0)
    n = max(1.0, round(size, 0))
    lo, hi = max(a, 0.0), min(a + n, float(frame))
    if not lo < hi:  # also false for NaN
        return None
    k = (lo - a) + np.arange(int(hi) - int(lo))
    # clipped before the cast: a quotient that overflows samples the last pixel
    return int(lo), np.fmin((k + 0.5) * n_in / n, n_in - 1).astype(np.int64)


def invert_labels(labels: LabelSet, t: ScaleTransform) -> LabelSet:
    """Map labels in shrunk coordinates back to original coordinates.

    Boxes divide by the scale. Each mask is cropped to its own foreground,
    resized into the rasterization of the inverted box, and pasted there;
    anchoring the reconstruction on the exactly-recovered box avoids the
    block misalignment a frame-aligned upsample would introduce. Only the
    part of the box inside the frame is sampled, so memory is bounded by
    the frame whatever the box. A far edge beyond the frame, even at
    infinity, is clipped like any overhang; a box whose near edge lies
    beyond the frame misses it and is dropped. Instances with any
    foreground in the pad region raise; empty ones are dropped.
    """
    if (labels.height, labels.width) != (t.orig_height, t.orig_width):
        raise DimensionMismatch(
            f"labels are {labels.height}x{labels.width}, transform expects "
            f"{t.orig_height}x{t.orig_width}"
        )
    if t.scale == 1.0:
        return LabelSet(labels.frame_id, labels.height, labels.width, list(labels.instances))
    content_h, content_w = t.content_height, t.content_width
    out = []
    for inst, fg in zip(labels.instances, decode(i.mask for i in labels.instances)):
        if not fg.area:
            continue
        in_h, in_w = fg.bits.shape
        if fg.col + in_w > content_w or fg.row + in_h > content_h:
            raise InstanceInPadding(
                f"instance {inst.instance_id} extends into the padding of frame {labels.frame_id!r}"
            )
        box = _scale_box(inst.box, 1.0 / t.scale)
        rows = _paste_axis(box.y, box.h, t.orig_height, in_h)
        cols = _paste_axis(box.x, box.w, t.orig_width, in_w)
        if rows is None or cols is None:
            continue
        (r0, r), (c0, c) = rows, cols
        big = PreparedMask.from_bits(fg.bits[np.ix_(r, c)], r0, c0, fg.shape)
        if not big.area:
            continue
        out.append(replace(inst, mask=big.rle(), box=box))
    return LabelSet(labels.frame_id, labels.height, labels.width, out)
