"""Shrink labels to a padded quarter-scale canvas and invert back.

The transform keeps the canvas size fixed: content lands in the top
left corner and the right/bottom remainder is padding.  Inversion is
anchored at the box corner, so axis-aligned shapes come back exactly.
"""
import numpy as np

from mobilabel import (
    InstanceLabel,
    LabelSet,
    PreparedMask,
    invert_labels,
    iou,
    make_transform,
    transform_labels,
    transform_raster,
)

H, W = 120, 160
t = make_transform(H, W, 0.25)
print("canvas %dx%d -> content %dx%d at scale %.2f" % (
    H, W, t.content_height, t.content_width, t.scale))

# rasters shrink the same way labels do
depth = np.linspace(1.0, 50.0, H * W, dtype=np.float32).reshape(H, W)
small = transform_raster(depth, t)
print("raster stays %s, content corner value %.3f" % (small.shape, small[0, 0]))
print("padding filled with zeros:", float(small[t.content_height:, :].max()) == 0.0)

masks = []
m1 = np.zeros((H, W), dtype=bool)
m1[20:60, 30:90] = True
masks.append(m1)
m2 = np.zeros((H, W), dtype=bool)
m2[70:110, 100:150] = True
masks.append(m2)
ls = LabelSet("frame0", H, W,
              [InstanceLabel.from_mask(m, 0.9, i) for i, m in enumerate(masks)])

shrunk = transform_labels(ls, t)
back = invert_labels(shrunk, t)
for orig, rec in zip(ls.instances, back.instances):
    print("id %d  box %s -> %s  iou %.3f" % (
        orig.instance_id, orig.box, rec.box,
        iou(PreparedMask(orig.mask), PreparedMask(rec.mask))))

# anything leaking into the padding is refused on the way back
bad = np.zeros((H, W), dtype=bool)
bad[0:4, 0:W] = True  # wider than the shrunken content
wide = LabelSet("frame1", H, W, [InstanceLabel.from_mask(bad, 0.5, 0)])
try:
    invert_labels(wide, t)
except Exception as e:
    print("padding guard:", type(e).__name__, "-", e)
