"""From depth + motion to initial instance labels.

Walks the seeding path end to end: lift moving pixels to 3D with the
pinhole model, cluster them with the windowed DBSCAN, then let
make_initial_labels do the same in one call.  The occlusion fixture
shows why clustering happens in 3D: two blocks touch in the image but
sit at different depths, so 2D contouring alone would fuse them.
"""
import numpy as np

from mobilabel import (
    DbscanParams,
    PreparedMask,
    dbscan_partition,
    make_initial_labels,
    occlusion_fixture,
    unproject,
)

depth, motion, k, expected = occlusion_fixture()
print("frame:", depth.shape, "intrinsics: fx=%.1f fy=%.1f cx=%.1f cy=%.1f" % (k.fx, k.fy, k.cx, k.cy))
print("moving pixels:", int((motion >= 0.5).sum()))

# 2D contouring sees one merged blob: the same DBSCAN over a flat depth,
# with 8-neighbors only, gives the 8-connected components of the mask
moving = motion >= 0.5
flat = dbscan_partition(unproject(np.ones_like(depth), k, moving),
                        DbscanParams(min_pts=1, pixel_window=3), depth.shape)
print("contour components:", len(flat))

# lifting to 3D separates the blocks by depth
pts = unproject(depth, k, moving)
print("unprojected points:", len(pts), "first:", pts[0])


def area(m):
    """A frame mask's pixel count, as the prepared mask holds it."""
    return PreparedMask.from_bits(m, 0, 0, m.shape).area


clusters = dbscan_partition(pts, DbscanParams(), depth.shape)
print("dbscan clusters:", len(clusters), "areas:", sorted(area(c) for c in clusters))
for c, e in zip(sorted(clusters, key=area), sorted(expected, key=area)):
    print("  matches expected mask:", np.array_equal(c, e))

# the one-call version: threshold, unproject, cluster, label
labels = make_initial_labels(depth, motion, k, DbscanParams(), frame_id="occl")
print("initial labels:", len(labels.instances))
for inst in labels.instances:
    print("  id %d area %d box %s score %.1f" % (
        inst.instance_id, inst.area, inst.box, inst.score))
