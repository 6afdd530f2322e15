"""Mask basics: RLE round trips, boxes, IoU, NMS."""
import numpy as np

from mobilabel import (
    InstanceLabel,
    LabelSet,
    PreparedMask,
    iou,
    nms,
    rle_decode,
    rle_encode,
)

rng = np.random.default_rng(7)

# a small binary mask with two blobs and a stray pixel
mask = np.zeros((12, 20), dtype=bool)
mask[2:6, 3:9] = True
mask[7:11, 12:18] = True
mask[0, 19] = True

rle = rle_encode(mask)
print("rle counts:", rle.counts)
print("round trip exact:", np.array_equal(rle_decode(rle), mask))
# a prepared mask owns the mask's area and tight box; from_bits places a bitmap
# in its frame, here at the top-left of a frame of the same size
prep = PreparedMask.from_bits(mask, 0, 0, mask.shape)
print("area:", prep.area, "box:", prep.box)

# IoU of two shifted copies of the same rectangle; a prepared mask keeps
# only the bitmap of its tight box, which is all the IoU kernel reads
a = np.zeros((16, 16), dtype=bool)
a[2:10, 2:10] = True
b = np.roll(a, 4, axis=1)
pa, pb = PreparedMask(rle_encode(a)), PreparedMask(rle_encode(b))
print("prepared box at", (pa.row, pa.col), "of shape", pa.bits.shape)
print("iou shifted by half:", iou(pa, pb))

# NMS keeps the best-scoring of heavily overlapping proposals
base = np.zeros((24, 24), dtype=bool)
base[4:16, 4:16] = True
insts = []
for i in range(5):
    m = np.roll(base, i, axis=0)
    insts.append(InstanceLabel.from_mask(m, score=float(rng.uniform(0.3, 1.0)), instance_id=i))
far = np.zeros((24, 24), dtype=bool)
far[18:23, 18:23] = True
insts.append(InstanceLabel.from_mask(far, score=0.4, instance_id=5))

proposals = LabelSet("demo", 24, 24, insts)
kept = nms(proposals, iou_thrd=0.5)
print("proposals:", len(proposals.instances), "-> kept:", len(kept.instances))
for inst in kept.instances:
    print("  id %d score %.3f area %d" % (inst.instance_id, inst.score, inst.area))
