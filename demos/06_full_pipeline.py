"""The whole loop: motion-seeded labels refined over three rounds.

The initial labels only cover objects that are actually moving.  Each
round then trades labels against a detector: moving2mobile recovers
static instances of mobile things, large2small runs the detector on a
shrunken copy of the frame to pick up small objects, and the final
round consolidates.  Here a mock detector stands in for the trained
network so the data flow can run anywhere; it returns ground truth for
large objects at full resolution and everything at quarter scale,
which is exactly the failure mode each round is meant to fix.
"""
import tempfile
from pathlib import Path

import numpy as np

from mobilabel import (
    DbscanParams,
    DetectorNoise,
    EvalConfig,
    LabelSet,
    SceneSpec,
    default_stages,
    evaluate,
    generate_scene,
    make_initial_labels,
    mock_detector,
    run_pipeline,
    transform_labels,
)

spec = SceneSpec(seed=3, height=160, width=224, n_objects=(3, 6),
                 size_range=(20, 44), moving_fraction=0.5)
frames = [generate_scene(spec, i) for i in range(30)]
gt = [g for _, _, _, g in frames]
by_id = {g.frame_id: g for g in gt}

l0 = [make_initial_labels(d, m, k, DbscanParams(), frame_id=g.frame_id)
      for d, m, k, g in frames]
print("frames %d, gt instances %d, seeded %d" % (
    len(gt), sum(len(g.instances) for g in gt), sum(len(s.instances) for s in l0)))


def detector(ls, transform):
    g = by_id[ls.frame_id]
    if transform is None or transform.scale == 1.0:
        # full resolution: only the big things are detectable
        big = [inst for inst in g.instances if inst.area >= 1024]
        base = LabelSet(g.frame_id, g.height, g.width, big)
        tag = 0 if transform is None else 1
    else:
        base = transform_labels(g, transform)
        tag = 2
    rng = np.random.default_rng([3, int(ls.frame_id), tag])
    return mock_detector(base, DetectorNoise(score_mean=0.9, score_sigma=0.05), rng)


with tempfile.TemporaryDirectory() as tmp:
    stages = run_pipeline(l0, default_stages(), Path(tmp) / "exchange", detector)

# each stage fixes its own blind spot: l0 misses everything static,
# moving2mobile trades small movers for static coverage, large2small
# brings the small objects back via the quarter-scale pass
at50 = EvalConfig(iou_thresholds=(0.5,))
for name in ("l0", "moving2mobile", "large2small", "final"):
    rep = evaluate(stages[name], gt, at50, with_attributes=True)
    split = rep.ar_by_attribute
    print("%-14s AR %.3f  moving %.3f  static %.3f  small %.3f" % (
        name, rep.ar, split["moving"], split["static"], rep.ar_by_size["S"]))
