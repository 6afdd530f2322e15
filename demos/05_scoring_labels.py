"""Scoring predicted labels against ground truth.

Builds a tiny synthetic dataset, corrupts the ground truth with a mock
detector, and reads the numbers the evaluator produces: AR/AP over the
IoU grid, the per-size-bucket recalls, and the moving/static split.
"""
import numpy as np

from mobilabel import (
    DetectorNoise,
    EvalConfig,
    SceneSpec,
    evaluate,
    generate_scene,
    mock_detector,
)

spec = SceneSpec(seed=42, height=128, width=192, n_objects=(4, 7))
frames = [generate_scene(spec, i) for i in range(40)]
gt = [g for _, _, _, g in frames]
print("frames:", len(gt), "instances:", sum(len(g.instances) for g in gt))

noise = DetectorNoise(mask_jitter=2, score_mean=0.8, score_sigma=0.1,
                      dropout=0.1, false_positives=1)
preds = [mock_detector(g, noise, np.random.default_rng([42, i]))
         for i, g in enumerate(gt)]

cfg = EvalConfig()
report = evaluate(preds, gt, cfg)
print("AR %.3f  AP %.3f over %d IoU thresholds" % (
    report.ar, report.ap, len(cfg.iou_thresholds)))
for t, ar_t, ap_t in zip(cfg.iou_thresholds, report.ar_per_threshold,
                         report.ap_per_threshold):
    print("  IoU %.2f  AR %.3f  AP %.3f" % (t, ar_t, ap_t))
print("by size:", {k: round(v, 3) for k, v in report.ar_by_size.items()})

# perfect predictions saturate everything
ideal = evaluate(gt, gt)
print("self eval: AR %.1f AP %.1f" % (ideal.ar, ideal.ap))

# recall split by the moving attribute, at the loose end of the grid
split = evaluate(preds, gt, EvalConfig(iou_thresholds=(0.5,)), with_attributes=True).ar_by_attribute
print("AR@0.5 moving %.3f  static %.3f" % (split["moving"], split["static"]))
