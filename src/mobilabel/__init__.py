"""Motion-seeded pseudo-labels, scale self-training, mask aggregation, metrics.

The package turns per-frame depth and motion-probability rasters into
class-agnostic instance labels without supervision: cluster moving 3D
points into initial labels, let an external detector generalize them to
static objects, re-run it at a shrunken scale to catch small objects,
and merge the two proposal sets.  Everything around the detector lives
here; training itself happens behind a file-exchange contract.
"""

from .aggregate import (
    AggParams,
    mask_agg,
    nms,
)
from .initlabel import (
    CameraIntrinsics,
    DbscanParams,
    InstanceLabel,
    LabelSet,
    binarize_motion,
    dbscan_partition,
    make_initial_labels,
    project,
    unproject,
)
from .io import DatasetLayout
from .maskcore import (
    BBox,
    PreparedMask,
    Rle,
    box_iou,
    coverage,
    intersection,
    iou,
    rle_decode,
    rle_encode,
)
from .metrics import (
    COCO_THRESHOLDS,
    EvalConfig,
    EvalReport,
    evaluate,
    size_bucket,
)
from .rescale import (
    ScaleTransform,
    invert_labels,
    make_transform,
    transform_labels,
    transform_raster,
)
from .rounds import (
    STAGES,
    DetectorExchange,
    RoundConfig,
    build_round,
    default_config_snapshot,
    default_stages,
    gt_overlap_filter,
    run_pipeline,
    threshold_filter,
)
from .synthgen import (
    DetectorNoise,
    SceneSpec,
    generate_scene,
    mock_detector,
    occlusion_fixture,
    scene_intrinsics,
)

__version__ = "0.1.0"

__all__ = [
    "AggParams", "BBox", "COCO_THRESHOLDS", "CameraIntrinsics", "DatasetLayout",
    "DbscanParams", "DetectorExchange", "DetectorNoise", "EvalConfig", "EvalReport",
    "InstanceLabel", "LabelSet", "PreparedMask", "Rle", "RoundConfig", "STAGES",
    "ScaleTransform", "SceneSpec", "binarize_motion", "box_iou",
    "build_round", "coverage", "dbscan_partition",
    "default_config_snapshot", "default_stages", "evaluate", "generate_scene",
    "gt_overlap_filter", "intersection", "invert_labels", "iou", "make_initial_labels",
    "make_transform", "mask_agg", "mock_detector", "nms",
    "occlusion_fixture", "project", "rle_decode", "rle_encode", "run_pipeline",
    "scene_intrinsics", "size_bucket", "threshold_filter", "transform_labels",
    "transform_raster", "unproject",
]
