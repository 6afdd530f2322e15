"""Self-training round plumbing.

Each round trains an external detector on the current labels and turns
its predictions into the next label set.  Training and inference live
outside this package behind a directory exchange; everything here is a
pure function of (labels, config, exchange contents), so re-running a
round over identical files is byte-identical.

Stages, in fixed order:

  moving2mobile  keep detector predictions scoring at least the
                 configured confidence; the detector, briefly trained
                 on motion-seeded labels, generalizes to static
                 instances of the same categories.
  large2small    run the detector at a fixed pair of scales; keep
                 high-confidence predictions per scale, map the
                 small-scale ones back to original coordinates, and
                 merge the two sets with the mask aggregation rules.
  final          emit the finished training manifest for the last
                 from-scratch training run; labels pass through.

Exchange layout (one directory per detector run):

  request/<frame_id>.labels.json     training labels for this round
  request/<frame_id>.transform.json  inference-scale geometry (large2small,
                                     where the small-scale one is required)
  response/<frame_id>.pred.json      scored predictions per frame
  MANIFEST.json                      frame ids plus the stage config
"""

import inspect
from dataclasses import asdict, dataclass
from pathlib import Path

from .aggregate import AggParams, mask_agg
from .errors import (
    DimensionMismatch,
    FrameMismatch,
    MissingPredictions,
    StageOrderViolation,
)
from .initlabel import LabelSet, make_initial_labels
from .io import _dump_json, _load_json, atomic_write_bytes, read_labels, read_transform, write_labels, write_transform
from .maskcore import PreparedMask, iou
from .rescale import ScaleTransform, make_transform, invert_labels

STAGES = ("moving2mobile", "large2small", "final")


def _check_unit(name, value):
    if not (0.0 <= value <= 1.0):
        raise ValueError(f"{name} must be in [0, 1], got {value}")


def _check_pair(name, value, lo_open=False):
    if not (isinstance(value, tuple) and len(value) == 2):
        raise ValueError(f"{name} must be a pair, got {value!r}")
    for v in value:
        if lo_open and not (0.0 < v <= 1.0):
            raise ValueError(f"{name} entries must be in (0, 1], got {value}")
        if not lo_open:
            _check_unit(name, v)


@dataclass(frozen=True)
class RoundConfig:
    """One stage's knobs.

    conf_threshold is a single score cutoff, or a (large, small) pair
    for the two-scale stage.  scale is the training jitter range
    (lo, hi) for the training stages and the fixed (large, small)
    inference pair for the two-scale stage.  epochs is advisory
    metadata for the external trainer; the pipeline cannot observe or
    enforce training length.
    """

    stage: str
    conf_threshold: float | tuple[float, float] | None = None
    scale: tuple[float, float] | None = None
    agg: AggParams | None = None
    epochs: int | None = None

    def __post_init__(self):
        if self.stage not in STAGES:
            raise ValueError(f"stage must be one of {STAGES}, got {self.stage!r}")
        if self.conf_threshold is not None and isinstance(self.conf_threshold, list):
            object.__setattr__(self, "conf_threshold", tuple(self.conf_threshold))
        if self.scale is not None:
            object.__setattr__(self, "scale", tuple(self.scale))
        if self.epochs is None:
            object.__setattr__(self, "epochs", 3 if self.stage == "moving2mobile" else 20)
        if self.epochs < 1:
            raise ValueError("epochs must be positive")

        if self.stage == "moving2mobile":
            if isinstance(self.conf_threshold, bool) or not isinstance(
                    self.conf_threshold, (int, float)):
                raise ValueError("moving2mobile needs a single conf_threshold")
            object.__setattr__(self, "conf_threshold", float(self.conf_threshold))
            _check_unit("conf_threshold", self.conf_threshold)
            if self.scale is None:
                raise ValueError("moving2mobile needs a scale jitter range")
            _check_pair("scale", self.scale, lo_open=True)
            if self.scale[0] > self.scale[1]:
                raise ValueError(f"empty jitter range {self.scale}")
            if self.agg is not None:
                raise ValueError("agg applies only to the two-scale stage")
        elif self.stage == "large2small":
            _check_pair("conf_threshold", self.conf_threshold)
            if self.scale is None:
                raise ValueError("large2small needs a (large, small) scale pair")
            _check_pair("scale", self.scale, lo_open=True)
            if self.agg is None:
                raise ValueError("large2small needs AggParams")
        else:  # final
            if self.conf_threshold is not None:
                raise ValueError("final stage takes no conf_threshold")
            if self.scale is not None:
                _check_pair("scale", self.scale, lo_open=True)
            if self.agg is not None:
                raise ValueError("final stage takes no AggParams")

    def to_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}

    @classmethod
    def from_dict(cls, d: dict) -> "RoundConfig":
        agg = AggParams(**d["agg"]) if "agg" in d else None
        return cls(stage=d["stage"], conf_threshold=d.get("conf_threshold"),
                   scale=d.get("scale"), agg=agg, epochs=d.get("epochs"))


def default_stages() -> tuple[RoundConfig, RoundConfig, RoundConfig]:
    """The three stages with their stock settings."""
    return (
        RoundConfig(stage="moving2mobile", conf_threshold=0.5, scale=(0.5, 1.0)),
        RoundConfig(stage="large2small", conf_threshold=(0.9, 0.8),
                    scale=(1.0, 0.25), agg=AggParams()),
        RoundConfig(stage="final", scale=(0.5, 1.0)),
    )


def default_config_snapshot() -> dict:
    """Flat view of every stock threshold, read from the live defaults.

    Values are pulled from the actual function signatures and stage
    configs rather than restated, so this reflects what the code runs.
    """
    m2m, l2s, _ = default_stages()
    motion = inspect.signature(make_initial_labels).parameters["motion_threshold"].default
    overlap = inspect.signature(gt_overlap_filter).parameters["min_iou"].default
    return {
        "motion_threshold": motion,
        "m2m_conf": m2m.conf_threshold,
        "l2s_scales": l2s.scale,
        "l2s_confs": l2s.conf_threshold,
        "scale_jitter": m2m.scale,
        "match_thrd": l2s.agg.match_thrd,
        "filt_frac": l2s.agg.filt_frac,
        "cover_frac": l2s.agg.cover_frac,
        "gt_overlap_min_iou": overlap,
    }


def threshold_filter(predictions: LabelSet, conf: float) -> LabelSet:
    """Keep instances scoring at least conf (inclusive)."""
    _check_unit("conf", conf)
    kept = [inst for inst in predictions.instances if inst.score >= conf]
    return LabelSet(predictions.frame_id, predictions.height, predictions.width, kept)


def gt_overlap_filter(predictions: LabelSet, gt: LabelSet,
                      min_iou: float = 0.1) -> LabelSet:
    """Keep predictions whose best mask IoU against ground truth reaches
    min_iou (inclusive).  With an empty ground-truth set nothing
    survives.  Used only for oracle-parity experiments, never in the
    unsupervised path.
    """
    _check_unit("min_iou", min_iou)
    if (predictions.height, predictions.width) != (gt.height, gt.width):
        raise DimensionMismatch(
            f"predictions {predictions.height}x{predictions.width} vs "
            f"ground truth {gt.height}x{gt.width}")
    gt_masks = [PreparedMask(g.mask) for g in gt.instances]
    kept = []
    for inst in predictions.instances:
        m = PreparedMask(inst.mask)
        if any(iou(m, g) >= min_iou for g in gt_masks):
            kept.append(inst)
    return LabelSet(predictions.frame_id, predictions.height, predictions.width, kept)


@dataclass(frozen=True)
class DetectorExchange:
    """File contract with the external detector, one directory per run."""

    root: Path

    def __post_init__(self):
        object.__setattr__(self, "root", Path(self.root))

    @property
    def request_dir(self) -> Path:
        return self.root / "request"

    @property
    def response_dir(self) -> Path:
        return self.root / "response"

    def ensure_dirs(self) -> None:
        self.request_dir.mkdir(parents=True, exist_ok=True)
        self.response_dir.mkdir(parents=True, exist_ok=True)

    def labels_path(self, frame_id: str) -> Path:
        return self.request_dir / f"{frame_id}.labels.json"

    def transform_path(self, frame_id: str) -> Path:
        return self.request_dir / f"{frame_id}.transform.json"

    def pred_path(self, frame_id: str) -> Path:
        return self.response_dir / f"{frame_id}.pred.json"

    @property
    def manifest_path(self) -> Path:
        return self.root / "MANIFEST.json"

    def write_request(self, labels: LabelSet,
                      transform: ScaleTransform | None = None) -> None:
        self.ensure_dirs()
        write_labels(self.labels_path(labels.frame_id), labels)
        if transform is not None:
            write_transform(self.transform_path(labels.frame_id), transform)

    def read_request(self, frame_id: str):
        labels = read_labels(self.labels_path(frame_id))
        tpath = self.transform_path(frame_id)
        transform = read_transform(tpath) if tpath.exists() else None
        return labels, transform

    def write_response(self, predictions: LabelSet) -> None:
        self.ensure_dirs()
        write_labels(self.pred_path(predictions.frame_id), predictions)

    def read_response(self, frame_id: str) -> LabelSet:
        path = self.pred_path(frame_id)
        if not path.exists():
            raise MissingPredictions(frame_id)
        preds = read_labels(path)
        if preds.frame_id != frame_id:
            raise FrameMismatch(
                f"prediction file for {frame_id!r} says frame {preds.frame_id!r}")
        return preds

    def write_manifest(self, frame_ids: list[str], cfg: RoundConfig) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        payload = {"frame_ids": list(frame_ids), "config": cfg.to_dict()}
        atomic_write_bytes(self.manifest_path, _dump_json(payload))

    def read_manifest(self):
        d = _load_json(self.manifest_path)
        return list(d["frame_ids"]), RoundConfig.from_dict(d["config"])


def _response(exchange: DetectorExchange, current: LabelSet) -> LabelSet:
    pred = exchange.read_response(current.frame_id)
    if (pred.height, pred.width) != (current.height, current.width):
        raise DimensionMismatch(
            f"frame {current.frame_id}: predictions {pred.height}x{pred.width} "
            f"vs labels {current.height}x{current.width}")
    return pred


def build_round(cfg: RoundConfig, current: list[LabelSet],
                exchange: DetectorExchange,
                small_exchange: DetectorExchange | None = None) -> list[LabelSet]:
    """Turn one stage's detector responses into the next label sets.

    `current` fixes the frame list and dimensions.  The single-scale
    stage reads one response per frame and keeps high scorers.  The
    two-scale stage reads large-scale responses from `exchange` and
    small-scale ones from `small_exchange`, maps the latter back
    through the transform file recorded with its request (a missing
    one raises FileNotFoundError), and merges per frame.  The final
    stage passes labels through untouched.
    """
    if cfg.stage == "final":
        return list(current)
    if cfg.stage == "large2small" and small_exchange is None:
        raise ValueError("large2small needs the small-scale exchange")

    out = []
    for cur in current:
        preds = _response(exchange, cur)
        if cfg.stage == "moving2mobile":
            out.append(threshold_filter(preds, cfg.conf_threshold))
            continue
        large = threshold_filter(preds, cfg.conf_threshold[0])
        small = threshold_filter(_response(small_exchange, cur), cfg.conf_threshold[1])
        t = read_transform(small_exchange.transform_path(cur.frame_id))
        out.append(mask_agg(large, invert_labels(small, t), cfg.agg))
    return out


def _detector_runs(cfg: RoundConfig, root: Path) -> list[tuple[DetectorExchange, float | None]]:
    """[(exchange, inference scale or None)] for one stage: the (large,
    small) pair for large2small, one run at the labels' own geometry
    otherwise."""
    if cfg.stage == "large2small":
        return [(DetectorExchange(root / f"large2small.{branch}"), scale)
                for branch, scale in zip(("large", "small"), cfg.scale)]
    return [(DetectorExchange(root / cfg.stage), None)]


def run_pipeline(l0: list[LabelSet], stages, exchange_root, detector=None) -> dict:
    """Drive the stages in order over one set of initial labels.

    `stages` must follow the moving2mobile, large2small, final order
    (prefixes allowed).  Every stage writes its manifest and requests
    first (the two-scale stage with each request's transform); in the
    detector-backed stages `detector(labels, transform)` then fills
    the responses, or, when None, responses must already exist in the
    exchange directories.  Returns {stage name: label sets}, plus the
    initial labels under "l0".
    """
    stages = list(stages)
    names = [s.stage for s in stages]
    if len(stages) > len(STAGES) or names != list(STAGES[:len(stages)]):
        raise StageOrderViolation(
            f"stages must be a prefix of {STAGES}, got {names}")

    root = Path(exchange_root)
    frame_ids = [ls.frame_id for ls in l0]
    current = list(l0)
    results: dict = {"l0": current}
    for cfg in stages:
        runs = _detector_runs(cfg, root)
        for ex, _ in runs:
            ex.write_manifest(frame_ids, cfg)
        for ls in current:
            for ex, scale in runs:
                t = None if scale is None else make_transform(ls.height, ls.width, scale)
                ex.write_request(ls, t)
                if detector is not None and cfg.stage != "final":
                    ex.write_response(detector(ls, t))
        current = build_round(cfg, current, *(ex for ex, _ in runs))
        results[cfg.stage] = current
    return results
