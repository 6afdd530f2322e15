"""Workload definitions and set-up: the synthetic dataset and the stand-in
detector responses for one (workload, seed) pair.

Set-up writes everything the measured path reads:

  data/                  the dataset, laid out as ``mobilabel synth`` does
  responses/<key>/       one precomputed stand-in response per frame and
                         detector call: ``m2m`` (moving2mobile), ``large``
                         and ``small`` (the two large2small scales)

Frames are drawn from the workload's ``SceneSpec``.  Clustering time
follows the number of moving pixels, which varies by a third or more
from frame to frame, so with one to a dozen frames per dataset the seed
would move the frames-per-second figures more than a change of the code
does.  ``select_frames`` therefore draws the dataset from a larger pool
so that its total of moving pixels lands near a fixed target.  The
selection uses only the generated rasters, so the same seed always
yields the same dataset.
"""

from __future__ import annotations

import inspect
import zlib
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from mobilabel.errors import PlacementFailure
from mobilabel.initlabel import LabelSet, make_initial_labels
from mobilabel.io import (
    DatasetLayout,
    write_depth,
    write_intrinsics,
    write_labels,
    write_motion,
)
from mobilabel.rescale import make_transform, transform_labels
from mobilabel.rounds import default_stages
from mobilabel.synthgen import DetectorNoise, SceneSpec, generate_scene, mock_detector, scene_intrinsics

# The full-scale stand-in only finds instances of at least this many
# pixels, as in acceptance criterion 6: a detector trained on full-size
# frames has never seen small objects clean, so large2small at the
# reduced scale is the only route by which they enter the labels.
FULL_SCALE_MIN_AREA = 1024

# Motion cut of ``make_initial_labels``, read from its signature.
MOTION_THRESHOLD = inspect.signature(make_initial_labels).parameters["motion_threshold"].default

RESPONSE_KEYS = ("m2m", "large", "small")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    spec: SceneSpec
    noise: DetectorNoise
    frames: int
    candidates: int
    target_moving_px: int


# Stand-in noise of acceptance criterion 6.
CRITERION6_NOISE = DetectorNoise(mask_jitter=1, score_mean=0.95, score_sigma=0.02, dropout=0.05)

WORKLOADS = {
    "kitti-cluster": Workload(
        name="kitti-cluster",
        why="375x1242 noisy, blurred frames with ~20k moving px: L0 clustering "
            "dominates, mask work is light",
        spec=SceneSpec(height=375, width=1242, n_objects=(8, 8), size_range=(30, 120),
                       moving_fraction=0.5, depth_sigma=0.05, motion_blur=2),
        noise=CRITERION6_NOISE,
        frames=1, candidates=12, target_moving_px=20_000,
    ),
    "waymo-masks": Workload(
        name="waymo-masks",
        why="1280x1920 frames, 30 S/M/L objects, few moving, ~50 noisy predictions: "
            "full-frame mask decodes in rounds and eval",
        spec=SceneSpec(height=1280, width=1920, n_objects=(30, 30), size_range=(8, 160),
                       moving_fraction=0.1),
        noise=DetectorNoise(mask_jitter=1, score_mean=0.95, score_sigma=0.05,
                            dropout=0.1, false_positives=25),
        frames=1, candidates=12, target_moving_px=17_000,
    ),
}

# Tiny variants for the smoke test: the same make-up at frame sizes that
# run the whole path and every check in seconds.
SMOKE = {
    "kitti-cluster": dict(spec=dict(height=128, width=256, n_objects=(4, 4), size_range=(40, 48),
                                    margin=6),
                          candidates=2, target_moving_px=1_500),
    "waymo-masks": dict(spec=dict(height=160, width=256, n_objects=(8, 8), size_range=(10, 64),
                                  moving_fraction=0.25, margin=6),
                        noise=dict(false_positives=4), frames=2, candidates=2, target_moving_px=500),
}


def smoke_variant(w: Workload) -> Workload:
    over = SMOKE[w.name]
    return replace(w, spec=replace(w.spec, **over.get("spec", {})),
                   noise=replace(w.noise, **over.get("noise", {})),
                   **{k: v for k, v in over.items() if k not in ("spec", "noise")})


def moving_px(motion: np.ndarray) -> int:
    """Pixels the motion cut keeps, on the 8-bit values the PGM file holds."""
    quantized = np.round(np.asarray(motion, dtype=np.float64) * 255.0) / 255.0
    return int(np.count_nonzero(quantized >= MOTION_THRESHOLD))


def select_frames(w: Workload, seed: int):
    """Draw ``w.frames`` frames from a pool of ``frames * candidates``
    whose total of moving pixels is close to ``frames * target_moving_px``.

    Frames are picked one at a time, each bringing the running total
    closest to the target for the frames picked so far; then single
    swaps with the rest of the pool are made while one brings the total
    closer.  Frames keep their generator index as their id.
    """
    spec = replace(w.spec, seed=seed)
    pool = []
    for index in range(w.frames * w.candidates):
        try:
            frame = generate_scene(spec, index)
        except PlacementFailure:
            continue
        pool.append((moving_px(frame[1]), index, frame))
    if len(pool) < w.frames:
        raise PlacementFailure(f"only {len(pool)} placeable frames for {w.name}")
    chosen = []
    for n in range(1, w.frames + 1):
        total = sum(c[0] for c in chosen)
        best = min(pool, key=lambda c: (abs(total + c[0] - n * w.target_moving_px), c[1]))
        pool.remove(best)
        chosen.append(best)
    goal = w.frames * w.target_moving_px
    gap = abs(sum(c[0] for c in chosen) - goal)
    swapped = True
    while swapped:
        swapped = False
        for i, j in ((i, j) for i in range(len(chosen)) for j in range(len(pool))):
            new_gap = abs(sum(c[0] for c in chosen) - chosen[i][0] + pool[j][0] - goal)
            if new_gap < gap:
                chosen[i], pool[j], gap, swapped = pool[j], chosen[i], new_gap, True
                break
    return spec, [frame for _, _, frame in sorted(chosen, key=lambda c: c[1])]


def _stream(seed: int, frame_id: str, tag: int) -> np.random.Generator:
    # one random stream per (frame, round, scale)
    return np.random.default_rng([seed, zlib.crc32(frame_id.encode("ascii")), tag])


def standin_responses(gt: LabelSet, noise: DetectorNoise, seed: int) -> dict[str, LabelSet]:
    """What the trained detector would answer for one frame.

    At full scale it sees only instances of at least FULL_SCALE_MIN_AREA
    pixels; at the small large2small scale it sees every instance,
    shrunk onto the padded canvas, with noise confined to the content.
    """
    big = [inst for inst in gt.instances if inst.area >= FULL_SCALE_MIN_AREA]
    full = LabelSet(gt.frame_id, gt.height, gt.width, big)
    small_scale = default_stages()[1].scale[1]
    t = make_transform(gt.height, gt.width, small_scale)
    shrunk = transform_labels(gt, t)
    return {
        "m2m": mock_detector(full, noise, _stream(seed, gt.frame_id, 0)),
        "large": mock_detector(full, noise, _stream(seed, gt.frame_id, 1)),
        "small": mock_detector(shrunk, noise, _stream(seed, gt.frame_id, 2),
                               region=(t.content_height, t.content_width)),
    }


def build(w: Workload, seed: int, root: Path) -> None:
    """Write the dataset and the stand-in responses under ``root``."""
    spec, frames = select_frames(w, seed)
    layout = DatasetLayout(root / "data")
    layout.ensure_dirs()
    write_intrinsics(layout.intrinsics_path, scene_intrinsics(spec))
    for key in RESPONSE_KEYS:
        (root / "responses" / key).mkdir(parents=True, exist_ok=True)
    for depth, motion, _, gt in frames:
        write_depth(layout.depth_path(gt.frame_id), depth)
        write_motion(layout.motion_path(gt.frame_id), motion)
        write_labels(layout.labels_path(gt.frame_id), gt)
        for key, ls in standin_responses(gt, w.noise, seed).items():
            write_labels(root / "responses" / key / f"{gt.frame_id}.json", ls)
