"""File formats: float32 depth rasters, PGM motion masks, structured-text
labels, intrinsics, and scale transforms, plus the dataset directory layout.

Every writer is byte-deterministic (identical values give identical files)
and atomic (write to a temp file in the target directory, then rename).
Every reader validates before trusting anything: malformed input raises a
typed error from :mod:`mobilabel.errors`, never an arbitrary exception.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    BadHeader,
    BadMagic,
    BoxMaskInconsistency,
    FrameMismatch,
    NonFiniteValue,
    RleSumMismatch,
    SchemaViolation,
    TruncatedFile,
)
from .initlabel import CameraIntrinsics, InstanceLabel, LabelSet
from .maskcore import BBox, Rle, bbox_of, rle_decode
from .rescale import ScaleTransform

__all__ = [
    "atomic_write_bytes",
    "read_depth",
    "write_depth",
    "read_motion",
    "write_motion",
    "read_labels",
    "write_labels",
    "read_intrinsics",
    "write_intrinsics",
    "read_transform",
    "write_transform",
    "DatasetLayout",
]

_DEPTH_MAGIC = b"DPF1"

# Largest label frame accepted, in pixels: 27 Waymo-sized (1280x1920) frames.
MAX_LABEL_PIXELS = 1 << 26


def atomic_write_bytes(path, data: bytes) -> None:
    """Write via a sibling temp file and rename, so readers never see a
    partial file."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# -- depth: magic + u32le width/height + f32le row-major -------------------

def write_depth(path, depth: np.ndarray) -> None:
    depth = np.asarray(depth)
    if depth.ndim != 2:
        raise ValueError(f"depth must be 2D, got shape {depth.shape}")
    values = depth.astype("<f4")
    if not np.isfinite(values).all():
        raise NonFiniteValue("depth contains non-finite values (or overflows float32)")
    h, w = values.shape
    header = _DEPTH_MAGIC + struct.pack("<II", w, h)
    atomic_write_bytes(path, header + values.tobytes(order="C"))


def read_depth(path) -> np.ndarray:
    data = Path(path).read_bytes()
    if len(data) < 4:
        raise TruncatedFile(f"{path}: {len(data)} bytes, need at least 4 for the magic")
    if data[:4] != _DEPTH_MAGIC:
        raise BadMagic(f"{path}: magic {data[:4]!r} != {_DEPTH_MAGIC!r}")
    if len(data) < 12:
        raise TruncatedFile(f"{path}: header truncated at {len(data)} bytes")
    w, h = struct.unpack("<II", data[4:12])
    if w == 0 or h == 0:
        raise BadHeader(f"{path}: zero dimension {w}x{h}")
    expected = 12 + 4 * w * h
    if len(data) < expected:
        raise TruncatedFile(f"{path}: {len(data)} bytes, expected {expected}")
    if len(data) > expected:
        raise BadHeader(f"{path}: {len(data) - expected} trailing bytes")
    values = np.frombuffer(data, dtype="<f4", offset=12).reshape(h, w)
    if not np.isfinite(values).all():
        raise NonFiniteValue(f"{path}: depth payload contains non-finite values")
    return np.array(values, dtype=np.float32)


# -- motion: 8-bit binary PGM, probability = value / 255 -------------------

_WS = b" \t\n\r\x0b\x0c"


def _pgm_token(data: bytes, pos: int, path) -> tuple[int, int]:
    while pos < len(data) and data[pos] in _WS:
        pos += 1
    if pos >= len(data):
        raise TruncatedFile(f"{path}: header ended early")
    start = pos
    while pos < len(data) and data[pos] not in _WS:
        pos += 1
    token = data[start:pos]
    if not token.isdigit():
        raise BadHeader(f"{path}: expected an integer header token, got {token!r}")
    return int(token), pos


def write_motion(path, prob: np.ndarray) -> None:
    prob = np.asarray(prob, dtype=np.float64)
    if prob.ndim != 2:
        raise ValueError(f"motion mask must be 2D, got shape {prob.shape}")
    if not np.isfinite(prob).all() or prob.min() < 0 or prob.max() > 1:
        raise ValueError("motion probabilities must be finite and lie in [0, 1]")
    h, w = prob.shape
    payload = np.round(prob * 255.0).astype(np.uint8).tobytes(order="C")
    atomic_write_bytes(path, f"P5\n{w} {h}\n255\n".encode("ascii") + payload)


def read_motion(path) -> np.ndarray:
    data = Path(path).read_bytes()
    if len(data) < 2:
        raise TruncatedFile(f"{path}: {len(data)} bytes")
    if data[:2] != b"P5":
        raise BadHeader(f"{path}: not a binary PGM (starts {data[:2]!r})")
    w, pos = _pgm_token(data, 2, path)
    h, pos = _pgm_token(data, pos, path)
    maxval, pos = _pgm_token(data, pos, path)
    if maxval != 255:
        raise BadHeader(f"{path}: maxval {maxval}, only 255 supported")
    if w == 0 or h == 0:
        raise BadHeader(f"{path}: zero dimension {w}x{h}")
    if pos >= len(data) or data[pos] not in _WS:
        raise BadHeader(f"{path}: missing whitespace after maxval")
    pos += 1
    payload = data[pos:]
    if len(payload) < w * h:
        raise TruncatedFile(f"{path}: payload {len(payload)} bytes, expected {w * h}")
    if len(payload) > w * h:
        raise BadHeader(f"{path}: {len(payload) - w * h} trailing bytes")
    values = np.frombuffer(payload, dtype=np.uint8).reshape(h, w)
    return values.astype(np.float64) / 255.0


# -- structured-text helpers ------------------------------------------------

def _dump_json(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode("ascii")


def _load_json(path):
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as e:
        raise SchemaViolation("$", f"{path}: not valid UTF-8 text ({e})") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaViolation("$", f"{path}: invalid structured text ({e})") from None


def _want(obj, key, kind, path):
    if not isinstance(obj, dict):
        raise SchemaViolation(path, f"expected an object, got {type(obj).__name__}")
    if key not in obj:
        raise SchemaViolation(f"{path}.{key}", "missing required field")
    value = obj[key]
    field = f"{path}.{key}"
    if kind == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise SchemaViolation(field, f"expected an integer, got {value!r}")
    elif kind == "num":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SchemaViolation(field, f"expected a number, got {value!r}")
        value = float(value)
        if not np.isfinite(value):
            raise SchemaViolation(field, f"expected a finite number, got {value!r}")
    elif kind == "str":
        if not isinstance(value, str):
            raise SchemaViolation(field, f"expected a string, got {value!r}")
    elif kind == "list":
        if not isinstance(value, list):
            raise SchemaViolation(field, f"expected a list, got {type(value).__name__}")
    elif kind == "dict":
        if not isinstance(value, dict):
            raise SchemaViolation(field, f"expected an object, got {type(value).__name__}")
    elif kind == "bool":
        if not isinstance(value, bool):
            raise SchemaViolation(field, f"expected a boolean, got {value!r}")
    return value


# -- labels -------------------------------------------------------------------

def write_labels(path, labels: LabelSet) -> None:
    instances = []
    for inst in labels.instances:
        entry = {
            "id": inst.instance_id,
            "score": float(inst.score),
            "box": [float(inst.box.x), float(inst.box.y), float(inst.box.w), float(inst.box.h)],
            "rle": {"size": [inst.mask.height, inst.mask.width], "counts": list(inst.mask.counts)},
        }
        if inst.attributes is not None:
            entry["attributes"] = {k: bool(v) for k, v in sorted(inst.attributes.items())}
        instances.append(entry)
    doc = {
        "frame_id": labels.frame_id,
        "height": labels.height,
        "width": labels.width,
        "instances": instances,
    }
    atomic_write_bytes(path, _dump_json(doc))


def read_labels(path, box_tol: float | None = None) -> LabelSet:
    """Parse and validate a label file.

    box_tol enables the box-tightness check: each box coordinate must
    agree with the tight bounding box of the decoded mask within box_tol
    pixels. It is off by default because scaled label sets legitimately
    carry real-valued boxes that are not pixel-tight.
    """
    doc = _load_json(path)
    frame_id = _want(doc, "frame_id", "str", "$")
    height = _want(doc, "height", "int", "$")
    width = _want(doc, "width", "int", "$")
    if height < 1 or width < 1:
        raise SchemaViolation("$.height", f"frame dimensions must be positive, got {height}x{width}")
    if height * width > MAX_LABEL_PIXELS:
        raise SchemaViolation("$.height", f"frame {height}x{width} exceeds {MAX_LABEL_PIXELS} pixels")
    raw_instances = _want(doc, "instances", "list", "$")
    instances = []
    seen_ids = set()
    for i, entry in enumerate(raw_instances):
        at = f"$.instances[{i}]"
        iid = _want(entry, "id", "int", at)
        if iid in seen_ids:
            raise SchemaViolation(f"{at}.id", f"duplicate instance id {iid}")
        seen_ids.add(iid)
        score = _want(entry, "score", "num", at)
        if not (0.0 <= score <= 1.0):
            raise SchemaViolation(f"{at}.score", f"score {score} outside [0, 1]")
        box_raw = _want(entry, "box", "list", at)
        if len(box_raw) != 4:
            raise SchemaViolation(f"{at}.box", f"expected 4 numbers, got {len(box_raw)}")
        box_vals = []
        for j, v in enumerate(box_raw):
            if isinstance(v, bool) or not isinstance(v, (int, float)) or not np.isfinite(float(v)):
                raise SchemaViolation(f"{at}.box[{j}]", f"expected a finite number, got {v!r}")
            box_vals.append(float(v))
        if box_vals[2] < 0 or box_vals[3] < 0:
            raise SchemaViolation(f"{at}.box", f"negative box size in {box_vals}")
        rle_raw = _want(entry, "rle", "dict", at)
        size = _want(rle_raw, "size", "list", f"{at}.rle")
        if len(size) != 2 or any(isinstance(v, bool) or not isinstance(v, int) for v in size):
            raise SchemaViolation(f"{at}.rle.size", f"expected [height, width], got {size!r}")
        if size != [height, width]:
            raise SchemaViolation(f"{at}.rle.size", f"mask size {size} != frame size {[height, width]}")
        counts = _want(rle_raw, "counts", "list", f"{at}.rle")
        for j, c in enumerate(counts):
            if isinstance(c, bool) or not isinstance(c, int) or c < 0:
                raise SchemaViolation(f"{at}.rle.counts[{j}]", f"expected a non-negative integer, got {c!r}")
        if sum(counts) != height * width:
            raise RleSumMismatch(
                f"{path}: instance {iid} counts sum to {sum(counts)}, expected {height * width}"
            )
        attributes = None
        if "attributes" in entry:
            attrs_raw = _want(entry, "attributes", "dict", at)
            attributes = {}
            for k in sorted(attrs_raw):
                if not isinstance(attrs_raw[k], bool):
                    raise SchemaViolation(f"{at}.attributes.{k}", f"expected a boolean, got {attrs_raw[k]!r}")
                attributes[k] = attrs_raw[k]
        rle = Rle(height=height, width=width, counts=tuple(counts))
        box = BBox(*box_vals)
        if box_tol is not None:
            mask = rle_decode(rle)
            if not mask.any():
                raise BoxMaskInconsistency(f"{path}: instance {iid} has an empty mask but a box")
            tight = bbox_of(mask)
            err = max(abs(box.x - tight.x), abs(box.y - tight.y),
                      abs(box.w - tight.w), abs(box.h - tight.h))
            if err > box_tol:
                raise BoxMaskInconsistency(
                    f"{path}: instance {iid} box {box} deviates from mask bounds {tight} by {err} px"
                )
        instances.append(InstanceLabel(mask=rle, box=box, score=score, instance_id=iid,
                                       attributes=attributes))
    return LabelSet(frame_id=frame_id, height=height, width=width, instances=instances)


# -- intrinsics / transform ---------------------------------------------------

def write_intrinsics(path, k: CameraIntrinsics) -> None:
    atomic_write_bytes(path, _dump_json(
        {"fx": float(k.fx), "fy": float(k.fy), "cx": float(k.cx), "cy": float(k.cy)}))


def read_intrinsics(path) -> CameraIntrinsics:
    doc = _load_json(path)
    fx = _want(doc, "fx", "num", "$")
    fy = _want(doc, "fy", "num", "$")
    cx = _want(doc, "cx", "num", "$")
    cy = _want(doc, "cy", "num", "$")
    if fx <= 0 or fy <= 0:
        raise SchemaViolation("$.fx", f"focal lengths must be positive, got fx={fx}, fy={fy}")
    return CameraIntrinsics(fx=fx, fy=fy, cx=cx, cy=cy)


def write_transform(path, t: ScaleTransform) -> None:
    atomic_write_bytes(path, _dump_json({
        "scale": float(t.scale),
        "pad_right": t.pad_right,
        "pad_bottom": t.pad_bottom,
        "orig_height": t.orig_height,
        "orig_width": t.orig_width,
    }))


def read_transform(path) -> ScaleTransform:
    doc = _load_json(path)
    scale = _want(doc, "scale", "num", "$")
    pad_right = _want(doc, "pad_right", "int", "$")
    pad_bottom = _want(doc, "pad_bottom", "int", "$")
    orig_height = _want(doc, "orig_height", "int", "$")
    orig_width = _want(doc, "orig_width", "int", "$")
    if not (0 < scale <= 1):
        raise SchemaViolation("$.scale", f"scale must lie in (0, 1], got {scale}")
    if pad_right < 0 or pad_bottom < 0:
        raise SchemaViolation("$.pad_right", f"padding must be non-negative, got {pad_right}, {pad_bottom}")
    if orig_height < 1 or orig_width < 1:
        raise SchemaViolation("$.orig_height", f"dimensions must be positive, got {orig_height}x{orig_width}")
    if pad_bottom >= orig_height or pad_right >= orig_width:
        raise SchemaViolation("$.pad_bottom", "padding leaves no content region")
    return ScaleTransform(scale=scale, pad_right=pad_right, pad_bottom=pad_bottom,
                          orig_height=orig_height, orig_width=orig_width)


# -- dataset layout -------------------------------------------------------------

@dataclass(frozen=True)
class DatasetLayout:
    """Directory convention: depth/, motion/, labels/ plus one intrinsics
    file at the root; frames are named by zero-padded decimal ids."""

    root: Path

    def __post_init__(self):
        object.__setattr__(self, "root", Path(self.root))

    @staticmethod
    def frame_name(index: int) -> str:
        return f"{index:06d}"

    @property
    def depth_dir(self) -> Path:
        return self.root / "depth"

    @property
    def motion_dir(self) -> Path:
        return self.root / "motion"

    @property
    def labels_dir(self) -> Path:
        return self.root / "labels"

    @property
    def intrinsics_path(self) -> Path:
        return self.root / "intrinsics.json"

    def depth_path(self, frame_id: str) -> Path:
        return self.depth_dir / f"{frame_id}.dpf1"

    def motion_path(self, frame_id: str) -> Path:
        return self.motion_dir / f"{frame_id}.pgm"

    def labels_path(self, frame_id: str) -> Path:
        return self.labels_dir / f"{frame_id}.json"

    def ensure_dirs(self) -> None:
        for d in (self.depth_dir, self.motion_dir, self.labels_dir):
            d.mkdir(parents=True, exist_ok=True)

    def frame_ids(self) -> list[str]:
        if not self.depth_dir.is_dir():
            return []
        return sorted(p.stem for p in self.depth_dir.glob("*.dpf1"))

    def validate(self) -> list[str]:
        """Check that every depth file has its motion file; returns the frame
        ids on success.  Nothing is decoded here: a frame's rasters are
        checked against each other when they are read."""
        ids = self.frame_ids()
        for fid in ids:
            if not self.motion_path(fid).is_file():
                raise FrameMismatch(f"frame {fid} has depth but no motion file")
        return ids
