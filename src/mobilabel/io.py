"""File formats: float32 depth rasters, PGM motion masks, structured-text
labels, intrinsics, and scale transforms, plus the dataset directory layout.

Every writer is byte-deterministic (identical values give identical files)
and atomic (write to a temp file in the target directory, then rename).
Every reader validates before trusting anything: malformed input raises a
typed error from :mod:`mobilabel.errors`, never an arbitrary exception.
"""

from __future__ import annotations

import json
import math
import os
import secrets
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    BadHeader,
    BadMagic,
    FrameMismatch,
    MissingPredictions,
    NonFiniteValue,
    RleSumMismatch,
    SchemaViolation,
    TruncatedFile,
)
from .initlabel import CameraIntrinsics, InstanceLabel, LabelSet
from .maskcore import BBox, Rle
from .rescale import ScaleTransform, make_transform

__all__ = [
    "atomic_write_bytes",
    "read_depth",
    "write_depth",
    "read_motion",
    "write_motion",
    "read_labels",
    "read_frame_labels",
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
    partial file. The file gets the mode ``open()`` would give it: 0o666
    less the umask."""
    path = Path(path)
    while True:
        tmp = path.with_name(f"{path.name}.{secrets.token_hex(4)}.tmp")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
            break
        except FileExistsError:  # another writer's temp file: draw another name
            continue
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
    """The (h, w) float32 raster of a depth file. Its size is checked
    against the header before anything is allocated, and the payload is
    read straight into the returned array."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        head = f.read(12)
        if size < 4:
            raise TruncatedFile(f"{path}: {size} bytes, need at least 4 for the magic")
        if head[:4] != _DEPTH_MAGIC:
            raise BadMagic(f"{path}: magic {head[:4]!r} != {_DEPTH_MAGIC!r}")
        if size < 12:
            raise TruncatedFile(f"{path}: header truncated at {size} bytes")
        w, h = struct.unpack("<II", head[4:12])
        if w == 0 or h == 0:
            raise BadHeader(f"{path}: zero dimension {w}x{h}")
        expected = 12 + 4 * w * h
        if size < expected:
            raise TruncatedFile(f"{path}: {size} bytes, expected {expected}")
        if size > expected:
            raise BadHeader(f"{path}: {size - expected} trailing bytes")
        values = np.empty((h, w), dtype="<f4")
        got = f.readinto(values)
        if got < 4 * w * h:
            raise TruncatedFile(f"{path}: {12 + got} bytes, expected {expected}")
    if not np.isfinite(values).all():
        raise NonFiniteValue(f"{path}: depth payload contains non-finite values")
    return values.astype(np.float32, copy=False)


# -- motion: 8-bit binary PGM, probability = level / 255 -------------------

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
    try:
        return int(token), pos
    except ValueError:  # more digits than int() converts
        raise BadHeader(f"{path}: header token of {len(token)} digits") from None


def write_motion(path, motion: np.ndarray) -> None:
    """Write uint8 levels, as :func:`read_motion` returns them, unchanged, and
    any other raster as probabilities in [0, 1], stored as round(p * 255)."""
    motion = np.asarray(motion)
    if motion.ndim != 2:
        raise ValueError(f"motion mask must be 2D, got shape {motion.shape}")
    if motion.dtype != np.uint8:
        motion = motion.astype(np.float64, copy=False)
        if not np.isfinite(motion).all() or motion.min() < 0 or motion.max() > 1:
            raise ValueError("motion probabilities must be finite and lie in [0, 1]")
        motion = np.round(motion * 255.0).astype(np.uint8)
    h, w = motion.shape
    atomic_write_bytes(path, f"P5\n{w} {h}\n255\n".encode("ascii") + motion.tobytes(order="C"))


def read_motion(path) -> np.ndarray:
    """The uint8 (h, w) levels of a motion file: a read-only view of its
    bytes, after every header check."""
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
    payload = len(data) - pos
    if payload < w * h:
        raise TruncatedFile(f"{path}: payload {payload} bytes, expected {w * h}")
    if payload > w * h:
        raise BadHeader(f"{path}: {payload - w * h} trailing bytes")
    return np.frombuffer(data, dtype=np.uint8, offset=pos).reshape(h, w)


# -- structured-text helpers ------------------------------------------------

def _dump_json(path, obj) -> None:
    """Write ``obj`` as sorted, indented JSON text, a numpy number as the one it holds;
    NaN or infinity, which JSON lacks, is NonFiniteValue before any byte is written."""
    try:
        text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False, default=np.generic.item)
    except ValueError:
        raise NonFiniteValue(f"{path}: NaN or infinity, which the format cannot hold") from None
    atomic_write_bytes(path, (text + "\n").encode("ascii"))


def _load_json(path):
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as e:
        raise SchemaViolation("$", f"{path}: not valid UTF-8 text ({e})") from None
    try:
        return json.loads(text)
    except (RecursionError, ValueError) as e:  # bad syntax, too deep, an integer over the digit limit
        raise SchemaViolation("$", f"{path}: invalid structured text ({e})") from None


def _number(value, field) -> float:
    """A JSON number as a finite float, or SchemaViolation at field."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaViolation(field, f"expected a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:
        raise SchemaViolation(field, "number beyond the float range") from None
    if not math.isfinite(value):
        raise SchemaViolation(field, f"expected a finite number, got {value!r}")
    return value


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
        value = _number(value, field)
    elif kind == "str":
        if not isinstance(value, str):
            raise SchemaViolation(field, f"expected a string, got {value!r}")
    elif kind == "list":
        if not isinstance(value, list):
            raise SchemaViolation(field, f"expected a list, got {type(value).__name__}")
    elif kind == "dict":
        if not isinstance(value, dict):
            raise SchemaViolation(field, f"expected an object, got {type(value).__name__}")
    return value


# -- labels -------------------------------------------------------------------

def _int_field(value, field, path) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaViolation(field, f"{path}: expected an integer, got {value!r}")
    return int(value)


def _block(items, indent, brackets="[]") -> str:
    """Encoded items as ``json.dumps(indent=2)`` lays out a list (or, with
    ``"{}"``, an object), its items at ``indent`` spaces."""
    if not items:
        return brackets
    pad = "\n" + " " * indent
    return brackets[0] + pad + ("," + pad).join(items) + pad[:-2] + brackets[1]


def write_labels(path, labels: LabelSet) -> None:
    """Write ``labels`` as exactly the text of ``json.dumps(doc,
    sort_keys=True, indent=2)`` plus a newline, emitted directly for the
    label schema so that no JSON encoder runs over the RLE counts.

    Before any byte is written, NaN or infinity in a score or box raises
    NonFiniteValue, and what :func:`read_labels` would refuse raises
    SchemaViolation at the field it would name: a frame id that is not a
    string; a height, width or id that is a ``bool`` or not an ``int``; a
    frame that is empty or over ``MAX_LABEL_PIXELS``; a negative box size;
    an attribute key that is not a string.
    """
    if not isinstance(labels.frame_id, str):
        raise SchemaViolation("$.frame_id", f"{path}: expected a string, got {labels.frame_id!r}")
    height = _int_field(labels.height, "$.height", path)
    width = _int_field(labels.width, "$.width", path)
    if height < 1 or width < 1 or height * width > MAX_LABEL_PIXELS:
        raise SchemaViolation("$.height", f"{path}: frame {height}x{width} is empty or "
                                          f"exceeds {MAX_LABEL_PIXELS} pixels")
    size = _block((str(height), str(width)), 10)
    entries = []
    for i, inst in enumerate(labels.instances):
        at = f"$.instances[{i}]"
        iid = _int_field(inst.instance_id, f"{at}.id", path)
        score, *box = map(float, (inst.score, inst.box.x, inst.box.y, inst.box.w, inst.box.h))
        if not all(map(math.isfinite, (score, *box))):
            raise NonFiniteValue(f"{path}: NaN or infinity, which the format cannot hold")
        if box[2] < 0 or box[3] < 0:
            raise SchemaViolation(f"{at}.box", f"{path}: negative box size in {box}")
        attrs = ""
        if inst.attributes is not None:
            if not all(isinstance(k, str) for k in inst.attributes):
                raise SchemaViolation(f"{at}.attributes", f"{path}: attribute keys must be strings")
            items = [f"{json.dumps(k)}: {'true' if v else 'false'}" for k, v in sorted(inst.attributes.items())]
            attrs = f'"attributes": {_block(items, 8, "{}")},\n      '
        entries.append(
            f'{{\n      {attrs}"box": {_block(list(map(repr, box)), 8)},\n      "id": {iid},\n'
            f'      "rle": {{\n        "counts": {_block(list(map(str, inst.mask.counts)), 10)},\n'
            f'        "size": {size}\n      }},\n      "score": {score!r}\n    }}')
    text = (f'{{\n  "frame_id": {json.dumps(labels.frame_id)},\n  "height": {height},\n'
            f'  "instances": {_block(entries, 4)},\n  "width": {width}\n}}\n')
    atomic_write_bytes(path, text.encode("ascii"))


def read_labels(path) -> LabelSet:
    """Parse and validate a label file; a field's fault names its path, and
    :class:`Rle`'s counts fault is re-raised naming the file and instance.
    Boxes need not be tight: scaled label sets carry real-valued boxes."""
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
        box_vals = [_number(v, f"{at}.box[{j}]") for j, v in enumerate(box_raw)]
        if box_vals[2] < 0 or box_vals[3] < 0:
            raise SchemaViolation(f"{at}.box", f"negative box size in {box_vals}")
        rle_raw = _want(entry, "rle", "dict", at)
        size = _want(rle_raw, "size", "list", f"{at}.rle")
        if len(size) != 2 or any(isinstance(v, bool) or not isinstance(v, int) for v in size):
            raise SchemaViolation(f"{at}.rle.size", f"expected [height, width], got {size!r}")
        if size != [height, width]:
            raise SchemaViolation(f"{at}.rle.size", f"mask size {size} != frame size {[height, width]}")
        counts = _want(rle_raw, "counts", "list", f"{at}.rle")
        if set(map(type, counts)) - {int} or min(counts, default=0) < 0:
            j, c = next((j, c) for j, c in enumerate(counts)
                        if isinstance(c, bool) or not isinstance(c, int) or c < 0)
            raise SchemaViolation(f"{at}.rle.counts[{j}]", f"expected a non-negative integer, got {c!r}")
        try:
            rle = Rle(height=height, width=width, counts=counts)
        except RleSumMismatch:
            raise RleSumMismatch(f"{path}: instance {iid} counts sum to {sum(counts)}, "
                                 f"expected {height * width}") from None
        attributes = None
        if "attributes" in entry:
            attrs_raw = _want(entry, "attributes", "dict", at)
            attributes = {}
            for k in sorted(attrs_raw):
                if not isinstance(attrs_raw[k], bool):
                    raise SchemaViolation(f"{at}.attributes.{k}", f"expected a boolean, got {attrs_raw[k]!r}")
                attributes[k] = attrs_raw[k]
        instances.append(InstanceLabel(mask=rle, box=BBox(*box_vals), score=score,
                                       instance_id=iid, attributes=attributes))
    return LabelSet(frame_id=frame_id, height=height, width=width, instances=instances)


def read_frame_labels(path, frame_id: str) -> LabelSet:
    """The labels of frame ``frame_id``: MissingPredictions when the file
    is missing, FrameMismatch when it holds another frame."""
    if not Path(path).exists():
        raise MissingPredictions(frame_id)
    labels = read_labels(path)
    if labels.frame_id != frame_id:
        raise FrameMismatch(f"{path} holds frame {labels.frame_id!r}, not {frame_id!r}")
    return labels


# -- intrinsics / transform ---------------------------------------------------

def write_intrinsics(path, k: CameraIntrinsics) -> None:
    _dump_json(path, {"fx": float(k.fx), "fy": float(k.fy), "cx": float(k.cx), "cy": float(k.cy)})


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
    _dump_json(path, {
        "scale": float(t.scale),
        "pad_right": t.pad_right,
        "pad_bottom": t.pad_bottom,
        "orig_height": t.orig_height,
        "orig_width": t.orig_width,
    })


def read_transform(path) -> ScaleTransform:
    """Read a transform file: its scale and frame size rebuild the transform
    with :func:`~mobilabel.rescale.make_transform`, and its padding must be
    the padding that transform derives, or the file is refused."""
    doc = _load_json(path)
    scale = _want(doc, "scale", "num", "$")
    pad_right = _want(doc, "pad_right", "int", "$")
    pad_bottom = _want(doc, "pad_bottom", "int", "$")
    orig_height = _want(doc, "orig_height", "int", "$")
    orig_width = _want(doc, "orig_width", "int", "$")
    try:
        t = make_transform(orig_height, orig_width, scale)
        derived = (t.pad_right, t.pad_bottom)
    except (ValueError, OverflowError) as e:  # OverflowError: a size beyond the float range
        raise SchemaViolation("$", str(e)) from None
    if (pad_right, pad_bottom) != derived:
        raise SchemaViolation("$.pad_right" if pad_right != derived[0] else "$.pad_bottom",
                              f"padding (right, bottom) {(pad_right, pad_bottom)} != {derived}, the padding "
                              f"of a {orig_height}x{orig_width} frame at scale {scale}")
    return t


# -- dataset layout -------------------------------------------------------------

@dataclass(frozen=True)
class DatasetLayout:
    """Directory convention: depth/, motion/, labels/ plus one intrinsics
    file at the root; frames are named by zero-padded decimal ids."""

    root: Path

    def __post_init__(self):
        object.__setattr__(self, "root", Path(self.root))

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
