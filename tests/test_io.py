import json

import numpy as np
import pytest

from mobilabel.errors import (
    BadHeader,
    BadMagic,
    BoxMaskInconsistency,
    FormatError,
    FrameMismatch,
    NonFiniteValue,
    RleSumMismatch,
    SchemaViolation,
    TruncatedFile,
)
from mobilabel.initlabel import CameraIntrinsics, InstanceLabel, LabelSet
from mobilabel.io import (
    DatasetLayout,
    read_depth,
    read_intrinsics,
    read_labels,
    read_motion,
    read_transform,
    write_depth,
    write_intrinsics,
    write_labels,
    write_motion,
    write_transform,
)
from mobilabel.maskcore import BBox
from mobilabel.rescale import make_transform


def sample_labels():
    m1 = np.zeros((6, 8), dtype=bool)
    m1[1:3, 2:5] = True
    m2 = np.zeros((6, 8), dtype=bool)
    m2[4:6, 0:2] = True
    return LabelSet("000042", 6, 8, [
        InstanceLabel.from_mask(m1, 0.875, 0, attributes={"moving": True}),
        InstanceLabel.from_mask(m2, 0.5, 1, attributes={"moving": False}),
    ])


# -- depth -----------------------------------------------------------------

def test_depth_round_trip_and_length(tmp_path):
    p = tmp_path / "d.dpf1"
    depth = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
    write_depth(p, depth)
    assert p.stat().st_size == 4 + 8 + 16
    back = read_depth(p)
    assert back.dtype == np.float32
    assert np.array_equal(back, depth)


def test_depth_bad_magic(tmp_path):
    p = tmp_path / "d.dpf1"
    p.write_bytes(b"XXXX" + b"\x00" * 24)
    with pytest.raises(BadMagic):
        read_depth(p)


def test_depth_truncated(tmp_path):
    p = tmp_path / "d.dpf1"
    write_depth(p, np.ones((2, 2), dtype=np.float32))
    data = p.read_bytes()
    for cut in (0, 3, 8, 27):
        p.write_bytes(data[:cut])
        with pytest.raises(TruncatedFile):
            read_depth(p)


def test_depth_trailing_bytes(tmp_path):
    p = tmp_path / "d.dpf1"
    write_depth(p, np.ones((2, 2), dtype=np.float32))
    p.write_bytes(p.read_bytes() + b"!")
    with pytest.raises(BadHeader):
        read_depth(p)


def test_depth_nan_rejected_both_ways(tmp_path):
    p = tmp_path / "d.dpf1"
    with pytest.raises(NonFiniteValue):
        write_depth(p, np.array([[np.nan]]))
    write_depth(p, np.ones((1, 1), dtype=np.float32))
    data = bytearray(p.read_bytes())
    data[12:16] = np.array([np.nan], dtype="<f4").tobytes()
    p.write_bytes(bytes(data))
    with pytest.raises(NonFiniteValue):
        read_depth(p)


def test_depth_writer_deterministic(tmp_path):
    depth = np.linspace(0.5, 80.0, 12, dtype=np.float32).reshape(3, 4)
    a, b = tmp_path / "a.dpf1", tmp_path / "b.dpf1"
    write_depth(a, depth)
    write_depth(b, depth.copy())
    assert a.read_bytes() == b.read_bytes()


# -- motion ------------------------------------------------------------------

def test_motion_quantization_round_trip(tmp_path):
    p = tmp_path / "m.pgm"
    prob = np.array([[1.0, 25 / 255, 26 / 255, 0.0]])
    write_motion(p, prob)
    back = read_motion(p)
    assert back[0, 0] == 1.0
    assert back[0, 1] == pytest.approx(0.098, abs=1e-3)
    assert back[0, 1] < 0.1 <= back[0, 2]  # straddles the default threshold
    assert np.array_equal(back, prob)  # these values are exactly representable


def test_motion_arbitrary_values_quantize_to_1_255(tmp_path):
    p = tmp_path / "m.pgm"
    rng = np.random.default_rng(2)
    prob = rng.random((5, 7))
    write_motion(p, prob)
    assert np.abs(read_motion(p) - prob).max() <= 0.5 / 255 + 1e-12


def test_motion_header_errors(tmp_path):
    p = tmp_path / "m.pgm"
    cases = [
        (b"P6\n2 2\n255\n" + b"\x00" * 4, BadHeader),   # wrong type
        (b"P5\n2 x\n255\n" + b"\x00" * 4, BadHeader),   # non-integer token
        (b"P5\n2 2\n254\n" + b"\x00" * 4, BadHeader),   # unsupported maxval
        (b"P5\n2 2\n255\n" + b"\x00" * 3, TruncatedFile),
        (b"P5\n2 2\n255\n" + b"\x00" * 5, BadHeader),   # trailing
        (b"P5\n2 2", TruncatedFile),
        (b"P", TruncatedFile),
        (b"", TruncatedFile),
    ]
    for blob, err in cases:
        p.write_bytes(blob)
        with pytest.raises(err):
            read_motion(p)


def test_motion_writer_rejects_bad_probabilities(tmp_path):
    with pytest.raises(ValueError):
        write_motion(tmp_path / "m.pgm", np.array([[1.2]]))


def test_motion_writer_deterministic(tmp_path):
    prob = np.random.default_rng(0).random((4, 4))
    a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
    write_motion(a, prob)
    write_motion(b, prob.copy())
    assert a.read_bytes() == b.read_bytes()


# -- labels -------------------------------------------------------------------

def test_labels_round_trip(tmp_path):
    p = tmp_path / "l.json"
    labels = sample_labels()
    write_labels(p, labels)
    back = read_labels(p, box_tol=0.0)
    assert back == labels


def test_labels_writer_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_labels(a, sample_labels())
    write_labels(b, sample_labels())
    assert a.read_bytes() == b.read_bytes()


def test_labels_rle_sum_mismatch(tmp_path):
    p = tmp_path / "l.json"
    write_labels(p, sample_labels())
    doc = json.loads(p.read_text())
    doc["instances"][0]["rle"]["counts"][0] += 1
    p.write_text(json.dumps(doc))
    with pytest.raises(RleSumMismatch):
        read_labels(p)


def test_labels_box_not_tight(tmp_path):
    p = tmp_path / "l.json"
    write_labels(p, sample_labels())
    doc = json.loads(p.read_text())
    doc["instances"][0]["box"][0] += 1.0
    p.write_text(json.dumps(doc))
    read_labels(p)  # tolerated by default: scaled boxes are not pixel-tight
    with pytest.raises(BoxMaskInconsistency):
        read_labels(p, box_tol=0.0)


def test_labels_schema_violations_carry_field_paths(tmp_path):
    p = tmp_path / "l.json"
    write_labels(p, sample_labels())
    base = json.loads(p.read_text())

    def corrupted(mutate):
        doc = json.loads(json.dumps(base))
        mutate(doc)
        p.write_text(json.dumps(doc))
        with pytest.raises(SchemaViolation) as exc:
            read_labels(p)
        return exc.value.field_path

    assert corrupted(lambda d: d.pop("frame_id")) == "$.frame_id"
    assert corrupted(lambda d: d.__setitem__("height", "six")) == "$.height"
    assert corrupted(lambda d: d["instances"][1].__setitem__("score", 1.5)) == "$.instances[1].score"
    assert corrupted(lambda d: d["instances"][0]["box"].append(0)) == "$.instances[0].box"
    assert corrupted(lambda d: d["instances"][0]["rle"].__setitem__("size", [5, 8])) == "$.instances[0].rle.size"
    assert corrupted(lambda d: d["instances"][1].__setitem__("id", 0)) == "$.instances[1].id"
    assert corrupted(lambda d: d["instances"][0]["attributes"].__setitem__("moving", "yes")) \
        == "$.instances[0].attributes.moving"

    def huge_frame(d):  # consistent counts, but decoding would need about 10 GB
        d.update(height=100_000, width=100_000)
        for inst in d["instances"]:
            inst["rle"] = {"size": [100_000, 100_000], "counts": [10**10]}
    assert corrupted(huge_frame) == "$.height"


def test_labels_invalid_json_is_typed(tmp_path):
    p = tmp_path / "l.json"
    p.write_text("{not json")
    with pytest.raises(SchemaViolation):
        read_labels(p)
    p.write_bytes(b"\xff\xfe\x00garbage")
    with pytest.raises(SchemaViolation):
        read_labels(p)


# -- intrinsics / transform -----------------------------------------------------

def test_intrinsics_round_trip(tmp_path):
    p = tmp_path / "k.json"
    k = CameraIntrinsics(fx=721.5, fy=721.5, cx=609.6, cy=172.85)
    write_intrinsics(p, k)
    assert read_intrinsics(p) == k
    write_intrinsics(p, k)
    first = p.read_bytes()
    write_intrinsics(p, k)
    assert p.read_bytes() == first


def test_intrinsics_validation(tmp_path):
    p = tmp_path / "k.json"
    p.write_text('{"fx": -1, "fy": 2, "cx": 0, "cy": 0}')
    with pytest.raises(SchemaViolation):
        read_intrinsics(p)
    p.write_text('{"fx": 1, "fy": 2, "cx": 0}')
    with pytest.raises(SchemaViolation) as exc:
        read_intrinsics(p)
    assert exc.value.field_path == "$.cy"


def test_transform_round_trip(tmp_path):
    p = tmp_path / "t.json"
    t = make_transform(800, 1200, 0.25)
    write_transform(p, t)
    assert read_transform(p) == t


def test_transform_validation(tmp_path):
    p = tmp_path / "t.json"
    p.write_text('{"scale": 2.0, "pad_right": 0, "pad_bottom": 0, "orig_height": 4, "orig_width": 4}')
    with pytest.raises(SchemaViolation):
        read_transform(p)
    p.write_text('{"scale": 0.5, "pad_right": 4, "pad_bottom": 0, "orig_height": 4, "orig_width": 4}')
    with pytest.raises(SchemaViolation):
        read_transform(p)


# -- dataset layout ----------------------------------------------------------------

def test_dataset_layout_validate(tmp_path):
    ds = DatasetLayout(tmp_path / "data")
    ds.ensure_dirs()
    fid = DatasetLayout.frame_name(3)
    assert fid == "000003"
    write_depth(ds.depth_path(fid), np.full((4, 5), 2.0, dtype=np.float32))
    write_motion(ds.motion_path(fid), np.zeros((4, 5)))
    assert ds.validate() == [fid]

    fid2 = DatasetLayout.frame_name(4)
    write_depth(ds.depth_path(fid2), np.full((4, 5), 2.0, dtype=np.float32))
    with pytest.raises(FrameMismatch):
        ds.validate()  # depth without motion
    write_motion(ds.motion_path(fid2), np.zeros((6, 5)))
    assert ds.validate() == [fid, fid2]  # shapes are checked when a frame is read


def test_atomic_write_leaves_no_temp_files(tmp_path):
    p = tmp_path / "x.json"
    write_intrinsics(p, CameraIntrinsics(1, 1, 0, 0))
    assert [f.name for f in tmp_path.iterdir()] == ["x.json"]


# -- a small fuzz smoke test (the big one lives in the acceptance suite) -------

def test_fuzzed_corruption_yields_typed_errors(tmp_path):
    rng = np.random.default_rng(99)
    depth_p = tmp_path / "d.dpf1"
    motion_p = tmp_path / "m.pgm"
    labels_p = tmp_path / "l.json"
    write_depth(depth_p, np.full((3, 3), 1.5, dtype=np.float32))
    write_motion(motion_p, np.zeros((3, 3)))
    write_labels(labels_p, sample_labels())
    blobs = {
        depth_p: depth_p.read_bytes(),
        motion_p: motion_p.read_bytes(),
        labels_p: labels_p.read_bytes(),
    }
    readers = {depth_p: read_depth, motion_p: read_motion, labels_p: read_labels}
    for path, blob in blobs.items():
        for _ in range(300):
            data = bytearray(blob)
            op = rng.integers(0, 3)
            if op == 0 and len(data) > 1:
                data = data[: rng.integers(0, len(data))]
            elif op == 1:
                for _ in range(int(rng.integers(1, 6))):
                    data[int(rng.integers(0, len(data)))] = int(rng.integers(0, 256))
            else:
                data += bytes(rng.integers(0, 256, size=int(rng.integers(1, 9)), dtype=np.uint8))
            path.write_bytes(bytes(data))
            try:
                readers[path](path)
            except FormatError:
                pass  # typed rejection is the contract; silence means the blob stayed valid
