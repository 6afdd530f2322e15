import json
import math
import os
import stat
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from mobilabel.errors import (
    BadHeader,
    BadMagic,
    FormatError,
    FrameMismatch,
    MissingPredictions,
    NonFiniteValue,
    RleSumMismatch,
    SchemaViolation,
    TruncatedFile,
)
from mobilabel.initlabel import CameraIntrinsics, InstanceLabel, LabelSet
from mobilabel.io import (
    atomic_write_bytes,
    DatasetLayout,
    read_depth,
    read_frame_labels,
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
from mobilabel.maskcore import BBox, PreparedMask, Rle
from mobilabel.rescale import make_transform

from oracles import RefReject, label_counts_ref, read_depth_ref


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


_SIDES = st.one_of(st.integers(0, 5), st.sampled_from([65_535, 2**31, 2**32 - 1]),
                   st.integers(0, 2**32 - 1))


@st.composite
def depth_files(draw):
    """A valid depth file, then left as it is, cut short, given byte flips,
    given inserted bytes, or given another declared width and height."""
    h, w = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    values = draw(st.lists(st.floats(width=32), min_size=h * w, max_size=h * w))
    data = bytearray(b"DPF1" + struct.pack("<II", w, h) + np.array(values, dtype="<f4").tobytes())
    op = draw(st.sampled_from(["keep", "truncate", "flip", "insert", "dims"]))
    if op == "truncate":
        del data[draw(st.integers(0, len(data) - 1)):]
    elif op == "flip":
        for _ in range(draw(st.integers(1, 4))):
            data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
    elif op == "insert":
        at = draw(st.integers(0, len(data)))
        data[at:at] = draw(st.binary(min_size=1, max_size=8))
    elif op == "dims":
        data[4:12] = struct.pack("<II", draw(_SIDES), draw(_SIDES))
    return bytes(data)


@given(depth_files())
@settings(max_examples=400, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_read_depth_matches_the_whole_file_reader(tmp_path, blob):
    p = tmp_path / "d.dpf1"
    p.write_bytes(blob)
    try:
        want = read_depth_ref(p)
    except RefReject as ref:
        with pytest.raises(FormatError) as got:
            read_depth(p)
        assert (type(got.value).__name__, str(got.value)) == (ref.kind, ref.message)
        return
    got = read_depth(p)
    assert got.dtype == np.float32 and got.shape == want.shape
    assert got.flags.c_contiguous and got.flags.writeable
    assert np.array_equal(got, want)


def test_read_depth_checks_the_declared_size_before_allocating(tmp_path):
    p = tmp_path / "d.dpf1"
    p.write_bytes(b"DPF1" + struct.pack("<II", 65_535, 65_535))  # 16 GiB declared
    tracemalloc.start()
    try:
        with pytest.raises(TruncatedFile):
            read_depth(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# -- motion ------------------------------------------------------------------

def test_motion_quantization_round_trip(tmp_path):
    p = tmp_path / "m.pgm"
    prob = np.array([[1.0, 25 / 255, 26 / 255, 0.0]])
    write_motion(p, prob)
    back = read_motion(p) / 255.0
    assert back[0, 0] == 1.0
    assert back[0, 1] == pytest.approx(0.098, abs=1e-3)
    assert back[0, 1] < 0.1 <= back[0, 2]  # straddles the default threshold
    assert np.array_equal(back, prob)  # these values are exactly representable


def test_motion_arbitrary_values_quantize_to_1_255(tmp_path):
    p = tmp_path / "m.pgm"
    rng = np.random.default_rng(2)
    prob = rng.random((5, 7))
    write_motion(p, prob)
    assert np.abs(read_motion(p) / 255.0 - prob).max() <= 0.5 / 255 + 1e-12


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


@pytest.mark.parametrize("blob", [
    b"P5\n" + b"1" * 5000 + b" 1\n255\n",
    b"P5\n1 " + b"1" * 5000 + b"\n255\n",
    b"P5\n1 1\n" + b"2" * 5000 + b"\n\x00",
], ids=["width", "height", "maxval"])
def test_motion_header_token_beyond_the_digit_limit_is_typed(tmp_path, blob):
    p = tmp_path / "m.pgm"
    p.write_bytes(blob)
    with pytest.raises(BadHeader):
        read_motion(p)


def test_motion_writer_rejects_bad_probabilities(tmp_path):
    with pytest.raises(ValueError):
        write_motion(tmp_path / "m.pgm", np.array([[1.2]]))


@given(arrays(np.uint8, array_shapes(min_dims=2, max_dims=2, max_side=12)))
@settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_motion_writer_stores_uint8_levels_byte_for_byte(tmp_path, levels):
    p = tmp_path / "m.pgm"
    write_motion(p, levels)
    h, w = levels.shape
    assert p.read_bytes() == f"P5\n{w} {h}\n255\n".encode("ascii") + levels.tobytes()
    back = read_motion(p)
    assert back.dtype == np.uint8 and not back.flags.writeable
    assert np.array_equal(back, levels)


def test_motion_writer_deterministic(tmp_path):
    prob = np.random.default_rng(0).random((4, 4))
    a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
    write_motion(a, prob)
    write_motion(b, prob.copy())
    assert a.read_bytes() == b.read_bytes()


# -- structured text ------------------------------------------------------------

@pytest.mark.parametrize("write, value", [
    (write_intrinsics, CameraIntrinsics(fx=math.inf, fy=1.0, cx=0.0, cy=0.0)),
    (write_intrinsics, CameraIntrinsics(fx=1.0, fy=1.0, cx=math.nan, cy=0.0)),
    (write_labels, LabelSet("f", 2, 2, [InstanceLabel(
        mask=PreparedMask.from_bits(np.ones((2, 2), bool), 0, 0, (2, 2)).rle(),
        box=BBox(0.0, 0.0, 2.0, math.inf), score=1.0, instance_id=0)])),
    (write_labels, LabelSet("f", 2, 2, [InstanceLabel(
        mask=PreparedMask.from_bits(np.ones((2, 2), bool), 0, 0, (2, 2)).rle(),
        box=BBox(math.nan, 0.0, 2.0, 2.0), score=1.0, instance_id=0)])),
    (write_labels, LabelSet("f", 2, 2, [InstanceLabel(
        mask=PreparedMask.from_bits(np.ones((2, 2), bool), 0, 0, (2, 2)).rle(),
        box=BBox(0.0, -math.inf, 2.0, 2.0), score=1.0, instance_id=0)])),
], ids=["intrinsics-inf", "intrinsics-nan", "labels-inf", "labels-nan-box", "labels-neg-inf-box"])
def test_json_writers_refuse_non_finite_values(tmp_path, write, value):
    p = tmp_path / "out.json"
    with pytest.raises(NonFiniteValue, match="out.json"):
        write(p, value)
    assert list(tmp_path.iterdir()) == []


# -- labels -------------------------------------------------------------------

def test_labels_round_trip(tmp_path):
    p = tmp_path / "l.json"
    labels = sample_labels()
    write_labels(p, labels)
    back = read_labels(p)
    assert back == labels
    assert all(inst.box == PreparedMask(inst.mask).box for inst in back.instances)


def test_labels_writer_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_labels(a, sample_labels())
    write_labels(b, sample_labels())
    assert a.read_bytes() == b.read_bytes()


def _labels_text_ref(labels):
    """The label file as the generic encoder wrote it: the schema's dict,
    then ``json.dumps(sort_keys=True, indent=2)`` and a newline."""
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
    doc = {"frame_id": labels.frame_id, "height": labels.height, "width": labels.width,
           "instances": instances}
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("ascii")


_EDGE_FLOATS = [0.0, -0.0, 1e-05, 0.1, 1e16, 5e-324, 1.7976931348623157e308]
# non-ASCII, quotes, backslashes, control characters and lone surrogates
_label_text = st.text(st.characters(codec=None, categories=None)
                      | st.sampled_from(['"', "\\", "\x00", "\x7f", "\ud800", "\udfff", "é", "€"]),
                      max_size=6)
_coords = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(_EDGE_FLOATS)
_sizes = st.floats(min_value=0.0, allow_infinity=False) | st.sampled_from(_EDGE_FLOATS)
_scores = st.floats(0.0, 1.0) | st.sampled_from([0.0, -0.0, 1e-05, 0.1, 5e-324, 1.0])


@st.composite
def label_sets(draw):
    h, w = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    ids = draw(st.lists(st.integers(-2**70, 2**70), unique=True, max_size=4))
    instances = []
    for iid in ids:
        cuts = draw(st.lists(st.integers(0, h * w), max_size=5))  # none: a single-count RLE
        counts = np.diff([0, *sorted(cuts), h * w]).tolist()
        attributes = draw(st.none() | st.dictionaries(_label_text, st.booleans(), max_size=3))
        instances.append(InstanceLabel(
            mask=Rle(h, w, counts), box=BBox(draw(_coords), draw(_coords), draw(_sizes), draw(_sizes)),
            score=draw(_scores), instance_id=iid, attributes=attributes))
    return LabelSet(draw(_label_text), h, w, instances)


@given(label_sets())
@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_labels_writer_bytes_match_the_generic_encoder(tmp_path, labels):
    p = tmp_path / "l.json"
    write_labels(p, labels)
    assert p.read_bytes() == _labels_text_ref(labels)


def _one_instance(h=2, w=2, box=BBox(0.0, 0.0, 2.0, 2.0), instance_id=0, attributes=None):
    return InstanceLabel(mask=Rle(h, w, (h * w,)), box=box, score=1.0,
                         instance_id=instance_id, attributes=attributes)


@pytest.mark.parametrize("labels, field", [
    (LabelSet("f", 2, 2, [_one_instance(box=BBox(0, 0, -1, 2))]), "$.instances[0].box"),
    (LabelSet("f", 2, 2, [_one_instance(box=BBox(0, 0, 2, -0.5))]), "$.instances[0].box"),
    (LabelSet("f", 8192, 8193, []), "$.height"),
    (LabelSet("f", 0, 3, []), "$.height"),
    (LabelSet("f", 2, 2, [_one_instance(instance_id=True)]), "$.instances[0].id"),
    (LabelSet("f", 2, 2, [_one_instance(instance_id=np.int64(3))]), "$.instances[0].id"),
    (LabelSet("f", 2, 2, [_one_instance(), _one_instance(instance_id=1.0)]), "$.instances[1].id"),
    (LabelSet("f", True, 1, [_one_instance(h=True, w=1)]), "$.height"),
    (LabelSet("f", 2, 2.0, [_one_instance()]), "$.width"),
    (LabelSet(7, 2, 2, []), "$.frame_id"),
    # an int key would read back as a string key, not as written
    (LabelSet("f", 2, 2, [_one_instance(attributes={1: True})]), "$.instances[0].attributes"),
], ids=["negative-width", "negative-height", "over-max-pixels", "empty-frame", "bool-id", "int64-id",
        "float-id", "bool-height", "float-width", "int-frame-id", "int-attribute-key"])
def test_labels_writer_refuses_what_the_reader_refuses(tmp_path, labels, field):
    p = tmp_path / "out.json"
    with pytest.raises(SchemaViolation, match="out.json") as exc:
        write_labels(p, labels)
    assert exc.value.field_path == field
    assert list(tmp_path.iterdir()) == []


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
    back = read_labels(p)  # tolerated: scaled boxes are not pixel-tight
    assert back.instances[0].box.x == sample_labels().instances[0].box.x + 1.0


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
    assert corrupted(lambda d: d.__setitem__("height", 0)) == "$.height"
    assert corrupted(lambda d: d["instances"][1].__setitem__("score", 1.5)) == "$.instances[1].score"
    assert corrupted(lambda d: d["instances"][0].__setitem__("score", float("nan"))) == "$.instances[0].score"
    assert corrupted(lambda d: d["instances"][0]["box"].append(0)) == "$.instances[0].box"
    assert corrupted(lambda d: d["instances"][0]["box"].__setitem__(2, -1.0)) == "$.instances[0].box"
    assert corrupted(lambda d: d["instances"][0]["rle"].__setitem__("size", [5, 8])) == "$.instances[0].rle.size"
    assert corrupted(lambda d: d["instances"][1].__setitem__("id", 0)) == "$.instances[1].id"
    assert corrupted(lambda d: d["instances"][0]["attributes"].__setitem__("moving", "yes")) \
        == "$.instances[0].attributes.moving"

    def huge_frame(d):  # consistent counts, but decoding would need about 10 GB
        d.update(height=100_000, width=100_000)
        for inst in d["instances"]:
            inst["rle"] = {"size": [100_000, 100_000], "counts": [10**10]}
    assert corrupted(huge_frame) == "$.height"


# ints, negatives, bools, floats, strings, None and ints beyond 64 bits
_count_values = st.one_of(st.integers(-3, 12), st.booleans(), st.floats(), st.text(max_size=2),
                          st.none(), st.integers(2**63, 2**70), st.integers(-2**70, -2**63))


@given(st.integers(1, 4), st.integers(1, 4), st.lists(st.integers(0, 16), max_size=6),
       st.lists(st.tuples(st.integers(0, 8), _count_values), max_size=3))
@settings(max_examples=400, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_label_counts_faults_match_the_loop_oracle(tmp_path, h, w, cuts, edits):
    counts = np.diff([0, *sorted(min(c, h * w) for c in cuts), h * w]).tolist()
    for i, value in edits:  # overwrite a run, or append past the end
        if i < len(counts):
            counts[i] = value
        else:
            counts.append(value)
    p = tmp_path / "l.json"
    p.write_text(json.dumps({"frame_id": "f", "height": h, "width": w, "instances": [
        {"id": 3, "score": 0.5, "box": [0, 0, 1, 1], "rle": {"size": [h, w], "counts": counts}}]}))
    want = label_counts_ref(p, "$.instances[0]", 3, h, w, counts)
    if want is None:
        inst, = read_labels(p).instances
        assert list(inst.mask.counts) == counts
        return
    with pytest.raises(FormatError) as exc:
        read_labels(p)
    name, field, message = want
    assert type(exc.value).__name__ == name
    assert getattr(exc.value, "field_path", None) == field
    assert str(exc.value) == message


def test_read_frame_labels_refuses_missing_and_other_frames(tmp_path):
    p = tmp_path / "000042.json"
    with pytest.raises(MissingPredictions, match="000042"):
        read_frame_labels(p, "000042")
    write_labels(p, sample_labels())
    assert read_frame_labels(p, "000042") == sample_labels()
    with pytest.raises(FrameMismatch, match="holds frame '000042', not '000007'"):
        read_frame_labels(p, "000007")


def test_labels_invalid_json_is_typed(tmp_path):
    p = tmp_path / "l.json"
    p.write_text("{not json")
    with pytest.raises(SchemaViolation):
        read_labels(p)
    p.write_bytes(b"\xff\xfe\x00garbage")
    with pytest.raises(SchemaViolation):
        read_labels(p)


def _one_instance(**entry):
    return {"frame_id": "f", "height": 2, "width": 2, "instances": [
        {"id": 0, "score": 0.5, "box": [0, 0, 1, 1], "rle": {"size": [2, 2], "counts": [0, 4]},
         **entry}]}


@pytest.mark.parametrize("read, doc, field", [
    (read_labels, _one_instance(score=10**400), "$.instances[0].score"),
    (read_labels, _one_instance(box=[0, 0, 10**400, 1]), "$.instances[0].box[2]"),
    (read_intrinsics, {"fx": 10**400, "fy": 1.0, "cx": 0.0, "cy": 0.0}, "$.fx"),
])
def test_numbers_beyond_the_float_range_are_typed(tmp_path, read, doc, field):
    p = tmp_path / "f.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(SchemaViolation) as exc:
        read(p)
    assert exc.value.field_path == field


def test_labels_nested_too_deep_are_typed(tmp_path):
    p = tmp_path / "f.json"
    p.write_text('{"frame_id": "f", "height": 2, "width": 2, "instances": '
                 + "[" * 200_000 + "]" * 200_000 + "}")
    with pytest.raises(SchemaViolation) as exc:
        read_labels(p)
    assert exc.value.field_path == "$"


def test_labels_integer_over_the_digit_limit_is_typed(tmp_path):
    p = tmp_path / "f.json"
    p.write_text('{"frame_id": "f", "height": 1' + "0" * 5000 + ', "width": 2, "instances": []}')
    with pytest.raises(SchemaViolation) as exc:
        read_labels(p)
    assert exc.value.field_path == "$"


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
    p.write_text('{"fx": Infinity, "fy": 2, "cx": 0, "cy": 0}')
    with pytest.raises(SchemaViolation) as exc:
        read_intrinsics(p)
    assert exc.value.field_path == "$.fx"
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


@given(st.integers(1, 5000), st.integers(1, 5000),
       st.floats(0, 1, exclude_min=True).filter(lambda s: 1 / s < math.inf))
@settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_transform_file_holds_only_the_derived_padding(tmp_path, h, w, scale):
    p = tmp_path / "t.json"
    t = make_transform(h, w, scale)
    write_transform(p, t)
    assert read_transform(p) == t
    doc = json.loads(p.read_text())
    for key in ("pad_right", "pad_bottom"):
        for delta in (-1, 1):
            p.write_text(json.dumps({**doc, key: doc[key] + delta}))
            with pytest.raises(SchemaViolation) as exc:
                read_transform(p)
            assert exc.value.field_path == f"$.{key}"


@pytest.mark.parametrize("doc", [
    # padding of an 8x8 frame at scale 1: the true content region at 0.25 is 2x2
    {"scale": 0.25, "pad_right": 0, "pad_bottom": 0, "orig_height": 8, "orig_width": 8},
    # a 400-digit size, beyond the float range
    {"scale": 0.25, "pad_right": 0, "pad_bottom": 0, "orig_height": 10**399, "orig_width": 8},
    # a scale whose reciprocal, by which labels are mapped back, is infinite
    {"scale": 5e-324, "pad_right": 7, "pad_bottom": 7, "orig_height": 8, "orig_width": 8},
])
def test_transform_file_refused_typed(tmp_path, doc):
    p = tmp_path / "t.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(SchemaViolation):
        read_transform(p)


# -- dataset layout ----------------------------------------------------------------

def test_dataset_layout_validate(tmp_path):
    ds = DatasetLayout(tmp_path / "data")
    ds.ensure_dirs()
    fid = "000003"
    write_depth(ds.depth_path(fid), np.full((4, 5), 2.0, dtype=np.float32))
    write_motion(ds.motion_path(fid), np.zeros((4, 5)))
    assert ds.validate() == [fid]

    fid2 = "000004"
    write_depth(ds.depth_path(fid2), np.full((4, 5), 2.0, dtype=np.float32))
    with pytest.raises(FrameMismatch):
        ds.validate()  # depth without motion
    write_motion(ds.motion_path(fid2), np.zeros((6, 5)))
    assert ds.validate() == [fid, fid2]  # shapes are checked when a frame is read


def test_atomic_write_leaves_no_temp_files(tmp_path):
    p = tmp_path / "x.json"
    write_intrinsics(p, CameraIntrinsics(1, 1, 0, 0))
    assert [f.name for f in tmp_path.iterdir()] == ["x.json"]


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=oct)
def test_atomic_write_gives_the_mode_open_gives(tmp_path, umask):
    # a detector running as another user must be able to read its requests
    old = os.umask(umask)
    try:
        atomic_write_bytes(tmp_path / "atomic", b"x")
        with open(tmp_path / "plain", "wb") as f:
            f.write(b"x")
    finally:
        os.umask(old)
    mode = stat.S_IMODE((tmp_path / "atomic").stat().st_mode)
    assert mode == stat.S_IMODE((tmp_path / "plain").stat().st_mode) == 0o666 & ~umask


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
