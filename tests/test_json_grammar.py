"""Grammar-built JSON spliced into valid label, intrinsics, transform and
manifest documents: every reader returns or raises a FormatError.

Criterion 8 flips, cuts and inserts bytes, so most of its files are not
JSON at all. Here each file is JSON, or nearly: one value of a valid
document is replaced by a generated one, or its key or list slot is
repeated with it. The values come from a small JSON grammar with the
tokens Python's parser accepts beyond the standard (NaN, Infinity),
numbers beyond the float range and the integer digit limit, nesting
deeper than the parser's recursion limit, non-ASCII and unpaired
surrogate strings, and objects with repeated keys.
"""

import json

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from mobilabel.errors import FormatError
from mobilabel.io import MAX_LABEL_PIXELS, read_intrinsics, read_labels, read_transform
from mobilabel.rounds import DetectorExchange, default_stages


def label_doc(height, width):
    n = height * width
    return {"frame_id": "000007", "height": height, "width": width, "instances": [
        {"id": 0, "score": 0.875, "box": [2.0, 1.0, 5.0, 4.0],
         "rle": {"size": [height, width], "counts": [n - 20, 20]}, "attributes": {"moving": True}},
        {"id": 1, "score": 0.5, "box": [0.0, 0.0, 1.0, 1.0],
         "rle": {"size": [height, width], "counts": [0, 1, n - 1]}},
    ]}


DOCS = {
    "labels": label_doc(12, 16),
    # the largest frame accepted, and one pixel row past it
    "labels-2^26": label_doc(8192, MAX_LABEL_PIXELS // 8192),
    "labels-over-2^26": label_doc(8193, MAX_LABEL_PIXELS // 8192),
    "intrinsics": {"cx": 8.0, "cy": 6.0, "fx": 100.0, "fy": 120.0},
    "transform": {"scale": 0.25, "pad_right": 12, "pad_bottom": 9, "orig_height": 12, "orig_width": 16},
    # what DetectorExchange.write_manifest writes for the two-scale stage
    "manifest": json.loads(json.dumps({"frame_ids": ["000007", "000008"],
                                       "config": default_stages()[1].to_dict()})),
}


def read(kind, path):
    if kind == "manifest":
        return DetectorExchange(path.parent).read_manifest()
    return {"intrinsics": read_intrinsics, "transform": read_transform}.get(kind, read_labels)(path)


def paths(value, at=()):
    """Every place in a document, the root included, as a key/index path."""
    yield at
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for step, child in items:
        yield from paths(child, at + (step,))


def splice(value, at, fragment, mode):
    """``value`` as JSON text, with the value at path ``at`` replaced by the
    text ``fragment`` ("replace"), or with its key or list slot repeated
    holding ``fragment`` before or after the original ("before", "after";
    the parser keeps a repeated key's last value)."""
    if not at:
        return fragment
    step, rest = at[0], at[1:]
    parts = []
    for k, v in (value.items() if isinstance(value, dict) else enumerate(value)):
        key = f"{json.dumps(k)}: " if isinstance(value, dict) else ""
        if k != step:
            parts.append(key + json.dumps(v))
        elif rest or mode == "replace":
            parts.append(key + splice(v, rest, fragment, mode))
        else:
            pair = [key + json.dumps(v), key + fragment]
            parts += pair if mode == "after" else pair[::-1]
    return ("{%s}" if isinstance(value, dict) else "[%s]") % ", ".join(parts)


SITES = [(kind, at) for kind, doc in DOCS.items() for at in paths(doc)]

KEYS = sorted({k for doc in DOCS.values() for at in paths(doc) for k in at if isinstance(k, str)})

atoms = st.one_of(
    st.sampled_from(["null", "true", "false", "NaN", "Infinity", "-Infinity", "-0", "-0.0",
                     "1e400", "-1e400", "1e-400", "5e-324", "0.1", "1e16", "255",
                     str(2**63), str(MAX_LABEL_PIXELS), str(MAX_LABEL_PIXELS + 1)]),
    st.integers().map(str),
    st.floats().map(json.dumps),
    st.integers(4290, 4310).map(lambda n: "9" * n),  # around the integer digit limit
    st.integers(300, 400).map(lambda n: "1" * n + ".5"),  # integer part beyond the float range
    st.text().map(json.dumps),
    st.text().map(lambda s: json.dumps(s, ensure_ascii=False)),
)


def nested(depth, inner):
    return "[" * depth + inner + "]" * depth


values = st.recursive(
    atoms,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4).map(lambda xs: "[" + ", ".join(xs) + "]"),
        # keys drawn from the schema's own names, so repeats and near-misses are common
        st.lists(st.tuples(st.sampled_from(KEYS) | st.text(max_size=3), inner), max_size=4).map(
            lambda kvs: "{" + ", ".join(f"{json.dumps(k)}: {v}" for k, v in kvs) + "}")),
    max_leaves=8,
) | st.builds(nested, st.integers(1, 3000), atoms)


@given(st.sampled_from(SITES), st.sampled_from(["replace", "before", "after"]), values)
@example(("labels-over-2^26", ()), "replace", json.dumps(DOCS["labels-over-2^26"]))
@example(("transform", ("scale",)), "replace", "5e-324")
@example(("intrinsics", ("fx",)), "after", nested(100_000, "1"))
@settings(max_examples=600, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_readers_return_or_fail_typed_on_spliced_json(tmp_path, site, mode, fragment):
    kind, at = site
    path = tmp_path / ("MANIFEST.json" if kind == "manifest" else f"{kind}.json")
    # an unpaired surrogate becomes bytes that are not UTF-8, which the readers refuse
    path.write_bytes(splice(DOCS[kind], at, fragment, mode).encode("utf-8", "surrogatepass"))
    try:
        read(kind, path)
    except FormatError:
        pass


def test_documents_are_valid_but_for_the_frame_limit(tmp_path):
    for kind, doc in DOCS.items():
        path = tmp_path / ("MANIFEST.json" if kind == "manifest" else f"{kind}.json")
        path.write_text(json.dumps(doc))
        if kind == "labels-over-2^26":
            with pytest.raises(FormatError) as exc:
                read(kind, path)
            assert exc.value.field_path == "$.height"
        else:
            assert read(kind, path) is not None
