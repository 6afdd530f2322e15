"""The three stages as one property.

Random small scenes, detector noise and stage settings go through
``run_pipeline`` with ``mock_detector``. Each stage's output is checked
against what it must equal: moving2mobile the cut responses, large2small
the literal aggregation interpreter over the inverted cut responses read
back from the exchange, final the large2small labels. A rerun must write
byte-identical exchange trees.
"""

import tempfile
import zlib
from pathlib import Path

import numpy as np
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from mobilabel.aggregate import AggParams
from mobilabel.errors import MobilabelError, PlacementFailure
from mobilabel.initlabel import LabelSet
from mobilabel.io import read_transform
from mobilabel.maskcore import PreparedMask, rle_encode
from mobilabel.rescale import invert_labels, transform_labels
from mobilabel.rounds import DetectorExchange, RoundConfig, run_pipeline, threshold_filter
from mobilabel.synthgen import DetectorNoise, SceneSpec, generate_scene, mock_detector

from oracles import mask_agg_literal

unit = st.floats(0.0, 1.0)


@st.composite
def runs(draw):
    h, w = draw(st.integers(24, 200)), draw(st.integers(24, 200))
    spec = SceneSpec(seed=draw(st.integers(0, 10_000)), height=h, width=w,
                     n_objects=(0, draw(st.integers(0, 6))), size_range=(4, max(4, min(h, w) // 3)),
                     margin=draw(st.integers(0, 3)), ellipse_fraction=draw(st.sampled_from((0.0, 0.5, 1.0))))
    noise = DetectorNoise(mask_jitter=draw(st.integers(0, 3)), score_mean=draw(unit),
                          score_sigma=draw(st.floats(0.0, 0.5)), dropout=draw(st.floats(0.0, 0.5)),
                          false_positives=draw(st.integers(0, 8)), fp_size=draw(st.integers(1, 15)))
    agg = AggParams(*(draw(st.floats(0.05, 0.95)) for _ in range(3)))
    stages = (
        RoundConfig(stage="moving2mobile", conf_threshold=draw(unit), scale=(0.5, 1.0)),
        RoundConfig(stage="large2small", conf_threshold=(draw(unit), draw(unit)),
                    scale=(draw(st.floats(0.05, 1.0)), draw(st.floats(0.05, 1.0))), agg=agg),
        RoundConfig(stage="final", scale=(0.5, 1.0)),
    )
    return spec, noise, stages, draw(st.integers(1, 2))


def _detector(gts, noise, seed):
    """mock_detector over each frame's ground truth, one random stream per
    (frame, scale) so that a rerun answers the same."""
    def detector(ls, transform):
        gt = gts[ls.frame_id]
        tag = 0 if transform is None else 1 + int(round(transform.scale * 1_000_000))
        rng = np.random.default_rng([seed, zlib.crc32(ls.frame_id.encode("utf-8")), tag])
        if transform is None:
            return mock_detector(gt, noise, rng)
        return mock_detector(transform_labels(gt, transform), noise, rng,
                             region=(transform.content_height, transform.content_width))
    return detector


def _tree(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _literal_input(ls: LabelSet) -> list[dict]:
    return [{"mask": PreparedMask(i.mask).frame(), "score": i.score} for i in ls.instances]


@given(runs())
@settings(max_examples=60, deadline=None)
def test_pipeline_stages_equal_their_oracles_and_rerun_byte_identical(run):
    spec, noise, stages, n_frames = run
    try:
        gts = [generate_scene(spec, i)[3] for i in range(n_frames)]
    except PlacementFailure:
        reject()
    l0 = [LabelSet(g.frame_id, g.height, g.width, [i for i in g.instances if i.attributes["moving"]])
          for g in gts]
    detector = _detector({g.frame_id: g for g in gts}, noise, spec.seed)
    m2m, l2s, _ = stages
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "a", Path(tmp) / "b"
        try:
            res = run_pipeline(l0, stages, first, detector=detector)
            again = run_pipeline(l0, stages, second, detector=detector)
        except MobilabelError:
            return  # a typed refusal; any other exception fails the test
        assert again == res and _tree(second) == _tree(first)

        cut = DetectorExchange(first / "moving2mobile")
        assert res["moving2mobile"] == [threshold_filter(cut.read_response(g.frame_id), m2m.conf_threshold)
                                        for g in gts]
        runs_l2s = [DetectorExchange(first / f"large2small.{branch}") for branch in ("large", "small")]
        for got in res["large2small"]:
            fid = got.frame_id
            large, small = (invert_labels(threshold_filter(ex.read_response(fid), conf),
                                          read_transform(ex.transform_path(fid)))
                            for ex, conf in zip(runs_l2s, l2s.conf_threshold))
            want = mask_agg_literal(_literal_input(large), _literal_input(small),
                                    l2s.agg.match_thrd, l2s.agg.filt_frac, l2s.agg.cover_frac)
            assert sorted((i.mask.counts, i.score) for i in got.instances) == sorted(
                (rle_encode(d["mask"]).counts, d["score"]) for d in want)
            assert [i.instance_id for i in got.instances] == list(range(len(got.instances)))
        assert res["final"] == res["large2small"]
